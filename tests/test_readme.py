"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order_in_one_namespace(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) >= 4
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    assert capsys.readouterr().out.splitlines() == [
        "True 0.0", "True", "['e1∨e1', 'e1∨e2', 'e2∨e2']", "True", "['e1', 'e2', 'e3']", "True"]
