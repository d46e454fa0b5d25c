"""What ``grs`` imports: every name a module imports is used in that
module, and importing the package leaves ``dataclasses`` out."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import grs
from test_uncalled import _annotations

MODULES = sorted(p for p in Path(grs.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def _used(tree):
    """Names read in the module, including those inside string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                names |= _used(ast.parse(c.value, mode="eval"))
    return names


def test_every_import_is_used():
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = _used(tree)
        offenders += [f"{path.name}:{line}: {name}" for name, line in _imported(tree)
                      if name not in used]
    print("\n".join(offenders))
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


def test_import_leaves_out_dataclasses():
    # decorating grs's records once cost more of each process's start than
    # most requests take; numpy, argparse, json and fractions do not import it
    code = "import grs, grs.cli, sys; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(grs.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "False\n"
