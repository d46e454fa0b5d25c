"""Sign-mutation harness for ``src/grs/exterior.py`` (pytest does not
collect it: the file name does not start with ``test_``).

It makes one mutant at a time in a copy of the tree and runs tier-1 on
the copy without the four byte pins (the report digests, the fixture-tree
pin, the op-list pin and the golden JSON), so that a mutant counts as
killed only when a test of meaning fails.  The mutants are:

  * each binary ``+`` turned into ``-``, and each binary ``-`` into ``+``;
  * each unary minus on a non-constant operand dropped;
  * each call of ``add(`` turned into ``sub(``, and back.

Augmented assignments (``j -= 1``) are left alone.  Run it from the
repository root:

    python tests/mutate_signs.py [--list]

``--list`` prints the mutants and runs nothing.  Otherwise it copies the
tree into a new temporary directory (removed at the end), checks that
the unmutated copy passes (exit status 2 if not), then prints one line
per mutant and lists the survivors at the end; the exit status is 1 when
any mutant survives.  A mutant whose run exceeds TIMEOUT_S seconds
counts as killed.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("src/grs/exterior.py")
WITHOUT_PINS = [
    "--ignore=tests/test_report_digest.py",
    "--ignore=tests/test_fixture_trees.py",
    "--deselect=tests/test_scalar.py::TestCompile::test_op_lists_are_pinned",
    "--deselect=tests/test_acceptance.py::test_10_end_to_end",
]
TIMEOUT_S = 600
SWAP = {"+": "-", "-": "+", "add": "sub", "sub": "add"}


def mutants(source: bytes):
    """(offset, old bytes, new bytes, line) for each mutant of ``source``."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(lineno, col):  # ast offsets are UTF-8 byte columns
        return starts[lineno - 1] + col

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            lo = at(node.left.end_lineno, node.left.end_col_offset)
            hi = at(node.right.lineno, node.right.col_offset)
            sym = "+" if isinstance(node.op, ast.Add) else "-"
            found.append((source.index(sym.encode(), lo, hi), sym, SWAP[sym], node.lineno))
        elif (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
              and not isinstance(node.operand, ast.Constant)):
            lo = at(node.lineno, node.col_offset)
            hi = at(node.operand.lineno, node.operand.col_offset)
            found.append((lo, source[lo:hi].decode(), "", node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("add", "sub")):
            name = node.func.id
            found.append((at(node.lineno, node.col_offset), name, SWAP[name], node.lineno))
    return sorted(found)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    args = ap.parse_args(argv)
    if args.list:
        source = (ROOT / TARGET).read_bytes()
        for k, (_, old, new, lineno) in enumerate(mutants(source)):
            print(f"#{k} line {lineno}: {old!r} -> {new!r}")
        return 0

    work = Path(tempfile.mkdtemp(prefix="mutate_signs_"))
    try:
        return run_mutants(work)
    finally:
        shutil.rmtree(work)


def run_mutants(work: Path) -> int:
    """Copy the tree into ``work`` and run every mutant there."""
    for part in ("src", "tests", "pyproject.toml", "README.md"):
        copy = shutil.copytree if (ROOT / part).is_dir() else shutil.copy2
        copy(ROOT / part, work / part)
    target = work / TARGET
    source = target.read_bytes()
    lines = source.decode().splitlines()
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *WITHOUT_PINS]
    env = {**os.environ, "PYTHONPATH": str(work / "src")}

    if subprocess.run(cmd, cwd=work, env=env, capture_output=True).returncode != 0:
        print("the unmutated copy fails its tests; no mutant was run")
        return 2
    survivors = []
    for k, (offset, old, new, lineno) in enumerate(mutants(source)):
        target.write_bytes(source[:offset] + new.encode() + source[offset + len(old):])
        try:
            run = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
            verdict = "survived" if run.returncode == 0 else "killed"
        except subprocess.TimeoutExpired:
            verdict = "killed (timeout)"
        label = f"#{k} line {lineno}: {old!r} -> {new!r}  | {lines[lineno - 1].strip()}"
        print(f"{verdict:16} {label}", flush=True)
        if verdict == "survived":
            survivors.append(label)
    print(f"\n{len(survivors)} survivor(s)")
    for label in survivors:
        print("  " + label)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
