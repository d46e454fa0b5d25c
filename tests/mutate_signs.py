"""Sign-mutation harness for ``src/grs/exterior.py``, the operators and
metric geometry of ``src/grs/diffops.py``, ``lift_pointwise`` in
``src/grs/valued.py``, the catalog builders and chart builders that carry
a sign, the DSL binder's form terms, the derivative rules and the
complex-arithmetic and ``Sub``/``Neg``/``Bump`` evaluation kernels of
``src/grs/scalar.py``, and the reduction to norms in ``verify`` of
``src/grs/engine.py`` (pytest does not collect it: the file name does not
start with ``test_``).

It makes one mutant at a time in a copy of the tree and runs tier-1 on
the copy without the four byte pins (the report digests, the fixture-tree
pin, the op-list pin and the golden JSON), so that a mutant counts as
killed only when a test of meaning fails.  TARGETS names the files and,
for a file only part of which is mutated, its top-level functions and
methods (``Class.method``).  The mutants are:

  * each binary ``+`` turned into ``-``, and each binary ``-`` into ``+``;
  * each unary minus on a non-constant operand dropped, and each call of
    ``neg(`` turned into a bare ``(``;
  * each call of ``add(`` turned into ``sub(``, and back.

Augmented assignments (``j -= 1``) are left alone.  Run it from the
repository root:

    python tests/mutate_signs.py [--list]

``--list`` prints the mutants and runs nothing.  Otherwise it copies the
tree into a new temporary directory (removed at the end), checks that
the unmutated copy passes (exit status 2 if not), then prints one line
per mutant and lists the survivors at the end; the exit status is 1 when
any mutant survives that EQUIVALENT does not list.  A mutant whose run
exceeds TIMEOUT_S seconds counts as killed.
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
# (file, top-level functions and methods to mutate, or None for the whole file)
TARGETS = (
    (Path("src/grs/exterior.py"), None),
    (Path("src/grs/diffops.py"), (
        "d_form", "covariant_D", "curvature", "nabla_X", "lie_bracket", "projected_lie",
        "_levi_civita", "_riemann_into", "metricity_residual", "schrodinger_residual",
        "dirac_residual")),
    (Path("src/grs/valued.py"), ("lift_pointwise",)),
    (Path("src/grs/catalog.py"), ("_omega_matrix", "_poisson_first_integrals", "_mass_energy",
                                  "_maxwell_currents", "_ext_maxwell_currents",
                                  "schwarzschild_chart")),
    (Path("src/grs/dsl.py"), ("_Binder._vform",)),
    (Path("src/grs/scalar.py"), tuple(f"{c}._diff" for c in (
        "Add", "Sub", "Mul", "Div", "Pow", "Neg", "Sin", "Cos", "Exp", "Bump"))
     + ("_cmul", "_cdiv", "_ipow", "Sub._eval", "Neg._eval", "Bump._eval")),
    (Path("src/grs/engine.py"), ("verify",)),
)
# surviving mutants that change no verdict, by (file, mutated line, old, new)
EQUIVALENT = {
    (Path("src/grs/exterior.py"), "return (-cof if (i + j) % 2 == 1 else cof) / det", "+", "-"):
        "(i - j) % 2 has the parity of (i + j) % 2",
    (Path("src/grs/catalog.py"), "s = s + winv[i][j] * as_expr(va) * as_expr(vb)", "+", "-"):
        "it negates the Poisson bracket s, so the residual Z(s) only changes sign",
}
WITHOUT_PINS = [
    "--ignore=tests/test_report_digest.py",
    "--ignore=tests/test_fixture_trees.py",
    "--deselect=tests/test_scalar.py::TestCompile::test_op_lists_are_pinned",
    "--deselect=tests/test_acceptance.py::test_10_end_to_end",
]
TIMEOUT_S = 600
SWAP = {"+": "-", "-": "+", "add": "sub", "sub": "add", "neg": ""}


def _definitions(tree):
    """(qualified name, node) for each top-level function and each method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def mutants(source: bytes, functions=None):
    """(offset, old bytes, new bytes, line) for each mutant of ``source``,
    or of its top-level functions and methods when ``functions`` names them."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(lineno, col):  # ast offsets are UTF-8 byte columns
        return starts[lineno - 1] + col

    tree = ast.parse(source)
    if functions is not None:
        tree.body = [f for name, f in _definitions(tree) if name in functions]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            lo = at(node.left.end_lineno, node.left.end_col_offset)
            hi = at(node.right.lineno, node.right.col_offset)
            sym = "+" if isinstance(node.op, ast.Add) else "-"
            found.append((source.index(sym.encode(), lo, hi), sym, SWAP[sym], node.lineno))
        elif (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
              and not isinstance(node.operand, ast.Constant)):
            # only the "-": a parenthesized operand keeps its "("
            found.append((at(node.lineno, node.col_offset), "-", "", node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in SWAP):
            name = node.func.id
            found.append((at(node.lineno, node.col_offset), name, SWAP[name], node.lineno))
    return sorted(found)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    args = ap.parse_args(argv)
    if args.list:
        for k, (path, _, _, old, new, lineno) in enumerate(all_mutants(ROOT)):
            print(f"#{k} {path}:{lineno}: {old!r} -> {new!r}")
        return 0

    work = Path(tempfile.mkdtemp(prefix="mutate_signs_"))
    try:
        return run_mutants(work)
    finally:
        shutil.rmtree(work)


def all_mutants(root: Path):
    """(path, source, offset, old, new, line) for each mutant of TARGETS under ``root``."""
    for path, functions in TARGETS:
        source = (root / path).read_bytes()
        for offset, old, new, lineno in mutants(source, functions):
            yield path, source, offset, old, new, lineno


def run_mutants(work: Path) -> int:
    """Copy the tree into ``work`` and run every mutant there."""
    for part in ("src", "tests", "pyproject.toml", "README.md"):
        copy = shutil.copytree if (ROOT / part).is_dir() else shutil.copy2
        copy(ROOT / part, work / part)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *WITHOUT_PINS]
    env = {**os.environ, "PYTHONPATH": str(work / "src")}

    if subprocess.run(cmd, cwd=work, env=env, capture_output=True).returncode != 0:
        print("the unmutated copy fails its tests; no mutant was run")
        return 2
    survivors = []
    for k, (path, source, offset, old, new, lineno) in enumerate(all_mutants(work)):
        target = work / path
        target.write_bytes(source[:offset] + new.encode() + source[offset + len(old):])
        try:
            run = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
            verdict = "survived" if run.returncode == 0 else "killed"
        except subprocess.TimeoutExpired:
            verdict = "killed (timeout)"
        finally:
            target.write_bytes(source)
        line = source.decode().splitlines()[lineno - 1].strip()
        label = f"#{k} {path}:{lineno}: {old!r} -> {new!r}  | {line}"
        if verdict == "survived" and (path, line, old, new) in EQUIVALENT:
            verdict = "equivalent"
            label += f"  ({EQUIVALENT[path, line, old, new]})"
        print(f"{verdict:16} {label}", flush=True)
        if verdict == "survived":
            survivors.append(label)
    print(f"\n{len(survivors)} survivor(s)")
    for label in survivors:
        print("  " + label)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
