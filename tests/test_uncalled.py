"""Every function, class, method and module constant in ``grs`` is
referenced in ``grs`` or exported from the package."""

import ast
from pathlib import Path

import grs

SOURCES = sorted(Path(grs.__file__).parent.glob("*.py"))

# methods that the expression protocol calls through the base class
PROTOCOL = {"_diff", "_parts", "_eval"}

# names kept although nothing in grs calls them, each with its reason
KEPT = {
    "metricity_residual": "acceptance test 08 checks Levi-Civita metricity with it",
    "SampleSet.with_exclusion": "the exclusion-floor tests and ROADMAP B use it",
}


def _definitions(tree):
    """(qualified name, bare name, line) for each top-level def, method and
    name assigned at module level."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                yield name.id, name.id, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _references(tree):
    """Names read, attributes taken and names imported in a module,
    including those inside string annotations."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            refs |= {a.name for a in n.names}
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                refs |= _references(ast.parse(c.value, mode="eval"))
    return refs


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    refs = set().union(*map(_references, trees.values()))
    offenders, stale = [], []
    for path, tree in trees.items():
        for qual, name, line in _definitions(tree):
            if name in PROTOCOL or (name.startswith("__") and name.endswith("__")):
                continue
            if qual in KEPT:
                if name in refs:
                    stale.append(qual)
            elif name not in refs:
                offenders.append(f"{path.name}:{line}: {qual}")
    print("\n".join(offenders))
    assert not offenders, "defined but never referenced:\n" + "\n".join(offenders)
    assert not stale, f"KEPT names that grs now references: {stale}"
