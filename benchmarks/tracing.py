"""Spans around grs's layer entry points, recorded from outside grs.

``Tracer.install`` swaps wrappers onto the module attributes each layer
is called through; ``uninstall`` puts the originals back, so untraced
passes run the unmodified program.  Spans are kept in memory and
written once, at the end of the run.

Layers and the calls that bound them:

    dsl.parse       grs.dsl.parse
    dsl.bind        grs.dsl.bind_document (minus the catalog.build inside)
    catalog.build   grs.catalog.build
    scalar.compile  a root-level ``Expr.fn()`` on every residual, made
                    just before verify so verify finds them compiled
    engine.verify   grs.engine.verify / grs.cli.verify (evaluate + reduce)
    cli.report      ResidualReport.to_dict and json.dumps

``Expr.fn`` itself is not wrapped: it recurses once per node.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from typing import Dict, Iterable, List, Tuple

import grs.catalog
import grs.cli
import grs.dsl
import grs.engine
from grs.scalar import Expr

LAYERS = ("dsl.parse", "dsl.bind", "catalog.build", "scalar.compile",
          "engine.verify", "cli.report")

# a later grs without Expr.fn compiles inside verify, if at all
COMPILE_SEPARATE = hasattr(Expr, "fn")


def node_counts(roots: Iterable[Expr]) -> Tuple[int, int, int]:
    """(dag, distinct, tree) node counts of the expressions under ``roots``.

    dag: node objects, by identity.  distinct: structurally different
    nodes, keyed by type, non-node fields (constant, axis, exponent,
    order) and the keys of the children.  tree: nodes when every root is
    expanded as a tree.  Node fields are read from outside: public slots
    holding an ``Expr`` are children, the others are part of the key.
    """
    fields_of: Dict[type, Tuple[str, ...]] = {}

    def split(node):
        names = fields_of.get(type(node))
        if names is None:
            names = tuple(s for cls in type(node).__mro__
                          for s in getattr(cls, "__slots__", ())
                          if not s.startswith("_"))
            fields_of[type(node)] = names
        values = [getattr(node, s) for s in names]
        kids = [v for v in values if isinstance(v, Expr)]
        return kids, tuple(v for v in values if not isinstance(v, Expr))

    key_of: Dict[int, int] = {}   # id(node) -> structural key number
    size_of: Dict[int, int] = {}  # id(node) -> tree size
    interned: Dict[tuple, int] = {}
    tree = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, kids_done = stack.pop()
            if id(node) in key_of:
                continue
            kids, scalars = split(node)
            if not kids_done:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in key_of)
                continue
            key = (type(node), scalars, tuple(key_of[id(k)] for k in kids))
            key_of[id(node)] = interned.setdefault(key, len(interned))
            size_of[id(node)] = 1 + sum(size_of[id(k)] for k in kids)
        tree += size_of[id(root)]
    return len(key_of), len(interned), tree


def residual_roots(cond) -> List[Expr]:
    return [e for comps in cond.residuals.values() for _idx, e in comps]


class Tracer:
    """In-memory spans and per-pass counts for the traced passes of a run."""

    def __init__(self):
        # [name, start, end, parent span index or -1, request id]
        self.spans: List[list] = []
        self.requests: List[Tuple[str, int]] = []  # (request name, pass)
        self.counts: List[Counter] = []            # one Counter per pass
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def start_pass(self) -> None:
        self.counts.append(Counter())

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           len(self.requests) - 1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def request(self, name: str):
        """Root span of one request; spans opened inside it share its id."""
        self.requests.append((name, len(self.counts) - 1))
        return self.span("request")

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_verify(self, verify):
        @functools.wraps(verify)
        def traced(cond, *args, **kwargs):
            roots = residual_roots(cond)
            with self.span("trace.count"):
                dag, distinct, tree = node_counts(roots)
            counts = self.counts[-1]
            counts["engine.components"] += len(roots)
            counts["scalar.dag_nodes"] += dag
            counts["scalar.distinct_nodes"] += distinct
            counts["scalar.tree_nodes"] += tree
            if COMPILE_SEPARATE:
                with self.span("scalar.compile"):
                    for e in roots:
                        e.fn()
            with self.span("engine.verify"):
                rep = verify(cond, *args, **kwargs)
            counts["engine.points_evaluated"] += rep.evaluated
            counts["engine.points_excluded"] += rep.excluded
            return rep

        return traced

    def install(self) -> None:
        targets = [
            (grs.dsl, "parse", "dsl.parse"),
            (grs.dsl, "bind_document", "dsl.bind"),
            (grs.catalog, "build", "catalog.build"),
            (grs.engine.ResidualReport, "to_dict", "cli.report"),
            (json, "dumps", "cli.report"),
        ]
        for owner, attr, name in targets:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig))
        verify = self._wrap_verify(grs.engine.verify)
        for owner in (grs.engine, grs.cli):
            self._saved.append((owner, "verify", getattr(owner, "verify")))
            setattr(owner, "verify", verify)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> List[Counter]:
        """Per pass: each layer's span time minus its child spans' time."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_pass = [Counter() for _ in self.counts]
        for i, (name, start, end, _parent, rid) in enumerate(self.spans):
            per_pass[self.requests[rid][1]][name] += (end - start) - child[i]
        return per_pass

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": self.spans,
            "requests": [{"name": n, "pass": p} for n, p in self.requests],
            "counts": [dict(c) for c in self.counts],
        }
