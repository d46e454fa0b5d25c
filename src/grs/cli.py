"""Command-line front end: verify .grs spec files, list the catalog,
evaluate single expressions.

Exit codes: 0 all checks pass, 1 any check fails, 2 parse/bind
diagnostics, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from . import catalog, dsl
from .engine import verify
from .errors import GrsError
from .exterior import Chart, MetricSpec


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="grs",
                                 description="residual verification for "
                                             "geometric field equations")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the checks in a .grs file")
    v.add_argument("file")
    v.add_argument("--json", action="store_true", dest="as_json")
    v.add_argument("--tol", type=float, default=None,
                   help="override tolerance for every check")
    v.add_argument("--points", type=int, default=None,
                   help="override sample point count for every check")
    v.add_argument("--seed", type=int, default=None,
                   help="override the seed of random sample sets")
    v.add_argument("--fail-fast", action="store_true")

    sub.add_parser("catalog", help="list catalog entries")

    e = sub.add_parser("eval", help="evaluate a scalar expression at a point")
    e.add_argument("expr")
    e.add_argument("--at", required=True,
                   help="comma-separated bindings, e.g. x=1,y=2")
    return ap


def _apply_overrides(checks: List[dsl.BoundCheck], tol: Optional[float],
                     points: Optional[int], seed: Optional[int]) -> List[dsl.BoundCheck]:
    out = []
    for c in checks:
        sample = c.sample
        if points is not None:
            if sample.kind == "random":
                sample = replace(sample, count=points)
            else:
                sample = replace(sample, counts=(points,) * len(sample.bounds))
        if seed is not None and sample.kind == "random":
            sample = replace(sample, seed=seed)
        out.append(dsl.BoundCheck(c.name, c.entry, c.condition, sample,
                                  tol if tol is not None else c.tol))
    return out


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def cmd_verify(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: cannot read {args.file}: {e.strerror}", file=sys.stderr)
        return 3
    if args.tol is not None and args.tol <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    if args.points is not None and args.points < 1:
        print("error: --points must be >= 1", file=sys.stderr)
        return 2
    checks, diags = dsl.load(text)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        for d in diags:
            print(d.render(), file=sys.stderr)
        return 2
    try:
        checks = _apply_overrides(checks, args.tol, args.points, args.seed)
    except GrsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    reports = []
    any_fail = False
    for c in checks:
        try:
            rep = verify(c.condition, c.sample, c.tol)
        except GrsError as e:
            print(f"error: {c.name}: {e}", file=sys.stderr)
            return 2
        rep.condition = c.name
        reports.append(rep)
        if not rep.passed:
            any_fail = True
            if args.fail_fast:
                break
    if args.as_json:
        doc = {"version": 1, "checks": [r.to_dict() for r in reports]}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        header = (f"{'check':<28} {'entry':<26} {'points':>7} {'linf':>10} "
                  f"{'rms':>10} {'tol':>8} verdict")
        print(header)
        print("-" * len(header))
        for rep in reports:
            verdict = "PASS" if rep.passed else "FAIL"
            print(f"{rep.condition:<28} {rep.entry:<26} {rep.evaluated:>7} "
                  f"{_fmt(rep.linf):>10} {_fmt(rep.rms):>10} "
                  f"{rep.tol:>8.0e} {verdict}")
    return 1 if any_fail else 0


def cmd_catalog(_args) -> int:
    ids = catalog.catalog_ids()
    width = max(len(i) for i in ids)
    sig_width = max(len(catalog.get_entry(i).signature) for i in ids)
    for cid in ids:
        entry = catalog.get_entry(cid)
        print(f"{cid:<{width}}  {entry.signature:<{sig_width}}  {entry.description}")
    return 0


def cmd_eval(args) -> int:
    bindings = []
    for piece in args.at.split(","):
        piece = piece.strip()
        if "=" not in piece:
            print(f"error: bad binding {piece!r}; expected name=value",
                  file=sys.stderr)
            return 2
        name, _, val = piece.partition("=")
        try:
            bindings.append((name.strip(), float(val)))
        except ValueError:
            print(f"error: bad number in binding {piece!r}", file=sys.stderr)
            return 2
    ast, diags = dsl.parse_expression(args.expr)
    if ast is None:
        for d in diags:
            print(d.render(), file=sys.stderr)
        return 2
    names = tuple(name for name, _ in bindings)
    chart = Chart(names, MetricSpec.diagonal([1.0] * len(names)))
    binder = dsl._Binder(args.expr.splitlines())
    binder.chart = chart
    try:
        expr = binder.bind_expr(ast, 1)
    except dsl._Bail:
        for d in binder.diags:
            print(d.render(), file=sys.stderr)
        return 2
    try:
        value = expr.ev(tuple(v for _, v in bindings))
    except GrsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if value.imag == 0.0:
        print(repr(value.real))
    else:
        print(repr(value))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_argparser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "catalog":
        return cmd_catalog(args)
    return cmd_eval(args)


if __name__ == "__main__":
    sys.exit(main())
