"""Workload inputs and requests.

A request is one unit a grs user waits for: one ``grs verify`` run of a
spec file, or one catalog build + verify + JSON report of a condition.
Each request knows its verdicts (from ``answers``) and the number of
sample points it asks for.  Every request goes through grs's public
entry points, looked up at call time so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import grs
import grs.catalog
import grs.cli
import grs.engine
from grs.exterior import Chart, MetricSpec
from grs.scalar import SampleSet, const, coord, sin

import answers

SPEC_DIR = Path(grs.__file__).parent / "specs"

# Points per check in ``specs_small``.  Fewer is unsafe: at 8 points on
# seed 13 the known violator mass_energy#2 samples only its zero region
# and reads PASS.  At 32 points every verdict is right on seeds 0-199.
SMALL_POINTS = 32

SCHWARZSCHILD_POINTS = 5000
SCHWARZSCHILD_BOX = ((3.0, 10.0), (0.3, 2.8), (0.0, 6.2), (-1.0, 1.0))
DENSE_POINTS = 64
DENSE_CONTROL_POINTS = 8
DENSE_BOX = ((-1.0, 1.0),) * 4
CATALOG_TOL = 1e-8


@dataclass
class Request:
    """One closed-loop request.

    ``call`` runs grs and returns (exit code, JSON report text).
    ``expect`` maps each check name to (verdict, requested points).
    """

    name: str
    call: Callable[[], Tuple[int, str]]
    expect: Dict[str, Tuple[bool, int]]

    @property
    def points(self) -> int:
        return sum(n for _verdict, n in self.expect.values())


def sample_seed(seed: int) -> int:
    """The benchmark seed as a sample seed (numpy needs it non-negative)."""
    return seed % 2 ** 64


def _cli_call(argv: List[str]) -> Callable[[], Tuple[int, str]]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = grs.cli.main(argv)
            except SystemExit as e:  # argparse rejects a command line
                code = e.code if isinstance(e.code, int) else 2
        if code not in (0, 1):
            return code, err.getvalue()
        return code, out.getvalue()

    return call


def spec_requests(seed: int, points: Optional[int] = None) -> List[Request]:
    out = []
    for fname, checks in sorted(answers.SPECS.items()):
        argv = ["verify", str(SPEC_DIR / fname), "--json",
                "--seed", str(sample_seed(seed))]
        if points is not None:
            argv += ["--points", str(points)]
        expect = {name: (verdict, points or n) for name, verdict, n in checks}
        out.append(Request(fname, _cli_call(argv), expect))
    return out


def _catalog_call(name: str, entry: str, chart: Chart, sample: SampleSet,
                  tol: float) -> Callable[[], Tuple[int, str]]:
    def call():
        cond = grs.catalog.build(entry, chart)
        rep = grs.engine.verify(cond, sample, tol)
        rep.condition = name
        doc = {"version": 1, "checks": [rep.to_dict()]}
        return (0 if rep.passed else 1), json.dumps(doc, indent=2, sort_keys=True)

    return call


def _catalog_request(name: str, entry: str, chart: Chart, box, points: int,
                     seed: int, verdict: bool) -> Request:
    sample = SampleSet.random_box(box, points, sample_seed(seed))
    return Request(name, _catalog_call(name, entry, chart, sample, CATALOG_TOL),
                   {name: (verdict, points)})


def dense_flat_chart(conformal: bool = False) -> Chart:
    """g = J^T J for x_k = u_k + 0.2 sin(u_{k+1}) (indices mod 4).

    The metric is the Euclidean one pulled back by a diffeomorphism of
    [-1, 1]^4, so Ric = 0, but its entries are not diagonal and Ricci
    goes through the symbolic cofactor inverse.  ``conformal`` multiplies
    g by (1 + 0.1 u0^2), which makes it curved.
    """
    u = [coord(k) for k in range(4)]
    x = [u[k] + const(0.2) * sin(u[(k + 1) % 4]) for k in range(4)]
    jac = [[x[k].diff(j) for j in range(4)] for k in range(4)]
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            acc = const(0.0)
            for k in range(4):
                acc = acc + jac[k][i] * jac[k][j]
            if conformal:
                acc = acc * (const(1.0) + const(0.1) * u[0] * u[0])
            row.append(acc)
        rows.append(row)
    return Chart(("u0", "u1", "u2", "u3"), MetricSpec.matrix(rows))


def schwarzschild_requests(seed: int) -> List[Request]:
    return [_catalog_request("ricci_flat/schwarzschild", "ricci_flat",
                             grs.catalog.schwarzschild_chart(1.0),
                             SCHWARZSCHILD_BOX, SCHWARZSCHILD_POINTS, seed,
                             answers.SCHWARZSCHILD)]


def dense_requests(seed: int) -> List[Request]:
    return [
        _catalog_request("ricci_flat/dense_flat4", "ricci_flat",
                         dense_flat_chart(), DENSE_BOX, DENSE_POINTS, seed,
                         answers.DENSE_FLAT),
        _catalog_request("ricci_flat/dense_flat4_control", "ricci_flat",
                         dense_flat_chart(conformal=True), DENSE_BOX,
                         DENSE_CONTROL_POINTS, seed, answers.DENSE_CONTROL),
    ]


WORKLOADS: Dict[str, Callable[[int], List[Request]]] = {
    "specs": spec_requests,
    "specs_small": lambda seed: spec_requests(seed, SMALL_POINTS),
    "schwarzschild_5k": schwarzschild_requests,
    "dense_flat4": dense_requests,
}
