"""Labeled residual conditions and their evaluation over sample sets.

A ``GrCondition`` is filled in by ``add``, one labeled piece (an expression,
a form or a valued form) at a time; a catalog builder's pieces are already
fully symbolic, one expression tree per component.  ``verify`` compiles all of a
condition's trees into one deduplicated ``Program`` and evaluates it over
blocks of sample points, reducing each block into running norms.  A
block's magnitudes are one (components x rows) matrix, a row per
component in root order, and the singular points' columns leave it by
one index: a label's linf is the maximum over its rows, its sum of
squares runs over a point-major copy of them, point by point and left to
right within a point, as a pointwise fold would, and the per-point
maximum behind the worst point is the maximum down each column.  A NaN
propagates into all three.  A block has as many rows as fit in
``BLOCK_BYTES`` at 16 bytes per row for each value the program holds at
once (``Program.peak``, one complex value each) and for each component
(its magnitude and its row of the matrix), so a small program runs in
few blocks.  ``SampleSet.blocks`` draws each block's points when the
loop asks for it and drops the points the sample set excludes, so the
program never sees an excluded point (nor runs on a block left empty)
and memory does not grow with the number of points.  The report does
not depend on the block size.
A condition's values at chosen points come from the same compiler:
``Program(cond.roots()).at(points)``, one row per component in label
order.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, EmptySampleSet
from .exterior import AlternatingTensor, MultiIndex
from .scalar import Expr, Program, SampleSet, as_expr, magnitude
from .valued import ValuedForm


class GrCondition:
    """A residual condition with labeled components, built up by ``add``."""

    __slots__ = ("name", "entry", "residuals")

    def __init__(self, name: str, entry: str = ""):
        self.name, self.entry = name, entry
        # label -> [(form multi-index, residual expression), ...]
        self.residuals: "OrderedDict[str, List[Tuple[MultiIndex, Expr]]]" = OrderedDict()

    def labels(self) -> List[str]:
        return list(self.residuals.keys())

    def add(self, label: str, piece: Union[ValuedForm, AlternatingTensor, Expr, complex]) -> None:
        """Append ``piece``'s components under ``label``.

        An expression is one component.  A form's components go under
        ``label``, or under "1" when ``label`` is empty.  A valued form's
        slice E is a form filed under ``label + E``.
        """
        if isinstance(piece, ValuedForm):
            for lab, s in zip(piece.space.labels, piece.slices):
                self.add(label + lab, s)
        elif isinstance(piece, AlternatingTensor):
            comps = sorted(piece.components.items())
            self.residuals.setdefault(label or "1", []).extend(
                (idx, as_expr(v)) for idx, v in comps)
        else:
            self.residuals.setdefault(label, []).append(((), as_expr(piece)))

    def roots(self) -> List[Expr]:
        """Every residual component, label by label."""
        return [e for comps in self.residuals.values() for _idx, e in comps]


class ResidualReport:
    """Per-check verification record; ``seed`` copies the sample set's seed."""

    __slots__ = ("condition", "entry", "seed", "requested", "excluded", "evaluated", "norms",
                 "tol", "passed", "worst_point")

    def __init__(self, condition: str, entry: str, seed: Optional[int], requested: int,
                 excluded: int, evaluated: int, norms: "OrderedDict[str, dict]", tol: float,
                 passed: bool, worst_point: Optional[list]):
        self.condition, self.entry, self.seed = condition, entry, seed
        self.requested, self.excluded, self.evaluated = requested, excluded, evaluated
        self.norms, self.tol, self.passed, self.worst_point = norms, tol, passed, worst_point

    def to_dict(self) -> dict:
        return {
            "name": self.condition,
            "entry": self.entry,
            "samples": {
                "requested": self.requested,
                "excluded": self.excluded,
                "seed": self.seed,
            },
            "norms": {lab: {"linf": n["linf"], "rms": n["rms"]}
                      for lab, n in self.norms.items()},
            "tol": self.tol,
            "pass": self.passed,
            "worst_point": self.worst_point,
        }

    @property
    def linf(self) -> float:
        return float(np.max([n["linf"] for n in self.norms.values()], initial=0.0))

    @property
    def rms(self) -> float:
        return float(np.max([n["rms"] for n in self.norms.values()], initial=0.0))


DEFAULT_TOL = 1e-9


# bytes of values one block may hold; bounds verify's memory at any --points
BLOCK_BYTES = 16 << 20


def verify(c: GrCondition, sample: SampleSet, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Evaluate the condition over the sample set and reduce to norms.

    Points hitting evaluation singularities are recorded as excluded
    rather than fatal.  The pass criterion is max-over-labels of the
    L-infinity norm against ``tol``; a NaN or infinite residual at an
    evaluated point makes that norm non-finite, so the check fails.  A
    NaN or infinite ``tol`` raises DomainError: an infinite one would pass
    an infinite norm, and NaN would fail every check without a word.
    """
    if not math.isfinite(tol):
        raise DomainError(f"tolerance must be finite, got {tol!r}")
    labels = c.labels()
    spans = []  # each label's slice of the condition's components
    width = 0
    for lab in labels:
        spans.append((width, width + len(c.residuals[lab])))
        width = spans[-1][1]
    prog = Program(c.roots())
    rows = max(1, BLOCK_BYTES // (16 * max(1, prog.peak + width)))
    linf = [0.0] * len(labels)
    sumsq = [0.0] * len(labels)
    evaluated = 0
    worst_point = None
    worst_mag = -1.0
    # squares of huge magnitudes overflow to inf, which fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        for block in sample.blocks(rows):
            if not len(block):
                continue  # exclude rejected every row
            values, singular = prog.run(block)
            # a row per component; the reshape keeps a condition with none 2-D
            mags = np.array([magnitude(v) for v in values]).reshape(width, len(block))
            if singular.any():
                keep = ~singular
                block, mags = block[keep], mags[:, keep]
                if not len(block):
                    continue
            evaluated += len(block)
            for k, (a, b) in enumerate(spans):
                if a == b:
                    continue
                # np.maximum, unlike max(), keeps a NaN
                linf[k] = np.maximum(linf[k], mags[a:b].max())
                # the same left-to-right sum as one point at a time, so a
                # label's squares are laid out point-major
                sq = mags[a:b].T.flatten()
                sq *= sq
                sq[0] += sumsq[k]
                sumsq[k] = np.cumsum(sq, out=sq)[-1]
            point_max = mags.max(axis=0, initial=0.0)
            i = int(np.argmax(point_max))  # first maximum; a NaN counts as largest
            m = point_max[i]
            if m > worst_mag or (np.isnan(m) and not np.isnan(worst_mag)):
                worst_mag = m
                worst_point = block[i].tolist()
    excluded = sample.requested - evaluated
    if evaluated == 0:
        raise EmptySampleSet(f"no points left for {c.name!r} after exclusions")
    norms = OrderedDict()
    for k, lab in enumerate(labels):
        norms[lab] = {"linf": float(linf[k]),
                      "rms": (float(sumsq[k]) / evaluated) ** 0.5}
    passed = all(n["linf"] <= tol for n in norms.values())
    return ResidualReport(
        condition=c.name,
        entry=c.entry,
        seed=sample.seed,
        requested=sample.requested,
        excluded=excluded,
        evaluated=evaluated,
        norms=norms,
        tol=tol,
        passed=passed,
        worst_point=worst_point,
    )
