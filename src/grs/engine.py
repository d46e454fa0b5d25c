"""Labeled residual conditions and their evaluation over sample sets.

A ``GrCondition`` is filled in by ``add``, one labeled piece (an expression,
a form or a valued form) at a time; a catalog builder's pieces are already
fully symbolic, one expression tree per component.  ``verify`` compiles all of a
condition's trees into one deduplicated ``Program`` and evaluates it over
fixed blocks of ``BLOCK_ROWS`` sample points, reducing each block into
running norms, so memory does not grow with the number of points.
A condition's values at chosen points come from the same compiler:
``Program(cond.roots()).at(points)``, one row per component in label
order.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, EmptySampleSet
from .exterior import AlternatingTensor, MultiIndex
from .scalar import Expr, Program, SampleSet, as_expr, magnitude
from .valued import ValuedForm


@dataclass
class GrCondition:
    """A residual condition with labeled components, built up by ``add``."""

    name: str
    entry: str = ""
    # label -> [(form multi-index, residual expression), ...]
    residuals: "OrderedDict[str, List[Tuple[MultiIndex, Expr]]]" = field(
        default_factory=OrderedDict)

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


@dataclass
class ResidualReport:
    """Per-check verification record."""

    condition: str
    entry: str
    seed: Optional[int]  # None for a grid
    requested: int
    excluded: int
    evaluated: int
    norms: "OrderedDict[str, dict]"
    tol: float
    passed: bool
    worst_point: Optional[list]

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


# sample points evaluated per block; bounds verify's memory at any --points
BLOCK_ROWS = 1024


def _skipped(sample: SampleSet, block: np.ndarray) -> Optional[np.ndarray]:
    """Rows of ``block`` the sample set's exclusion predicate rejects."""
    if sample.exclude is None:
        return None
    return np.array([sample.exclude(p) for p in map(tuple, block.tolist())], dtype=bool)


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
    spans = []  # each label's columns among the condition's components
    width = 0
    for lab in labels:
        spans.append((width, width + len(c.residuals[lab])))
        width = spans[-1][1]
    prog = Program(c.roots())
    pts = sample.array()
    linf = [0.0] * len(labels)
    sumsq = [0.0] * len(labels)
    evaluated = 0
    worst_point = None
    worst_mag = -1.0
    # squares of huge magnitudes overflow to inf, which fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(pts), BLOCK_ROWS):
            block = pts[start:start + BLOCK_ROWS]
            skip = _skipped(sample, block)
            values, singular = prog.run(block, skip)
            keep = ~singular if skip is None else ~(singular | skip)
            block = block[keep]
            if not len(block):
                continue
            evaluated += len(block)
            mags = np.empty((len(block), width))  # points x components
            for j, v in enumerate(values):
                mags[:, j] = magnitude(v)[keep]
            for k, (a, b) in enumerate(spans):
                m = mags[:, a:b]
                # np.maximum, unlike max(), keeps a NaN
                linf[k] = np.maximum(linf[k], m.max(initial=0.0))
                sq = (m * m).ravel()
                if sq.size:
                    # the same left-to-right sum as one point at a time
                    sq[0] += sumsq[k]
                    sumsq[k] = np.cumsum(sq)[-1]
            point_max = mags.max(axis=1, initial=0.0)
            i = int(np.argmax(point_max))  # first maximum; a NaN counts as largest
            m = point_max[i]
            if m > worst_mag or (np.isnan(m) and not np.isnan(worst_mag)):
                worst_mag = m
                worst_point = block[i].tolist()
    excluded = len(pts) - evaluated
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
        seed=None if sample.kind == "grid" else sample.seed,
        requested=sample.requested,
        excluded=excluded,
        evaluated=evaluated,
        norms=norms,
        tol=tol,
        passed=passed,
        worst_point=worst_point,
    )
