"""Bind (Phi, phi; D, sigma, sigma~) into labeled residual fields and
evaluate them over sample sets.

Binding is fully symbolic: the differential operator and both bilinear
maps are expanded into one expression tree per (value label, form
component) at bind time.  ``verify`` compiles all of a condition's trees
into one deduplicated ``Program`` and evaluates it over fixed blocks of
``BLOCK_ROWS`` sample points, reducing each block into running norms, so
memory does not grow with the number of points.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegreeError,
    EmptySampleSet,
    UnknownOperator,
    VarianceError,
)
from .exterior import (
    AlternatingTensor,
    Chart,
    MultiIndex,
    interior,
    metric_pairing,
    musical_tilde,
    wedge,
)
from .scalar import Expr, Program, SampleSet, as_expr, magnitude
from .valued import PhiMap, ValuedForm, lift_pointwise


def _phi_interior_after_tilde(a: AlternatingTensor, b: AlternatingTensor):
    return interior(musical_tilde(a), b)


def _phi_interior(a: AlternatingTensor, b: AlternatingTensor):
    return interior(a, b)


def _phi_scalar_multiply(a: AlternatingTensor, b: AlternatingTensor):
    if a.degree != 0:
        raise DegreeError("scalar multiplier must be a 0-form")
    return b.scale(a.get(()))


def _phi_metric_pairing(a: AlternatingTensor, b: AlternatingTensor):
    return metric_pairing(a, b)


PHI_FORM = {
    "interior_after_tilde": _phi_interior_after_tilde,
    "interior": _phi_interior,
    "wedge": wedge,
    "scalar_multiply": _phi_scalar_multiply,
    "metric_pairing": _phi_metric_pairing,
}


@dataclass
class GrCondition:
    """A bound, immutable residual condition with labeled components."""

    name: str
    chart: Chart
    entry: str = ""
    # label -> [(form multi-index, residual expression), ...]
    residuals: "OrderedDict[str, List[Tuple[MultiIndex, Expr]]]" = field(
        default_factory=OrderedDict)

    def labels(self) -> List[str]:
        return list(self.residuals.keys())

    def add_valued(self, vf: ValuedForm, prefix: str = "") -> "GrCondition":
        for lab in vf.space.labels:
            t = vf.label_slice(lab)
            key = f"{prefix}{lab}" if (prefix and lab != "1") else (prefix or lab)
            comps = [(idx, as_expr(v)) for idx, v in sorted(t.components.items())]
            self.residuals.setdefault(key, []).extend(comps)
        return self

    def add_exprs(self, items: Sequence[Tuple[str, Expr]]) -> "GrCondition":
        for lab, e in items:
            self.residuals.setdefault(lab, []).append(((), as_expr(e)))
        return self

    def roots(self) -> List[Expr]:
        """Every residual component, label by label."""
        return [e for comps in self.residuals.values() for _idx, e in comps]

    def residual(self, pt: Sequence[float]) -> Dict[str, List[complex]]:
        """Labeled residual component values at one sample point."""
        values = iter(Program(self.roots()).at([pt])[:, 0].tolist())
        return {label: [next(values) for _ in comps]
                for label, comps in self.residuals.items()}


def bind(name: str, chart: Chart, phi_form: str, phi_value: PhiMap,
         operator: Callable[[ValuedForm], ValuedForm],
         sigma, sigma_tilde: ValuedForm,
         rhs: Optional[ValuedForm] = None,
         sigma_rule: str = "given", entry: str = "") -> GrCondition:
    """Assemble Phi(sigma, D sigma~) (x) phi minus rhs into a condition.

    sigma_rule: "given" uses sigma as passed; "same" sets sigma = sigma~
    (autoparallel); "tilde" sets sigma = musical tilde of sigma~ per label.
    Degree and dimension mismatches surface here, not at evaluation.
    """
    try:
        phi_fn = PHI_FORM[phi_form]
    except KeyError:
        raise UnknownOperator(f"unknown form-level map {phi_form!r}") from None
    d_sigma_tilde = operator(sigma_tilde)
    if sigma_rule == "same":
        sigma = sigma_tilde
    elif sigma_rule == "tilde":
        sigma = ValuedForm.from_slices(
            sigma_tilde.space,
            [musical_tilde(s) for s in sigma_tilde.slices()])
    elif sigma_rule != "given":
        raise UnknownOperator(f"unknown sigma rule {sigma_rule!r}")
    result = lift_pointwise(phi_fn, phi_value, sigma, d_sigma_tilde)
    if rhs is not None:
        if rhs.space.labels != result.space.labels:
            raise VarianceError("rhs labels do not match the condition output")
        result = result + rhs.scale(-1.0)
    cond = GrCondition(name=name, chart=chart, entry=entry)
    cond.add_valued(result)
    return cond


@dataclass
class ResidualReport:
    """Per-check verification record."""

    condition: str
    entry: str
    sample: dict
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
                "seed": self.sample.get("seed"),
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
    evaluated point makes that norm non-finite, so the check fails.
    """
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
        sample=sample.describe(),
        requested=sample.requested,
        excluded=excluded,
        evaluated=evaluated,
        norms=norms,
        tol=tol,
        passed=passed,
        worst_point=worst_point,
    )
