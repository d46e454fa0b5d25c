"""Pointwise alternating algebra on an n-dimensional chart with a metric.

Components live on strictly increasing multi-indices (sparse storage);
missing keys are zero.  Component values may be plain complex numbers or
symbolic ``Expr`` trees -- every operation here only uses ring arithmetic
plus, for the metric-dependent ones, the (symbolic or numeric) inverse
metric, so the same code path serves both the numeric oracle layer and
the symbolic pipeline.

Conventions:
  * orientation is the declared coordinate order, vol = dx^1...dx^n * sqrt|det g|;
  * the induced pairing on p-forms is the determinant one,
    <dx^I, dx^J> = det[g^(i_a j_b)], with no 1/p! factor;
  * i(X_1 ^ ... ^ X_q) = i(X_q) o ... o i(X_1), extended by linearity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegreeError,
    DimensionError,
    SingularMetricError,
    VarianceError,
)
from .scalar import Expr, Program, as_expr, is_zero

COV = "covariant"
CONTRA = "contravariant"

MultiIndex = Tuple[int, ...]

_DET_FLOOR = 1e-12


def sort_sign(indices: Sequence[int]) -> Optional[Tuple[MultiIndex, int]]:
    """Sort indices, returning (sorted tuple, permutation sign); None on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    # insertion sort; counts inversions exactly
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


def _scalar_is_zero(v) -> bool:
    if isinstance(v, Expr):
        return is_zero(v)
    return v == 0


class MetricSpec:
    """Chart metric: constant diagonal or a symmetric matrix of expressions."""

    def __init__(self, kind: str, diag=None, rows=None):
        self.kind = kind
        if kind == "diagonal":
            vals = [float(v) for v in diag]
            if any(v == 0.0 for v in vals):
                raise SingularMetricError("diagonal metric entry is zero")
            self.diag = tuple(vals)
            self.dim = len(vals)
        elif kind == "matrix":
            rows = [list(r) for r in rows]
            n = len(rows)
            if any(len(r) != n for r in rows):
                raise DimensionError("metric matrix must be square")
            # store the upper triangle; symmetry by construction
            self.rows = [[as_expr(rows[min(i, j)][max(i, j)]) for j in range(n)] for i in range(n)]
            self.dim = n
        else:
            raise ValueError(kind)

    @staticmethod
    def diagonal(values) -> "MetricSpec":
        return MetricSpec("diagonal", diag=values)

    @staticmethod
    def matrix(rows) -> "MetricSpec":
        return MetricSpec("matrix", rows=rows)

    @property
    def is_constant(self) -> bool:
        return self.kind == "diagonal"

    def entries(self) -> List[List[Expr]]:
        if self.kind == "diagonal":
            n = self.dim
            return [[as_expr(self.diag[i] if i == j else 0.0) for j in range(n)] for i in range(n)]
        return [row[:] for row in self.rows]

    def inverse_entries(self) -> List[List[Expr]]:
        """Symbolic inverse: trivial for diagonals, adjugate/det otherwise."""
        n = self.dim
        if self.kind == "diagonal":
            return [[as_expr(1.0 / self.diag[i] if i == j else 0.0) for j in range(n)] for i in range(n)]
        g = self.rows
        # fast path: diagonal expression matrix
        if all(_scalar_is_zero(g[i][j]) for i in range(n) for j in range(n) if i != j):
            return [
                [(1.0 / g[i][i] if i == j else as_expr(0.0)) for j in range(n)]  # type: ignore[operator]
                for i in range(n)
            ]
        det = _det_expr(g)
        inv = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = [[g[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
                cof = _det_expr(minor)
                if (i + j) % 2 == 1:
                    cof = -cof
                row.append(cof / det)
            inv.append(row)
        return inv

    def matrix_at(self, pt: Sequence[float]) -> np.ndarray:
        if self.kind == "diagonal":
            return np.diag(np.array(self.diag, dtype=float))
        n = self.dim
        m = Program([e for row in self.rows for e in row]).at([pt]).reshape(n, n)
        if np.allclose(m.imag, 0.0):
            m = m.real
        if abs(np.linalg.det(m)) < _DET_FLOOR:
            raise SingularMetricError(f"metric singular at {tuple(pt)}")
        return m

    def inverse_at(self, pt: Sequence[float]) -> np.ndarray:
        return np.linalg.inv(self.matrix_at(pt))


def _det_expr(rows) -> Expr:
    n = len(rows)
    if n == 1:
        return as_expr(rows[0][0])
    total = as_expr(0.0)
    for j in range(n):
        if _scalar_is_zero(rows[0][j]):
            continue
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = as_expr(rows[0][j]) * _det_expr(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


@dataclass(frozen=True)
class Chart:
    """Coordinate chart: dimension, coordinate names, metric."""

    coord_names: Tuple[str, ...]
    metric: MetricSpec

    def __post_init__(self):
        n = len(self.coord_names)
        if not (1 <= n <= 8):
            raise DimensionError("chart dimension must be in 1..8")
        if len(set(self.coord_names)) != n:
            raise DimensionError("coordinate names must be unique")
        if self.metric.dim != n:
            raise DimensionError("metric dimension does not match chart")

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    def axis(self, name: str) -> int:
        return self.coord_names.index(name)


@dataclass
class AlternatingTensor:
    """Degree-p antisymmetric tensor, covariant (form) or contravariant."""

    chart: Chart
    variance: str
    degree: int
    components: Dict[MultiIndex, object] = field(default_factory=dict)

    def __post_init__(self):
        n = self.chart.dim
        if not (0 <= self.degree <= n):
            raise DegreeError(f"degree {self.degree} on a {n}-chart")
        for key in self.components:
            if len(key) != self.degree or list(key) != sorted(set(key)):
                raise DegreeError(f"bad multi-index {key} for degree {self.degree}")
            if any(not (0 <= i < n) for i in key):
                raise DimensionError(f"index out of range in {key}")

    def get(self, key: MultiIndex):
        return self.components.get(tuple(key), 0.0)

    def items(self):
        return self.components.items()

    def map_components(self, f) -> "AlternatingTensor":
        return AlternatingTensor(
            self.chart,
            self.variance,
            self.degree,
            {k: f(v) for k, v in self.components.items()},
        )

    def ev(self, pt: Sequence[float]) -> "AlternatingTensor":
        """Evaluate symbolic components at a point; numeric ones pass through."""

        def val(v):
            return v.ev(pt) if isinstance(v, Expr) else v

        out = {k: val(v) for k, v in self.components.items()}
        return AlternatingTensor(self.chart, self.variance, self.degree,
                                 {k: v for k, v in out.items() if v != 0})

    def __add__(self, other: "AlternatingTensor") -> "AlternatingTensor":
        _check_same(self, other)
        if other.degree != self.degree:
            raise DegreeError("cannot add different degrees")
        out = dict(self.components)
        for k, v in other.components.items():
            out[k] = out[k] + v if k in out else v
        return AlternatingTensor(self.chart, self.variance, self.degree, _prune(out))

    def __sub__(self, other: "AlternatingTensor") -> "AlternatingTensor":
        return self + other.scale(-1)

    def scale(self, c) -> "AlternatingTensor":
        return self.map_components(lambda v: c * v)


def _prune(components: dict) -> dict:
    return {k: v for k, v in components.items() if not _scalar_is_zero(v)}


def _check_same(a: AlternatingTensor, b: AlternatingTensor):
    if a.chart is not b.chart and a.chart != b.chart:
        raise DimensionError("tensors live on different charts")


def form(chart: Chart, degree: int, components: dict) -> AlternatingTensor:
    return AlternatingTensor(chart, COV, degree, dict(components))


def multivector(chart: Chart, degree: int, components: dict) -> AlternatingTensor:
    return AlternatingTensor(chart, CONTRA, degree, dict(components))


def zero_tensor(chart: Chart, variance: str, degree: int) -> AlternatingTensor:
    return AlternatingTensor(chart, variance, degree, {})


def wedge(a: AlternatingTensor, b: AlternatingTensor) -> AlternatingTensor:
    _check_same(a, b)
    if a.variance != b.variance:
        raise VarianceError("wedge requires matching variance")
    p, q = a.degree, b.degree
    if p + q > a.chart.dim:
        raise DegreeError(f"wedge degree {p}+{q} exceeds chart dimension {a.chart.dim}")
    out: dict = {}
    for ia, va in a.components.items():
        for ib, vb in b.components.items():
            ss = sort_sign(ia + ib)
            if ss is None:
                continue
            key, sign = ss
            term = sign * (va * vb)
            out[key] = out[key] + term if key in out else term
    return AlternatingTensor(a.chart, a.variance, p + q, _prune(out))


def _interior_basis(axis: int, w: AlternatingTensor) -> AlternatingTensor:
    out: dict = {}
    for key, v in w.components.items():
        if axis not in key:
            continue
        pos = key.index(axis)
        rest = key[:pos] + key[pos + 1:]
        term = v if pos % 2 == 0 else -v
        out[rest] = out[rest] + term if rest in out else term
    return AlternatingTensor(w.chart, COV, w.degree - 1, _prune(out))


def interior(v: AlternatingTensor, w: AlternatingTensor) -> AlternatingTensor:
    """Substitution of a q-vector into a p-form, first slots first."""
    _check_same(v, w)
    if v.variance != CONTRA:
        raise VarianceError("first argument must be a multivector")
    if w.variance != COV:
        raise VarianceError("second argument must be a form")
    if v.degree > w.degree:
        raise DegreeError(f"interior degree {v.degree} > form degree {w.degree}")
    result = zero_tensor(w.chart, COV, w.degree - v.degree)
    for idx, coeff in v.components.items():
        piece = w
        # i(X1^...^Xq) = i(Xq) o ... o i(X1): innermost (first) factor first
        for axis in idx:
            piece = _interior_basis(axis, piece)
        result = result + piece.scale(coeff)
    return result


def _pairing_det(ginv_rows, I: MultiIndex, J: MultiIndex):
    sub = [[ginv_rows[i][j] for j in J] for i in I]
    if not sub:
        return 1.0
    if isinstance(sub[0][0], Expr) or any(isinstance(v, Expr) for row in sub for v in row):
        return _det_expr(sub)
    return _num_det(sub)


def _num_det(rows) -> complex:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = rows[0][j] * _num_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _const_diag_rows(metric: MetricSpec, inverse: bool):
    d = metric.diag
    n = len(d)
    return [[(1.0 / d[i] if inverse else d[i]) if i == j else 0.0
             for j in range(n)] for i in range(n)]


def _ginv_rows(chart: Chart, at: Optional[Sequence[float]]):
    if chart.metric.is_constant:
        return _const_diag_rows(chart.metric, inverse=True)
    if at is not None:
        return chart.metric.inverse_at(at).tolist()
    return chart.metric.inverse_entries()


def _g_rows(chart: Chart, at: Optional[Sequence[float]]):
    if chart.metric.is_constant:
        return _const_diag_rows(chart.metric, inverse=False)
    if at is not None:
        return chart.metric.matrix_at(at).tolist()
    return chart.metric.entries()


def hodge(w: AlternatingTensor, at: Optional[Sequence[float]] = None) -> AlternatingTensor:
    """Hodge star defined by alpha ^ *beta = <alpha, beta>_g vol.

    Symbolic for constant-diagonal metrics; for expression metrics pass a
    sample point ``at``.
    """
    if w.variance != COV:
        raise VarianceError("hodge acts on forms")
    chart = w.chart
    n = chart.dim
    p = w.degree
    metric = chart.metric
    if at is None:
        if not metric.is_constant:
            raise SingularMetricError("symbolic hodge needs a constant metric; pass a point")
        detg = 1.0
        for v in metric.diag:
            detg *= v
        sqrt_abs_det = abs(detg) ** 0.5
        ginv = _const_diag_rows(metric, inverse=True)
    else:
        g = metric.matrix_at(at)
        detg = float(np.linalg.det(np.real(g)))
        sqrt_abs_det = abs(detg) ** 0.5
        ginv = metric.inverse_at(at).tolist()

    all_axes = tuple(range(n))
    out: dict = {}
    for A in itertools.combinations(all_axes, p):
        comp = tuple(i for i in all_axes if i not in A)
        ss = sort_sign(A + comp)
        assert ss is not None
        _, sign = ss
        coeff = None
        for B, vb in w.components.items():
            ip = _pairing_det(ginv, A, B)
            term = (sign * sqrt_abs_det) * (ip * vb)
            coeff = term if coeff is None else coeff + term
        if coeff is not None and not _scalar_is_zero(coeff):
            out[comp] = coeff
    return AlternatingTensor(chart, COV, n - p, _prune(out))


def musical_tilde(w: AlternatingTensor, at: Optional[Sequence[float]] = None) -> AlternatingTensor:
    """Raise (form -> multivector) or lower (multivector -> form) all indices."""
    chart = w.chart
    if w.variance == COV:
        rows = _ginv_rows(chart, at if not chart.metric.is_constant else None)
        target = CONTRA
    else:
        rows = _g_rows(chart, at if not chart.metric.is_constant else None)
        target = COV
    n = chart.dim
    p = w.degree
    out: dict = {}
    for J in itertools.combinations(range(n), p):
        total = None
        for I, v in w.components.items():
            term = _pairing_det(rows, J, I) * v
            total = term if total is None else total + term
        if total is not None and not _scalar_is_zero(total):
            out[J] = total
    return AlternatingTensor(chart, target, p, _prune(out))


def metric_pairing(a: AlternatingTensor, b: AlternatingTensor,
                   at: Optional[Sequence[float]] = None):
    """g^(mu nu) a_mu b_nu for two 1-forms."""
    _check_same(a, b)
    if a.degree != 1 or b.degree != 1:
        raise DegreeError("metric pairing is defined for 1-forms")
    if a.variance != COV or b.variance != COV:
        raise VarianceError("metric pairing acts on covariant 1-forms")
    rows = _ginv_rows(a.chart, at if not a.chart.metric.is_constant else None)
    total = as_expr(0.0) if _has_expr(a) or _has_expr(b) else 0.0
    for (i,), va in a.components.items():
        for (j,), vb in b.components.items():
            total = total + rows[i][j] * va * vb
    return total


def _has_expr(t: AlternatingTensor) -> bool:
    return any(isinstance(v, Expr) for v in t.components.values())


def volume_form(chart: Chart, at: Optional[Sequence[float]] = None) -> AlternatingTensor:
    """vol = dx^1 ... dx^n sqrt|det g| in declared coordinate order."""
    n = chart.dim
    if chart.metric.is_constant:
        detg = 1.0
        for v in chart.metric.diag:
            detg *= v
        factor = abs(detg) ** 0.5
    else:
        if at is None:
            raise SingularMetricError("volume form of a non-constant metric needs a point")
        factor = abs(float(np.linalg.det(np.real(chart.metric.matrix_at(at))))) ** 0.5
    return form(chart, n, {tuple(range(n)): factor})
