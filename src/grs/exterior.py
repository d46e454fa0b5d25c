"""Pointwise alternating algebra on an n-dimensional chart with a metric.

Components live on strictly increasing multi-indices (sparse storage);
missing keys are zero.  Component values may be plain complex numbers or
symbolic ``Expr`` trees -- every operation here only uses ring arithmetic
plus, for the metric-dependent ones, the metric's rows, inverse and
sqrt|det g|, so the same code path serves both the numeric oracle layer
and the symbolic pipeline.  ``MetricSpec`` alone decides the type of those
metric entries: plain floats for a constant diagonal metric, ``Expr`` for
a matrix metric; numeric forms on a constant metric therefore stay numeric.
The Hodge star and the volume form are symbolic on any metric; a point
where g is singular is flagged by the divisions in g^-1 when the residual
is evaluated.  Every determinant here is a minor expanded over (row,
column) index sets, each built once per call and shared.

Conventions:
  * orientation is the declared coordinate order, vol = dx^1...dx^n * sqrt|det g|;
  * the induced pairing on p-forms is the determinant one,
    <dx^I, dx^J> = det[g^(i_a j_b)], with no 1/p! factor;
  * i(X_1 ^ ... ^ X_q) = i(X_q) o ... o i(X_1), extended by linearity.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .errors import DegreeError, DimensionError, DomainError, SingularMetricError, VarianceError
from .scalar import Const, Expr, as_expr, intern_ops, is_zero, sqrt

COV = "covariant"
CONTRA = "contravariant"

MultiIndex = Tuple[int, ...]


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


class MetricSpec:
    """Chart metric g with its inverse and sqrt|det g|.

    This is the one place that builds g, g^-1 and sqrt|det g| and decides
    what their entries are: plain floats for a constant diagonal metric,
    so forms on it stay numeric, and ``Expr`` trees for a matrix metric.
    Each is built once.  A matrix metric's inverse (a cofactor expansion)
    and sqrt|det g| are built on first use, so making a chart stays cheap.
    ``det`` is a number for a constant metric and None for a matrix
    metric, whose determinant is an expression inside its inverse and
    sqrt|det g|.

    Two metrics are equal when their ``det`` and the structure of their
    rows (``scalar.intern_ops``) are, so charts made by two calls of one
    function are equal.  That key is built on first comparison or hash.
    """

    def __init__(self, rows, det=None):
        """Use ``diagonal`` or ``matrix``."""
        self.rows = rows
        self.dim = len(rows)
        self.det = det
        self._inverse = None
        self._sqrt_abs_det = None if det is None else abs(det) ** 0.5
        self._key = None

    def _value(self) -> tuple:
        if self._key is None:
            ops, roots = intern_ops(as_expr(v) for row in self.rows for v in row)
            self._key = (self.det, tuple(ops), tuple(roots))
        return self._key

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, MetricSpec) and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    @staticmethod
    def diagonal(values) -> "MetricSpec":
        vals = [float(v) for v in values]
        if not all(map(math.isfinite, vals)):
            raise DomainError(f"diagonal metric entries must be finite, got {vals!r}")
        if any(v == 0.0 for v in vals):
            raise SingularMetricError("diagonal metric entry is zero")
        n = len(vals)
        rows = [[vals[i] if i == j else 0.0 for j in range(n)] for i in range(n)]
        return MetricSpec(rows, det=math.prod(vals))  # left to right

    @staticmethod
    def matrix(rows) -> "MetricSpec":
        """Metric from square ``rows`` of expressions or numbers.

        Only the upper triangle is read: entry (i, j) with i > j is taken
        from (j, i), and the two triangles are not compared, since entries
        such as a*b and b*a are equal without being the same tree.  The
        DSL binder rejects a matrix whose two triangles are written
        differently.  Every constant entry must be finite.
        """
        rows = [[as_expr(v) for v in r] for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionError("metric matrix must be square")
        for i, j in itertools.product(range(n), repeat=2):
            if isinstance(rows[i][j], Const) and not cmath.isfinite(rows[i][j].value):
                raise DomainError(f"metric matrix entry [{i + 1}, {j + 1}] is not finite")
        # store the upper triangle; symmetry by construction
        return MetricSpec([[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])

    def entries(self) -> list:
        """g as rows: the stored rows, not a copy."""
        return self.rows

    def inverse_entries(self) -> list:
        """g^-1 as rows, built on first use by ``inverse_expr``."""
        if self._inverse is None:
            self._inverse = inverse_expr(self.rows)
        return self._inverse

    def sqrt_abs_det(self):
        """sqrt|det g|: a float for a constant metric, else built on first
        use as sqrt(sqrt(d * d)) with d = det g, which needs no sign."""
        if self._sqrt_abs_det is None:
            d = determinant(self.rows)
            self._sqrt_abs_det = sqrt(sqrt(d * d))
        return self._sqrt_abs_det


def _minor(rows, R: MultiIndex, C: MultiIndex, memo: dict):
    """det of rows R x columns C by Laplace along R's first row, skipping
    zero entries; ``memo`` keeps each (R, C) minor as one shared object."""
    if len(R) <= 1:
        return rows[R[0]][C[0]] if R else 1.0
    if (R, C) not in memo:
        r = R[0]
        total = 0 * rows[r][C[0]]  # a zero of the entries' type
        for pos, c in enumerate(C):
            if is_zero(rows[r][c]):
                continue
            term = rows[r][c] * _minor(rows, R[1:], C[:pos] + C[pos + 1:], memo)
            total = total + (term if pos % 2 == 0 else -term)
        memo[R, C] = total
    return memo[R, C]


def determinant(rows):
    """Laplace expansion along the first row, skipping zero entries.

    Minors are expanded over index sets and shared, not copied and
    re-expanded, so a dense n x n matrix costs O(n 2^n), not O(n!).
    Entries may be numbers or ``Expr`` trees; the result has their type,
    so an expression matrix whose first row vanishes gives an ``Expr``
    zero.  The 0x0 determinant is 1.
    """
    axes = tuple(range(len(rows)))
    return _minor(rows, axes, axes, {})


def inverse_expr(rows) -> list:
    """Inverse of a square matrix of numbers or expressions: 1/g_ii for a
    diagonal matrix, adjugate/det otherwise, with every minor shared."""
    n = len(rows)
    if all(is_zero(rows[i][j]) for i in range(n) for j in range(n) if i != j):
        return [[(1.0 / rows[i][i] if i == j else rows[i][j]) for j in range(n)]
                for i in range(n)]
    axes = tuple(range(n))
    memo: dict = {}
    det = _minor(rows, axes, axes, memo)

    def entry(i, j):
        cof = _minor(rows, axes[:j] + axes[j + 1:], axes[:i] + axes[i + 1:], memo)
        return (-cof if (i + j) % 2 == 1 else cof) / det

    return [[entry(i, j) for j in range(n)] for i in range(n)]


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
    """Degree-p antisymmetric tensor, covariant (form) or contravariant.
    Components that are exactly zero are dropped on construction."""

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
        self.components = {k: v for k, v in self.components.items() if not is_zero(v)}

    def get(self, key: MultiIndex):
        return self.components.get(tuple(key), 0.0)

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

        return self.map_components(val)

    def __add__(self, other: "AlternatingTensor") -> "AlternatingTensor":
        _check_same(self, other)
        if other.degree != self.degree:
            raise DegreeError("cannot add different degrees")
        out = dict(self.components)
        for k, v in other.components.items():
            out[k] = out[k] + v if k in out else v
        return AlternatingTensor(self.chart, self.variance, self.degree, out)

    def scale(self, c) -> "AlternatingTensor":
        return self.map_components(lambda v: c * v)


def _check_same(a: AlternatingTensor, b: AlternatingTensor):
    if a.chart is not b.chart and a.chart != b.chart:
        raise DimensionError("tensors live on different charts")


def form(chart: Chart, degree: int, components: dict) -> AlternatingTensor:
    return AlternatingTensor(chart, COV, degree, components)


def multivector(chart: Chart, degree: int, components: dict) -> AlternatingTensor:
    return AlternatingTensor(chart, CONTRA, degree, components)


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
    return AlternatingTensor(a.chart, a.variance, p + q, out)


def interior(v: AlternatingTensor, w: AlternatingTensor) -> AlternatingTensor:
    """Substitution of a q-vector into a p-form, first slots first."""
    _check_same(v, w)
    if v.variance != CONTRA:
        raise VarianceError("first argument must be a multivector")
    if w.variance != COV:
        raise VarianceError("second argument must be a form")
    if v.degree > w.degree:
        raise DegreeError(f"interior degree {v.degree} > form degree {w.degree}")
    out: dict = {}
    for idx, coeff in v.components.items():
        for key, val in w.components.items():
            # i(X1^...^Xq) = i(Xq) o ... o i(X1): innermost (first) factor first
            for axis in idx:
                if axis not in key:
                    break
                pos = key.index(axis)
                key = key[:pos] + key[pos + 1:]
                if pos % 2 == 1:
                    val = -val
            else:
                term = coeff * val
                out[key] = out[key] + term if key in out else term
    return AlternatingTensor(w.chart, COV, w.degree - v.degree, out)


def interior_after_tilde(a: AlternatingTensor, w: AlternatingTensor) -> AlternatingTensor:
    """i(tilde a) w: substitution of a form's raised multivector into w."""
    return interior(musical_tilde(a), w)


def hodge(w: AlternatingTensor) -> AlternatingTensor:
    """Hodge star defined by alpha ^ *beta = <alpha, beta>_g vol.

    Built symbolically from g^-1 and sqrt|det g| on any metric; on a
    constant metric numeric components stay numeric.  ``ev`` on the
    result evaluates it at one point.
    """
    if w.variance != COV:
        raise VarianceError("hodge acts on forms")
    chart = w.chart
    n = chart.dim
    p = w.degree
    ginv = chart.metric.inverse_entries()
    sqrt_abs_det = chart.metric.sqrt_abs_det()

    all_axes = tuple(range(n))
    memo: dict = {}
    out: dict = {}
    for A in itertools.combinations(all_axes, p):
        comp = tuple(i for i in all_axes if i not in A)
        ss = sort_sign(A + comp)
        assert ss is not None
        _, sign = ss
        coeff = None
        for B, vb in w.components.items():
            ip = _minor(ginv, A, B, memo)
            term = (sign * sqrt_abs_det) * (ip * vb)
            coeff = term if coeff is None else coeff + term
        if coeff is not None:
            out[comp] = coeff
    return AlternatingTensor(chart, COV, n - p, out)


def musical_tilde(w: AlternatingTensor) -> AlternatingTensor:
    """Raise (form -> multivector) or lower (multivector -> form) all indices."""
    chart = w.chart
    if w.variance == COV:
        rows = chart.metric.inverse_entries()
        target = CONTRA
    else:
        rows = chart.metric.entries()
        target = COV
    n = chart.dim
    p = w.degree
    memo: dict = {}
    out: dict = {}
    for J in itertools.combinations(range(n), p):
        total = None
        for I, v in w.components.items():
            term = _minor(rows, J, I, memo) * v
            total = term if total is None else total + term
        if total is not None:
            out[J] = total
    return AlternatingTensor(chart, target, p, out)


def volume_form(chart: Chart) -> AlternatingTensor:
    """vol = dx^1 ... dx^n sqrt|det g| in declared coordinate order, on any metric."""
    n = chart.dim
    return form(chart, n, {tuple(range(n)): chart.metric.sqrt_abs_det()})
