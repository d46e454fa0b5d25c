"""Forms and multivectors with values in a finite-dimensional space.

A valued form Psi = psi^i (x) E_i is stored as a map
(multi-index, basis label) -> scalar expression.  The value-level
bilinear maps (Lie bracket, symmetrized product, ...) act on basis
labels; the form-level map is supplied by the caller and is applied to
the per-label slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DegreeError, DimensionError
from .exterior import COV, AlternatingTensor, Chart, MultiIndex, zero_tensor
from .scalar import Expr, as_expr, is_zero


@dataclass(frozen=True)
class LieStructure:
    """Structure constants C[k][i][j] for [E_i, E_j] = C^k_ij E_k."""

    dim: int
    constants: tuple  # nested tuple [k][i][j]

    @staticmethod
    def from_triples(dim: int, triples) -> "LieStructure":
        """triples: iterable of (i, j, k, value) with 0-based indices.

        Antisymmetric completion is applied: supplying (i, j, k, v) also
        sets C^k_ji = -v.
        """
        c = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, v in triples:
            c[k][i][j] = float(v)
            c[k][j][i] = -float(v)
        return LieStructure(dim, tuple(tuple(tuple(row) for row in mat) for mat in c))

    def bracket_coeffs(self, i: int, j: int) -> List[float]:
        return [self.constants[k][i][j] for k in range(self.dim)]


def su2() -> LieStructure:
    """so(3)/su(2) cross-product algebra: C^k_ij = epsilon_ijk."""
    eps = [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)]
    return LieStructure.from_triples(3, eps)


def abelian(dim: int) -> LieStructure:
    return LieStructure(dim, tuple(
        tuple(tuple(0.0 for _ in range(dim)) for _ in range(dim)) for _ in range(dim)))


@dataclass
class LieValidation:
    ok: bool
    antisymmetry_violation: Optional[Tuple[int, int, int]] = None
    jacobi_violation: Optional[Tuple[int, int, int]] = None


def validate_lie(L: LieStructure, tol: float = 1e-12) -> LieValidation:
    """Check antisymmetry and the Jacobi identity; report first violation."""
    n = L.dim
    c = L.constants
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if abs(c[k][i][j] + c[k][j][i]) > tol:
                    return LieValidation(False, antisymmetry_violation=(i, j, k))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = sum(
                        c[m][i][j] * c[l][m][k]
                        + c[m][j][k] * c[l][m][i]
                        + c[m][k][i] * c[l][m][j]
                        for m in range(n)
                    )
                    if abs(s) > tol:
                        return LieValidation(False, jacobi_violation=(i, j, k))
    return LieValidation(True)


@dataclass(frozen=True)
class ValueSpace:
    """Finite-dimensional value space with a named basis."""

    labels: Tuple[str, ...]
    lie: Optional[LieStructure] = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise DimensionError("value-space labels must be unique")
        if self.lie is not None and self.lie.dim != len(self.labels):
            raise DimensionError("Lie structure dimension mismatch")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


def sym_space(base: ValueSpace) -> ValueSpace:
    """V v V with labels E_i v E_j for i <= j."""
    labels = tuple(
        f"{base.labels[i]}∨{base.labels[j]}"
        for i in range(base.dim)
        for j in range(i, base.dim)
    )
    return ValueSpace(labels=labels)


def bracket_space(base: ValueSpace) -> ValueSpace:
    """Abstract bracket labels [E_i, E_j] for i < j."""
    labels = tuple(
        f"[{base.labels[i]},{base.labels[j]}]"
        for i in range(base.dim)
        for j in range(i + 1, base.dim)
    )
    return ValueSpace(labels=labels)


class PhiMap:
    """Value-space bilinear map; acts on basis labels, extended bilinearly."""

    def __init__(self, source1: ValueSpace, source2: ValueSpace, target: ValueSpace,
                 basis_action: Callable[[int, int], Dict[int, float]]):
        self.source1 = source1
        self.source2 = source2
        self.target = target
        self._basis_action = basis_action

    def basis_action(self, i: int, j: int) -> Dict[int, float]:
        """Coefficients of phi(E_i, F_j) on the target basis."""
        return self._basis_action(i, j)

    @staticmethod
    def lie_bracket(space: ValueSpace) -> "PhiMap":
        if space.lie is None:
            raise DimensionError("value space carries no Lie structure")
        L = space.lie

        def act(i, j):
            return {k: c for k, c in enumerate(L.bracket_coeffs(i, j)) if c != 0.0}

        return PhiMap(space, space, space, act)

    @staticmethod
    def symmetrized_product(space: ValueSpace) -> "PhiMap":
        target = sym_space(space)
        n = space.dim
        pos = {}
        t = 0
        for i in range(n):
            for j in range(i, n):
                pos[(i, j)] = t
                t += 1

        def act(i, j):
            a, b = min(i, j), max(i, j)
            return {pos[(a, b)]: 1.0}

        return PhiMap(space, space, target, act)

    @staticmethod
    def abstract_bracket(space: ValueSpace) -> "PhiMap":
        """phi(E_i, E_j) = [E_i, E_j] kept as an abstract antisymmetric label."""
        target = bracket_space(space)
        n = space.dim
        pos = {}
        t = 0
        for i in range(n):
            for j in range(i + 1, n):
                pos[(i, j)] = t
                t += 1

        def act(i, j):
            if i == j:
                return {}
            if i < j:
                return {pos[(i, j)]: 1.0}
            return {pos[(j, i)]: -1.0}

        return PhiMap(space, space, target, act)

    @staticmethod
    def diagonal(space: ValueSpace) -> "PhiMap":
        return PhiMap(space, space, space, lambda i, j: {i: 1.0} if i == j else {})


@dataclass
class ValuedForm:
    """Degree-p form (or multivector) with values in ``space``."""

    chart: Chart
    degree: int
    variance: str
    space: ValueSpace
    components: Dict[Tuple[MultiIndex, str], Expr] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (idx, label), v in self.components.items():
            idx = tuple(idx)
            if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                raise DegreeError(f"bad multi-index {idx} for degree {self.degree}")
            if label not in self.space.labels:
                raise DimensionError(f"unknown value label {label!r}")
            e = as_expr(v)
            if not is_zero(e):
                clean[(idx, label)] = e
        self.components = clean

    def label_slice(self, label: str) -> AlternatingTensor:
        comp = {idx: v for (idx, lab), v in self.components.items() if lab == label}
        return AlternatingTensor(self.chart, self.variance, self.degree, comp)

    def slices(self) -> List[AlternatingTensor]:
        return [self.label_slice(lab) for lab in self.space.labels]

    @staticmethod
    def from_slices(space: ValueSpace, slices: Sequence[AlternatingTensor],
                    variance: Optional[str] = None) -> "ValuedForm":
        if len(slices) != space.dim:
            raise DimensionError("one slice per basis label required")
        chart = slices[0].chart
        degree = slices[0].degree
        var = variance or slices[0].variance
        comp = {}
        for lab, t in zip(space.labels, slices):
            if t.degree != degree:
                raise DegreeError("slices must share a degree")
            for idx, v in t.components.items():
                comp[(idx, lab)] = as_expr(v)
        return ValuedForm(chart, degree, var, space, comp)

    def scale(self, c) -> "ValuedForm":
        return ValuedForm(self.chart, self.degree, self.variance, self.space,
                          {k: c * v for k, v in self.components.items()})

    def __add__(self, other: "ValuedForm") -> "ValuedForm":
        if self.space is not other.space and self.space != other.space:
            raise DimensionError("valued forms live in different spaces")
        if self.degree != other.degree:
            raise DegreeError("cannot add different degrees")
        out = dict(self.components)
        for k, v in other.components.items():
            out[k] = out[k] + v if k in out else v
        return ValuedForm(self.chart, self.degree, self.variance, self.space, out)


def lift_pointwise(phi_form: Callable[[AlternatingTensor, AlternatingTensor], AlternatingTensor],
                   phi_value: PhiMap, A: ValuedForm, B: ValuedForm) -> ValuedForm:
    """Core pairing: sum_ij phi_form(a^i, b^j) (x) phi_value(E_i, E_j).

    phi_form is first applied once to zero slices of A's and B's degree
    and variance: that raises any degree or variance mismatch even when
    every slice is empty, and gives the result's degree.
    """
    if A.chart is not B.chart and A.chart != B.chart:
        raise DimensionError("valued forms live on different charts")
    if A.space.dim != phi_value.source1.dim or B.space.dim != phi_value.source2.dim:
        raise DimensionError("value spaces do not match the bilinear map")
    degree = phi_form(zero_tensor(A.chart, A.variance, A.degree),
                      zero_tensor(B.chart, B.variance, B.degree)).degree
    target = phi_value.target
    per_label: Dict[int, AlternatingTensor] = {}
    a_slices = A.slices()
    b_slices = B.slices()
    for i, ai in enumerate(a_slices):
        if not ai.components:
            continue
        for j, bj in enumerate(b_slices):
            if not bj.components:
                continue
            action = phi_value.basis_action(i, j)
            if not action:
                continue
            t = phi_form(ai, bj)
            for k, c in action.items():
                piece = t.scale(c)
                per_label[k] = per_label[k] + piece if k in per_label else piece
    slices = [per_label.get(k, zero_tensor(A.chart, COV, degree)) for k in range(target.dim)]
    return ValuedForm.from_slices(target, slices, variance=COV)
