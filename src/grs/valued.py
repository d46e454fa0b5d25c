"""Forms and multivectors with values in a finite-dimensional space.

A valued form Psi = psi^i (x) E_i is stored as its slices: one plain
``AlternatingTensor`` psi^i per basis label E_i, all on one chart with
one degree and one variance.  A form-level operator acts slice by slice
(``ValuedForm.map``); a value-level bilinear map (Lie bracket,
symmetrized product, ...) is a table of coefficients on basis labels,
and ``lift_pointwise`` pairs two valued forms through it and a
form-level map supplied by the caller.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DegreeError, DimensionError, NotALieAlgebra, VarianceError
from .exterior import AlternatingTensor, Chart, MultiIndex, sum_terms
from .scalar import as_expr

# The structure constants are a dense dim^3 table, and the Jacobi check
# costs dim^4 per bracketed index: 0.09 s at dim 32 and 2.9 s at dim 64 with
# every index bracketed (2-vCPU VM); dim 100000 would exhaust memory.
MAX_ALGEBRA_DIM = 32


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise DimensionError("algebra dimension must be >= 1")
    if dim > MAX_ALGEBRA_DIM:
        raise DimensionError(f"algebra dimension must be at most {MAX_ALGEBRA_DIM}, got {dim}")


class LieStructure:
    """Structure constants C[k][i][j] for [E_i, E_j] = C^k_ij E_k, as a
    nested tuple ``constants``; equal constants make equal structures.

    Constants that are not finite, not antisymmetric or break the Jacobi
    identity raise NotALieAlgebra, naming the first offending indices
    (i, j, k) 1-based.  The Jacobi sums are quadratic in C, so both
    identities are tested on C / max|C| at a fixed tolerance.
    """

    __slots__ = ("dim", "constants")

    def __init__(self, dim: int, constants: tuple):
        self.dim, self.constants = dim, constants
        _check_dim(self.dim)
        c = np.array(self.constants, dtype=float)
        if not np.isfinite(c).all():
            raise NotALieAlgebra("structure constants must be finite")
        c = c / (np.abs(c).max() or 1.0)
        anti = np.argwhere(abs(c + c.transpose(0, 2, 1)) > 1e-12)  # at [k, i, j]
        if len(anti):
            _broken("antisymmetry", anti[0][[1, 2, 0]])
        for i in range(self.dim):  # the Jacobi sums at [i, j, k, l], one i at a time
            if not c[:, :, i].any():  # antisymmetric C: every term has a factor C^._.i
                continue
            jacobi = (np.einsum("mj,lmk->jkl", c[:, i], c)
                      + np.einsum("mjk,lm->jkl", c, c[:, :, i])
                      + np.einsum("mk,lmj->jkl", c[:, :, i], c))
            bad = np.argwhere(abs(jacobi) > 1e-12)
            if len(bad):
                _broken("the Jacobi identity", (i, *bad[0][:2]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieStructure) and self.dim == other.dim
                and self.constants == other.constants)

    def __hash__(self) -> int:
        return hash((self.dim, self.constants))

    @staticmethod
    def from_triples(dim: int, triples) -> "LieStructure":
        """triples: iterable of (i, j, k, value) with 0-based indices.

        Antisymmetric completion is applied: supplying (i, j, k, v) also
        sets C^k_ji = -v.
        """
        _check_dim(dim)
        c = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, v in triples:
            if not math.isfinite(v):
                raise NotALieAlgebra(f"bracket value must be finite, got {v!r}")
            c[k][i][j] = float(v)
            c[k][j][i] = -float(v)
        return LieStructure(dim, tuple(tuple(tuple(row) for row in mat) for mat in c))

    def bracket_coeffs(self, i: int, j: int) -> List[float]:
        return [self.constants[k][i][j] for k in range(self.dim)]


def _broken(what: str, ijk) -> None:
    raise NotALieAlgebra(f"brackets break {what} at indices "
                         f"({', '.join(str(t + 1) for t in ijk)})")


def su2() -> LieStructure:
    """so(3)/su(2) cross-product algebra: C^k_ij = epsilon_ijk."""
    eps = [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)]
    return LieStructure.from_triples(3, eps)


def abelian(dim: int) -> LieStructure:
    _check_dim(dim)
    return LieStructure(dim, tuple(
        tuple(tuple(0.0 for _ in range(dim)) for _ in range(dim)) for _ in range(dim)))


class ValueSpace:
    """Finite-dimensional value space with a named basis; spaces with equal
    labels and Lie structures are equal."""

    __slots__ = ("labels", "lie")

    def __init__(self, labels: Tuple[str, ...], lie: Optional[LieStructure] = None):
        if not labels:
            raise DimensionError("a value space needs at least one label")
        if len(set(labels)) != len(labels):
            raise DimensionError("value-space labels must be unique")
        if lie is not None and lie.dim != len(labels):
            raise DimensionError("Lie structure dimension mismatch")
        self.labels, self.lie = labels, lie

    def __eq__(self, other) -> bool:
        return (isinstance(other, ValueSpace) and self.labels == other.labels
                and self.lie == other.lie)

    def __hash__(self) -> int:
        return hash((self.labels, self.lie))

    @property
    def dim(self) -> int:
        return len(self.labels)


class PhiMap(NamedTuple):
    """Value-space bilinear map phi(E_i, E_j) = sum_k c_k F_k, stored as its
    table (i, j) -> {k: c_k} of nonzero coefficients on the ``target``
    basis F; both arguments live in spaces of dimension ``dim``."""

    dim: int
    target: ValueSpace
    table: Dict[Tuple[int, int], Dict[int, float]]

    @staticmethod
    def lie_bracket(space: ValueSpace) -> "PhiMap":
        if space.lie is None:
            raise DimensionError("value space carries no Lie structure")
        n = space.dim
        return PhiMap(n, space, {
            (i, j): {k: c for k, c in enumerate(space.lie.bracket_coeffs(i, j)) if c != 0.0}
            for i in range(n) for j in range(n)})

    @staticmethod
    def symmetrized_product(space: ValueSpace) -> "PhiMap":
        """phi(E_i, E_j) = E_i v E_j on the labels of V v V, i <= j."""
        n, labels = space.dim, space.labels
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        table = {}
        for t, (i, j) in enumerate(pairs):
            table[(i, j)] = table[(j, i)] = {t: 1.0}
        target = ValueSpace(tuple(f"{labels[i]}∨{labels[j]}" for i, j in pairs))
        return PhiMap(n, target, table)

    @staticmethod
    def abstract_bracket(space: ValueSpace) -> "PhiMap":
        """phi(E_i, E_j) = [E_i, E_j] kept as an abstract antisymmetric label, i < j."""
        n, labels = space.dim, space.labels
        if n < 2:
            raise DimensionError("the abstract bracket needs a value space of dimension >= 2")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        table = {}
        for t, (i, j) in enumerate(pairs):
            table[(i, j)] = {t: 1.0}
            table[(j, i)] = {t: -1.0}
        target = ValueSpace(tuple(f"[{labels[i]},{labels[j]}]" for i, j in pairs))
        return PhiMap(n, target, table)

    @staticmethod
    def diagonal(space: ValueSpace) -> "PhiMap":
        return PhiMap(space.dim, space, {(i, i): {i: 1.0} for i in range(space.dim)})


class ValuedForm:
    """Psi = psi^i (x) E_i: one form (or multivector) psi^i per label of
    ``space``, in label order.

    The slices must share one chart, one degree and one variance; their
    components are made expressions and zero ones are dropped.
    """

    __slots__ = ("space", "slices")

    def __init__(self, space: ValueSpace, slices):
        if len(slices) != space.dim:
            raise DimensionError("one slice per basis label required")
        first = slices[0]
        for s in slices[1:]:
            if s.chart is not first.chart and s.chart != first.chart:
                raise DimensionError("slices must share a chart")
            if s.degree != first.degree:
                raise DegreeError("slices must share a degree")
            if s.variance != first.variance:
                raise VarianceError("slices must share a variance")
        self.space = space
        self.slices = tuple(s.map_components(as_expr) for s in slices)

    @staticmethod
    def from_components(chart: Chart, degree: int, variance: str, space: ValueSpace,
                        components: Dict[Tuple[MultiIndex, str], object]) -> "ValuedForm":
        """The valued form with hand-written (multi-index, label) -> value components."""
        per_label: Dict[str, dict] = {lab: {} for lab in space.labels}
        for (idx, label), v in components.items():
            if label not in per_label:
                raise DimensionError(f"unknown value label {label!r}")
            per_label[label][tuple(idx)] = v
        return ValuedForm(space, [AlternatingTensor(chart, variance, degree, comps)
                                  for comps in per_label.values()])

    @property
    def chart(self) -> Chart:
        return self.slices[0].chart

    @property
    def degree(self) -> int:
        return self.slices[0].degree

    @property
    def variance(self) -> str:
        return self.slices[0].variance

    def map(self, f: Callable[[AlternatingTensor], AlternatingTensor]) -> "ValuedForm":
        """f applied per slice: f(psi^i) (x) E_i."""
        return ValuedForm(self.space, [f(s) for s in self.slices])

    def scale(self, c) -> "ValuedForm":
        return self.map(lambda s: s.scale(c))

    def __add__(self, other: "ValuedForm") -> "ValuedForm":
        if self.space is not other.space and self.space != other.space:
            raise DimensionError("valued forms live in different spaces")
        return ValuedForm(self.space, [a + b for a, b in zip(self.slices, other.slices)])


def lift_pointwise(phi_form: Callable[[AlternatingTensor, AlternatingTensor], AlternatingTensor],
                   phi_value: PhiMap, A: ValuedForm, B: ValuedForm) -> ValuedForm:
    """Core pairing: sum_ij phi_form(a^i, b^j) (x) phi_value(E_i, E_j).

    phi_form is first applied once to zero slices of A's and B's degree
    and variance: that raises any degree or variance mismatch even when
    every slice is empty, and gives the result's empty slice and shape.
    """
    if A.chart is not B.chart and A.chart != B.chart:
        raise DimensionError("valued forms live on different charts")
    if A.space.dim != phi_value.dim or B.space.dim != phi_value.dim:
        raise DimensionError("value spaces do not match the bilinear map")
    zero = phi_form(AlternatingTensor(A.chart, A.variance, A.degree),
                    AlternatingTensor(B.chart, B.variance, B.degree))
    terms = [[] for _ in phi_value.target.labels]  # (key, value) terms per target label
    for i, ai in enumerate(A.slices):
        if not ai.components:
            continue
        for j, bj in enumerate(B.slices):
            action = phi_value.table.get((i, j))
            if not bj.components or not action:
                continue
            t = phi_form(ai, bj)
            for k, c in action.items():
                terms[k] += [(key, c * v) for key, v in t.components.items()]
    return ValuedForm(phi_value.target, [AlternatingTensor(
        zero.chart, zero.variance, zero.degree, sum_terms(tk)) if tk else zero for tk in terms])
