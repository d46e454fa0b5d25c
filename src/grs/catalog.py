"""Named residual conditions: every supported field equation as a builder
of labeled residual pieces, which ``build`` gathers into the entry's
GrCondition, plus fixtures (known solutions and known violators) for
each entry.

Each entry declares its parameters once, in its builder's signature:
the annotation is the parameter's ``Kind``, a default makes it optional
and ``*name`` makes it the vararg.  ``CatalogEntry.params`` reads that
schema; ``build`` checks the arguments against it before the builder
runs, the DSL binder maps positional arguments with it and
``grs catalog`` prints it as the entry's signature.
"""

import inspect
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .diffops import (
    check_idempotent,
    christoffels_from_metric,
    covariant_D,
    curvature,
    d_form,
    dirac_residual,
    exterior_d,
    nabla_X,
    projected_lie,
    ricci,
    schrodinger_residual,
)
from .engine import GrCondition
from .errors import (
    DegenerateFormError,
    DimensionError,
    MissingParameter,
    ParameterError,
    UnknownEntry,
)
from .exterior import (
    CONTRA,
    COV,
    AlternatingTensor,
    Chart,
    MetricSpec,
    determinant,
    form,
    hodge,
    interior,
    interior_after_tilde,
    inverse_expr,
    multivector,
    musical_tilde,
    wedge,
)
from .scalar import (
    Const, Expr, SampleSet, ZERO, _const_val, as_expr, bump, const, coord, cos, exp, is_zero,
    sin,
)
from .valued import (
    PhiMap,
    ValueSpace,
    ValuedForm,
    lift_pointwise,
    su2,
)

# ---------------------------------------------------------------------------
# charts and shared fields


def minkowski() -> Chart:
    """4-dim chart (x, y, z, xi) with signature (-,-,-,+), time last."""
    return Chart(("x", "y", "z", "xi"), MetricSpec.diagonal([-1, -1, -1, 1]))


def euclidean(names: Sequence[str]) -> Chart:
    return Chart(tuple(names), MetricSpec.diagonal([1.0] * len(names)))


def sphere_chart() -> Chart:
    th = coord(0)
    g = MetricSpec.matrix([[const(1), const(0)], [const(0), sin(th) * sin(th)]])
    return Chart(("theta", "phi"), g)


def schwarzschild_chart(mass: float = 1.0) -> Chart:
    r, th = coord(0), coord(1)
    f = const(1.0) - (2.0 * mass) / r
    zero = const(0)
    g = MetricSpec.matrix([
        [-(const(1.0) / f), zero, zero, zero],
        [zero, -(r * r), zero, zero],
        [zero, zero, -(r * r) * sin(th) * sin(th), zero],
        [zero, zero, zero, f],
    ])
    return Chart(("r", "theta", "phi", "t"), g)


def soliton_field(v_over_c: float, alpha: Optional[float] = None) -> Expr:
    """exp(-x^2-y^2) * bump(alpha (z - (v/c) xi)); spatially finite profile."""
    if alpha is None:
        alpha = 1.0 / (1.0 - v_over_c ** 2) ** 0.5
    x, y, z, xi = (coord(i) for i in range(4))
    return exp(-(x * x) - (y * y)) * bump(alpha * (z - v_over_c * xi))


def plane_wave_F(chart: Chart) -> AlternatingTensor:
    """F = d(sin(z - xi) dx): closed plane-wave field with d*F = 0."""
    z, xi = coord(2), coord(3)
    A = form(chart, 1, {(0,): sin(z - xi)})
    return d_form(A)


def vector_as_multivector(chart: Chart, v: Sequence[Expr]) -> AlternatingTensor:
    comp = {}
    for i, e in enumerate(v):
        e = as_expr(e)
        if not is_zero(e):
            comp[(i,)] = e
    return AlternatingTensor(chart, CONTRA, 1, comp)


def pair_space() -> ValueSpace:
    return ValueSpace(labels=("e1", "e2"))


def field_pair(chart: Chart, F: AlternatingTensor) -> ValuedForm:
    """Omega = F (x) e1 + *F (x) e2."""
    return ValuedForm(pair_space(), [F, hodge(F)])


def _normalize_pi(pi, n: int):
    """Accept a diagonal (flat list of n entries) or a full n x n matrix of
    expressions."""
    pi = list(pi)
    if not isinstance(pi[0], (list, tuple)):
        if len(pi) != n:
            raise DimensionError(f"pi has {len(pi)} diagonal entries; {n} are needed")
        return [[as_expr(pi[i]) if i == j else ZERO for j in range(n)] for i in range(n)]
    if len(pi) != n or any(not isinstance(row, (list, tuple)) or len(row) != n for row in pi):
        raise DimensionError(f"pi must be a {n}x{n} matrix")
    return [[as_expr(v) for v in row] for row in pi]


_PROBE_BOX = SampleSet.random_box([(-1, 1)] * 8, 8, seed=2)


def _probe_points(n: int):
    return _PROBE_BOX.array()[:, :n]


# ---------------------------------------------------------------------------
# parameter kinds


@dataclass(frozen=True)
class Kind:
    """What a catalog parameter accepts.

    ``text`` names the kind in ``grs catalog`` signatures, ``noun`` in
    diagnostics; ``accepts(value, chart)`` tests a value and
    ``convert(value, chart)`` normalizes an accepted one.  A kind with
    ``words`` takes one of those bare words (the DSL passes an unbound
    name through as a string).
    """

    text: str
    noun: str
    accepts: Callable[[object, Chart], bool] = field(compare=False)
    convert: Callable[[object, Chart], object] = field(default=lambda v, _c: v, compare=False)
    words: Tuple[str, ...] = ()


def _is_scalar(v) -> bool:
    return isinstance(v, (Expr, numbers.Number))


def _real_value(v) -> Optional[float]:
    """The real number that a literal or constant ``v`` stands for, else None."""
    if isinstance(v, Const):
        v = v.value
    if isinstance(v, numbers.Number) and v.imag == 0:
        return float(v.real)
    return None


def _is_real(v, _chart) -> bool:
    v = _real_value(v)
    return v is not None and math.isfinite(v)


def _form_kind(degree: Optional[int] = None, valued: bool = False) -> Kind:
    text = ("valued " if valued else "") + ("form" if degree is None else f"{degree}-form")
    cls = ValuedForm if valued else AlternatingTensor
    return Kind(text, f"a {text}", lambda v, _c: (
        isinstance(v, cls) and v.variance == COV and degree in (None, v.degree)))


_PHI_VALUE_CHOICES = {
    "sym": PhiMap.symmetrized_product,
    "diag": PhiMap.diagonal,
    "bracket": PhiMap.abstract_bracket,
}

FIELD = Kind("field", "a scalar field", lambda v, _c: _is_scalar(v), lambda v, _c: as_expr(v))
VECTOR = Kind("vector", "a vector", lambda v, c: (
    isinstance(v, (list, tuple)) and len(v) == c.dim and all(map(_is_scalar, v))),
    lambda v, _c: [as_expr(e) for e in v])
# a 1-vector may also come as a vector's component list
MULTIVECTOR = Kind("multivector", "a multivector", lambda v, c: (
    isinstance(v, AlternatingTensor) and v.variance == CONTRA or VECTOR.accepts(v, c)),
    lambda v, c: v if isinstance(v, AlternatingTensor)
    else vector_as_multivector(c, VECTOR.convert(v, c)))
FORM, ONE_FORM, TWO_FORM, THREE_FORM = (_form_kind(p) for p in (None, 1, 2, 3))
VALUED_FORM, _VALUED_1FORM, VALUED_2FORM = (_form_kind(p, valued=True) for p in (None, 1, 2))
CONNECTION = Kind("algebra-valued 1-form", "a 1-form with values in a Lie algebra",
                  lambda v, c: _VALUED_1FORM.accepts(v, c) and v.space.lie is not None)
SPINOR = Kind("spinor", "a C^4-valued 0-form or 4 fields", lambda v, _c: (
    isinstance(v, ValuedForm) and v.degree == 0 and v.space.dim == 4
    or isinstance(v, (list, tuple)) and len(v) == 4 and all(map(_is_scalar, v))))
PROJECTION = Kind("projection", "a projection (a diagonal list or a matrix)",
                  lambda v, _c: isinstance(v, (list, tuple)) and len(v) > 0)
REAL = Kind("real", "a finite real number", _is_real, lambda v, _c: _real_value(v))
SIGN = Kind("-1|1", "-1 or 1", lambda v, _c: _real_value(v) in (-1.0, 1.0),
            lambda v, _c: int(_real_value(v)))
PHI_CHOICE = Kind("|".join(_PHI_VALUE_CHOICES), "one of " + ", ".join(_PHI_VALUE_CHOICES),
                  lambda v, _c: v in PHI_CHOICE.words, words=tuple(_PHI_VALUE_CHOICES))


# ---------------------------------------------------------------------------
# entry builders
#
# Each builder's signature after ``chart`` is its entry's parameter schema.
# A builder returns its residuals as (label, piece) pairs.  A piece is an
# expression or a form, filed under ``label`` (a form under "1" if ``label``
# is ""), or a valued form, whose slice E is filed under ``label + E``.
# ``build`` adds the pairs in order to the one condition it makes for the
# entry, named by the entry's id.
#
# Entries whose section is sigma = 1 return D psi itself: phi(1, E_j) = E_j,
# so the pairing Phi(1, D psi) is D psi.  Entries on a one-dimensional value
# space call the form-level map (interior, wedge, d) itself: phi(1, 1) = 1.


def _first_integral(chart, X: VECTOR, f: FIELD):
    return [("", interior(vector_as_multivector(chart, X), d_form(form(chart, 0, {(): f}))))]


def _relative_invariant(chart, X: VECTOR, alpha: FORM):
    return [("", interior(vector_as_multivector(chart, X), d_form(alpha)))]


def _absolute_invariant(chart, X: VECTOR, alpha: FORM):
    v = vector_as_multivector(chart, X)
    return [("relative", interior(v, d_form(alpha))), ("algebraic", interior(v, alpha))]


def _check_nondegenerate(chart, omega: AlternatingTensor):
    rows = _omega_matrix(omega)
    consts = [[_const_val(v) for v in row] for row in rows]
    if any(c is None for row in consts for c in row):
        return  # position-dependent entries: degeneracy surfaces at evaluation
    if abs(determinant(consts)) < 1e-12:
        raise DegenerateFormError("symplectic candidate is degenerate")


def _omega_matrix(omega: AlternatingTensor):
    n = omega.chart.dim
    rows = [[ZERO for _ in range(n)] for _ in range(n)]
    for (i, j), v in omega.components.items():
        rows[i][j] = as_expr(v)
        rows[j][i] = -as_expr(v)
    return rows


def _symplectic_closed(chart, omega: TWO_FORM):
    _check_nondegenerate(chart, omega)
    return [("", d_form(omega))]


def _hamiltonian_field(chart, omega: TWO_FORM, X: VECTOR):
    _check_nondegenerate(chart, omega)
    ixo = interior(vector_as_multivector(chart, X), omega)
    return [("", d_form(ixo))]


# first_integral along Z of the bracket s = omega^-1(alpha, beta)
def _poisson_first_integrals(chart, omega: TWO_FORM, Z: VECTOR, alpha: ONE_FORM,
                             beta: ONE_FORM):
    _check_nondegenerate(chart, omega)
    winv = inverse_expr(_omega_matrix(omega))
    s: Expr = ZERO
    for (i,), va in alpha.components.items():
        for (j,), vb in beta.components.items():
            s = s + winv[i][j] * as_expr(va) * as_expr(vb)
    ds = d_form(form(chart, 0, {(): s}))
    return [("bracket", interior(vector_as_multivector(chart, Z), ds))]


# Lie brackets of vector fields, which no form-level map covers
def _frobenius_vector(chart, *fields: VECTOR, pi: PROJECTION = None):
    pi = _normalize_pi([1.0] * chart.dim if pi is None else pi, chart.dim)
    check_idempotent(pi, _probe_points(chart.dim))
    items = []
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            for mu, e in enumerate(projected_lie(pi, fields[a], fields[b])):
                items.append((f"[{a + 1},{b + 1}].{chart.coord_names[mu]}", e))
    return items


def _frobenius_pfaff(chart, *forms: ONE_FORM):
    if not forms:
        return []
    w = forms[0]
    for other in forms[1:]:
        w = wedge(w, other)
    return [(f"alpha{m + 1}", wedge(w, d_form(alpha))) for m, alpha in enumerate(forms)]


# a Levi-Civita derivative of vector components, not of a form
def _nabla_parallel(chart, X: VECTOR, sigma: VECTOR):
    gamma = christoffels_from_metric(chart.metric)
    return list(zip(chart.coord_names, nabla_X(gamma, X, sigma)))


# Pi applied to the slices directly: a value-level pairing would still
# report an (empty) norm for every label Pi kills
def _theta_pi_parallel(chart, psi: VALUED_FORM, theta: MULTIVECTOR, pi: PROJECTION):
    dpsi = exterior_d(psi)
    r = psi.space.dim
    pim = [[_const_val(v) for v in row] for row in _normalize_pi(pi, r)]
    if any(c is None for row in pim for c in row):
        raise ParameterError("pi entries must be constant numbers")
    slices = [interior(theta, s) for s in dpsi.slices]
    out = []
    for j in range(r):
        terms = [slices[i].scale(c) for i, c in enumerate(pim[j]) if c != 0]
        if terms:
            out.append((psi.space.labels[j], sum(terms[1:], terms[0])))
    return out


def _autoparallel_valued_form(chart, psi: VALUED_FORM, phi: PHI_CHOICE = "sym"):
    return [("", lift_pointwise(interior_after_tilde, _PHI_VALUE_CHOICES[phi](psi.space),
                                psi, exterior_d(psi)))]


def _autoparallel_vector(chart, u: VECTOR):
    return _nabla_parallel(chart, u, u)


def _null_autoparallel(chart, u: VECTOR):
    v = vector_as_multivector(chart, u)
    u_form = musical_tilde(v)
    return [("u.du", interior(v, d_form(u_form))), ("null_norm", interior(v, u_form))]


# divergences with Christoffel terms, not an exterior derivative
def _mass_energy(chart, u: VECTOR, rho: FIELD):
    gamma = christoffels_from_metric(chart.metric)
    n = chart.dim

    def divergence(vec):
        acc: Expr = ZERO
        for s in range(n):
            acc = acc + vec[s].diff(s)
            for lam in range(n):
                acc = acc + gamma[s][s][lam] * vec[lam]
        return acc

    flow = [rho * u[s] for s in range(n)]
    items = [("divergence", divergence(flow))]
    for mu in range(n):
        vec = [rho * u[s] * u[mu] for s in range(n)]
        acc = divergence(vec)
        for s in range(n):
            for lam in range(n):
                acc = acc + gamma[mu][s][lam] * flow[s] * u[lam]
        items.append((f"flux.{chart.coord_names[mu]}", acc))
    return items


def _maxwell_vacuum(chart, F: TWO_FORM):
    return [("", exterior_d(field_pair(chart, F)))]


def _maxwell_currents(chart, F: TWO_FORM, m_current: THREE_FORM, j_current: THREE_FORM):
    omega = field_pair(chart, F)
    rhs = ValuedForm(omega.space, [m_current, j_current])
    return [("", exterior_d(omega) + rhs.scale(-1.0))]


def _ext_maxwell_vacuum(chart, F: TWO_FORM):
    omega = field_pair(chart, F)
    return [("", lift_pointwise(interior_after_tilde, PhiMap.symmetrized_product(omega.space),
                                omega, exterior_d(omega)))]


def _ext_maxwell_currents(chart, F: TWO_FORM, J1: ONE_FORM, J2: ONE_FORM, J3: ONE_FORM,
                          J4: ONE_FORM):
    omega = field_pair(chart, F)
    Fs = hodge(F)
    it = interior_after_tilde
    sym = PhiMap.symmetrized_product(omega.space)
    rhs = ValuedForm(sym.target, [it(J1, F), it(J3, F) + it(J4, Fs), it(J2, F)])
    return [("", lift_pointwise(it, sym, omega, exterior_d(omega)) + rhs.scale(-1.0))]


def _pfaff_currents(chart, J1: ONE_FORM, J2: ONE_FORM, J3: ONE_FORM, J4: ONE_FORM):
    Js = (J1, J2, J3, J4)
    out = []
    for a, Ja in enumerate(Js):
        dJa = d_form(Ja)
        for b, Jb in enumerate(Js):
            out.append((f"J{a + 1}|J{b + 1}", wedge(wedge(Ja, Jb), dJa)))
    return out


def _yang_mills(chart, omega: CONNECTION):
    star = curvature(omega).map(hodge)
    return [("", covariant_D(omega, star))]


def _bianchi(chart, omega: CONNECTION, psi: VALUED_2FORM = None):
    psi = curvature(omega) if psi is None else psi
    return [("", covariant_D(omega, psi))]


def _ext_ym(phi_name: str, psi, omega):
    return [("", lift_pointwise(interior_after_tilde, _PHI_VALUE_CHOICES[phi_name](psi.space),
                                psi, covariant_D(omega, psi)))]


def _ext_yang_mills_bracket(chart, psi: VALUED_2FORM, omega: CONNECTION = None):
    return _ext_ym("bracket", psi, omega)


def _ext_yang_mills_diagonal(chart, psi: VALUED_2FORM, omega: CONNECTION = None):
    return _ext_ym("diag", psi, omega)


def _ext_yang_mills_sym(chart, psi: VALUED_2FORM):
    return _ext_ym("sym", psi, None)


# the curvature of the chart metric itself; no field to pair
def _ricci_flat(chart):
    ric = ricci(chart.metric)
    names = chart.coord_names
    return [(f"R[{names[i]},{names[j]}]", ric[i][j])
            for i in range(chart.dim) for j in range(i, chart.dim)]


# a second-order scalar operator, not a first-order pairing
def _schrodinger(chart, psi: FIELD, V: FIELD = 0.0, hbar: REAL = 1.0, mass: REAL = 1.0):
    return [("psi", schrodinger_residual(psi, chart.dim, as_expr(V), hbar, mass))]


# gamma matrices mix spinor components, not form degrees
def _dirac(chart, psi: SPINOR, m: REAL = 1.0, sign: SIGN = -1, A: ONE_FORM = None,
           e: REAL = 0.0):
    if isinstance(psi, ValuedForm):
        comps = [s.get(()) for s in psi.slices]
        labels = psi.space.labels
    else:
        comps = [as_expr(v) for v in psi]
        labels = ("e1", "e2", "e3", "e4")
    potential = None if A is None else [as_expr(A.get((mu,))) for mu in range(4)]
    return list(zip(labels, dirac_residual(comps, m, sign, potential, e)))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Param:
    """One entry parameter, as its builder's signature declares it."""

    name: str
    kind: Kind
    required: bool
    default: object = None
    vararg: bool = False

    def render(self) -> str:
        text = f"{self.name}: {self.kind.text}" + ("..." if self.vararg else "")
        if self.required:
            return text
        return f"[{text}]" if self.default is None else f"[{text} = {self.default}]"

    def check(self, value, chart: Chart):
        if not self.kind.accepts(value, chart):
            raise ParameterError(f"parameter {self.name!r} must be {self.kind.noun}")
        # a form is judged on its own chart, so it must be the entry's
        if isinstance(value, (AlternatingTensor, ValuedForm)) and value.chart != chart:
            raise ParameterError(f"parameter {self.name!r} lives on another chart "
                                 f"than the entry's")
        return self.kind.convert(value, chart)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    builder: Callable = field(compare=False)
    fixture_factory: Callable = field(compare=False)

    @cached_property
    def params(self) -> Tuple[Param, ...]:
        """The parameter schema: the builder's parameters after ``chart``."""
        out = []
        for p in list(inspect.signature(self.builder).parameters.values())[1:]:
            vararg = p.kind is p.VAR_POSITIONAL
            required = vararg or p.default is p.empty
            out.append(Param(p.name, p.annotation, required,
                             None if required else p.default, vararg))
        return tuple(out)

    @property
    def signature(self) -> str:
        return ", ".join(p.render() for p in self.params) or "(no parameters)"

    def arguments(self, chart: Chart, params: dict):
        """Check ``params`` against the schema and return the builder's
        positional and keyword arguments.  A None value counts as absent."""
        unknown = sorted(set(params) - {p.name for p in self.params})
        if unknown:
            raise ParameterError(f"unknown parameter(s): {', '.join(map(repr, unknown))}")
        missing = [p.name for p in self.params if p.required and params.get(p.name) is None]
        if missing:
            raise MissingParameter(f"missing parameter(s): {', '.join(missing)}")
        args, kwargs = [], {}
        for p in self.params:
            value = params.get(p.name)
            if value is None:
                continue
            if not p.vararg:
                kwargs[p.name] = p.check(value, chart)
            elif isinstance(value, (list, tuple)):
                args = [p.check(v, chart) for v in value]
            else:
                raise ParameterError(f"parameter {p.name!r} must be a list")
        return args, kwargs


@dataclass
class Fixture:
    name: str
    chart: Chart
    params: dict
    expect_pass: bool
    sample: SampleSet
    tol: Optional[float] = None


def _box(chart: Chart, lo=-2.0, hi=2.0, count=200, seed=13) -> SampleSet:
    return SampleSet.random_box([(lo, hi)] * chart.dim, count, seed)


def _sphere_sample(count=200, seed=13) -> SampleSet:
    return SampleSet.random_box([(0.4, 2.7), (0.0, 6.2)], count, seed)


def _schwarzschild_sample(count=500, seed=13) -> SampleSet:
    return SampleSet.random_box(
        [(3.0, 10.0), (0.3, 2.8), (0.0, 6.2), (-1.0, 1.0)], count, seed)


def _fx_first_integral():
    chart = euclidean(("x", "y"))
    x, y = coord(0), coord(1)
    X = [-y, x]
    return [
        Fixture("rotation_invariant", chart, {"X": X, "f": x * x + y * y}, True, _box(chart)),
        Fixture("non_invariant", chart, {"X": X, "f": x}, False, _box(chart)),
    ]


def _fx_relative_invariant():
    chart = euclidean(("x", "y", "z"))
    x = coord(0)
    alpha_closed = form(chart, 1, {(1,): as_expr(1.0)})
    alpha_open = form(chart, 1, {(1,): x})
    X = [as_expr(1.0), ZERO, ZERO]
    return [
        Fixture("closed_form", chart, {"X": X, "alpha": alpha_closed}, True, _box(chart)),
        Fixture("transverse", chart, {"X": X, "alpha": alpha_open}, False, _box(chart)),
    ]


def _fx_absolute_invariant():
    chart = euclidean(("x", "y", "z"))
    x = coord(0)
    X = [ZERO, ZERO, as_expr(1.0)]
    alpha_good = form(chart, 1, {(1,): x})  # i(X)alpha = 0, i(X)dalpha = 0
    alpha_bad = form(chart, 1, {(2,): x})  # i(X)alpha = x
    return [
        Fixture("transverse_closed", chart, {"X": X, "alpha": alpha_good}, True, _box(chart)),
        Fixture("longitudinal", chart, {"X": X, "alpha": alpha_bad}, False, _box(chart)),
    ]


def _fx_symplectic_closed():
    chart = euclidean(("q1", "q2", "p1", "p2"))
    q2 = coord(1)
    omega = form(chart, 2, {(0, 2): as_expr(1.0), (1, 3): as_expr(1.0)})
    omega_bad = form(chart, 2, {(0, 2): q2, (1, 3): as_expr(1.0)})
    return [
        Fixture("canonical", chart, {"omega": omega}, True, _box(chart)),
        Fixture("non_closed", chart, {"omega": omega_bad}, False, _box(chart)),
    ]


def _fx_hamiltonian_field():
    chart = euclidean(("q", "p"))
    q, p = coord(0), coord(1)
    omega = form(chart, 2, {(0, 1): as_expr(1.0)})
    return [
        Fixture("oscillator_flow", chart, {"omega": omega, "X": [p, -q]}, True, _box(chart)),
        Fixture("shear_flow", chart, {"omega": omega, "X": [q, ZERO]}, False, _box(chart)),
    ]


def _fx_poisson():
    chart = euclidean(("q", "p"))
    q, p = coord(0), coord(1)
    omega = form(chart, 2, {(0, 1): as_expr(1.0)})
    H = (q * q + p * p) * 0.5
    dH = form(chart, 1, {(0,): q, (1,): p})
    beta_good = form(chart, 1, {(0,): 2.0 * q, (1,): 2.0 * p})  # d(q^2+p^2)
    beta_bad = form(chart, 1, {(0,): as_expr(1.0)})  # dq
    Z = [p, -q]
    return [
        Fixture("dependent_integrals", chart,
                {"omega": omega, "Z": Z, "alpha": dH, "beta": beta_good}, True, _box(chart)),
        Fixture("non_integral", chart,
                {"omega": omega, "Z": Z, "alpha": dH, "beta": beta_bad}, False, _box(chart)),
    ]


def _heisenberg_fields(chart):
    x = coord(0)
    X1 = [as_expr(1.0), ZERO, ZERO]
    X2 = [ZERO, as_expr(1.0), x]
    return X1, X2


def _fx_frobenius_vector():
    chart = euclidean(("x", "y", "z"))
    X1, X2 = _heisenberg_fields(chart)
    flat = [[as_expr(1.0), ZERO, ZERO], [ZERO, as_expr(1.0), ZERO]]
    pi = [0.0, 0.0, 1.0]
    return [
        Fixture("coordinate_plane", chart,
                {"fields": [flat[0], flat[1]], "pi": pi}, True, _box(chart)),
        Fixture("heisenberg", chart,
                {"fields": [X1, X2], "pi": pi}, False, _box(chart)),
    ]


def _fx_frobenius_pfaff():
    chart = euclidean(("x", "y", "z"))
    x = coord(0)
    contact = form(chart, 1, {(2,): as_expr(1.0), (1,): -x})  # dz - x dy
    flat = form(chart, 1, {(2,): as_expr(1.0)})  # dz
    return [
        Fixture("foliation", chart, {"forms": [flat]}, True, _box(chart)),
        Fixture("heisenberg_dual", chart, {"forms": [contact]}, False, _box(chart)),
    ]


def _fx_nabla_parallel():
    chart = minkowski()
    x = coord(0)
    const_field = [as_expr(1.0), as_expr(2.0), ZERO, as_expr(1.0)]
    varying = [x, ZERO, ZERO, ZERO]
    X = [as_expr(1.0), ZERO, ZERO, ZERO]
    return [
        Fixture("constant_section", chart, {"X": X, "sigma": const_field}, True, _box(chart)),
        Fixture("stretching_section", chart, {"X": X, "sigma": varying}, False, _box(chart)),
    ]


def _fx_theta_pi():
    chart = minkowski()
    space = pair_space()
    y = coord(1)
    closed = ValuedForm.from_components(chart, 1, COV, space, {((0,), "e1"): as_expr(1.0)})
    open_ = ValuedForm.from_components(chart, 1, COV, space, {((0,), "e1"): y})
    theta = multivector(chart, 2, {(0, 1): as_expr(1.0)})
    pi = [1.0, 0.0]
    return [
        Fixture("closed_component", chart,
                {"psi": closed, "theta": theta, "pi": pi}, True, _box(chart)),
        Fixture("open_component", chart,
                {"psi": open_, "theta": theta, "pi": pi}, False, _box(chart)),
    ]


def _fx_autoparallel_valued_form():
    chart = minkowski()
    z = coord(2)
    good = field_pair(chart, plane_wave_F(chart))
    bad = ValuedForm(pair_space(), [form(chart, 2, {(0, 1): z}), form(chart, 2, {})])
    return [
        Fixture("wave_pair", chart, {"psi": good, "phi": "sym"}, True, _box(chart)),
        Fixture("sheared_field", chart, {"psi": bad, "phi": "sym"}, False, _box(chart)),
    ]


def _fx_autoparallel_vector():
    chart = minkowski()
    f = soliton_field(0.5)
    u = [ZERO, ZERO, 0.5 * f, f]
    z = coord(2)
    bad = [ZERO, ZERO, z, ZERO]
    return [
        Fixture("soliton_half_c", chart, {"u": u}, True,
                SampleSet.random_box([(-2, 2)] * 4, 1000, seed=7)),
        Fixture("stretching", chart, {"u": bad}, False, _box(chart)),
    ]


def _fx_null_autoparallel():
    chart = minkowski()
    x, y, z, xi = (coord(i) for i in range(4))
    f = exp(-(x * x) - (y * y)) * bump(z - xi)
    u = [ZERO, ZERO, f, f]
    g = soliton_field(0.5)
    timelike = [ZERO, ZERO, 0.5 * g, g]
    return [
        Fixture("light_speed_soliton", chart, {"u": u}, True,
                SampleSet.random_box([(-2, 2)] * 4, 1000, seed=7)),
        Fixture("timelike", chart, {"u": timelike}, False, _box(chart)),
    ]


def _fx_mass_energy():
    chart = minkowski()
    f = soliton_field(0.5)
    u = [ZERO, ZERO, 0.5 * f, f]
    z = coord(2)
    return [
        Fixture("comoving_density", chart, {"u": u, "rho": f}, True, _box(chart)),
        Fixture("streamwise_density", chart, {"u": u, "rho": z}, False, _box(chart)),
    ]


def _fx_maxwell_vacuum():
    chart = minkowski()
    z = coord(2)
    F_bad = form(chart, 2, {(0, 1): z})
    return [
        Fixture("plane_wave", chart, {"F": plane_wave_F(chart)}, True, _box(chart)),
        Fixture("sheared_field", chart, {"F": F_bad}, False, _box(chart)),
    ]


def _fx_maxwell_currents():
    chart = minkowski()
    x = coord(0)
    F = form(chart, 2, {(0, 3): x * x, (1, 3): sin(x)})
    m_current = d_form(F)
    j_current = d_form(hodge(F))
    zero3 = form(chart, 3, {})
    return [
        Fixture("consistent_sources", chart,
                {"F": F, "m_current": m_current, "j_current": j_current}, True, _box(chart)),
        Fixture("dropped_sources", chart,
                {"F": F, "m_current": zero3, "j_current": zero3}, False, _box(chart)),
    ]


def _fx_ext_maxwell_vacuum():
    chart = minkowski()
    z = coord(2)
    return [
        Fixture("plane_wave", chart, {"F": plane_wave_F(chart)}, True,
                SampleSet.random_box([(-2, 2)] * 4, 1000, seed=7)),
        Fixture("sheared_field", chart, {"F": form(chart, 2, {(0, 1): z})}, False, _box(chart)),
    ]


def _fx_ext_maxwell_currents():
    chart = minkowski()
    zero1 = form(chart, 1, {})
    dx = form(chart, 1, {(0,): as_expr(1.0)})
    F = plane_wave_F(chart)
    zeros = {"J1": zero1, "J2": zero1, "J3": zero1, "J4": zero1}
    return [
        Fixture("vacuum_limit", chart, dict(F=F, **zeros), True, _box(chart)),
        Fixture("spurious_current", chart,
                dict(F=F, J1=dx, J2=zero1, J3=zero1, J4=zero1), False, _box(chart)),
    ]


def _fx_pfaff_currents():
    chart = minkowski()
    x, y, z, xi = (coord(i) for i in range(4))
    exact = {
        "J1": form(chart, 1, {(0,): 2.0 * x}),
        "J2": form(chart, 1, {(1,): cos(y)}),
        "J3": form(chart, 1, {(2,): 2.0 * z}),
        "J4": form(chart, 1, {(3,): as_expr(1.0)}),
    }
    contact = {
        "J1": form(chart, 1, {(2,): as_expr(1.0), (1,): -x}),  # dz - x dy
        "J2": form(chart, 1, {(3,): as_expr(1.0)}),
        "J3": form(chart, 1, {(0,): as_expr(1.0)}),
        "J4": form(chart, 1, {(1,): as_expr(1.0)}),
    }
    return [
        Fixture("exact_currents", chart, exact, True, _box(chart)),
        Fixture("contact_current", chart, contact, False, _box(chart)),
    ]


def _su2_space() -> ValueSpace:
    return ValueSpace(labels=("e1", "e2", "e3"), lie=su2())


def _fx_yang_mills():
    chart = minkowski()
    space = _su2_space()
    z, xi = coord(2), coord(3)
    x, y = coord(0), coord(1)
    abelian_dir = ValuedForm.from_components(chart, 1, COV, space,
                                             {((0,), "e3"): sin(z - xi)})
    generic = ValuedForm.from_components(chart, 1, COV, space,
                                         {((1,), "e1"): x, ((2,), "e2"): y * y})
    return [
        Fixture("single_direction_wave", chart, {"omega": abelian_dir}, True, _box(chart)),
        Fixture("generic_connection", chart, {"omega": generic}, False, _box(chart)),
    ]


def _fx_bianchi():
    chart = minkowski()
    space = _su2_space()
    x, y, z = coord(0), coord(1), coord(2)
    omega = ValuedForm.from_components(
        chart, 1, COV, space, {((0,), "e1"): y, ((1,), "e2"): z * x, ((2,), "e3"): x})
    not_curvature = ValuedForm.from_components(chart, 2, COV, space, {((0, 1), "e1"): z})
    return [
        Fixture("curvature_of_connection", chart, {"omega": omega}, True, _box(chart)),
        Fixture("arbitrary_two_form", chart,
                {"omega": omega, "psi": not_curvature}, False, _box(chart)),
    ]


def _pair_lie_space() -> ValueSpace:
    from .valued import abelian
    return ValueSpace(labels=("e1", "e2"), lie=abelian(2))


def _fx_ext_ym_bracket():
    chart = minkowski()
    space = _pair_lie_space()
    F = plane_wave_F(chart)
    z = coord(2)
    sym_pair = ValuedForm(space, [F, F])
    skew_pair = ValuedForm(
        space, [form(chart, 2, {(0, 1): z}), form(chart, 2, {(0, 1): as_expr(1.0)})])
    return [
        Fixture("equal_components", chart, {"psi": sym_pair}, True, _box(chart)),
        Fixture("unbalanced_exchange", chart, {"psi": skew_pair}, False, _box(chart)),
    ]


def _fx_ext_ym_diagonal():
    chart = minkowski()
    space = _pair_lie_space()
    F = plane_wave_F(chart)
    z = coord(2)
    good = ValuedForm(space, [F, hodge(F)])
    bad = ValuedForm(space, [form(chart, 2, {(0, 1): z}), hodge(F)])
    return [
        Fixture("self_conserving", chart, {"psi": good}, True, _box(chart)),
        Fixture("leaking_component", chart, {"psi": bad}, False, _box(chart)),
    ]


def _fx_ext_ym_sym():
    chart = minkowski()
    space = _pair_lie_space()
    F = plane_wave_F(chart)
    z = coord(2)
    good = ValuedForm(space, [F, hodge(F)])
    bad = ValuedForm(space, [form(chart, 2, {(0, 1): z}), form(chart, 2, {})])
    return [
        Fixture("wave_pair", chart, {"psi": good}, True, _box(chart)),
        Fixture("sheared_component", chart, {"psi": bad}, False, _box(chart)),
    ]


def _fx_ricci_flat():
    flat = minkowski()
    return [
        Fixture("flat", flat, {}, True, _box(flat)),
        Fixture("schwarzschild", schwarzschild_chart(1.0), {}, True,
                _schwarzschild_sample(), tol=1e-8),
        Fixture("two_sphere", sphere_chart(), {}, False, _sphere_sample()),
    ]


def _fx_schrodinger():
    chart = Chart(("x", "t"), MetricSpec.diagonal([1.0, 1.0]))
    x, t = coord(0), coord(1)
    wave = exp(1j * (2.0 * x - 2.0 * t))
    wave_bad = exp(1j * (2.0 * x - 3.0 * t))
    ground = exp(-(x * x) * 0.5) * exp(-0.5j * t)
    return [
        Fixture("free_wave", chart, {"psi": wave}, True, _box(chart), tol=1e-12),
        Fixture("oscillator_ground", chart,
                {"psi": ground, "V": (x * x) * 0.5}, True, _box(chart), tol=1e-12),
        Fixture("wrong_dispersion", chart, {"psi": wave_bad}, False, _box(chart)),
    ]


def _fx_dirac():
    chart = minkowski()
    xi = coord(3)
    rest = [exp(-1j * xi), ZERO, ZERO, ZERO]
    return [
        Fixture("rest_frame", chart, {"psi": rest, "m": 1.0, "sign": -1}, True,
                _box(chart), tol=1e-12),
        Fixture("wrong_mass", chart, {"psi": rest, "m": 2.0, "sign": -1}, False, _box(chart)),
    ]


_ENTRIES: Dict[str, CatalogEntry] = {}


def _register(id_: str, description: str, builder, fixture_factory):
    _ENTRIES[id_] = CatalogEntry(id_, description, builder, fixture_factory)


_register("first_integral", "derivative of a function along a flow vanishes",
          _first_integral, _fx_first_integral)
_register("relative_invariant", "i(X) d alpha = 0", _relative_invariant,
          _fx_relative_invariant)
_register("absolute_invariant", "i(X) alpha = 0 and i(X) d alpha = 0",
          _absolute_invariant, _fx_absolute_invariant)
_register("symplectic_closed", "nondegenerate 2-form is closed", _symplectic_closed,
          _fx_symplectic_closed)
_register("hamiltonian_field", "d i(X) omega = 0", _hamiltonian_field,
          _fx_hamiltonian_field)
_register("poisson_first_integrals", "bracket of two first integrals is a first integral",
          _poisson_first_integrals, _fx_poisson)
_register("frobenius_vector", "projected brackets of a distribution vanish",
          _frobenius_vector, _fx_frobenius_vector)
_register("frobenius_pfaff", "d alpha ^ alpha_1 ^ ... ^ alpha_k = 0", _frobenius_pfaff,
          _fx_frobenius_pfaff)
_register("nabla_parallel", "covariant derivative of a section along X vanishes",
          _nabla_parallel, _fx_nabla_parallel)
_register("theta_pi_parallel", "i(Theta)(D psi)^i (x) Pi(E_i) = 0", _theta_pi_parallel,
          _fx_theta_pi)
_register("autoparallel_valued_form", "i(tilde a^k)(D a)^m (x) phi(E_k, E_m) = 0",
          _autoparallel_valued_form, _fx_autoparallel_valued_form)
_register("autoparallel_vector", "u^s nabla_s u^m + Gamma^m_sn u^s u^n = 0",
          _autoparallel_vector, _fx_autoparallel_vector)
_register("null_autoparallel", "u^m (du)_mn = 0 with u of zero length",
          _null_autoparallel, _fx_null_autoparallel)
_register("mass_energy", "div(rho u) = 0 and div(rho u u) = 0", _mass_energy,
          _fx_mass_energy)
_register("maxwell_vacuum", "dF = 0 and d*F = 0 via the paired field", _maxwell_vacuum,
          _fx_maxwell_vacuum)
_register("maxwell_currents", "dF = m and d*F = j", _maxwell_currents,
          _fx_maxwell_currents)
_register("ext_maxwell_vacuum", "i(tilde F)dF = 0, i(tilde *F)d*F = 0, cross term = 0",
          _ext_maxwell_vacuum, _fx_ext_maxwell_vacuum)
_register("ext_maxwell_currents", "field/current energy-momentum exchange system",
          _ext_maxwell_currents, _fx_ext_maxwell_currents)
_register("pfaff_currents", "every current pair is a completely integrable Pfaff system",
          _pfaff_currents, _fx_pfaff_currents)
_register("yang_mills", "D*Omega = 0 for the curvature of a connection", _yang_mills,
          _fx_yang_mills)
_register("bianchi", "D Omega = 0", _bianchi, _fx_bianchi)
_register("ext_yang_mills_bracket", "i(tilde psi^i)(D psi)^m on bracket labels",
          _ext_yang_mills_bracket, _fx_ext_ym_bracket)
_register("ext_yang_mills_diagonal",
          "each component conserves itself: i(tilde psi^i)(D psi)^i = 0",
          _ext_yang_mills_diagonal, _fx_ext_ym_diagonal)
_register("ext_yang_mills_sym", "pairwise exchange on symmetrized labels",
          _ext_yang_mills_sym, _fx_ext_ym_sym)
_register("ricci_flat", "Ricci tensor of the chart metric vanishes", _ricci_flat,
          _fx_ricci_flat)
_register("schrodinger", "i hbar d_t psi = H psi", _schrodinger, _fx_schrodinger)
_register("dirac", "(i gamma^mu (d_mu - i e A_mu) + sign m) psi = 0", _dirac, _fx_dirac)


def catalog_ids() -> List[str]:
    return sorted(_ENTRIES.keys())


def get_entry(id_: str) -> CatalogEntry:
    try:
        return _ENTRIES[id_]
    except KeyError:
        raise UnknownEntry(f"unknown catalog entry {id_!r}") from None


def build(id_: str, chart: Chart, **params) -> GrCondition:
    """Instantiate an entry into a bound residual condition: the one place
    that makes a ``GrCondition``, from the builder's (label, piece) pairs."""
    entry = get_entry(id_)
    args, kwargs = entry.arguments(chart, params)
    cond = GrCondition(entry.id, entry.id)
    for label, piece in entry.builder(chart, *args, **kwargs):
        cond.add(label, piece)
    return cond


def fixtures(id_: str) -> List[Fixture]:
    """Named field configurations with known pass/fail verdicts."""
    return get_entry(id_).fixture_factory()
