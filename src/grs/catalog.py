"""Named residual conditions: every supported field equation as a builder
of labeled residual pieces, which ``build`` gathers into the entry's
GrCondition.  ``fixtures`` loads each entry's known solutions and known
violators from spec text: the shipped spec plus, where it lacks a case,
``cases/<id>.grs``.

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
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    GrsError,
    MissingParameter,
    ParameterError,
    UnknownEntry,
)
from .exterior import (
    CONTRA,
    COV,
    AlternatingTensor,
    MAX_CHART_DIM,
    Chart,
    MetricSpec,
    determinant,
    form,
    hodge,
    interior,
    interior_after_tilde,
    inverse_expr,
    musical_tilde,
    wedge,
)
from .scalar import Const, Expr, SampleSet, ZERO, _const_val, as_expr, const, coord, sin
from .valued import (
    PhiMap,
    ValueSpace,
    ValuedForm,
    lift_pointwise,
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


def vector_as_multivector(chart: Chart, v: Sequence[Expr]) -> AlternatingTensor:
    return AlternatingTensor(chart, CONTRA, 1, {(i,): as_expr(e) for i, e in enumerate(v)})


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


_PROBE_BOX = SampleSet.random_box([(-1, 1)] * MAX_CHART_DIM, 8, seed=2)


def _probe_points(n: int):
    return _PROBE_BOX.array()[:, :n]


# ---------------------------------------------------------------------------
# parameter kinds


class Kind(NamedTuple):
    """What a catalog parameter accepts.

    ``text`` names the kind in ``grs catalog`` signatures, ``noun`` in
    diagnostics; ``accepts(value, chart)`` tests a value and
    ``convert(value, chart)`` normalizes an accepted one.  A kind with
    ``words`` takes one of those bare words (the DSL passes an unbound
    name through as a string).
    """

    text: str
    noun: str
    accepts: Callable[[object, Chart], bool]
    convert: Callable[[object, Chart], object] = lambda v, _c: v
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
# The paper's rule is ``_self_pairing``: psi is conserved when the projections
# Phi(psi, D psi) of D psi on psi vanish.  autoparallel_valued_form,
# ext_maxwell_vacuum, ext_maxwell_currents (less its currents) and the three
# ext_yang_mills entries use it.  Entries whose section is sigma = 1 return
# D psi itself: phi(1, E_j) = E_j, so Phi(1, D psi) is D psi.  Entries on a
# one-dimensional value space call the form-level map (interior, wedge, d)
# itself: phi(1, 1) = 1.


def _self_pairing(phi: str, psi: ValuedForm, omega: Optional[ValuedForm]) -> ValuedForm:
    return lift_pointwise(interior_after_tilde, _PHI_VALUE_CHOICES[phi](psi.space),
                          psi, covariant_D(omega, psi))


def _relative_invariant(chart, X: VECTOR, alpha: FORM):
    return [("", interior(vector_as_multivector(chart, X), d_form(alpha)))]


def _first_integral(chart, X: VECTOR, f: FIELD):
    return _relative_invariant(chart, X, form(chart, 0, {(): f}))


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
    pi = _normalize_pi(pi, r)
    pim = [[_const_val(v) for v in row] for row in pi]
    if any(c is None for row in pim for c in row):
        raise ParameterError("pi entries must be constant numbers")
    check_idempotent(pi, _probe_points(chart.dim))
    slices = [interior(theta, s) for s in dpsi.slices]
    out = []
    for j in range(r):
        terms = [slices[i].scale(c) for i, c in enumerate(pim[j]) if c != 0]
        if terms:
            out.append((psi.space.labels[j], sum(terms[1:], terms[0])))
    return out


def _autoparallel_valued_form(chart, psi: VALUED_FORM, phi: PHI_CHOICE = "sym"):
    return [("", _self_pairing(phi, psi, None))]


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
    return [("", _self_pairing("sym", field_pair(chart, F), None))]


def _ext_maxwell_currents(chart, F: TWO_FORM, J1: ONE_FORM, J2: ONE_FORM, J3: ONE_FORM,
                          J4: ONE_FORM):
    paired = _self_pairing("sym", field_pair(chart, F), None)
    it = interior_after_tilde
    rhs = ValuedForm(paired.space, [it(J1, F), it(J3, F) + it(J4, hodge(F)), it(J2, F)])
    return [("", paired + rhs.scale(-1.0))]


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


def _ext_yang_mills_bracket(chart, psi: VALUED_2FORM, omega: CONNECTION = None):
    return [("", _self_pairing("bracket", psi, omega))]


def _ext_yang_mills_diagonal(chart, psi: VALUED_2FORM, omega: CONNECTION = None):
    return [("", _self_pairing("diag", psi, omega))]


def _ext_yang_mills_sym(chart, psi: VALUED_2FORM):
    return [("", _self_pairing("sym", psi, None))]


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


class Param(NamedTuple):
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


class CatalogEntry:
    """A registered entry; its ``params`` are read from ``builder`` on first
    use and kept in the instance dict, so the class has no ``__slots__``."""

    def __init__(self, id_: str, description: str, builder: Callable):
        self.id, self.description, self.builder = id_, description, builder

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
        positional and keyword arguments.  A None value counts as absent, and
        so does an empty list for the vararg."""
        unknown = sorted(set(params) - {p.name for p in self.params})
        if unknown:
            raise ParameterError(f"unknown parameter(s): {', '.join(map(repr, unknown))}")
        missing = [p.name for p in self.params if p.required and (
            params.get(p.name) is None
            or p.vararg and isinstance(params[p.name], (list, tuple)) and not params[p.name])]
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


_ENTRIES: Dict[str, CatalogEntry] = {}


def _register(id_: str, description: str, builder):
    _ENTRIES[id_] = CatalogEntry(id_, description, builder)


_register("first_integral", "derivative of a function along a flow vanishes", _first_integral)
_register("relative_invariant", "i(X) d alpha = 0", _relative_invariant)
_register("absolute_invariant", "i(X) alpha = 0 and i(X) d alpha = 0", _absolute_invariant)
_register("symplectic_closed", "nondegenerate 2-form is closed", _symplectic_closed)
_register("hamiltonian_field", "d i(X) omega = 0", _hamiltonian_field)
_register("poisson_first_integrals", "bracket of two first integrals is a first integral",
          _poisson_first_integrals)
_register("frobenius_vector", "projected brackets of a distribution vanish", _frobenius_vector)
_register("frobenius_pfaff", "d alpha ^ alpha_1 ^ ... ^ alpha_k = 0", _frobenius_pfaff)
_register("nabla_parallel", "covariant derivative of a section along X vanishes", _nabla_parallel)
_register("theta_pi_parallel", "i(Theta)(D psi)^i (x) Pi(E_i) = 0", _theta_pi_parallel)
_register("autoparallel_valued_form", "i(tilde a^k)(D a)^m (x) phi(E_k, E_m) = 0",
          _autoparallel_valued_form)
_register("autoparallel_vector", "u^s nabla_s u^m + Gamma^m_sn u^s u^n = 0", _autoparallel_vector)
_register("null_autoparallel", "u^m (du)_mn = 0 with u of zero length", _null_autoparallel)
_register("mass_energy", "div(rho u) = 0 and div(rho u u) = 0", _mass_energy)
_register("maxwell_vacuum", "dF = 0 and d*F = 0 via the paired field", _maxwell_vacuum)
_register("maxwell_currents", "dF = m and d*F = j", _maxwell_currents)
_register("ext_maxwell_vacuum", "i(tilde F)dF = 0, i(tilde *F)d*F = 0, cross term = 0",
          _ext_maxwell_vacuum)
_register("ext_maxwell_currents", "field/current energy-momentum exchange system",
          _ext_maxwell_currents)
_register("pfaff_currents", "every current pair is a completely integrable Pfaff system",
          _pfaff_currents)
_register("yang_mills", "D*Omega = 0 for the curvature of a connection", _yang_mills)
_register("bianchi", "D Omega = 0", _bianchi)
_register("ext_yang_mills_bracket", "i(tilde psi^i)(D psi)^m on bracket labels",
          _ext_yang_mills_bracket)
_register("ext_yang_mills_diagonal",
          "each component conserves itself: i(tilde psi^i)(D psi)^i = 0",
          _ext_yang_mills_diagonal)
_register("ext_yang_mills_sym", "pairwise exchange on symmetrized labels", _ext_yang_mills_sym)
_register("ricci_flat", "Ricci tensor of the chart metric vanishes", _ricci_flat)
_register("schrodinger", "i hbar d_t psi = H psi", _schrodinger)
_register("dirac", "(i gamma^mu (d_mu - i e A_mu) + sign m) psi = 0", _dirac)


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


_PACKAGE = Path(__file__).parent


def fixtures(id_: str) -> list:
    """The entry's known cases, as ``dsl.BoundCheck``s with an expected
    verdict: the checks of its shipped spec ``specs/<id>.grs``, then those
    of ``cases/<id>.grs`` where the shipped spec lacks a case.  The two
    texts bind as one document, so check names run on (``entry#3``)."""
    from . import dsl  # dsl imports this module
    get_entry(id_)
    text = (_PACKAGE / "specs" / f"{id_}.grs").read_text(encoding="utf-8")
    cases = _PACKAGE / "cases" / f"{id_}.grs"
    if cases.exists():
        text += "\n" + cases.read_text(encoding="utf-8")
    checks, diags = dsl.load(text)
    errors = [d.render() for d in diags if d.severity == "error"]
    if errors:
        raise GrsError(f"known cases of {id_}:\n" + "\n".join(errors))
    unexpected = [c.name for c in checks if c.expect_pass is None]
    if unexpected:
        raise GrsError(f"known cases of {id_} without 'expect pass|fail': "
                       + ", ".join(unexpected))
    return checks
