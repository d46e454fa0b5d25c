"""Named residual conditions: every supported field equation as a factory
producing a bound GrCondition, plus fixtures (known solutions and known
violators) for each entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .diffops import (
    ConnectionForm,
    GammaSystem,
    HamiltonianSpec,
    check_idempotent,
    christoffels_from_metric,
    covariant_D,
    curvature,
    d_form,
    dirac_residual,
    exterior_d,
    lie_bracket,
    apply_projection,
    nabla_X,
    ricci,
    schrodinger_residual,
)
from .engine import GrCondition, bind
from .errors import DegenerateFormError, DegreeError, MissingParameter, UnknownEntry
from .exterior import (
    CONTRA,
    COV,
    AlternatingTensor,
    Chart,
    MetricSpec,
    _det_expr,
    form,
    hodge,
    interior,
    multivector,
    musical_tilde,
    wedge,
)
from .scalar import Expr, SampleSet, ZERO, as_expr, bump, const, coord, cos, exp, is_zero, sin
from .valued import (
    PhiMap,
    SCALAR_SPACE,
    ValueSpace,
    ValuedForm,
    scalar_valued,
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


def lower_index(chart: Chart, v: Sequence[Expr]) -> AlternatingTensor:
    """1-form g_mn v^n from a vector field."""
    return musical_tilde(vector_as_multivector(chart, v))


def pair_space() -> ValueSpace:
    return ValueSpace(labels=("e1", "e2"))


def field_pair(chart: Chart, F: AlternatingTensor) -> ValuedForm:
    """Omega = F (x) e1 + *F (x) e2."""
    return ValuedForm.from_slices(pair_space(), [F, hodge(F)], variance=COV)


def levi_civita(chart: Chart):
    return christoffels_from_metric(chart.metric)


def _phi_scalar_action(space: ValueSpace) -> PhiMap:
    """phi(1, E_j) = E_j: trivial action of the unit scalar section."""
    return PhiMap("scalar_action", SCALAR_SPACE, space, space, lambda i, j: {j: 1.0})


def unit_section(chart: Chart) -> ValuedForm:
    return scalar_valued(form(chart, 0, {(): const(1.0)}))


def _require(params: dict, *names):
    missing = [n for n in names if n not in params or params[n] is None]
    if missing:
        raise MissingParameter(f"missing parameter(s): {', '.join(missing)}")
    return [params[n] for n in names]


def _normalize_pi(pi, n: int):
    """Accept a diagonal (flat list) or full matrix of expressions."""
    pi = list(pi)
    if pi and not isinstance(pi[0], (list, tuple)):
        return [[as_expr(pi[i]) if i == j else ZERO for j in range(n)] for i in range(n)]
    return [[as_expr(v) for v in row] for row in pi]


_PROBE_BOX = SampleSet.random_box([(-1, 1)] * 8, 8, seed=2)


def _probe_points(n: int):
    return _PROBE_BOX.array()[:, :n]


# ---------------------------------------------------------------------------
# entry builders


def _first_integral(chart, params):
    X, f = _require(params, "X", "f")
    sigma = scalar_valued(vector_as_multivector(chart, X))
    sigma_tilde = scalar_valued(form(chart, 0, {(): as_expr(f)}))
    return bind("first_integral", chart, "interior", PhiMap.function_product(),
                exterior_d, sigma, sigma_tilde, entry="first_integral")


def _relative_invariant(chart, params):
    X, alpha = _require(params, "X", "alpha")
    sigma = scalar_valued(vector_as_multivector(chart, X))
    return bind("relative_invariant", chart, "interior", PhiMap.function_product(),
                exterior_d, sigma, scalar_valued(alpha), entry="relative_invariant")


def _absolute_invariant(chart, params):
    X, alpha = _require(params, "X", "alpha")
    Xmv = vector_as_multivector(chart, X)
    cond = GrCondition("absolute_invariant", chart, entry="absolute_invariant")
    cond.add_valued(scalar_valued(interior(Xmv, d_form(alpha))), prefix="relative")
    cond.add_valued(scalar_valued(interior(Xmv, alpha)), prefix="algebraic")
    return cond


def _check_nondegenerate(chart, omega: AlternatingTensor):
    rows = _omega_matrix(omega)
    consts = [[_const_or_none(v) for v in row] for row in rows]
    if any(c is None for row in consts for c in row):
        return  # position-dependent entries: degeneracy surfaces at evaluation
    if abs(np.linalg.det(np.array(consts, dtype=complex))) < 1e-12:
        raise DegenerateFormError("symplectic candidate is degenerate")


def _const_or_none(e):
    from .scalar import Const
    return e.value if isinstance(e, Const) else None


def _as_num(v):
    c = _const_or_none(v) if isinstance(v, Expr) else v
    return 0.0 if c is None else c


def _omega_matrix(omega: AlternatingTensor):
    n = omega.chart.dim
    rows = [[ZERO for _ in range(n)] for _ in range(n)]
    for (i, j), v in omega.components.items():
        rows[i][j] = as_expr(v)
        rows[j][i] = -as_expr(v)
    return rows


def _symplectic_closed(chart, params):
    (omega,) = _require(params, "omega")
    if omega.degree != 2:
        raise DegreeError("symplectic candidate must be a 2-form")
    _check_nondegenerate(chart, omega)
    return bind("symplectic_closed", chart, "scalar_multiply",
                _phi_scalar_action(SCALAR_SPACE), exterior_d,
                unit_section(chart), scalar_valued(omega), entry="symplectic_closed")


def _hamiltonian_field(chart, params):
    omega, X = _require(params, "omega", "X")
    _check_nondegenerate(chart, omega)
    ixo = interior(vector_as_multivector(chart, X), omega)
    return bind("hamiltonian_field", chart, "scalar_multiply",
                _phi_scalar_action(SCALAR_SPACE), exterior_d,
                unit_section(chart), scalar_valued(ixo), entry="hamiltonian_field")


def _invert_expr_matrix(rows):
    n = len(rows)
    det = _det_expr(rows)
    inv = []
    for i in range(n):
        line = []
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = _det_expr(minor) if minor else as_expr(1.0)
            if (i + j) % 2 == 1:
                cof = -cof
            line.append(cof / det)
        inv.append(line)
    return inv


def _poisson_first_integrals(chart, params):
    omega, Z, alpha, beta = _require(params, "omega", "Z", "alpha", "beta")
    _check_nondegenerate(chart, omega)
    n = chart.dim
    winv = _invert_expr_matrix(_omega_matrix(omega))
    s: Expr = ZERO
    for (i,), va in alpha.components.items():
        for (j,), vb in beta.components.items():
            s = s + winv[i][j] * as_expr(va) * as_expr(vb)
    cond = GrCondition("poisson_first_integrals", chart, entry="poisson_first_integrals")
    res: Expr = ZERO
    for mu in range(n):
        res = res + as_expr(Z[mu]) * s.diff(mu)
    cond.add_exprs([("bracket", res)])
    return cond


def _frobenius_vector(chart, params):
    (fields,) = _require(params, "fields")
    pi = _normalize_pi(params.get("pi") or [1.0] * chart.dim, chart.dim)
    check_idempotent(pi, _probe_points(chart.dim))
    cond = GrCondition("frobenius_vector", chart, entry="frobenius_vector")
    items = []
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            res = apply_projection(pi, lie_bracket(fields[a], fields[b]))
            for mu, e in enumerate(res):
                items.append((f"[{a + 1},{b + 1}].{chart.coord_names[mu]}", e))
    cond.add_exprs(items)
    return cond


def _frobenius_pfaff(chart, params):
    (forms_,) = _require(params, "forms")
    cond = GrCondition("frobenius_pfaff", chart, entry="frobenius_pfaff")
    for m, alpha in enumerate(forms_):
        t = d_form(alpha)
        for other in forms_:
            t = wedge(t, other)
        cond.add_valued(scalar_valued(t), prefix=f"alpha{m + 1}")
    return cond


def _nabla_parallel(chart, params):
    X, sigma = _require(params, "X", "sigma")
    gamma = levi_civita(chart)
    res = nabla_X(gamma, X, [as_expr(v) for v in sigma])
    cond = GrCondition("nabla_parallel", chart, entry="nabla_parallel")
    cond.add_exprs([(chart.coord_names[mu], e) for mu, e in enumerate(res)])
    return cond


def _theta_pi_parallel(chart, params):
    psi, theta, pi = _require(params, "psi", "theta", "pi")
    conn = params.get("connection") or ConnectionForm.trivial()
    dpsi = covariant_D(conn, psi)
    r = psi.space.dim
    pim = np.asarray([[complex(_as_num(v)) for v in row]
                      for row in _normalize_pi(pi, r)])
    slices = [interior(theta, s) for s in dpsi.slices()]
    cond = GrCondition("theta_pi_parallel", chart, entry="theta_pi_parallel")
    out = []
    for j in range(r):
        acc = None
        for i in range(r):
            c = pim[j][i]
            if c == 0:
                continue
            t = slices[i].scale(c)
            acc = t if acc is None else acc + t
        if acc is not None:
            out.append((psi.space.labels[j], acc))
    for lab, t in out:
        cond.add_valued(scalar_valued(t), prefix=lab)
    return cond


_PHI_VALUE_CHOICES = {
    "sym": PhiMap.symmetrized_product,
    "diag": PhiMap.diagonal,
    "bracket": PhiMap.abstract_bracket,
}


def _autoparallel_valued_form(chart, params):
    (psi,) = _require(params, "psi")
    phi_name = params.get("phi", "sym")
    if phi_name not in _PHI_VALUE_CHOICES:
        raise MissingParameter(f"phi must be one of {sorted(_PHI_VALUE_CHOICES)}")
    phi_value = _PHI_VALUE_CHOICES[phi_name](psi.space)
    conn = params.get("connection") or ConnectionForm.trivial()
    return bind("autoparallel_valued_form", chart, "interior_after_tilde", phi_value,
                lambda s: covariant_D(conn, s), None, psi, sigma_rule="same",
                entry="autoparallel_valued_form")


def _autoparallel_vector(chart, params):
    (u,) = _require(params, "u")
    u = [as_expr(v) for v in u]
    gamma = levi_civita(chart)
    res = nabla_X(gamma, u, u)
    cond = GrCondition("autoparallel_vector", chart, entry="autoparallel_vector")
    cond.add_exprs([(chart.coord_names[mu], e) for mu, e in enumerate(res)])
    return cond


def _null_autoparallel(chart, params):
    (u,) = _require(params, "u")
    u = [as_expr(v) for v in u]
    u_form = lower_index(chart, u)
    res = interior(vector_as_multivector(chart, u), d_form(u_form))
    cond = GrCondition("null_autoparallel", chart, entry="null_autoparallel")
    cond.add_valued(scalar_valued(res), prefix="u.du")
    norm: Expr = ZERO
    for (i,), v in u_form.components.items():
        norm = norm + v * u[i]
    cond.add_exprs([("null_norm", norm)])
    return cond


def _mass_energy(chart, params):
    u, rho = _require(params, "u", "rho")
    u = [as_expr(v) for v in u]
    rho = as_expr(rho)
    gamma = levi_civita(chart)
    n = chart.dim

    def divergence(vec):
        acc: Expr = ZERO
        for s in range(n):
            acc = acc + vec[s].diff(s)
            for lam in range(n):
                acc = acc + gamma[s][s][lam] * vec[lam]
        return acc

    cond = GrCondition("mass_energy", chart, entry="mass_energy")
    flow = [rho * u[s] for s in range(n)]
    cond.add_exprs([("divergence", divergence(flow))])
    items = []
    for mu in range(n):
        vec = [rho * u[s] * u[mu] for s in range(n)]
        acc = divergence(vec)
        for s in range(n):
            for lam in range(n):
                acc = acc + gamma[mu][s][lam] * flow[s] * u[lam]
        items.append((f"flux.{chart.coord_names[mu]}", acc))
    cond.add_exprs(items)
    return cond


def _maxwell_vacuum(chart, params):
    (F,) = _require(params, "F")
    omega = field_pair(chart, F)
    return bind("maxwell_vacuum", chart, "scalar_multiply",
                _phi_scalar_action(omega.space), exterior_d,
                unit_section(chart), omega, entry="maxwell_vacuum")


def _maxwell_currents(chart, params):
    F, m_current, j_current = _require(params, "F", "m_current", "j_current")
    omega = field_pair(chart, F)
    rhs = ValuedForm.from_slices(omega.space, [m_current, j_current], variance=COV)
    return bind("maxwell_currents", chart, "scalar_multiply",
                _phi_scalar_action(omega.space), exterior_d,
                unit_section(chart), omega, rhs=rhs, entry="maxwell_currents")


def _ext_maxwell_vacuum(chart, params):
    (F,) = _require(params, "F")
    omega = field_pair(chart, F)
    return bind("ext_maxwell_vacuum", chart, "interior_after_tilde",
                PhiMap.symmetrized_product(omega.space), exterior_d,
                None, omega, sigma_rule="same", entry="ext_maxwell_vacuum")


def _ext_maxwell_currents(chart, params):
    F, J1, J2, J3, J4 = _require(params, "F", "J1", "J2", "J3", "J4")
    symmetrized = bool(params.get("symmetrized_rhs", False))
    omega = field_pair(chart, F)
    Fs = hodge(F)
    it = lambda J, G: interior(musical_tilde(J), G)
    rhs_e11 = it(J1, F)
    rhs_e22 = it(J2, Fs if symmetrized else F)
    rhs_e12 = it(J3, F) + it(J4, Fs)
    rhs = ValuedForm.from_slices(
        PhiMap.symmetrized_product(omega.space).target,
        [rhs_e11, rhs_e12, rhs_e22], variance=COV)
    return bind("ext_maxwell_currents", chart, "interior_after_tilde",
                PhiMap.symmetrized_product(omega.space), exterior_d,
                None, omega, rhs=rhs, sigma_rule="same", entry="ext_maxwell_currents")


def _pfaff_currents(chart, params):
    Js = _require(params, "J1", "J2", "J3", "J4")
    cond = GrCondition("pfaff_currents", chart, entry="pfaff_currents")
    for a, Ja in enumerate(Js):
        dJa = d_form(Ja)
        for b, Jb in enumerate(Js):
            t = wedge(wedge(dJa, Ja), Jb)
            cond.add_valued(scalar_valued(t), prefix=f"J{a + 1}|J{b + 1}")
    return cond


def _yang_mills(chart, params):
    (omega,) = _require(params, "omega")
    conn = ConnectionForm.from_omega(omega)
    curv = curvature(omega)
    star = ValuedForm.from_slices(omega.space, [hodge(s) for s in curv.slices()],
                                  variance=COV)
    res = covariant_D(conn, star)
    cond = GrCondition("yang_mills", chart, entry="yang_mills")
    cond.add_valued(res)
    return cond


def _bianchi(chart, params):
    (omega,) = _require(params, "omega")
    conn = ConnectionForm.from_omega(omega)
    psi = params.get("psi") or curvature(omega)
    res = covariant_D(conn, psi)
    cond = GrCondition("bianchi", chart, entry="bianchi")
    cond.add_valued(res)
    return cond


def _ext_ym(entry: str, phi_name: str, use_connection: bool):
    def builder(chart, params):
        (psi,) = _require(params, "psi")
        phi_value = _PHI_VALUE_CHOICES[phi_name](psi.space)
        if use_connection and params.get("omega") is not None:
            conn = ConnectionForm.from_omega(params["omega"])
        else:
            conn = ConnectionForm.trivial()
        return bind(entry, chart, "interior_after_tilde", phi_value,
                    lambda s: covariant_D(conn, s), None, psi,
                    sigma_rule="same", entry=entry)

    return builder


def _ricci_flat(chart, params):
    ric = ricci(chart.metric)
    n = chart.dim
    cond = GrCondition("ricci_flat", chart, entry="ricci_flat")
    items = []
    for i in range(n):
        for j in range(i, n):
            items.append((f"R[{chart.coord_names[i]},{chart.coord_names[j]}]", ric[i][j]))
    cond.add_exprs(items)
    return cond


def _schrodinger(chart, params):
    (psi,) = _require(params, "psi")
    h = HamiltonianSpec(
        hbar=float(params.get("hbar", 1.0)),
        mass=float(params.get("mass", 1.0)),
        potential=as_expr(params.get("V", ZERO)),
    )
    res = schrodinger_residual(h, as_expr(psi), chart.dim)
    cond = GrCondition("schrodinger", chart, entry="schrodinger")
    cond.add_exprs([("psi", res)])
    return cond


def _dirac(chart, params):
    (psi,) = _require(params, "psi")
    if isinstance(psi, ValuedForm):
        if psi.degree != 0 or psi.space.dim != 4:
            raise DegreeError("Dirac section must be a C^4-valued 0-form")
        comps = [psi.label_slice(lab).get(()) for lab in psi.space.labels]
        labels = psi.space.labels
    else:
        comps = [as_expr(v) for v in psi]
        labels = ("e1", "e2", "e3", "e4")
    sign_param = params.get("sign", -1)
    sign = -1 if sign_param in (-1, "-", "minus") else 1
    A = params.get("A")
    potential = None
    if A is not None:
        potential = [as_expr(A.get((mu,))) for mu in range(4)]
    gs = GammaSystem(mass=float(params.get("m", 1.0)), sign=sign,
                     potential=potential, charge=float(params.get("e", 0.0)))
    res = dirac_residual(gs, comps)
    cond = GrCondition("dirac", chart, entry="dirac")
    cond.add_exprs(list(zip(labels, res)))
    return cond


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    signature: str
    description: str
    builder: Callable = field(compare=False)
    fixture_factory: Callable = field(compare=False)


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
    closed = ValuedForm(chart, 1, COV, space, {((0,), "e1"): as_expr(1.0)})
    open_ = ValuedForm(chart, 1, COV, space, {((0,), "e1"): y})
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
    bad = ValuedForm.from_slices(pair_space(),
                                 [form(chart, 2, {(0, 1): z}),
                                  form(chart, 2, {})], variance=COV)
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
    abelian_dir = ValuedForm(chart, 1, COV, space, {((0,), "e3"): sin(z - xi)})
    generic = ValuedForm(chart, 1, COV, space,
                         {((1,), "e1"): x, ((2,), "e2"): y * y})
    return [
        Fixture("single_direction_wave", chart, {"omega": abelian_dir}, True, _box(chart)),
        Fixture("generic_connection", chart, {"omega": generic}, False, _box(chart)),
    ]


def _fx_bianchi():
    chart = minkowski()
    space = _su2_space()
    x, y, z = coord(0), coord(1), coord(2)
    omega = ValuedForm(chart, 1, COV, space,
                       {((0,), "e1"): y, ((1,), "e2"): z * x, ((2,), "e3"): x})
    not_curvature = ValuedForm(chart, 2, COV, space, {((0, 1), "e1"): z})
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
    sym_pair = ValuedForm.from_slices(space, [F, F], variance=COV)
    skew_pair = ValuedForm.from_slices(
        space, [form(chart, 2, {(0, 1): z}), form(chart, 2, {(0, 1): as_expr(1.0)})],
        variance=COV)
    return [
        Fixture("equal_components", chart, {"psi": sym_pair}, True, _box(chart)),
        Fixture("unbalanced_exchange", chart, {"psi": skew_pair}, False, _box(chart)),
    ]


def _fx_ext_ym_diagonal():
    chart = minkowski()
    space = _pair_lie_space()
    F = plane_wave_F(chart)
    z = coord(2)
    good = ValuedForm.from_slices(space, [F, hodge(F)], variance=COV)
    bad = ValuedForm.from_slices(space,
                                 [form(chart, 2, {(0, 1): z}), hodge(F)], variance=COV)
    return [
        Fixture("self_conserving", chart, {"psi": good}, True, _box(chart)),
        Fixture("leaking_component", chart, {"psi": bad}, False, _box(chart)),
    ]


def _fx_ext_ym_sym():
    chart = minkowski()
    space = _pair_lie_space()
    F = plane_wave_F(chart)
    z = coord(2)
    good = ValuedForm.from_slices(space, [F, hodge(F)], variance=COV)
    bad = ValuedForm.from_slices(space,
                                 [form(chart, 2, {(0, 1): z}),
                                  form(chart, 2, {})], variance=COV)
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


def _register(id_: str, signature: str, description: str, builder, fixture_factory):
    _ENTRIES[id_] = CatalogEntry(id_, signature, description, builder, fixture_factory)


_register("first_integral", "X: vector, f: field",
          "derivative of a function along a flow vanishes", _first_integral,
          _fx_first_integral)
_register("relative_invariant", "X: vector, alpha: form",
          "i(X) d alpha = 0", _relative_invariant, _fx_relative_invariant)
_register("absolute_invariant", "X: vector, alpha: form",
          "i(X) alpha = 0 and i(X) d alpha = 0", _absolute_invariant,
          _fx_absolute_invariant)
_register("symplectic_closed", "omega: 2-form",
          "nondegenerate 2-form is closed", _symplectic_closed, _fx_symplectic_closed)
_register("hamiltonian_field", "omega: 2-form, X: vector",
          "d i(X) omega = 0", _hamiltonian_field, _fx_hamiltonian_field)
_register("poisson_first_integrals", "omega: 2-form, Z: vector, alpha, beta: 1-forms",
          "bracket of two first integrals is a first integral",
          _poisson_first_integrals, _fx_poisson)
_register("frobenius_vector", "fields: vectors, pi: projection",
          "projected brackets of a distribution vanish", _frobenius_vector,
          _fx_frobenius_vector)
_register("frobenius_pfaff", "forms: 1-forms",
          "d alpha ^ alpha_1 ^ ... ^ alpha_k = 0", _frobenius_pfaff, _fx_frobenius_pfaff)
_register("nabla_parallel", "X: vector, sigma: vector",
          "covariant derivative of a section along X vanishes", _nabla_parallel,
          _fx_nabla_parallel)
_register("theta_pi_parallel", "psi: valued form, theta: multivector, pi: matrix",
          "i(Theta)(D psi)^i (x) Pi(E_i) = 0", _theta_pi_parallel, _fx_theta_pi)
_register("autoparallel_valued_form", "psi: valued form, phi: sym|diag|bracket",
          "i(tilde a^k)(D a)^m (x) phi(E_k, E_m) = 0", _autoparallel_valued_form,
          _fx_autoparallel_valued_form)
_register("autoparallel_vector", "u: vector",
          "u^s nabla_s u^m + Gamma^m_sn u^s u^n = 0", _autoparallel_vector,
          _fx_autoparallel_vector)
_register("null_autoparallel", "u: vector (null)",
          "u^m (du)_mn = 0 with u of zero length", _null_autoparallel,
          _fx_null_autoparallel)
_register("mass_energy", "u: vector, rho: field",
          "div(rho u) = 0 and div(rho u u) = 0", _mass_energy, _fx_mass_energy)
_register("maxwell_vacuum", "F: 2-form",
          "dF = 0 and d*F = 0 via the paired field", _maxwell_vacuum, _fx_maxwell_vacuum)
_register("maxwell_currents", "F: 2-form, m_current, j_current: 3-forms",
          "dF = m and d*F = j", _maxwell_currents, _fx_maxwell_currents)
_register("ext_maxwell_vacuum", "F: 2-form",
          "i(tilde F)dF = 0, i(tilde *F)d*F = 0, cross term = 0",
          _ext_maxwell_vacuum, _fx_ext_maxwell_vacuum)
_register("ext_maxwell_currents", "F: 2-form, J1..J4: 1-forms [, symmetrized_rhs]",
          "field/current energy-momentum exchange system", _ext_maxwell_currents,
          _fx_ext_maxwell_currents)
_register("pfaff_currents", "J1..J4: 1-forms",
          "every current pair is a completely integrable Pfaff system",
          _pfaff_currents, _fx_pfaff_currents)
_register("yang_mills", "omega: algebra-valued 1-form",
          "D*Omega = 0 for the curvature of a connection", _yang_mills, _fx_yang_mills)
_register("bianchi", "omega: algebra-valued 1-form [, psi: 2-form]",
          "D Omega = 0", _bianchi, _fx_bianchi)
_register("ext_yang_mills_bracket", "psi: algebra-valued 2-form [, omega]",
          "i(tilde psi^i)(D psi)^m on bracket labels", _ext_ym("ext_yang_mills_bracket",
          "bracket", True), _fx_ext_ym_bracket)
_register("ext_yang_mills_diagonal", "psi: algebra-valued 2-form [, omega]",
          "each component conserves itself: i(tilde psi^i)(D psi)^i = 0",
          _ext_ym("ext_yang_mills_diagonal", "diag", True), _fx_ext_ym_diagonal)
_register("ext_yang_mills_sym", "psi: valued 2-form",
          "pairwise exchange on symmetrized labels", _ext_ym("ext_yang_mills_sym",
          "sym", False), _fx_ext_ym_sym)
_register("ricci_flat", "(chart metric)",
          "Ricci tensor of the chart metric vanishes", _ricci_flat, _fx_ricci_flat)
_register("schrodinger", "psi: field [, V, hbar, mass]",
          "i hbar d_t psi = H psi", _schrodinger, _fx_schrodinger)
_register("dirac", "psi: 4 fields [, m, sign, A, e]",
          "(i gamma^mu (d_mu - i e A_mu) + sign m) psi = 0", _dirac, _fx_dirac)


def catalog_ids() -> List[str]:
    return sorted(_ENTRIES.keys())


def get_entry(id_: str) -> CatalogEntry:
    try:
        return _ENTRIES[id_]
    except KeyError:
        raise UnknownEntry(f"unknown catalog entry {id_!r}") from None


def build(id_: str, chart: Chart, **params) -> GrCondition:
    """Instantiate an entry into a bound residual condition."""
    return get_entry(id_).builder(chart, params)


def fixtures(id_: str) -> List[Fixture]:
    """Named field configurations with known pass/fail verdicts."""
    return get_entry(id_).fixture_factory()
