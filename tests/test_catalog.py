import math
import re
from pathlib import Path

import numpy as np
import pytest

import grs
from grs import catalog, dsl
from grs.catalog import (
    build,
    catalog_ids,
    euclidean,
    fixtures,
    get_entry,
    minkowski,
)
from grs.diffops import d_form
from grs.engine import DEFAULT_TOL, verify
from grs.errors import (
    DegenerateFormError,
    DegreeError,
    DimensionError,
    GrsError,
    MissingParameter,
    NonIdempotentProjection,
    ParameterError,
    UnknownEntry,
)
from grs.exterior import form
from grs.scalar import Program, as_expr, coord, sin


ALL_IDS = catalog_ids()
PACKAGE = Path(grs.__file__).parent

# a readable name for each known case, in the order fixtures() yields them;
# the verdict tests carry these names in their ids
CASE_NAMES = {
    "absolute_invariant": ("transverse_closed", "longitudinal"),
    "autoparallel_valued_form": ("wave_pair", "sheared_field"),
    "autoparallel_vector": ("soliton_half_c", "stretching"),
    "bianchi": ("curvature_of_connection", "arbitrary_two_form"),
    "dirac": ("rest_frame", "wrong_mass"),
    "ext_maxwell_currents": ("vacuum_limit", "spurious_current"),
    "ext_maxwell_vacuum": ("plane_wave", "sheared_field"),
    "ext_yang_mills_bracket": ("equal_components", "unbalanced_exchange"),
    "ext_yang_mills_diagonal": ("self_conserving", "leaking_component"),
    "ext_yang_mills_sym": ("wave_pair", "sheared_component"),
    "first_integral": ("rotation_invariant", "non_invariant"),
    "frobenius_pfaff": ("foliation", "heisenberg_dual"),
    "frobenius_vector": ("coordinate_plane", "heisenberg"),
    "hamiltonian_field": ("oscillator_flow", "shear_flow"),
    "mass_energy": ("comoving_density", "streamwise_density"),
    "maxwell_currents": ("consistent_sources", "dropped_sources"),
    "maxwell_vacuum": ("plane_wave", "sheared_field"),
    "nabla_parallel": ("constant_section", "stretching_section"),
    "null_autoparallel": ("light_speed_soliton", "sheared_flow", "timelike"),
    "pfaff_currents": ("exact_currents", "contact_current"),
    "poisson_first_integrals": ("dependent_integrals", "non_integral"),
    "relative_invariant": ("closed_form", "transverse"),
    "ricci_flat": ("schwarzschild_200", "two_sphere", "flat", "schwarzschild"),
    "schrodinger": ("free_wave", "wrong_dispersion", "oscillator_ground"),
    "symplectic_closed": ("canonical", "non_closed"),
    "theta_pi_parallel": ("closed_component", "open_component"),
    "yang_mills": ("single_direction_wave", "generic_connection"),
}


def known_cases():
    """pytest params (entry id, fixture) for every known case, with the
    case's name in the test id."""
    for cid in ALL_IDS:
        cases = fixtures(cid)
        assert len(cases) == len(CASE_NAMES[cid]), cid
        for name, fx in zip(CASE_NAMES[cid], cases):
            yield pytest.param(cid, fx, id=f"{cid}-{name}")


def _plane_wave(chart):
    """F = d(sin(z - xi) dx): a closed plane wave, with d*F = 0 on Minkowski."""
    return d_form(form(chart, 1, {(0,): sin(coord(2) - coord(3))}))


def test_catalog_is_sorted_and_complete():
    assert ALL_IDS == sorted(ALL_IDS)
    assert len(ALL_IDS) == 27


def test_entries_have_metadata():
    for cid in ALL_IDS:
        e = get_entry(cid)
        assert e.signature
        assert e.description


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        get_entry("not_a_thing")
    with pytest.raises(UnknownEntry):
        build("not_a_thing", minkowski())


def test_missing_parameter():
    with pytest.raises(MissingParameter):
        build("schrodinger", minkowski())


def test_degenerate_symplectic_candidate():
    chart = euclidean(("q1", "q2", "p1", "p2"))
    # rank-2 constant 2-form on a 4-dimensional chart
    omega = form(chart, 2, {(0, 2): 1.0})
    with pytest.raises(DegenerateFormError):
        build("symplectic_closed", chart, omega=omega)


def test_bad_projection_rejected():
    chart = euclidean(("x", "y"))
    from grs.scalar import coord
    with pytest.raises(NonIdempotentProjection):
        build("frobenius_vector", chart,
              fields=[[coord(0), coord(1)], [coord(1), coord(0)]],
              pi=[[1.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("cid, params", [
    ("frobenius_pfaff", {"forms": []}),
    ("frobenius_vector", {"fields": [], "pi": [0.0, 0.0, 1.0]}),
])
def test_empty_vararg_is_missing(cid, params):
    # an empty list would build a condition with no residual, which passes
    with pytest.raises(MissingParameter):
        build(cid, euclidean(("x", "y", "z")), **params)


def test_vararg_must_be_a_list():
    chart = euclidean(("x", "y", "z"))
    with pytest.raises(ParameterError, match="must be a list"):
        build("frobenius_pfaff", chart, forms=form(chart, 1, {(2,): 1.0}))


def test_theta_pi_must_be_a_projection():
    fx = fixtures("theta_pi_parallel")[0]
    with pytest.raises(NonIdempotentProjection):
        build("theta_pi_parallel", fx.chart, **dict(fx.params, pi=[[0.5, 0.5], [0.5, 0.7]]))
    # a projection need not be diagonal
    build("theta_pi_parallel", fx.chart, **dict(fx.params, pi=[[0.5, 0.5], [0.5, 0.5]]))


@pytest.mark.parametrize("cid,fx", list(known_cases()))
def test_fixture_verdicts(cid, fx):
    """Every known case reproduces its expected verdict."""
    cond = build(cid, fx.chart, **fx.params)
    rep = verify(cond, fx.sample, fx.tol)
    assert rep.passed == fx.expect_pass, (
        f"{cid}/{fx.name}: linf={rep.linf:.3e}")


def test_every_spec_text_is_package_data():
    """An installed grs keeps each .grs file under its package directory,
    so it keeps every known case."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    patterns = pyproject["tool"]["setuptools"]["package-data"]["grs"]
    shipped = {p for pattern in patterns for p in PACKAGE.glob(pattern)}
    texts = set(PACKAGE.rglob("*.grs"))
    assert {p.parent.name for p in texts} == {"specs", "cases"}
    assert texts <= shipped


def test_each_entry_ships_pass_and_fail_fixtures():
    for cid in ALL_IDS:
        verdicts = {fx.expect_pass for fx in fixtures(cid)}
        assert verdicts == {True, False}, cid


def test_signatures_are_rendered_from_the_schema():
    assert get_entry("first_integral").signature == "X: vector, f: field"
    assert get_entry("frobenius_vector").signature == "fields: vector..., [pi: projection]"
    assert get_entry("dirac").signature == (
        "psi: spinor, [m: real = 1.0], [sign: -1|1 = -1], [A: 1-form], [e: real = 0.0]")
    assert get_entry("ext_maxwell_currents").signature == (
        "F: 2-form, J1: 1-form, J2: 1-form, J3: 1-form, J4: 1-form")
    assert get_entry("ricci_flat").params == ()
    for cid in ALL_IDS:
        for p in get_entry(cid).params:
            assert (p.name in get_entry(cid).signature
                    and (p.required or f"[{p.name}:" in get_entry(cid).signature))


def test_wrong_kind_and_unknown_parameter_rejected():
    chart = euclidean(("x", "y"))
    from grs.scalar import coord
    with pytest.raises(ParameterError, match="'X'"):
        build("first_integral", chart, X=coord(0), f=coord(1))
    with pytest.raises(ParameterError, match="'g'"):
        build("first_integral", chart, X=[coord(1), coord(0)], f=coord(0), g=1.0)


def test_matrix_pi_must_be_square_of_the_chart_dimension():
    chart = euclidean(("x", "y", "z"))
    from grs.scalar import coord
    fields = [[1.0, 0.0, 0.0], [0.0, 1.0, coord(0)]]
    with pytest.raises(DimensionError):
        build("frobenius_vector", chart, fields=fields, pi=[[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        build("frobenius_vector", chart, fields=fields, pi=[0.0, 1.0])
    build("frobenius_vector", chart, fields=fields,
          pi=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_position_dependent_pi_of_theta_pi_parallel_rejected():
    from grs.exterior import COV, multivector
    from grs.scalar import coord
    from grs.valued import ValuedForm, ValueSpace
    chart = minkowski()
    psi = ValuedForm.from_components(chart, 1, COV, ValueSpace(("e1", "e2")),
                                     {((0,), "e1"): coord(1)})
    theta = multivector(chart, 2, {(0, 1): 1.0})
    with pytest.raises(ParameterError):
        build("theta_pi_parallel", chart, psi=psi, theta=theta, pi=[coord(0), 0.0])


def test_wedge_entries_reject_a_chart_too_small():
    from grs.scalar import coord
    chart = euclidean(("x", "y", "z"))
    x = coord(0)
    a = form(chart, 1, {(0,): 1.0})
    b = form(chart, 1, {(1,): x})
    # d alpha ^ alpha_1 ^ alpha_2 has degree 4 on a 3-chart
    with pytest.raises(DegreeError):
        build("frobenius_pfaff", chart, forms=[a, b])
    with pytest.raises(DegreeError, match="wedge degree 2\\+2 exceeds chart dimension 3"):
        build("pfaff_currents", chart, J1=a, J2=b, J3=a, J4=b)


def test_a_form_on_another_chart_is_rejected():
    from grs.exterior import COV, multivector
    from grs.valued import ValuedForm, ValueSpace, su2
    flat4 = euclidean(("x", "y", "z", "xi"))
    mink = minkowski()
    # judged on its own chart, this wave would pass on Minkowski
    with pytest.raises(ParameterError, match="'F' lives on another chart than the entry's"):
        build("maxwell_vacuum", flat4, F=_plane_wave(mink))
    omega = ValuedForm.from_components(mink, 1, COV, ValueSpace(("e1", "e2", "e3"), lie=su2()),
                                       {((0,), "e1"): 1.0})
    with pytest.raises(ParameterError, match="'omega' lives on another chart"):
        build("yang_mills", flat4, omega=omega)
    pair = ValuedForm(ValueSpace(("e1", "e2")), [_plane_wave(mink), form(mink, 2, {})])
    with pytest.raises(ParameterError, match="'theta' lives on another chart"):
        build("theta_pi_parallel", mink, psi=pair, theta=multivector(flat4, 1, {(0,): 1.0}),
              pi=[1.0, 0.0])
    # the same wave built on the entry's chart is checked there
    sample = fixtures("maxwell_vacuum")[0].sample
    assert not verify(build("maxwell_vacuum", flat4, F=_plane_wave(flat4)), sample).passed
    assert verify(build("maxwell_vacuum", mink, F=_plane_wave(mink)), sample).passed


def test_poisson_bracket_keeps_its_label_through_the_pairing():
    fx = fixtures("poisson_first_integrals")[0]
    cond = build("poisson_first_integrals", fx.chart, **fx.params)
    assert [(lab, idx) for lab, comps in cond.residuals.items()
            for idx, _e in comps] == [("bracket", ())]


def _coulomb_params(entry, chart, power):
    """Parameters of a hodge-based entry for F = r^-power dr ^ dt: the
    Coulomb field for power 2, whose dual is ~ sin(theta) dtheta ^ dphi."""
    from grs.exterior import COV
    from grs.scalar import coord
    from grs.valued import ValuedForm, ValueSpace, su2
    r = coord(0)
    if entry == "yang_mills":
        # one su(2) direction, so the bracket terms vanish: F = dA with A ~ r^(1-power) dt
        A = r ** (1 - power) * (1.0 / (1 - power))
        space = ValueSpace(("e1", "e2", "e3"), lie=su2())
        return {"omega": ValuedForm.from_components(chart, 1, COV, space, {((3,), "e3"): A})}
    params = {"F": form(chart, 2, {(0, 3): r ** -power})}
    if entry == "maxwell_currents":
        params.update(m_current=form(chart, 3, {}), j_current=form(chart, 3, {}))
    elif entry == "ext_maxwell_currents":
        params.update({f"J{k}": form(chart, 1, {}) for k in range(1, 5)})
    return params


@pytest.mark.parametrize("entry", ["maxwell_vacuum", "maxwell_currents", "ext_maxwell_vacuum",
                                   "ext_maxwell_currents", "yang_mills"])
def test_hodge_entries_on_schwarzschild(entry):
    """The Coulomb field solves each hodge-based entry on a curved chart; r^-3 does not."""
    from grs.catalog import schwarzschild_chart
    from grs.scalar import SampleSet
    chart = schwarzschild_chart()
    sample = SampleSet.random_box([(3, 10), (0.3, 2.8), (0, 6.2), (-1, 1)], 100, seed=13)
    coulomb = verify(build(entry, chart, **_coulomb_params(entry, chart, 2)), sample, 1e-10)
    assert coulomb.passed and coulomb.evaluated == 100, coulomb.linf
    control = verify(build(entry, chart, **_coulomb_params(entry, chart, 3)), sample, 1e-10)
    assert not control.passed and control.linf > 1e-5


def test_schwarzschild_chart_is_the_textbook_metric():
    """g = diag(-1/f, -r^2, -r^2 sin^2 theta, f) with f = 1 - 2M/r, so g_tt
    vanishes on the horizon r = 2M."""
    from grs.catalog import schwarzschild_chart
    g = schwarzschild_chart(1.5).metric.entries()
    for r, th in [(3.0, 0.4), (6.0, 1.2)]:
        pt = (r, th, 0.3, 0.7)
        f = 1.0 - 3.0 / r
        assert g[3][3].ev(pt) == pytest.approx(f, abs=1e-15)
        assert g[2][2].ev(pt) == pytest.approx(-(r * math.sin(th)) ** 2)
        if f:
            assert g[0][0].ev(pt) == pytest.approx(-1.0 / f)


def test_soliton_field_is_the_boosted_profile():
    """Each soliton in spec text is exp(-(x^2 + y^2)) bump(alpha (z - 0.5 xi)),
    alpha = 1/sqrt(1 - 0.5^2) written one ulp below the float Python computes."""
    alpha = 1.0 / math.sqrt(1.0 - 0.5 ** 2)
    assert alpha == 1.1547005383792517
    soliton = re.compile(r"= exp\(-\(x\^2 \+ y\^2\)\) \* bump\(([\d.]+) \* \(z - 0\.5\*xi\)\)")
    for path in ("specs/autoparallel_vector.grs", "specs/mass_energy.grs",
                 "cases/null_autoparallel.grs"):
        assert soliton.findall((PACKAGE / path).read_text()) == ["1.1547005383792515"], path
    assert 1.1547005383792515 == pytest.approx(alpha, rel=1e-15)
    assert math.nextafter(1.1547005383792515, 2.0) == alpha


def test_plane_wave_travels_toward_plus_z():
    """Each shipped F is d(sin(z - xi) dx) at its sample points, and depends
    on z - xi only."""
    keys = [(0, 2), (0, 3)]
    for cid in ("maxwell_vacuum", "ext_maxwell_vacuum", "ext_maxwell_currents"):
        fx = fixtures(cid)[0]
        F, want = fx.params["F"], _plane_wave(fx.chart)
        assert sorted(F.components) == sorted(want.components) == keys, cid
        pts = fx.sample.array()
        here = Program([as_expr(F.components[k]) for k in keys]).at(pts)
        assert np.abs(here - Program([want.components[k] for k in keys]).at(pts)).max() <= 1e-15
        there = Program([as_expr(F.components[k]) for k in keys]).at(pts + [0, 0, 0.5, 0.5])
        assert np.abs(here - there).max() <= 1e-15, cid


class TestChartsCompareByValue:
    """Two calls of one chart function give equal charts; a chart with the
    same coordinate names and another metric stays a different chart."""

    def test_two_minkowski_calls_are_equal(self):
        assert minkowski() == minkowski()
        assert hash(minkowski()) == hash(minkowski())

    def test_maxwell_on_a_second_minkowski_call_passes(self):
        cond = build("maxwell_vacuum", minkowski(), F=_plane_wave(minkowski()))
        assert verify(cond, fixtures("maxwell_vacuum")[0].sample).passed

    def test_wedge_of_forms_on_two_minkowski_calls(self):
        from grs.exterior import wedge
        from grs.scalar import coord
        a = form(minkowski(), 1, {(0,): coord(1)})
        b = form(minkowski(), 1, {(1,): coord(0)})
        assert set(wedge(a, b).components) == {(0, 1)}

    def test_minkowski_named_euclidean_chart_is_rejected(self):
        flat4 = euclidean(("x", "y", "z", "xi"))
        assert flat4 != minkowski()
        with pytest.raises(ParameterError, match="'F' lives on another chart"):
            build("maxwell_vacuum", minkowski(), F=_plane_wave(flat4))


def test_yang_mills_rejects_structure_constants_that_break_jacobi():
    from grs.errors import GrsError
    from grs.exterior import COV
    from grs.valued import LieStructure, ValuedForm, ValueSpace
    chart = euclidean(("x", "y", "z"))
    with pytest.raises(GrsError, match="Jacobi"):
        # [e1, e2] = e2, [e1, e3] = e3, [e2, e3] = e1 is no Lie algebra
        lie = LieStructure.from_triples(3, [(0, 1, 1, 1.0), (0, 2, 2, 1.0), (1, 2, 0, 1.0)])
        omega = ValuedForm.from_components(chart, 1, COV, ValueSpace(("e1", "e2", "e3"), lie),
                                           {((0,), "e1"): 1.0, ((1,), "e2"): 1.0})
        build("yang_mills", chart, omega=omega)


def test_mass_energy_passes_uniform_dust_on_a_curved_chart():
    # dust moving uniformly along x, written in cylindrical coordinates:
    # Gamma is non-zero here, so a wrong sign on d_s or on either Gamma
    # term leaves a residual instead of only negating one
    from grs.exterior import Chart, MetricSpec
    from grs.scalar import ONE, ZERO, SampleSet, coord, cos, sin
    r, phi = coord(0), coord(1)
    g = MetricSpec.matrix([[-ONE, ZERO, ZERO, ZERO], [ZERO, -(r * r), ZERO, ZERO],
                           [ZERO, ZERO, -ONE, ZERO], [ZERO, ZERO, ZERO, ONE]])
    chart = Chart(("r", "phi", "z", "xi"), g)
    u = [cos(phi), -(sin(phi) / r), ZERO, ONE]
    cond = build("mass_energy", chart, u=u, rho=ONE)
    sample = SampleSet.random_box([(0.5, 2.0), (0.0, 6.2), (-1.0, 1.0), (-1.0, 1.0)], 64, 13)
    rep = verify(cond, sample, DEFAULT_TOL)
    assert rep.passed, f"linf={rep.linf:.3e}"


def test_ext_maxwell_currents_subtracts_the_j4_term():
    # the plane wave solves the vacuum system, so with J1 = J2 = J3 = 0 the
    # middle slice is -i(J4~) *F alone; J4 = dy, since i(d/dx) kills *F here
    import itertools
    chart = minkowski()
    F = _plane_wave(chart)
    zero = form(chart, 1, {})
    cond = build("ext_maxwell_currents", chart, F=F, J1=zero, J2=zero, J3=zero,
                 J4=form(chart, 1, {(1,): 1.0}))
    middle = cond.residuals["e1∨e2"]
    pts = np.random.default_rng(5).uniform(-2, 2, (6, 4))
    got = np.zeros((len(pts), 4))
    for (c,), v in zip([idx for idx, _ in middle], Program([e for _, e in middle]).at(pts)):
        got[:, c] = v.real
    # reference: *F_cd = 1/2 F^ab eps_abcd (sqrt|g| = 1), and (i(v) w)_c = v^a w_ac
    ginv = np.diag([-1.0, -1.0, -1.0, 1.0])
    eps = np.zeros((4,) * 4)
    for perm in itertools.permutations(range(4)):
        eps[perm] = np.linalg.det(np.eye(4)[list(perm)])
    keys = list(F.components)
    vals = Program([as_expr(F.components[k]) for k in keys]).at(pts).real
    for p in range(len(pts)):
        Fm = np.zeros((4, 4))
        for (a, b), v in zip(keys, vals[:, p]):
            Fm[a, b], Fm[b, a] = v, -v
        star = 0.5 * np.einsum("ab,abcd->cd", ginv @ Fm @ ginv, eps)
        v = ginv @ [0.0, 1.0, 0.0, 0.0]
        ref = -np.einsum("a,ac->c", v, star)
        assert np.max(np.abs(ref)) > 0.01
        assert np.max(np.abs(got[p] - ref)) <= 1e-12


def test_fixtures_reports_a_known_case_that_does_not_bind(tmp_path, monkeypatch):
    text = ("chart R2 (x, y) metric diag(1, 1)\n"
            "check first_integral( on grid(-1..1, -1..1; 3) expect pass\n")
    (tmp_path / "specs").mkdir()
    (tmp_path / "specs" / "first_integral.grs").write_text(text)
    monkeypatch.setattr(catalog, "_PACKAGE", tmp_path)
    with pytest.raises(GrsError) as err:
        fixtures("first_integral")
    rendered = [d.render() for d in dsl.load(text)[1] if d.severity == "error"]
    assert rendered
    assert str(err.value) == "known cases of first_integral:\n" + "\n".join(rendered)
