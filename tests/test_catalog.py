import pytest

from grs.catalog import (
    build,
    catalog_ids,
    euclidean,
    fixtures,
    get_entry,
    minkowski,
)
from grs.engine import DEFAULT_TOL, verify
from grs.errors import (
    DegenerateFormError,
    DegreeError,
    DimensionError,
    MissingParameter,
    NonIdempotentProjection,
    ParameterError,
    UnknownEntry,
)
from grs.exterior import form


ALL_IDS = catalog_ids()


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


def _cases():
    for cid in ALL_IDS:
        for fx in fixtures(cid):
            yield pytest.param(cid, fx, id=f"{cid}-{fx.name}")


@pytest.mark.parametrize("cid,fx", list(_cases()))
def test_fixture_verdicts(cid, fx):
    """Every shipped fixture reproduces its expected verdict."""
    cond = build(cid, fx.chart, **fx.params)
    rep = verify(cond, fx.sample, fx.tol if fx.tol is not None else DEFAULT_TOL)
    assert rep.passed == fx.expect_pass, (
        f"{cid}/{fx.name}: linf={rep.linf:.3e}")


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
    from grs.catalog import plane_wave_F
    from grs.exterior import COV, multivector
    from grs.valued import ValuedForm, ValueSpace, su2
    flat4 = euclidean(("x", "y", "z", "xi"))
    mink = minkowski()
    # judged on its own chart, this wave would pass on Minkowski
    with pytest.raises(ParameterError, match="'F' lives on another chart than the entry's"):
        build("maxwell_vacuum", flat4, F=plane_wave_F(mink))
    omega = ValuedForm.from_components(mink, 1, COV, ValueSpace(("e1", "e2", "e3"), lie=su2()),
                                       {((0,), "e1"): 1.0})
    with pytest.raises(ParameterError, match="'omega' lives on another chart"):
        build("yang_mills", flat4, omega=omega)
    pair = ValuedForm(ValueSpace(("e1", "e2")), [plane_wave_F(mink), form(mink, 2, {})])
    with pytest.raises(ParameterError, match="'theta' lives on another chart"):
        build("theta_pi_parallel", mink, psi=pair, theta=multivector(flat4, 1, {(0,): 1.0}),
              pi=[1.0, 0.0])
    # the same wave built on the entry's chart is checked there
    sample = fixtures("maxwell_vacuum")[0].sample
    assert not verify(build("maxwell_vacuum", flat4, F=plane_wave_F(flat4)), sample).passed
    assert verify(build("maxwell_vacuum", mink, F=plane_wave_F(mink)), sample).passed


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


class TestChartsCompareByValue:
    """Two calls of one chart function give equal charts; a chart with the
    same coordinate names and another metric stays a different chart."""

    def test_two_minkowski_calls_are_equal(self):
        assert minkowski() == minkowski()
        assert hash(minkowski()) == hash(minkowski())

    def test_maxwell_on_a_second_minkowski_call_passes(self):
        from grs.catalog import plane_wave_F
        cond = build("maxwell_vacuum", minkowski(), F=plane_wave_F(minkowski()))
        assert verify(cond, fixtures("maxwell_vacuum")[0].sample).passed

    def test_wedge_of_forms_on_two_minkowski_calls(self):
        from grs.exterior import wedge
        from grs.scalar import coord
        a = form(minkowski(), 1, {(0,): coord(1)})
        b = form(minkowski(), 1, {(1,): coord(0)})
        assert set(wedge(a, b).components) == {(0, 1)}

    def test_minkowski_named_euclidean_chart_is_rejected(self):
        from grs.catalog import plane_wave_F
        flat4 = euclidean(("x", "y", "z", "xi"))
        assert flat4 != minkowski()
        with pytest.raises(ParameterError, match="'F' lives on another chart"):
            build("maxwell_vacuum", minkowski(), F=plane_wave_F(flat4))


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
