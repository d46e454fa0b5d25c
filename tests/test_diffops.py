import math

import numpy as np
import pytest

from grs.diffops import (
    GAMMA_UPPER,
    check_idempotent,
    christoffels_from_metric,
    covariant_D,
    curvature,
    d_form,
    dirac_residual,
    exterior_d,
    geodesic_integrate,
    lie_bracket,
    metricity_residual,
    nabla_X,
    projected_lie,
    ricci,
    riemann,
    schrodinger_residual,
)
from grs.catalog import build, minkowski, schwarzschild_chart, sphere_chart
from grs.engine import verify
from grs.errors import (
    DegreeError,
    DimensionError,
    NonIdempotentProjection,
    StepError,
)
from grs.exterior import COV, Chart, MetricSpec, form, wedge
from grs.scalar import ZERO, Program, SampleSet, as_expr, const, coord, cos, exp, is_zero, sin
from grs.valued import ValueSpace, ValuedForm, su2


x, y, z = coord(0), coord(1), coord(2)


def comps(vf):
    """A valued form's components as (multi-index, label) -> value."""
    return {(idx, lab): v for lab, s in zip(vf.space.labels, vf.slices)
            for idx, v in s.components.items()}


@pytest.fixture
def r3():
    return Chart(("x", "y", "z"), MetricSpec.diagonal([1, 1, 1]))


@pytest.fixture
def sphere():
    th = coord(0)
    g = MetricSpec.matrix([[as_expr(1.0), ZERO], [ZERO, sin(th) * sin(th)]])
    return Chart(("theta", "phi"), g)


@pytest.fixture
def V3():
    return ValueSpace(labels=("e1", "e2", "e3"), lie=su2())


class TestExteriorDerivative:
    def test_basic(self, r3):
        w = form(r3, 1, {(1,): x})
        dw = d_form(w)
        assert set(dw.components) == {(0, 1)}
        assert dw.components[(0, 1)].ev((0, 0, 0)) == 1.0

    def test_dd_is_zero(self, r3):
        w = form(r3, 1, {(0,): sin(x * y), (1,): exp(z) * x, (2,): y * y})
        dd = d_form(d_form(w))
        pt = (0.3, -0.7, 0.4)
        for v in dd.components.values():
            assert abs(v.ev(pt)) < 1e-12

    def test_top_degree_overflow(self, r3):
        vol = form(r3, 3, {(0, 1, 2): x})
        with pytest.raises(DegreeError):
            d_form(vol)

    def test_valued_d_acts_per_label(self, r3, V3):
        vf = ValuedForm.from_components(r3, 0, COV, V3, {((), "e1"): x, ((), "e3"): y})
        dvf = exterior_d(vf)
        assert set(comps(dvf)) == {((0,), "e1"), ((1,), "e3")}


class TestCovariantD:
    def test_trivial_is_d(self, r3, V3):
        vf = ValuedForm.from_components(r3, 0, COV, V3, {((), "e2"): x * y})
        a = covariant_D(None, vf)
        b = exterior_d(vf)
        assert comps(a).keys() == comps(b).keys()

    def test_lie_connection_bracket_term(self, r3, V3):
        # omega = dx (x) e1 acting on a constant section e2 contributes
        # [e1, e2] = e3 along dx
        omega = ValuedForm.from_components(r3, 1, COV, V3, {((0,), "e1"): 1.0})
        psi = ValuedForm.from_components(r3, 0, COV, V3, {((), "e2"): 1.0})
        out = covariant_D(omega, psi)
        assert set(comps(out)) == {((0,), "e3")}
        assert comps(out)[((0,), "e3")].ev((0, 0, 0)) == 1.0

    def test_connection_degree_check(self, r3, V3):
        bad = ValuedForm.from_components(r3, 2, COV, V3, {((0, 1), "e1"): 1.0})
        psi = ValuedForm.from_components(r3, 0, COV, V3, {((), "e2"): 1.0})
        with pytest.raises(DegreeError):
            covariant_D(bad, psi)

    def test_connection_needs_lie_structure(self, r3):
        plain = ValueSpace(labels=("a",))
        w = ValuedForm.from_components(r3, 1, COV, plain, {((0,), "a"): 1.0})
        psi = ValuedForm.from_components(r3, 0, COV, plain, {((), "a"): x})
        with pytest.raises(DimensionError):
            covariant_D(w, psi)


class TestConnectionPairing:
    """D = d + omega ^ [., .]: the bracket term is the wedge (x) Lie-bracket pairing."""

    # C^m_jk of su(2) as (j, k, m, value): [e_j, e_k] = epsilon_jkm e_m
    SU2 = [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
           (1, 0, 2, -1.0), (2, 1, 0, -1.0), (0, 2, 1, -1.0)]
    POINTS = [(0.2, -0.4, 0.9), (1.1, 0.3, -0.5), (-0.7, 0.6, 0.1)]

    def _omega(self, r3, V3):
        return ValuedForm.from_components(r3, 1, COV, V3, {
            ((0,), "e1"): sin(y), ((1,), "e1"): x * z,
            ((1,), "e2"): exp(0.3 * x), ((2,), "e3"): x * y,
        })

    def _psi(self, r3, space):
        e1, e2, e3 = space.labels
        return ValuedForm.from_components(r3, 1, COV, space, {
            ((0,), e1): y * z, ((2,), e2): cos(x), ((1,), e3): x + z, ((2,), e3): y,
        })

    def _expected(self, omega, psi, pt):
        """d psi + sum C^m_jk omega^j ^ psi^k, label index m -> {multi-index: value}."""
        d_psi = exterior_d(psi)
        out = [{idx: v.ev(pt) for idx, v in s.components.items()} for s in d_psi.slices]
        w, p = omega.slices, psi.slices
        for j, k, m, c in self.SU2:
            for idx, v in wedge(w[j], p[k]).components.items():
                out[m][idx] = out[m].get(idx, 0.0) + c * v.ev(pt)
        return out

    def _assert_matches(self, got, omega, psi):
        for pt in self.POINTS:
            want = self._expected(omega, psi, pt)
            for m, lab in enumerate(psi.space.labels):
                have = {idx: v.ev(pt) for idx, v in got.slices[m].components.items()}
                assert set(have) <= set(want[m])
                for idx, v in want[m].items():
                    assert have.get(idx, 0.0) == pytest.approx(v, abs=1e-12)

    def test_su2_connection_adds_the_bracket_sum(self, r3, V3):
        omega, psi = self._omega(r3, V3), self._psi(r3, V3)
        self._assert_matches(covariant_D(omega, psi), omega, psi)

    def test_bracket_term_lands_on_psi_labels_by_index(self, r3, V3):
        other = ValueSpace(labels=("a", "b", "c"))
        omega, psi = self._omega(r3, V3), self._psi(r3, other)
        out = covariant_D(omega, psi)
        assert out.space is other
        self._assert_matches(out, omega, psi)

    def test_unequal_dimensions_raise(self, r3, V3):
        psi = ValuedForm.from_components(r3, 0, COV, ValueSpace(labels=("a", "b")), {((), "a"): x})
        with pytest.raises(DimensionError):
            covariant_D(self._omega(r3, V3), psi)

    def test_curvature_needs_a_lie_structure(self, r3):
        plain = ValueSpace(labels=("a", "b", "c"))
        with pytest.raises(DimensionError):
            curvature(ValuedForm.from_components(r3, 1, COV, plain, {((0,), "a"): y}))


class TestCurvature:
    def test_abelian_part_is_d_omega(self, r3, V3):
        omega = ValuedForm.from_components(r3, 1, COV, V3, {((1,), "e1"): x})
        om = curvature(omega)
        assert set(comps(om)) == {((0, 1), "e1")}

    def test_bracket_contribution(self, r3, V3):
        # omega = x dy e1 + y dx e2: d-part gives dx^dy (e1 - e2),
        # bracket part gives -xy dx^dy e3
        omega = ValuedForm.from_components(r3, 1, COV, V3,
                                           {((1,), "e1"): x, ((0,), "e2"): y})
        om = curvature(omega)
        pt = (0.5, 0.8, 0.0)
        assert comps(om)[((0, 1), "e1")].ev(pt) == pytest.approx(1.0)
        assert comps(om)[((0, 1), "e2")].ev(pt) == pytest.approx(-1.0)
        assert comps(om)[((0, 1), "e3")].ev(pt) == pytest.approx(-0.4)

    def test_bianchi_identity(self, r3, V3):
        omega = ValuedForm.from_components(r3, 1, COV, V3, {
            ((0,), "e1"): sin(y),
            ((1,), "e2"): x * z,
            ((2,), "e3"): exp(0.3 * x) * y,
        })
        om = curvature(omega)
        res = covariant_D(omega, om)
        for pt in [(0.2, -0.4, 0.9), (1.1, 0.3, -0.5)]:
            for v in comps(res).values():
                assert abs(v.ev(pt)) < 1e-10


class TestMetricGeometry:
    def test_sphere_christoffels(self, sphere):
        gam = christoffels_from_metric(sphere.metric)
        th = 1.0
        pt = (th, 0.3)
        assert gam[0][1][1].ev(pt) == pytest.approx(-math.sin(th) * math.cos(th))
        assert gam[1][0][1].ev(pt) == pytest.approx(math.cos(th) / math.sin(th))
        assert gam[0][0][0].ev(pt) == 0.0

    def test_sphere_is_einstein(self, sphere):
        # unit sphere: Ric = g
        R = ricci(sphere.metric)
        g = sphere.metric.entries()
        for pt in [(0.8, 0.1), (1.9, -0.4)]:
            for i in range(2):
                for j in range(2):
                    assert R[i][j].ev(pt) == pytest.approx(g[i][j].ev(pt))

    def test_flat_riemann_vanishes(self):
        g = MetricSpec.diagonal([1, 1, 1])
        R = riemann(g)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        assert R[a][b][c][d].ev((0.4, 0.1, -0.2)) == 0.0

    @pytest.mark.parametrize("make_chart, points", [
        (sphere_chart, [(0.8, 0.1), (1.9, -0.4), (2.6, 1.3)]),
        (schwarzschild_chart, [(3.5, 0.7, 0.2, 0.0), (7.0, 2.1, -1.0, 4.0)]),
        (lambda: pulled_back_euclidean(conformal=True),
         [(0.9, -0.3, 0.4), (-0.7, 0.5, 1.1)]),
    ], ids=["sphere", "schwarzschild", "conformal"])
    def test_riemann_contracts_to_ricci(self, make_chart, points):
        # riemann and ricci are built separately; sum_mu R^mu_s_mu_n = Ric_sn
        metric = make_chart().metric
        R, ric = riemann(metric), ricci(metric)
        n = metric.dim
        for pt in points:
            assert max(abs(R[a][b][c][d].ev(pt)) for a in range(n) for b in range(n)
                       for c in range(n) for d in range(n)) > 0.01
            for s in range(n):
                for nu in range(n):
                    contracted = sum(R[mu][s][mu][nu].ev(pt) for mu in range(n))
                    assert abs(contracted - ric[s][nu].ev(pt)) <= 1e-12

    def test_metricity(self, sphere):
        res = metricity_residual(sphere.metric)
        for v in res:
            assert abs(v.ev((1.2, 0.5))) < 1e-12


def pulled_back_euclidean(conformal: bool = False) -> Chart:
    """g = J^T J for x_k = u_k + 0.2 sin(u_{k+1}) (indices mod 3): flat, with
    no zero entry, so Ricci goes through the cofactor inverse.  ``conformal``
    multiplies g by (1 + 0.1 u0^2), which makes it curved."""
    u = [coord(k) for k in range(3)]
    xs = [u[k] + 0.2 * sin(u[(k + 1) % 3]) for k in range(3)]
    jac = [[xk.diff(j) for j in range(3)] for xk in xs]
    scale = 1.0 + 0.1 * u[0] * u[0]
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            gij = jac[0][i] * jac[0][j] + jac[1][i] * jac[1][j] + jac[2][i] * jac[2][j]
            row.append(gij * scale if conformal else gij)
        rows.append(row)
    return Chart(("u0", "u1", "u2"), MetricSpec.matrix(rows))


class TestNonDiagonalMetric:
    SAMPLE = SampleSet.random_box(((-1.0, 1.0),) * 3, 40, 5)

    def test_pulled_back_euclidean_is_ricci_flat(self):
        chart = pulled_back_euclidean()
        assert not any(is_zero(v) for row in chart.metric.entries() for v in row)
        rep = verify(build("ricci_flat", chart), self.SAMPLE, tol=1e-10)
        assert rep.passed and rep.evaluated == 40

    def test_levi_civita_is_metric(self):
        res = metricity_residual(pulled_back_euclidean().metric)
        vals = Program(res).at(self.SAMPLE.array())
        assert np.max(np.abs(vals)) <= 1e-9

    def test_conformal_control_is_curved(self):
        rep = verify(build("ricci_flat", pulled_back_euclidean(conformal=True)),
                     self.SAMPLE, tol=1e-10)
        assert not rep.passed and rep.evaluated == 40


class TestVectorOperators:
    def test_lie_bracket(self):
        X = [x, ZERO]
        Y = [ZERO, x]
        out = lie_bracket(X, Y)
        # [x dx, x dy] = x dy
        assert out[0].ev((2.0, 0.0)) == 0.0
        assert out[1].ev((2.0, 0.0)) == 2.0

    def test_lie_bracket_antisymmetric(self):
        X = [sin(y), x]
        Y = [x * y, const(1)]
        ab = lie_bracket(X, Y)
        ba = lie_bracket(Y, X)
        pt = (0.7, -0.3)
        for a, b in zip(ab, ba):
            assert a.ev(pt) == pytest.approx(-b.ev(pt))

    def test_lie_bracket_dimension_check(self):
        with pytest.raises(DimensionError):
            lie_bracket([x], [x, y])

    def test_nabla_flat_directional_derivative(self):
        u = [x * y, sin(x)]
        X = [const(1), ZERO]
        out = nabla_X(christoffels_from_metric(MetricSpec.diagonal([1, 1])), X, u)
        pt = (0.5, 2.0)
        assert out[0].ev(pt) == pytest.approx(2.0)
        assert out[1].ev(pt) == pytest.approx(math.cos(0.5))

    def test_nabla_with_christoffels(self, sphere):
        gam = christoffels_from_metric(sphere.metric)
        u = [ZERO, const(1)]  # d/dphi
        out = nabla_X(gam, u, u)
        th = 1.1
        # nabla_phi d/dphi = -sin th cos th d/dtheta + 0
        assert out[0].ev((th, 0.0)) == pytest.approx(-math.sin(th) * math.cos(th))
        assert abs(out[1].ev((th, 0.0))) < 1e-12

    def test_check_idempotent(self):
        pi = [[1.0, 0.0], [0.0, 0.0]]
        check_idempotent(pi, [(0.1, 0.2), (1.0, -1.0)])
        with pytest.raises(NonIdempotentProjection):
            check_idempotent([[1.0, 1.0], [1.0, 1.0]], [(0.0, 0.0)])

    def test_projected_lie(self):
        pi = [[1.0, 0.0], [0.0, 0.0]]
        out = projected_lie(pi, [ZERO, x], [const(1), ZERO])
        # [X, Y] = (0, -1); projection keeps only the first slot
        assert out[0].ev((0.3, 0.0)) == 0.0
        assert out[1].ev((0.3, 0.0)) == 0.0


class TestSchrodinger:
    def test_plane_wave_dispersion(self):
        # psi = exp(i(kx - w t)) with w = k^2/2 solves the free equation
        k, w = 1.3, 1.3 * 1.3 / 2.0
        xx, t = coord(0), coord(1)
        psi = exp(1j * (k * xx - w * t))
        res = schrodinger_residual(psi, dim=2)
        assert abs(res.ev((0.4, 0.9))) < 1e-12

    def test_wrong_frequency_fails(self):
        xx, t = coord(0), coord(1)
        psi = exp(1j * (xx - t))
        res = schrodinger_residual(psi, dim=2)
        assert abs(res.ev((0.0, 0.0))) == pytest.approx(0.5)

    def test_potential_term(self):
        xx, t = coord(0), coord(1)
        psi = exp(-1j * t)
        res = schrodinger_residual(psi, dim=2, potential=const(1.0))
        assert abs(res.ev((0.2, 0.5))) < 1e-12

    def test_invalid_parameters(self):
        psi = exp(-1j * coord(1))
        with pytest.raises(DimensionError):
            schrodinger_residual(psi, dim=2, hbar=0.0)
        with pytest.raises(DimensionError):
            schrodinger_residual(psi, dim=2, mass=-1.0)


class TestDirac:
    def test_default_representation_validates(self):
        # {gamma^mu, gamma^nu} = 2 eta^mu_nu, exactly, for eta = diag(-1, -1, -1, 1)
        eta = np.diag([-1.0, -1.0, -1.0, 1.0])
        for mu in range(4):
            for nu in range(4):
                anti = GAMMA_UPPER[mu] @ GAMMA_UPPER[nu] + GAMMA_UPPER[nu] @ GAMMA_UPPER[mu]
                assert np.array_equal(anti, 2.0 * eta[mu, nu] * np.eye(4))

    def test_parameter_checks(self):
        psi = [exp(-1j * coord(3)), ZERO, ZERO, ZERO]
        with pytest.raises(DimensionError):
            dirac_residual(psi, mass=-1.0)
        with pytest.raises(DimensionError):
            dirac_residual(psi, sign=2)

    def test_rest_solution(self):
        xi = coord(3)
        psi = [exp(-1j * xi), ZERO, ZERO, ZERO]
        res = dirac_residual(psi, mass=1.0, sign=-1)
        for r in res:
            assert abs(r.ev((0.1, 0.2, 0.3, 0.4))) < 1e-14

    def test_mass_mismatch_unit_residual(self):
        xi = coord(3)
        psi = [exp(-1j * xi), ZERO, ZERO, ZERO]
        res = dirac_residual(psi, mass=2.0, sign=-1)
        mags = [abs(r.ev((0.0, 0.0, 0.0, 0.7))) for r in res]
        assert max(mags) == pytest.approx(1.0, abs=1e-12)

    def test_component_count(self):
        with pytest.raises(DimensionError):
            dirac_residual([ZERO, ZERO])

    def test_gauge_transformed_rest_solution(self):
        # psi' = exp(i e chi) psi solves the coupled equation for A = d chi
        chi = x * sin(z)
        charge = 0.7
        chart = minkowski()
        A = form(chart, 1, {(0,): chi.diff(0), (2,): chi.diff(2)})
        psi = [exp(1j * charge * chi) * exp(-1j * coord(3)), ZERO, ZERO, ZERO]
        sample = SampleSet.random_box([(-2, 2)] * 4, 200, seed=13)

        def run(**coupling):
            cond = build("dirac", chart, psi=psi, m=1.0, sign=-1, **coupling)
            return verify(cond, sample, tol=1e-12)

        coupled = run(A=A, e=charge)
        uncoupled = run()
        flipped = run(A=A, e=-charge)
        assert coupled.passed and coupled.linf < 1e-15
        assert not uncoupled.passed and uncoupled.linf == pytest.approx(1.3155, abs=1e-4)
        # the residual is linear in the charge mismatch: 2e against e
        assert not flipped.passed and flipped.linf == pytest.approx(2 * uncoupled.linf)


class TestGeodesics:
    def test_flat_straight_line_exact(self):
        n = 2
        gam = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        xs, us = geodesic_integrate(gam, (0.0, 0.0), (1.0, 2.0), 100, 0.01)
        assert xs[-1] == pytest.approx([1.0, 2.0])
        assert us[-1] == pytest.approx([1.0, 2.0])

    def test_sphere_equator(self, sphere):
        gam = christoffels_from_metric(sphere.metric)
        xs, us = geodesic_integrate(gam, (math.pi / 2, 0.0), (0.0, 1.0),
                                    1000, 1e-3)
        assert np.max(np.abs(xs[:, 0] - math.pi / 2)) < 1e-12
        # speed stays 1 on the equator
        assert abs(us[-1][1] - 1.0) < 1e-10

    def test_blow_up_raises(self):
        gam = [[[as_expr(-1.0)]]]
        with pytest.raises(StepError):
            geodesic_integrate(gam, (0.0,), (1.0,), 5000, 0.1)


def test_inclined_great_circle_converges_at_fourth_order(sphere):
    # off the equator every Christoffel term acts on the path, so a wrong
    # RK4 stage shows as first- or second-order convergence
    gam = christoffels_from_metric(sphere.metric)

    def max_error(ds, length=2.0):
        steps = round(length / ds)
        xs, _ = geodesic_integrate(gam, (math.pi / 2, 0.0), (0.6, 0.8), steps, ds)
        th, ph = xs[:, 0], xs[:, 1]
        on_sphere = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], 1)
        s = ds * np.arange(steps + 1)[:, None]
        # the exact circle through (1, 0, 0) with unit tangent (0, 0.8, -0.6)
        exact = np.cos(s) * [1.0, 0.0, 0.0] + np.sin(s) * [0.0, 0.8, -0.6]
        return np.max(np.linalg.norm(on_sphere - exact, axis=1))

    assert max_error(0.02) / max_error(0.01) >= 12
