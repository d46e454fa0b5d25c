import math

import pytest

from grs.engine import DEFAULT_TOL, GrCondition, bind, verify
from grs.errors import DomainError, EmptySampleSet, UnknownOperator, VarianceError
from grs.exterior import COV, Chart, MetricSpec, form
from grs.scalar import SampleSet, ZERO, const, coord, sin
from grs.valued import PhiMap, SCALAR_SPACE, ValuedForm, scalar_valued
from grs.diffops import exterior_d


x, y = coord(0), coord(1)


@pytest.fixture
def r2():
    return Chart(("x", "y"), MetricSpec.diagonal([1, 1]))


def _scalar_section(chart, e):
    return scalar_valued(form(chart, 0, {(): e}))


class TestBind:
    def test_unknown_phi_form(self, r2):
        s = _scalar_section(r2, const(1))
        with pytest.raises(UnknownOperator):
            bind("c", r2, "nope", PhiMap.function_product(), exterior_d, s, s)

    def test_unknown_sigma_rule(self, r2):
        s = _scalar_section(r2, const(1))
        with pytest.raises(UnknownOperator):
            bind("c", r2, "wedge", PhiMap.function_product(), exterior_d,
                 s, s, sigma_rule="sideways")

    def test_rhs_label_mismatch(self, r2):
        s = _scalar_section(r2, x)
        one = _scalar_section(r2, const(1))
        from grs.valued import ValueSpace
        other = ValueSpace(labels=("a", "b"))
        rhs = ValuedForm(r2, 1, COV, other, {((0,), "a"): 1.0})
        with pytest.raises(VarianceError):
            bind("c", r2, "wedge", PhiMap.function_product(), exterior_d,
                 one, s, rhs=rhs)

    def test_first_integral_shape(self, r2):
        # 1 ^ d f: residual is just df, labeled by the scalar basis
        f = _scalar_section(r2, sin(x))
        one = _scalar_section(r2, const(1))
        cond = bind("df", r2, "wedge", PhiMap.function_product(),
                    exterior_d, one, f)
        assert cond.labels() == ["1"]
        vals = cond.residual((0.0, 0.0))
        assert vals["1"] == [pytest.approx(1.0)]  # cos(0)

    def test_constant_section_passes(self, r2):
        f = _scalar_section(r2, const(3.0))
        one = _scalar_section(r2, const(1))
        cond = bind("const", r2, "wedge", PhiMap.function_product(),
                    exterior_d, one, f)
        rep = verify(cond, SampleSet.random_box([(-1, 1), (-1, 1)], 50, seed=5))
        assert rep.passed
        assert rep.linf == 0.0


class TestVerify:
    def _abs_x_condition(self, r2):
        cond = GrCondition(name="absx", chart=r2, entry="demo")
        cond.add_exprs([("r", x)])
        return cond

    def test_norms_and_worst_point(self, r2):
        cond = self._abs_x_condition(r2)
        sample = SampleSet.grid([(-2, 2), (0, 1)], 5)
        rep = verify(cond, sample, tol=1e-9)
        assert not rep.passed
        assert rep.norms["r"]["linf"] == pytest.approx(2.0)
        assert abs(rep.worst_point[0]) == pytest.approx(2.0)
        assert rep.evaluated == 25

    def test_singular_points_excluded(self, r2):
        cond = GrCondition(name="inv", chart=r2)
        cond.add_exprs([("r", const(1) / x - const(1) / x)])
        sample = SampleSet.grid([(-1, 1), (-1, 1)], 3)  # x = 0 line singular
        rep = verify(cond, sample)
        assert rep.excluded == 3
        assert rep.evaluated == 6
        assert rep.passed

    def test_empty_after_exclusions(self, r2):
        cond = GrCondition(name="inv", chart=r2)
        cond.add_exprs([("r", const(1) / x)])
        sample = SampleSet.grid([(0, 0), (0, 1)], 2)  # every point has x = 0
        with pytest.raises(EmptySampleSet):
            verify(cond, sample)

    def test_nan_residual_fails(self, r2):
        # abs(nan) > linf is False, so a plain running max would pass this
        cond = GrCondition(name="nan", chart=r2)
        cond.add_exprs([("r", x * float("nan"))])
        rep = verify(cond, SampleSet.random_box([(-1, 1), (-1, 1)], 20, seed=1))
        assert rep.passed is False
        assert math.isnan(rep.norms["r"]["linf"]) and math.isnan(rep.linf)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_non_finite_tolerance_is_an_error(self, r2, tol):
        # an infinite residual would pass an infinite tolerance; NaN passes nothing
        cond = GrCondition(name="inf", chart=r2)
        cond.add_exprs([("r", x * 1e300 * 1e300)])
        with pytest.raises(DomainError, match="tolerance must be finite"):
            verify(cond, SampleSet.random_box([(-1, 1), (-1, 1)], 5, seed=1), tol)

    def test_exclusion_predicate_counts(self, r2):
        cond = self._abs_x_condition(r2)
        sample = SampleSet.grid([(-1, 1), (-1, 1)], 3).with_exclusion(
            lambda p: p[0] < 0)
        rep = verify(cond, sample, tol=2.0)
        assert rep.excluded == 3
        assert rep.passed

    def test_report_dict_schema(self, r2):
        cond = self._abs_x_condition(r2)
        rep = verify(cond, SampleSet.random_box([(-1, 1), (-1, 1)], 10, seed=2),
                     tol=0.5)
        d = rep.to_dict()
        assert set(d) == {"name", "entry", "samples", "norms", "tol", "pass",
                          "worst_point"}
        assert d["samples"]["requested"] == 10
        assert d["samples"]["seed"] == 2
        assert set(d["norms"]["r"]) == {"linf", "rms"}

    def test_default_tolerance(self):
        assert DEFAULT_TOL == 1e-9


class TestCondition:
    def test_add_valued_prefix(self, r2):
        vf = scalar_valued(form(r2, 1, {(0,): x}))
        cond = GrCondition(name="p", chart=r2)
        cond.add_valued(vf, prefix="flux")
        assert cond.labels() == ["flux"]

    def test_multiple_labels_ordered(self, r2):
        cond = GrCondition(name="m", chart=r2)
        cond.add_exprs([("b", x), ("a", y)])
        assert cond.labels() == ["b", "a"]
        vals = cond.residual((1.0, 2.0))
        assert vals == {"b": [1.0], "a": [2.0]}


def test_pairing_is_bind_without_the_condition(r2):
    from grs.engine import pairing
    sigma = scalar_valued(form(r2, 0, {(): x * y}))
    sigma_tilde = _scalar_section(r2, sin(x))
    paired = pairing("scalar_multiply", PhiMap.function_product(), sigma,
                     exterior_d(sigma_tilde))
    cond = bind("c", r2, "scalar_multiply", PhiMap.function_product(), exterior_d,
                sigma, sigma_tilde)
    assert [repr(e) for _idx, e in sorted(paired.label_slice("1").components.items())] \
        == [repr(e) for e in cond.roots()]
    with pytest.raises(UnknownOperator):
        pairing("nope", PhiMap.function_product(), sigma, sigma_tilde)


class TestShapeErrorsWithEmptySlices:
    """A degree or variance mismatch raises at bind time even when a slice is empty."""

    def test_wedge_with_empty_d_alpha(self):
        from grs.engine import pairing
        from grs.errors import DegreeError
        r3 = Chart(("x", "y", "z"), MetricSpec.diagonal([1, 1, 1]))
        sigma = scalar_valued(form(r3, 2, {(0, 1): x}))
        d_alpha = exterior_d(scalar_valued(form(r3, 1, {(2,): const(1.0)})))
        assert not d_alpha.components
        with pytest.raises(DegreeError):
            pairing("wedge", PhiMap.function_product(), sigma, d_alpha)

    def test_scalar_multiply_with_empty_one_form(self, r2):
        from grs.errors import DegreeError
        sigma = scalar_valued(form(r2, 1, {}))
        with pytest.raises(DegreeError):
            bind("c", r2, "scalar_multiply", PhiMap.function_product(), exterior_d,
                 sigma, _scalar_section(r2, x * y))

    def test_empty_pairing_keeps_the_result_degree(self, r2):
        from grs.engine import pairing
        sigma = scalar_valued(form(r2, 0, {}))
        paired = pairing("scalar_multiply", PhiMap.function_product(), sigma,
                         exterior_d(_scalar_section(r2, x)))
        assert paired.degree == 1 and not paired.components
