import math
import tracemalloc

import pytest

from grs import engine
from grs.catalog import build, schwarzschild_chart
from grs.engine import DEFAULT_TOL, GrCondition, verify
from grs.errors import DegreeError, DimensionError, DomainError, EmptySampleSet
from grs.exterior import COV, Chart, MetricSpec, form, wedge
from grs.scalar import Program, SampleSet, const, coord, sin, sqrt
from grs.valued import PhiMap, ValueSpace, ValuedForm, lift_pointwise
from grs.diffops import exterior_d


x, y = coord(0), coord(1)
ONE = ValueSpace(labels=("1",))  # a one-dimensional value space


@pytest.fixture
def r2():
    return Chart(("x", "y"), MetricSpec.diagonal([1, 1]))


def _one_valued(t):
    return ValuedForm(ONE, [t])


def _scalar_section(chart, e):
    return _one_valued(form(chart, 0, {(): e}))


def _pair(phi_form, sigma, d_sigma_tilde):
    """Phi(sigma, D sigma~) (x) phi with phi(1, 1) = 1 as phi."""
    return lift_pointwise(phi_form, PhiMap.diagonal(ONE), sigma, d_sigma_tilde)


def _condition(name, *pieces):
    cond = GrCondition(name=name)
    for label, piece in pieces:
        cond.add(label, piece)
    return cond


def _values_at(cond, pt):
    """Labeled residual component values at one sample point."""
    values = iter(Program(cond.roots()).at([pt])[:, 0].tolist())
    return {label: [next(values) for _ in comps] for label, comps in cond.residuals.items()}


class TestBind:
    def test_first_integral_shape(self, r2):
        # 1 ^ d f: residual is just df, labeled by the scalar basis
        f = _scalar_section(r2, sin(x))
        one = _scalar_section(r2, const(1))
        cond = _condition("df", ("", _pair(wedge, one, exterior_d(f))))
        assert cond.labels() == ["1"]
        vals = _values_at(cond, (0.0, 0.0))
        assert vals["1"] == [pytest.approx(1.0)]  # cos(0)

    def test_constant_section_passes(self, r2):
        f = _scalar_section(r2, const(3.0))
        one = _scalar_section(r2, const(1))
        cond = _condition("const", ("", _pair(wedge, one, exterior_d(f))))
        rep = verify(cond, SampleSet.random_box([(-1, 1), (-1, 1)], 50, seed=5))
        assert rep.passed
        assert rep.linf == 0.0


class TestVerify:
    def _abs_x_condition(self, r2):
        cond = GrCondition(name="absx", entry="demo")
        cond.add("r", x)
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
        cond = _condition("inv", ("r", const(1) / x - const(1) / x))
        sample = SampleSet.grid([(-1, 1), (-1, 1)], 3)  # x = 0 line singular
        rep = verify(cond, sample)
        assert rep.excluded == 3
        assert rep.evaluated == 6
        assert rep.passed

    def test_empty_after_exclusions(self, r2):
        cond = _condition("inv", ("r", const(1) / x))
        sample = SampleSet.grid([(0, 0), (0, 1)], 2)  # every point has x = 0
        with pytest.raises(EmptySampleSet):
            verify(cond, sample)

    def test_nan_residual_fails(self, r2):
        # abs(nan) > linf is False, so a plain running max would pass this
        cond = _condition("nan", ("r", x * float("nan")))
        rep = verify(cond, SampleSet.random_box([(-1, 1), (-1, 1)], 20, seed=1))
        assert rep.passed is False
        assert math.isnan(rep.norms["r"]["linf"]) and math.isnan(rep.linf)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_non_finite_tolerance_is_an_error(self, r2, tol):
        # an infinite residual would pass an infinite tolerance; NaN passes nothing
        cond = _condition("inf", ("r", x * 1e300 * 1e300))
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

    def test_grid_report_has_no_seed(self, r2):
        rep = verify(self._abs_x_condition(r2), SampleSet.grid([(-1, 1), (-1, 1)], 3), tol=2.0)
        assert rep.to_dict()["samples"]["seed"] is None

    def test_default_tolerance(self):
        assert DEFAULT_TOL == 1e-9

    def test_condition_without_components_passes(self):
        rep = verify(GrCondition(name="empty"), SampleSet.random_box([(-1, 1)], 7, seed=3))
        assert rep.passed and rep.evaluated == rep.requested == 7

    def test_a_coordinate_the_points_lack_is_a_dimension_error(self):
        # a GrsError naming the axis, not numpy's IndexError
        cond = _condition("axis", ("r", coord(3) * coord(0)))
        with pytest.raises(DimensionError, match=r"axis 3 .* have 2 coordinate"):
            verify(cond, SampleSet.random_box([(0, 1), (0, 1)], 5, 1))
        with pytest.raises(DimensionError, match=r"axis 2 .* have 1 coordinate"):
            coord(2).ev([1.0])
        # a negative axis would read a column from the end, while diff(1)
        # of coord(-1) is 0
        with pytest.raises(DimensionError, match=r"axis -1 .* have 2 coordinate"):
            coord(-1).ev([1.0, 2.0])


class TestBlockSize:
    """A report does not depend on how many rows a block holds."""

    ROWS = (None, 333, 7)  # None: the default budget

    def _each_block_size(self, monkeypatch, cond, run):
        """``run()`` under a budget giving each of ``ROWS`` rows per block."""
        width = len(cond.roots())
        per_row = 16 * (Program(cond.roots()).peak + width)
        out = []
        for rows in self.ROWS:
            if rows is not None:
                monkeypatch.setattr(engine, "BLOCK_BYTES", per_row * rows)
            out.append(run())
        monkeypatch.undo()
        return out

    def test_schwarzschild_report(self, monkeypatch):
        cond = build("ricci_flat", schwarzschild_chart(1.0))
        sample = SampleSet.random_box([(3, 10), (0.3, 2.8), (0, 6.2), (-1, 1)], 5000, seed=13)
        reports = self._each_block_size(
            monkeypatch, cond, lambda: verify(cond, sample, tol=1e-8).to_dict())
        assert reports[0] == reports[1] == reports[2]

    def test_singular_and_excluded_points(self, monkeypatch):
        cond = _condition("blocks", ("a", sin(3 * x) * y), ("b", const(1) / x + y))
        # 25 points with x = 0 are singular; the 41 x 5 with y > 0.6 are
        # excluded, 5 of them singular too
        sample = SampleSet.grid([(-2, 2), (-1, 1)], (41, 25)).with_exclusion(
            lambda p: p[1] > 0.6)

        def run():
            rep = verify(cond, sample)
            return rep.excluded, rep.evaluated, rep.worst_point, rep.to_dict()

        first, *rest = self._each_block_size(monkeypatch, cond, run)
        assert first[:2] == (25 + 41 * 5 - 5, 41 * 25 - 225)
        assert all(r == first for r in rest)

    def test_domain_error_names_the_first_row(self, monkeypatch):
        # both roots go negative only in the last tenth of the points; the
        # second one first, though its op comes later
        cond = _condition("late", ("a", sqrt(0.95 - x)), ("b", sqrt(0.9 - x)))
        sample = SampleSet.grid([(-1, 1)], 1000)

        def run():
            with pytest.raises(DomainError) as err:
                verify(cond, sample)
            return str(err.value)

        first = next(v for v in (0.9 - u for (u,) in sample.array().tolist()) if v < 0)
        messages = self._each_block_size(monkeypatch, cond, run)
        assert messages == [f"negative base {first} under half-integer power 1/2"] * 3

    def test_blocks_the_predicate_empties_are_not_run(self, monkeypatch):
        cond = _condition("gaps", ("a", sin(3 * x) * y))
        # the last axis varies fastest, so each 10-row block is one x, and
        # the first 20 of the 40 x values are negative
        sample = SampleSet.grid([(-1, 1), (0, 1)], (40, 10)).with_exclusion(
            lambda p: p[0] < 0)
        want = verify(cond, sample).to_dict()
        runs = []
        run = Program.run
        monkeypatch.setattr(Program, "run", lambda self, pts: runs.append(len(pts)) or run(self, pts))
        monkeypatch.setattr(engine, "BLOCK_BYTES", 16 * (Program(cond.roots()).peak + 1) * 10)
        assert verify(cond, sample).to_dict() == want
        assert runs == [10] * 20
        assert (want["samples"]["requested"], want["samples"]["excluded"]) == (400, 200)


class TestMemory:
    def test_points_are_drawn_block_by_block(self, monkeypatch):
        # the 200,000 4-D points alone take 6.1 MiB as one array
        cond = _condition("m", ("r", sin(x) * y - coord(2) * coord(3)))
        sample = SampleSet.random_box([(-1, 1)] * 4, 200_000, seed=1)
        monkeypatch.setattr(engine, "BLOCK_BYTES", 64 << 10)
        tracemalloc.start()
        try:
            rep = verify(cond, sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.evaluated == 200_000
        assert peak < 2 << 20


class TestCondition:
    def test_add_valued_prefix(self, r2):
        cond = _condition("p", ("flux", form(r2, 1, {(0,): x})))
        assert cond.labels() == ["flux"]

    def test_valued_slices_go_under_the_label(self, r2):
        space = ValueSpace(labels=("e1", "e2"))
        vf = ValuedForm.from_components(r2, 1, COV, space, {((1,), "e1"): x, ((0,), "e2"): y})
        assert _condition("own", ("", vf)).labels() == ["e1", "e2"]
        cond = _condition("prefixed", ("d.", vf))
        assert cond.labels() == ["d.e1", "d.e2"]
        assert [idx for comps in cond.residuals.values() for idx, _e in comps] \
            == [(1,), (0,)]

    def test_multiple_labels_ordered(self, r2):
        cond = _condition("m", ("b", x), ("a", y))
        assert cond.labels() == ["b", "a"]
        vals = _values_at(cond, (1.0, 2.0))
        assert vals == {"b": [1.0], "a": [2.0]}

    def test_same_label_appends(self, r2):
        cond = _condition("m", ("a", x), ("b", 2.0), ("a", y))
        assert _values_at(cond, (1.0, 3.0)) == {"a": [1.0, 3.0], "b": [2.0]}


def test_add_keeps_the_paired_components(r2):
    sigma = _scalar_section(r2, x * y)
    paired = _pair(wedge, sigma, exterior_d(_scalar_section(r2, sin(x))))
    cond = _condition("c", ("", paired))
    assert [repr(e) for _idx, e in sorted(paired.slices[0].components.items())] \
        == [repr(e) for e in cond.roots()]


class TestShapeErrorsWithEmptySlices:
    """A degree or variance mismatch raises at bind time even when a slice is empty."""

    def test_wedge_with_empty_d_alpha(self):
        r3 = Chart(("x", "y", "z"), MetricSpec.diagonal([1, 1, 1]))
        sigma = _one_valued(form(r3, 2, {(0, 1): x}))
        d_alpha = exterior_d(_one_valued(form(r3, 1, {(2,): const(1.0)})))
        assert not any(s.components for s in d_alpha.slices)
        with pytest.raises(DegreeError):
            _pair(wedge, sigma, d_alpha)

    def test_scalar_multiply_with_empty_one_form(self, r2):
        # 1 + 2 exceeds the chart dimension 2
        sigma = _one_valued(form(r2, 1, {}))
        with pytest.raises(DegreeError):
            _pair(wedge, sigma, exterior_d(_one_valued(form(r2, 1, {(0,): x * y}))))

    def test_empty_pairing_keeps_the_result_degree(self, r2):
        sigma = _one_valued(form(r2, 0, {}))
        paired = _pair(wedge, sigma, exterior_d(_scalar_section(r2, x)))
        assert paired.degree == 1 and not any(s.components for s in paired.slices)
