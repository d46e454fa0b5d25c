import pytest

from grs.errors import DegreeError, DimensionError, NotALieAlgebra, VarianceError
from grs.exterior import COV, Chart, MetricSpec, form, hodge, multivector, wedge
from grs.scalar import coord
from grs.valued import (
    MAX_ALGEBRA_DIM,
    LieStructure,
    PhiMap,
    ValueSpace,
    ValuedForm,
    abelian,
    lift_pointwise,
    su2,
)


def comps(vf):
    """A valued form's components as (multi-index, label) -> value."""
    return {(idx, lab): v for lab, s in zip(vf.space.labels, vf.slices)
            for idx, v in s.components.items()}


@pytest.fixture
def r3():
    return Chart(("x", "y", "z"), MetricSpec.diagonal([1, 1, 1]))


@pytest.fixture
def V3():
    return ValueSpace(labels=("e1", "e2", "e3"), lie=su2())


class TestLieStructure:
    def test_su2_is_a_lie_algebra(self):
        assert su2().bracket_coeffs(0, 1) == [0.0, 0.0, 1.0]  # constructing checks it

    def test_abelian_is_a_lie_algebra(self):
        assert abelian(4).bracket_coeffs(1, 2) == [0.0] * 4

    def test_antisymmetry_violation_reported(self):
        c = [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(NotALieAlgebra, match=r"antisymmetry at indices \(1, 2, 1\)"):
            LieStructure(2, tuple(tuple(tuple(r) for r in m) for m in c))

    def test_jacobi_violation_reported(self):
        # [e0,e1] = e1, [e0,e2] = e2, [e1,e2] = e0 fails Jacobi
        with pytest.raises(NotALieAlgebra, match="the Jacobi identity at indices"):
            LieStructure.from_triples(3, [(0, 1, 1, 1.0), (0, 2, 2, 1.0), (1, 2, 0, 1.0)])

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_constants_rejected(self, value):
        with pytest.raises(NotALieAlgebra, match="must be finite"):
            LieStructure(1, (((value,),),))

    def test_from_triples_antisymmetric_completion(self):
        L = LieStructure.from_triples(3, [(0, 1, 2, 1.0)])
        assert L.bracket_coeffs(0, 1) == [0.0, 0.0, 1.0]
        assert L.bracket_coeffs(1, 0) == [0.0, 0.0, -1.0]


_R2 = Chart(("u", "v"), MetricSpec.diagonal([1, 1]))


@pytest.mark.parametrize("make, error, message", [
    (lambda r3, V3: abelian(0), DimensionError, "algebra dimension must be >= 1"),
    (lambda r3, V3: LieStructure.from_triples(0, []), DimensionError,
     "algebra dimension must be >= 1"),
    *[(make, DimensionError,
       f"algebra dimension must be at most {MAX_ALGEBRA_DIM}, got {MAX_ALGEBRA_DIM + 1}")
      for make in (lambda r3, V3: abelian(MAX_ALGEBRA_DIM + 1),
                   lambda r3, V3: LieStructure.from_triples(MAX_ALGEBRA_DIM + 1, []),
                   lambda r3, V3: LieStructure(MAX_ALGEBRA_DIM + 1, ()))],
    (lambda r3, V3: lift_pointwise(
        wedge, PhiMap.lie_bracket(V3),
        ValuedForm.from_components(r3, 1, COV, V3, {}),
        ValuedForm.from_components(_R2, 1, COV, V3, {})), DimensionError,
     "valued forms live on different charts"),
], ids=["abelian_0", "from_triples_0", "abelian_too_big", "from_triples_too_big",
        "structure_too_big", "different_charts"])
def test_library_error(r3, V3, make, error, message):
    with pytest.raises(error) as err:
        make(r3, V3)
    assert str(err.value) == message


class TestValueSpace:
    def test_duplicate_labels(self):
        with pytest.raises(DimensionError):
            ValueSpace(labels=("a", "a"))

    def test_lie_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ValueSpace(labels=("a", "b"), lie=su2())

    def test_no_labels(self):
        with pytest.raises(DimensionError, match="at least one label"):
            ValueSpace(labels=())

    def test_spaces_built_apart_are_equal(self):
        a, b = ValueSpace(("e1", "e2", "e3"), su2()), ValueSpace(("e1", "e2", "e3"), su2())
        assert a is not b and a.lie is not b.lie
        assert a == b and len({a, b}) == 1

    def test_forms_on_equal_spaces_add(self, r3):
        a = ValuedForm.from_components(r3, 1, COV, ValueSpace(("e1", "e2", "e3"), su2()),
                                       {((0,), "e1"): 1.0})
        b = ValuedForm.from_components(r3, 1, COV, ValueSpace(("e1", "e2", "e3"), su2()),
                                       {((0,), "e1"): 2.0, ((1,), "e2"): 1.0})
        total = {k: v.ev((0, 0, 0)) for k, v in comps(a + b).items()}
        assert total == {((0,), "e1"): 3.0, ((1,), "e2"): 1.0}

    def test_another_lie_structure_is_another_space(self, r3):
        a = ValueSpace(("e1", "e2", "e3"), su2())
        b = ValueSpace(("e1", "e2", "e3"), abelian(3))
        assert a != b
        with pytest.raises(DimensionError) as err:
            (ValuedForm.from_components(r3, 1, COV, a, {((0,), "e1"): 1.0})
             + ValuedForm.from_components(r3, 1, COV, b, {((0,), "e1"): 1.0}))
        assert str(err.value) == "valued forms live in different spaces"


class TestPhiMap:
    def test_lie_bracket_matches_cross_product(self, V3):
        phi = PhiMap.lie_bracket(V3)
        assert phi.table[(0, 1)] == {2: 1.0}
        assert phi.table[(2, 0)] == {1: 1.0}

    def test_lie_bracket_needs_structure(self):
        with pytest.raises(DimensionError):
            PhiMap.lie_bracket(ValueSpace(labels=("a", "b")))

    def test_symmetrized_product(self, V3):
        phi = PhiMap.symmetrized_product(V3)
        # e1 v e2 lands on the same target label in either order
        a = phi.table[(0, 1)]
        assert a == phi.table[(1, 0)]
        assert len(a) == 1
        assert phi.target.dim == 6

    def test_abstract_bracket_antisymmetry(self, V3):
        phi = PhiMap.abstract_bracket(V3)
        a = phi.table[(0, 2)]
        assert a == {k: -c for k, c in phi.table[(2, 0)].items()}
        assert phi.table.get((1, 1), {}) == {}

    def test_abstract_bracket_of_one_label_raises(self):
        # its target would have no labels
        with pytest.raises(DimensionError, match="dimension >= 2"):
            PhiMap.abstract_bracket(ValueSpace(labels=("a",)))

    def test_diagonal(self, V3):
        phi = PhiMap.diagonal(V3)
        assert phi.table[(0, 0)] == {0: 1.0}
        assert phi.table.get((0, 1), {}) == {}

    def test_first_slot_space_mismatch(self, r3, V3):
        s = ValuedForm(ValueSpace(labels=("1",)), [form(r3, 1, {(0,): 1.0})])
        B = ValuedForm.from_components(r3, 1, COV, V3, {((0,), "e2"): 1.0})
        with pytest.raises(DimensionError):
            lift_pointwise(wedge, PhiMap.lie_bracket(V3), s, B)


class TestValuedForm:
    def test_bad_multi_index(self, r3, V3):
        with pytest.raises(DegreeError):
            ValuedForm.from_components(r3, 2, COV, V3, {((1, 0), "e1"): 1.0})

    def test_unknown_label(self, r3, V3):
        with pytest.raises(DimensionError):
            ValuedForm.from_components(r3, 1, COV, V3, {((0,), "nope"): 1.0})

    def test_zero_components_dropped(self, r3, V3):
        vf = ValuedForm.from_components(r3, 1, COV, V3, {((0,), "e1"): 0.0, ((1,), "e2"): 2.0})
        assert list(comps(vf)) == [((1,), "e2")]

    def test_slice_round_trip(self, r3, V3):
        x = coord(0)
        vf = ValuedForm.from_components(r3, 1, COV, V3, {((0,), "e1"): x, ((2,), "e3"): 2.0})
        back = ValuedForm(V3, vf.slices)
        assert comps(back).keys() == comps(vf).keys()

    def test_constructor_checks_count(self, r3, V3):
        a = form(r3, 1, {(0,): 1.0})
        with pytest.raises(DimensionError):
            ValuedForm(V3, [a, a])

    def test_mixed_chart_slices_raise(self, r3):
        other = Chart(("x", "y", "z"), MetricSpec.diagonal([-1, 1, 1]))
        with pytest.raises(DimensionError, match="share a chart"):
            ValuedForm(ValueSpace(labels=("a", "b")),
                       [form(r3, 1, {(0,): 1.0}), form(other, 1, {(0,): 1.0})])

    def test_mixed_variance_slices_raise(self, r3):
        with pytest.raises(VarianceError, match="share a variance"):
            ValuedForm(ValueSpace(labels=("a", "b")),
                       [form(r3, 1, {(0,): 1.0}), multivector(r3, 1, {(0,): 1.0})])

    def test_mixed_degree_slices_raise(self, r3):
        with pytest.raises(DegreeError, match="share a degree"):
            ValuedForm(ValueSpace(labels=("a", "b")),
                       [form(r3, 1, {(0,): 1.0}), form(r3, 2, {(0, 1): 1.0})])

    def test_properties_come_from_the_slices(self, r3):
        vf = ValuedForm(ValueSpace(labels=("a", "b")),
                        [multivector(r3, 2, {}), multivector(r3, 2, {(0, 2): 1.0})])
        assert (vf.chart, vf.degree, vf.variance) == (r3, 2, "contravariant")

    def test_map_acts_per_slice(self, r3):
        x = coord(0)
        vf = ValuedForm(ValueSpace(labels=("a", "b")),
                        [form(r3, 1, {(0,): x}), form(r3, 1, {})])
        star = vf.map(hodge)
        assert star.degree == 2
        assert comps(star) == {((1, 2), "a"): hodge(vf.slices[0]).components[(1, 2)]}

    def test_add_degree_mismatch(self, r3, V3):
        a = ValuedForm.from_components(r3, 1, COV, V3, {((0,), "e1"): 1.0})
        b = ValuedForm.from_components(r3, 2, COV, V3, {((0, 1), "e1"): 1.0})
        with pytest.raises(DegreeError):
            a + b

    def test_add_space_mismatch(self, r3, V3):
        # a source term on other labels than the paired residual
        a = ValuedForm.from_components(r3, 1, COV, V3, {((0,), "e1"): 1.0})
        b = ValuedForm.from_components(r3, 1, COV, ValueSpace(labels=("a", "b")),
                                       {((0,), "a"): 1.0})
        with pytest.raises(DimensionError, match="different spaces"):
            a + b


class TestLiftPointwise:
    def test_wedge_with_lie_bracket(self, r3, V3):
        A = ValuedForm.from_components(r3, 1, COV, V3, {((0,), "e1"): 1.0})
        B = ValuedForm.from_components(r3, 1, COV, V3, {((1,), "e2"): 1.0})
        out = lift_pointwise(wedge, PhiMap.lie_bracket(V3), A, B)
        assert set(comps(out)) == {((0, 1), "e3")}
        assert comps(out)[((0, 1), "e3")].ev((0, 0, 0)) == 1.0

    def test_bilinearity_in_first_slot(self, r3, V3):
        x = coord(0)
        A = ValuedForm.from_components(r3, 1, COV, V3, {((0,), "e1"): x})
        B = ValuedForm.from_components(r3, 1, COV, V3, {((2,), "e2"): 1.0})
        phi = PhiMap.lie_bracket(V3)
        doubled = lift_pointwise(wedge, phi, A.scale(2.0), B)
        single = lift_pointwise(wedge, phi, A, B)
        pt = (0.7, 0.0, 0.0)
        for k, v in comps(doubled).items():
            assert v.ev(pt) == pytest.approx(2.0 * comps(single)[k].ev(pt))

    def test_space_mismatch(self, r3, V3):
        A = ValuedForm.from_components(r3, 1, COV, V3, {((0,), "e1"): 1.0})
        s = ValuedForm(ValueSpace(labels=("1",)), [form(r3, 1, {(0,): 1.0})])
        with pytest.raises(DimensionError):
            lift_pointwise(wedge, PhiMap.lie_bracket(V3), A, s)
