import pytest

from grs.errors import DegreeError, DimensionError
from grs.exterior import COV, Chart, MetricSpec, form, wedge
from grs.scalar import coord
from grs.valued import (
    LieStructure,
    PhiMap,
    ValueSpace,
    ValuedForm,
    abelian,
    lift_pointwise,
    su2,
    validate_lie,
)


@pytest.fixture
def r3():
    return Chart(("x", "y", "z"), MetricSpec.diagonal([1, 1, 1]))


@pytest.fixture
def V3():
    return ValueSpace(labels=("e1", "e2", "e3"), lie=su2())


class TestLieStructure:
    def test_su2_is_a_lie_algebra(self):
        v = validate_lie(su2())
        assert v.ok

    def test_abelian_is_a_lie_algebra(self):
        assert validate_lie(abelian(4)).ok

    def test_antisymmetry_violation_reported(self):
        c = [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        bad = LieStructure(2, tuple(tuple(tuple(r) for r in m) for m in c))
        v = validate_lie(bad)
        assert not v.ok
        assert v.antisymmetry_violation is not None

    def test_jacobi_violation_reported(self):
        # [e0,e1] = e1, [e0,e2] = e2, [e1,e2] = e0 fails Jacobi
        bad = LieStructure.from_triples(
            3, [(0, 1, 1, 1.0), (0, 2, 2, 1.0), (1, 2, 0, 1.0)])
        v = validate_lie(bad)
        assert not v.ok
        assert v.jacobi_violation is not None

    def test_from_triples_antisymmetric_completion(self):
        L = LieStructure.from_triples(3, [(0, 1, 2, 1.0)])
        assert L.bracket_coeffs(0, 1) == [0.0, 0.0, 1.0]
        assert L.bracket_coeffs(1, 0) == [0.0, 0.0, -1.0]


class TestValueSpace:
    def test_duplicate_labels(self):
        with pytest.raises(DimensionError):
            ValueSpace(labels=("a", "a"))

    def test_lie_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ValueSpace(labels=("a", "b"), lie=su2())


class TestPhiMap:
    def test_lie_bracket_matches_cross_product(self, V3):
        phi = PhiMap.lie_bracket(V3)
        assert phi.basis_action(0, 1) == {2: 1.0}
        assert phi.basis_action(2, 0) == {1: 1.0}

    def test_lie_bracket_needs_structure(self):
        with pytest.raises(DimensionError):
            PhiMap.lie_bracket(ValueSpace(labels=("a", "b")))

    def test_symmetrized_product(self, V3):
        phi = PhiMap.symmetrized_product(V3)
        # e1 v e2 lands on the same target label in either order
        a = phi.basis_action(0, 1)
        assert a == phi.basis_action(1, 0)
        assert len(a) == 1
        assert phi.target.dim == 6

    def test_abstract_bracket_antisymmetry(self, V3):
        phi = PhiMap.abstract_bracket(V3)
        a = phi.basis_action(0, 2)
        assert a == {k: -c for k, c in phi.basis_action(2, 0).items()}
        assert phi.basis_action(1, 1) == {}

    def test_diagonal(self, V3):
        phi = PhiMap.diagonal(V3)
        assert phi.basis_action(0, 0) == {0: 1.0}
        assert phi.basis_action(0, 1) == {}

    def test_first_slot_space_mismatch(self, r3, V3):
        s = ValuedForm.from_slices(ValueSpace(labels=("1",)), [form(r3, 1, {(0,): 1.0})])
        B = ValuedForm(r3, 1, COV, V3, {((0,), "e2"): 1.0})
        with pytest.raises(DimensionError):
            lift_pointwise(wedge, PhiMap.lie_bracket(V3), s, B)


class TestValuedForm:
    def test_bad_multi_index(self, r3, V3):
        with pytest.raises(DegreeError):
            ValuedForm(r3, 2, COV, V3, {((1, 0), "e1"): 1.0})

    def test_unknown_label(self, r3, V3):
        with pytest.raises(DimensionError):
            ValuedForm(r3, 1, COV, V3, {((0,), "nope"): 1.0})

    def test_zero_components_dropped(self, r3, V3):
        vf = ValuedForm(r3, 1, COV, V3, {((0,), "e1"): 0.0, ((1,), "e2"): 2.0})
        assert list(vf.components) == [((1,), "e2")]

    def test_slice_round_trip(self, r3, V3):
        x = coord(0)
        vf = ValuedForm(r3, 1, COV, V3, {((0,), "e1"): x, ((2,), "e3"): 2.0})
        back = ValuedForm.from_slices(V3, vf.slices())
        assert back.components.keys() == vf.components.keys()

    def test_from_slices_checks_count(self, r3, V3):
        a = form(r3, 1, {(0,): 1.0})
        with pytest.raises(DimensionError):
            ValuedForm.from_slices(V3, [a, a])

    def test_add_degree_mismatch(self, r3, V3):
        a = ValuedForm(r3, 1, COV, V3, {((0,), "e1"): 1.0})
        b = ValuedForm(r3, 2, COV, V3, {((0, 1), "e1"): 1.0})
        with pytest.raises(DegreeError):
            a + b

    def test_add_space_mismatch(self, r3, V3):
        # a source term on other labels than the paired residual
        a = ValuedForm(r3, 1, COV, V3, {((0,), "e1"): 1.0})
        b = ValuedForm(r3, 1, COV, ValueSpace(labels=("a", "b")), {((0,), "a"): 1.0})
        with pytest.raises(DimensionError, match="different spaces"):
            a + b


class TestLiftPointwise:
    def test_wedge_with_lie_bracket(self, r3, V3):
        A = ValuedForm(r3, 1, COV, V3, {((0,), "e1"): 1.0})
        B = ValuedForm(r3, 1, COV, V3, {((1,), "e2"): 1.0})
        out = lift_pointwise(wedge, PhiMap.lie_bracket(V3), A, B)
        assert set(out.components) == {((0, 1), "e3")}
        assert out.components[((0, 1), "e3")].ev((0, 0, 0)) == 1.0

    def test_bilinearity_in_first_slot(self, r3, V3):
        x = coord(0)
        A = ValuedForm(r3, 1, COV, V3, {((0,), "e1"): x})
        B = ValuedForm(r3, 1, COV, V3, {((2,), "e2"): 1.0})
        phi = PhiMap.lie_bracket(V3)
        doubled = lift_pointwise(wedge, phi, A.scale(2.0), B)
        single = lift_pointwise(wedge, phi, A, B)
        pt = (0.7, 0.0, 0.0)
        for k, v in doubled.components.items():
            assert v.ev(pt) == pytest.approx(2.0 * single.components[k].ev(pt))

    def test_space_mismatch(self, r3, V3):
        A = ValuedForm(r3, 1, COV, V3, {((0,), "e1"): 1.0})
        s = ValuedForm.from_slices(ValueSpace(labels=("1",)), [form(r3, 1, {(0,): 1.0})])
        with pytest.raises(DimensionError):
            lift_pointwise(wedge, PhiMap.lie_bracket(V3), A, s)
