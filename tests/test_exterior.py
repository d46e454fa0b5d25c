import itertools
import math
import time

import numpy as np
import pytest

from grs.errors import (
    DegreeError,
    DimensionError,
    DomainError,
    EvalSingularity,
    SingularMetricError,
    VarianceError,
)
from grs.exterior import (
    CONTRA,
    COV,
    Chart,
    MetricSpec,
    form,
    hodge,
    interior,
    multivector,
    musical_tilde,
    sort_sign,
    volume_form,
    wedge,
)
from grs.catalog import schwarzschild_chart, sphere_chart
from grs.exterior import determinant, inverse_expr
from grs.scalar import Program, as_expr, coord, sin


@pytest.fixture
def mink():
    return Chart(("x", "y", "z", "xi"), MetricSpec.diagonal([-1, -1, -1, 1]))


@pytest.fixture
def r3():
    return Chart(("x", "y", "z"), MetricSpec.diagonal([1, 1, 1]))


def test_sort_sign():
    assert sort_sign((0, 1)) == ((0, 1), 1)
    assert sort_sign((1, 0)) == ((0, 1), -1)
    assert sort_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_sign((1, 1)) is None


def test_chart_validation():
    with pytest.raises(DimensionError):
        Chart(("x", "x"), MetricSpec.diagonal([1, 1]))


def test_wedge_anticommutes(r3):
    a = form(r3, 1, {(0,): 2.0})
    b = form(r3, 1, {(1,): 3.0})
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert ab.get((0, 1)) == 6.0
    assert ba.get((0, 1)) == -6.0


def test_wedge_squares_to_zero(r3):
    a = form(r3, 1, {(0,): 1.0, (1,): 2.0})
    sq = wedge(a, a)
    assert not sq.components


def test_wedge_associative(mink):
    a = form(mink, 1, {(0,): 1.0, (2,): 2.0})
    b = form(mink, 1, {(1,): 3.0})
    c = form(mink, 2, {(2, 3): 1.0})
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    assert left.components == right.components


def test_wedge_variance_mismatch(r3):
    a = form(r3, 1, {(0,): 1.0})
    v = multivector(r3, 1, {(0,): 1.0})
    with pytest.raises(VarianceError):
        wedge(a, v)


def test_interior_basis(r3):
    vol = form(r3, 3, {(0, 1, 2): 1.0})
    X = multivector(r3, 1, {(0,): 1.0})
    assert interior(X, vol).components == {(1, 2): 1.0}


def test_interior_composition_order(r3):
    # i(X ^ Y) = i(Y) after i(X): the first factor hits the first slot
    vol = form(r3, 3, {(0, 1, 2): 1.0})
    XY = multivector(r3, 2, {(0, 1): 1.0})
    once = interior(XY, vol)
    X = multivector(r3, 1, {(0,): 1.0})
    Y = multivector(r3, 1, {(1,): 1.0})
    twice = interior(Y, interior(X, vol))
    assert once.components == twice.components


def test_interior_degree_error(r3):
    a = form(r3, 1, {(0,): 1.0})
    XY = multivector(r3, 2, {(0, 1): 1.0})
    with pytest.raises(DegreeError):
        interior(XY, a)


_R2 = Chart(("u", "v"), MetricSpec.diagonal([1, 1]))


@pytest.mark.parametrize("make, error, message", [
    (lambda r3: MetricSpec.matrix([[1, 0], [0]]), DimensionError, "metric matrix must be square"),
    (lambda r3: Chart(("x", "y"), MetricSpec.diagonal([1, 1, 1])), DimensionError,
     "metric dimension does not match chart"),
    (lambda r3: form(r3, 4, {}), DegreeError, "degree 4 on a 3-chart"),
    (lambda r3: form(r3, 1, {(3,): 1.0}), DimensionError, "index out of range in (3,)"),
    (lambda r3: interior(form(r3, 1, {}), form(r3, 2, {})), VarianceError,
     "first argument must be a multivector"),
    (lambda r3: interior(multivector(r3, 1, {}), multivector(r3, 2, {})), VarianceError,
     "second argument must be a form"),
    (lambda r3: hodge(multivector(r3, 1, {(0,): 1.0})), VarianceError, "hodge acts on forms"),
    (lambda r3: wedge(form(r3, 1, {}), form(_R2, 1, {})), DimensionError,
     "tensors live on different charts"),
], ids=["non_square_matrix", "chart_metric_dimension", "degree_out_of_range",
        "index_out_of_range", "interior_of_a_form", "interior_into_a_multivector",
        "hodge_of_a_multivector", "different_charts"])
def test_library_error(r3, make, error, message):
    with pytest.raises(error) as err:
        make(r3)
    assert str(err.value) == message


def _basis_forms(chart, degree):
    n = chart.dim
    for idx in itertools.combinations(range(n), degree):
        yield idx, form(chart, degree, {idx: 1.0})


class TestHodge:
    def test_defining_relation_all_basis_pairs(self, mink):
        """alpha ^ *beta = <alpha, beta> vol, exactly, for every basis pair."""
        vol = volume_form(mink)
        eta = (-1.0, -1.0, -1.0, 1.0)
        for p in range(5):
            for ia, a in _basis_forms(mink, p):
                for ib, b in _basis_forms(mink, p):
                    left = wedge(a, hodge(b))
                    # diagonal metric: basis pairing is 0 off the diagonal,
                    # else the product of inverse-metric entries
                    pairing = 0.0
                    if ia == ib:
                        pairing = 1.0
                        for i in ia:
                            pairing *= 1.0 / eta[i]
                    expected = vol.scale(pairing)
                    le = left.ev((0.0, 0.0, 0.0, 0.0)).components
                    re = expected.ev((0.0, 0.0, 0.0, 0.0)).components
                    assert le == re, (ia, ib)

    def test_double_hodge_on_two_forms(self, mink):
        # Lorentzian signature: ** = -id in degree 2
        for idx, b in _basis_forms(mink, 2):
            twice = hodge(hodge(b))
            assert twice.components == {idx: pytest.approx(-1.0)}

    def test_euclidean_double_hodge_identity(self, r3):
        for _idx, b in _basis_forms(r3, 1):
            twice = hodge(hodge(b))
            assert twice.ev((0, 0, 0)).components == b.components

    def test_symbolic_coefficients(self, mink):
        z, xi = coord(2), coord(3)
        F = form(mink, 2, {(0, 2): sin(z - xi)})
        sF = hodge(F)
        (idx, v), = sF.components.items()
        assert idx == (1, 3)
        # *(dx ^ dz) = -dy ^ dxi in this signature and orientation
        assert v.ev((0, 0, 0.5, 0.2)) == pytest.approx(
            -sin(z - xi).ev((0, 0, 0.5, 0.2)))

    def test_position_dependent_metric_needs_point(self):
        th = coord(0)
        g = MetricSpec.matrix([[as_expr(1.0), as_expr(0.0)],
                               [as_expr(0.0), sin(th) * sin(th)]])
        sphere = Chart(("theta", "phi"), g)
        a = form(sphere, 1, {(0,): 1.0})
        out = hodge(a).ev((1.0, 0.0))
        assert out.degree == 1


def _skewed_plane():
    # Riemannian, position-dependent and with no zero entry: det g = 1 + x^2 + y^2
    x, y = coord(0), coord(1)
    g = MetricSpec.matrix([[1.0 + x * x, x * y], [x * y, 1.0 + y * y]])
    return Chart(("x", "y"), g)


def _inverse_at(chart, pt):
    """g^-1 at one point as an n x n array."""
    entries = [as_expr(e) for row in chart.metric.inverse_entries() for e in row]
    return Program(entries).at([pt]).reshape(chart.dim, chart.dim)


# (chart, sign of det g, points)
CURVED = [
    pytest.param(schwarzschild_chart, -1, [(3.5, 0.7, 1.0, 0.2), (6.0, 1.6, 4.0, -0.5),
                                           (9.0, 2.5, 0.1, 0.9)], id="schwarzschild"),
    pytest.param(_skewed_plane, 1, [(0.3, -0.8), (1.5, 0.4)], id="skewed_plane"),
]


class TestHodgeOnCurvedCharts:
    @pytest.mark.parametrize("make_chart,det_sign,points", CURVED)
    def test_double_hodge_sign(self, make_chart, det_sign, points):
        # ** = (-1)^(p(n-p)) sign(det g) on p-forms (Frankel, The Geometry of Physics, 14.1)
        chart = make_chart()
        n = chart.dim
        for p in range(n + 1):
            for idx, b in _basis_forms(chart, p):
                twice = hodge(hodge(b))
                want = {idx: (-1) ** (p * (n - p)) * det_sign}
                for pt in points:
                    got = twice.ev(pt).components
                    for key in got.keys() | want.keys():
                        assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0),
                                                                  abs=1e-14)

    @pytest.mark.parametrize("make_chart,det_sign,points", CURVED)
    def test_defining_relation_all_basis_pairs(self, make_chart, det_sign, points):
        """alpha ^ *beta = <alpha, beta> vol, with <dx^I, dx^J> = det[g^(i j)]."""
        chart = make_chart()
        n = chart.dim
        top = tuple(range(n))
        for pt in points:
            ginv = _inverse_at(chart, pt)
            vol = volume_form(chart).ev(pt).components[top]
            for p in range(n + 1):
                for ia, a in _basis_forms(chart, p):
                    for ib, b in _basis_forms(chart, p):
                        pairing = determinant([[ginv[i][j] for j in ib] for i in ia])
                        left = wedge(a, hodge(b)).ev(pt).components.get(top, 0.0)
                        assert left == pytest.approx(pairing * vol, rel=1e-13, abs=1e-15)

    def test_symbolic_star_matches_the_point_evaluation(self):
        sphere = sphere_chart()
        a = form(sphere, 1, {(0,): 1.0})
        pt = (1.0, 0.3)
        star = hodge(a)
        # *dtheta = sin(theta) dphi on the unit sphere
        assert star.ev(pt).components == {(1,): pytest.approx(math.sin(1.0))}


class TestMusicalTilde:
    def test_minkowski_one_form(self, mink):
        a = form(mink, 1, {(2,): 1.0, (3,): 2.0})
        v = musical_tilde(a)
        assert v.variance == CONTRA
        assert v.components == {(2,): -1.0, (3,): 2.0}

    def test_round_trip(self, mink):
        a = form(mink, 2, {(0, 3): 2.0, (1, 2): -1.0})
        back = musical_tilde(musical_tilde(a))
        assert back.variance == COV
        assert back.ev((0, 0, 0, 0)).components == a.components

    def test_two_form_determinant_convention(self, mink):
        # tilde(dz ^ dxi) = g^zz g^xixi  dz ^ dxi (diagonal cross terms vanish)
        a = form(mink, 2, {(2, 3): 1.0})
        v = musical_tilde(a)
        assert v.components == {(2, 3): -1.0}


def test_volume_form_minkowski(mink):
    vol = volume_form(mink)
    assert vol.components == {(0, 1, 2, 3): pytest.approx(1.0)}


def test_singular_metric(r3):
    g = MetricSpec.matrix([[coord(0), as_expr(0.0), as_expr(0.0)],
                           [as_expr(0.0), as_expr(1.0), as_expr(0.0)],
                           [as_expr(0.0), as_expr(0.0), as_expr(1.0)]])
    chart = Chart(("x", "y", "z"), g)
    with pytest.raises(EvalSingularity):
        _inverse_at(chart, (0.0, 0.0, 0.0))


class TestMetricSpec:
    def test_constant_metric_entries_are_numbers(self, mink):
        g = mink.metric
        assert g.entries()[3] == [0.0, 0.0, 0.0, 1.0]
        assert g.inverse_entries()[0] == [-1.0, 0.0, 0.0, 0.0]
        assert g.inverse_entries() is g.inverse_entries()

    def test_diagonal_det_is_the_left_to_right_product(self):
        # (0.8 * 1.5) * 1.4 and 0.8 * (1.5 * 1.4) differ in the last bit
        chart = Chart(("x", "y", "z"), MetricSpec.diagonal([0.8, 1.5, 1.4]))
        assert chart.metric.det == (0.8 * 1.5) * 1.4
        assert volume_form(chart).components == {(0, 1, 2): ((0.8 * 1.5) * 1.4) ** 0.5}

    def test_matrix_inverse_built_once_on_first_use(self):
        th = coord(0)
        g = MetricSpec.matrix([[as_expr(1.0), as_expr(0.0)],
                               [as_expr(0.0), sin(th) * sin(th)]])
        assert g._inverse is None
        assert g.inverse_entries() is g.inverse_entries()

    @pytest.mark.parametrize("entry", [1e400, -1e400, float("nan"), complex(0, 1e400)])
    def test_matrix_rejects_a_non_finite_constant_entry(self, entry):
        with pytest.raises(DomainError, match=r"entry \[2, 1\] is not finite"):
            MetricSpec.matrix([[1.0, 0.0], [entry, 1.0]])
        with pytest.raises(DomainError, match=r"entry \[1, 1\] is not finite"):
            MetricSpec.matrix([[as_expr(entry), 0.0], [0.0, 1.0]])


def test_determinant_keeps_the_entries_type():
    from grs.exterior import determinant, inverse_expr
    from grs.scalar import Expr, ZERO
    assert determinant([[2.0, 1.0], [1.0, 3.0]]) == 5.0
    assert determinant([]) == 1.0
    x = coord(0)
    rows = [[ZERO, ZERO, ZERO], [ZERO, ZERO, x], [ZERO, x, ZERO]]
    assert isinstance(determinant(rows), Expr)
    # a first row of zeros gives an Expr zero, so cof / det stays symbolic
    inv = inverse_expr(rows)
    assert all(isinstance(e, Expr) for row in inv for e in row)


def test_interior_sign_on_the_second_slot(r3):
    # i(dy)(dx ^ dy) = -dx: dy fills the second slot, one transposition away
    w = form(r3, 2, {(0, 1): 1.0})
    Y = multivector(r3, 1, {(1,): 1.0})
    assert interior(Y, w).components == {(0,): -1.0}


def _perm_sign(perm):
    inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(len(perm)), 2))
    return -1 if inversions % 2 else 1


def test_interior_of_a_bivector_is_the_form_on_its_factors(mink):
    # i(X ^ Y) w = w(X, Y, .), with w(X, Y, .)_k summed over the full
    # antisymmetric array of w, which is built from permutations alone
    rng = np.random.default_rng(3)
    n = 4
    w = form(mink, 3, {key: rng.uniform(-1, 1) for key in itertools.combinations(range(n), 3)})
    X, Y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    XY = multivector(mink, 2, {(a, b): X[a] * Y[b] - X[b] * Y[a]
                               for a, b in itertools.combinations(range(n), 2)})
    full = np.zeros((n, n, n))
    for key, v in w.components.items():
        for perm in itertools.permutations(range(3)):
            full[tuple(key[p] for p in perm)] = _perm_sign(perm) * v
    expected = np.einsum("i,j,ijk->k", X, Y, full)
    got = interior(XY, w)
    assert [got.get((k,)) for k in range(n)] == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n", range(1, 8))
def test_minors_match_numpy(n):
    a = np.eye(n) + 0.1 * np.random.default_rng(n).uniform(-1, 1, (n, n))
    rows = a.tolist()
    assert determinant(rows) == pytest.approx(np.linalg.det(a), rel=1e-12)
    np.testing.assert_allclose(np.array(inverse_expr(rows)), np.linalg.inv(a), rtol=1e-12)


def test_dense_eight_by_eight_inverse_is_built_fast():
    # with minors re-expanded per cofactor this took seconds (O(n!) nodes)
    n = 8
    u = [sin(coord(i)) + 0.5 for i in range(n)]
    rows = [[(1.0 if i == j else 0.0) + 0.1 * u[i] * u[j] for j in range(n)] for i in range(n)]
    start = time.perf_counter()
    inv = inverse_expr(rows)
    assert time.perf_counter() - start < 1.0
    # the same bound without the clock: 12,649 node objects with shared
    # minors, 1,266,547 with every minor copied and expanded again
    seen, stack = set(), [e for row in inv for e in row]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parts()[0])
    assert len(seen) < 20_000
    pt =tuple(0.3 * k - 1.0 for k in range(n))
    got = Program([e for row in inv for e in row]).at([pt])[:, 0].real.reshape(n, n)
    uv = np.sin(np.array(pt)) + 0.5
    np.testing.assert_allclose(got, np.linalg.inv(np.eye(n) + 0.1 * np.outer(uv, uv)),
                               rtol=1e-12)
