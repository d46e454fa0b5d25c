import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs import catalog
from grs.diffops import ricci
from grs.errors import DomainError, EvalSingularity
from grs.exterior import Chart, MetricSpec
from grs.scalar import (
    Expr,
    Mul,
    Pow,
    Program,
    SampleSet,
    ZERO,
    as_expr,
    bump,
    const,
    coord,
    cos,
    exp,
    fd_diff,
    intern_ops,
    is_zero,
    sin,
    sqrt,
)


x, y = coord(0), coord(1)


def test_constant_folding():
    assert is_zero(const(2) - const(2))
    assert is_zero(x * 0)
    assert (x * 1) is x
    assert (x + 0) is x
    assert (const(3) * const(4)).ev(()) == 12


@pytest.mark.parametrize("base,exponent,value", [
    (10.0, 400, math.inf), (-10.0, 401, -math.inf), (10.0, Fraction(801, 2), math.inf),
])
def test_constant_power_that_overflows_stays_a_power(base, exponent, value):
    # Python's ** raises OverflowError here; the unfolded node evaluates to +-inf
    e = const(base) ** exponent
    assert isinstance(e, Pow)
    assert e.ev(()) == value


def test_arithmetic_eval():
    e = (x + 2 * y) / (1 + x * x)
    assert e.ev((1.0, 3.0)) == pytest.approx(3.5)
    assert (x - y).ev((5.0, 2.0)) == 3.0
    assert (-x).ev((4.0,)) == -4.0


def test_pow_half_integer():
    e = x ** 2
    assert e.ev((3.0,)) == 9.0
    r = sqrt(x)
    assert r.ev((4.0,)) == 2.0
    with pytest.raises(DomainError):
        (x ** as_frac_third()).ev((2.0,))


def as_frac_third():
    from fractions import Fraction

    return Fraction(1, 3)


def test_sqrt_negative_real_raises():
    with pytest.raises(DomainError):
        sqrt(x).ev((-1.0,))


def test_division_singularity():
    e = const(1) / x
    with pytest.raises(EvalSingularity):
        e.ev((0.0,))


def test_exact_derivatives():
    e = sin(x) * exp(y)
    dx = e.diff(0)
    assert dx.ev((0.5, 0.2)) == pytest.approx(math.cos(0.5) * math.exp(0.2))
    dy = e.diff(1)
    assert dy.ev((0.5, 0.2)) == pytest.approx(math.sin(0.5) * math.exp(0.2))


def test_second_derivative_chain():
    e = exp(-(x * x))
    d2 = e.diff(0).diff(0)
    # (4x^2 - 2) e^{-x^2}
    assert d2.ev((0.7,)) == pytest.approx(
        (4 * 0.49 - 2) * math.exp(-0.49))


@settings(max_examples=25, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_symbolic_matches_fd(a, b):
    e = sin(x * y) + exp(0.3 * x) * cos(y)
    sym = e.diff(0).ev((a, b))
    num = fd_diff(e, 0, (a, b), h=1e-4)
    assert abs(sym - num) < 1e-10


class TestDerivativeMemo:
    """Each node's derivative is built once per axis and then shared."""

    def test_derivative_is_one_object(self):
        e = sin(x * y) / (1 + exp(x))
        for k in (0, 1):
            assert e.diff(k) is e.diff(k)
        assert e.diff(0) is not e.diff(1)

    def test_shared_subtree_differentiated_once(self, monkeypatch):
        calls = []
        rule = Mul._diff

        def counted(self, axis):
            calls.append(self)
            return rule(self, axis)

        monkeypatch.setattr(Mul, "_diff", counted)
        s = x * y
        (sin(s) + cos(s)).diff(0)
        assert calls == [s]

    def test_deep_tree_needs_no_deep_recursion(self):
        e = x * y
        for _ in range(5000):
            e = e + x * y
        assert e.diff(0).ev((0.5, 0.25)) == pytest.approx(5001 * 0.25)

    def test_dense_ricci_keeps_its_program_with_fewer_objects(self):
        # the dense flat 4-D chart: g = J^T J for x_k = u_k + 0.2 sin(u_{k+1})
        u = [coord(k) for k in range(4)]
        xs = [u[k] + 0.2 * sin(u[(k + 1) % 4]) for k in range(4)]
        jac = [[xk.diff(j) for j in range(4)] for xk in xs]
        rows = [[sum((jac[k][i] * jac[k][j] for k in range(4)), const(0.0))
                 for j in range(4)] for i in range(4)]
        roots = [r for row in ricci(MetricSpec.matrix(rows)) for r in row]
        # without the memo: the same 1,240 ops from 9,124 node objects
        assert len(Program(roots)) == 1240
        assert _node_objects(roots) <= 9124 // 4


def _all_nodes(roots):
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parts()[0])
    return list(seen.values())


def _node_objects(roots):
    return len(_all_nodes(roots))


def _dense_flat_rows(conformal=False):
    """g = J^T J for x_k = u_k + 0.2 sin(u_{k+1}); curved if ``conformal``."""
    u = [coord(k) for k in range(4)]
    xs = [u[k] + 0.2 * sin(u[(k + 1) % 4]) for k in range(4)]
    jac = [[xk.diff(j) for j in range(4)] for xk in xs]
    rows = [[sum((jac[k][i] * jac[k][j] for k in range(4)), const(0.0))
             for j in range(4)] for i in range(4)]
    if conformal:
        rows = [[e * (1 + 0.1 * u[0] * u[0]) for e in row] for row in rows]
    return rows


def _op_list_digest(prog):
    """SHA-256 of a program's ops (node type, param, child slots, dead
    slots) and roots; numpy scalars are hashed as Python numbers."""
    h = hashlib.sha256()
    for ev, param, args, dead in prog._ops:
        if isinstance(param, np.generic):
            param = param.item()
        h.update(repr((ev.__qualname__, param, args, dead)).encode())
    h.update(repr(prog._roots).encode())
    return h.hexdigest()


# SHA-256 of the three op lists in test_op_lists_are_pinned; any change in op order moves it
OP_LIST_DIGEST = "cd099202505e192187ed12096125f54f4b848a00ee91561fb656fc01b777e387"


class TestCompile:
    def test_intern_ops_ignores_sharing(self):
        # a value key: the same ops whether equal subtrees are one node or copies
        a = sin(x * y)

        def copy():
            return sin(coord(0) * coord(1))

        assert intern_ops([a * a + a, a]) == intern_ops([copy() * copy() + copy(), copy()])
        assert intern_ops([a]) != intern_ops([sin(y * x)])

    def test_each_node_is_taken_apart_once(self, monkeypatch):
        roots = [r for row in ricci(MetricSpec.matrix(_dense_flat_rows())) for r in row]
        seen = []
        for cls in {c for node in _all_nodes(roots) for c in type(node).__mro__
                    if "_parts" in vars(c) and c is not Expr}:
            def counted(self, _rule=vars(cls)["_parts"]):
                seen.append(self)
                return _rule(self)
            monkeypatch.setattr(cls, "_parts", counted)
        Program(roots)
        monkeypatch.undo()
        assert len(seen) == len({id(n) for n in seen}) == _node_objects(roots)

    def test_op_lists_are_pinned(self):
        # ricci_flat on Schwarzschild (198 ops) and the dense flat and
        # curved 4-D charts (1,240 and 2,113 ops); the op order decides
        # which DomainError a run reports first
        charts = [catalog.schwarzschild_chart(1.0)] + [
            Chart(("u0", "u1", "u2", "u3"), MetricSpec.matrix(_dense_flat_rows(c)))
            for c in (False, True)]
        progs = [Program(catalog.build("ricci_flat", ch).roots()) for ch in charts]
        assert [len(p) for p in progs] == [198, 1240, 2113]
        h = hashlib.sha256("".join(_op_list_digest(p) for p in progs).encode())
        assert h.hexdigest() == OP_LIST_DIGEST


def test_fd_convergence_is_fourth_order():
    e = sin(x) * exp(x)
    at = (0.37,)
    exact = e.diff(0).ev(at)
    err_h = abs(fd_diff(e, 0, at, h=0.1) - exact)
    err_h2 = abs(fd_diff(e, 0, at, h=0.05) - exact)
    assert 12.0 <= err_h / err_h2 <= 20.0


class TestBump:
    def test_support(self):
        b = bump(x)
        assert b.ev((2.0,)) == 0.0
        assert b.ev((1.0,)) == 0.0
        assert b.ev((0.0,)) == pytest.approx(math.exp(-1.0))

    def test_derivative_vanishes_outside(self):
        db = bump(x).diff(0)
        assert db.ev((1.5,)) == 0.0
        assert db.ev((-3.0,)) == 0.0

    def test_first_derivative_matches_fd(self):
        b = bump(x)
        for s in (0.3, -0.6, 0.9):
            assert b.diff(0).ev((s,)) == pytest.approx(
                fd_diff(b, 0, (s,), h=1e-5), abs=1e-8)

    def test_second_derivative_matches_fd(self):
        b = bump(x)
        d1 = b.diff(0)
        for s in (0.2, -0.5):
            assert d1.diff(0).ev((s,)) == pytest.approx(
                fd_diff(d1, 0, (s,), h=1e-5), abs=1e-6)

    def test_third_derivative_unsupported(self):
        with pytest.raises(DomainError):
            bump(x).diff(0).diff(0).diff(0)

    def test_smooth_argument(self):
        # chain rule through a non-trivial argument
        b = bump(0.5 * (x - y))
        assert b.diff(0).ev((0.4, 0.1)) == pytest.approx(
            fd_diff(b, 0, (0.4, 0.1), h=1e-5), abs=1e-8)


class TestSampleSet:
    def test_random_deterministic(self):
        s1 = SampleSet.random_box([(-1, 1), (0, 2)], 50, seed=3)
        s2 = SampleSet.random_box([(-1, 1), (0, 2)], 50, seed=3)
        assert s1.array().tolist() == s2.array().tolist()
        assert s1.requested == 50

    def test_random_seed_changes_points(self):
        s1 = SampleSet.random_box([(-1, 1)], 10, seed=1)
        s2 = SampleSet.random_box([(-1, 1)], 10, seed=2)
        assert s1.array().tolist() != s2.array().tolist()

    def test_grid_counts(self):
        g = SampleSet.grid([(0, 1), (0, 2)], 3)
        pts = list(map(tuple, g.array().tolist()))
        assert len(pts) == 9
        assert g.requested == 9
        assert (0.0, 0.0) in pts and (1.0, 2.0) in pts

    def test_bounds_respected(self):
        s = SampleSet.random_box([(-1, 1), (3, 4)], 200, seed=11)
        for px, py in s.array().tolist():
            assert -1 <= px <= 1 and 3 <= py <= 4

    def test_exclusion_predicate(self):
        s = SampleSet.grid([(0, 1)], 5).with_exclusion(lambda p: p[0] < 0.5)
        kept = [p for p in map(tuple, s.array().tolist()) if not s.exclude(p)]
        assert len(kept) == 3

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            SampleSet.random_box([(-1, 1)], 10, seed=-1)
        # the grid kind carries no seed
        SampleSet.grid([(-1, 1)], 3)

    @pytest.mark.parametrize("bounds", [(-math.inf, 2), (0, math.nan), (-1e308, 1e308)])
    def test_non_finite_range_rejected(self, bounds):
        with pytest.raises(DomainError, match="finite"):
            SampleSet.random_box([bounds], 10, seed=1)
        with pytest.raises(DomainError, match="finite"):
            SampleSet.grid([bounds], 3)
