import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs.errors import DomainError, EvalSingularity
from grs.scalar import (
    SampleSet,
    ZERO,
    as_expr,
    bump,
    const,
    coord,
    cos,
    exp,
    fd_diff,
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
