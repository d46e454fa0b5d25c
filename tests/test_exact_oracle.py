"""Exact verdicts on rational residuals, against the float verdicts.

A residual tree built only from real constants, coordinates, ``+ - * /``,
negation and integer powers is a rational function of the coordinates.
Evaluated in exact ``Fraction`` arithmetic (each float constant is the
rational number it holds) at random integer points, it is zero at all of
them when it is identically zero.  When it is not, the Schwartz-Zippel
lemma (Schwartz 1980, JACM 27(4), 701; Zippel 1979; DeMillo and Lipton
1978) bounds the chance that one point drawn uniformly from S^n is a zero
of its numerator by deg / |S|, where deg bounds the numerator's degree
once the denominators are cleared.  A point where some denominator is
exactly 0 is drawn again.

So on every catalog fixture and shipped check whose residual is
rational, "exactly zero" must agree with the expected PASS.  The three
first integrals below are the known cases where the float verdict, an
absolute tolerance, disagrees with the exact one.
"""

import operator
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import grs
from grs import dsl
from grs.catalog import build, catalog_ids, fixtures
from grs.engine import verify
from grs.scalar import Add, Const, Coord, Div, Mul, Neg, Pow, Sub, intern_ops

SPEC_DIR = Path(grs.__file__).parent / "specs"
SPREAD = 2 ** 20  # points are drawn from S^n, S = the integers in [-SPREAD, SPREAD]
POINTS = 2
MAX_DEGREE = 64  # a false zero then has probability <= (64 / 2^21)^2 < 1e-9


def _degrees(types, params, a, b):
    """(numerator, denominator) degree bounds per op, or None if an op is
    not rational: a complex or non-finite constant, a function other than
    + - * / and negation, or a half-integer power."""
    deg = []
    for t, p, i, j in zip(types, params, a, b):
        if t is Const:
            if isinstance(p, np.complexfloating) or not np.isfinite(p):
                return None
            d = (0, 0)
        elif t is Coord:
            d = (1, 0)
        elif t is Add or t is Sub:
            (na, da), (nb, db) = deg[i], deg[j]
            d = (max(na + db, nb + da), da + db)
        elif t is Mul:
            (na, da), (nb, db) = deg[i], deg[j]
            d = (na + nb, da + db)
        elif t is Div:
            (na, da), (nb, db) = deg[i], deg[j]
            d = (na + db, da + nb)
        elif t is Neg:
            d = deg[i]
        elif t is Pow and p.denominator == 1:
            (na, da), n = deg[i], int(p)
            d = (n * na, n * da) if n >= 0 else (-n * da, -n * na)
        else:
            return None
        deg.append(d)
    return deg


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _values(types, params, a, b, pt):
    """Every op's exact value at ``pt``; ZeroDivisionError at a pole."""
    vals = []
    for t, p, i, j in zip(types, params, a, b):
        if t is Const:
            vals.append(Fraction(float(p)))
        elif t is Coord:
            vals.append(pt[p])
        elif t is Neg:
            vals.append(-vals[i])
        elif t is Pow:
            vals.append(vals[i] ** int(p))
        else:
            vals.append(_BINARY[t](vals[i], vals[j]))
    return vals


def exact_zero(roots, dim, rng):
    """Whether every root is exactly 0 at POINTS random points, or None if
    some root is not a rational function."""
    types, params, a, b, rts, _ = intern_ops(roots)
    deg = _degrees(types, params, a, b)
    if deg is None:
        return None
    assert max((deg[r][0] for r in rts), default=0) <= MAX_DEGREE
    zero = True
    for _ in range(POINTS):
        for _ in range(20):
            pt = [Fraction(rng.randint(-SPREAD, SPREAD)) for _ in range(dim)]
            try:
                vals = _values(types, params, a, b, pt)
                break
            except ZeroDivisionError:
                continue  # a denominator is exactly 0 here: draw again
        else:
            pytest.fail("no point off the poles in 20 draws")
        zero = zero and all(vals[r] == 0 for r in rts)
    return zero


def _fixture_cases():
    for cid in catalog_ids():
        for fx in fixtures(cid):
            yield cid, fx


def _shipped_checks():
    for path in sorted(SPEC_DIR.glob("*.grs")):
        checks, diags = dsl.load(path.read_text())
        assert not diags, path
        yield from checks


def test_rational_fixtures_are_exact_zeros_iff_expected_to_pass():
    rng = random.Random(29)
    judged = []
    for cid, fx in _fixture_cases():
        zero = exact_zero(build(cid, fx.chart, **fx.params).roots(), fx.chart.dim, rng)
        if zero is not None:
            judged.append((cid, fx.name, zero, fx.expect_pass))
    assert len(judged) == 33
    assert [j for j in judged if j[2] != j[3]] == []


def test_rational_shipped_checks_are_exact_zeros_iff_they_pass():
    rng = random.Random(30)
    judged = []
    for c in _shipped_checks():
        zero = exact_zero(c.condition.roots(), len(c.sample.bounds), rng)
        if zero is not None:
            judged.append((c.name, zero, verify(c.condition, c.sample, c.tol).passed))
    assert len(judged) == 32
    assert [j for j in judged if j[1] != j[2]] == []


# scaled first integrals of a rotation: each field's derivative along X
# is identically 0 except 1e-10 * x's, which is -1e-10 * y
MISJUDGED = """\
chart R2 (x, y) metric diag(1, 1)
vector X : 1 = -y * dx + x * dy
field big = 1e8 * (x^2 + y^2)
field huge = 1e12 * (x^2 + y^2)
field tiny = 1e-10 * x
check first_integral(X, big) on random(-2..2, -2..2; 200, seed 13)
check first_integral(X, huge) on random(-2..2, -2..2; 200, seed 13)
check first_integral(X, tiny) on random(-2..2, -2..2; 200, seed 13)
"""


def test_known_float_misjudgements_of_first_integrals():
    # rounding in the large terms fails two true first integrals; a small
    # violation passes the absolute tolerance.  A verdict against the
    # residual's own scale would judge all three as the exact oracle does.
    checks, diags = dsl.load(MISJUDGED)
    assert not diags
    rng = random.Random(31)
    exact = [exact_zero(c.condition.roots(), 2, rng) for c in checks]
    floats = [verify(c.condition, c.sample, c.tol).passed for c in checks]
    assert exact == [True, True, False]
    assert floats == [False, False, True]


class _Draws:
    """A stand-in for ``random.Random`` that hands out the given integers."""

    def __init__(self, values):
        self.values = list(values)

    def randint(self, lo, hi):
        return self.values.pop(0)


def test_degree_bounds_and_poles():
    x, y = Coord(0), Coord(1)
    # x^3 / (x - y^-2) = x^3 y^2 / (x y^2 - 1): bounds (5, 3), as the walk sums them
    e = Div(Pow(x, Fraction(3)), Sub(x, Pow(y, Fraction(-2))))
    types, params, a, b, rts, _ = intern_ops([e])
    assert _degrees(types, params, a, b)[rts[0]] == (5, 3)
    assert _degrees(*intern_ops([Pow(x, Fraction(1, 2))])[:4]) is None
    assert _degrees(*intern_ops([Mul(Const(1j), x)])[:4]) is None
    # (x^2 - y^2) / (x - y) - (x + y) is 0 wherever it is defined
    e = Sub(Div(Sub(Mul(x, x), Mul(y, y)), Sub(x, y)), Add(x, y))
    assert exact_zero([e], 2, random.Random(1)) is True
    assert exact_zero([Sub(e, Const(1e-300))], 2, random.Random(1)) is False
    # x = 0 is a pole of 1/x: the first point is drawn twice, the second three times
    draws = _Draws([0, 3, 0, 0, -7])
    assert exact_zero([Sub(Div(Const(1.0), x), Div(Const(1.0), x))], 1, draws) is True
    assert draws.values == []
