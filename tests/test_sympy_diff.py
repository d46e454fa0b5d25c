"""``Expr.diff`` against SymPy on generated expression trees.

Each tree is converted to SymPy and differentiated there; the package's
derivative tree is converted the same way.  Both are evaluated at 30
digits at sample points, so the comparison sees the differentiation
rules and not the rounding of double-precision evaluation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs.scalar import (
    Add, Bump, Const, Coord, Cos, Div, Exp, Mul, Neg, Pow, Sin, Sqrt, Sub,
)

sympy = pytest.importorskip("sympy")

_X = sympy.symbols("x0 x1", real=True)
_T = sympy.Symbol("t", real=True)
# the bump profile exp(-1/(1-t^2)) on |t| < 1 and its first two derivatives
_BUMP = [sympy.diff(sympy.exp(-1 / (1 - _T ** 2)), _T, k) for k in range(3)]
_BINARY = {Add: sympy.Add, Mul: sympy.Mul,
           Sub: lambda a, b: a - b, Div: lambda a, b: a / b}
_UNARY = {Neg: lambda a: -a, Sin: sympy.sin, Cos: sympy.cos, Exp: sympy.exp,
          Sqrt: sympy.sqrt}


def to_sympy(e):
    t = type(e)
    if t is Const:
        return sympy.Float(e.value.real) + sympy.I * sympy.Float(e.value.imag)
    if t is Coord:
        return _X[e.axis]
    if t in _BINARY:
        return _BINARY[t](to_sympy(e.a), to_sympy(e.b))
    if t is Pow:
        return to_sympy(e.a) ** sympy.Rational(e.exponent.numerator, e.exponent.denominator)
    if t is Bump:
        s = to_sympy(e.a)
        return sympy.Piecewise((_BUMP[e.order].subs(_T, s), s ** 2 < 1), (0, True))
    return _UNARY[t](to_sympy(e.a))


def _value(expr, pt):
    """``expr`` at ``pt`` to 30 digits, or None where it is not finite."""
    v = expr.subs({x: sympy.Float(p) for x, p in zip(_X, pt)}).evalf(30)
    return v if v.is_number and v.is_finite else None


_EXPONENTS = [Fraction(k) for k in (-2, -1, 2, 3)] + \
    [Fraction(k, 2) for k in (-1, 1, 3)]
_real_leaves = st.one_of(
    st.builds(Coord, st.integers(0, 1)),
    st.builds(Const, st.floats(-2, 2)),
)
# bump takes the real part of its argument, so it gets real-valued trees
_real_trees = st.recursive(_real_leaves, lambda kids: st.one_of(
    *[st.builds(cls, kids, kids) for cls in (Add, Sub, Mul)],
    *[st.builds(cls, kids) for cls in (Neg, Sin, Cos, Exp)],
), max_leaves=4)
_leaves = st.one_of(
    _real_leaves,
    st.builds(Const, st.complex_numbers(max_magnitude=2)),
    st.builds(Bump, _real_trees, st.integers(0, 1)),
)
_trees = st.recursive(_leaves, lambda kids: st.one_of(
    *[st.builds(cls, kids, kids) for cls in (Add, Sub, Mul, Div)],
    *[st.builds(cls, kids) for cls in (Neg, Sin, Cos, Exp, Sqrt)],
    st.builds(Pow, kids, st.sampled_from(_EXPONENTS)),
), max_leaves=8)
_points = st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                   min_size=1, max_size=3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_trees, _points)
def test_diff_matches_sympy(e, pts):
    f = to_sympy(e)
    pts = [pt for pt in pts if _value(f, pt) is not None]
    for axis in (0, 1):
        ours = to_sympy(e.diff(axis))
        theirs = sympy.diff(f, _X[axis])
        for pt in pts:
            got, want = _value(ours, pt), _value(theirs, pt)
            if got is None or want is None:
                continue  # a singular point of either derivative
            scale = max(abs(got), abs(want), sympy.Float(1e-20))
            assert abs(got - want) <= 1e-12 * scale, (e, axis, pt, got, want)
