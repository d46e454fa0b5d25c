"""``Expr.diff`` against SymPy on generated expression trees, and Riemann
and Ricci against a SymPy/numpy oracle.

Each tree is converted to SymPy and differentiated there; the package's
derivative tree is converted the same way.  Both are evaluated at 30
digits at sample points, so the comparison sees the differentiation
rules and not the rounding of double-precision evaluation.

The curvature oracle shares no code with ``diffops``: SymPy
differentiates each metric entry twice, and numpy forms g^-1, Gamma,
dGamma and the Riemann tensor from those values at a point.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs.catalog import schwarzschild_chart, sphere_chart
from grs.diffops import ricci, riemann
from grs.scalar import (
    Add, Bump, Const, Coord, Cos, Div, Exp, Mul, Neg, Pow, Program, Sin, Sub, as_expr, sqrt,
)
from test_diffops import pulled_back_euclidean

sympy = pytest.importorskip("sympy")

_X = sympy.symbols("x0:4", real=True)
_T = sympy.Symbol("t", real=True)
# the bump profile exp(-1/(1-t^2)) on |t| < 1 and its first two derivatives
_BUMP = [sympy.diff(sympy.exp(-1 / (1 - _T ** 2)), _T, k) for k in range(3)]
_BINARY = {Add: sympy.Add, Mul: sympy.Mul,
           Sub: lambda a, b: a - b, Div: lambda a, b: a / b}
_UNARY = {Neg: lambda a: -a, Sin: sympy.sin, Cos: sympy.cos, Exp: sympy.exp}


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
    *[st.builds(cls, kids) for cls in (Neg, Sin, Cos, Exp, sqrt)],
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


def _metric_jet(metric, pt):
    """g, dg[k] = d_k g and ddg[k, l] = d_k d_l g at ``pt``, from SymPy's
    exact derivatives of each entry."""
    n = metric.dim
    xs = _X[:n]
    at = {x: sympy.Float(p, 30) for x, p in zip(xs, pt)}
    g, dg, ddg = np.empty((n, n)), np.empty((n, n, n)), np.empty((n, n, n, n))
    for i, j in itertools.product(range(n), repeat=2):
        e = to_sympy(as_expr(metric.entries()[i][j]))
        g[i, j] = float(e.evalf(30, subs=at))
        for k in range(n):
            ek = sympy.diff(e, xs[k])
            dg[k, i, j] = float(ek.evalf(30, subs=at))
            for l in range(n):
                ddg[k, l, i, j] = float(sympy.diff(ek, xs[l]).evalf(30, subs=at))
    return g, dg, ddg


def _oracle_riemann(g, dg, ddg):
    """R[rho, sigma, mu, nu] = d_mu G^rho_nu_sigma - d_nu G^rho_mu_sigma
    + G^rho_mu_lam G^lam_nu_sigma - G^rho_nu_lam G^lam_mu_sigma, in numpy."""
    ginv = np.linalg.inv(g)
    # first kind: G1[r, m, n] = (d_m g_rn + d_n g_rm - d_r g_mn) / 2, and its d_k
    g1 = 0.5 * (np.einsum("mrn->rmn", dg) + np.einsum("nrm->rmn", dg) - dg)
    dg1 = 0.5 * (np.einsum("kmrn->krmn", ddg) + np.einsum("knrm->krmn", ddg) - ddg)
    gam = np.einsum("lr,rmn->lmn", ginv, g1)
    dginv = -np.einsum("la,kab,br->klr", ginv, dg, ginv)  # d_k g^-1 = -g^-1 (d_k g) g^-1
    dgam = np.einsum("klr,rmn->klmn", dginv, g1) + np.einsum("lr,krmn->klmn", ginv, dg1)
    return (np.einsum("mrns->rsmn", dgam) - np.einsum("nrms->rsmn", dgam)
            + np.einsum("rml,lns->rsmn", gam, gam) - np.einsum("rnl,lms->rsmn", gam, gam))


@pytest.mark.parametrize("make_chart, points", [
    (sphere_chart, [(0.8, 0.1), (1.9, -0.4)]),
    (schwarzschild_chart, [(3.5, 0.7, 0.2, 0.0), (7.0, 2.1, -1.0, 4.0)]),
    (lambda: pulled_back_euclidean(conformal=True), [(0.9, -0.3, 0.4), (-0.7, 0.5, 1.1)]),
], ids=["sphere", "schwarzschild", "conformal"])
def test_riemann_and_ricci_match_a_sympy_numpy_oracle(make_chart, points):
    metric = make_chart().metric
    n = metric.dim
    R, ric = riemann(metric), ricci(metric)
    got_R = Program([R[a][b][c][d] for a in range(n) for b in range(n) for c in range(n)
                     for d in range(n)]).at(points).real
    got_ric = Program([ric[a][b] for a in range(n) for b in range(n)]).at(points).real
    for k, pt in enumerate(points):
        want = _oracle_riemann(*_metric_jet(metric, pt))
        scale = np.max(np.abs(want))
        assert scale > 0.01
        assert np.max(np.abs(got_R[:, k] - want.ravel())) <= 1e-10 * scale
        want_ric = np.einsum("msmn->sn", want)
        assert np.max(np.abs(got_ric[:, k] - want_ric.ravel())) <= 1e-10 * scale
