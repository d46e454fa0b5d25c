"""The compiled evaluator against a pointwise ``cmath`` reference.

``ref_eval`` keeps the semantics of the per-point closure evaluator the
package used before evaluation was compiled to array programs: Python
``complex``/``float`` arithmetic, ``cmath`` functions, and an exception
at the first singular or out-of-domain node.  It is a reference for the
tests only.
"""

import cmath
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs.catalog import build, catalog_ids, fixtures, schwarzschild_chart
from grs.engine import GrCondition, verify
from grs.errors import DomainError, EvalSingularity
from grs.exterior import Chart, MetricSpec
from grs.scalar import (
    Add, Bump, Const, Coord, Cos, Div, Exp, Mul, Neg, Pow, Program, SampleSet,
    Sin, Sqrt, Sub, coord, exp, sin, sqrt,
)

_FLOOR = 1e-300
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_UNARY = {Neg: operator.neg, Sin: cmath.sin, Cos: cmath.cos, Exp: cmath.exp}


def ref_eval(e, pt, memo):
    """Value of ``e`` at ``pt``, one node at a time, as the closures computed it.

    ``memo`` maps id(node) to values already computed at this point.
    """
    if id(e) in memo:
        return memo[id(e)]
    t = type(e)
    if t is Const:
        v = e.value
    elif t is Coord:
        v = pt[e.axis]
    elif t in _BINARY:
        a, b = ref_eval(e.a, pt, memo), ref_eval(e.b, pt, memo)
        if t is Div and abs(b) < _FLOOR:
            raise EvalSingularity(f"division by {b!r}")
        v = _BINARY[t](a, b)
    elif t is Pow:
        a, ex = ref_eval(e.a, pt, memo), e.exponent
        if ex < 0 and abs(a) < _FLOOR:
            raise EvalSingularity(f"{a!r} ** {ex}")
        if ex.denominator == 2 and a.imag == 0.0 and a.real < 0.0:
            raise DomainError(f"negative base {a.real} under half-integer power {ex}")
        v = a ** (int(ex) if ex.denominator == 1 else float(ex))
    elif t is Sqrt:
        a = ref_eval(e.a, pt, memo)
        if a.imag == 0.0 and a.real < 0.0:
            raise DomainError(f"sqrt of negative real {a.real}")
        v = cmath.sqrt(a)
    elif t is Bump:
        s = ref_eval(e.a, pt, memo).real
        w = 1.0 - s * s
        v = 0.0 if w <= 0.0 else math.exp(-1.0 / w)
        if w > 0.0 and e.order:
            w1 = -2.0 * s / (w * w)
            w2 = -2.0 / (w * w) - 8.0 * s * s / (w * w * w)
            v = (w1 if e.order == 1 else w2 + w1 * w1) * v
    else:
        v = _UNARY[t](ref_eval(e.a, pt, memo))
    memo[id(e)] = v
    return v


def _outcome(roots, pt):
    """Reference values of ``roots`` at ``pt``, or the exception type raised."""
    memo = {}
    try:
        return [complex(ref_eval(r, pt, memo)) for r in roots]
    except (EvalSingularity, DomainError, OverflowError, ZeroDivisionError,
            ValueError) as e:
        return type(e)


def _close(got, want):
    if not (cmath.isfinite(got) and cmath.isfinite(want)):
        return not (cmath.isfinite(got) or cmath.isfinite(want))
    return abs(got - want) <= max(1e-13 * abs(want), 1e-15)


def _check_row(want, values, singular):
    """Program values at one point against the reference outcome there."""
    if want is EvalSingularity or want is DomainError:
        # a point both singular and out of domain is excluded
        assert singular, want
    elif isinstance(want, list):
        assert not singular
        assert all(map(_close, values, want)), (values, want)
    # overflow in the reference: the program carries inf/nan instead


def _catalog_cases():
    for cid in catalog_ids():
        for fx in fixtures(cid):
            yield pytest.param(cid, fx, id=f"{cid}-{fx.name}")


@pytest.mark.parametrize("cid,fx", list(_catalog_cases()))
def test_catalog_residuals_match_reference(cid, fx):
    roots = build(cid, fx.chart, **fx.params).roots()
    pts = fx.sample.array()
    prog = Program(roots)
    values, singular = prog.run(pts)
    for i, row in enumerate(pts.tolist()):
        got = [complex(v[i]) for v in values]
        _check_row(_outcome(roots, tuple(row)), got, singular[i])
        if i < 8:
            # a batch row is bit-identical to the same point on its own
            one, _ = prog.run(np.array([row]))
            assert got == [complex(v[0]) for v in one]


_EXPONENTS = [Fraction(k) for k in (-3, -2, -1, 2, 3)] + \
    [Fraction(k, 2) for k in (-3, -1, 1, 3)]
_leaves = st.one_of(
    st.builds(Coord, st.integers(0, 1)),
    st.builds(Const, st.floats(-2, 2)),
    st.builds(Const, st.complex_numbers(max_magnitude=2)),
)


def _extend(kids):
    return st.one_of(
        *[st.builds(cls, kids, kids) for cls in (Add, Sub, Mul, Div)],
        *[st.builds(cls, kids) for cls in (Neg, Sin, Cos, Exp, Sqrt)],
        st.builds(Pow, kids, st.sampled_from(_EXPONENTS)),
        st.builds(Bump, kids, st.integers(0, 2)),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=12)
_points = st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                   min_size=1, max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trees, _trees, _points)
def test_random_trees_match_reference(a, b, pts):
    roots = [a, b, Add(a, b)]
    prog = Program(roots)
    for pt in pts:
        want = _outcome(roots, pt)
        try:
            values, singular = prog.run(np.array([pt]))
        except DomainError:
            assert want is DomainError, (pt, want)
            continue
        _check_row(want, [complex(v[0]) for v in values], singular[0])


def test_program_has_one_op_per_distinct_subtree():
    # 475 node objects, 198 structurally distinct, in Schwarzschild's Ricci
    roots = build("ricci_flat", schwarzschild_chart(1.0)).roots()
    assert len(Program(roots)) == 198
    x, y = coord(0), coord(1)
    # two separately built copies of sin(x) * y: x, y, sin, *, +
    assert len(Program([sin(x) * y + sin(x) * y])) == 5


def test_singular_and_out_of_domain_point_is_excluded():
    r1 = Chart(("x",), MetricSpec.diagonal([1]))
    x = coord(0)
    cond = GrCondition(name="both", chart=r1)
    # at x = -1: sqrt(-1) is out of domain and 1/(x + 1) is singular
    cond.add_exprs([("r", sqrt(x) + 1 / (x + 1))])
    assert _outcome(cond.roots(), (-1.0,)) is DomainError
    rep = verify(cond, SampleSet.grid([(-1, 1)], 3), tol=2.0)
    assert rep.excluded == 1 and rep.evaluated == 2
    with pytest.raises(DomainError):
        verify(cond, SampleSet.grid([(-0.5, 1)], 3), tol=2.0)


def test_blocked_reduction_matches_point_at_a_time():
    """Norms and worst point over several blocks equal a sequential fold."""
    r2 = Chart(("x", "y"), MetricSpec.diagonal([1, 1]))
    x, y = coord(0), coord(1)
    cond = GrCondition(name="blocks", chart=r2)
    cond.add_exprs([("a", sin(3 * x) * y), ("a", exp(-x * y)),
                    ("b", 1 / x)])
    # 17 x 201 = 3,417 points in four blocks; the 201 with x = 0 are singular
    sample = SampleSet.grid([(-2, 2), (-1, 1)], (17, 201))
    rep = verify(cond, sample, tol=1e-9)
    linf = {"a": 0.0, "b": 0.0}
    sumsq = {"a": 0.0, "b": 0.0}
    worst, worst_point, excluded = -1.0, None, 0
    for pt in map(tuple, sample.array().tolist()):
        values = _outcome(cond.roots(), pt)
        if values is EvalSingularity:
            excluded += 1
            continue
        mags = [abs(v) for v in values]
        for lab, m in zip(("a", "a", "b"), mags):
            linf[lab] = max(linf[lab], m)
            sumsq[lab] += m * m
        if max(mags) > worst:
            worst, worst_point = max(mags), list(pt)
    evaluated = sample.requested - excluded
    assert (rep.excluded, rep.evaluated) == (excluded, evaluated) == (201, 3216)
    for lab in ("a", "b"):
        assert rep.norms[lab] == {"linf": linf[lab],
                                  "rms": (sumsq[lab] / evaluated) ** 0.5}
    assert rep.worst_point == worst_point
