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

from grs import engine
from grs.catalog import build, schwarzschild_chart
from grs.engine import GrCondition, verify
from grs.errors import DomainError, EvalSingularity
from grs.exterior import Chart, MetricSpec, form
from grs.scalar import (
    Add, Bump, Const, Coord, Cos, Div, Exp, Expr, Mul, Neg, Pow, Program,
    SampleSet, Sin, Sub, const, coord, exp, sin, sqrt,
)
from test_catalog import known_cases

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


@pytest.mark.parametrize("cid,fx", list(known_cases()))
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
        *[st.builds(cls, kids) for cls in (Neg, Sin, Cos, Exp, sqrt)],
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
    x = coord(0)
    cond = GrCondition(name="both")
    # at x = -1: sqrt(-1) is out of domain and 1/(x + 1) is singular
    cond.add("r", sqrt(x) + 1 / (x + 1))
    assert _outcome(cond.roots(), (-1.0,)) is DomainError
    rep = verify(cond, SampleSet.grid([(-1, 1)], 3), tol=2.0)
    assert rep.excluded == 1 and rep.evaluated == 2
    with pytest.raises(DomainError):
        verify(cond, SampleSet.grid([(-0.5, 1)], 3), tol=2.0)


def test_blocked_reduction_matches_point_at_a_time(monkeypatch):
    """Norms and worst point over several blocks equal a sequential fold."""
    x, y = coord(0), coord(1)
    cond = GrCondition(name="blocks")
    for label, e in [("a", sin(3 * x) * y), ("a", exp(-x * y)), ("b", 1 / x)]:
        cond.add(label, e)
    # a budget of 1,024 rows: 17 x 201 = 3,417 points in four blocks;
    # the 201 with x = 0 are singular
    monkeypatch.setattr(engine, "BLOCK_BYTES", 16 * (Program(cond.roots()).peak + 3) * 1024)
    runs = []
    run = Program.run
    monkeypatch.setattr(Program, "run", lambda self, *a: runs.append(len(a[0])) or run(self, *a))
    sample = SampleSet.grid([(-2, 2), (-1, 1)], (17, 201))
    rep = verify(cond, sample, tol=1e-9)
    assert runs == [1024, 1024, 1024, 345]
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


def _fold(cond, sample):
    """Norms and worst point as ``verify`` reports them, folded one point at
    a time in Python: each point is its own one-row run, a NaN propagates
    into a label's linf and rms, and the worst point is the first with the
    largest component magnitude, a NaN counting as largest."""
    labels = [lab for lab, comps in cond.residuals.items() for _ in comps]
    prog = Program(cond.roots())
    linf = dict.fromkeys(cond.residuals, 0.0)
    sumsq = dict.fromkeys(cond.residuals, 0.0)
    worst, worst_point, evaluated = -1.0, None, 0
    for pt in sample.array().tolist():
        values, singular = prog.run(np.array([pt]))
        if singular[0]:
            continue
        evaluated += 1
        mags = [abs(complex(v[0])) for v in values]
        for lab, m in zip(labels, mags):
            if not m <= linf[lab] and not math.isnan(linf[lab]):  # m larger or NaN
                linf[lab] = m
            sumsq[lab] += m * m
        top = math.nan if any(map(math.isnan, mags)) else max(mags, default=0.0)
        if top > worst or (math.isnan(top) and not math.isnan(worst)):
            worst, worst_point = top, pt
    norms = {lab: {"linf": linf[lab], "rms": (sumsq[lab] / evaluated) ** 0.5}
             for lab in cond.residuals}
    return norms, worst_point


def _edge_conditions():
    x, y = coord(0), coord(1)
    chart = Chart(("x", "y"), MetricSpec.diagonal([1, 1]))
    empty = GrCondition(name="empty label")
    empty.add("a", sin(3 * x) * y)
    empty.add("b", form(chart, 1, {}))  # a label with no components
    for comp in (exp(-x * y), 1e-3 * y, x * x):  # summed point by point
        empty.add("c", comp)
    # at the grid point p = (x0, y0), e is exp(710) = inf, and e - e is NaN
    x0, y0 = _EDGE_SAMPLE.array()[250].tolist()
    e = exp(710 - 1e6 * ((x - x0) * (x - x0) + (y - y0) * (y - y0)))
    nan = GrCondition(name="NaN in a middle component")
    nan.add("a", 1 / x)
    for comp in (sin(3 * x) * y, e - e, exp(-x * y)):
        nan.add("b", comp)
    huge = GrCondition(name="square overflows")
    huge.add("a", sin(x))
    huge.add("b", 1e200 * (x + 3))
    constant = GrCondition(name="constant components")
    constant.add("a", 1 / x)
    for comp in (const(0.5), sin(3 * x) * y, const(-2.0)):  # broadcast per block
        constant.add("b", comp)
    return {"empty": empty, "nan": nan, "huge": huge, "constant": constant}


# 9 x 41 grid points; the one at index 250 (x = 1) is in the second block of
# 150 rows, and the 41 with x = 0 are singular for 1 / x
_EDGE_SAMPLE = SampleSet.grid([(-2, 2), (-1, 1)], (9, 41))


@pytest.mark.parametrize("case", ["empty", "nan", "huge", "constant"])
def test_reduction_edge_cases_match_point_at_a_time(case, monkeypatch):
    cond = _edge_conditions()[case]
    norms, worst_point = _fold(cond, _EDGE_SAMPLE)
    per_row = 16 * (Program(cond.roots()).peak + len(cond.roots()))
    for rows in (None, 150, 7):  # None: the default budget, one block
        if rows is not None:
            monkeypatch.setattr(engine, "BLOCK_BYTES", per_row * rows)
        rep = verify(cond, _EDGE_SAMPLE)
        for lab, want in norms.items():
            got = rep.norms[lab]
            assert _same(complex(got["linf"]), complex(want["linf"])), (rows, lab)
            assert _same(complex(got["rms"]), complex(want["rms"])), (rows, lab)
        assert rep.worst_point == worst_point, rows
    if case == "empty":
        assert norms["b"] == {"linf": 0.0, "rms": 0.0}
    elif case == "nan":
        assert math.isnan(norms["b"]["linf"]) and math.isnan(norms["b"]["rms"])
        assert worst_point == _EDGE_SAMPLE.array()[250].tolist()
    elif case == "huge":
        assert math.isfinite(norms["b"]["linf"]) and norms["b"]["rms"] == math.inf
    else:
        assert norms["b"]["linf"] == 2.0


_finite = st.floats(allow_nan=False, allow_infinity=False)
_operands = st.one_of(_finite, st.builds(complex, _finite, _finite))


def _same(got, want):
    """Equal parts, NaN matching NaN: no tolerance."""
    return all(g == w or (math.isnan(g) and math.isnan(w))
               for g, w in ((got.real, want.real), (got.imag, want.imag)))


def _array_operand(v, axis):
    """A node whose value is ``v`` when coordinate ``axis`` holds v.real
    and ``axis + 1`` holds v.imag; complex if ``v`` is."""
    if isinstance(v, complex):
        return Add(Coord(axis), Mul(Const(1j), Coord(axis + 1)))
    return Coord(axis)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from([Add, Sub, Mul, Div, Neg]), _operands, _operands, st.booleans())
def test_kernels_equal_python_complex_arithmetic(cls, a, b, consts):
    """Array and constant kernels give CPython's complex results bit for bit."""
    if cls is Div and math.hypot(b.real, b.imag) < _FLOOR:
        return  # singular: excluded, not evaluated
    if consts:
        pt, ea, eb = [0.0], Const(a), Const(b)
    else:
        pt = [a.real, a.imag, b.real, b.imag]
        ea, eb = _array_operand(a, 0), _array_operand(b, 2)
    node = Neg(ea) if cls is Neg else cls(ea, eb)
    va, vb, got = Program([ea, eb, node]).at([pt])[:, 0].tolist()
    assert va == a and vb == b
    want = -va if cls is Neg else _BINARY[cls](va, vb)
    assert _same(got, want), (got, want)


def _one_of_each():
    """One node of every concrete type over coordinates 0 and 1."""
    x, y = Coord(0), Coord(1)
    s = Add(Mul(Const(0.5), x), Const(0.25j))
    return [
        Const(1.5), Const(0.5 - 2j), x,
        Add(x, y), Sub(x, s), Mul(s, y), Div(s, Add(y, Const(3.0))), Neg(s),
        Pow(s, Fraction(3)), Pow(Add(y, Const(3.0)), Fraction(-3, 2)),
        Sin(s), Cos(x), Exp(s), sqrt(Add(y, Const(3.0))),
        Bump(x, 0), Bump(Mul(Const(0.5), y), 1), Bump(x, 2),
    ]


def _concrete(cls):
    for sub in cls.__subclasses__():
        if "_eval" in vars(sub):
            yield sub
        yield from _concrete(sub)


def test_every_node_type_has_at_most_two_children():
    # Program keeps two input slots per op; a kernel ignores those its node lacks
    nodes = _one_of_each()
    assert {type(n) for n in nodes} == set(_concrete(Expr))
    assert all(len(n._parts()[0]) <= 2 for n in nodes)
    # the folding constructors recognise constants by exact type
    assert not Const.__subclasses__()


def test_a_program_of_every_node_type_matches_reference():
    roots = _one_of_each()
    pts = [(0.3, -0.7), (-0.9, 1.2), (0.0, 0.5), (1.4, -1.1)]
    got = Program(roots).at(pts)
    for j, pt in enumerate(pts):
        want = _outcome(roots, pt)
        assert isinstance(want, list)
        assert all(map(_close, got[:, j].tolist(), want)), (pt, got[:, j], want)
