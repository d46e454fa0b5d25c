import cmath
import gc
import hashlib
import itertools
import math
import operator
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
    Add,
    Bump,
    Cos,
    Div,
    Exp,
    Expr,
    Mul,
    Neg,
    Pow,
    Program,
    ONE,
    SampleSet,
    Sin,
    Sub,
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


def test_division_by_one_and_power_zero_fold():
    assert (x / 1) is x
    assert (x ** 0) is ONE


@pytest.mark.parametrize("base,exponent,value", [
    (10.0, 400, math.inf), (-10.0, 401, -math.inf), (10.0, Fraction(801, 2), math.inf),
])
def test_constant_power_that_overflows_stays_a_power(base, exponent, value):
    # Python's ** raises OverflowError here; the unfolded node evaluates to +-inf
    e = const(base) ** exponent
    assert isinstance(e, Pow)
    assert e.ev(()) == value


# a power folded at build time equals what its node evaluates to; the
# exponents include |n| > 100, where Python's complex ** goes polar
_FOLD_BASES = [2, 3, 7, 1.1, 0.9, 1e-5, 123.456, -2, 1j, 1 + 2j, -0.5 + 0.1j]
_FOLD_EXPONENTS = [Fraction(k, 2) for k in range(-9, 10)] + [Fraction(k) for k in (-101, 101, 150)]


def test_constant_power_folds_to_what_its_node_evaluates_to():
    kept = []
    for b, e in itertools.product(_FOLD_BASES, _FOLD_EXPONENTS):
        folded = const(b) ** e
        if isinstance(folded, Pow):
            kept.append((b, e))
            continue
        (node,), _ = Program([Pow(const(b), e)]).run(np.zeros((1, 0)))
        z = complex(node[0])
        assert _bits([folded.value.real, folded.value.imag]) == _bits([z.real, z.imag]), (b, e)
    # two overflows and a negative real under a half-integer power
    assert kept == [(1e-5, -101), (123.456, 150)] + [
        (-2, Fraction(k, 2)) for k in range(-9, 10, 2)]


_REAL_OPERANDS = [math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 1e-308, 2.0, -0.5]


@pytest.mark.parametrize("op,node", [(operator.mul, Mul), (operator.truediv, Div)],
                         ids=["mul", "div"])
def test_real_constant_product_and_quotient_fold_to_what_their_node_evaluates_to(op, node):
    # complex arithmetic would give inf * 2 the imaginary part inf * 0 = NaN
    for a, b in itertools.product(_REAL_OPERANDS, repeat=2):
        folded = op(const(a), const(b))
        if isinstance(folded, Div):
            assert abs(b) < 1e-300, b  # a divisor under the floor stays a node
            continue
        (value,), _ = Program([node(const(a), const(b))]).run(np.zeros((1, 0)))
        z = complex(value[0])
        assert _bits([folded.value.real, folded.value.imag]) == _bits([z.real, z.imag]), (a, b)


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


def test_sqrt_is_the_half_power():
    assert intern_ops([sqrt(x)]) == intern_ops([x ** Fraction(1, 2)])


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

    def test_every_node_starts_with_an_empty_memo(self):
        # diff reads the memo of each child; an unset slot would raise there
        a, b = coord(0), coord(1)  # not the shared x and y, which earlier tests differentiate
        made = [const(2.0), a, a + b, a - b, a * b, a / b, a ** -1, sqrt(a), -a,
                sin(a), cos(a), exp(a), bump(a)]
        assert sorted({type(e).__name__ for e in made}) == [
            "Add", "Bump", "Const", "Coord", "Cos", "Div", "Exp", "Mul", "Neg", "Pow", "Sin",
            "Sub"]
        assert [e._d for e in made] == [None] * len(made)

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


_MAKERS = {"add": Add, "sub": Sub, "mul": Mul, "div": Div, "neg": Neg, "sin": Sin,
           "cos": Cos, "exp": Exp}


@st.composite
def _dags(draw):
    """Roots of a random DAG: node constructors (no folding) over a pool
    that grows by one node a step, so later nodes share earlier ones."""
    pool = [coord(0), coord(1), const(0.0), const(-0.0), const(0.0), const(complex(-0.0, 2.0))]
    for _ in range(draw(st.integers(1, 10))):
        a = pool[draw(st.integers(0, len(pool) - 1))]
        kind = draw(st.sampled_from(sorted(_MAKERS) + ["square", "pow", "bump"]))
        if kind in ("add", "sub", "mul", "div"):
            node = _MAKERS[kind](a, pool[draw(st.integers(0, len(pool) - 1))])
        elif kind == "square":
            node = Mul(a, a)
        elif kind == "pow":
            node = Pow(a, Fraction(draw(st.integers(-3, 4)), draw(st.sampled_from([1, 2]))))
        elif kind == "bump":
            node = Bump(a, draw(st.integers(0, 1)))
        else:
            node = _MAKERS[kind](a)
        pool.append(node)
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


def _copy(e):
    """A tree structurally equal to ``e`` that shares no node with it."""
    kids, param = e._parts()
    kids = [_copy(k) for k in kids]
    return type(e)(*kids) if param is None else type(e)(*kids, param)


def _param_key(p):
    return p.tobytes() if isinstance(p, np.generic) else p


def _ops_by_key(ops):
    types, params, a, b, roots, last = ops
    return types, [_param_key(p) for p in params], a, b, roots, last


def _reference_ops(roots):
    """``intern_ops`` by recursion: post-order, right child first, one op
    per structural key, a constant's param by its bits."""
    index, seen = {}, {}

    def visit(e):
        if id(e) not in seen:  # a node met again has its slot already
            kids, param = e._parts()
            slots = [visit(k) for k in reversed(kids)][::-1] + [-1] * (2 - len(kids))
            seen[id(e)] = index.setdefault((type(e), _param_key(param), *slots), len(index))
        return seen[id(e)]

    root_slots = [visit(r) for r in roots]
    ops = list(index)  # in insertion order, which is op order
    last = [-1] * len(ops)
    for i, (_, _, a, b) in enumerate(ops):
        for k in (a, b):
            if k >= 0:
                last[k] = i
    return ([op[0] for op in ops], [op[1] for op in ops], [op[2] for op in ops],
            [op[3] for op in ops], root_slots, last)


def _op_list_digest(prog):
    """SHA-256 of a program's ops and roots.  Each op is hashed as the
    tuple (kernel qualname, param, child slots, dead slots) rebuilt from
    the program's columns, its dead slots in the order of each slot's
    first use; numpy scalars are hashed as Python numbers."""
    first_use = {}
    for a, b in zip(prog._a, prog._b):
        for k in (a, b):
            if k >= 0:
                first_use.setdefault(k, len(first_use))
    h = hashlib.sha256()
    for ev, param, a, b, fa, fb in zip(prog._evs, prog._params, prog._a, prog._b,
                                       prog._fa, prog._fb):
        if isinstance(param, np.generic):
            param = param.item()
        args = tuple(k for k in (a, b) if k >= 0)
        dead = sorted((k for k in (fa, fb) if k >= 0), key=first_use.__getitem__)
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
        # a binary node's children are read from its slots, so _parts runs
        # only on the 121 leaves and one-child nodes of the 1,367, each once
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
        assert _node_objects(roots) == 1367
        assert len(seen) == len({id(n) for n in seen}) == 121

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

    def test_program_size_in_tracked_objects_does_not_grow_with_ops(self):
        # a Program keeps its ops in a fixed set of columns, not in a
        # container per op, so it gives the cyclic collector no more to
        # scan for 2,113 ops than for 198
        charts = [catalog.schwarzschild_chart(1.0),
                  Chart(("u0", "u1", "u2", "u3"), MetricSpec.matrix(_dense_flat_rows(True)))]
        roots = [catalog.build("ricci_flat", ch).roots() for ch in charts]
        progs, held = [], []
        for r in roots:
            Program(r)  # a first build fills whatever is cached on the way
            gc.collect()
            gc.disable()
            try:
                before = len(gc.get_objects())
                progs.append(Program(r))
                held.append(len(gc.get_objects()) - before)
            finally:
                gc.enable()
        assert [len(p) for p in progs] == [198, 2113]
        assert held[0] == held[1]

    def test_compiling_sets_off_no_collection(self):
        # intern_ops keys its ops by ints and bytes, which the cyclic
        # collector does not track, so ten compiles of 2,113 ops allocate
        # too few tracked objects to start even a young collection
        ch = Chart(("u0", "u1", "u2", "u3"), MetricSpec.matrix(_dense_flat_rows(True)))
        roots = catalog.build("ricci_flat", ch).roots()
        assert len(Program(roots)) == 2113
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            for _ in range(10):
                Program(roots)
        finally:
            gc.callbacks.remove(count)
        assert started == []

    @pytest.mark.parametrize("first, second", [
        (0.0, -0.0), (-0.0, 0.0), (complex(0.0, -1.0), -1j), (-1j, complex(0.0, -1.0))])
    def test_constants_differing_in_a_sign_of_zero_stay_apart(self, first, second):
        # equal as numbers, yet each keeps its own sign of zero
        for roots in ([sin(const(first)), sin(const(second))], [const(first), const(second)]):
            values, _ = Program(roots).run(np.zeros((1, 1)))
            assert [np.signbit(v.real).tolist() for v in values] == [
                [math.copysign(1.0, complex(c).real) < 0] for c in (first, second)]
        assert len(Program([const(first), const(second)])) == 2

    def test_peak_live_values(self):
        # the most values a Schwarzschild ricci_flat run holds at once
        prog = Program(catalog.build("ricci_flat", catalog.schwarzschild_chart(1.0)).roots())
        assert prog.peak == 41

    def test_libm_kernels_return_contiguous_rows(self):
        # a real input's values come back as their own contiguous array,
        # not as a strided view of a complex one
        z = x + 0.5j * y
        roots = [f(a) for a in (x, z) for f in (sin, cos, exp, lambda a: bump(0.5 * a))]
        values, _ = Program(roots).run(np.random.default_rng(1).uniform(-1, 1, (50, 2)))
        for v in values:
            assert v.shape == (50,) and v.flags.c_contiguous, v.strides

    def test_libm_of_a_constant_equals_math(self):
        # a constant's value stays a scalar, broadcast to each block's rows
        prog = Program([sin(const(0.5)), x])
        sample = SampleSet.random_box([(-1, 1)], 40, seed=2)
        for rows in (1, 7, sample.requested):
            for block in sample.blocks(rows):
                values, _ = prog.run(block)
                assert values[0].tolist() == [math.sin(0.5)] * len(block)

    def test_empty_program(self):
        prog = Program([])
        assert (len(prog), prog.peak) == (0, 0)
        values, singular = prog.run(np.zeros((3, 2)))
        assert values == [] and not singular.any()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_walk_matches_a_recursive_reference(self, data):
        roots = data.draw(_dags())
        assert _ops_by_key(intern_ops(roots)) == _reference_ops(roots)
        copies = [_copy(r) for r in roots]
        for axis in (0, 1):
            derivs = [r.diff(axis) for r in roots]
            ops = _ops_by_key(intern_ops(derivs))
            assert ops == _ops_by_key(intern_ops([c.diff(axis) for c in copies]))
            assert ops == _reference_ops(derivs)

    def test_deep_chain_needs_no_deep_recursion(self):
        e = x
        for _ in range(20000):
            e = sin(e)
        value, slope = Program([e, e.diff(0)]).at([[0.5]])[:, 0].tolist()
        s, d = 0.5, 1.0
        for _ in range(20000):
            s, d = math.sin(s), d * math.cos(s)
        assert value == s and slope == pytest.approx(d, rel=1e-12)


def test_fd_convergence_is_fourth_order():
    e = sin(x) * exp(x)
    at = (0.37,)
    exact = e.diff(0).ev(at)
    err_h = abs(fd_diff(e, 0, at, h=0.1) - exact)
    err_h2 = abs(fd_diff(e, 0, at, h=0.05) - exact)
    assert 12.0 <= err_h / err_h2 <= 20.0


def test_fd_step_must_be_positive():
    with pytest.raises(DomainError, match="step must be positive"):
        fd_diff(sin(x), 0, (0.5,), h=0)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_fd_step_must_be_finite(h):
    with pytest.raises(DomainError, match="step must be positive and finite"):
        fd_diff(sin(x), 0, (0.5,), h=h)


def _bits(values):
    """The IEEE bit patterns of float ``values``, every NaN as one pattern."""
    v = np.array(values, dtype=float)
    return np.where(np.isnan(v), np.nan, v).view(np.uint64).tolist()


def _math_or_nan(f, t):
    try:
        return f(t)
    except ValueError:  # math.sin(inf) and math.cos(inf) raise
        return math.nan


class TestRealKernels:
    """Sin, Cos and Exp of a real operand equal ``math`` bit for bit.

    Sin and Cos run on numpy's real kernels; Exp runs on its complex one,
    because numpy's real ``exp`` differs from libm in the last bit on a few
    percent of arguments (9,409 of 200,000 draws in [0.3, 2.8]).
    """

    # 200,000 magnitudes, log-uniform in 1e-8..1e8, with random signs
    DRAWS = (10.0 ** np.random.default_rng(29).uniform(-8, 8, 200_000)
             * np.random.default_rng(30).choice([-1.0, 1.0], 200_000))
    SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300]

    @pytest.mark.parametrize("node,f", [(sin, math.sin), (cos, math.cos)])
    def test_sin_and_cos_of_a_real_block_equal_math(self, node, f):
        (got,), _ = Program([node(x)]).run(self.DRAWS[:, None])
        assert got.dtype == np.float64
        assert _bits(got) == _bits([f(t) for t in self.DRAWS.tolist()])

    @pytest.mark.parametrize("cls,f", [(Sin, math.sin), (Cos, math.cos)])
    def test_sin_and_cos_of_a_constant_equal_math(self, cls, f):
        # the kernel a constant's op runs: its value is a 0-d numpy float
        got = [cls._eval(None, None, c, None) for c in map(np.float64, self.DRAWS.tolist())]
        assert all(type(v) is np.float64 for v in got[:100])
        assert _bits(got) == _bits([f(t) for t in self.DRAWS.tolist()])

    @pytest.mark.parametrize("node,f", [(sin, math.sin), (cos, math.cos)])
    def test_special_values_equal_math(self, node, f):
        want = _bits([_math_or_nan(f, t) for t in self.SPECIAL])
        (block,), _ = Program([node(x)]).run(np.array(self.SPECIAL)[:, None])
        assert _bits(block) == want
        # one program per constant: +0.0 and -0.0 are one op key
        consts = [Program([node(const(t))]).run(np.zeros((1, 1)))[0][0][0] for t in self.SPECIAL]
        assert _bits(consts) == want

    def test_a_negative_zero_coordinate_keeps_its_sign(self):
        (s, c, sc), _ = Program([sin(x), cos(x), sin(const(-0.0))]).run(np.array([[-0.0]]))
        assert math.copysign(1.0, s[0]) == -1.0 and s[0] == 0.0
        assert math.copysign(1.0, sc[0]) == -1.0
        assert c[0] == 1.0

    def test_exp_of_a_real_block_equals_math(self):
        # [0.3, 2.8] is where numpy's real exp departs from libm's
        rng = np.random.default_rng(31)
        draws = np.concatenate([rng.uniform(0.3, 2.8, 100_000), rng.uniform(-700, 700, 100_000)])
        (got,), _ = Program([exp(x)]).run(draws[:, None])
        assert got.dtype == np.float64
        assert _bits(got) == _bits([math.exp(t) for t in draws.tolist()])
        consts = [Exp._eval(None, None, c, None) for c in map(np.float64, draws[:2000].tolist())]
        assert _bits(consts) == _bits([math.exp(t) for t in draws[:2000].tolist()])

    @pytest.mark.parametrize("node,f", [(sin, cmath.sin), (cos, cmath.cos), (exp, cmath.exp)])
    def test_complex_arguments_equal_cmath(self, node, f):
        rng = np.random.default_rng(32)
        z = rng.uniform(-20, 20, 20_000) + 1j * rng.uniform(-20, 20, 20_000)
        (got,), _ = Program([node(x + 1j * y)]).run(np.column_stack([z.real, z.imag]))
        assert got.dtype == np.complex128
        # x + 1j * y is z exactly: 1j * y has a zero real part
        want = np.array([f(t) for t in z.tolist()])
        assert _bits(got.real) == _bits(want.real) and _bits(got.imag) == _bits(want.imag)


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

    def test_no_points_rejected(self):
        with pytest.raises(DomainError, match="at least one point per axis"):
            SampleSet.grid([(0, 1), (0, 2)], 0)
        with pytest.raises(DomainError, match="sample count must be >= 1"):
            SampleSet.random_box([(0, 1)], 0, seed=1)

    def test_bounds_respected(self):
        s = SampleSet.random_box([(-1, 1), (3, 4)], 200, seed=11)
        for px, py in s.array().tolist():
            assert -1 <= px <= 1 and 3 <= py <= 4

    def test_exclusion_predicate(self):
        s = SampleSet.grid([(0, 1)], 5).with_exclusion(lambda p: p[0] < 0.5)
        kept = [p for p in map(tuple, s.array().tolist()) if not s.exclude(p)]
        assert len(kept) == 3

    def test_array_holds_the_kept_points(self):
        s = SampleSet.grid([(0, 1)], 5).with_exclusion(lambda p: p[0] < 0.5)
        assert s.array().tolist() == [[0.5], [0.75], [1.0]]

    @pytest.mark.parametrize("sample", [
        SampleSet.random_box([(-1, 2), (0, 1), (3, 4)], 1000, seed=5),
        SampleSet.grid([(-1, 1), (2, 3), (0, 3)], (10, 1, 7)),
        SampleSet.grid([(-1, 1), (0, 3)], (31, 7)).with_exclusion(lambda p: p[0] < 0.2),
    ], ids=["random", "grid-one-point-axis", "grid-predicate"])
    def test_blocks_concatenate_to_array(self, sample):
        whole = sample.array()
        for rows in (1, 7, 333, sample.requested):
            blocks = list(sample.blocks(rows))
            assert all(len(b) <= rows for b in blocks)
            assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_random_blocks_are_one_stream_of_draws(self):
        # bit-equal to Generator.uniform's draws: blocks scale rng.random()
        # themselves, so a platform where that rounds differently fails here
        # instead of moving every report digest
        boxes = [[(3, 10), (0.3, 2.8), (0, 6.2), (-1, 1)], [(-1e3, 1e3)] * 4]
        for seed in (0, 5, 2 ** 63):
            for dim in range(1, 5):
                for box in (b[:dim] for b in boxes):
                    lows, highs = zip(*box)
                    want = np.random.default_rng(seed).uniform(lows, highs, size=(100, dim))
                    s = SampleSet.random_box(box, 100, seed=seed)
                    for rows in (1, 7, s.requested):
                        got = np.concatenate(list(s.blocks(rows)))
                        assert got.tobytes() == want.tobytes(), (seed, dim, box, rows)

    def test_grid_needs_one_count_per_range(self):
        with pytest.raises(DomainError) as err:
            SampleSet.grid([(0, 1), (0, 1)], (3,))
        assert str(err.value) == "grid needs one point count per range, got 1 for 2"

    @pytest.mark.parametrize("make", [
        lambda: SampleSet.grid([], 3),
        lambda: SampleSet.random_box([], 5, seed=1),
    ], ids=["grid", "random"])
    def test_a_sample_set_needs_a_range(self, make):
        with pytest.raises(DomainError) as err:
            make()
        assert str(err.value) == "a sample set needs at least one range"

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            SampleSet.random_box([(-1, 1)], 10, seed=-1)
        # the grid kind carries no seed
        SampleSet.grid([(-1, 1)], 3)

    def test_a_grid_is_the_set_without_a_seed(self):
        g = SampleSet.grid([(0, 1), (0, 2)], 3)
        r = SampleSet.random_box([(0, 1), (0, 2)], 50, seed=3)
        assert (g.counts, g.seed, g.requested) == ((3, 3), None, 9)
        assert (r.counts, r.seed, r.requested) == ((50,), 3, 50)
        assert SampleSet(r.bounds, r.counts, r.seed).array().tobytes() == r.array().tobytes()

    @pytest.mark.parametrize("make, message", [
        (lambda: SampleSet([(0, 1), (0, 2)], (3, 0)), "grid needs at least one point per axis"),
        (lambda: SampleSet([(0, 1)], (0,), seed=1), "sample count must be >= 1"),
        (lambda: SampleSet([(0, 1), (0, 1)], (3,)),
         "grid needs one point count per range, got 1 for 2"),
        (lambda: SampleSet([(0, 1)], (3,), seed=-1), "seed must be >= 0, got -1"),
        (lambda: SampleSet([(0, 1)], (3, 3), seed=1), "a random sample set needs one count, got 2"),
    ], ids=["grid-count-0", "random-count-0", "grid-short-counts", "negative-seed",
            "random-two-counts"])
    def test_constructor_checks_every_field(self, make, message):
        with pytest.raises(DomainError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize("bounds", [(-math.inf, 2), (0, math.nan), (-1e308, 1e308)])
    def test_non_finite_range_rejected(self, bounds):
        with pytest.raises(DomainError, match="finite"):
            SampleSet.random_box([bounds], 10, seed=1)
        with pytest.raises(DomainError, match="finite"):
            SampleSet.grid([bounds], 3)
