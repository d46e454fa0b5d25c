"""Symbolic scalar fields on a coordinate chart.

Expression trees support exact partial differentiation and evaluation in
IEEE doubles (complex) over arrays of sample points.  Trees are immutable
and are never rewritten after construction; the only folding happens in
the smart constructors (constants, additive/multiplicative identities),
which keeps derivative trees from blowing up without ever touching an
existing node.

Derivatives are cached per node and axis.  Every differentiation rule
takes its children's derivatives from ``Expr.diff``, so a subtree shared
by many parents (the metric inverse under every Christoffel symbol, say)
is differentiated once and its derivative is one shared object.  Since a
tree never changes, a cached derivative cannot go stale.  The derivative
of ``exp(a)`` refers back to its own node, so such a node and its cache
form a reference cycle, which the cyclic garbage collector frees like any
other.

Evaluation goes through one path: a ``Program`` compiles a list of root
expressions in one walk to the columns of a deduplicated, topologically
sorted op list and runs each op once per call on whole arrays of points,
handing its node type's kernel the node's parameter and two input arrays,
of which it reads one per child.  The arithmetic follows CPython's
``complex``/``cmath`` formulas (Smith division, binary integer powers,
libm ``exp`` through numpy's complex kernel, ``sin`` and ``cos`` through
numpy's own kernels, which give libm's values for real input), so
results match a pointwise ``cmath`` evaluation up to the last bits of
real ``pow``; on finite operands, addition, subtraction, multiplication,
division and negation equal Python ``complex`` arithmetic bit for bit,
and ``sin``, ``cos`` and ``exp`` of a real operand equal ``math``'s.
Every power and root is a ``Pow`` node, ``sqrt(a)`` being ``a ** (1/2)``,
and ``pow_`` folds a constant power with the node's kernel, ``_power``,
so a folded power equals what its node evaluates to.  Likewise a product
or quotient of two real constants folds in real arithmetic, as the real
kernels compute it, so ``1e400 * 2`` folds to inf, not to complex
arithmetic's inf + NaN i.

Point policy: a division or negative power whose operand has magnitude
below ``_DIV_FLOOR`` marks the point *singular*; a half-integer power
(``sqrt`` included) of a negative real raises ``DomainError``, but only
at points that are not singular; the error names the first such point.
A product with a constant zero factor, or a quotient with a constant
zero numerator, folds to zero when it is built, before any kernel sees
the other operand: ``x * 0`` is 0 where x is inf or NaN, and ``0 / x``
is 0, not singular, where x is 0.  Two constants fold by value instead,
so ``1e400 * 0`` is NaN.
Points a sample set excludes are dropped before they are evaluated.  A
coordinate axis the points do not have raises ``DimensionError``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DomainError, EvalSingularity

_DIV_FLOOR = 1e-300
_ONE = np.float64(1.0)

# upper bound on the points one sample set may request (all axes together)
MAX_POINTS = 10 ** 7


class Expr:
    """Base node.  Subclasses implement ``_diff``, ``_parts`` and ``_eval``.

    ``_diff(axis)`` is the node's differentiation rule; it reaches its
    children's derivatives through ``diff``, which caches each result in
    the node's ``_d`` slot (axis -> derivative), None until the first:
    every constructor sets it, so reading it never raises.  The tree is
    immutable, so the cache is always valid.  The cache slot ``_d`` is
    underscore-prefixed because it is not part of the node's structure:
    the public slots are.
    A node's children are its slots ``a`` and ``b``, as many as its
    class's ``_arity`` (0, 1 or 2), which the tree walks of ``diff`` and
    ``intern_ops`` read.  ``_parts`` returns (children, hashable non-node
    field): with the node type the structural key ``Program`` merges on
    (a constant's value by its bits).  ``intern_ops`` calls it only on
    nodes with fewer than two children, for the field.
    ``_eval(blk, param, a, b)`` computes the node over a block from its
    children's values, ignoring ``a`` or ``b`` where it has no such child.
    """

    __slots__ = ("_d",)
    _arity = 0

    def diff(self, axis: int) -> "Expr":
        """Exact partial derivative along a 0-based coordinate axis."""
        memo = self._d
        if memo is not None and axis in memo:
            return memo[axis]
        # children before parents, from an explicit stack: each rule then
        # finds its operands' derivatives cached, so ``diff`` recurses one
        # level deep however deep the tree is
        stack = [self]
        push, pop = stack.append, stack.pop
        while stack:
            node = stack[-1]
            arity = node._arity
            waiting = False
            if arity and axis not in (node.a._d or ()):
                push(node.a)
                waiting = True
            if arity == 2 and axis not in (node.b._d or ()):
                push(node.b)
                waiting = True
            if waiting:
                continue
            pop()
            memo = node._d
            if memo is None:
                memo = node._d = {}
            if axis not in memo:
                memo[axis] = node._diff(axis)
        return self._d[axis]

    def _diff(self, axis: int) -> "Expr":  # pragma: no cover - abstract
        raise NotImplementedError

    def _parts(self) -> Tuple[Tuple["Expr", ...], object]:  # pragma: no cover
        raise NotImplementedError

    def ev(self, coords: Sequence[float]) -> complex:
        """Evaluate at a sample point (sequence of reals), compiling a
        one-root ``Program`` on each call."""
        return complex(Program([self]).at([coords])[0, 0])

    # arithmetic sugar; everything funnels through the folding constructors
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, other):
        return pow_(self, other)


# ---------------------------------------------------------------------------
# array kernels
#
# Values are float64 arrays where the imaginary part is identically zero
# and complex128 arrays otherwise (constants: numpy float64/complex128
# scalars).
# numpy's complex128 multiply and divide may fuse or reciprocate, so the
# genuinely complex cases are spelled out in real arithmetic.


def _is_c(v) -> bool:
    return v.dtype.kind == "c"


def _rows(v, n: int):
    """``v`` as a length-n array; only constants need broadcasting."""
    return v if v.ndim == 1 else np.broadcast_to(v, (n,))


def _cpx(re, im):
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def magnitude(v):
    """|v| elementwise, rounded as CPython's ``abs`` of a float or complex."""
    return np.hypot(v.real, v.imag) if _is_c(v) else np.abs(v)


def _cmul(a, b):
    if a.dtype.kind != "c" or b.dtype.kind != "c":
        return a * b  # one factor real: every product is a single rounding
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return _cpx(ar * br - ai * bi, ar * bi + ai * br)


def _cdiv(a, b):
    """CPython's complex division: Smith's scaling by the larger part of b."""
    if b.dtype.kind != "c":
        return _cpx(a.real / b, a.imag / b) if a.dtype.kind == "c" else a / b
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return _cpx(re, im)


def _ipow(x, n: int):
    """x**n by binary exponentiation, as CPython's complex power."""
    r = None
    k = abs(n)
    while k:
        if k & 1:
            r = x if r is None else _cmul(r, x)
        k >>= 1
        if k:
            x = _cmul(x, x)
    if r is None:
        return _ONE
    return r if n > 0 else _cdiv(_ONE, r)


def _power(x, e: Fraction):
    """x**e, e an integer or half-integer: the principal root, then ``_ipow``."""
    return _ipow(np.sqrt(x) if e.denominator == 2 else x, e.numerator)


def _libm(f, v):
    """f on complex input, which numpy hands to the C library's c-functions.

    It exists for ``exp`` alone: numpy's real ``exp`` is its own SIMD
    routine, which differs from libm's (and ``math.exp``) in the last bit
    on a few percent of arguments, while its real ``sin`` and ``cos``
    give libm's values and need no detour.  A real array is widened into
    one complex buffer that f overwrites in place; its real parts come
    back as a contiguous copy, not as a stride-16 view that would keep
    the buffer alive for every reader.  A constant stays a numpy scalar.
    """
    if _is_c(v):
        return f(v)
    z = v + 0j
    return f(z, out=z).real.copy() if z.ndim else f(z).real


class _Block:
    """Coordinates of one block of points plus what evaluation found there."""

    __slots__ = ("cols", "singular", "domain")

    def __init__(self, pts: np.ndarray):
        self.cols = np.ascontiguousarray(pts.T)
        self.singular = np.zeros(len(pts), dtype=bool)
        self.domain: List[tuple] = []  # (rows, real parts there, message template)

    def flag_small(self, v) -> None:
        self.singular |= magnitude(v) < _DIV_FLOOR

    def flag_negative(self, v, template: str) -> None:
        v = np.broadcast_to(v, self.singular.shape)
        rows = np.flatnonzero((v.real < 0.0) & (v.imag == 0.0))
        if len(rows):
            self.domain.append((rows, v.real[rows], template))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value, self._d = complex(value), None

    def _diff(self, axis):
        return ZERO

    def _parts(self):
        # numpy scalars, so that constant-only ops divide by zero like arrays
        v = self.value
        return (), (np.float64(v.real) if v.imag == 0.0 else np.complex128(v))

    @staticmethod
    def _eval(blk, v, _a, _b):
        return v

    def __repr__(self):
        return f"Const({self.value})"


ZERO = Const(0.0)
ONE = Const(1.0)


class Coord(Expr):
    __slots__ = ("axis",)

    def __init__(self, axis: int):
        self.axis, self._d = int(axis), None

    def _diff(self, axis):
        return ONE if axis == self.axis else ZERO

    def _parts(self):
        return (), self.axis

    @staticmethod
    def _eval(blk, axis, _a, _b):
        if not 0 <= axis < len(blk.cols):
            raise DimensionError(f"coordinate axis {axis} is out of range: "
                                 f"the points have {len(blk.cols)} coordinate(s)")
        return blk.cols[axis]

    def __repr__(self):
        return f"Coord({self.axis})"


class _Binary(Expr):
    __slots__ = ("a", "b")
    _arity = 2

    def __init__(self, a: Expr, b: Expr):
        self.a, self.b, self._d = a, b, None

    def _parts(self):
        return (self.a, self.b), None

    def __repr__(self):
        return f"{type(self).__name__}({self.a!r}, {self.b!r})"


class Add(_Binary):
    __slots__ = ()

    def _diff(self, axis):
        return add(self.a.diff(axis), self.b.diff(axis))

    @staticmethod
    def _eval(blk, _p, a, b):
        return a + b


class Sub(_Binary):
    __slots__ = ()

    def _diff(self, axis):
        return sub(self.a.diff(axis), self.b.diff(axis))

    @staticmethod
    def _eval(blk, _p, a, b):
        return a - b


class Mul(_Binary):
    __slots__ = ()

    def _diff(self, axis):
        return add(mul(self.a.diff(axis), self.b), mul(self.a, self.b.diff(axis)))

    @staticmethod
    def _eval(blk, _p, a, b):
        if a.dtype.kind != "c" or b.dtype.kind != "c":
            return a * b  # inline: most products are real
        return _cmul(a, b)


class Div(_Binary):
    __slots__ = ()

    def _diff(self, axis):
        num = sub(mul(self.a.diff(axis), self.b), mul(self.a, self.b.diff(axis)))
        return div(num, mul(self.b, self.b))

    @staticmethod
    def _eval(blk, _p, a, b):
        blk.flag_small(b)
        return _cdiv(a, b)


class Pow(Expr):
    """Integer or half-integer power.  Exponent kept exact as a Fraction.

    A half-integer power n/2 is evaluated as (sqrt a)**n, the principal
    branch of a**(n/2); ``sqrt(a)`` is the power 1/2.
    """

    __slots__ = ("a", "exponent")
    _arity = 1

    def __init__(self, a: Expr, exponent: Fraction):
        if exponent.denominator not in (1, 2):
            raise DomainError(f"exponent {exponent} is not integer or half-integer")
        self.a, self.exponent, self._d = a, exponent, None

    def _diff(self, axis):
        e = self.exponent
        return mul(mul(Const(float(e)), pow_(self.a, e - 1)), self.a.diff(axis))

    def _parts(self):
        return (self.a,), self.exponent

    @staticmethod
    def _eval(blk, e, a, _b):
        if e < 0:
            blk.flag_small(a)
        if e.denominator == 2:
            blk.flag_negative(a, "negative base {} under half-integer power " + str(e))
        return _power(a, e)

    def __repr__(self):
        return f"Pow({self.a!r}, {self.exponent})"


class _Unary(Expr):
    __slots__ = ("a",)
    _arity = 1

    def __init__(self, a: Expr):
        self.a, self._d = a, None

    def _parts(self):
        return (self.a,), None

    def __repr__(self):
        return f"{type(self).__name__}({self.a!r})"


class Neg(_Unary):
    __slots__ = ()

    def _diff(self, axis):
        return neg(self.a.diff(axis))

    @staticmethod
    def _eval(blk, _p, a, _b):
        return -a


class Sin(_Unary):
    __slots__ = ()

    def _diff(self, axis):
        return mul(cos(self.a), self.a.diff(axis))

    @staticmethod
    def _eval(blk, _p, a, _b):
        return np.sin(a)


class Cos(_Unary):
    __slots__ = ()

    def _diff(self, axis):
        return neg(mul(sin(self.a), self.a.diff(axis)))

    @staticmethod
    def _eval(blk, _p, a, _b):
        return np.cos(a)


class Exp(_Unary):
    __slots__ = ()

    def _diff(self, axis):
        return mul(self, self.a.diff(axis))

    @staticmethod
    def _eval(blk, _p, a, _b):
        return _libm(np.exp, a)


class Bump(Expr):
    """``order``-th derivative of the C-infinity bump profile.

    Profile: exp(-1/(1-s^2)) on |s| < 1, identically 0 outside.  The
    derivative prefactors are hard-coded so the closed support boundary
    never produces 0*inf; outside the open support every order returns an
    exact 0.0.  Orders above 2 are not needed anywhere and are rejected.
    """

    __slots__ = ("a", "order")
    _arity = 1

    def __init__(self, a: Expr, order: int = 0):
        if order not in (0, 1, 2):
            raise DomainError("bump derivatives supported up to order 2")
        self.a, self.order, self._d = a, order, None

    def _diff(self, axis):
        return mul(Bump(self.a, self.order + 1), self.a.diff(axis))

    def _parts(self):
        return (self.a,), self.order

    @staticmethod
    def _eval(blk, k, a, _b):
        s = a.real
        w = 1.0 - s * s
        outside = w <= 0.0
        w = np.where(outside, 1.0, w)
        e = _libm(np.exp, -1.0 / w)
        if k >= 1:
            w1 = -2.0 * s / (w * w)
            if k == 1:
                e = w1 * e
            else:
                w2 = -2.0 / (w * w) - 8.0 * s * s / (w * w * w)
                e = (w2 + w1 * w1) * e
        return np.where(outside, 0.0, e)

    def __repr__(self):
        return f"Bump({self.a!r}, {self.order})"


# ---------------------------------------------------------------------------
# compiled programs


def intern_ops(exprs: Iterable[Expr]) -> Tuple[list, ...]:
    """The structure of ``exprs`` as one deduplicated op list, in columns.

    Structurally equal subtrees -- same node type, same constant, axis,
    exponent or order, same children -- become one op ``(type, param, a,
    b)``, ``a`` and ``b`` being its children's op indices (-1: no child).
    Returns ``(types, params, a, b, roots)``: the ops in topological order
    and each root's op index.  That is structure only, not a schedule
    (``Program`` derives where each value dies), and it does not depend
    on which nodes the trees share, so it is also a value key for a
    sequence of expressions.

    The walk is post-order, right child first.  It reads a node's
    children from its slots (``Expr._arity`` of them) and runs ``_parts``
    once on each leaf and one-child node, for its param.  Ops are
    deduplicated in one table per node type, keyed by an int or bytes: a
    binary op's child slots as ``(a << 32) + b``, a unary op's child slot
    (in one table per exponent or order, if it has one), a coordinate's
    axis, a constant's value bytes (so constants that differ only in a
    sign of zero stay apart).  The cyclic garbage collector tracks none
    of these keys, so a compile keeps no tracked object per op and starts
    no collection that would push a caller's live objects toward the full
    collections, each of which scans them all.
    """
    # keyed by the node object itself: Expr has identity equality
    slot_of: Dict[Expr, int] = {}  # node -> op index
    tables: Dict[type, dict] = defaultdict(dict)  # node type -> {key: op index}
    types: list = []
    params: list = []
    a_col: List[int] = []
    b_col: List[int] = []
    roots: List[int] = []
    get = slot_of.get
    for root in exprs:
        # a node stays on the stack under its unresolved children, the
        # right one on top, until get finds them all; a binary node on the
        # stack twice finds its own op in its table the second time
        stack = [root]
        push, pop = stack.append, stack.pop
        while stack:
            node = stack[-1]
            t = type(node)
            arity = t._arity
            if arity == 2:
                a = get(node.a)
                b = get(node.b)
                if a is None or b is None:
                    if a is None:
                        push(node.a)
                    if b is None:
                        push(node.b)
                    continue
                key = (a << 32) + b  # b < 2**32: no two slot pairs share a key
                param = None
                table = tables[t]
            elif node in slot_of:  # pushed again before it was interned
                pop()
                continue
            elif arity:
                a = key = get(node.a)
                if a is None:
                    push(node.a)
                    continue
                b = -1
                param = node._parts()[1]
                table = tables[t]
                if param is not None:  # one table per exponent or order
                    by_param = table
                    table = by_param.get(param)
                    if table is None:
                        table = by_param[param] = {}
            else:
                a = b = -1
                param = node._parts()[1]
                key = param.tobytes() if t is Const else param
                table = tables[t]
            pop()
            i = table.get(key)
            if i is None:
                i = table[key] = len(types)
                types.append(t)
                params.append(param)
                a_col.append(a)
                b_col.append(b)
            slot_of[node] = i
        roots.append(slot_of[root])
    return types, params, a_col, b_col, roots


class Program:
    """Root expressions compiled to an op list (structure) and its schedule.

    The structure is ``intern_ops``'s columns: kernel, param and two input
    slots per op in topological order, and the roots' slots.  The schedule
    is two freed slots per op, the inputs (not roots) whose last reader it
    is, and ``peak``, the most values a run holds at once, roots included,
    each one array over the points.  -1 names the scratch slot past the
    ops', read for an absent input and written when nothing is freed.
    ``run`` calls each kernel once per call as ``kernel(blk, param, a, b)``.
    """

    __slots__ = ("_evs", "_params", "_a", "_b", "_fa", "_fb", "_roots", "peak")

    def __init__(self, exprs: Iterable[Expr]):
        types, self._params, self._a, self._b, self._roots = intern_ops(exprs)
        self._evs = [t._eval for t in types]
        n = len(types)
        self._fa, self._fb = fa, fb = [-1] * n, [-1] * n
        # walking back, a slot's first reader met is its last and frees it;
        # roots and the absent input -1 (the flag past the ops') start read
        read = bytearray(n) + b"\1"
        for r in self._roots:
            read[r] = 1
        live, peak = read.count(1) - 1, 0  # the roots stay live to the end
        for i, a, b in zip(range(n - 1, -1, -1), reversed(self._a), reversed(self._b)):
            if not read[a]:
                read[a] = 1
                fa[i] = a
                live += 1
            if not read[b]:
                read[b] = 1
                fb[i] = b
                live += 1
            if live > peak:  # an op's value is made before its inputs are freed
                peak = live
            live -= 1
        self.peak = peak

    def __len__(self) -> int:
        return len(self._evs)

    def run(self, pts: np.ndarray):
        """Root values at the rows of ``pts`` (N x dim), and the singular mask.

        Returns ([one length-N array per root], singular).  Raises
        DomainError for the first row with a domain violation that is not
        singular (the first such op in op order if several fail there), so
        the error names the same row whichever rows ``pts`` is cut into.
        """
        n = len(pts)
        blk = _Block(pts)
        vals = [None] * (len(self._evs) + 1)  # the last one is the scratch slot
        with np.errstate(all="ignore"):
            for i, ev, param, a, b, fa, fb in zip(range(len(self._evs)), self._evs, self._params,
                                                   self._a, self._b, self._fa, self._fb):
                vals[i] = ev(blk, param, vals[a], vals[b])
                vals[fa] = None
                vals[fb] = None
        first = None  # (row, real part, template) of the earliest violation
        for rows, re, template in blk.domain:
            hit = np.flatnonzero(~blk.singular[rows])
            if len(hit) and (first is None or rows[hit[0]] < first[0]):
                first = rows[hit[0]], re[hit[0]], template
        if first is not None:
            raise DomainError(first[2].format(float(first[1])))
        return [_rows(vals[r], n) for r in self._roots], blk.singular

    def at(self, pts) -> np.ndarray:
        """Root values at every point of ``pts``: a (roots, points) complex array.

        Raises EvalSingularity if any point is singular.
        """
        pts = np.asarray(pts, dtype=float)
        values, singular = self.run(pts)
        if singular.any():
            pt = tuple(pts[np.argmax(singular)].tolist())
            raise EvalSingularity(f"division by (near) zero at {pt}")
        return np.array(values, dtype=complex).reshape(len(values), len(pts))


# ---------------------------------------------------------------------------
# folding constructors


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(v)


def _const_val(e: Expr) -> Optional[complex]:
    return e.value if isinstance(e, Const) else None


def is_zero(e) -> bool:
    """A zero number or a constant-zero node (no simplification is tried)."""
    if isinstance(e, Expr):
        return isinstance(e, Const) and e.value == 0
    return e == 0


def add(a: Expr, b: Expr) -> Expr:
    va = a.value if type(a) is Const else None
    vb = b.value if type(b) is Const else None
    if va is not None and vb is not None:
        return Const(va + vb)
    if va == 0:
        return b
    if vb == 0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    va = a.value if type(a) is Const else None
    vb = b.value if type(b) is Const else None
    if va is not None and vb is not None:
        return Const(va - vb)
    if vb == 0:
        return a
    if va == 0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    va = a.value if type(a) is Const else None
    vb = b.value if type(b) is Const else None
    if va is not None and vb is not None:
        # two reals fold as Mul's real kernel computes them: complex
        # arithmetic would give inf * 0j a NaN imaginary part
        return Const(va.real * vb.real if va.imag == vb.imag == 0 else va * vb)
    if va == 0 or vb == 0:
        return ZERO
    if va == 1:
        return b
    if vb == 1:
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    va = a.value if type(a) is Const else None
    vb = b.value if type(b) is Const else None
    if vb is not None and abs(vb) < _DIV_FLOOR:
        return Div(a, b)  # a (near) zero divisor: the node marks every point singular
    if va is not None and vb is not None:
        return Const(va.real / vb.real if va.imag == vb.imag == 0 else va / vb)
    if vb == 1:
        return a
    if va == 0:
        return ZERO
    return Div(a, b)


def neg(a: Expr) -> Expr:
    va = _const_val(a)
    if va is not None:
        return Const(-va)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def pow_(a: Expr, exponent) -> Expr:
    e = exponent if isinstance(exponent, Fraction) else Fraction(exponent)
    if e == 0:
        return ONE
    if e == 1:
        return a
    if type(a) is Const and not (e < 0 and abs(a.value) < _DIV_FLOOR):
        # folded by the node's own kernel; a base under _DIV_FLOOR with a
        # negative power, a negative real under a half-integer one (NaN) and
        # an overflow stay a node, which marks or rejects the point
        with np.errstate(all="ignore"):
            v = _power(a._parts()[1], e)
        if np.isfinite(v):
            return Const(v)
    return Pow(a, e)


def sin(a) -> Expr:
    return Sin(as_expr(a))


def cos(a) -> Expr:
    return Cos(as_expr(a))


def exp(a) -> Expr:
    return Exp(as_expr(a))


def sqrt(a) -> Expr:
    return pow_(as_expr(a), Fraction(1, 2))


def bump(a) -> Expr:
    """C-infinity bump of the argument: exp(-1/(1-s^2)) on |s|<1, else 0."""
    return Bump(as_expr(a), 0)


def coord(axis: int) -> Expr:
    return Coord(axis)


def const(v) -> Expr:
    return Const(v)


# ---------------------------------------------------------------------------
# finite-difference oracle


def fd_diff(e: Expr, axis: int, pt: Sequence[float], h: float = 1e-3) -> complex:
    """4th-order central difference; independent cross-check for ``diff``."""
    if not 0 < h < math.inf:
        raise DomainError(f"step must be positive and finite, got {h!r}")
    pts = np.tile(np.asarray(pt, dtype=float), (4, 1))
    pts[:, axis] += [2 * h, h, -h, -2 * h]
    f2, f1, m1, m2 = Program([e]).at(pts)[0].tolist()
    return (-f2 + 8 * f1 - 8 * m1 + m2) / (12 * h)


# ---------------------------------------------------------------------------
# sample sets


class SampleSet:
    """Deterministic collection of sample points on a chart domain: a box,
    a shape and a seed.

    ``bounds`` is the box, ((lo, hi), ...) per axis.  ``counts`` is the
    shape of the point array: one count per axis for a tensor grid, or
    ``(N,)`` for N uniform draws from the box.  ``seed`` seeds those draws;
    a grid is the set whose seed is None.  ``exclude`` drops points (e.g.
    metric singularities) before anything evaluates them.  At most
    ``MAX_POINTS`` points in total; the constructor checks every field.
    """

    __slots__ = ("bounds", "counts", "seed", "exclude")

    def __init__(self, bounds: Iterable, counts: Iterable[int], seed: Optional[int] = None,
                 exclude: Optional[Callable[[tuple], bool]] = None):
        self.bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        self.counts = tuple(int(k) for k in counts)
        self.seed = None if seed is None else int(seed)
        self.exclude = exclude
        if self.seed is None and len(self.counts) != len(self.bounds):
            raise DomainError(f"grid needs one point count per range, got {len(self.counts)} "
                              f"for {len(self.bounds)}")
        if self.seed is not None and len(self.counts) != 1:
            raise DomainError(f"a random sample set needs one count, got {len(self.counts)}")
        if any(k < 1 for k in self.counts):
            raise DomainError("grid needs at least one point per axis" if self.seed is None
                              else "sample count must be >= 1")
        if not self.bounds:
            raise DomainError("a sample set needs at least one range")
        if self.seed is not None and self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        for lo, hi in self.bounds:
            if not math.isfinite(hi - lo):  # also inf or NaN when a bound is
                raise DomainError(f"sample range {lo!r}..{hi!r} is not finite or too wide")
        if self.requested > MAX_POINTS:
            raise DomainError(f"{self.requested} sample points requested; "
                              f"at most {MAX_POINTS} are allowed")

    @staticmethod
    def grid(bounds: Iterable, points_per_axis) -> "SampleSet":
        bounds = tuple(bounds)
        if isinstance(points_per_axis, int):
            points_per_axis = (points_per_axis,) * len(bounds)
        return SampleSet(bounds, points_per_axis)

    @staticmethod
    def random_box(bounds: Iterable, count: int, seed: int) -> "SampleSet":
        return SampleSet(bounds, (count,), int(seed))

    def with_exclusion(self, pred: Callable[[tuple], bool]) -> "SampleSet":
        return SampleSet(self.bounds, self.counts, self.seed, pred)

    @property
    def requested(self) -> int:
        return math.prod(self.counts)

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """The points as arrays of at most ``rows`` rows, each drawn when
        asked for, so memory does not grow with the number of points.

        The order is fixed and seed-deterministic whatever ``rows`` is: a
        random set is one stream of draws from its seeded generator, and a
        grid varies the last axis fastest.  Rows ``exclude`` rejects are
        dropped, so a block can be shorter than ``rows``, or empty.
        """
        if self.seed is None:
            axes = []
            for (lo, hi), k in zip(self.bounds, self.counts):
                if k == 1:
                    axes.append(np.array([0.5 * (lo + hi)]))
                else:
                    axes.append(lo + np.arange(k) * ((hi - lo) / (k - 1)))
        else:
            rng = np.random.default_rng(self.seed)
            lows = np.array([b[0] for b in self.bounds])
            highs = np.array([b[1] for b in self.bounds])
        for start in range(0, self.requested, rows):
            stop = min(start + rows, self.requested)
            if self.seed is None:
                index = np.unravel_index(np.arange(start, stop), self.counts)
                block = np.stack([a[i] for a, i in zip(axes, index)], axis=-1)
            else:
                # the scaled draw equals rng.uniform's, without its per-call overhead
                block = lows + (highs - lows) * rng.random((stop - start, len(lows)))
            if self.exclude is not None:
                kept = [not self.exclude(p) for p in map(tuple, block.tolist())]
                block = block[np.array(kept, dtype=bool)]
            yield block

    def array(self) -> np.ndarray:
        """The points ``exclude`` keeps, as the rows of one (N, dim) array,
        in the order ``blocks`` gives them."""
        return next(self.blocks(self.requested))
