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
of ``exp(a)`` or ``sqrt(a)`` refers back to its own node, so such a node
and its cache form a reference cycle, which the cyclic garbage collector
frees like any other.

Evaluation goes through one path: a ``Program`` compiles a list of root
expressions into a deduplicated, topologically sorted op list and runs
each op once per call on whole arrays of points.  The arithmetic follows
CPython's ``complex``/``cmath`` formulas (Smith division, binary integer
powers, libm ``exp``/``sin``/``cos`` through numpy's complex kernels), so
results match a pointwise ``cmath`` evaluation up to the last bits of
real ``pow``.

Point policy: a division or negative power whose operand has magnitude
below ``_DIV_FLOOR`` marks the point *singular*; ``sqrt`` or a
half-integer power of a negative real raises ``DomainError``, but only
at points that are neither singular nor excluded by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, EvalSingularity

_DIV_FLOOR = 1e-300
_ONE = np.float64(1.0)

# upper bound on the points one sample set may request (all axes together)
MAX_POINTS = 10 ** 7


def _is_real(z: complex) -> bool:
    return z.imag == 0.0


class Expr:
    """Base node.  Subclasses implement ``_diff``, ``_parts`` and ``_eval``.

    ``_diff(axis)`` is the node's differentiation rule; it reaches its
    children's derivatives through ``diff``, which caches each result in
    the node's ``_d`` slot (axis -> derivative).  The tree is immutable,
    so the cache is always valid.  The cache slot ``_d`` is
    underscore-prefixed because it is not part of the node's structure:
    the public slots are.
    ``_parts`` returns (children, hashable non-node fields): together with
    the node type this is the structural key ``Program`` merges on.
    ``_eval(blk, param, *child_values)`` computes the node over a block.
    """

    __slots__ = ("_d",)

    def diff(self, axis: int) -> "Expr":
        """Exact partial derivative along a 0-based coordinate axis."""
        memo = getattr(self, "_d", None)
        if memo is not None and axis in memo:
            return memo[axis]
        # children before parents, from an explicit stack: each rule then
        # finds its operands' derivatives cached, so ``diff`` recurses one
        # level deep however deep the tree is
        stack = [self]
        while stack:
            node = stack[-1]
            todo = [k for k in node._parts()[0]
                    if axis not in (getattr(k, "_d", None) or ())]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            memo = getattr(node, "_d", None)
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
    if not (_is_c(a) and _is_c(b)):
        return a * b  # one factor real: every product is a single rounding
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return _cpx(ar * br - ai * bi, ar * bi + ai * br)


def _cdiv(a, b):
    """CPython's complex division: Smith's scaling by the larger part of b."""
    if not _is_c(b):
        return _cpx(a.real / b, a.imag / b) if _is_c(a) else a / b
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


def _libm(f, v):
    """f on complex input, which numpy hands to the C library's c-functions."""
    return f(v) if _is_c(v) else f(v + 0j).real


class _Block:
    """Coordinates of one block of points plus what evaluation found there."""

    __slots__ = ("cols", "singular", "domain")

    def __init__(self, pts: np.ndarray):
        self.cols = np.ascontiguousarray(pts.T)
        self.singular = np.zeros(len(pts), dtype=bool)
        self.domain: List[tuple] = []  # (mask, real part, message template)

    def flag_small(self, v) -> None:
        self.singular |= magnitude(v) < _DIV_FLOOR

    def flag_negative(self, v, template: str) -> None:
        bad = (v.real < 0.0) & (v.imag == 0.0)
        self.domain.append((bad, v.real, template))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def _diff(self, axis):
        return ZERO

    def _parts(self):
        # numpy scalars, so that constant-only ops divide by zero like arrays
        v = self.value
        return (), (np.float64(v.real) if v.imag == 0.0 else np.complex128(v))

    @staticmethod
    def _eval(blk, v):
        return v

    def __repr__(self):
        return f"Const({self.value})"


ZERO = Const(0.0)
ONE = Const(1.0)


class Coord(Expr):
    __slots__ = ("axis",)

    def __init__(self, axis: int):
        self.axis = int(axis)

    def _diff(self, axis):
        return ONE if axis == self.axis else ZERO

    def _parts(self):
        return (), self.axis

    @staticmethod
    def _eval(blk, axis):
        return blk.cols[axis]

    def __repr__(self):
        return f"Coord({self.axis})"


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b

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


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a: Expr):
        self.a = a

    def _diff(self, axis):
        return neg(self.a.diff(axis))

    def _parts(self):
        return (self.a,), None

    @staticmethod
    def _eval(blk, _p, a):
        return -a

    def __repr__(self):
        return f"Neg({self.a!r})"


class Pow(Expr):
    """Integer or half-integer power.  Exponent kept exact as a Fraction.

    A half-integer power n/2 is evaluated as (sqrt a)**n, the principal
    branch of a**(n/2).
    """

    __slots__ = ("a", "exponent")

    def __init__(self, a: Expr, exponent: Fraction):
        if exponent.denominator not in (1, 2):
            raise DomainError(f"exponent {exponent} is not integer or half-integer")
        self.a = a
        self.exponent = exponent

    def _diff(self, axis):
        e = self.exponent
        return mul(mul(Const(float(e)), pow_(self.a, e - 1)), self.a.diff(axis))

    def _parts(self):
        return (self.a,), self.exponent

    @staticmethod
    def _eval(blk, e, a):
        if e < 0:
            blk.flag_small(a)
        if e.denominator == 2:
            blk.flag_negative(a, "negative base {} under half-integer power " + str(e))
            a = np.sqrt(a)
        return _ipow(a, e.numerator)

    def __repr__(self):
        return f"Pow({self.a!r}, {self.exponent})"


class _Unary(Expr):
    __slots__ = ("a",)

    def __init__(self, a: Expr):
        self.a = a

    def _parts(self):
        return (self.a,), None

    def __repr__(self):
        return f"{type(self).__name__}({self.a!r})"


class Sin(_Unary):
    __slots__ = ()

    def _diff(self, axis):
        return mul(cos(self.a), self.a.diff(axis))

    @staticmethod
    def _eval(blk, _p, a):
        return _libm(np.sin, a)


class Cos(_Unary):
    __slots__ = ()

    def _diff(self, axis):
        return neg(mul(sin(self.a), self.a.diff(axis)))

    @staticmethod
    def _eval(blk, _p, a):
        return _libm(np.cos, a)


class Exp(_Unary):
    __slots__ = ()

    def _diff(self, axis):
        return mul(self, self.a.diff(axis))

    @staticmethod
    def _eval(blk, _p, a):
        return _libm(np.exp, a)


class Sqrt(_Unary):
    __slots__ = ()

    def _diff(self, axis):
        return div(self.a.diff(axis), mul(Const(2.0), self))

    @staticmethod
    def _eval(blk, _p, a):
        blk.flag_negative(a, "sqrt of negative real {}")
        return np.sqrt(a)


class Bump(Expr):
    """``order``-th derivative of the C-infinity bump profile.

    Profile: exp(-1/(1-s^2)) on |s| < 1, identically 0 outside.  The
    derivative prefactors are hard-coded so the closed support boundary
    never produces 0*inf; outside the open support every order returns an
    exact 0.0.  Orders above 2 are not needed anywhere and are rejected.
    """

    __slots__ = ("a", "order")

    def __init__(self, a: Expr, order: int = 0):
        if order not in (0, 1, 2):
            raise DomainError("bump derivatives supported up to order 2")
        self.a = a
        self.order = order

    def _diff(self, axis):
        return mul(Bump(self.a, self.order + 1), self.a.diff(axis))

    def _parts(self):
        return (self.a,), self.order

    @staticmethod
    def _eval(blk, k, a):
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


def intern_ops(exprs: Iterable[Expr]) -> Tuple[List[tuple], List[int]]:
    """The structure of ``exprs`` as one deduplicated op list.

    Structurally equal subtrees -- same node type, same constant, axis,
    exponent or order, same children -- become one op ``(node type,
    param, child op indices)``.  Returns the ops in topological order and
    each root's op index.  The result depends on the trees' structure
    only, not on which nodes they share, so it is also a value key for
    a sequence of expressions.
    """
    # keyed by the node object itself: Expr has identity equality
    slot_of: Dict[Expr, int] = {}     # node -> op index
    interned: Dict[tuple, int] = {}   # op -> op index
    ops: List[tuple] = []
    roots: List[int] = []
    for root in exprs:
        # (node, None) on the first visit; (node, parts) once its
        # children are pushed above it, so _parts runs once per node
        stack = [(root, None)]
        while stack:
            node, parts = stack.pop()
            if node in slot_of:
                continue
            if parts is None:
                parts = node._parts()
                todo = [k for k in parts[0] if k not in slot_of]
                if todo:
                    stack.append((node, parts))
                    stack.extend((k, None) for k in todo)
                    continue
            kids, param = parts
            op = (type(node), param, tuple(slot_of[k] for k in kids))
            i = interned.get(op)
            if i is None:
                i = interned[op] = len(ops)
                ops.append(op)
            slot_of[node] = i
        roots.append(slot_of[root])
    return ops, roots


class Program:
    """Root expressions compiled to one deduplicated op list (``intern_ops``).

    Ops are stored in topological order and each is evaluated once per
    call over a whole array of points; an intermediate is dropped after
    its last consumer.
    """

    __slots__ = ("_ops", "_roots")

    def __init__(self, exprs: Iterable[Expr]):
        ops, roots = intern_ops(exprs)
        # (eval, param, child slots, dead slots)
        ops = [(t._eval, param, args, []) for t, param, args in ops]
        last_use = {a: i for i, op in enumerate(ops) for a in op[2]}
        keep = set(roots)
        for a, i in last_use.items():
            if a not in keep:
                ops[i][3].append(a)
        self._ops = ops
        self._roots = roots

    def __len__(self) -> int:
        return len(self._ops)

    def run(self, pts: np.ndarray, skip: Optional[np.ndarray] = None):
        """Root values at the rows of ``pts`` (N x dim), and the singular mask.

        Returns ([one length-N array per root], singular).  Raises
        DomainError for a domain violation at a row that is neither
        singular nor marked in ``skip``.
        """
        n = len(pts)
        blk = _Block(pts)
        vals: list = [None] * len(self._ops)
        with np.errstate(all="ignore"):
            for i, (ev, param, args, dead) in enumerate(self._ops):
                vals[i] = ev(blk, param, *[vals[a] for a in args])
                for a in dead:
                    vals[a] = None
        ignore = blk.singular if skip is None else blk.singular | skip
        for bad, re, template in blk.domain:
            hit = bad & ~ignore
            if hit.any():
                raise DomainError(template.format(float(_rows(re, n)[np.argmax(hit)])))
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
    va, vb = _const_val(a), _const_val(b)
    if va is not None and vb is not None:
        return Const(va + vb)
    if va == 0:
        return b
    if vb == 0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    va, vb = _const_val(a), _const_val(b)
    if va is not None and vb is not None:
        return Const(va - vb)
    if vb == 0:
        return a
    if va == 0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    va, vb = _const_val(a), _const_val(b)
    if va is not None and vb is not None:
        return Const(va * vb)
    if va == 0 or vb == 0:
        return ZERO
    if va == 1:
        return b
    if vb == 1:
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    va, vb = _const_val(a), _const_val(b)
    if vb is not None and vb != 0:
        if va is not None:
            return Const(va / vb)
        if vb == 1:
            return a
    if va == 0 and (vb is None or vb != 0):
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
    va = _const_val(a)
    if va is not None and not (va == 0 and e < 0):
        try:
            if e.denominator == 1:
                return Const(va ** int(e))
            if not (_is_real(va) and va.real < 0):
                return Const(va ** float(e))
        except OverflowError:
            pass  # left unfolded: the node evaluates to an infinity
    return Pow(a, e)


def sin(a) -> Expr:
    return Sin(as_expr(a))


def cos(a) -> Expr:
    return Cos(as_expr(a))


def exp(a) -> Expr:
    return Exp(as_expr(a))


def sqrt(a) -> Expr:
    return Sqrt(as_expr(a))


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
    if h <= 0:
        raise DomainError("step must be positive")
    pts = np.tile(np.asarray(pt, dtype=float), (4, 1))
    pts[:, axis] += [2 * h, h, -h, -2 * h]
    f2, f1, m1, m2 = Program([e]).at(pts)[0].tolist()
    return (-f2 + 8 * f1 - 8 * m1 + m2) / (12 * h)


# ---------------------------------------------------------------------------
# sample sets


@dataclass(frozen=True)
class SampleSet:
    """Deterministic collection of sample points on a chart domain.

    ``kind`` is "grid" (tensor grid, ``counts`` points per axis) or
    "random" (uniform box, ``count`` draws from a seeded generator).
    ``exclude`` skips points (e.g. metric singularities); skipped points
    are counted by the caller.  At most ``MAX_POINTS`` points in total.
    """

    kind: str
    bounds: tuple  # ((lo, hi), ...) per axis
    counts: tuple = ()  # grid: per-axis point counts
    count: int = 0  # random: number of draws
    seed: int = 0
    exclude: Optional[Callable[[tuple], bool]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind == "random" and self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        for lo, hi in self.bounds:
            if not math.isfinite(hi - lo):  # also inf or NaN when a bound is
                raise DomainError(f"sample range {lo!r}..{hi!r} is not finite or too wide")
        if self.requested > MAX_POINTS:
            raise DomainError(f"{self.requested} sample points requested; "
                              f"at most {MAX_POINTS} are allowed")

    @staticmethod
    def grid(bounds: Iterable, points_per_axis) -> "SampleSet":
        bounds = tuple((float(a), float(b)) for a, b in bounds)
        if isinstance(points_per_axis, int):
            counts = (points_per_axis,) * len(bounds)
        else:
            counts = tuple(int(k) for k in points_per_axis)
        if any(k < 1 for k in counts):
            raise DomainError("grid needs at least one point per axis")
        return SampleSet(kind="grid", bounds=bounds, counts=counts)

    @staticmethod
    def random_box(bounds: Iterable, count: int, seed: int) -> "SampleSet":
        bounds = tuple((float(a), float(b)) for a, b in bounds)
        if count < 1:
            raise DomainError("sample count must be >= 1")
        return SampleSet(kind="random", bounds=bounds, count=int(count), seed=int(seed))

    def with_exclusion(self, pred: Callable[[tuple], bool]) -> "SampleSet":
        return SampleSet(self.kind, self.bounds, self.counts, self.count, self.seed, pred)

    @property
    def requested(self) -> int:
        if self.kind == "grid":
            n = 1
            for k in self.counts:
                n *= k
            return n
        return self.count

    def array(self) -> np.ndarray:
        """All points as rows of an (N, dim) array, in a fixed,
        seed-deterministic order (pre-exclusion); grids vary the last
        axis fastest."""
        if self.kind == "grid":
            axes = []
            for (lo, hi), k in zip(self.bounds, self.counts):
                if k == 1:
                    axes.append(np.array([0.5 * (lo + hi)]))
                else:
                    axes.append(lo + np.arange(k) * ((hi - lo) / (k - 1)))
            mesh = np.meshgrid(*axes, indexing="ij")
            return np.stack(mesh, axis=-1).reshape(-1, len(axes))
        rng = np.random.default_rng(self.seed)
        lows = np.array([b[0] for b in self.bounds])
        highs = np.array([b[1] for b in self.bounds])
        return rng.uniform(lows, highs, size=(self.count, len(self.bounds)))
