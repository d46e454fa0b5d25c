"""A small declarative language for charts, fields, forms, and checks.

``tokenize`` splits each line with one regular expression, ``_TOKEN``:
names, numbers, ``..``, ``^w`` and one-character symbols, skipping blanks
and ``#`` comments.  Documents parse to an AST of ``NamedTuple`` nodes:
a node equals any tuple of the same fields, a plain one or a node of
another type.  ``hash`` takes any document, but ``==`` recurses once
per nesting level, so comparing a long field (1,500 terms) raises
RecursionError: the binder and the round-trip tests compare expressions
by ``print_expr`` instead.  ``bind_document``
resolves names against the catalog and produces runnable checks.  All
errors are reported as diagnostics with line/column positions, and the
parser recovers at statement boundaries so several errors surface in
one pass.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from . import catalog
from .engine import DEFAULT_TOL, GrCondition
from .errors import GrsError
from .exterior import CONTRA, COV, AlternatingTensor, Chart, MetricSpec, sort_sign, sum_terms
from .scalar import Expr, SampleSet, ZERO, bump, const, coord, cos, exp, sin, sqrt
from .valued import LieStructure, ValueSpace, ValuedForm, abelian

KEYWORDS = {
    "chart", "metric", "diag", "matrix", "field", "form", "vector",
    "values", "algebra", "dim", "bracket", "check", "on", "tol",
    "grid", "random", "seed", "expect",
}

_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "sqrt": sqrt, "bump": bump}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# the one precedence table, climbed by the parser and read by the printer; a
# prefix - binds at _UNARY, so -x^2 is -(x^2); atoms never take parentheses
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY = 3
_ATOM = 5

# how deep parentheses, unary minus, ^ and calls may nest: the parser
# recurses at most 5 frames a level, well inside Python's 1,000-frame limit
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# diagnostics


class Diagnostic(NamedTuple):
    severity: str
    message: str
    line: int
    column: int
    excerpt: str

    def render(self) -> str:
        return (f"{self.severity}: {self.message} (line {self.line}, "
                f"col {self.column})\n  {self.excerpt}\n  "
                + " " * (self.column - 1) + "^")


class _Bail(Exception):
    """Internal parse abort; the statement loop catches it and resyncs."""


# ---------------------------------------------------------------------------
# lexer


class Token(NamedTuple):
    kind: str  # IDENT NUMBER SYM EOF
    text: str
    line: int
    col: int


# one alternative per token kind, tried in order; BAD is any other character
_TOKEN = re.compile(r"""
    [ \t]+ | \#.*
  | (?P<IDENT>[^\W\d]\w*)
  | (?P<NUMBER>(?:\d+(?:\.(?!\.)\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<SYM>\^w(?![^\W_])|\.\.|[()[\],;=:+\-*/^@])
  | (?P<BAD>.)
""", re.VERBOSE)


def tokenize(text: str) -> Tuple[List[Token], List[Diagnostic]]:
    lines = text.splitlines() or [""]
    toks: List[Token] = []
    diags: List[Diagnostic] = []
    for ln, raw in enumerate(lines, start=1):
        pos = 0
        while pos < len(raw):
            m = _TOKEN.match(raw, pos)
            kind, c = m.lastgroup, raw[pos]
            # a numeral that is no digit (², ½) is a word character, yet
            # may not start a name
            if kind == "BAD" or kind == "IDENT" and not (c.isalpha() or c == "_"):
                diags.append(Diagnostic("error", f"unexpected character {c!r}",
                                        ln, pos + 1, raw))
                pos += 1
                continue
            if kind:
                toks.append(Token(kind, m.group(), ln, pos + 1))
            pos = m.end()
    toks.append(Token("EOF", "", len(lines), len(lines[-1]) + 1))
    return toks, diags


# ---------------------------------------------------------------------------
# AST


class Num(NamedTuple):
    value: float


class Name(NamedTuple):
    ident: str


class Un(NamedTuple):
    op: str
    a: "ExprAst"


class Bin(NamedTuple):
    op: str
    a: "ExprAst"
    b: "ExprAst"


class Call(NamedTuple):
    fn: str
    arg: "ExprAst"


ExprAst = Union[Num, Name, Un, Bin, Call]


class ListLit(NamedTuple):
    items: Tuple[float, ...]


class VTerm(NamedTuple):
    coeff: ExprAst
    basis: Tuple[str, ...]  # coordinate names; () for degree 0
    label: Optional[str]


class ChartStmt(NamedTuple):
    name: str
    coords: Tuple[str, ...]
    metric_kind: str  # diag | matrix
    diag: Tuple[float, ...] = ()
    rows: Tuple[Tuple[ExprAst, ...], ...] = ()
    line: int = 0


class FieldStmt(NamedTuple):
    name: str
    expr: ExprAst
    line: int = 0


class VFormStmt(NamedTuple):
    kind: str  # form | vector
    name: str
    degree: int
    values: Optional[str]
    terms: Tuple[VTerm, ...]
    line: int = 0


class AlgebraStmt(NamedTuple):
    name: str
    dim: int
    brackets: Tuple[Tuple[int, int, int, float], ...]
    line: int = 0


class SampleAst(NamedTuple):
    kind: str  # grid | random
    ranges: Tuple[Tuple[float, float], ...]
    count: int
    seed: int = 0


ArgValue = Union[ExprAst, ListLit]


class CheckStmt(NamedTuple):
    entry: str
    args: Tuple[ArgValue, ...]
    named: Tuple[Tuple[str, ArgValue], ...]
    sample: SampleAst
    tol: Optional[float]
    expect: Optional[bool] = None  # the verdict a known case expects; verify ignores it
    line: int = 0


Statement = Union[ChartStmt, FieldStmt, VFormStmt, AlgebraStmt, CheckStmt]


class SpecDocument(NamedTuple):
    statements: Tuple[Statement, ...]


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, toks: List[Token], lines: List[str]):
        self.toks = toks
        self.lines = lines
        self.pos = 0
        self.depth = 0  # nesting levels open in the current expression
        self.diags: List[Diagnostic] = []

    # --- token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "SYM" and t.text == s

    def accept_sym(self, s: str) -> bool:
        if self.at_sym(s):
            self.pos += 1
            return True
        return False

    def _line_text(self, t: Token) -> str:
        if 1 <= t.line <= len(self.lines):
            return self.lines[t.line - 1]
        return ""

    def error(self, msg: str, t: Optional[Token] = None):
        t = t or self.peek()
        self.diags.append(Diagnostic("error", msg, t.line, t.col,
                                     self._line_text(t)))
        raise _Bail()

    def expect_sym(self, s: str) -> Token:
        if not self.at_sym(s):
            self.error(f"expected {s!r}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "IDENT":
            self.error(f"expected {what}")
        return self.next()

    def expect_keyword(self, kw: str) -> Token:
        t = self.peek()
        if t.kind != "IDENT" or t.text != kw:
            self.error(f"expected keyword {kw!r}")
        return self.next()

    def _seq(self, open_: str, item: Callable[[], object], close: str) -> tuple:
        """``open_`` item (, item)* ``close``, as a tuple of the items."""
        self.expect_sym(open_)
        items = [item()]
        while self.accept_sym(","):
            items.append(item())
        self.expect_sym(close)
        return tuple(items)

    def number(self, what: str = "number") -> float:
        neg = self.accept_sym("-")
        t = self.peek()
        if t.kind != "NUMBER":
            self.error(f"expected a {what}")
        self.next()
        v = float(t.text)
        return -v if neg else v

    def integer(self, what: str) -> int:
        t = self.peek()
        return self.whole(what, t, self.number(what))

    def whole(self, what: str, t: Token, v: float) -> int:
        """``v``, read at ``t``, as an int; only a finite, integral value
        passes (``1e3`` is 1000, ``2.5`` and ``1e400`` are errors)."""
        if not v.is_integer():
            self.error(f"{what} must be a whole number", t)
        return int(v)

    # --- document

    def document(self) -> SpecDocument:
        stmts: List[Statement] = []
        while self.peek().kind != "EOF":
            t, start = self.peek(), self.pos
            try:
                if t.text not in _STATEMENTS:  # only an IDENT spells a keyword
                    self.error(f"expected a statement keyword, got {t.text!r}")
                stmts.append(_STATEMENTS[t.text](self))
            except _Bail:
                self._sync(start)
        return SpecDocument(tuple(stmts))

    def _sync(self, start: int):
        """Skip tokens until the next statement keyword."""
        if self.pos == start:
            self.next()
        while self.peek().kind != "EOF" and self.peek().text not in _STATEMENTS:
            self.next()

    def chart_stmt(self) -> ChartStmt:
        t0 = self.next()
        name = self.expect_ident("chart name").text
        coords = self._seq("(", lambda: self.expect_ident("coordinate name").text, ")")
        self.expect_keyword("metric")
        kind = self.expect_ident("'diag' or 'matrix'").text
        if kind == "diag":
            return ChartStmt(name, coords, "diag", diag=self._seq("(", self.number, ")"),
                             line=t0.line)
        if kind == "matrix":
            rows = self._seq("[", lambda: self._seq("[", self.expr, "]"), "]")
            return ChartStmt(name, coords, "matrix", rows=rows, line=t0.line)
        self.error("expected 'diag' or 'matrix' after 'metric'")

    def field_stmt(self) -> FieldStmt:
        t0 = self.next()
        name = self.expect_ident("field name").text
        self.expect_sym("=")
        return FieldStmt(name, self.expr(), line=t0.line)

    def vform_stmt(self) -> VFormStmt:
        t0 = self.next()
        kind = t0.text
        name = self.expect_ident(f"{kind} name").text
        self.expect_sym(":")
        degree = self.integer("degree")
        values = None
        if self.peek().kind == "IDENT" and self.peek().text == "values":
            self.next()
            values = self.expect_ident("value-space name").text
        self.expect_sym("=")
        terms = [self.vterm()]
        while True:
            if self.accept_sym("+"):
                terms.append(self.vterm())
            elif self.accept_sym("-"):
                tm = self.vterm()
                terms.append(tm._replace(coeff=Un("-", tm.coeff)))
            else:
                break
        return VFormStmt(kind, name, degree, values, tuple(terms), line=t0.line)

    def vterm(self) -> VTerm:
        coeff = self.expr()
        basis: List[str] = []
        if self.accept_sym("*"):
            basis.append(self._basis_token())
            while self.accept_sym("^w"):
                basis.append(self._basis_token())
        label = None
        if self.accept_sym("@"):
            label = self.expect_ident("value label").text
        return VTerm(coeff, tuple(basis), label)

    def _basis_token(self) -> str:
        t = self.expect_ident("basis token (d<coordinate>)")
        if not _is_basis(t.text):
            self.error("basis tokens are spelled d<coordinate>", t)
        return t.text[1:]

    def algebra_stmt(self) -> AlgebraStmt:
        t0 = self.next()
        name = self.expect_ident("algebra name").text
        self.expect_keyword("dim")
        dim = self.integer("dimension")
        brackets: List[Tuple[int, int, int, float]] = []
        if self.peek().kind == "IDENT" and self.peek().text == "bracket":
            self.next()
            while self.at_sym("("):
                t = self.peek()
                triple = self._seq("(", lambda: (self.peek(), self.number()), ")")
                if len(triple) != 4:
                    self.error("expected a bracket triple '(i, j, k, value)'", t)
                i, j, k = (self.whole("bracket index", *item) for item in triple[:3])
                brackets.append((i, j, k, triple[3][1]))
            if not brackets:
                self.error("expected at least one bracket triple '(i, j, k, value)'")
        return AlgebraStmt(name, dim, tuple(brackets), line=t0.line)

    def check_stmt(self) -> CheckStmt:
        t0 = self.next()
        entry = self.expect_ident("catalog entry id").text
        self.expect_sym("(")
        args: List[ArgValue] = []
        named: List[Tuple[str, ArgValue]] = []
        if not self.at_sym(")"):
            while True:
                if (self.peek().kind == "IDENT"
                        and self.toks[self.pos + 1].kind == "SYM"
                        and self.toks[self.pos + 1].text == "="):
                    key = self.next().text
                    self.next()
                    named.append((key, self.arg_value()))
                else:
                    if named:
                        self.error("positional argument after a named argument")
                    args.append(self.arg_value())
                if not self.accept_sym(","):
                    break
        self.expect_sym(")")
        self.expect_keyword("on")
        sample = self.sample()
        tol = None
        if self.peek().kind == "IDENT" and self.peek().text == "tol":
            self.next()
            tol = self.number()
        expect = None
        if self.peek().kind == "IDENT" and self.peek().text == "expect":
            self.next()
            t = self.peek()
            if t.text not in ("pass", "fail"):  # only an IDENT spells either word
                self.error("expected 'pass' or 'fail' after 'expect'")
            self.next()
            expect = t.text == "pass"
        return CheckStmt(entry, tuple(args), tuple(named), sample, tol, expect,
                         line=t0.line)

    def arg_value(self) -> ArgValue:
        if self.at_sym("["):
            return ListLit(self._seq("[", self.number, "]"))
        t = self.peek()
        if t.kind == "IDENT" and t.text in KEYWORDS:
            after = self.toks[self.pos + 1]  # an IDENT is followed by EOF at least
            if after.kind == "SYM" and after.text in (",", ")"):
                self.next()
                return Name(t.text)  # a bare word that is also a keyword, e.g. phi=diag
        return self.expr()

    def sample(self) -> SampleAst:
        kindtok = self.expect_ident("'grid' or 'random'")
        if kindtok.text not in ("grid", "random"):
            self.error("expected 'grid' or 'random'", kindtok)
        ranges = self._seq("(", self._range, ";")
        count = self.integer("sample count")
        seed = 0
        if kindtok.text == "random":
            self.expect_sym(",")
            self.expect_keyword("seed")
            seed = self.integer("seed")
        self.expect_sym(")")
        return SampleAst(kindtok.text, ranges, count, seed)

    def _range(self) -> Tuple[float, float]:
        lo = self.number()
        self.expect_sym("..")
        hi = self.number()
        return (lo, hi)

    # --- expressions: precedence climbing over _PREC

    def expr(self, prec: int = 1) -> ExprAst:
        """An operand and each operator after it that binds at least as
        tightly as ``prec``.  A right operand is parsed one level up, or
        at its operator's own level for the right-associative ``^``."""
        if self.depth > MAX_NESTING:
            self.error(f"expression nested more than {MAX_NESTING} levels deep")
        left = Un("-", self._nested(_UNARY)) if self.accept_sym("-") else self._atom()
        while True:
            op = self.peek().text  # only a SYM spells an operator
            level = _PREC.get(op, 0)
            if level < prec or op == "*" and self._basis_follows():
                return left
            self.next()
            left = Bin(op, left, self._nested(level) if op == "^" else self.expr(level + 1))

    def _nested(self, prec: int = 1) -> ExprAst:
        """``expr(prec)`` one level deeper: in parentheses or a call, after a - or ^."""
        self.depth += 1
        try:
            return self.expr(prec)
        finally:
            self.depth -= 1

    def _basis_follows(self) -> bool:
        """Whether the ``*`` at the cursor starts basis factors: d<name>, no ( or ^ next."""
        nxt = self.toks[self.pos + 1]
        if nxt.kind != "IDENT" or not _is_basis(nxt.text):
            return False
        after = self.toks[self.pos + 2]  # an IDENT is followed by EOF at least
        return after.kind != "SYM" or after.text not in ("(", "^")

    def _atom(self) -> ExprAst:
        t = self.peek()
        if t.kind == "NUMBER":
            self.next()
            return Num(float(t.text))
        if t.kind == "IDENT":
            if t.text in KEYWORDS:
                self.error(f"expected an expression, got keyword {t.text!r}")
            self.next()
            if t.text in _FUNCTIONS:
                self.expect_sym("(")
                arg = self._nested()
                self.expect_sym(")")
                return Call(t.text, arg)
            return Name(t.text)
        if self.accept_sym("("):
            inner = self._nested()
            self.expect_sym(")")
            return inner
        self.error("expected an expression"
                   if t.kind == "EOF" else f"expected an expression, got {t.text!r}")


_STATEMENTS: Dict[str, Callable[[_Parser], Statement]] = {
    "chart": _Parser.chart_stmt, "field": _Parser.field_stmt, "form": _Parser.vform_stmt,
    "vector": _Parser.vform_stmt, "algebra": _Parser.algebra_stmt, "check": _Parser.check_stmt,
}


def _is_basis(ident: str) -> bool:
    """Whether ``ident`` is spelled like a basis token, d<coordinate>."""
    return len(ident) > 1 and ident.startswith("d")


def parse(text: str) -> Tuple[Optional[SpecDocument], List[Diagnostic]]:
    """Parse a document; returns (doc, diagnostics).  doc is None when
    any error diagnostic was produced."""
    toks, diags = tokenize(text)
    p = _Parser(toks, text.splitlines() or [""])
    doc = p.document()
    diags = diags + p.diags
    if any(d.severity == "error" for d in diags):
        return None, diags
    return doc, diags


def parse_expression(text: str) -> Tuple[Optional[ExprAst], List[Diagnostic]]:
    toks, diags = tokenize(text)
    p = _Parser(toks, text.splitlines() or [""])
    try:
        ast = p.expr()
        if p.peek().kind != "EOF":
            p.error(f"unexpected trailing input {p.peek().text!r}")
    except _Bail:
        ast = None
    diags = diags + p.diags
    if any(d.severity == "error" for d in diags):
        return None, diags
    return ast, diags


# ---------------------------------------------------------------------------
# expression walks


def _children(ast: ExprAst) -> tuple:
    return ((ast.a, ast.b) if isinstance(ast, Bin) else (ast.a,) if isinstance(ast, Un)
            else (ast.arg,) if isinstance(ast, Call) else ())


def _operands(ast: ExprAst) -> tuple:
    """The sub-expressions bound under ``ast``; an exponent is read as a number."""
    return (ast.a,) if isinstance(ast, Bin) and ast.op == "^" else _children(ast)


def _walk(ast: ExprAst, visit: Callable[[ExprAst, list], object],
          children: Callable[[ExprAst], tuple] = _children):
    """``visit(node, [its children's results])`` at every node, children
    first, from an explicit stack as in ``Expr.diff``: a long sum is
    walked without recursing once per term.  Returns the root's result."""
    values: list = []
    stack: list = [(ast, None)]  # (node, child count once they are queued)
    while stack:
        node, arity = stack.pop()
        if arity is None:
            kids = children(node)
            if kids:
                stack.append((node, len(kids)))
                stack.extend((k, None) for k in reversed(kids))  # left first
                continue
            arity = 0
        args = values[len(values) - arity:]
        del values[len(values) - arity:]
        values.append(visit(node, args))
    return values[0]


# ---------------------------------------------------------------------------
# expression printer


def _fmt_num(v: float) -> str:
    v = float(v)
    if math.isinf(v):  # repr gives "inf", which would re-parse as a name
        return "1e999" if v > 0 else "-1e999"
    return repr(v)


def _wrap(printed: Tuple[str, int], parent_prec: int) -> str:
    text, prec = printed
    return f"({text})" if prec < parent_prec else text


def _print_node(e: ExprAst, kids: List[Tuple[str, int]]) -> Tuple[str, int]:
    """A node's text and precedence from its children's; the parent
    decides whether a child needs parentheses."""
    if isinstance(e, Num):
        return _fmt_num(e.value), _ATOM
    if isinstance(e, Name):
        return e.ident, _ATOM
    if isinstance(e, Call):
        return f"{e.fn}({kids[0][0]})", _ATOM
    if isinstance(e, Un):
        return "-" + _wrap(kids[0], _UNARY), _UNARY
    prec = _PREC[e.op]
    if e.op == "^":  # right-associative
        expo = _wrap(kids[1], prec)
        if expo.startswith("w"):  # x^w, x^w_ or x^w^2 would lex as the wedge ^w
            expo = f"({expo})"
        return f"{_wrap(kids[0], prec + 1)}^{expo}", prec
    right = _wrap(kids[1], prec + 1)
    if e.op == "*" and isinstance(e.b, Name) and _is_basis(e.b.ident):
        right = f"({right})"  # '* dy' would read as a basis factor
    return f"{_wrap(kids[0], prec)} {e.op} {right}", prec


def print_expr(e: ExprAst) -> str:
    """``e`` as text that parses back to ``e``, so that two ASTs print
    alike only when they are equal (the binder compares metric entries so)."""
    return _walk(e, _print_node)[0]


# ---------------------------------------------------------------------------
# binder


class BoundCheck(NamedTuple):
    """A runnable check, with the chart and the resolved parameters its
    condition was built from and the verdict its ``expect`` clause names
    (None without one); ``catalog.fixtures`` yields these as known cases."""

    name: str
    entry: str
    condition: GrCondition
    sample: SampleSet
    tol: float
    chart: Chart
    params: Dict[str, object]
    expect_pass: Optional[bool]


class _Rejected(NamedTuple):  # in scope (chart, fields, objects, spaces) for a rejected declaration
    kind: str
    line: int


class _Binder:
    def __init__(self, lines: List[str]):
        self.lines = lines
        self.diags: List[Diagnostic] = []
        self.chart: Optional[Chart] = None
        self.coords: Tuple[str, ...] = ()  # coordinate names in scope
        self.fields: Dict[str, Expr] = {}
        self.objects: Dict[str, object] = {}  # forms, vectors, valued forms
        self.spaces: Dict[str, ValueSpace] = {}
        self.checks: List[BoundCheck] = []
        self.entry_counts: Dict[str, int] = {}

    def report(self, msg: str, line: int, severity: str = "error") -> None:
        excerpt = self.lines[line - 1] if 1 <= line <= len(self.lines) else ""
        self.diags.append(Diagnostic(severity, msg, line, 1, excerpt))

    def fail(self, msg: str, line: int):
        self.report(msg, line)
        raise _Bail()

    def _bound(self, value, line: int):
        """``value``, or a note naming its rejected declaration and a bail."""
        if isinstance(value, _Rejected):
            self.report(f"not bound: the {value.kind} on line {value.line} was rejected",
                        line, "note")
            raise _Bail()
        return value

    # --- expression binding

    def bind_expr(self, ast: ExprAst, line: int) -> Expr:
        return _walk(ast, lambda node, args: self._bind_node(node, args, line), _operands)

    def _bind_node(self, ast: ExprAst, args: List[Expr], line: int) -> Expr:
        if isinstance(ast, Num):
            return const(ast.value)
        if isinstance(ast, Name):
            ident = ast.ident
            if ident in self.coords:
                return coord(self.coords.index(ident))
            if ident in self.fields:
                return self._bound(self.fields[ident], line)
            if ident == "i":
                return const(1j)
            self.fail(f"unknown name {ident!r}", line)
        if isinstance(ast, Un):
            return -args[0]
        if isinstance(ast, Call):
            return _FUNCTIONS[ast.fn](args[0])
        # a Bin: the parser makes no other expression node
        if ast.op == "^":
            expo = self._const_value(ast.b)
            if expo is None:
                self.fail("exponent must be a numeric literal", line)
            if not math.isfinite(expo):
                self.fail(f"exponent must be finite, got {expo!r}", line)
            return args[0] ** Fraction(expo)
        return _BINARY[ast.op](*args)

    def _const_value(self, ast: ExprAst) -> Optional[float]:
        if isinstance(ast, Num):
            return ast.value
        if isinstance(ast, Un) and ast.op == "-":
            inner = self._const_value(ast.a)
            return None if inner is None else -inner
        return None

    # --- statements

    def bind(self, doc: SpecDocument) -> None:
        for st in doc.statements:
            try:
                self._stmt(st)
                continue
            except GrsError as e:  # from any layer: an error on the statement's line
                self.report(str(e), st.line)
            except _Bail:
                pass
            # later uses of a rejected declaration get a note, not errors of their own
            if isinstance(st, ChartStmt):
                self.chart = _Rejected("chart", st.line)
            elif isinstance(st, FieldStmt):
                self.fields[st.name] = _Rejected("field", st.line)
            elif isinstance(st, VFormStmt):
                self.objects[st.name] = _Rejected(st.kind, st.line)
            elif isinstance(st, AlgebraStmt):
                self.spaces[st.name] = _Rejected("algebra", st.line)

    def _stmt(self, st: Statement) -> None:
        if isinstance(st, ChartStmt):
            self._chart(st)
        elif isinstance(st, FieldStmt):
            self._need_chart(st.line)
            self.fields[st.name] = self.bind_expr(st.expr, st.line)
        elif isinstance(st, VFormStmt):
            self._vform(st)
        elif isinstance(st, AlgebraStmt):
            self._algebra(st)
        elif isinstance(st, CheckStmt):
            self._check(st)

    def _need_chart(self, line: int) -> Chart:
        if self.chart is None:
            self.fail("no chart declared yet", line)
        return self._bound(self.chart, line)

    def _chart(self, st: ChartStmt) -> None:
        # a new chart starts a fresh scope for fields and geometry objects,
        # rejected ones included; a rejected chart line leaves no chart
        self.chart, self.coords = None, st.coords
        self.fields.clear()
        self.objects.clear()
        if st.metric_kind == "diag":
            if len(st.diag) != len(st.coords):
                self.fail("metric diagonal length must match the chart dimension",
                          st.line)
            metric = MetricSpec.diagonal(list(st.diag))
        else:
            # matrix entries may reference the coordinates being declared
            rows = [[self.bind_expr(e, st.line) for e in row] for row in st.rows]
            if len(rows) != len(st.coords) or any(len(r) != len(st.coords) for r in rows):
                self.fail("metric matrix must be square with the chart dimension",
                          st.line)
            # MetricSpec reads only the upper triangle; compared as written, by
            # the canonical print, which tells apart any two ASTs the parser makes
            c = st.coords
            for i in range(len(c)):
                for j in range(i + 1, len(c)):
                    upper, lower = print_expr(st.rows[i][j]), print_expr(st.rows[j][i])
                    if upper != lower:
                        self.fail(f"metric matrix is not symmetric: entry [{c[i]}, {c[j]}] "
                                  f"is {upper} but entry [{c[j]}, {c[i]}] is {lower}",
                                  st.line)
            metric = MetricSpec.matrix(rows)
        self.chart = Chart(st.coords, metric)

    def _vform(self, st: VFormStmt) -> None:
        chart = self._need_chart(st.line)
        n = chart.dim
        if not (0 <= st.degree <= n):
            self.fail(f"degree {st.degree} is out of range on a {n}-chart", st.line)
        space = None
        if st.values is not None:
            space = self._bound(self.spaces.get(st.values), st.line)
            if space is None:
                self.fail(f"unknown value space {st.values!r}", st.line)
        terms = []
        for term in st.terms:
            coeff = self.bind_expr(term.coeff, st.line)
            axes = []
            for bname in term.basis:
                if bname not in chart.coord_names:
                    self.fail(f"basis token d{bname} does not match a coordinate",
                              st.line)
                axes.append(chart.axis(bname))
            if len(axes) != st.degree:
                self.fail(f"term has {len(axes)} basis factors, degree is "
                          f"{st.degree}", st.line)
            ss = sort_sign(tuple(axes))
            if ss is None:
                continue  # repeated basis factor: term vanishes
            idx, sgn = ss
            coeff = coeff if sgn == 1 else -coeff
            if space is not None:
                if term.label is None:
                    self.fail("valued form terms need an '@ label'", st.line)
                key = (idx, term.label)
            else:
                if term.label is not None:
                    self.fail("'@ label' requires a 'values' declaration", st.line)
                key = idx
            terms.append((key, coeff))
        components = sum_terms(terms)
        variance = CONTRA if st.kind == "vector" else COV
        if space is not None:
            obj: object = ValuedForm.from_components(chart, st.degree, variance, space,
                                                     components)
        elif st.kind == "vector" and st.degree == 1:
            obj = [ZERO] * n
            for (axis,), e in components.items():
                obj[axis] = e
        else:
            obj = AlternatingTensor(chart, variance, st.degree, components)
        self.objects[st.name] = obj

    def _algebra(self, st: AlgebraStmt) -> None:
        if st.brackets:
            for i, j, k, _v in st.brackets:
                if not all(1 <= a <= st.dim for a in (i, j, k)):
                    self.fail("bracket indices are 1-based and must be <= dim",
                              st.line)
            # LieStructure rejects a non-finite value, antisymmetry or Jacobi
            lie = LieStructure.from_triples(
                st.dim, [(i - 1, j - 1, k - 1, v) for i, j, k, v in st.brackets])
        else:
            lie = abelian(st.dim)
        # the labels last: abelian and from_triples reject a dim too large to hold
        self.spaces[st.name] = ValueSpace(tuple(f"e{k + 1}" for k in range(st.dim)), lie)

    def _resolve_arg(self, ast: ArgValue, param: "catalog.Param", line: int):
        if isinstance(ast, ListLit):
            return list(ast.items)
        if isinstance(ast, Name):
            ident = ast.ident
            if ident in self.objects:
                return self._bound(self.objects[ident], line)
            if ident in self.fields:
                return self._bound(self.fields[ident], line)
            if param.kind.words:  # a bare word, e.g. phi=sym
                return ident
        return self.bind_expr(ast, line)

    def _check(self, st: CheckStmt) -> None:
        """Map the arguments onto the entry's parameter schema: a vararg
        takes every positional argument, otherwise positional arguments
        fill the required parameters in order; the catalog checks kinds."""
        if st.tol is not None and not math.isfinite(st.tol):
            self.fail(f"tolerance must be finite, got {st.tol!r}", st.line)
        if st.tol is not None and st.tol <= 0:
            self.fail("tol must be positive", st.line)
        chart = self._need_chart(st.line)
        schema = catalog.get_entry(st.entry).params
        named_params = {p.name: p for p in schema if not p.vararg}
        params: Dict[str, object] = {}
        vararg = next((p for p in schema if p.vararg), None)
        if vararg is not None:
            params[vararg.name] = [self._resolve_arg(a, vararg, st.line) for a in st.args]
        else:
            positional = [p for p in schema if p.required]
            if len(st.args) > len(positional):
                self.fail(f"{st.entry} takes at most {len(positional)} "
                          f"positional argument(s)", st.line)
            for p, ast in zip(positional, st.args):
                params[p.name] = self._resolve_arg(ast, p, st.line)
        for key, ast in st.named:
            if key not in named_params:
                self.fail(f"unknown parameter {key!r} for {st.entry}", st.line)
            params[key] = self._resolve_arg(ast, named_params[key], st.line)
        if len(st.sample.ranges) != chart.dim:
            self.fail(f"sample has {len(st.sample.ranges)} range(s); the chart "
                      f"has {chart.dim} coordinate(s)", st.line)
        if st.sample.kind == "grid":
            sample = SampleSet.grid(st.sample.ranges, st.sample.count)
        else:
            sample = SampleSet.random_box(st.sample.ranges, st.sample.count, st.sample.seed)
        try:
            cond = catalog.build(st.entry, chart, **params)
        except GrsError as e:
            self.fail(f"{st.entry}: {e}", st.line)
        k = self.entry_counts.get(st.entry, 0)
        self.entry_counts[st.entry] = k + 1
        name = st.entry if k == 0 else f"{st.entry}#{k + 1}"
        self.checks.append(BoundCheck(name, st.entry, cond, sample,
                                      st.tol if st.tol is not None else DEFAULT_TOL,
                                      chart, params, st.expect))


def bind_document(doc: SpecDocument,
                  source: str = "") -> Tuple[List[BoundCheck], List[Diagnostic]]:
    """Resolve a parsed document into runnable checks.

    Returns (checks, diagnostics); any error diagnostic means the check
    list is incomplete and the document should be rejected.
    """
    b = _Binder(source.splitlines())
    b.bind(doc)
    return b.checks, b.diags


def load(text: str) -> Tuple[List[BoundCheck], List[Diagnostic]]:
    """parse + bind in one step."""
    doc, diags = parse(text)
    if doc is None:
        return [], diags
    checks, bind_diags = bind_document(doc, source=text)
    return checks, diags + bind_diags


def bind_expression(text: str,
                    coords: Tuple[str, ...]) -> Tuple[Optional[Expr], List[Diagnostic]]:
    """Parse ``text`` and bind it over the coordinates ``coords``: (expr or None
    on an error, diagnostics); names no chart may have raise DimensionError."""
    ast, diags = parse_expression(text)
    if ast is None:
        return None, diags
    b = _Binder(text.splitlines())
    b.coords = catalog.euclidean(coords).coord_names
    try:
        return b.bind_expr(ast, 1), diags + b.diags
    except _Bail:
        return None, diags + b.diags
