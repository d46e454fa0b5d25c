"""A small declarative language for charts, fields, forms, and checks.

Documents parse to an AST with structural equality; ``bind_document``
resolves names against the catalog and produces runnable checks.  All
errors are reported as diagnostics with line/column positions, and the
parser recovers at statement boundaries so several errors surface in one
pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import catalog
from .engine import DEFAULT_TOL, GrCondition
from .errors import GrsError
from .exterior import CONTRA, COV, AlternatingTensor, Chart, MetricSpec, sort_sign
from .scalar import Expr, SampleSet, ZERO, as_expr, bump, const, coord, cos, exp, sin, sqrt
from .valued import LieStructure, ValueSpace, ValuedForm, abelian

KEYWORDS = {
    "chart", "metric", "diag", "matrix", "field", "form", "vector",
    "values", "algebra", "dim", "bracket", "check", "on", "tol",
    "grid", "random", "seed",
}

_STATEMENT_KEYWORDS = ("chart", "field", "form", "vector", "algebra", "check")

_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "sqrt": sqrt, "bump": bump}


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class Diagnostic:
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


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT NUMBER SYM EOF
    text: str
    line: int
    col: int


_TWO_CHAR = ("..",)
_ONE_CHAR = "()[],;=:+-*/^@"


def tokenize(text: str) -> Tuple[List[Token], List[Diagnostic]]:
    lines = text.splitlines() or [""]
    toks: List[Token] = []
    diags: List[Diagnostic] = []
    for ln, raw in enumerate(lines, start=1):
        i = 0
        n = len(raw)
        while i < n:
            c = raw[i]
            if c in " \t\r":
                i += 1
                continue
            if c == "#":
                break
            col = i + 1
            if c.isalpha() or c == "_":
                j = i
                while j < n and (raw[j].isalnum() or raw[j] == "_"):
                    j += 1
                toks.append(Token("IDENT", raw[i:j], ln, col))
                i = j
                continue
            if c.isdigit() or (c == "." and i + 1 < n and raw[i + 1].isdigit()):
                j = i
                while j < n and raw[j].isdigit():
                    j += 1
                if j < n and raw[j] == "." and not raw[j:j + 2] == "..":
                    j += 1
                    while j < n and raw[j].isdigit():
                        j += 1
                if j < n and raw[j] in "eE":
                    k = j + 1
                    if k < n and raw[k] in "+-":
                        k += 1
                    if k < n and raw[k].isdigit():
                        j = k
                        while j < n and raw[j].isdigit():
                            j += 1
                toks.append(Token("NUMBER", raw[i:j], ln, col))
                i = j
                continue
            if raw[i:i + 2] == "^w" and (i + 2 >= n or not raw[i + 2].isalnum()):
                toks.append(Token("SYM", "^w", ln, col))
                i += 2
                continue
            two = raw[i:i + 2]
            if two in _TWO_CHAR:
                toks.append(Token("SYM", two, ln, col))
                i += 2
                continue
            if c in _ONE_CHAR:
                toks.append(Token("SYM", c, ln, col))
                i += 1
                continue
            diags.append(Diagnostic("error", f"unexpected character {c!r}",
                                    ln, col, raw))
            i += 1
    toks.append(Token("EOF", "", len(lines), len(lines[-1]) + 1))
    return toks, diags


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Un:
    op: str
    a: "ExprAst"


@dataclass(frozen=True)
class Bin:
    op: str
    a: "ExprAst"
    b: "ExprAst"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"


ExprAst = Union[Num, Name, Un, Bin, Call]


@dataclass(frozen=True)
class ListLit:
    items: Tuple[float, ...]


@dataclass(frozen=True)
class VTerm:
    coeff: ExprAst
    basis: Tuple[str, ...]  # coordinate names; () for degree 0
    label: Optional[str]


@dataclass(frozen=True)
class ChartStmt:
    name: str
    coords: Tuple[str, ...]
    metric_kind: str  # diag | matrix
    diag: Tuple[float, ...] = ()
    rows: Tuple[Tuple[ExprAst, ...], ...] = ()
    line: int = 0


@dataclass(frozen=True)
class FieldStmt:
    name: str
    expr: ExprAst
    line: int = 0


@dataclass(frozen=True)
class VFormStmt:
    kind: str  # form | vector
    name: str
    degree: int
    values: Optional[str]
    terms: Tuple[VTerm, ...]
    line: int = 0


@dataclass(frozen=True)
class AlgebraStmt:
    name: str
    dim: int
    brackets: Tuple[Tuple[int, int, int, float], ...]
    line: int = 0


@dataclass(frozen=True)
class SampleAst:
    kind: str  # grid | random
    ranges: Tuple[Tuple[float, float], ...]
    count: int
    seed: int = 0


ArgValue = Union[ExprAst, ListLit]


@dataclass(frozen=True)
class CheckStmt:
    entry: str
    args: Tuple[ArgValue, ...]
    named: Tuple[Tuple[str, ArgValue], ...]
    sample: SampleAst
    tol: Optional[float]
    line: int = 0


Statement = Union[ChartStmt, FieldStmt, VFormStmt, AlgebraStmt, CheckStmt]


@dataclass(frozen=True)
class SpecDocument:
    statements: Tuple[Statement, ...]


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, toks: List[Token], lines: List[str]):
        self.toks = toks
        self.lines = lines
        self.pos = 0
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

    def number(self) -> float:
        neg = self.accept_sym("-")
        t = self.peek()
        if t.kind != "NUMBER":
            self.error("expected a number")
        self.next()
        v = float(t.text)
        return -v if neg else v

    # --- document

    def document(self) -> SpecDocument:
        stmts: List[Statement] = []
        while self.peek().kind != "EOF":
            t = self.peek()
            start = self.pos
            if t.kind != "IDENT" or t.text not in _STATEMENT_KEYWORDS:
                try:
                    self.error(f"expected a statement keyword, got {t.text!r}")
                except _Bail:
                    self._sync(start)
                continue
            try:
                stmts.append(self._statement(t.text))
            except _Bail:
                self._sync(start)
        return SpecDocument(tuple(stmts))

    def _sync(self, start: int):
        """Skip tokens until the next statement keyword."""
        if self.pos == start:
            self.next()
        while True:
            t = self.peek()
            if t.kind == "EOF":
                return
            if t.kind == "IDENT" and t.text in _STATEMENT_KEYWORDS:
                return
            self.next()

    def _statement(self, kw: str) -> Statement:
        if kw == "chart":
            return self.chart_stmt()
        if kw == "field":
            return self.field_stmt()
        if kw in ("form", "vector"):
            return self.vform_stmt()
        if kw == "algebra":
            return self.algebra_stmt()
        return self.check_stmt()

    def chart_stmt(self) -> ChartStmt:
        t0 = self.next()
        name = self.expect_ident("chart name").text
        self.expect_sym("(")
        coords = [self.expect_ident("coordinate name").text]
        while self.accept_sym(","):
            coords.append(self.expect_ident("coordinate name").text)
        self.expect_sym(")")
        self.expect_keyword("metric")
        kind = self.expect_ident("'diag' or 'matrix'").text
        if kind == "diag":
            self.expect_sym("(")
            diag = [self.number()]
            while self.accept_sym(","):
                diag.append(self.number())
            self.expect_sym(")")
            return ChartStmt(name, tuple(coords), "diag", diag=tuple(diag),
                             line=t0.line)
        if kind == "matrix":
            self.expect_sym("[")
            rows = [self._expr_row()]
            while self.accept_sym(","):
                rows.append(self._expr_row())
            self.expect_sym("]")
            return ChartStmt(name, tuple(coords), "matrix", rows=tuple(rows),
                             line=t0.line)
        self.error("expected 'diag' or 'matrix' after 'metric'")

    def _expr_row(self) -> Tuple[ExprAst, ...]:
        self.expect_sym("[")
        row = [self.expr()]
        while self.accept_sym(","):
            row.append(self.expr())
        self.expect_sym("]")
        return tuple(row)

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
        t = self.peek()
        if t.kind != "NUMBER":
            self.error("expected a degree")
        self.next()
        degree = int(float(t.text))
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
                terms.append(replace(tm, coeff=Un("-", tm.coeff)))
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
        if len(t.text) < 2 or not t.text.startswith("d"):
            self.error("basis tokens are spelled d<coordinate>", t)
        return t.text[1:]

    def algebra_stmt(self) -> AlgebraStmt:
        t0 = self.next()
        name = self.expect_ident("algebra name").text
        self.expect_keyword("dim")
        t = self.peek()
        if t.kind != "NUMBER":
            self.error("expected a dimension")
        self.next()
        dim = int(float(t.text))
        brackets: List[Tuple[int, int, int, float]] = []
        if self.peek().kind == "IDENT" and self.peek().text == "bracket":
            self.next()
            while self.at_sym("("):
                self.next()
                i = int(self.number())
                self.expect_sym(",")
                j = int(self.number())
                self.expect_sym(",")
                k = int(self.number())
                self.expect_sym(",")
                v = self.number()
                self.expect_sym(")")
                brackets.append((i, j, k, v))
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
        return CheckStmt(entry, tuple(args), tuple(named), sample, tol,
                         line=t0.line)

    def arg_value(self) -> ArgValue:
        if self.at_sym("["):
            self.next()
            items = [self.number()]
            while self.accept_sym(","):
                items.append(self.number())
            self.expect_sym("]")
            return ListLit(tuple(items))
        return self.expr()

    def sample(self) -> SampleAst:
        kindtok = self.expect_ident("'grid' or 'random'")
        if kindtok.text not in ("grid", "random"):
            self.error("expected 'grid' or 'random'", kindtok)
        self.expect_sym("(")
        ranges = [self._range()]
        while self.accept_sym(","):
            ranges.append(self._range())
        self.expect_sym(";")
        count = int(self.number())
        seed = 0
        if kindtok.text == "random":
            self.expect_sym(",")
            self.expect_keyword("seed")
            seed = int(self.number())
        self.expect_sym(")")
        return SampleAst(kindtok.text, tuple(ranges), count, seed)

    def _range(self) -> Tuple[float, float]:
        lo = self.number()
        self.expect_sym("..")
        hi = self.number()
        return (lo, hi)

    # --- expressions (precedence climbing; ^ > unary - > * / > + -)

    def expr(self) -> ExprAst:
        return self._additive()

    def _additive(self) -> ExprAst:
        left = self._multiplicative()
        while True:
            if self.accept_sym("+"):
                op = "+"
            elif self._minus_ahead():
                self.next()
                op = "-"
            else:
                return left
            left = Bin(op, left, self._multiplicative())

    def _minus_ahead(self) -> bool:
        # a '-' that starts a vterm continuation is handled by the caller;
        # inside an expression any '-' binds here.
        return self.at_sym("-")

    def _multiplicative(self) -> ExprAst:
        left = self._unary()
        while True:
            if self.at_sym("*"):
                # '*' followed by a basis token belongs to the vterm syntax
                nxt = self.toks[self.pos + 1]
                if nxt.kind == "IDENT" and self._looks_like_basis(nxt.text):
                    return left
                self.next()
                left = Bin("*", left, self._unary())
            elif self.accept_sym("/"):
                left = Bin("/", left, self._unary())
            else:
                return left

    def _looks_like_basis(self, text: str) -> bool:
        if len(text) < 2 or not text.startswith("d"):
            return False
        after = self.toks[self.pos + 2]
        return after.kind != "SYM" or after.text not in ("(", "^")

    def _unary(self) -> ExprAst:
        if self.accept_sym("-"):
            return Un("-", self._unary())
        return self._power()

    def _power(self) -> ExprAst:
        base = self._atom()
        if self.accept_sym("^"):
            return Bin("^", base, self._unary())  # right-associative
        return base

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
                arg = self.expr()
                self.expect_sym(")")
                return Call(t.text, arg)
            return Name(t.text)
        if self.accept_sym("("):
            inner = self.expr()
            self.expect_sym(")")
            return inner
        self.error("expected an expression"
                   if t.kind == "EOF" else f"expected an expression, got {t.text!r}")


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
# pretty printer


def _fmt_num(v: float) -> str:
    return repr(float(v))


def print_expr(e: ExprAst, parent_prec: int = 0) -> str:
    # precedence levels: + - =1, * / =2, unary - =3, ^ =4
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Call):
        return f"{e.fn}({print_expr(e.arg)})"
    if isinstance(e, Un):
        s = f"-{print_expr(e.a, 3)}"
        return f"({s})" if parent_prec > 3 else s
    prec = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[e.op]
    left = print_expr(e.a, prec if e.op != "^" else prec + 1)
    right = print_expr(e.b, prec + 1 if e.op != "^" else prec)
    s = f"{left} {e.op} {right}" if e.op != "^" else f"{left}^{right}"
    return f"({s})" if prec < parent_prec else s


def _print_vterm(t: VTerm) -> str:
    s = print_expr(t.coeff, 2)
    if t.basis:
        s += " * " + " ^w ".join("d" + b for b in t.basis)
    if t.label is not None:
        s += f" @ {t.label}"
    return s


def _print_arg(a: ArgValue) -> str:
    if isinstance(a, ListLit):
        return "[" + ", ".join(_fmt_num(v) for v in a.items) + "]"
    return print_expr(a)


def _print_sample(s: SampleAst) -> str:
    ranges = ", ".join(f"{_fmt_num(lo)}..{_fmt_num(hi)}" for lo, hi in s.ranges)
    if s.kind == "random":
        return f"random({ranges}; {s.count}, seed {s.seed})"
    return f"grid({ranges}; {s.count})"


def print_document(doc: SpecDocument) -> str:
    out: List[str] = []
    for st in doc.statements:
        if isinstance(st, ChartStmt):
            coords = ", ".join(st.coords)
            if st.metric_kind == "diag":
                metric = "diag(" + ", ".join(_fmt_num(v) for v in st.diag) + ")"
            else:
                rows = ", ".join(
                    "[" + ", ".join(print_expr(e) for e in row) + "]"
                    for row in st.rows)
                metric = f"matrix [{rows}]"
            out.append(f"chart {st.name} ({coords}) metric {metric}")
        elif isinstance(st, FieldStmt):
            out.append(f"field {st.name} = {print_expr(st.expr)}")
        elif isinstance(st, VFormStmt):
            head = f"{st.kind} {st.name} : {st.degree}"
            if st.values:
                head += f" values {st.values}"
            body = " + ".join(_print_vterm(t) for t in st.terms)
            out.append(f"{head} = {body}")
        elif isinstance(st, AlgebraStmt):
            line = f"algebra {st.name} dim {st.dim}"
            if st.brackets:
                trip = " ".join(
                    f"({i}, {j}, {k}, {_fmt_num(v)})" for i, j, k, v in st.brackets)
                line += f" bracket {trip}"
            out.append(line)
        elif isinstance(st, CheckStmt):
            parts = [_print_arg(a) for a in st.args]
            parts += [f"{k}={_print_arg(v)}" for k, v in st.named]
            line = (f"check {st.entry}({', '.join(parts)}) "
                    f"on {_print_sample(st.sample)}")
            if st.tol is not None:
                line += f" tol {_fmt_num(st.tol)}"
            out.append(line)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# binder


# entry id -> (positional parameter names or "*<name>" vararg, allowed named)
_SIGS: Dict[str, Tuple[object, Tuple[str, ...]]] = {
    "first_integral": (("X", "f"), ()),
    "relative_invariant": (("X", "alpha"), ()),
    "absolute_invariant": (("X", "alpha"), ()),
    "symplectic_closed": (("omega",), ()),
    "hamiltonian_field": (("omega", "X"), ()),
    "poisson_first_integrals": (("omega", "Z", "alpha", "beta"), ()),
    "frobenius_vector": ("*fields", ("pi",)),
    "frobenius_pfaff": ("*forms", ()),
    "nabla_parallel": (("X", "sigma"), ()),
    "theta_pi_parallel": (("psi", "theta"), ("pi",)),
    "autoparallel_valued_form": (("psi",), ("phi",)),
    "autoparallel_vector": (("u",), ()),
    "null_autoparallel": (("u",), ()),
    "mass_energy": (("u", "rho"), ()),
    "maxwell_vacuum": (("F",), ()),
    "maxwell_currents": (("F", "m_current", "j_current"), ()),
    "ext_maxwell_vacuum": (("F",), ()),
    "ext_maxwell_currents": (("F", "J1", "J2", "J3", "J4"), ("symmetrized_rhs",)),
    "pfaff_currents": (("J1", "J2", "J3", "J4"), ()),
    "yang_mills": (("omega",), ()),
    "bianchi": (("omega",), ("psi",)),
    "ext_yang_mills_bracket": (("psi",), ("omega",)),
    "ext_yang_mills_diagonal": (("psi",), ("omega",)),
    "ext_yang_mills_sym": (("psi",), ()),
    "ricci_flat": ((), ()),
    "schrodinger": (("psi",), ("V", "hbar", "mass")),
    "dirac": (("psi",), ("m", "sign", "A", "e")),
}

# named parameters whose value is a plain number rather than a field
_NUMERIC_PARAMS = {"m", "sign", "e", "hbar", "mass", "symmetrized_rhs"}

# named parameters that accept a bare keyword (passed through as a string)
_WORD_PARAMS = {"phi"}


@dataclass
class BoundCheck:
    name: str
    entry: str
    condition: GrCondition
    sample: SampleSet
    tol: float


class _Binder:
    def __init__(self, lines: List[str]):
        self.lines = lines
        self.diags: List[Diagnostic] = []
        self.chart: Optional[Chart] = None
        self.fields: Dict[str, Expr] = {}
        self.objects: Dict[str, object] = {}  # forms, vectors, valued forms
        self.spaces: Dict[str, ValueSpace] = {}
        self.checks: List[BoundCheck] = []
        self.entry_counts: Dict[str, int] = {}

    def fail(self, msg: str, line: int):
        excerpt = self.lines[line - 1] if 1 <= line <= len(self.lines) else ""
        self.diags.append(Diagnostic("error", msg, line, 1, excerpt))
        raise _Bail()

    # --- expression binding

    def bind_expr(self, ast: ExprAst, line: int) -> Expr:
        if isinstance(ast, Num):
            return const(ast.value)
        if isinstance(ast, Name):
            ident = ast.ident
            if self.chart is not None and ident in self.chart.coord_names:
                return coord(self.chart.axis(ident))
            if ident in self.fields:
                return self.fields[ident]
            if ident == "i":
                return const(1j)
            self.fail(f"unknown name {ident!r}", line)
        if isinstance(ast, Un):
            return -self.bind_expr(ast.a, line)
        if isinstance(ast, Call):
            return _FUNCTIONS[ast.fn](self.bind_expr(ast.arg, line))
        if isinstance(ast, Bin):
            if ast.op == "^":
                expo = self._const_value(ast.b)
                if expo is None:
                    self.fail("exponent must be a numeric literal", line)
                base = self.bind_expr(ast.a, line)
                frac = Fraction(expo)
                try:
                    return base ** frac
                except GrsError as e:
                    self.fail(str(e), line)
            a = self.bind_expr(ast.a, line)
            b = self.bind_expr(ast.b, line)
            return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[ast.op]
        self.fail(f"cannot bind expression node {ast!r}", line)

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
            except _Bail:
                continue

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
        return self.chart

    def _chart(self, st: ChartStmt) -> None:
        if st.metric_kind == "diag":
            if len(st.diag) != len(st.coords):
                self.fail("metric diagonal length must match the chart dimension",
                          st.line)
            metric = MetricSpec.diagonal(list(st.diag))
            self.chart = Chart(st.coords, metric)
        else:
            # matrix entries may reference the coordinates being declared
            tmp = Chart(st.coords, MetricSpec.diagonal([1.0] * len(st.coords)))
            self.chart = tmp
            rows = [[self.bind_expr(e, st.line) for e in row] for row in st.rows]
            if len(rows) != len(st.coords) or any(len(r) != len(st.coords) for r in rows):
                self.fail("metric matrix must be square with the chart dimension",
                          st.line)
            self.chart = Chart(st.coords, MetricSpec.matrix(rows))
        # a new chart starts a fresh scope for fields and geometry objects
        self.fields.clear()
        self.objects.clear()

    def _vform(self, st: VFormStmt) -> None:
        chart = self._need_chart(st.line)
        n = chart.dim
        if not (0 <= st.degree <= n):
            self.fail(f"degree {st.degree} is out of range on a {n}-chart", st.line)
        space = None
        if st.values is not None:
            space = self.spaces.get(st.values)
            if space is None:
                self.fail(f"unknown value space {st.values!r}", st.line)
        components: Dict[tuple, Expr] = {}
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
                if term.label not in space.labels:
                    self.fail(f"unknown value label {term.label!r}", st.line)
                key = (idx, term.label)
            else:
                if term.label is not None:
                    self.fail("'@ label' requires a 'values' declaration", st.line)
                key = idx
            components[key] = components[key] + coeff if key in components else coeff
        variance = CONTRA if st.kind == "vector" else COV
        try:
            if space is not None:
                obj: object = ValuedForm(chart, st.degree, variance, space,
                                         components)
            elif st.kind == "vector" and st.degree == 1:
                vec = [ZERO] * n
                for (axis,), e in components.items():
                    vec[axis] = e
                obj = vec
            else:
                obj = AlternatingTensor(chart, variance, st.degree, components)
        except GrsError as e:
            self.fail(str(e), st.line)
        self.objects[st.name] = obj

    def _algebra(self, st: AlgebraStmt) -> None:
        if st.dim < 1:
            self.fail("algebra dimension must be >= 1", st.line)
        labels = tuple(f"e{k + 1}" for k in range(st.dim))
        if st.brackets:
            for i, j, k, _v in st.brackets:
                if not all(1 <= a <= st.dim for a in (i, j, k)):
                    self.fail("bracket indices are 1-based and must be <= dim",
                              st.line)
            lie = LieStructure.from_triples(
                st.dim, [(i - 1, j - 1, k - 1, v) for i, j, k, v in st.brackets])
        else:
            lie = abelian(st.dim)
        self.spaces[st.name] = ValueSpace(labels=labels, lie=lie)

    def _resolve_arg(self, ast: ArgValue, pname: str, line: int):
        if isinstance(ast, ListLit):
            return list(ast.items)
        if isinstance(ast, Name):
            ident = ast.ident
            if ident in self.objects:
                return self.objects[ident]
            if ident in self.fields:
                return self.fields[ident]
            if pname in _WORD_PARAMS:
                return ident
        value = self.bind_expr(ast, line)
        if pname in _NUMERIC_PARAMS:
            from .scalar import Const
            if not isinstance(value, Const):
                self.fail(f"parameter {pname!r} must be a number", line)
            return value.value.real
        return value

    def _check(self, st: CheckStmt) -> None:
        chart = self._need_chart(st.line)
        if st.entry not in _SIGS:
            self.fail(f"unknown catalog entry {st.entry!r}", st.line)
        positional, allowed_named = _SIGS[st.entry]
        params: Dict[str, object] = {}
        if isinstance(positional, str):  # vararg
            vname = positional[1:]
            params[vname] = [self._resolve_arg(a, vname, st.line) for a in st.args]
        else:
            if len(st.args) > len(positional):
                self.fail(f"{st.entry} takes at most {len(positional)} "
                          f"positional argument(s)", st.line)
            for pname, ast in zip(positional, st.args):
                params[pname] = self._resolve_arg(ast, pname, st.line)
        for key, ast in st.named:
            if key not in allowed_named and not (
                    not isinstance(positional, str) and key in positional):
                self.fail(f"unknown parameter {key!r} for {st.entry}", st.line)
            params[key] = self._resolve_arg(ast, key, st.line)
        if len(st.sample.ranges) != chart.dim:
            self.fail(f"sample has {len(st.sample.ranges)} range(s); the chart "
                      f"has {chart.dim} coordinate(s)", st.line)
        try:
            if st.sample.kind == "grid":
                sample = SampleSet.grid(st.sample.ranges, st.sample.count)
            else:
                sample = SampleSet.random_box(st.sample.ranges, st.sample.count,
                                              st.sample.seed)
        except GrsError as e:
            self.fail(str(e), st.line)
        try:
            cond = catalog.build(st.entry, chart, **params)
        except GrsError as e:
            self.fail(f"{st.entry}: {e}", st.line)
        except (TypeError, AttributeError):
            # wrong argument kind, e.g. a scalar field where the entry
            # expects a vector or form
            self.fail(f"{st.entry}: argument kind mismatch", st.line)
        k = self.entry_counts.get(st.entry, 0)
        self.entry_counts[st.entry] = k + 1
        name = st.entry if k == 0 else f"{st.entry}#{k + 1}"
        self.checks.append(BoundCheck(name, st.entry, cond, sample,
                                      st.tol if st.tol is not None else DEFAULT_TOL))


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
