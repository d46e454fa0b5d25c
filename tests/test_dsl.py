from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grs import dsl
from grs.valued import MAX_ALGEBRA_DIM


SPEC_DIR = Path(__file__).resolve().parents[1] / "src" / "grs" / "specs"
SPEC_FILES = sorted(SPEC_DIR.glob("*.grs"))


class TestTokenizer:
    def test_basic_stream(self):
        toks, diags = dsl.tokenize("field f = 2 + x # trailing comment\n")
        assert not diags
        assert [t.text for t in toks[:-1]] == ["field", "f", "=", "2", "+", "x"]
        assert toks[-1].kind == "EOF"

    def test_range_dots_split_from_numbers(self):
        toks, _ = dsl.tokenize("-2..2")
        texts = [t.text for t in toks[:-1]]
        assert texts == ["-", "2", "..", "2"]

    def test_wedge_token(self):
        toks, _ = dsl.tokenize("dx ^w dy")
        assert [t.text for t in toks[:-1]] == ["dx", "^w", "dy"]

    def test_caret_before_name_is_power(self):
        # "^wt" would swallow a name if "^w" were lexed greedily
        toks, _ = dsl.tokenize("x ^wt")
        assert [t.text for t in toks[:-1]] == ["x", "^", "wt"]

    def test_scientific_notation(self):
        toks, _ = dsl.tokenize("1e-9 2.5E+3")
        vals = [t.text for t in toks[:-1]]
        assert vals == ["1e-9", "2.5E+3"]

    def test_bad_character_reported(self):
        _, diags = dsl.tokenize("field f = 2 ? 3")
        assert any(d.severity == "error" for d in diags)

    @pytest.mark.parametrize("text, tokens, error_cols", [
        ("1..2", [("NUMBER", "1", 1), ("SYM", "..", 2), ("NUMBER", "2", 4)], []),
        ("1.e5", [("NUMBER", "1.e5", 1)], []),
        ("1e", [("NUMBER", "1", 1), ("IDENT", "e", 2)], []),
        ("...", [("SYM", "..", 1)], [3]),
        ("x ^wt", [("IDENT", "x", 1), ("SYM", "^", 3), ("IDENT", "wt", 4)], []),
        ("dx ^w_", [("IDENT", "dx", 1), ("SYM", "^w", 4), ("IDENT", "_", 6)], []),
        ("θ", [("IDENT", "θ", 1)], []),
        ("٣", [("NUMBER", "٣", 1)], []),
        ("²z", [("IDENT", "z", 2)], [1]),
    ])
    def test_edge_cases(self, text, tokens, error_cols):
        toks, diags = dsl.tokenize(text)
        assert [(t.kind, t.text, t.col) for t in toks[:-1]] == tokens
        assert [d.column for d in diags] == error_cols
        assert all(d.message.startswith("unexpected character") for d in diags)


# pieces that reach every token rule, its edges and the errors between them
_LEX_PIECES = ["..", ".", "^w", "^w_", "^", "w", "x", "_", "e", "E", "1", "07", "1e5",
               "2E-3", "e+", ".5", "1.", "#", "θ", "٣", "²", "?", " ", "\t", "\n",
               "(", ")", ",", ";", "=", ":", "+", "-", "*", "/", "@", "[", "]"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=30).map("".join))
def test_lexer_covers_each_character_once(text):
    toks, diags = dsl.tokenize(text)
    lines = text.splitlines() or [""]
    assert [t.kind for t in toks].count("EOF") == 1 and toks[-1].kind == "EOF"
    for ln, raw in enumerate(lines, start=1):
        on_line = [t for t in toks[:-1] if t.line == ln]
        errors = [d.column for d in diags if d.line == ln]
        for cols in ([t.col for t in on_line], errors):
            assert all(a < b for a, b in zip(cols, cols[1:]))
        covered = [d - 1 for d in errors]
        for t in on_line:
            assert raw[t.col - 1:t.col - 1 + len(t.text)] == t.text
            covered += range(t.col - 1, t.col - 1 + len(t.text))
        code = raw.split("#")[0]
        assert sorted(covered) == [i for i, c in enumerate(code) if c not in " \t"]


class TestParser:
    def test_precedence(self):
        ast, diags = dsl.parse_expression("2 + 3 * 4 ^ 2")
        assert not diags
        assert isinstance(ast, dsl.Bin) and ast.op == "+"
        mul = ast.b
        assert isinstance(mul, dsl.Bin) and mul.op == "*"
        assert isinstance(mul.b, dsl.Bin) and mul.b.op == "^"

    def test_unary_minus_binds_looser_than_power(self):
        ast, _ = dsl.parse_expression("-x^2")
        assert isinstance(ast, dsl.Un) and ast.op == "-"
        assert isinstance(ast.a, dsl.Bin) and ast.a.op == "^"

    def test_power_right_associative(self):
        ast, _ = dsl.parse_expression("2^3^2")
        assert isinstance(ast, dsl.Bin) and ast.op == "^"
        assert isinstance(ast.b, dsl.Bin) and ast.b.op == "^"

    def test_call(self):
        ast, _ = dsl.parse_expression("sin(x - y)")
        assert isinstance(ast, dsl.Call) and ast.fn == "sin"

    def test_document(self):
        doc, diags = dsl.parse(
            "chart R2 (x, y) metric diag(1, 1)\n"
            "field f = x * y\n"
            "check first_integral(f, f) on grid(-1..1, -1..1; 5) tol 1e-8\n")
        assert not diags
        kinds = [type(s).__name__ for s in doc.statements]
        assert kinds == ["ChartStmt", "FieldStmt", "CheckStmt"]
        chk = doc.statements[2]
        assert chk.tol == 1e-8
        assert chk.sample.kind == "grid"

    def test_error_recovery_reports_each_statement(self):
        doc, diags = dsl.parse(
            "chart R1 (x) metric diag(1)\n"
            "field f = 2 +\n"
            "field g = * 3\n"
            "field h = x\n")
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 2

    def test_keyword_cannot_be_expression(self):
        _, diags = dsl.parse("chart R1 (x) metric diag(1)\nfield f = check\n")
        assert any("keyword" in d.message for d in diags)


    @pytest.mark.parametrize("nest", [
        lambda k: "(" * k + "x" + ")" * k,
        lambda k: "-" * k + "x",
        lambda k: "^".join(["2"] * (k + 1)),
        lambda k: "sin(" * k + "x" + ")" * k,
    ], ids=["parentheses", "unary_minus", "power", "call"])
    def test_nesting_is_bounded(self, nest):
        ast, diags = dsl.parse_expression(nest(dsl.MAX_NESTING))
        assert ast is not None and not diags
        for k in (dsl.MAX_NESTING + 1, 1000):
            ast, diags = dsl.parse_expression(nest(k))
            assert ast is None
            assert [d.message for d in diags] == [
                f"expression nested more than {dsl.MAX_NESTING} levels deep"]


def _expressions(doc):
    """Every expression a document holds: matrix entries, field bodies, term
    coefficients and the expression arguments of checks."""
    for st in doc.statements:
        if isinstance(st, dsl.ChartStmt):
            yield from (e for row in st.rows for e in row)
        elif isinstance(st, dsl.FieldStmt):
            yield st.expr
        elif isinstance(st, dsl.VFormStmt):
            yield from (t.coeff for t in st.terms)
        elif isinstance(st, dsl.CheckStmt):
            args = st.args + tuple(v for _, v in st.named)
            yield from (a for a in args if not isinstance(a, dsl.ListLit))


class TestPrinter:
    @pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.stem)
    def test_round_trip_shipped_specs(self, path):
        doc, diags = dsl.parse(path.read_text())
        assert doc is not None and not diags, path.name
        exprs = list(_expressions(doc))
        assert exprs
        for e in exprs:
            assert dsl.parse_expression(dsl.print_expr(e)) == (e, [])

    def test_long_field_round_trips(self):
        # 1,500 terms nest 1,500 levels deep: printing must not recurse per level
        terms = " + ".join(f"{k}.0 * x" for k in range(1500))
        doc, diags = dsl.parse(f"chart R2 (x, y) metric diag(1, 1)\nfield f = {terms}\n")
        assert doc is not None and not diags
        printed = dsl.print_expr(doc.statements[1].expr)
        assert printed == terms
        # compared by print: == on 1,500-deep ASTs would recurse past Python's limit
        expr2, diags2 = dsl.parse_expression(printed)
        assert not diags2 and dsl.print_expr(expr2) == printed

    def test_literals_beyond_double_range_round_trip(self):
        # 1e400 is inf as a double; it must not print as the name "inf"
        doc, diags = dsl.parse("chart R2 (x, y) metric diag(1, 1)\nfield f = 1e400 * x\n")
        assert doc is not None and not diags
        expr = doc.statements[1].expr
        printed = dsl.print_expr(expr)
        assert "inf" not in printed
        assert dsl.parse_expression(printed) == (expr, [])

    @pytest.mark.parametrize("field, printed", [
        ("x * (dy)", "x * (dy)"),  # '* dy' would read as a basis factor
        ("x ^ w", "x^(w)"),  # '^w' would read as the wedge
    ], ids=["basis", "wedge"])
    def test_operand_that_reads_as_syntax_round_trips(self, field, printed):
        doc, diags = dsl.parse(f"chart M (x, dy) metric diag(1, 1)\nfield f = {field}\n")
        assert doc is not None and not diags
        expr = doc.statements[1].expr
        assert dsl.print_expr(expr) == printed
        assert dsl.parse_expression(printed) == (expr, [])

    def test_expression_round_trip(self):
        src = "-(x + 2.0) ^ 2 * sin(y) / 3.0"
        ast, _ = dsl.parse_expression(src)
        printed = dsl.print_expr(ast)
        ast2, _ = dsl.parse_expression(printed)
        assert dsl.print_expr(ast2) == printed


# every node the parser makes, over names next to the d<name> and ^w syntax
_EXPRESSIONS = st.recursive(
    st.floats(min_value=0, allow_nan=False, allow_infinity=True).map(dsl.Num)
    | st.sampled_from(["x", "θ", "i", "e", "d", "dy", "dx2", "d_", "w", "w_", "wt"])
    .map(dsl.Name),
    lambda kids: (st.builds(dsl.Un, st.just("-"), kids)
                  | st.builds(dsl.Bin, st.sampled_from("+-*/^"), kids, kids)
                  | st.builds(dsl.Call, st.sampled_from(["sin", "cos", "exp", "sqrt", "bump"]),
                              kids)),
    max_leaves=25)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_EXPRESSIONS)
def test_printed_expression_parses_back_to_itself(ast):
    # the binder compares metric entries by their print, so printing must be injective
    assert dsl.parse_expression(dsl.print_expr(ast)) == (ast, [])


class TestBinder:
    def _load(self, text):
        return dsl.load(text)

    def test_simple_document_binds(self):
        checks, diags = self._load(
            "chart R2 (x, y) metric diag(1, 1)\n"
            "vector X : 1 = -y * dx + x * dy\n"
            "field r2 = x^2 + y^2\n"
            "check first_integral(X, r2) on random(-2..2, -2..2; 50, seed 3)\n")
        assert not diags
        assert len(checks) == 1
        c = checks[0]
        assert c.entry == "first_integral"
        assert c.name == "first_integral"
        assert c.sample.requested == 50

    def test_repeated_checks_get_suffix(self):
        text = (
            "chart R1 (x) metric diag(1)\n"
            "vector X : 1 = 1 * dx\n"
            "field f = 2\n"
            "check first_integral(X, f) on grid(-1..1; 3)\n"
            "check first_integral(X, f) on grid(-1..1; 3)\n")
        checks, diags = self._load(text)
        assert not diags
        assert [c.name for c in checks] == ["first_integral", "first_integral#2"]

    def test_unknown_name_reported_with_use_site(self):
        _, diags = self._load(
            "chart R1 (x) metric diag(1)\n"
            "field f = x * missing\n")
        errors = [d for d in diags if d.severity == "error"]
        assert errors and "missing" in errors[0].message
        assert errors[0].line == 2

    def test_unknown_entry(self):
        _, diags = self._load(
            "chart R1 (x) metric diag(1)\n"
            "field f = x\n"
            "check no_such_entry(f) on grid(-1..1; 3)\n")
        assert any(d.severity == "error" for d in diags)

    def test_degree_exceeds_chart_dimension(self):
        _, diags = self._load(
            "chart M (x, y, z, xi) metric diag(-1, -1, -1, 1)\n"
            "form w : 5 = 1 * dx ^w dy\n")
        assert any(d.severity == "error" for d in diags)

    def test_sample_dimension_mismatch(self):
        _, diags = self._load(
            "chart R2 (x, y) metric diag(1, 1)\n"
            "field f = x\n"
            "check first_integral(f, f) on grid(-1..1; 3)\n")
        assert any(d.severity == "error" for d in diags)

    def test_imaginary_unit_unless_shadowed(self):
        checks, diags = self._load(
            "chart R2 (x, xi) metric diag(1, 1)\n"
            "vector X : 1 = 1 * dx\n"
            "field f = exp(-i * xi)\n"
            "check first_integral(X, f) on grid(-1..1, -1..1; 3)\n")
        assert not diags
        checks2, diags2 = self._load(
            "chart R2 (i, xi) metric diag(1, 1)\n"
            "vector X : 1 = 1 * di\n"
            "field f = 2 * i\n"
            "check first_integral(X, f) on grid(-1..1, -1..1; 3)\n")
        assert not diags2

    def test_new_chart_clears_scope(self):
        _, diags = self._load(
            "chart R1 (x) metric diag(1)\n"
            "field f = x\n"
            "chart R2 (u, v) metric diag(1, 1)\n"
            "field g = f + u\n")
        assert any(d.severity == "error" for d in diags)

    def test_algebra_bracket_binding(self):
        checks, diags = self._load(
            "chart R3 (x, y, z) metric diag(1, 1, 1)\n"
            "algebra su2 dim 3 bracket (1, 2, 3, 1) (2, 3, 1, 1) (3, 1, 2, 1)\n"
            "form a : 1 values su2 = x * dy @ e1\n"
            "check bianchi(a) on random(-2..2, -2..2, -2..2; 20, seed 1)\n")
        assert not diags
        assert len(checks) == 1

    @pytest.mark.parametrize("algebra, what, col", [
        ("algebra g dim 2.5", "dimension", 15),
        ("algebra g dim 1e400", "dimension", 15),
        ("algebra g dim 3 bracket (1, 2.5, 3, 1)", "bracket index", 29),
        ("algebra g dim 3 bracket (1, 2, 3, 1) (1e400, 2, 3, 1)", "bracket index", 39),
    ])
    def test_algebra_integers_must_be_whole(self, algebra, what, col):
        _, diags = self._load("chart R3 (x, y, z) metric diag(1, 1, 1)\n" + algebra + "\n")
        assert [(d.message, d.line, d.column) for d in diags] == [
            (f"{what} must be a whole number", 2, col)]

    @pytest.mark.parametrize("brackets, message", [
        ("(1, 2, 3, 1e400)", "bracket value must be finite, got inf"),
        ("(1, 2, 3, 1) (1, 1, 2, 1)", "brackets break antisymmetry at indices (1, 1, 2)"),
        ("(1, 2, 1, 1) (1, 3, 2, 1)",
         "brackets break the Jacobi identity at indices (1, 2, 3)"),
    ])
    def test_algebra_must_be_a_lie_algebra(self, brackets, message):
        _, diags = self._load("chart R3 (x, y, z) metric diag(1, 1, 1)\n"
                              f"algebra g dim 3 bracket {brackets}\n")
        assert [(d.message, d.line) for d in diags] == [(message, 2)]

    def test_large_structure_constants_bind(self):
        # Jacobi sums of su2 scaled by 1e6 are of order 1e12: the check scales with them
        _, diags = self._load(
            "chart R3 (x, y, z) metric diag(1, 1, 1)\n"
            "algebra su2 dim 3 bracket (1, 2, 3, 1e6) (2, 3, 1, 1e6) (3, 1, 2, 1e6)\n")
        assert not diags

    def test_integers_in_exponent_form(self):
        checks, diags = self._load(
            "chart R3 (x, y, z) metric diag(1, 1, 1)\n"
            "algebra su2 dim 3e0 bracket (1e0, 2, 3, 1) (2, 3, 1, 1) (3, 1, 2, 1)\n"
            "form a : 1e0 values su2 = x * dy @ e1\n"
            "check bianchi(a) on random(-2..2, -2..2, -2..2; 1e3, seed 1.3e1)\n")
        assert not diags
        assert (checks[0].sample.counts, checks[0].sample.seed) == ((1000,), 13)

    def test_largest_algebra_binds(self):
        # su(2) on each run of three labels: the Jacobi check meets every index
        n = MAX_ALGEBRA_DIM
        brackets = " ".join(f"({a}, {b}, {c}, 1)" for k in range(1, n - 1, 3)
                            for a, b, c in ((k, k + 1, k + 2), (k + 1, k + 2, k),
                                            (k + 2, k, k + 1)))
        checks, diags = self._load(
            "chart R3 (x, y, z) metric diag(1, 1, 1)\n"
            f"algebra g dim {n} bracket {brackets}\n"
            f"form a : 1 values g = x * dy @ e1 + z * dx @ e{n}\n"
            "check bianchi(a) on random(-2..2, -2..2, -2..2; 20, seed 13)\n")
        assert not diags and len(checks) == 1

    def test_non_symmetric_metric_matrix_names_both_entries(self):
        # the lower triangle used to be dropped: this read as the identity metric
        _, diags = self._load(
            "chart P (x, y) metric matrix [[1, 0], [5*x, 1]]\n"
            "check ricci_flat() on random(-1..1, -1..1; 20, seed 1)\n")
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1 and errors[0].line == 1
        assert errors[0].message == ("metric matrix is not symmetric: entry [x, y] "
                                     "is 0.0 but entry [y, x] is 5.0 * x")

    def test_number_and_name_that_print_alike_are_not_symmetric(self):
        # 1e400 prints as inf, like the coordinate named inf
        _, diags = self._load(
            "chart P (inf, y) metric matrix [[1, 1e400], [inf, 1]]\n"
            "check ricci_flat() on random(-1..1, -1..1; 20, seed 1)\n")
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1 and "metric matrix is not symmetric" in errors[0].message

    def test_long_sum_binds_and_verifies(self):
        from grs.engine import verify
        terms = " + ".join(["x^2 + y^2"] * 5000)
        checks, diags = self._load(
            "chart R2 (x, y) metric diag(1, 1)\n"
            "vector X : 1 = -y * dx + x * dy\n"
            f"field r2 = {terms}\n"
            "check first_integral(X, r2) on random(-2..2, -2..2; 50, seed 3) tol 1e-6\n")
        assert not diags
        rep = verify(checks[0].condition, checks[0].sample, checks[0].tol)
        assert rep.passed and rep.evaluated == 50

    def test_symmetric_metric_matrix_binds(self):
        checks, diags = self._load(
            "chart P (x, y) metric matrix [[1, x*y], [x*y, 2]]\n"
            "check ricci_flat() on random(-0.5..0.5, -0.5..0.5; 20, seed 1)\n")
        assert not diags and len(checks) == 1


R2 = "chart R2 (x, y) metric diag(1, 1)\n"
G2 = R2 + "algebra g dim 2\n"


@pytest.mark.parametrize("text, message, line", [
    # parser
    (R2 + "algebra g 3\n", "expected keyword 'dim'", 2),
    (R2 + "fild f = x\n", "expected a statement keyword, got 'fild'", 2),
    ("chart R2 (x, y) metric foo(1, 1)\n", "expected 'diag' or 'matrix' after 'metric'", 1),
    (R2 + "form w : 2 = x * dx ^w ey\n", "basis tokens are spelled d<coordinate>", 2),
    (R2 + "algebra g dim 3 bracket (1, 2, 3)\n",
     "expected a bracket triple '(i, j, k, value)'", 2),
    (R2 + "algebra g dim 3 bracket\n",
     "expected at least one bracket triple '(i, j, k, value)'", 2),
    (R2 + "field f = x\ncheck first_integral(X=f, f) on grid(-1..1, -1..1; 3)\n",
     "positional argument after a named argument", 3),
    (R2 + "field f = x\ncheck first_integral(f, f) on lattice(-1..1; 3)\n",
     "expected 'grid' or 'random'", 3),
    # binder
    (R2 + "field f = x^y\n", "exponent must be a numeric literal", 2),
    ("field f = x\n", "no chart declared yet", 1),
    ("chart R2 (x, y) metric diag(1, 1, 1)\n",
     "metric diagonal length must match the chart dimension", 1),
    (R2 + "form w : 1 values g = x * dx @ e1\n", "unknown value space 'g'", 2),
    (R2 + "form w : 1 = x * dz\n", "basis token dz does not match a coordinate", 2),
    (R2 + "form w : 2 = x * dx\n", "term has 1 basis factors, degree is 2", 2),
    (G2 + "form w : 1 values g = x * dx\n", "valued form terms need an '@ label'", 3),
    (G2 + "form w : 1 values g = x * dx @ e3\n", "unknown value label 'e3'", 3),
    (R2 + "form w : 1 = x * dx @ e1\n", "'@ label' requires a 'values' declaration", 2),
    (R2 + "algebra g dim 2 bracket (1, 2, 3, 1)\n",
     "bracket indices are 1-based and must be <= dim", 2),
    (R2 + "algebra g dim 0\n", "algebra dimension must be >= 1", 2),
    (R2 + f"algebra g dim {MAX_ALGEBRA_DIM + 1}\n",
     f"algebra dimension must be at most {MAX_ALGEBRA_DIM}, got {MAX_ALGEBRA_DIM + 1}", 2),
])
def test_diagnostic_names_its_line(text, message, line):
    _, diags = dsl.load(text)
    assert [(d.severity, d.message, d.line) for d in diags] == [("error", message, line)]


def test_repeated_basis_factor_drops_the_term():
    from grs.engine import verify
    reports = []
    for omega in ("x * dx ^w dy", "x * dx ^w dy + 3 * y * dy ^w dy"):
        checks, diags = dsl.load(R2 + f"form omega : 2 = {omega}\nvector X : 1 = 1 * dx\n"
                                 "check hamiltonian_field(omega, X) on grid(-1..1, -1..1; 3)\n")
        assert not diags
        reports.append(verify(checks[0].condition, checks[0].sample).to_dict())
    assert reports[0] == reports[1] and reports[0]["norms"]["1"]["linf"] == 1.0


def test_reordered_basis_factors_carry_the_permutation_sign():
    from grs.engine import verify
    # dy ^ dx = -dx ^ dy: the two terms cancel, so i(X) alpha = 0
    checks, diags = dsl.load("chart R3 (x, y, z) metric diag(1, 1, 1)\n"
                             "form alpha : 2 = x * dx ^w dy + x * dy ^w dx\n"
                             "vector X : 1 = 1 * dx\n"
                             "check absolute_invariant(X, alpha) on grid(-1..1, -1..1, -1..1; 3)\n")
    assert not diags
    assert verify(checks[0].condition, checks[0].sample).passed


class TestParameterSchema:
    """Arguments are mapped and checked by each entry's parameter schema."""

    R2 = ("chart R2 (x, y) metric diag(1, 1)\n"
          "vector X : 1 = -y * dx + x * dy\n"
          "field r2 = x^2 + y^2\n")
    M4 = ("chart M (x, y, z, xi) metric diag(-1, -1, -1, 1)\n"
          "algebra C4 dim 4\n"
          "form psi : 0 values C4 = exp(-i*xi) @ e1\n")
    R3 = ("chart R3 (x, y, z) metric diag(1, 1, 1)\n"
          "vector E1 : 1 = 1 * dx\n"
          "vector E2 : 1 = 1 * dy\n")
    THETA = ("chart M (x, y, z, xi) metric diag(-1, -1, -1, 1)\n"
             "algebra V2 dim 2\n"
             "form good : 1 values V2 = 1 * dx @ e1\n"
             "vector th : 2 = 1 * dx ^w dy\n")
    SAMPLE2 = "random(-2..2, -2..2; 20, seed 1)"
    SAMPLE3 = "random(-2..2, -2..2, -2..2; 20, seed 1)"
    SAMPLE4 = "random(-2..2, -2..2, -2..2, -2..2; 20, seed 1)"

    def _errors(self, text):
        _, diags = dsl.load(text)
        return [d for d in diags if d.severity == "error"]

    def test_swapped_arguments_name_the_parameter(self):
        errors = self._errors(self.R2 + f"check first_integral(r2, X) on {self.SAMPLE2}\n")
        assert len(errors) == 1
        assert "parameter 'X'" in errors[0].message
        assert "must be a vector" in errors[0].message
        assert errors[0].line == 4

    def test_bare_word_parameter(self):
        text = ("chart M (x, y, z, xi) metric diag(-1, -1, -1, 1)\n"
                "algebra V2 dim 2\n"
                "form w : 2 values V2 = z * dx ^w dy @ e1\n")
        assert not self._errors(text + f"check autoparallel_valued_form(w, phi=diag) "
                                       f"on {self.SAMPLE4}\n")
        errors = self._errors(text + f"check autoparallel_valued_form(w, phi=skew) "
                                     f"on {self.SAMPLE4}\n")
        assert errors and "parameter 'phi'" in errors[0].message

    def test_complex_mass_rejected(self):
        errors = self._errors(self.M4 + f"check dirac(psi, m=1+2*i, sign=-1) on {self.SAMPLE4}\n")
        assert errors and "parameter 'm'" in errors[0].message
        assert "real number" in errors[0].message

    def test_sign_outside_plus_minus_one_rejected(self):
        errors = self._errors(self.M4 + f"check dirac(psi, m=1, sign=2) on {self.SAMPLE4}\n")
        assert errors and "parameter 'sign'" in errors[0].message
        assert not self._errors(self.M4 + f"check dirac(psi, m=1, sign=1) on {self.SAMPLE4}\n")

    def test_negative_seed_in_spec_rejected(self):
        errors = self._errors(self.R2 + "check first_integral(X, r2) on "
                                        "random(-2..2, -2..2; 100, seed -3)\n")
        assert errors and "seed" in errors[0].message

    @pytest.mark.parametrize("pi", ["[0, 1]", "[0, 0, 1, 1]"])
    def test_flat_pi_of_wrong_length(self, pi):
        errors = self._errors(self.R3 + f"check frobenius_vector(E1, E2, pi={pi}) "
                                        f"on {self.SAMPLE3}\n")
        assert errors and "pi" in errors[0].message

    def test_value_space_pi_of_wrong_length(self):
        errors = self._errors(self.THETA + f"check theta_pi_parallel(good, th, pi=[1, 0, 0]) "
                                           f"on {self.SAMPLE4}\n")
        assert errors and "pi" in errors[0].message
        assert not self._errors(self.THETA + f"check theta_pi_parallel(good, th, pi=[1, 0]) "
                                             f"on {self.SAMPLE4}\n")

    def test_too_many_positional_arguments(self):
        errors = self._errors(self.R2 + f"check first_integral(X, r2, r2) on {self.SAMPLE2}\n")
        assert errors and "at most 2 positional" in errors[0].message

    def test_unknown_named_parameter(self):
        errors = self._errors(self.R2 + f"check first_integral(X, r2, g=r2) on {self.SAMPLE2}\n")
        assert errors and "unknown parameter 'g'" in errors[0].message


class TestExpectClause:
    """``expect pass|fail`` closes a check line: the verdict a known case
    expects, which the bound check carries and ``grs verify`` ignores."""

    CHECK = "check first_integral(X, r2) on random(-2..2, -2..2; 10, seed 13)"
    R2 = ("chart R2 (x, y) metric diag(1, 1)\n"
          "vector X : 1 = -y * dx + x * dy\nfield r2 = x^2 + y^2\n")

    def test_pass_and_fail_parse(self):
        text = self.R2 + "".join(f"{self.CHECK}{clause}\n" for clause in
                                 (" tol 1e-6 expect pass", " expect fail", ""))
        checks, diags = dsl.load(text)
        assert not diags
        assert [c.expect_pass for c in checks] == [True, False, None]
        assert checks[0].tol == 1e-6

    def test_another_word_is_a_diagnostic_at_the_word(self):
        line = self.CHECK + " expect maybe"
        checks, diags = dsl.load(self.R2 + line + "\n")
        assert checks == []
        assert [(d.message, d.line, d.column) for d in diags] == [
            ("expected 'pass' or 'fail' after 'expect'", 4, line.index("maybe") + 1)]

    def test_fixtures_need_an_expected_verdict(self, tmp_path, monkeypatch):
        from grs import catalog
        (tmp_path / "specs").mkdir()
        text = (SPEC_DIR / "first_integral.grs").read_text()
        (tmp_path / "specs" / "first_integral.grs").write_text(text.replace(" expect fail", ""))
        monkeypatch.setattr(catalog, "_PACKAGE", tmp_path)
        with pytest.raises(catalog.GrsError, match=r"without 'expect pass\|fail': "
                                                   r"first_integral#2$"):
            catalog.fixtures("first_integral")


def test_the_binder_hands_the_catalog_no_syntax_node(monkeypatch):
    """Syntax nodes are tuples, and a catalog kind takes a tuple of fields as
    a vector: every argument of every known case reaches ``build`` bound."""
    from grs import catalog
    build, seen = catalog.build, []

    def leaves(v):
        return [x for item in v for x in leaves(item)] if isinstance(v, list) else [v]

    def recorded(entry, chart, **params):
        seen.extend(x for v in params.values() for x in leaves(v))
        return build(entry, chart, **params)

    monkeypatch.setattr(catalog, "build", recorded)
    for cid in catalog.catalog_ids():
        catalog.fixtures(cid)
    nodes = (dsl.Num, dsl.Name, dsl.Un, dsl.Bin, dsl.Call, dsl.ListLit, dsl.VTerm)
    assert seen and not [v for v in seen if isinstance(v, nodes)]
