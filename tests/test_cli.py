import argparse
import json
import re
import time
from pathlib import Path

import pytest

import grs
from grs.cli import main
from grs.scalar import SampleSet


SPEC_DIR = Path(grs.__file__).parent / "specs"


PASSING_SPEC = """\
chart R2 (x, y) metric diag(1, 1)
vector X : 1 = -y * dx + x * dy
field r2 = x^2 + y^2
check first_integral(X, r2) on random(-2..2, -2..2; 100, seed 13)
"""

FAIL_FIRST_SPEC = """\
chart R2 (x, y) metric diag(1, 1)
vector X : 1 = -y * dx + x * dy
field h = x
field r2 = x^2 + y^2
check first_integral(X, h) on random(-2..2, -2..2; 100, seed 13)
check first_integral(X, r2) on random(-2..2, -2..2; 100, seed 13)
"""


# 10^400 is no double: h is infinite, and so is its residual
INFINITE_RESIDUAL_SPEC = """\
chart R2 (x, y) metric diag(1, 1)
vector X : 1 = 1 * dx
field h = 10^400 * x
check first_integral(X, h) on random(-2..2, -2..2; 20, seed 13)
"""


@pytest.fixture
def passing_spec(tmp_path):
    p = tmp_path / "ok.grs"
    p.write_text(PASSING_SPEC)
    return str(p)


@pytest.fixture
def fail_first_spec(tmp_path):
    p = tmp_path / "mixed.grs"
    p.write_text(FAIL_FIRST_SPEC)
    return str(p)


class TestVerify:
    def test_passing_file_exits_zero(self, passing_spec, capsys):
        assert main(["verify", passing_spec]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_failing_check_exits_one(self, fail_first_spec, capsys):
        assert main(["verify", fail_first_spec]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "PASS" in out

    def test_shipped_specs_mix_pass_and_fail(self, capsys):
        # every shipped spec demonstrates one passing and one failing check
        path = SPEC_DIR / "first_integral.grs"
        assert main(["verify", str(path)]) == 1
        capsys.readouterr()

    def test_missing_file_exits_three(self, capsys):
        assert main(["verify", "/no/such/file.grs"]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_parse_errors_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.grs"
        p.write_text("chart R1 (x) metric diag(1)\nfield f = 2 +\n")
        assert main(["verify", str(p)]) == 2
        assert "error" in capsys.readouterr().err

    def test_expect_of_another_word_exits_two(self, tmp_path, capsys):
        p = tmp_path / "maybe.grs"
        p.write_text(PASSING_SPEC.replace("seed 13)", "seed 13) expect maybe"))
        assert main(["verify", str(p)]) == 2
        assert ("error: expected 'pass' or 'fail' after 'expect' (line 4, col 74)"
                in capsys.readouterr().err)

    def test_bad_tol_exits_two(self, passing_spec, capsys):
        assert main(["verify", passing_spec, "--tol", "0"]) == 2
        capsys.readouterr()

    def test_json_schema(self, fail_first_spec, capsys):
        assert main(["verify", fail_first_spec, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert len(doc["checks"]) == 2
        names = [c["name"] for c in doc["checks"]]
        assert names == ["first_integral", "first_integral#2"]
        first = doc["checks"][0]
        assert set(first) == {"name", "entry", "samples", "norms", "tol",
                              "pass", "worst_point"}
        assert first["pass"] is False and doc["checks"][1]["pass"] is True

    def test_json_is_deterministic(self, fail_first_spec, capsys):
        main(["verify", fail_first_spec, "--json"])
        a = capsys.readouterr().out
        main(["verify", fail_first_spec, "--json"])
        b = capsys.readouterr().out
        assert a == b

    def test_points_override(self, passing_spec, capsys):
        main(["verify", passing_spec, "--json", "--points", "17"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"][0]["samples"]["requested"] == 17

    def test_seed_override(self, passing_spec, capsys):
        main(["verify", passing_spec, "--json", "--seed", "99"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"][0]["samples"]["seed"] == 99

    def test_points_and_seed_override_grid_and_random(self, tmp_path, capsys):
        # --points sets each axis of a grid and the draws of a random set;
        # --seed reseeds the random set and leaves the grid without a seed
        p = tmp_path / "both.grs"
        p.write_text(PASSING_SPEC + "check first_integral(X, r2) on grid(-2..2, -1..1; 4)\n")
        assert main(["verify", str(p), "--json", "--points", "3", "--seed", "5"]) == 0
        rand, grid = json.loads(capsys.readouterr().out)["checks"]
        assert grid["samples"] == {"requested": 9, "excluded": 0, "seed": None}
        assert rand["samples"] == {"requested": 3, "excluded": 0, "seed": 5}
        assert grid["worst_point"] in SampleSet.grid([(-2, 2), (-1, 1)], 3).array().tolist()
        draws = SampleSet.random_box([(-2, 2), (-2, 2)], 3, seed=5).array().tolist()
        assert rand["worst_point"] in draws

    def test_fail_fast(self, fail_first_spec, capsys):
        assert main(["verify", fail_first_spec, "--json", "--fail-fast"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["checks"]) == 1

    def test_tol_override_flips_verdict(self, fail_first_spec, capsys):
        # a huge tolerance accepts everything
        assert main(["verify", fail_first_spec, "--tol", "100"]) == 0
        capsys.readouterr()

    def test_overflowing_residual_fails(self, tmp_path, capsys):
        # exp(1000 x) overflows to inf for x > 0.71: a failed check, exit 1
        p = tmp_path / "overflow.grs"
        p.write_text("chart R2 (x, y) metric diag(1, 1)\n"
                     "vector X : 1 = 1 * dx\n"
                     "field f = exp(1000 * x)\n"
                     "check first_integral(X, f) on random(-2..2, -2..2; 50, seed 13)\n")
        assert main(["verify", str(p)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_overflowing_constant_power_fails(self, tmp_path, capsys):
        # 10^400 is no double: an infinite residual, which never passes
        p = tmp_path / "power.grs"
        p.write_text("chart R2 (x, y) metric diag(1, 1)\n"
                     "vector X : 1 = 1 * dx\n"
                     "field f = 10^400 * x\n"
                     "check first_integral(X, f) on random(-2..2, -2..2; 20, seed 13)\n")
        assert main(["verify", str(p), "--json"]) == 1
        check, = json.loads(capsys.readouterr().out)["checks"]
        assert check["pass"] is False and check["norms"]["1"]["linf"] == float("inf")

    @pytest.mark.parametrize("argv", [["--tol", "inf"], ["--tol", "1e400"], ["--tol", "nan"]])
    def test_non_finite_tol_override_exits_two(self, tmp_path, argv, capsys):
        # an infinite residual must not pass an infinite tolerance
        p = tmp_path / "power.grs"
        p.write_text(INFINITE_RESIDUAL_SPEC)
        assert main(["verify", str(p)] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: first_integral: tolerance must be finite")

    def test_non_finite_spec_tol_exits_two(self, tmp_path, capsys):
        p = tmp_path / "power.grs"
        p.write_text(INFINITE_RESIDUAL_SPEC.replace("seed 13)", "seed 13) tol 1e400"))
        assert main(["verify", str(p)]) == 2
        assert "tolerance must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "0", "-0"])
    def test_non_positive_spec_tol_exits_two(self, tmp_path, tol, capsys):
        # like --tol: a tolerance of 0 or less would judge the check wrongly
        p = tmp_path / "tol.grs"
        p.write_text(PASSING_SPEC.replace("seed 13)", f"seed 13) tol {tol}"))
        assert main(["verify", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be positive (line 4" in captured.err

    @pytest.mark.parametrize("old, new", [
        ("100, seed 13", "20.7, seed 13"),
        ("100, seed 13", "100, seed 13.9"),
        ("100, seed 13", "1e400, seed 13"),
        ("100, seed 13", "100, seed 1e400"),
        ("X : 1", "X : 1.5"),
        ("X : 1", "X : 1e400"),
    ])
    def test_fractional_or_overflowing_integer_field_exits_two(self, tmp_path, old, new,
                                                               capsys):
        p = tmp_path / "int.grs"
        p.write_text(PASSING_SPEC.replace(old, new))
        assert main(["verify", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a whole number" in captured.err

    def test_non_utf8_file_exits_three(self, tmp_path, capsys):
        data = PASSING_SPEC.encode().replace(b"x^2", b"x^2 + \xe9", 1)
        p = tmp_path / "latin1.grs"
        p.write_bytes(data)
        assert main(["verify", str(p)]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot read {p}: not UTF-8 text "
            f"(byte 0xe9 at offset {data.index(0xE9)})\n")

    def test_points_cap_on_grid(self, tmp_path, capsys):
        # --points counts per axis on a grid: 500 on four axes is 500**4 points
        p = tmp_path / "grid4.grs"
        p.write_text("chart M (x, y, z, t) metric diag(1, 1, 1, 1)\n"
                     "vector X : 1 = 1 * dx\n"
                     "field f = y\n"
                     "check first_integral(X, f) on "
                     "grid(-1..1, -1..1, -1..1, -1..1; 3)\n")
        assert main(["verify", str(p), "--points", "500"]) == 2
        assert "error" in capsys.readouterr().err


    def test_non_symmetric_metric_matrix_exits_two(self, tmp_path, capsys):
        p = tmp_path / "asym.grs"
        p.write_text("chart P (x, y) metric matrix [[1, 0], [5*x, 1]]\n"
                     "check ricci_flat() on random(-1..1, -1..1; 20, seed 1)\n")
        assert main(["verify", str(p)]) == 2
        assert "not symmetric" in capsys.readouterr().err

    def test_metric_matrix_whose_determinant_overflows_exits_two(self, tmp_path, capsys):
        # each product in det g overflows a double, so it folds to inf - inf
        p = tmp_path / "huge.grs"
        p.write_text("chart P (x, y) metric matrix [[1e200, 1e199], [1e199, 1e200]]\n"
                     "check ricci_flat() on random(-1..1, -1..1; 8, seed 1)\n")
        assert main(["verify", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        first = captured.err.splitlines()[0]
        assert first.startswith("error: ricci_flat: matrix determinant is not finite")
        assert first.endswith("(line 2, col 1)")

    def test_metric_matrix_whose_determinant_squared_overflows_exits_two(self, tmp_path,
                                                                        capsys):
        # det g = 1e160 is finite, but sqrt|det g| squares it first
        chart = ("chart M (x, y, z, xi) metric matrix [[1e80, 0, 0, 0], [0, -1, 0, 0], "
                 "[0, 0, -1, 0], [0, 0, 0, 1e80]]\n")
        body = (SPEC_DIR / "maxwell_vacuum.grs").read_text().splitlines()
        p = tmp_path / "huge_vol.grs"
        p.write_text(chart + body[1] + "\n" + body[3].replace("200, seed", "20, seed") + "\n")
        assert main(["verify", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        first = captured.err.splitlines()[0]
        assert first.startswith("error: maxwell_vacuum: metric determinant squared is not finite")
        assert first.endswith("(line 3, col 1)")

    def test_huge_diagonal_metric_matrix_passes(self, tmp_path, capsys):
        # a diagonal matrix is inverted entry by entry, 1/g_ii, with no product
        p = tmp_path / "huge_diag.grs"
        p.write_text("chart P (x, y) metric matrix [[1e200, 0], [0, 1e200]]\n"
                     "check ricci_flat() on random(-1..1, -1..1; 8, seed 1)\n")
        assert main(["verify", str(p)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_superscript_digit_exits_two(self, tmp_path, capsys):
        p = tmp_path / "sup.grs"
        p.write_text(PASSING_SPEC.replace("field r2 = x^2", "field r2 = 2\u00b2 * x^2"))
        assert main(["verify", str(p)]) == 2
        assert "unexpected character '\u00b2'" in capsys.readouterr().err

    @pytest.mark.parametrize("brackets", ["(1, 2, 3, 1e400)", "(1, 2, 3, 1) (1, 1, 2, 1)"])
    def test_algebra_that_is_no_lie_algebra_exits_two(self, tmp_path, brackets, capsys):
        p = tmp_path / "alg.grs"
        p.write_text("chart R3 (x, y, z) metric diag(1, 1, 1)\n"
                     f"algebra g dim 3 bracket {brackets}\n"
                     "form a : 1 values g = x * dy @ e1 + y * dz @ e2\n"
                     "check bianchi(a) on random(-2..2, -2..2, -2..2; 20, seed 1)\n")
        assert main(["verify", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(line 2, col 1)" in captured.err.splitlines()[0]

    def test_points_cap_on_random(self, passing_spec, capsys):
        # the override makes a new sample set, whose constructor checks the cap
        assert main(["verify", passing_spec, "--points", "10000001"]) == 2
        assert capsys.readouterr().err == ("error: 10000001 sample points requested; "
                                           "at most 10000000 are allowed\n")

    def test_negative_seed_override_exits_two(self, passing_spec, capsys):
        assert main(["verify", passing_spec, "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_wrong_size_pi_exits_two(self, tmp_path, capsys):
        p = tmp_path / "pi.grs"
        p.write_text("chart R3 (x, y, z) metric diag(1, 1, 1)\n"
                     "vector E1 : 1 = 1 * dx\n"
                     "vector E2 : 1 = 1 * dy\n"
                     "check frobenius_vector(E1, E2, pi=[0, 1]) on "
                     "random(-2..2, -2..2, -2..2; 20, seed 13)\n")
        assert main(["verify", str(p)]) == 2
        assert "pi" in capsys.readouterr().err

    def test_one_vector_as_multivector(self, tmp_path, capsys):
        p = tmp_path / "theta.grs"
        p.write_text("chart M (x, y, z) metric diag(1, 1, 1)\n"
                     "algebra V2 dim 2\n"
                     "form good : 1 values V2 = x*y * dz @ e1 + z * dx @ e2\n"
                     "vector X : 1 = x * dx - y * dy\n"
                     "check theta_pi_parallel(good, X, pi=[1, 0]) on "
                     "random(-2..2, -2..2, -2..2; 20, seed 13)\n")
        assert main(["verify", str(p), "--json"]) == 0
        check, = json.loads(capsys.readouterr().out)["checks"]
        assert list(check["norms"]) == ["e1"] and check["samples"]["requested"] == 20


@pytest.mark.parametrize("chart_line", [
    "chart P (x, y) metric diag(0, 1)",
    "chart P (a, b, c, d, e, f, g, h, k) metric diag(1, 1, 1, 1, 1, 1, 1, 1, 1)",
    "chart P (x, x) metric diag(1, 1)",
    "chart P (x, y) metric matrix [[1, 0, 0], [0, 1, 0]]",
    "chart P (x, y) metric matrix [[1, 0], [5*x, 1]]",
], ids=["singular", "nine_coords", "duplicate_coords", "not_square", "not_symmetric"])
def test_malformed_chart_is_a_diagnostic_and_binds_nothing_after_it(chart_line, tmp_path,
                                                                     capsys):
    p = tmp_path / "chart.grs"
    p.write_text(f"{chart_line}\ncheck ricci_flat() on random(-1..1, -1..1; 20, seed 1)\n")
    assert main(["verify", str(p)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "(line 1, col 1)" in err
    # the check after the rejected chart is reported, not bound to a leftover chart
    assert "note: not bound: the chart on line 1 was rejected (line 2, col 1)" in err


def test_uses_of_a_rejected_declaration_get_a_note(tmp_path, capsys):
    p = tmp_path / "alg.grs"
    p.write_text("chart R3 (x, y, z) metric diag(1, 1, 1)\n"
                 "algebra g dim 3 bracket (1, 2, 3, 1e400)\n"
                 "form a : 1 values g = x * dy @ e1 + y * dz @ e2\n"
                 "check bianchi(a) on random(-2..2, -2..2, -2..2; 20, seed 1)\n")
    assert main(["verify", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "(line 2, col 1)" in err.splitlines()[0]
    assert "note: not bound: the algebra on line 2 was rejected (line 3, col 1)" in err
    assert "note: not bound: the form on line 3 was rejected (line 4, col 1)" in err


def test_a_new_chart_drops_rejected_fields(tmp_path, capsys):
    check = "check first_integral(X, h) on random(-2..2, -2..2; 20, seed 13)\n"
    p = tmp_path / "field.grs"
    p.write_text("chart R2 (x, y) metric diag(1, 1)\n"
                 "vector X : 1 = 1 * dy\n"
                 "field h = x * q\n" + check +
                 "chart R2 (x, y) metric diag(1, 1)\n"
                 "vector X : 1 = 1 * dy\n" + check)
    assert main(["verify", str(p)]) == 2
    err = capsys.readouterr().err
    assert "error: unknown name 'q' (line 3, col 1)" in err
    assert "note: not bound: the field on line 3 was rejected (line 4, col 1)" in err
    # the new chart's scope has no h at all
    assert "error: unknown name 'h' (line 7, col 1)" in err


_TOL_CHECK = "check first_integral(X, r2) on random(-2..2, -2..2; 20, seed 13) tol 1e400\n"


@pytest.mark.parametrize("old, new, line", [
    ("random(-2..2,", "random(-1e400..2,", 4),
    ("random(-2..2, -2..2;", "random(-1e308..1e308, -2..2;", 4),
    ("random(-2..2, -2..2; 100, seed 13)", "grid(-1e400..2, -2..2; 4)", 4),
    ("diag(1, 1)", "diag(1e400, 1)", 1),
    ("first_integral(X, r2)", "schrodinger(r2, hbar=1e400)", 4),
    ("seed 13)\n", "seed 13)\n" + _TOL_CHECK, 5),
    ("metric diag(1, 1)", "metric matrix [[1e400, 0], [0, 1]]", 1),
    ("x^2 + y^2", "x^1e400 + y^2", 3),
], ids=["random_bound", "random_width", "grid_bound", "metric_diag", "real_parameter",
        "spec_tol", "metric_matrix", "exponent"])
def test_non_finite_number_is_a_diagnostic_on_its_line(tmp_path, old, new, line, capsys):
    p = tmp_path / "inf.grs"
    p.write_text(PASSING_SPEC.replace(old, new))
    assert main(["verify", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first = captured.err.splitlines()[0]
    assert first.startswith("error: ") and first.endswith(f"(line {line}, col 1)")


def test_nesting_deeper_than_the_bound_exits_two(tmp_path, capsys):
    p = tmp_path / "deep.grs"
    p.write_text("chart R2 (x, y) metric diag(1, 1)\n"
                 f"field f = {'(' * 1000}x{')' * 1000}\n")
    assert main(["verify", str(p)]) == 2
    assert "nested more than 100 levels deep" in capsys.readouterr().err


def test_huge_algebra_dimension_exits_two_at_once(tmp_path, capsys):
    # a dense dim^3 table of structure constants would exhaust memory first
    p = tmp_path / "algebra.grs"
    p.write_text("chart R2 (x, y) metric diag(1, 1)\nalgebra g dim 100000\n")
    start = time.perf_counter()
    assert main(["verify", str(p)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(
        "error: algebra dimension must be at most 32, got 100000 (line 2, col 1)")


def _metric_matrix_spec(tmp_path, upper: str, lower: str):
    p = tmp_path / "long_entry.grs"
    p.write_text(f"chart P (x, y) metric matrix [[1, {upper}], [{lower}, 2]]\n"
                 "check ricci_flat() on random(-0.5..0.5, -0.5..0.5; 20, seed 1)\n")
    return str(p)


def test_symmetric_matrix_with_a_1000_term_entry_gives_a_verdict(tmp_path, capsys):
    # 0.001 (xy + ... + xy) is xy: the same curved metric as [[1, x*y], [x*y, 2]]
    entry = "0.001 * (" + " + ".join(["x * y"] * 1000) + ")"
    assert main(["verify", _metric_matrix_spec(tmp_path, entry, entry), "--json"]) == 1
    long_linf = json.loads(capsys.readouterr().out)["checks"][0]["norms"]
    assert main(["verify", _metric_matrix_spec(tmp_path, "x * y", "x * y"), "--json"]) == 1
    short_linf = json.loads(capsys.readouterr().out)["checks"][0]["norms"]
    for label, norms in short_linf.items():
        assert long_linf[label]["linf"] == pytest.approx(norms["linf"], rel=1e-9)


def test_asymmetric_matrix_with_1000_term_entries_exits_two(tmp_path, capsys):
    upper, lower = " + ".join(["x"] * 1000), " + ".join(["y"] * 1000)
    assert main(["verify", _metric_matrix_spec(tmp_path, upper, lower)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"metric matrix is not symmetric: entry [x, y] is {upper} "
            f"but entry [y, x] is {lower}") in err


@pytest.mark.parametrize("spec", sorted(p.name for p in SPEC_DIR.glob("*.grs")))
def test_every_shipped_spec_shows_a_pass_and_a_fail(spec, capsys):
    assert main(["verify", str(SPEC_DIR / spec), "--json"]) == 1
    verdicts = [c["pass"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("spec", sorted(p.name for p in SPEC_DIR.glob("*.grs")))
def test_verify_ignores_the_expect_clauses(spec, tmp_path, capsys):
    text = (SPEC_DIR / spec).read_text()
    stripped = re.sub(r" expect (pass|fail)$", "", text, flags=re.M)
    assert "expect" not in stripped and stripped.count("\ncheck ") == text.count(" expect ")
    (tmp_path / spec).write_text(stripped)
    runs = []
    for path in (SPEC_DIR / spec, tmp_path / spec):
        code = main(["verify", str(path)])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]


class TestSharedParser:
    """One argparse parser serves every call of ``main`` in a process."""

    def test_no_parser_built_after_the_first_call(self, passing_spec, monkeypatch, capsys):
        main(["verify", passing_spec])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(3):
            assert main(["verify", passing_spec]) == 0
        capsys.readouterr()
        assert built == []

    def test_overrides_do_not_leak_into_the_next_call(self, fail_first_spec, capsys):
        assert main(["verify", fail_first_spec, "--json"]) == 1
        first = capsys.readouterr().out
        assert main(["verify", fail_first_spec, "--json", "--points", "32", "--seed", "1",
                     "--tol", "100", "--fail-fast"]) == 0
        assert capsys.readouterr().out != first
        assert main(["verify", fail_first_spec, "--json"]) == 1
        assert capsys.readouterr().out == first

    def test_rejected_command_line_leaves_the_parser_usable(self, passing_spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", passing_spec, "--points", "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: grs verify")
        assert main(["verify", passing_spec]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_other_commands_after_verify(self, passing_spec, capsys):
        assert main(["verify", passing_spec]) == 0
        capsys.readouterr()
        assert main(["catalog"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 27
        assert main(["eval", "x * y + 1", "--at", "x=2,y=3"]) == 0
        assert capsys.readouterr().out == "7.0\n"


class TestCatalog:
    def test_one_line_per_entry(self, capsys):
        assert main(["catalog"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 27
        ricci = next(line for line in lines if line.startswith("ricci_flat "))
        assert "metric" in ricci
        dirac = next(line for line in lines if line.startswith("dirac "))
        assert "[sign: -1|1 = -1]" in dirac

    def test_lists_entries(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "ext_maxwell_vacuum" in out
        assert "ricci_flat" in out and "metric" in out
        assert len(out.strip().splitlines()) == 27


class TestEval:
    def test_precedence(self, capsys):
        assert main(["eval", "2 + 3 * 4 ^ 2", "--at", "x=0"]) == 0
        assert capsys.readouterr().out.strip() == "50.0"

    def test_coordinates_bound(self, capsys):
        assert main(["eval", "x * y + 1", "--at", "x=2,y=3"]) == 0
        assert capsys.readouterr().out.strip() == "7.0"

    def test_bad_binding(self, capsys):
        assert main(["eval", "x", "--at", "x"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("expr,printed", [
        ("10^400", "inf"), ("(-10)^401", "-inf"), ("10^400.5", "inf"), ("x * 10^400", "inf"),
    ])
    def test_overflowing_constant_power_is_infinite(self, expr, printed, capsys):
        assert main(["eval", expr, "--at", "x=1"]) == 0
        assert capsys.readouterr().out == f"{printed}\n"

    def test_product_of_real_constants_folds_to_a_real_infinity(self, capsys):
        # folded in complex arithmetic it printed (inf+nanj)
        assert main(["eval", "1e400 * 2", "--at", "x=1"]) == 0
        assert capsys.readouterr().out == "inf\n"

    @pytest.mark.parametrize("constant,power,at", [
        ("3^2.5", "x^2.5", "x=3"), ("1.1^101", "x^101", "x=1.1")])
    def test_constant_power_prints_as_its_node_evaluates(self, constant, power, at, capsys):
        assert main(["eval", constant, "--at", at]) == 0
        folded = capsys.readouterr().out
        assert main(["eval", power, "--at", at]) == 0
        assert capsys.readouterr().out == folded

    @pytest.mark.parametrize("expr", ["x^1e400", "x^-1e400", "2^(-1e400)"])
    def test_non_finite_exponent_exits_two(self, expr, capsys):
        assert main(["eval", expr, "--at", "x=2"]) == 2
        err = capsys.readouterr().err
        assert "exponent must be finite" in err and "Traceback" not in err

    def test_superscript_digit_exits_two(self, capsys):
        assert main(["eval", "x * \u00b2", "--at", "x=1"]) == 2
        assert "unexpected character '\u00b2'" in capsys.readouterr().err
        # other decimal digits still read as numbers: Arabic-Indic three
        assert main(["eval", "1\u0663 * x", "--at", "x=1"]) == 0
        assert capsys.readouterr().out == "13.0\n"

    @pytest.mark.parametrize("expr,at,point", [
        ("(1e-301)^-1", "x=0", "0.0"), ("1/(1e-301)", "x=0", "0.0"),
        ("x^-1", "x=1e-301", "1e-301")], ids=["constant_power", "constant_divisor", "node"])
    def test_division_below_the_floor_is_singular_folded_or_not(self, expr, at, point, capsys):
        # a constant divisor under the floor stays a node, so it marks the point as x does
        assert main(["eval", expr, "--at", at]) == 2
        assert capsys.readouterr() == ("", f"error: division by (near) zero at ({point},)\n")

    def test_singularity_reported(self, capsys):
        assert main(["eval", "1 / x", "--at", "x=0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("at,message", [
        ("x=1,x=2", "coordinate names must be unique"),
        (",".join(f"x{k}={k}" for k in range(9)), "chart dimension must be in 1..8"),
    ], ids=["duplicate_name", "nine_names"])
    def test_bindings_that_make_no_chart_exit_two(self, at, message, capsys):
        assert main(["eval", "x", "--at", at]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# a constant pi fails at every probe point, so the first one is named
_NOT_PI_AT = "pi^2 != pi at (-0.4767757315013672, -0.4030177131717534, 0.6284514811885606"
_NOT_PI_3 = _NOT_PI_AT + ")"
_NOT_PI_4 = _NOT_PI_AT + ", -0.8161681157298062)"


@pytest.mark.parametrize("spec, old, new, message", [
    ("schrodinger.grs", "schrodinger(pw)", "schrodinger(pw, hbar=0)",
     "hbar and mass must be positive"),
    ("schrodinger.grs", "schrodinger(pw)", "schrodinger(pw, mass=-1)",
     "hbar and mass must be positive"),
    ("dirac.grs", "dirac(psi, m=1,", "dirac(psi, m=-1,", "mass must be >= 0"),
    # an empty vararg checked nothing and passed; a non-projection pi passed too
    ("frobenius_pfaff.grs", "frobenius_pfaff(flat)", "frobenius_pfaff()",
     "missing parameter(s): forms"),
    ("frobenius_vector.grs", "frobenius_vector(E1, E2,", "frobenius_vector(",
     "missing parameter(s): fields"),
    ("theta_pi_parallel.grs", "(good, th, pi=[1, 0])", "(good, th, pi=[2, 0])", _NOT_PI_4),
    ("frobenius_vector.grs", "(E1, E2, pi=[0, 0, 1])", "(E1, E2, pi=[0, 0, 2])", _NOT_PI_3),
    # inf * inf - inf is nan, which must fail the test, not slip past it
    ("theta_pi_parallel.grs", "(good, th, pi=[1, 0])", "(good, th, pi=[1e400, 0])", _NOT_PI_4),
    ("frobenius_vector.grs", "(E1, E2, pi=[0, 0, 1])", "(E1, E2, pi=[0, 0, 1e400])", _NOT_PI_3),
], ids=["hbar_zero", "negative_mass", "negative_dirac_mass", "no_forms", "no_fields",
        "theta_pi_not_a_projection", "frobenius_pi_not_a_projection",
        "theta_pi_infinite", "frobenius_pi_infinite"])
def test_operator_parameter_out_of_range_exits_two(tmp_path, spec, old, new, message, capsys):
    text = (SPEC_DIR / spec).read_text()
    assert text.count(old) == 1
    p = tmp_path / spec
    p.write_text(text.replace(old, new))
    line = 1 + text[:text.index(old)].count("\n")
    assert main(["verify", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    entry = spec.removesuffix(".grs")
    assert captured.err.splitlines()[0] == f"error: {entry}: {message} (line {line}, col 1)"


def test_sqrt_parameter_binds_like_a_half_power(tmp_path, capsys):
    # sqrt(2) folds to the constant 2^0.5 folds to, so both are a real hbar
    text = (SPEC_DIR / "schrodinger.grs").read_text()
    p = tmp_path / "schrodinger.grs"
    runs = []
    for hbar in ("sqrt(2)", "2^0.5"):
        p.write_text(text.replace("schrodinger(pw)", f"schrodinger(pw, hbar={hbar})"))
        code = main(["verify", str(p), "--json"])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][1].err == "" and len(json.loads(runs[0][1].out)["checks"]) == 2


@pytest.mark.parametrize("spec, argv, code, out, err", [
    (PASSING_SPEC, ["--points", "0"], 2, "", "error: --points must be >= 1\n"),
    ("chart R2 (x, y) metric diag(1, 1)\nalgebra g dim 0\n", [], 2, "",
     "error: algebra dimension must be >= 1 (line 2, col 1)\n  algebra g dim 0\n  ^\n"),
    (None, ["eval", "x", "--at", "x=abc"], 2, "", "error: bad number in binding 'x=abc'\n"),
    (None, ["eval", "x@y", "--at", "x=1"], 2, "",
     "error: unexpected trailing input '@' (line 1, col 2)\n  x@y\n   ^\n"),
    (None, ["eval", "i*x", "--at", "x=2"], 0, "2j\n", ""),
    ("chart R2 (x, y) metric diag(1, 1)\nfield f = sin(x\n", [], 2, "",
     "error: expected ')' (line 2, col 16)\n  field f = sin(x\n                 ^\n"),
    ("chart R1 (x) metric diag(1)\nvector E : 1 = 1 * dx\n"
     "check frobenius_vector(E, pi=[[1]]) on grid(-1..1; 2)\n", [], 2, "",
     "error: expected a number (line 3, col 31)\n"
     "  check frobenius_vector(E, pi=[[1]]) on grid(-1..1; 2)\n"
     "                                ^\n"),
], ids=["zero_points", "algebra_dim_0", "non_number_binding", "eval_trailing_input",
        "complex_eval", "unclosed_call", "nested_list_argument"])
def test_command_line_outcome(tmp_path, spec, argv, code, out, err, capsys):
    if spec is not None:
        p = tmp_path / "spec.grs"
        p.write_text(spec)
        argv = ["verify", str(p)] + argv
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


def _dense_spec(n):
    """g_ij = delta_ij + 0.1 x_i x_j on n coordinates, both triangles written alike."""
    names = [f"x{i}" for i in range(1, n + 1)]

    def entry(i, j):
        a, b = sorted((i, j))
        return ("1 + " if i == j else "") + f"0.1*{names[a]}*{names[b]}"

    rows = ", ".join("[" + ", ".join(entry(i, j) for j in range(n)) + "]" for i in range(n))
    box = ", ".join(["-1..1"] * n)
    return (f"chart D ({', '.join(names)}) metric matrix [{rows}]\n"
            f"check ricci_flat() on random({box}; 8, seed 5)\n")


def test_dense_eight_dimensional_metric_verifies_quickly(tmp_path, capsys):
    # the largest chart a spec may declare, with a dense symbolic metric:
    # re-expanding every minor took over a minute and 1.5 GB for this report
    p = tmp_path / "dense8.grs"
    p.write_text(_dense_spec(8))
    start = time.perf_counter()
    assert main(["verify", str(p)]) == 1
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().out.splitlines()[2].split() == [
        "ricci_flat", "ricci_flat", "8", "6.199e-01", "5.427e-01", "1e-09", "FAIL"]


def test_nine_dimensional_spec_chart_exits_two(tmp_path, capsys):
    p = tmp_path / "dense9.grs"
    p.write_text(_dense_spec(9))
    assert main(["verify", str(p)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: chart dimension must be in 1..8 (line 1, col 1)\n")
