import json
from pathlib import Path

import pytest

import grs
from grs.cli import main


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


class TestCatalog:
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

    def test_singularity_reported(self, capsys):
        assert main(["eval", "1 / x", "--at", "x=0"]) == 2
        assert "error" in capsys.readouterr().err
