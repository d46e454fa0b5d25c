"""Self-tests of the benchmark: the gate has teeth, the counters are exact,
and the runner keeps its output contract.

    python3 -m pytest benchmarks/test_gate.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import paths  # noqa: E402

paths.use_repo_grs()

import grs.catalog  # noqa: E402
import grs.cli  # noqa: E402
import grs.engine  # noqa: E402
from gate import Gate, run_pass  # noqa: E402
from run import tail  # noqa: E402
from tracing import LAYERS, Tracer, node_counts, residual_roots  # noqa: E402
from workloads import WORKLOADS, Request, _cli_call  # noqa: E402

BENCHMARK = json.loads((paths.ROOT / "BENCHMARK.json").read_text())


def small_requests():
    return WORKLOADS["specs_small"](13)


def test_current_code_meets_every_known_answer():
    gate = Gate()
    run_pass(small_requests(), gate)
    run_pass(small_requests(), gate)
    assert (gate.attempted, gate.failed) == (54, 0), gate.reasons


def test_wrong_expected_verdict_raises_failed_frac():
    requests = small_requests()
    req = next(r for r in requests if r.name == "first_integral.grs")
    verdict, points = req.expect["first_integral#2"]
    req.expect["first_integral#2"] = (not verdict, points)
    gate = Gate()
    run_pass(requests, gate)
    assert gate.failed == 1 and gate.failed_frac == pytest.approx(1 / 27)
    assert "first_integral.grs: verdicts" in gate.reasons[0]


def test_wrong_point_count_is_a_failure():
    req = small_requests()[0]
    name, (verdict, points) = next(iter(req.expect.items()))
    req.expect[name] = (verdict, points + 1)
    gate = Gate()
    run_pass([req], gate)
    assert gate.failed == 1


def test_non_grs_exception_is_a_failure_not_a_crash(monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("evaluator bug")

    monkeypatch.setattr(grs.cli, "verify", boom)
    monkeypatch.setattr(grs.engine, "verify", boom)
    requests = small_requests()[:3] + WORKLOADS["schwarzschild_5k"](13)
    gate = Gate()
    run_pass(requests, gate)
    assert (gate.attempted, gate.failed) == (4, 4)
    assert all("RuntimeError: evaluator bug" in r for r in gate.reasons)


def test_exit_code_other_than_0_or_1_is_a_failure():
    req = Request("missing.grs", _cli_call(["verify", "missing.grs", "--json"]),
                  {"missing": (True, 1)})
    gate = Gate()
    run_pass([req], gate)
    assert gate.failed == 1 and "exit code 3" in gate.reasons[0]


def test_report_must_repeat_byte_for_byte():
    calls = []

    def call():
        calls.append(1)
        doc = {"checks": [{"name": "c", "pass": True,
                           "samples": {"requested": 4}}], "run": len(calls)}
        return 0, json.dumps(doc)

    gate = Gate()
    req = Request("flaky", call, {"c": (True, 4)})
    run_pass([req], gate)
    run_pass([req], gate)
    assert (gate.attempted, gate.failed) == (2, 1)
    assert "differs from the first pass" in gate.reasons[0]


def test_node_counts_reproduce_schwarzschild():
    cond = grs.catalog.build("ricci_flat", grs.catalog.schwarzschild_chart(1.0))
    assert node_counts(residual_roots(cond)) == (475, 198, 3255)


def test_tail_has_ten_samples_beyond_it():
    assert tail([float(i) for i in range(1, 31)]) == (20.0, pytest.approx(200 / 3))
    assert tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3))


def test_traced_pass_judges_the_same_and_restores_grs():
    import json as json_module

    originals = (grs.cli.verify, grs.engine.verify, grs.catalog.build,
                 json_module.dumps, grs.engine.ResidualReport.to_dict)
    tracer = Tracer()
    gate = Gate()
    tracer.start_pass()
    tracer.install()
    try:
        run_pass(small_requests(), gate, tracer)
    finally:
        tracer.uninstall()
    assert gate.failed == 0, gate.reasons
    assert originals == (grs.cli.verify, grs.engine.verify, grs.catalog.build,
                         json_module.dumps, grs.engine.ResidualReport.to_dict)
    (selfs,) = tracer.self_times()
    assert all(selfs[layer] > 0 for layer in LAYERS)
    assert tracer.counts[0]["engine.points_evaluated"] == 54 * 32


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "specs_small",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_every_declared_metric(trace, section):
    done = _run(paths.ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_bare_copy_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(paths.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
