"""grs verification benchmark.

    python3 benchmarks/run.py --workload specs --seed 1 --seconds 10 --trace 0

Run from the repository root.  One client in one thread sends requests
in a closed loop: each waits for its verdict before the next is sent.
The loop runs whole passes over the workload's requests until
``--seconds`` have elapsed and at least MIN_REQUESTS requests are done,
so the latency tail always has ten samples beyond it.  Every output is
checked against its known answer (see gate.py, answers.py).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports per-layer metrics, writing its spans to
.bench_trace/.  The last line of stdout is one JSON object; the lines
before it repeat the metrics for people.  Workloads and the reasoning
behind them are in benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import paths

MIN_REQUESTS = 11
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def tail(latencies: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    rank = max(1, len(xs) - 10)  # 1-based rank of the sample with ten beyond
    return xs[rank - 1], 100.0 * rank / len(xs)


def pass_time(spans: List[Tuple[float, float]]) -> float:
    return sum(end - begin for begin, end in spans)


def measure_setup(workload: str, seed: int) -> List[Tuple[float, float]]:
    """Set-up time of SETUP_PROBES fresh processes, one after another, as
    (wall, at reference speed) pairs.

    This process samples the machine's speed while it waits for each
    probe.  Both are pinned to one CPU meanwhile, so the samples describe
    the CPU the probe runs on: the two CPUs of a shared VM are not
    equally slow at the same moment.
    """
    from calib import Speed

    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with Speed() as speed:
            for _ in range(SETUP_PROBES):
                begin = time.perf_counter()
                spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
                done = subprocess.run(
                    [sys.executable, str(probe), workload, str(seed), repr(spawned)],
                    capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                    cwd=paths.ROOT)
                if done.returncode != 0:
                    sys.exit(f"error: set-up probe failed: {done.stderr.strip()}")
                times.append((float(done.stdout), begin, time.perf_counter()))
    finally:
        os.sched_setaffinity(0, cpus)
    return [(wall, wall * speed.factor(begin, end)) for wall, begin, end in times]


def end_to_end(workload: str, seed: int, seconds: float, requests, gate):
    from calib import Speed
    from gate import run_pass

    setup = measure_setup(workload, seed)
    spans: List[Tuple[float, float]] = []
    points = 0
    with Speed() as speed:
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(spans) < MIN_REQUESTS):
            spans += run_pass(requests, gate)
            points += sum(r.points for r in requests)
    # latencies at reference machine speed (calib.py)
    wall = [end - begin for begin, end in spans]
    latencies = [(end - begin) * speed.factor(begin, end) for begin, end in spans]
    tail_s, tail_pct = tail(latencies)
    raw = {
        "points_per_s": points / sum(wall),
        "verdict_ms.p50": 1e3 * statistics.median(wall),
        "verdict_ms.tail": 1e3 * tail(wall)[0],
        "setup_s": statistics.median(w for w, _ in setup),
    }
    metrics = {
        "points_per_s": (points / sum(latencies), "1/s"),
        "verdict_ms.p50": (1e3 * statistics.median(latencies), "ms"),
        "verdict_ms.tail": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(r for _, r in setup), "s"),
    }
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = {name: f"wall {raw[name]:.6g}" for name in raw}
    notes["verdict_ms.tail"] += f", p{tail_pct:.2f} of {len(latencies)} requests"
    notes["setup_s"] += f", median of {SETUP_PROBES} fresh processes"
    notes["points_per_s"] += f", {points} points in {len(latencies)} requests"
    notes["machine speed"] = (f"{speed.factor():.3f} x reference, "
                              f"{len(speed.samples)} kernel samples")
    return metrics, notes


def per_layer(workload: str, seed: int, seconds: float, requests, gate):
    from gate import run_pass
    from tracing import COMPILE_SEPARATE, LAYERS, Tracer

    tracer = Tracer()
    plain: List[float] = []
    traced: List[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        plain.append(pass_time(run_pass(requests, gate)))
        tracer.start_pass()
        tracer.install()
        try:
            traced.append(pass_time(run_pass(requests, gate, tracer)))
        finally:
            tracer.uninstall()

    selfs = tracer.self_times()
    med = statistics.median
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[layer + "_s"] = (float(med([s[layer] for s in selfs])), "s")
    # request time outside the layers: argument parsing, file reading, printing
    metrics["cli.other_s"] = (float(med([s["request"] for s in selfs])), "s")
    metrics["engine.us_per_point"] = (med(
        [1e6 * s["engine.verify"] / max(1, c["engine.points_evaluated"])
         for s, c in zip(selfs, tracer.counts)]), "us")
    for name in ("engine.points_evaluated", "engine.points_excluded",
                 "engine.components", "scalar.dag_nodes",
                 "scalar.distinct_nodes", "scalar.tree_nodes"):
        metrics[name] = (med([c[name] for c in tracer.counts]), "count")
    metrics["trace.overhead_s"] = (med(traced) - med(plain), "s")

    notes = {layer + "_s": "s per pass, median of "
             f"{len(traced)} traced passes" for layer in LAYERS + ("cli.other",)}
    if not COMPILE_SEPARATE:
        notes["scalar.compile_s"] = "folded into engine.verify (no Expr.fn)"
    notes["trace.overhead_s"] = (f"traced pass {med(traced):.4f} s - "
                                 f"untraced pass {med(plain):.4f} s")

    out_dir = paths.ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    paths.use_repo_grs()
    from gate import Gate
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    requests = WORKLOADS[args.workload](args.seed)
    gate = Gate()
    run = per_layer if args.trace else end_to_end
    metrics, notes = run(args.workload, args.seed, args.seconds, requests, gate)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(requests)} requests per pass")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<26} {value:>14.6g} {unit:<6} {note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:<26} {note}")
    print(f"  {'failed_frac':<26} {gate.failed_frac:>14.6g} {'ratio':<6} "
          f"{gate.failed} of {gate.attempted} requests")
    for reason in gate.reasons[:5]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
