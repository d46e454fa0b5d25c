"""Known-answer gate and the closed loop that drives requests through it."""

from __future__ import annotations

import contextlib
import json
import time
import traceback
from typing import Dict, List, Optional, Tuple

from workloads import Request


class Gate:
    """Judges each request's output against its known answer.

    A request fails when it raises, exits with a code other than 0/1,
    returns a verdict or point count that differs from ``Request.expect``,
    or prints a JSON report that is not byte-identical to the report the
    same request printed on this run's first pass.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._first: Dict[str, str] = {}

    def judge(self, req: Request, code: int, text: str) -> Optional[str]:
        if code not in (0, 1):
            return f"exit code {code}: {text.strip()[:300]}"
        try:
            checks = json.loads(text)["checks"]
            got = {c["name"]: (c["pass"], c["samples"]["requested"]) for c in checks}
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable report: {e!r}"
        if got != req.expect:
            return f"verdicts {got} differ from known {req.expect}"
        want_code = 0 if all(v for v, _n in req.expect.values()) else 1
        if code != want_code:
            return f"exit code {code} does not match the verdicts"
        if text != self._first.setdefault(req.name, text):
            return "report differs from the first pass of this run"
        return None

    def record(self, req: Request, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{req.name}: {reason}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_request(req: Request, gate: Gate, tracer=None) -> Tuple[float, float]:
    """Run one request and judge it; returns its perf_counter start and end."""
    span = tracer.request(req.name) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            code, text = req.call()
    except Exception:  # a crash inside grs is a failed request, not a benchmark crash
        end = time.perf_counter()
        gate.record(req, "raised " + traceback.format_exc(limit=-3).strip())
        return start, end
    end = time.perf_counter()
    gate.record(req, gate.judge(req, code, text))
    return start, end


def run_pass(requests: List[Request], gate: Gate, tracer=None) -> List[Tuple[float, float]]:
    """One closed-loop pass: each request waits for the previous verdict."""
    return [run_request(req, gate, tracer) for req in requests]
