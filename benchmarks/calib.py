"""Machine-speed calibration for the end-to-end timings.

The benchmark was built on a shared 2-vCPU Xeon VM whose CPU flips every
few milliseconds between a fast and a slow state (a fixed pure-Python
loop takes ~3 ms or ~5 ms; steal time is negligible), and the share of
slow time drifts over seconds.  Raw wall medians of identical runs
differed by up to 25%.  So while the loop runs, a timer interrupts it
every INTERVAL_S of wall time and times a short, fixed pure-Python
kernel.  The mean kernel speed over the evenly spaced moments during a
request (widened by WINDOW_S on each side) is the machine's mean speed
while it ran, and each request's latency is reported at reference speed:

    reported latency = wall latency * REF_KERNEL_S * mean(1 / kernel time)

The kernel imitates what grs spends its time on (closure calls,
complex arithmetic, small-object allocation, dict stores) and uses no
grs code, so no change to grs can move it.  It costs about 2% of the
measured time, in every run alike.  The raw wall figures are printed
beside the reported ones.
"""

import bisect
import cmath
import signal
import statistics
import time
from typing import List

INTERVAL_S = 0.02
WINDOW_S = 0.05
# kernel time at the reference speed: the mean speed measured on the
# 2-vCPU Xeon VM above (2.1 GHz, Python 3.11.7)
REF_KERNEL_S = 0.00055


class _Cell:
    __slots__ = ("value", "index")

    def __init__(self, value, index):
        self.value = value
        self.index = index


def _kernel() -> complex:
    steps = [(lambda k: (lambda z: z * k + 1j))(complex(k, 0.5)) for k in range(6)]
    table = {}
    acc = 0j
    for i in range(200):
        z = complex(i % 13, 1.0)
        for step in steps:
            z = step(z) * 0.25
        cell = _Cell(cmath.sin(z), i)
        table[i & 255] = cell
        acc += cell.value
    return acc


class Speed:
    """Times the kernel every INTERVAL_S of wall time inside ``with``.

    Uses SIGALRM, so it must run in the main thread.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.times: List[float] = []  # perf_counter() at each sample
        self._busy = False
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        if self._busy:  # a slow kernel overran the interval
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        self.times.append(start)
        self._busy = False

    def __enter__(self) -> "Speed":
        for _ in range(5):  # let the interpreter specialise the kernel first
            _kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)  # at least one sample, however short the run

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Multiply a wall time spent in [start, end] by this to get it at
        reference speed.  Uses the samples within WINDOW_S of that span,
        or all samples when there are none."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        picked = self.samples[lo:hi] or self.samples
        return REF_KERNEL_S * statistics.fmean(1 / d for d in picked)
