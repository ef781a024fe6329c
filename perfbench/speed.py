"""Machine speed, tracked next to the tasks, to put latencies on one scale.

The 2-vCPU sandbox the benchmark was tuned on runs the same Python code at
two speeds, about 1.7x apart, switching every few seconds and sometimes
staying slow for minutes (thread CPU time moves with wall time, so the
slowdown is inside the core).  Raw wall times of ten runs then spread by
more than any useful regression bound.  So the benchmark times a fixed
reference kernel, exact Fraction elimination like the simplex's inner loop
but none of boxlab's code, every `EVERY_S` seconds between tasks, and
reports each latency scaled by `REFERENCE_S / kernel time`, using the mean
of the kernel samples just before and just after the task.  The result is
in seconds at the speed where the kernel takes `REFERENCE_S`, which is its
time in the sandbox's fast state.  In a 70 s test the per-sample spread of
one `is_local` call fell from 43% raw to 10% scaled, and the medians of
10 s windows from 0.095-0.140 s raw to 0.105-0.107 s scaled.

A program change cannot move the kernel, so a faster or slower program
shows in the scaled latencies one for one.
"""

from __future__ import annotations

import bisect
import random
import time
from fractions import Fraction

REFERENCE_S = 0.0036
EVERY_S = 0.2

_rng = random.Random(12345)
_MATRIX = tuple(
    tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(11)) for _ in range(10)
)


def kernel_time() -> float:
    """Wall time of one exact elimination of a fixed 10 x 11 Fraction matrix."""
    start = time.perf_counter()
    rows = [list(r) for r in _MATRIX]
    n = len(rows)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c][c]
        rows[c] = [v / piv for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return time.perf_counter() - start


class SpeedTrack:
    """Kernel samples over a run, as (time taken, seconds) pairs."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Time the kernel if `EVERY_S` has passed since the last sample.
        A sample is the faster of two runs, so one preempted run does not
        skew the tasks next to it."""
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= EVERY_S:
            k = min(kernel_time(), kernel_time())
            self.at.append(time.perf_counter())
            self.kernel.append(k)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples taken just
        before `start` and just after `end`."""
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        picks = [self.kernel[i] for i in (before, after) if 0 <= i < len(self.kernel)]
        return REFERENCE_S / (sum(picks) / len(picks))
