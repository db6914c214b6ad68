"""The machine's current speed, sampled while a workload runs.

The shared host this benchmark was tuned on changes speed by up to a factor
of two within seconds and drifts over minutes, as other tenants come and go.
A fixed reference task, which belongs to the benchmark and never touches the
program, is timed every `interval_s` seconds from a SIGALRM handler, so its
samples interleave with the program's own work in the same process (the
handler runs between two bytecodes of whatever the program is doing). Time
spent in the handler is tracked in `Probe.spent` and subtracted from every
timed interval, so it never counts as program time.

`factor()` is NOMINAL_S over a mean reference time: below 1 when the machine
ran slower than nominal. End-to-end times are multiplied by it (rates
divided) to state them at the nominal speed, which cancels the machine's
drift and leaves the program's own cost. The reference is Fraction
arithmetic, like the program's exact-rank and polynomial hot paths.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

INTERVAL_S = 0.25
LOCAL_WINDOW_S = 1.0  # a timed call is scaled by the samples this close to it
# a round figure near the mean reference time on a 2-core x86-64 cloud VM
# (Python 3.11); end-to-end times are stated at this speed
NOMINAL_S = 0.003


def _reference_rows() -> list:
    rng = random.Random(20230624)
    n = 10
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return rows


_ROWS = _reference_rows()


def reference_task() -> int:
    """Rank of a fixed symmetric rational matrix, by Fraction elimination."""
    rows = [r[:] for r in _ROWS]
    n = len(rows)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, n):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class Probe:
    """Times reference_task every `interval_s` seconds until stopped."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.times: list[float] = []  # perf_counter time at which each sample began
        self.spent = 0.0  # seconds spent inside the handler, samples included
        self._old = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_task()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.times.append(t0)
        self.spent += time.perf_counter() - t0

    def top_up(self, count: int) -> None:
        """Sample in a row until there are `count` samples."""
        while len(self.samples) < count:
            self.sample()

    def _handler(self, _signum, _frame) -> None:
        self.sample()

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None


def factor(samples: list) -> float:
    """NOMINAL_S over the mean reference time.

    The host is either fast or about twice as slow, switching within seconds,
    so reference times are bimodal. Their median jumps between the two modes
    as their shares cross one half; the mean follows the shares smoothly, as
    the program's own total time does."""
    return NOMINAL_S / statistics.fmean(samples)


def local_factors(probe: Probe, starts: list, durations: list) -> list:
    """The speed factor of each timed call, from the samples taken within
    LOCAL_WINDOW_S of it (or during it), or from all samples if none was.

    The host switches between its fast and slow states within seconds, so a
    call is stated at nominal speed by the state it ran in; quantiles of the
    scaled latencies then no longer depend on how a run's time was shared
    between the two states."""
    times, overall = probe.times, factor(probe.samples)
    prefix = list(accumulate(probe.samples, initial=0.0))
    out = []
    for t0, d in zip(starts, durations):
        lo = bisect_left(times, t0 - LOCAL_WINDOW_S)
        hi = bisect_right(times, t0 + d + LOCAL_WINDOW_S)
        out.append(NOMINAL_S * (hi - lo) / (prefix[hi] - prefix[lo]) if hi > lo else overall)
    return out
