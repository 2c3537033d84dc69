"""A work clock that corrects wall time for host-speed drift.

On a shared host the CPU speed seen by one process drifts by 10-25 % from
one second to the next, and medians taken inside one process still move
about 12 % between processes.  Pure wall time is therefore too noisy to
compare two commits.

``HostClock`` interrupts the process every ``INTERVAL_S`` seconds (SIGALRM)
and times a fixed kernel built only on the standard library.
The kernel's own time is excluded from work time, and every stretch of
work time is rescaled by ``REF_CAL_S / kernel time`` measured around it
(median of three neighbouring samples).  Normalised seconds are thus the
seconds the work would have taken on a host where the kernel runs in
``REF_CAL_S``; they are what the benchmark reports.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
REF_CAL_S = 0.004    # typical kernel time on the 2-core Xeon the bounds were set on


def _gauss_map() -> int:
    # rationals near the golden mean: small-Fraction arithmetic
    n = 0
    for k in range(10):
        x = Fraction(832040 + k, 1346269)
        while x:
            y = 1 / x
            a = y.numerator // y.denominator
            x = y - a
            n += a
    return n


def _field_chain() -> int:
    # a growing product in Q(sqrt(5)) with gcd reduction: big-int arithmetic
    a, b, c = 1, 0, 1
    for k in range(150):
        a, b, c = -a + 5 * b, a - b, 2 * c
        g = math.gcd(math.gcd(a, b), c)
        a, b, c = a // g, b // g, c // g
        a, b, c = a * (k + 1) + b, b * (k + 2), c * (k + 3)
        g = math.gcd(math.gcd(a, b), c)
        a, b, c = a // g, b // g, c // g
    return c.bit_length()


def _nested_closures() -> int:
    # a deep chain of closures over tuples, like derived AdaptiveReals
    def make(depth):
        if depth == 0:
            return lambda bits: (Fraction(1, 3), Fraction(1, 2))
        inner = make(depth - 1)
        return lambda bits: tuple(t + 1 for t in inner(bits))
    f = make(150)
    return len(f(64)) + len(f(128))


def _kernel() -> int:
    # three equal parts: their sum slows with the host about as much as
    # each workload does (one part alone over- or under-corrects by 30 %+)
    return _gauss_map() + _field_chain() + _nested_closures()


class HostClock:
    """Work time (wall time minus calibration pauses) plus speed samples."""

    def __init__(self):
        self.paused = 0.0
        self.samples: list[tuple[float, float]] = []  # (work time, kernel s)
        self._busy = False

    def now(self) -> float:
        # retry if a sample lands between the two reads
        while True:
            p = self.paused
            t = time.perf_counter()
            if p == self.paused:
                return t - p

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        t_enter = time.perf_counter()
        gc_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        if gc_on:
            gc.enable()
        self.samples.append((t_enter - self.paused, t1 - t0))
        self.paused += time.perf_counter() - t_enter
        self._busy = False

    def exclude(self, t_enter: float) -> None:
        """Drop the wall time since ``t_enter`` (perf_counter) from work time."""
        self.paused += time.perf_counter() - t_enter

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def kernel_median(self) -> float:
        return statistics.median(c for _, c in self.samples)

    def normaliser(self):
        """Return f(w0, w1): normalised seconds of work time [w0, w1].

        Each sample's factor is smoothed over its two neighbours only:
        wider windows (9, 31 samples, or one factor per run) tracked the
        host worse and spread more from run to run.
        """
        marks = [w for w, _ in self.samples]
        cals = [c for _, c in self.samples]
        smooth = [statistics.median(cals[max(i - 1, 0):i + 2])
                  for i in range(len(cals))]
        # piece i covers [bounds[i-1], bounds[i]) around sample i
        bounds = [(marks[i] + marks[i + 1]) / 2 for i in range(len(marks) - 1)]
        factors = [REF_CAL_S / c for c in smooth]

        def normalised(w0: float, w1: float) -> float:
            total = 0.0
            i = bisect.bisect_right(bounds, w0)
            lo = w0
            while True:
                hi = bounds[i] if i < len(bounds) else w1
                if hi >= w1:
                    return total + (w1 - lo) * factors[i]
                total += (hi - lo) * factors[i]
                lo = hi
                i += 1
        return normalised
