"""How fast the host ran, measured while the studies run.

On a shared virtual machine the CPU a run gets changes speed by tens of
per cent, within a second and for minutes at a time, with no steal time
reported: neighbours on the same physical cores slow it down.  Every
wall-clock figure moves with that.  So while a study runs, an interval
timer interrupts it every `PERIOD_S` of study time to time one slice of a
fixed reference kernel (code of the benchmark's own: pure-Python integer
arithmetic and small numpy array operations, nothing of the program under
test).  The slices a study contains say how fast the host ran during it,
and its time is scaled to a host on which one slice takes
`NOMINAL_SLICE_NS`:

    calibrated time = study time * NOMINAL_SLICE_NS / mean slice time

The mean is over the study's own slices, widened to neighbouring studies
until it holds `MIN_SLICES` (a short study may contain none).  Time spent
in slices is taken out of every measured interval: `clock_ns` is the
monotonic clock minus all slice time so far, and both the study timings
and the tracer's spans use it.  A program that gets faster shows fully; a
host that gets slower mostly does not.

Python runs the timer's handler between bytecodes of the main thread, so
a slice never splits a numpy call and touches no state of the program.

This file is also imported by the fresh interpreters that time set-up,
which call `mean_slice_ns` right after it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

SLICE_LOOP = 4_000
NOMINAL_SLICE_NS = 525_000    # mean slice on a 2.0 GHz Xeon vCPU
PERIOD_S = 0.0125             # study time between slices: about 4 % in slices
MIN_SLICES = 20               # slices behind one study's calibration

_stolen_ns = 0                # wall time spent in slices so far


def slice_ns() -> int:
    """One slice of the reference kernel; returns its wall time in ns."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(SLICE_LOOP):
        acc += i * i
    a = np.arange(200.0)
    for _ in range(SLICE_LOOP // 100):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter_ns() - t0


def clock_ns() -> int:
    """The monotonic clock without the time spent in slices."""
    return time.perf_counter_ns() - _stolen_ns


def mean_slice_ns(n: int) -> float:
    return sum(slice_ns() for _ in range(n)) / n


class HostSpeed:
    """Slices taken during studies, one per PERIOD_S of study time.

    `begin` and `end` bracket each study; the timer counts study time
    only, so a run of short studies gets its slices too.  `close` stops
    the timer and restores the previous SIGALRM handler.
    """

    def __init__(self):
        self.per_study: list[tuple[int, int]] = []    # (slice ns, slices)
        self._ns = 0
        self._n = 0
        self._left = PERIOD_S
        self._old = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        global _stolen_ns
        t0 = time.perf_counter_ns()
        self._ns += slice_ns()
        self._n += 1
        _stolen_ns += time.perf_counter_ns() - t0

    def begin(self) -> None:
        self._ns = self._n = 0
        signal.setitimer(signal.ITIMER_REAL, self._left, PERIOD_S)

    def end(self) -> None:
        self._left = signal.setitimer(signal.ITIMER_REAL, 0)[0] or PERIOD_S
        self.per_study.append((self._ns, self._n))

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factors(self) -> list[float]:
        """Per study, multiply its time by this to calibrate it."""
        runs = self.per_study
        out = []
        for i in range(len(runs)):
            lo = hi = i
            total, n = _window(runs, lo, hi)
            while n < MIN_SLICES and (lo > 0 or hi < len(runs) - 1):
                lo, hi = max(0, lo - 1), min(len(runs) - 1, hi + 1)
                total, n = _window(runs, lo, hi)
            out.append(NOMINAL_SLICE_NS * n / total)
        return out

    def slices(self) -> int:
        return sum(n for _, n in self.per_study)


def _window(runs: list[tuple[int, int]], lo: int, hi: int) -> tuple[int, int]:
    part = runs[lo:hi + 1]
    return sum(t for t, _ in part), sum(n for _, n in part)
