"""Host-speed reference: a fixed kernel timed next to the measured work.

The development host is a 2-vCPU KVM guest on a shared machine. Its speed
drifts by up to 1.8x, in phases from a few milliseconds to minutes long, and
process CPU time drifts with wall time, so medians over one run still differ
between runs by more than any useful regression bound. The benchmark
therefore times this kernel, which belongs to the benchmark and never
changes with the program, while the measured work runs, and reports each
time scaled to the kernel's nominal speed:

    reported = measured * REF_NOMINAL_S / (mean kernel seconds per call meanwhile)

A slow phase of the host stretches the work and the kernel alike and
cancels; a change to the program moves only the work. The kernel mixes what
the program spends its time on: a pure-Python edit-distance loop over short
strings, dict and string handling, and numpy calls on tiny arrays.
"""
from __future__ import annotations

import contextlib
import os
import signal
import time
from dataclasses import dataclass

import numpy as np

# Seconds one kernel call takes at the reference speed: the median on the
# 2-vCPU development host (Python 3.11, numpy 2.4) during a calm period.
REF_NOMINAL_S = 0.0002
# Wall time between kernel calls made from the SIGALRM timer while the
# sampler runs; each call takes about 1% of that.
SAMPLE_PERIOD_S = 0.02
# Kernel calls timed right before and right after an interval, so that
# intervals shorter than SAMPLE_PERIOD_S get a speed too.
BRACKET_CALLS = 16

_WORDS = ("bakedo", "bakeda", "tinuvora", "tinovura", "lekasimo", "lekazimo", "pofu", "pofuta")
_VEC = np.linspace(-1.0, 1.0, 10)


def _lev(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def kernel() -> float:
    """One call of the fixed reference work; returns a checksum."""
    total = 0
    for a, b in zip(_WORDS, _WORDS[1:]):
        total += _lev(a, b)
    counts: dict[str, int] = {}
    for w in _WORDS * 4:
        key = w[:3] + str(len(w))
        counts[key] = counts.get(key, 0) + 1
    x = _VEC
    for _ in range(12):
        x = np.tanh(x * 0.5 + 0.1)
    return total + len(counts) + float(x.sum())


@dataclass
class Interval:
    """A timed interval: ``seconds`` as measured (kernel calls made inside
    it taken out) and ``scaled`` at the reference host speed."""

    seconds: float = 0.0
    scaled: float = 0.0


class HostSpeed:
    """Kernel timings taken during a run.

    While started, a SIGALRM timer calls the kernel every SAMPLE_PERIOD_S,
    between two bytecodes of whatever the main thread runs, so a long
    interval gets the host's mean speed over its whole length rather than
    at its ends. All kernel time is totalled in ``kernel_s``, so that the
    intervals measured around it can leave it out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.kernel_s = 0.0

    def call(self) -> float:
        """One timed kernel call; returns its seconds."""
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        self.kernel_s += seconds
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(self.call())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """No timer calls inside the ``with`` block. A kernel call that lands
        inside a sub-millisecond call would slow it by more than its own
        time, through the caches it evicts."""
        _, period = signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            if period:
                signal.setitimer(signal.ITIMER_REAL, period, period)

    def bracket(self) -> float:
        """Mean seconds per call of BRACKET_CALLS kernel calls."""
        per_call = sum(self.call() for _ in range(BRACKET_CALLS)) / BRACKET_CALLS
        self.samples.append(per_call)
        return per_call

    @contextlib.contextmanager
    def interval(self):
        """Time the ``with`` block. Its host speed is the mean of the kernel
        timings taken during it and of the brackets just before and after.
        Intervals nest: an inner one's brackets are kernel time of the outer."""
        span = Interval()
        before = self.bracket()
        first, kernel_s = len(self.samples), self.kernel_s
        t0 = time.perf_counter()
        yield span
        elapsed = time.perf_counter() - t0
        during = self.samples[first:]
        span.seconds = elapsed - (self.kernel_s - kernel_s)
        per_call = [before, self.bracket(), *during]
        span.scaled = span.seconds * REF_NOMINAL_S * len(per_call) / sum(per_call)


SPEED = HostSpeed()


def pin_to_one_cpu() -> int | None:
    """Keep this process on one CPU, so the kernel and the work it is
    compared with always share a processor. Returns the CPU, or None where
    affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
