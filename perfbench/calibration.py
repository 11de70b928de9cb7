"""Samples taken during a run's passes: machine speed, and set-up time.

The benchmark's host is shared: the same pass can run 25-30% slower for
seconds to minutes at a time while other tenants are busy.  A `Calibrator`
times a fixed kernel that runs no actionlim code every `every_s` seconds
while a pass runs, so that a pass time can also be expressed in kernel units
(pass seconds / median kernel seconds during that pass), which cancels a
slowdown the kernel shares with the program.  The kernel runs from a
SIGALRM handler in the calling thread (no thread is started), so it also
samples the middle of ops that last several seconds.

Given a `setup` callable (one set-up, returning its seconds), it also takes
a set-up sample between ops at most every `setup_every_s` seconds, so that
the run's set-up samples spread over the whole run instead of one slow or
fast stretch at its start.  Time spent in either sample is left out of pass
times and of op times read from `clock()`.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

_SORTED = np.random.default_rng(0).random(20_000)


def kernel() -> None:
    """Exact rational sums, dict updates and numpy sorts: the mix actionlim
    spends its time in, done without any actionlim code."""
    total = Fraction(0)
    for i in range(1, 800):
        total += Fraction(1, i)
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    for _ in range(20):
        np.sort(_SORTED)


class Calibrator:
    def __init__(self, every_s: float = 0.2, setup: Optional[Callable[[], float]] = None,
                 setup_every_s: float = 2.5):
        self.every_s = every_s  # 0: no samples inside passes
        self.samples: list[float] = []
        self.setup = setup
        self.setup_every_s = setup_every_s
        self.setup_samples: list[float] = []
        self.spent_s = 0.0  # time inside the kernel and set-ups, left out of pass and op times
        self._last_setup = time.perf_counter()
        self._sampling = False

    def clock(self) -> float:
        """perf_counter() minus the time spent in samples so far."""
        while True:
            spent = self.spent_s
            now = time.perf_counter()
            if spent == self.spent_s:  # no sample ran in between
                return now - spent

    def sample(self) -> None:
        if self._sampling:  # an alarm while a sample runs
            return
        self._sampling = True
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent_s += dt
        self._sampling = False

    def _alarm(self, signum, frame) -> None:
        self.sample()

    def _timer(self, on: bool) -> None:
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, self.every_s if on else 0.0, self.every_s if on else 0.0)

    def between_ops(self) -> None:
        if self.setup is not None and time.perf_counter() - self._last_setup >= self.setup_every_s:
            self._timer(False)  # a set-up time holds no kernel time
            t0 = time.perf_counter()
            self.setup_samples.append(self.setup())
            self._last_setup = time.perf_counter()
            self.spent_s += self._last_setup - t0
            self._timer(True)

    def timed(self, fn, *args) -> tuple[float, float]:
        """Run fn(*args); return its seconds (sample time excluded) and the
        median kernel seconds sampled while it ran, starting with one sample."""
        first = len(self.samples)
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._alarm)
        t0 = self.clock()
        self._timer(True)
        try:
            fn(*args)
        finally:
            self._timer(False)
            elapsed = self.clock() - t0
            signal.signal(signal.SIGALRM, previous)
        return elapsed, statistics.median(self.samples[first:])
