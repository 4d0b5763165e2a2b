"""Host-speed correction for the CPU-bound workloads.

On a shared host the same Python code runs up to 1.8 times slower for
spells of a fraction of a second to many seconds while neighbours load
the machine, and process CPU time slows with it, so neither wall time
nor CPU time is steady.  A fixed pure-Python loop that does not touch
the program slows down with the host, within 4 to 8% of how the program
does (2 Xeon vCPUs, compared over 3-second windows).

So while a workload runs, a timer interrupts it every ``SAMPLE_EVERY_S``
and times that loop.  The time the samples take is excluded from every
interval the clock times (and from the tracer's spans, which read
:meth:`HostClock.now`), and an interval's wall seconds are scaled by the
mean of ``REFERENCE_S`` over the loop's time for the samples taken
during it and the last one before it (two samples damp the noise of
one, for items shorter than the period): the timings read as seconds
on a host where the loop takes ``REFERENCE_S``.  The loop runs with the
garbage collector off, so that the program's heap does not change its
cost.  Set-up time is scaled by
the median of ``SETUP_SAMPLES`` samples taken right after set-up.

The workloads whose time is mostly network timers (the service) use an
uncorrected clock: no timer, and a factor of 1.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Nominal seconds of one ``reference()`` call: the corrected seconds
#: are seconds on a host this fast.
REFERENCE_S = 0.003
#: Wall seconds between two samples of the host's speed.
SAMPLE_EVERY_S = 0.05
#: Samples taken back to back after set-up.
SETUP_SAMPLES = 5


def reference() -> int:
    """A fixed mix of hashing, allocation and container work (about
    3 ms); it tracked the program's slowdowns better than pure
    arithmetic or large random-access working sets."""
    rng = random.Random(1)
    counts: dict = {}
    seen = []
    for i in range(2500):
        key = (rng.randrange(64), i & 15)
        counts[key] = counts.get(key, 0) + 1
        seen.append(frozenset((key[0], i % 5)))
    return len(set(seen)) + len(counts)


@dataclass
class Interval:
    """One timed interval: its wall seconds, samples excluded, and the
    host factor that turns them into nominal seconds."""

    wall: float = 0.0
    factor: float = 1.0

    @property
    def seconds(self) -> float:
        return self.wall * self.factor


class HostClock:
    """Times intervals in nominal seconds (see the module docstring).

    ``start`` begins sampling and ``stop`` ends it; the timer runs on
    the main thread, which must be the one that calls them.
    """

    def __init__(self, correct: bool = True):
        self.correct = correct
        self.factors: list[float] = []
        #: Wall seconds spent sampling so far.
        self.paused = 0.0
        self._handler = None

    def now(self) -> float:
        """``time.perf_counter`` with the sampling time taken out."""
        return time.perf_counter() - self.paused

    def sample(self, *_signal) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            reference()
        finally:
            seconds = time.perf_counter() - start
            if enabled:
                gc.enable()
        self.paused += seconds
        self.factors.append(REFERENCE_S / seconds)

    def start(self) -> float:
        """Start sampling; return the factor for the set-up just done."""
        if not self.correct:
            return 1.0
        for _ in range(SETUP_SAMPLES):
            self.sample()
        factor = statistics.median(self.factors)
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return factor

    def stop(self) -> None:
        if self._handler is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._handler = None

    @contextmanager
    def timed(self):
        """Time the block; the yielded :class:`Interval` is filled in on
        exit."""
        interval = Interval()
        first = len(self.factors)
        start = self.now()
        yield interval
        interval.wall = self.now() - start
        factors = self.factors[max(first - 1, 0):]
        interval.factor = statistics.fmean(factors) if factors else 1.0

    def median_factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0
