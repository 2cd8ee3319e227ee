"""Host-speed reference: a fixed pure-Python slice timed during the work.

This 2-core shared host slows down by up to 1.7x for minutes at a time
and by up to 3x for a few seconds.  While a worker makes a pass, an
interval timer interrupts it every :data:`INTERVAL_S` seconds to time
one reference slice (about 5% of the pass), so the slices sample the
host's speed evenly through the pass, long operations included.  Each
operation's time excludes the slices that ran inside it, and the
orchestrator reports it scaled to a host where the slice takes
:data:`NOMINAL_SLICE_S` (``calibrated = net * NOMINAL_SLICE_S / median
slice of the pass``).  Set-up is too short for the timer, so a worker
times :data:`SETUP_SLICES` slices right before and right after it and
its set-up time is scaled by the median of those.  The slice is
benchmark code, so a change to ``repro`` moves only the operation
times, never the reference.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Iterations of one reference slice (about 10 ms on the reference host).
SLICE_ITERATIONS = 100_000
#: The slice time calibrated timings are scaled to.
NOMINAL_SLICE_S = 0.010
#: Seconds between two slices.
INTERVAL_S = 0.2
#: Slices timed just before and again just after a worker's set-up.
SETUP_SLICES = 5


def reference_slice() -> float:
    """Seconds for one fixed slice of integer arithmetic."""
    start = time.perf_counter()
    total = 0
    for value in range(SLICE_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - start


def setup_slices() -> list[float]:
    """Seconds of each of :data:`SETUP_SLICES` back-to-back slices."""
    return [reference_slice() for _ in range(SETUP_SLICES)]


class Reference:
    """Reference slices taken on a timer while a pass runs.

    Use as a context manager around the pass and time each operation
    with :meth:`net`.  ``enabled=False`` takes no slices.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``(start, seconds)`` per slice, in time order.
        self.slices: list[tuple[float, float]] = []
        self._previous = None

    def _slice(self, signum, frame) -> None:
        start = time.perf_counter()
        self.slices.append((start, reference_slice()))

    def __enter__(self) -> "Reference":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._slice)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def net(self, start: float, end: float) -> float:
        """``end - start`` minus the slices that ran inside it."""
        inside = sum(seconds for begun, seconds in self.slices
                     if start <= begun < end)
        return end - start - inside

    def summary(self) -> dict:
        durations = [seconds for _, seconds in self.slices]
        return {
            "reference_s": (statistics.median(durations)
                            if durations else None),
            "reference_samples": len(durations),
        }
