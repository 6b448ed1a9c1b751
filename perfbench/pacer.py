"""Machine-speed probe for the benchmark's worker processes.

The host this benchmark runs on changes speed every few seconds: a fixed
pure-Python loop takes up to 1.8x as long in its slow state, and CPU time
tracks wall time, so it is not scheduling.  Raw call times of the same
code spread by 20-40% over a run.  The pacer times a tiny fixed loop, which
imports nothing from ``repro``, every ``PERIOD_S`` seconds from a
``SIGALRM`` handler, so each call and each set-up carries the machine's
speed while it ran, and ``at_full_speed`` scales its time to the host's
full speed.  The probes' own time is taken out of every timing first.

This module imports nothing from ``repro``.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Sequence

#: Seconds between probes; one probe takes about 0.5 ms, 1% of that.
PERIOD_S = 0.05
#: A probe's duration at the host's full speed; timings are scaled to it.
REFERENCE_PROBE_S = 0.00045
#: How closely pipeline code follows the probe: a call made while probes
#: ran 1.8x slower takes 1.8 ** 0.7 = 1.5x longer.  Fitted over the calls
#: of ten runs of the two gated workloads; it cut the standard deviation
#: of log call time from 9-18% to 3-4%.
SENSITIVITY = 0.7


def _probe_work() -> int:
    counts = {}
    total = 0
    for i in range(2500):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += len(str(i))
    return total


class Pacer:
    """Probes the machine's speed until ``stop``; ``durations`` holds one
    entry per probe, in seconds."""

    def __init__(self) -> None:
        self.durations: List[float] = []

    def start(self) -> "Pacer":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.durations)

    def since(self, mark: int) -> List[float]:
        return self.durations[mark:]

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_work()
        self.durations.append(time.perf_counter() - t0)


def at_full_speed(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` measured while the probes took ``probes``, scaled to
    the host's full speed."""
    if not probes:
        return seconds
    return seconds * (REFERENCE_PROBE_S
                      / statistics.fmean(probes)) ** SENSITIVITY
