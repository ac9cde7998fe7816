"""The reference clock: wall times corrected for the host's current speed.

A shared host runs the same Python code up to 1.7 times slower for seconds
or minutes at a time, whatever the benchmark does; CPU time slows with wall
time, so it is the cores that slow, not the scheduler.  Runs of the same
code minutes apart then differ by more than any bound worth setting.

The clock times a fixed pure-Python probe (Fraction arithmetic, tuples,
dicts, generator expressions and calls: what rankcert's hot loops are made
of) every GAP_S seconds between the timed requests.  A wall time is reported
on the reference clock: multiplied by REFERENCE_S over the median of the
probes around it.  On a host where the probe takes REFERENCE_S, reference
times are wall times; when the host slows, probe and program slow together
and the reference time stays put.  The probe runs no rankcert code, so a
faster rankcert still shows.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.02  # about the probe's fastest wall time on a 2-core x86 VM
GAP_S = 0.1  # wall seconds of timed work between probes
AROUND = 2  # a time is scaled by the median of this many probes each side


def _probe_work():
    acc, seen = Fraction(0), {}
    for i in range(1, 2000):
        a = tuple((i * j) % 7 for j in range(1, 5))
        b = tuple((i + j) % 5 for j in range(1, 5))
        seen[a, b] = all(Fraction(x, k) <= Fraction(y, k) for k, (x, y) in enumerate(zip(a, b), 1))
        acc += Fraction(sum(a) - sum(b), len(seen))
    return acc


class Clock:
    def __init__(self):
        self.ends, self.lengths = [], []  # per probe: when it ended, how long it took
        _probe_work()  # the first run pays for allocations the rest reuse

    def probe(self):
        start = perf_counter()
        _probe_work()
        stop = perf_counter()
        self.ends.append(stop)
        self.lengths.append(stop - start)

    def due(self) -> bool:
        return not self.ends or perf_counter() - self.ends[-1] > GAP_S

    def scale(self, stop: float) -> float:
        """REFERENCE_S over the host's probe time around a span ending at stop.

        The spans fall between probes, so the probes around one are the
        AROUND that ended before it and the AROUND that ended after it.
        """
        i = bisect.bisect_left(self.ends, stop)
        return REFERENCE_S / statistics.median(self.lengths[max(0, i - AROUND):i + AROUND])

    def speed(self) -> float:
        """The host's speed over the whole run, 1 for the reference host."""
        return REFERENCE_S / statistics.median(self.lengths)
