"""Host speed checks shared by the benchmark and its child processes.

The cores of a shared host run up to about twice as slow while a neighbour
is busy, in spells from under a second to minutes.  Each timed operation is
therefore bracketed by two short fixed loops that measure the host's
slowdown k, and its host seconds are divided by k ** `SENSITIVITY`: on this
kind of host a neighbour that slows the loop k-fold slows the simulator's
operations about k ** 0.8-fold.  The result is close to the seconds the
operation takes on an idle core of the calibration machine; the raw seconds
and slowdowns are reported with it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

PROBE_S = 0.000195
"""Median seconds of `probe_s` on an idle core of the machine the benchmark
was defined on (2-vCPU Intel Xeon VM, Python 3.11)."""

SENSITIVITY = 0.8
"""Exponent fitted on the calibration machine: across runs of 30 s, it
gave the smallest spread of the medians of every operation's seconds."""


def probe_s() -> float:
    """Seconds of a short fixed loop that allocates no tracked objects, so
    that it never triggers the collector."""
    start = perf_counter()
    table: dict[int, float] = {}
    for i in range(1000):
        key = (i * 7919) % 97
        table[key] = table.get(key, 0.0) + math.sqrt(i)
        str(i)
    return perf_counter() - start


def slowdown() -> float:
    """How much slower than `PROBE_S` the host runs right now."""
    return statistics.median(probe_s() for _ in range(5)) / PROBE_S


@dataclass(frozen=True)
class Timing:
    seconds: float  # host seconds
    before: float  # slowdown just before
    after: float  # slowdown just after

    @property
    def calibrated(self) -> float:
        return self.seconds / ((self.before + self.after) / 2) ** SENSITIVITY


def timed(op):
    """Run `op()`; returns its result and its `Timing`."""
    before = slowdown()
    start = perf_counter()
    result = op()
    seconds = perf_counter() - start
    return result, Timing(seconds, before, slowdown())


def calibrated_s(timings: list[Timing]) -> float:
    """Median calibrated seconds of the timings."""
    return statistics.median(t.calibrated for t in timings) if timings else math.nan
