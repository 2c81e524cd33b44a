"""Spans around handoffsim's layer functions, recorded from outside the program.

A probe replaces one public function, as the calling module sees it, with
a wrapper that records a span: name, start, end and the span that was open
when it was called.  Spans stay in memory and are written once, at the end.
A span's self time is its duration minus the durations of its children, so
the self times of everything under ``engine.run`` add up to ``engine.run``.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns


def _targets():
    """Probe name -> the (owner, attribute) pairs it replaces."""
    from handoffsim import cli, controller, engine, scenario
    from handoffsim.synthesis import SynthesisState
    from handoffsim.trace import Trace

    return {
        "engine.run": [(engine, "run")],
        "topology.coverage": [(engine, "coverage")],
        "synthesis.advance_to": [(SynthesisState, "advance_to")],
        "synthesis.sample_context": [(engine, "sample_context")],
        "desirability.desirability": [(engine, "desirability")],
        "desirability.rank": [(engine, "rank")],
        "controller.step": [(controller, "step")],
        "trace.append": [(Trace, "append")],
        "trace.write": [(Trace, "write")],
        "metrics.compute_metrics": [(cli, "compute_metrics")],
        "metrics.to_csv": [(cli, "snapshots_to_csv")],
        "scenario.from_dict": [(scenario, "from_dict"), (cli, "from_dict")],
        "sweep.point": [(cli, "_sweep_point")],
    }


class Tracer:
    """Installs probes, by default every one, for the duration of a ``with``
    block.  Leave ``sweep.point`` out around a parallel sweep: the process
    pool pickles that function."""

    def __init__(self, names=()):
        self.names = tuple(names) or tuple(_targets())
        self.spans = array("q")  # flat (name index, start ns, end ns, parent index)
        self.counts: Counter = Counter()
        self.sampled: set = set()  # distinct (station, t) asked of synthesis in this run
        self._stack = [-1]
        self._saved = []

    def __enter__(self) -> "Tracer":
        targets = _targets()
        for code, name in enumerate(self.names):
            observe = _OBSERVERS.get(name)
            for owner, attr in targets[name]:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(code, original, observe))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, code, fn, observe):
        spans, stack = self.spans, self._stack

        def probe(*args, **kwargs):
            idx = len(spans) // 4
            spans.extend((code, 0, 0, stack[-1]))
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[4 * idx + 1] = start
                spans[4 * idx + 2] = end
            if observe is not None:
                observe(self, args, result)
            return result

        return probe

    def layer_times(self) -> dict[str, dict]:
        """Per probe: calls, total seconds, self seconds, span durations."""
        s = self.spans
        n = len(s) // 4
        child = [0] * n
        for i in range(n):
            parent = s[4 * i + 3]
            if parent >= 0:
                child[parent] += s[4 * i + 2] - s[4 * i + 1]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            for name in self.names
        }
        for i in range(n):
            entry = out[self.names[s[4 * i]]]
            duration = s[4 * i + 2] - s[4 * i + 1]
            entry["calls"] += 1
            entry["total_s"] += duration / 1e9
            entry["self_s"] += (duration - child[i]) / 1e9
            entry["durations"].append(duration / 1e9)
        return out

    def write(self, path: Path) -> None:
        """Write every span as `name start_ns end_ns parent` lines."""
        s = self.spans
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(0, len(s), 4):
                fh.write(f"{self.names[s[i]]}\t{s[i + 1]}\t{s[i + 2]}\t{s[i + 3]}\n")


def p99_us(durations: list[float]) -> float:
    return statistics.quantiles(durations, n=100)[98] * 1e6


def _observe_coverage(tracer, args, result):
    pos, topo = args
    tracer.counts["stations_scanned"] += len(topo.stations)
    tracer.counts["stations_covered"] += len(result)


def _observe_sample(tracer, args, result):
    tracer.sampled.add((args[0], args[1]))


def _observe_run(tracer, args, result):
    # Sharing is counted within one run: each run samples afresh.
    tracer.counts["distinct_samples"] += len(tracer.sampled)
    tracer.sampled.clear()


def _observe_rank(tracer, args, result):
    tracer.counts["candidates"] += len(args[0])


def _observe_step(tracer, args, result):
    before = args[0].phase.value
    after = result[0].phase.value
    if before == "initiation" and after in ("preparation", "execution"):
        tracer.counts["prep_entries"] += 1
    if before == "preparation" and after == "initiation":
        tracer.counts["rollbacks"] += 1
    for action in result[1]:
        record = getattr(action, "record", None)
        if record is not None:
            tracer.counts["completed"] += 1
            tracer.counts["accepted"] += bool(record.accepted)


def _observe_metrics(tracer, args, result):
    tracer.counts["records_walked"] += len(args[0].records)


_OBSERVERS = {
    "engine.run": _observe_run,
    "topology.coverage": _observe_coverage,
    "synthesis.sample_context": _observe_sample,
    "desirability.rank": _observe_rank,
    "controller.step": _observe_step,
    "metrics.compute_metrics": _observe_metrics,
}
