"""Run metrics folded from trace records.

A ``MetricFolder`` takes records one at a time, in time order, through the
same ``append(t, terminal, kind, payload)`` a ``Trace`` has, so it can be
the engine's record sink and fold a run that keeps no trace;
``compute_metrics`` feeds one from a finished trace, sorted by time.  Each
terminal's dwell times and degradation runs are settled as time moves past
each record, not walked at the end.  One fold gives the pooled snapshot
and, in its ``by_terminal``, each terminal's own: a terminal's results are
worked out once and read by both.  ``MetricFolder.facts`` hands out those
per-terminal results, and ``pool`` turns the results of several folders,
each over some of a run's terminals, into the run's pooled snapshot.

A folder keeps the payloads it is handed, and copies none of them: an
``anl`` record's own ``entries`` list is what its time's list is, and a
network's value is read from it as ``dict(entries).get(net)`` reads it, so
of a network listed twice the last listing counts.  A sink may keep a
payload, and nothing mutates a payload once it is appended; when no score
reads RSS, the engine hands every ``anl`` record of a tick the same
``[station, score]`` list for a station.

A snapshot is the published row: its fields are the ``METRICS`` columns,
in table order, so a CSV or JSON row is the snapshot's own values.

Counts are tallied first and rates derived from them, so the imperative
and opportunist rates always sum to the total handoff rate exactly.
Quantities with no generating data in a run (mean latencies with no
handoffs, the best-network dwell fraction with no attached time) are
reported as None and serialize as empty cells, never as a fake zero.

Timeliness grades every completed handoff: premature handoffs were
rejected for not landing on the best network, tardy ones fired only after
the serving utility had already sat below the lower threshold for longer
than the tolerance, and the rest are timely.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from .context import METRICS, PASS_THROUGH
from .trace import ANL, HANDOFF, INIT, TRANSITION, Trace

__all__ = [
    "METRICS",
    "PASS_THROUGH",
    "MetricFolder",
    "MetricSnapshot",
    "compute_metrics",
    "metric_cells",
    "pool",
    "snapshots_to_csv",
    "snapshots_to_json",
    "CSV_COLUMNS",
]


CSV_COLUMNS = ["terminal"] + [m.column for m in METRICS]


# The snapshot's fields: the table's columns, in its order.
_MetricValues = namedtuple("_MetricValues", CSV_COLUMNS[1:])
_FIELD_AT = {column: i for i, column in enumerate(_MetricValues._fields)}


class MetricSnapshot(_MetricValues):
    """One run's metrics, pooled over some of its terminals.

    ``by_terminal`` holds a pooled snapshot's per-terminal snapshots, by
    terminal id, and is empty in a terminal's own.  It is not a metric, so
    it is an attribute outside the tuple, and equality and repr leave it
    out."""

    by_terminal: dict = {}  # shared by every snapshot that sets none; never mutated


class _Facts(NamedTuple):
    """What one terminal's own snapshot and the pooled one both read."""

    terminal: str
    counts: dict
    on_head: int
    attached: int
    runs: list[tuple[int, float]]
    graded: list[tuple[dict, str]]  # (handoff record, timeliness grade)


class _TerminalStats:
    """Single-pass accumulation of one terminal's trace records.

    Records arrive in time order, and what holds at a time is what its last
    record left: the attached network, the list head, the list.  So a
    time is settled once a record with a later time arrives, and the last
    one in ``facts``, up to the horizon.  The span to the next time, both
    clipped to [0, horizon], adds to the attached time, and to the on-head
    time when the attached network heads the list.  If the settled time had
    a list and lies in [0, horizon), the attached network's value in it
    extends or closes the open degradation run.
    """

    # Every transition counter at zero, keyed by its column; each terminal
    # starts from a copy, and ``pool`` from one of ``_TALLIES`` (a dict copy
    # is faster to build than a dict display).
    COUNTS = dict.fromkeys(
        ("connects", "link_losses", "prep_entries", "rollbacks", "executions"), 0
    )

    def __init__(self, terminal: str, horizon: int, tick: int, th_inf: float, moves: dict):
        self.terminal = terminal
        self.horizon = horizon
        self.tick = tick
        self.th_inf = th_inf
        self.moves = moves  # (event, from, to) -> the counters that transition bumps
        self.records: list[dict] = []
        self.counts = self.COUNTS.copy()
        self.anl_by_t: dict[int, list] = {}  # each list time's record entries, as handed
        # The time of the last record, not yet settled, and what holds there.
        self.t = float("-inf")
        self.attached: Optional[str] = None
        self.head: Optional[str] = None
        # Settled: ms attached and on the list head, and the degradation runs
        # as (duration ms, summed deficit x ms), the last one open while the
        # utility tick that ended at ``run_end`` was below the threshold.
        self.on_head = 0
        self.attached_ms = 0
        self.runs: list[tuple[int, float]] = []
        self.run_end: Optional[int] = None

    def feed(self, t: int, kind: str, payload: dict) -> None:
        if t != self.t:
            if self.attached is None:
                self.t = t  # nothing attached: settling would change nothing else
            else:
                self.settle(t)
        if kind == ANL:
            entries = payload["entries"]
            self.head = entries[0][0] if entries else None
            self.anl_by_t[t] = entries
        elif kind == TRANSITION:
            self.attached = payload["attached"]
            actions = payload["actions"]
            if actions:
                for action in actions:
                    if "connect" in action:
                        self.counts["connects"] += 1
            move = payload["event"], payload["from"], payload["to"]
            try:
                bumped = self.moves[move]
            except KeyError:
                bumped = self.moves[move] = _bumped_by(*move)
            except TypeError:  # an unhashable value, in a hand-made trace
                bumped = _bumped_by(*move)
            if bumped:
                counts = self.counts
                for key in bumped:
                    counts[key] += 1
        elif kind == HANDOFF:
            self.records.append(payload)

    def settle(self, t: int) -> None:
        """Settle the time of the last record, which ``t`` follows."""
        t0, net, horizon = self.t, self.attached, self.horizon
        self.t = t
        if net is None:
            return
        lo = t0 if t0 > 0 else 0
        hi = t if t < horizon else horizon
        if hi > lo:
            self.attached_ms += hi - lo
            if net == self.head:
                self.on_head += hi - lo
        entries = self.anl_by_t.get(t0)
        if entries is None or not 0 <= t0 < horizon:
            return
        value = _listed(entries, net)
        if value is None:
            return
        end = t0 + self.tick
        if end > horizon:
            end = horizon
        if value < self.th_inf:
            # A tick continues the open run only where the one before it ended.
            if self.run_end != t0:
                self.runs.append((0, 0.0))
            ms, deficit = self.runs[-1]
            span = end - t0
            self.runs[-1] = (ms + span, deficit + (self.th_inf - value) * span)
            self.run_end = end
        else:
            self.run_end = None

    @cached_property
    def anl_times(self) -> list[int]:
        return sorted(self.anl_by_t)

    def facts(self, tolerance_ms: int) -> _Facts:
        # Settle the last time, and grade, on a shallow copy, so the fold can
        # go on or be asked again: the copy's sorted list times die with it.
        end = object.__new__(_TerminalStats)
        end.__dict__.update(self.__dict__)
        end.runs = self.runs.copy()
        end.settle(self.horizon)
        runs = [(ms, deficit / ms) for ms, deficit in end.runs if ms]  # (ms, mean deficit)
        graded = [(r, _timeliness(r, end, tolerance_ms)) for r in self.records]
        return _Facts(self.terminal, self.counts, end.on_head, end.attached_ms, runs, graded)

    def below_span_before(self, t_trigger: int, from_net: str) -> int:
        """Continuous ms the from-network utility sat below th_inf just
        before the trigger instant."""
        span = 0
        times = self.anl_times
        for k in range(bisect_right(times, t_trigger) - 1, -1, -1):
            t = times[k]
            value = _listed(self.anl_by_t[t], from_net)
            if value is None or value >= self.th_inf:
                break
            span = t_trigger - t
        return span


class MetricFolder:
    """Folds one run's records, as they arrive, into metric snapshots.

    A record sink: ``append`` takes each record in time order.  The run's
    init record (terminal None) fixes the tick, the lower threshold, the
    tardiness tolerance, the pass-through constants and the terminals to
    fold first, in its order; a terminal it does not list is added at its
    first record.  Each terminal's records feed its own ``_TerminalStats``,
    and other run-level records are dropped.  Without
    an init record the folder takes a tick of 1 ms and no threshold.

    The folder keeps each ``anl`` record's entries list as it is handed, so
    whoever appends a payload must not mutate it afterwards.
    """

    def __init__(self, horizon_ms: int):
        self.horizon = horizon_ms
        self._start(None)

    def _start(self, init: Optional[dict]) -> None:
        self.init = init
        self.tick = init["tick_ms"] if init else 1
        self.th_inf = init["controller"]["th_inf"] if init else float("-inf")
        self.moves: dict[tuple, tuple[str, ...]] = {}
        self.stats: dict[str, _TerminalStats] = {}
        for tid in init["terminals"] if init else ():
            self.stats[tid] = self._new(tid)

    def _new(self, terminal: str) -> _TerminalStats:
        return _TerminalStats(terminal, self.horizon, self.tick, self.th_inf, self.moves)

    def append(self, t: int, terminal: Optional[str], kind: str, payload: dict) -> None:
        st = self.stats.get(terminal)
        if st is None:
            if terminal is None:
                if kind == INIT and self.init is None:
                    self._start(payload)
                return
            st = self.stats[terminal] = self._new(terminal)
        st.feed(t, kind, payload)

    def feed_trace(self, trace: Trace) -> "MetricFolder":
        """Fold a finished trace, whose init record may sit anywhere in it,
        in time order: a stable sort, one pass over what the engine wrote."""
        for rec in trace.records:
            if rec.kind == INIT and rec.terminal is None:
                self._start(rec.payload)
                break
        # ``append`` inlined for a terminal already folded.  ``stats`` stays
        # the same dict: ``append`` restarts the folder only at a run-level
        # init record, and none is left once one has started it.
        stats, append = self.stats, self.append
        for t, terminal, kind, payload in sorted(trace.records, key=itemgetter(0)):
            st = stats.get(terminal)
            if st is None:
                append(t, terminal, kind, payload)
            else:
                st.feed(t, kind, payload)
        return self

    def facts(self) -> list[_Facts]:
        """Each folded terminal's results, in fold order: all that ``pool``
        reads.  The results of several folders, each over some of a run's
        terminals, pool to the snapshot of one folder over all of them."""
        tolerance = _tardy_tolerance(self.init)
        return [st.facts(tolerance) for st in self.stats.values()]

    def snapshot(self, terminal: Optional[str] = None) -> MetricSnapshot:
        """The snapshot pooled over every terminal folded, with each one's
        own in ``by_terminal``; or, given ``terminal``, that one's alone."""
        constants = self.init.get("metrics_constants", {}) if self.init else {}
        if terminal is not None:
            # A terminal with no records gets empty stats.
            st = self.stats.get(terminal) or self._new(terminal)
            return pool([st.facts(_tardy_tolerance(self.init))], self.horizon, constants)
        facts = self.facts()
        by_terminal = {f.terminal: pool([f], self.horizon, constants) for f in facts}
        return pool(facts, self.horizon, constants, by_terminal)


def _listed(entries: list, net) -> Optional[float]:
    """``net``'s value in a record's entries, read as ``dict(entries).get(net)``
    reads it: the last listing of a network wins."""
    for entry in reversed(entries):
        if entry[0] == net:
            return entry[1]
    return None


def _bumped_by(event, source, target) -> tuple[str, ...]:
    """The counters a transition on ``event`` from phase ``source`` to
    ``target`` bumps.  A fold asks once per distinct triple and keeps the
    answer, which stays exact for whatever values a read-back trace holds."""
    bumped = []
    if event == "link_lost":
        bumped.append("link_losses")
    if source == "initiation" and target in ("preparation", "execution"):
        bumped.append("prep_entries")
    if source == "preparation" and target == "initiation":
        bumped.append("rollbacks")
    if target == "execution" and source != "execution":
        bumped.append("executions")
    return tuple(bumped)


def _timeliness(record: dict, st: _TerminalStats, tolerance_ms: int) -> str:
    """Grade one completed handoff as timely, tardy, or premature."""
    if not record["accepted"] and "NotBest" in record["reject_reasons"]:
        return "premature"
    if st.below_span_before(record["t_trigger"], record["from_net"]) > tolerance_ms:
        return "tardy"
    return "timely"


def _tardy_tolerance(init) -> int:
    """The tardiness tolerance: the dwell period plus one tick."""
    if not init:
        return 0
    return init["controller"]["dwell_sp"] + init["tick_ms"]


def _trace_horizon(trace: Trace) -> int:
    for rec in trace.records:
        if rec.kind == INIT and rec.terminal is None:
            return rec.payload["duration_ms"]
    return max((r.t for r in trace.records), default=0)


def compute_metrics(
    trace: Trace,
    horizon_ms: Optional[int] = None,
    terminal: Optional[str] = None,
) -> MetricSnapshot:
    """Compute the snapshot for one terminal, or pooled over all of them
    with each terminal's in ``by_terminal``, in one walk over the trace.
    One terminal's folds only the run-level records and its own."""
    if horizon_ms is None:
        horizon_ms = _trace_horizon(trace)
    if terminal is not None:
        trace = Trace([r for r in trace.records if r.terminal is None or r.terminal == terminal])
    return MetricFolder(horizon_ms).feed_trace(trace).snapshot(terminal)


# A pooled snapshot's last columns: the transition counters, then the grades.
_TALLIES = dict.fromkeys((*_TerminalStats.COUNTS, "timely", "tardy", "premature"), 0)


def pool(
    facts: Sequence[_Facts], horizon_ms: int, constants: Mapping[str, float],
    by_terminal: Optional[dict] = None,
) -> MetricSnapshot:
    """The snapshot pooled over terminals' fold results (``MetricFolder.facts``)
    for a run of ``horizon_ms`` with pass-through ``constants`` (metric id ->
    value).  Given in the order one folder over all of them folds, the
    terminals pool to that folder's snapshot, float for float: each mean
    adds its terms with ``+`` from 0.0, the runs' in fold order and the
    handoffs' in their payloads' ``(t_eval_done, terminal)`` order, so it
    is the same float whatever an interpreter's ``sum()`` does."""
    records: list[tuple[dict, str]] = []  # (handoff record, timeliness grade)
    tallies = _TALLIES.copy()
    on_head = attached = n_runs = 0
    dl = di = 0.0
    for f in facts:
        records += f.graded
        for key in _TerminalStats.COUNTS:
            tallies[key] += f.counts[key]
        on_head += f.on_head
        attached += f.attached
        n_runs += len(f.runs)
        for length, deficit in f.runs:
            dl += length
            di += deficit
    records.sort(key=lambda pair: (pair[0]["t_eval_done"], pair[0]["terminal"]))

    accepted = imperative = improved = 0
    hol = dlat = exlat = evlat = impr = 0.0
    for r, grade in records:
        hol += r["t_eval_done"] - r["t_prep"]
        dlat += r["t_trigger"] - r["t_prep"]
        exlat += r["t_switch_done"] - r["t_trigger"]
        evlat += r["t_eval_done"] - r["t_switch_done"]
        if r["accepted"]:
            accepted += 1
            if r["uf_old"] != 0.0:
                improved += 1
                impr += r["uf_new"] / r["uf_old"]
        if r["reason"] == "imperative":
            imperative += 1
        tallies[grade] += 1

    completed = len(records)
    horizon_s = horizon_ms / 1000.0
    horizon_s = horizon_s if horizon_s > 0 else float("inf")  # no time: every rate is 0.0
    ihor = imperative / horizon_s
    ohor = (completed - imperative) / horizon_s
    exlat = exlat / completed if completed else None
    snapshot = tuple.__new__(MetricSnapshot, (
        completed, accepted, completed - accepted, ihor + ohor,
        accepted / completed if completed else None, ihor, ohor,
        tallies["tardy"] / horizon_s, tallies["premature"] / horizon_s,
        on_head / attached if attached else None, exlat,
        (tallies["executions"] + tallies["link_losses"]) / horizon_s,
        hol / completed if completed else None, dlat / completed if completed else None,
        exlat, evlat / completed if completed else None, impr / improved if improved else None,
        n_runs / horizon_s, dl / n_runs if n_runs else None, di / n_runs if n_runs else None,
        *map(constants.get, PASS_THROUGH), *tallies.values(),
    ))
    if by_terminal:
        snapshot.by_terminal = by_terminal
    return snapshot


# ``pool`` builds a snapshot in this order; import fails if the table's differs.
if _MetricValues._fields != (
    "completed", "accepted", "rejected", "hor", "shor", "ihor", "ohor", "thor", "phor", "dtib",
    "il_ms", "ir", "hol_ms", "dlat_ms", "exlat_ms", "evlat_ms", "impr", "dr", "dl_ms", "di",
    *PASS_THROUGH.values(), *_TALLIES,
):
    raise ImportError("metrics.pool builds a snapshot out of the METRICS table's order")


def _cells(values) -> list[str]:
    return ["" if v is None else str(v) for v in values]


def metric_cells(columns: Sequence[str]):
    """A function that renders a snapshot's cells for ``columns``, in that
    order; raises KeyError for a column the table does not publish."""
    at = [_FIELD_AT[column] for column in columns]
    return lambda snap: _cells([snap[i] for i in at])


def _csv_cell(label: str) -> str:
    """``label`` quoted as ``csv``'s minimal quoting does, when it must be."""
    if "," in label or '"' in label or "\r" in label or "\n" in label:
        return '"' + label.replace('"', '""') + '"'
    return label


def snapshots_to_csv(rows: Sequence[tuple[str, MetricSnapshot]]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for label, snap in rows:
        lines.append(",".join([_csv_cell(label)] + _cells(snap)))
    return "\n".join(lines) + "\n"


def snapshots_to_json(rows: Sequence[tuple[str, MetricSnapshot]]) -> str:
    doc = {label: dict(zip(snap._fields, _cells(snap))) for label, snap in rows}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
