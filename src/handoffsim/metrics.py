"""Run metrics folded from trace records.

A ``MetricFolder`` takes records one at a time, in trace order, through the
same ``append(t, terminal, kind, payload)`` a ``Trace`` has, so it can be
the engine's record sink and fold a run that keeps no trace;
``compute_metrics`` feeds one from a finished trace.  One fold gives the
pooled snapshot and, in its ``by_terminal``, each terminal's own: a
terminal's dwell times, degradation runs and timeliness grades are worked
out once and read by both.  ``MetricFolder.facts`` hands out those
per-terminal results, and ``pool`` turns the results of several folders,
each over some of a run's terminals, into the run's pooled snapshot.

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
from functools import cached_property
from operator import attrgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from .context import METRICS, PASS_THROUGH
from .controller import HandoffRecord  # re-exported record type
from .trace import ANL, HANDOFF, INIT, TRANSITION, Trace

__all__ = [
    "HandoffRecord",
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
_SOURCE_BY_ID = {m.id: m.source for m in METRICS if m.id is not None}


class _MetricValues(NamedTuple):
    completed: int
    accepted: int
    rejected: int
    hor: float
    shor: Optional[float]  # None until a handoff completes
    ihor: float
    ohor: float
    thor: float
    phor: float
    dtib: Optional[float]
    il: Optional[float]
    ir: float
    hol: Optional[float]
    dlat: Optional[float]
    exlat: Optional[float]
    evlat: Optional[float]
    impr: Optional[float]
    dr: float
    dl: Optional[float]
    di: Optional[float]
    # Pass-through constants: the rows of kind "constant" in METRICS.
    al: Optional[float]
    so: Optional[float]
    sso: Optional[float]
    dar: Optional[float]
    counts: dict


class MetricSnapshot(_MetricValues):
    """One run's metrics, pooled over some of its terminals.

    ``by_terminal`` holds a pooled snapshot's per-terminal snapshots, by
    terminal id, and is empty in a terminal's own.  It is not a metric, so
    it is an attribute outside the tuple, and equality and repr leave it
    out."""

    by_terminal: dict = {}  # shared by every snapshot that sets none; never mutated

    def get(self, metric_id: str) -> Optional[float]:
        """Metric lookup by id for goal checking; None when unavailable."""
        return getattr(self, _SOURCE_BY_ID[metric_id])


def _segments(points: list[tuple[int, object]], horizon: int):
    """Turn (t, value) breakpoints into [t0, t1) segments within the horizon."""
    out = []
    ends = [t for t, _ in points[1:]]
    ends.append(horizon)
    for (t0, value), t1 in zip(points, ends):
        if t0 < 0:
            t0 = 0
        if t1 > horizon:
            t1 = horizon
        if t1 > t0:
            out.append((t0, t1, value))
    return out


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

    Records arrive in trace order, which is time order.  A breakpoint is
    kept only where the attached network or the list head changes: a
    neighbouring segment with the same value would only extend the one
    before it, and every lookup reads the same value over the joined span.
    """

    # Every counter at zero; each terminal, and each pooled snapshot, starts
    # from a copy (a dict copy is faster to build than a dict display).
    COUNTS = dict.fromkeys(
        ("connects", "link_losses", "d2i", "prep_entries", "rollbacks", "executions"), 0
    )

    def __init__(self, terminal: str, horizon: int, tick: int, th_inf: float, moves: dict):
        self.terminal = terminal
        self.horizon = horizon
        self.tick = tick
        self.th_inf = th_inf
        self.moves = moves  # (event, from, to) -> the counters that transition bumps
        self.records: list[dict] = []
        self.attached: Optional[str] = None  # the value of the last attach breakpoint
        self.attach_points: list[tuple[int, Optional[str]]] = [(0, None)]
        self.head: Optional[str] = None  # the value of the last head breakpoint
        self.anl_points: list[tuple[int, Optional[str]]] = [(0, None)]
        self.anl_by_t: dict[int, dict[str, float]] = {}
        self.counts = self.COUNTS.copy()

    def feed(self, t: int, kind: str, payload: dict) -> None:
        if kind == ANL:
            entries = payload["entries"]
            head = entries[0][0] if entries else None
            if head != self.head:
                self.head = head
                self.anl_points.append((t, head))
            self.anl_by_t[t] = dict(entries)
        elif kind == TRANSITION:
            attached = payload["attached"]
            if attached != self.attached:
                self.attached = attached
                self.attach_points.append((t, attached))
            counts = self.counts
            for action in payload["actions"]:
                if "connect" in action:
                    counts["connects"] += 1
            move = payload["event"], payload["from"], payload["to"]
            try:
                bumped = self.moves[move]
            except KeyError:
                bumped = self.moves[move] = _bumped_by(*move)
            except TypeError:  # an unhashable value, in a hand-made trace
                bumped = _bumped_by(*move)
            for key in bumped:
                counts[key] += 1
        elif kind == HANDOFF:
            self.records.append(payload)

    @cached_property
    def attach_segs(self) -> list[tuple[int, int, Optional[str]]]:
        return _segments(self.attach_points, self.horizon)

    @cached_property
    def anl_times(self) -> list[int]:
        return sorted(self.anl_by_t)

    def dwell_times(self) -> tuple[int, int]:
        """(time attached to the list head, total time attached), in ms.

        Breakpoints arrive in trace order, so both segment lists are sorted
        and disjoint and one merge pass visits every overlapping pair.
        """
        attach_segs = self.attach_segs
        head_segs = _segments(self.anl_points, self.horizon)
        attached = sum(a1 - a0 for a0, a1, net in attach_segs if net is not None)
        on_head = 0
        i = j = 0
        while i < len(attach_segs) and j < len(head_segs):
            a0, a1, net = attach_segs[i]
            h0, h1, head = head_segs[j]
            if net is not None and head == net:
                lo = a0 if a0 > h0 else h0
                hi = a1 if a1 < h1 else h1
                if hi > lo:
                    on_head += hi - lo
            if a1 <= h1:
                i += 1
            else:
                j += 1
        return on_head, attached

    def uf_series(self) -> list[tuple[int, int, float]]:
        """Serving-network utility per tick segment while attached.

        The list times and the attach segments are both sorted, so one walk
        finds the segment, if any, that holds each time."""
        segs = self.attach_segs
        horizon, tick, anl_by_t = self.horizon, self.tick, self.anl_by_t
        out = []
        i, n = 0, len(segs)
        for t in self.anl_times:
            if t >= horizon:
                break
            while i < n and segs[i][1] <= t:
                i += 1
            if i == n:
                break
            a0, _, net = segs[i]
            if net is None or t < a0:
                continue
            value = anl_by_t[t].get(net)
            if value is None:
                continue
            end = t + tick
            out.append((t, horizon if end > horizon else end, value))
        return out

    def degradation_runs(self) -> list[tuple[int, float]]:
        """Maximal below-threshold runs as (duration ms, mean deficit)."""
        runs = []
        cur_len = 0
        cur_deficit = 0.0
        prev_end = None
        for t0, t1, value in self.uf_series():
            below = value < self.th_inf
            contiguous = prev_end == t0
            if below:
                if cur_len and not contiguous:
                    runs.append((cur_len, cur_deficit / cur_len))
                    cur_len, cur_deficit = 0, 0.0
                cur_len += t1 - t0
                cur_deficit += (self.th_inf - value) * (t1 - t0)
            elif cur_len:
                runs.append((cur_len, cur_deficit / cur_len))
                cur_len, cur_deficit = 0, 0.0
            prev_end = t1
        if cur_len:
            runs.append((cur_len, cur_deficit / cur_len))
        return runs

    def facts(self, tolerance_ms: int) -> _Facts:
        on_head, attached = self.dwell_times()
        graded = [(r, _timeliness(r, self, tolerance_ms)) for r in self.records]
        return _Facts(
            self.terminal, self.counts, on_head, attached, self.degradation_runs(), graded
        )

    def below_span_before(self, t_trigger: int, from_net: str) -> int:
        """Continuous ms the from-network utility sat below th_inf just
        before the trigger instant."""
        span = 0
        times = self.anl_times
        for k in range(bisect_right(times, t_trigger) - 1, -1, -1):
            t = times[k]
            value = self.anl_by_t[t].get(from_net)
            if value is None or value >= self.th_inf:
                break
            span = t_trigger - t
        return span


class MetricFolder:
    """Folds one run's records, as they arrive, into metric snapshots.

    A record sink: ``append`` takes each record in trace order.  The run's
    init record (terminal None) fixes the tick, the lower threshold, the
    tardiness tolerance, the pass-through constants and the terminals to
    fold first, in its order; a terminal it does not list is added at its
    first record.  Each terminal's records feed its own ``_TerminalStats``,
    and other run-level records are dropped.  Without
    an init record the folder takes a tick of 1 ms and no threshold.
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
        """Fold a finished trace, whose init record may sit anywhere in it."""
        for rec in trace.records:
            if rec.kind == INIT and rec.terminal is None:
                self._start(rec.payload)
                break
        # ``append`` inlined for a terminal already folded.  ``stats`` stays
        # the same dict: ``append`` restarts the folder only at a run-level
        # init record, and none is left once one has started it.
        stats, append = self.stats, self.append
        for t, terminal, kind, payload in trace.records:
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


def _records_of(trace: Trace, terminal: str) -> Trace:
    """The run-level records and one terminal's: all that its fold reads."""
    return Trace([r for r in trace.records if r.terminal is None or r.terminal == terminal])


def _bumped_by(event, source, target) -> tuple[str, ...]:
    """The counters a transition on ``event`` from phase ``source`` to
    ``target`` bumps.  A fold asks once per distinct triple and keeps the
    answer, which stays exact for whatever values a read-back trace holds."""
    bumped = []
    if event == "link_lost":
        bumped.append("link_losses")
    if source == "disconnection" and target == "initiation":
        bumped.append("d2i")
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


def _mean(values: list[float]) -> Optional[float]:
    if not values:
        return None
    return sum(values) / len(values)


def compute_metrics(
    trace: Trace,
    horizon_ms: Optional[int] = None,
    terminal: Optional[str] = None,
) -> MetricSnapshot:
    """Compute the snapshot for one terminal, or pooled over all of them
    with each terminal's in ``by_terminal``, in one walk over the trace."""
    if horizon_ms is None:
        horizon_ms = _trace_horizon(trace)
    if terminal is not None:
        trace = _records_of(trace, terminal)
    return MetricFolder(horizon_ms).feed_trace(trace).snapshot(terminal)


def pool(
    facts: Sequence[_Facts], horizon_ms: int, constants: Mapping[str, float],
    by_terminal: Optional[dict] = None,
) -> MetricSnapshot:
    """The snapshot pooled over terminals' fold results (``MetricFolder.facts``)
    for a run of ``horizon_ms`` with pass-through ``constants`` (metric id ->
    value).  Given in the order one folder over all of them folds, the
    terminals pool to that folder's snapshot, float for float."""
    records: list[tuple[dict, str]] = []  # (handoff record, timeliness grade)
    counts = _TerminalStats.COUNTS.copy()
    on_head = 0
    attached = 0
    runs: list[tuple[int, float]] = []
    for f in facts:
        records.extend(f.graded)
        for key in counts:
            counts[key] += f.counts[key]
        on_head += f.on_head
        attached += f.attached
        runs.extend(f.runs)
    records.sort(key=lambda pair: (pair[0]["t_eval_done"], pair[0]["terminal"]))

    completed = len(records)
    accepted = sum(1 for r, _ in records if r["accepted"])
    imperative = sum(1 for r, _ in records if r["reason"] == "imperative")
    opportunist = completed - imperative
    grades = [grade for _, grade in records]
    tardy = grades.count("tardy")
    premature = grades.count("premature")
    timely = grades.count("timely")

    horizon_s = horizon_ms / 1000.0
    def rate(count: int) -> float:
        return count / horizon_s if horizon_s > 0 else 0.0

    ihor = rate(imperative)
    ohor = rate(opportunist)
    impr_terms = [
        r["uf_new"] / r["uf_old"] for r, _ in records if r["accepted"] and r["uf_old"] != 0.0
    ]
    exlat = _mean([float(r["t_switch_done"] - r["t_trigger"]) for r, _ in records])

    counts.update(
        completed=completed,
        accepted=accepted,
        rejected=completed - accepted,
        imperative=imperative,
        opportunist=opportunist,
        timely=timely,
        tardy=tardy,
        premature=premature,
    )

    snapshot = MetricSnapshot(
        completed=completed,
        accepted=accepted,
        rejected=completed - accepted,
        hor=ihor + ohor,
        shor=(accepted / completed) if completed else None,
        ihor=ihor,
        ohor=ohor,
        thor=rate(tardy),
        phor=rate(premature),
        dtib=(on_head / attached) if attached else None,
        il=exlat,
        ir=rate(counts["executions"] + counts["link_losses"]),
        hol=_mean([float(r["t_eval_done"] - r["t_prep"]) for r, _ in records]),
        dlat=_mean([float(r["t_trigger"] - r["t_prep"]) for r, _ in records]),
        exlat=exlat,
        evlat=_mean([float(r["t_eval_done"] - r["t_switch_done"]) for r, _ in records]),
        impr=_mean(impr_terms),
        dr=rate(len(runs)),
        dl=_mean([float(length) for length, _ in runs]),
        di=_mean([deficit for _, deficit in runs]),
        counts=counts,
        **{attr: constants.get(mid) for mid, attr in PASS_THROUGH.items()},
    )
    if by_terminal:
        snapshot.by_terminal = by_terminal
    return snapshot


def metric_cells(columns: Sequence[str]):
    """A function that renders a snapshot's cells for ``columns``, in that
    order; raises KeyError for a column the table does not publish."""
    by_column = {m.column: m for m in METRICS}
    getters = []
    for column in columns:
        m = by_column[column]
        if m.kind == "count":
            getters.append(lambda snap, key=m.source: snap.counts.get(key, 0))
        else:
            getters.append(attrgetter(m.source))
    return lambda snap: ["" if v is None else str(v) for v in [get(snap) for get in getters]]


_all_cells = metric_cells(CSV_COLUMNS[1:])


def snapshots_to_csv(rows: Sequence[tuple[str, MetricSnapshot]]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for label, snap in rows:
        lines.append(",".join([label] + _all_cells(snap)))
    return "\n".join(lines) + "\n"


def snapshots_to_json(rows: Sequence[tuple[str, MetricSnapshot]]) -> str:
    doc = {label: dict(zip(CSV_COLUMNS[1:], _all_cells(snap))) for label, snap in rows}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
