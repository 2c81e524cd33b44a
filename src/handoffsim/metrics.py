"""Run metrics folded from trace records.

A ``MetricFolder`` takes records one at a time, in trace order, through the
same ``append(t, terminal, kind, payload)`` a ``Trace`` has, so it can be
the engine's record sink and fold a run that keeps no trace;
``compute_metrics`` feeds one from a finished trace.

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
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Optional, Sequence

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
    "classify_timeliness",
    "metric_cells",
    "snapshots_to_csv",
    "snapshots_to_json",
    "CSV_COLUMNS",
]


CSV_COLUMNS = ["terminal"] + [m.column for m in METRICS]
_SOURCE_BY_ID = {m.id: m.source for m in METRICS if m.id is not None}


@dataclass(frozen=True)
class MetricSnapshot:
    completed: int = 0
    accepted: int = 0
    rejected: int = 0
    hor: float = 0.0
    shor: Optional[float] = None  # None until a handoff completes
    ihor: float = 0.0
    ohor: float = 0.0
    thor: float = 0.0
    phor: float = 0.0
    dtib: Optional[float] = None
    il: Optional[float] = None
    ir: float = 0.0
    hol: Optional[float] = None
    dlat: Optional[float] = None
    exlat: Optional[float] = None
    evlat: Optional[float] = None
    impr: Optional[float] = None
    dr: float = 0.0
    dl: Optional[float] = None
    di: Optional[float] = None
    # Pass-through constants: the rows of kind "constant" in METRICS.
    al: Optional[float] = None
    so: Optional[float] = None
    sso: Optional[float] = None
    dar: Optional[float] = None
    counts: dict = field(default_factory=dict)

    def get(self, metric_id: str) -> Optional[float]:
        """Metric lookup by id for goal checking; None when unavailable."""
        return getattr(self, _SOURCE_BY_ID[metric_id])


def _segments(points: list[tuple[int, object]], horizon: int):
    """Turn (t, value) breakpoints into [t0, t1) segments within the horizon."""
    out = []
    for i, (t, value) in enumerate(points):
        t0 = max(t, 0)
        t1 = points[i + 1][0] if i + 1 < len(points) else horizon
        t1 = min(t1, horizon)
        if t1 > t0:
            out.append((t0, t1, value))
    return out


class _TerminalStats:
    """Single-pass accumulation of one terminal's trace records."""

    # Every counter at zero; each terminal, and each pooled snapshot, starts
    # from a copy (a dict copy is faster to build than a dict display).
    COUNTS = dict.fromkeys(
        ("connects", "link_losses", "d2i", "prep_entries", "rollbacks", "executions"), 0
    )

    def __init__(self, terminal: str, horizon: int, tick: int, th_inf: float):
        self.terminal = terminal
        self.horizon = horizon
        self.tick = tick
        self.th_inf = th_inf
        self.records: list[dict] = []
        self.attach_points: list[tuple[int, Optional[str]]] = [(0, None)]
        self.anl_points: list[tuple[int, Optional[str]]] = [(0, None)]
        self.anl_by_t: dict[int, dict[str, float]] = {}
        self.counts = self.COUNTS.copy()

    def feed(self, t: int, kind: str, payload: dict) -> None:
        if kind == HANDOFF:
            self.records.append(payload)
        elif kind == ANL:
            entries = payload["entries"]
            head = entries[0][0] if entries else None
            self.anl_points.append((t, head))
            self.anl_by_t[t] = {net: value for net, value in entries}
        elif kind == TRANSITION:
            p = payload
            self.attach_points.append((t, p["attached"]))
            for action in p["actions"]:
                if "connect" in action:
                    self.counts["connects"] += 1
            if p["event"] == "link_lost":
                self.counts["link_losses"] += 1
            if p["from"] == "disconnection" and p["to"] == "initiation":
                self.counts["d2i"] += 1
            if p["from"] == "initiation" and p["to"] in ("preparation", "execution"):
                self.counts["prep_entries"] += 1
            if p["from"] == "preparation" and p["to"] == "initiation":
                self.counts["rollbacks"] += 1
            if p["to"] == "execution" and p["from"] != "execution":
                self.counts["executions"] += 1

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
        """Serving-network utility per tick segment while attached."""
        attach_segs = self.attach_segs
        starts = [a0 for a0, _, _ in attach_segs]

        def attached_at(t: int) -> Optional[str]:
            i = bisect_right(starts, t) - 1
            if i >= 0 and t < attach_segs[i][1]:
                return attach_segs[i][2]
            return None

        out = []
        for t in self.anl_times:
            if t >= self.horizon:
                continue
            net = attached_at(t)
            if net is None:
                continue
            value = self.anl_by_t[t].get(net)
            if value is None:
                continue
            out.append((t, min(t + self.tick, self.horizon), value))
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
    """Folds one run's records, as they arrive, into a metric snapshot.

    A record sink: ``append`` takes each record in trace order.  The run's
    init record (terminal None) fixes the tick, the lower threshold, the
    default tardiness tolerance, the pass-through constants and, unless
    ``terminal`` names one, the terminals to fold; a terminal's records are
    fed to its ``_TerminalStats`` and every other record is dropped.
    ``snapshot`` pools the terminals folded.  Without an init record the
    folder takes a tick of 1 ms and no threshold.
    """

    def __init__(
        self,
        horizon_ms: int,
        terminal: Optional[str] = None,
        tardy_tolerance_ms: Optional[int] = None,
    ):
        self.horizon = horizon_ms
        self.terminal = terminal
        self.tolerance = tardy_tolerance_ms
        self.init: Optional[dict] = None
        self.stats: dict[str, _TerminalStats] = {}
        self._start(None)

    def _start(self, init: Optional[dict]) -> None:
        self.init = init
        tick = init["tick_ms"] if init else 1
        th_inf = init["controller"]["th_inf"] if init else float("-inf")
        terminals = init["terminals"] if init else []
        if self.terminal is not None:
            terminals = [self.terminal]
        self.stats = {tid: _TerminalStats(tid, self.horizon, tick, th_inf) for tid in terminals}

    def append(self, t: int, terminal: Optional[str], kind: str, payload: dict) -> None:
        st = self.stats.get(terminal)
        if st is not None:
            st.feed(t, kind, payload)
        elif terminal is None and kind == INIT and self.init is None:
            self._start(payload)

    def feed_trace(self, trace: Trace) -> "MetricFolder":
        """Fold a finished trace, whose init record may sit anywhere in it."""
        for rec in trace.records:
            if rec.kind == INIT and rec.terminal is None:
                self._start(rec.payload)
                break
        stats = self.stats
        for rec in trace.records:
            if rec.terminal in stats:
                stats[rec.terminal].feed(rec.t, rec.kind, rec.payload)
        return self

    def snapshot(self) -> MetricSnapshot:
        tolerance = self.tolerance
        if tolerance is None:
            tolerance = _default_tolerance(self.init)
        constants = self.init.get("metrics_constants", {}) if self.init else {}
        return _snapshot(list(self.stats.values()), self.horizon, tolerance, constants)


def classify_timeliness(
    record: dict, trace: Trace, tolerance_ms: Optional[int] = None
) -> str:
    """Grade one completed handoff as timely, tardy, or premature."""
    folder = MetricFolder(_trace_horizon(trace), record["terminal"]).feed_trace(trace)
    if tolerance_ms is None:
        tolerance_ms = _default_tolerance(folder.init)
    return _timeliness(record, folder.stats[record["terminal"]], tolerance_ms)


def _timeliness(record: dict, st: _TerminalStats, tolerance_ms: int) -> str:
    if not record["accepted"] and "NotBest" in record["reject_reasons"]:
        return "premature"
    if st.below_span_before(record["t_trigger"], record["from_net"]) > tolerance_ms:
        return "tardy"
    return "timely"


def _default_tolerance(init) -> int:
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
    tardy_tolerance_ms: Optional[int] = None,
) -> MetricSnapshot:
    """Compute the snapshot for one terminal, or pooled over all of them."""
    if horizon_ms is None:
        horizon_ms = _trace_horizon(trace)
    folder = MetricFolder(horizon_ms, terminal, tardy_tolerance_ms)
    return folder.feed_trace(trace).snapshot()


def _snapshot(
    stats: list[_TerminalStats], horizon_ms: int, tardy_tolerance_ms: int, constants: dict
) -> MetricSnapshot:
    records: list[tuple[dict, _TerminalStats]] = []
    counts = _TerminalStats.COUNTS.copy()
    on_head = 0
    attached = 0
    runs: list[tuple[int, float]] = []
    for st in stats:
        records.extend((r, st) for r in st.records)
        for key in counts:
            counts[key] += st.counts[key]
        oh, at = st.dwell_times()
        on_head += oh
        attached += at
        runs.extend(st.degradation_runs())
    records.sort(key=lambda pair: (pair[0]["t_eval_done"], pair[0]["terminal"]))

    completed = len(records)
    accepted = sum(1 for r, _ in records if r["accepted"])
    imperative = sum(1 for r, _ in records if r["reason"] == "imperative")
    opportunist = completed - imperative
    grades = [_timeliness(r, st, tardy_tolerance_ms) for r, st in records]
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

    return MetricSnapshot(
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
        il=_mean([float(r["t_switch_done"] - r["t_trigger"]) for r, _ in records]),
        ir=rate(counts["executions"] + counts["link_losses"]),
        hol=_mean([float(r["t_eval_done"] - r["t_prep"]) for r, _ in records]),
        dlat=_mean([float(r["t_trigger"] - r["t_prep"]) for r, _ in records]),
        exlat=_mean([float(r["t_switch_done"] - r["t_trigger"]) for r, _ in records]),
        evlat=_mean([float(r["t_eval_done"] - r["t_switch_done"]) for r, _ in records]),
        impr=_mean(impr_terms),
        dr=rate(len(runs)),
        dl=_mean([float(length) for length, _ in runs]),
        di=_mean([deficit for _, deficit in runs]),
        counts=counts,
        **{attr: constants.get(mid) for mid, attr in PASS_THROUGH.items()},
    )


def _cell(value) -> str:
    return "" if value is None else str(value)


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
    return lambda snap: [_cell(get(snap)) for get in getters]


_all_cells = metric_cells(CSV_COLUMNS[1:])


def snapshots_to_csv(rows: Sequence[tuple[str, MetricSnapshot]]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for label, snap in rows:
        lines.append(",".join([label] + _all_cells(snap)))
    return "\n".join(lines) + "\n"


def snapshots_to_json(rows: Sequence[tuple[str, MetricSnapshot]]) -> str:
    doc = {label: dict(zip(CSV_COLUMNS[1:], _all_cells(snap))) for label, snap in rows}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
