"""Metric snapshot computation from traces, plus CSV/JSON serialization."""

import json
import math
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from handoffsim.context import default_feature_specs
from handoffsim.engine import run
from handoffsim.metrics import (
    CSV_COLUMNS,
    METRICS,
    PASS_THROUGH,
    MetricSnapshot,
    _segments,
    _TerminalStats,
    compute_metrics,
    snapshots_to_csv,
    snapshots_to_json,
)
from handoffsim.scenario import load_scenario
from handoffsim.trace import ANL, HANDOFF, INIT, TRANSITION, Trace

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def crossing_trace():
    return run(load_scenario(SCENARIO_DIR / "crossing.json"))


def _record(terminal="mt1", from_net="n1", to_net="n2", reason="opportunist",
            t_prep=100, t_trigger=100, t_switch=200, t_eval=300,
            uf_old=2.0, uf_new=3.0, accepted=True, reject=()):
    return {
        "terminal": terminal,
        "from_net": from_net,
        "to_net": to_net,
        "reason": reason,
        "ho_type": "net_horizontal",
        "method": "MIP",
        "t_prep": t_prep,
        "t_trigger": t_trigger,
        "t_switch_done": t_switch,
        "t_eval_done": t_eval,
        "dvho_ms": t_eval - t_trigger,
        "uf_old": uf_old,
        "uf_new": uf_new,
        "accepted": accepted,
        "reject_reasons": list(reject),
    }


def _base_trace(duration=1000, tick=100, th_inf=2.0, dwell_sp=0,
                terminals=("mt1",), constants=None):
    tr = Trace()
    tr.append(0, None, INIT, {
        "seed": 0,
        "duration_ms": duration,
        "tick_ms": tick,
        "controller": {
            "hysteresis_delta": 0.0, "th_sup": 100.0, "th_inf": th_inf,
            "dwell_sp": dwell_sp, "prep_latency": 0, "exec_latency": 0,
            "eval_latency": 0, "strategy": "reactive",
        },
        "stations": [],
        "terminals": list(terminals),
        "metrics_constants": dict(constants or {}),
    })
    for tid in terminals:
        tr.append(0, tid, INIT, {"phase": "disconnection"})
    return tr


def _attach(tr, t, net, terminal="mt1"):
    tr.append(t, terminal, TRANSITION, {
        "event": "anl_updated", "from": "disconnection", "to": "initiation",
        "attached": net, "actions": [{"connect": net}],
    })


def _anl(tr, t, entries, terminal="mt1"):
    tr.append(t, terminal, ANL, {"entries": [list(e) for e in entries]})


class TestCrossingEndToEnd:
    """Frozen expectations for the bundled two-network crossing scenario."""

    def test_counts(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        assert snap.completed == 1
        assert snap.accepted == 1
        assert snap.rejected == 0
        assert snap.counts["connects"] == 2
        assert snap.counts["d2i"] == 1
        assert snap.counts["prep_entries"] == 1
        assert snap.counts["executions"] == 1
        assert snap.counts["rollbacks"] == 0
        assert snap.counts["link_losses"] == 0

    def test_rates(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        assert snap.hor == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert snap.ihor == 0.0
        assert snap.ohor == snap.hor
        assert snap.hor == snap.ihor + snap.ohor
        assert snap.ir == snap.hor  # one execution, no losses
        assert snap.shor == 1.0

    def test_latencies(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        assert snap.il == 100.0
        assert snap.hol == 200.0
        assert snap.dlat == 0.0
        assert snap.exlat == 100.0
        assert snap.evlat == 100.0

    def test_dwell_in_best_is_total(self, crossing_trace):
        assert compute_metrics(crossing_trace).dtib == 1.0

    def test_improvement_ratio(self, crossing_trace):
        # the target reports 10000 + 10 t; evaluation lands at t = 9300
        expected = (math.log10(103000.0) / 5.0)
        assert compute_metrics(crossing_trace).impr == pytest.approx(expected, rel=1e-12)

    def test_timeliness_grades(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        assert snap.counts["timely"] == 1
        assert snap.counts["tardy"] == 0
        assert snap.counts["premature"] == 0

    def test_constants_passed_through(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        assert snap.al == 1.0
        assert snap.dar == 1.0
        assert snap.so is None and snap.sso is None

    def test_single_terminal_equals_pool(self, crossing_trace):
        pooled = compute_metrics(crossing_trace)
        only = compute_metrics(crossing_trace, terminal="mt1")
        assert only == pooled

    def test_recount_against_independent_walker(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        records = [r.payload for r in crossing_trace.records if r.kind == HANDOFF]
        assert snap.completed == len(records)
        assert snap.accepted == sum(1 for r in records if r["accepted"])
        transitions = [r.payload for r in crossing_trace.records if r.kind == TRANSITION]
        assert snap.counts["connects"] == sum(
            1 for p in transitions for a in p["actions"] if "connect" in a)
        assert snap.counts["link_losses"] == sum(
            1 for p in transitions if p["event"] == "link_lost")
        assert snap.counts["executions"] == sum(
            1 for p in transitions
            if p["to"] == "execution" and p["from"] != "execution")

    def test_horizon_override_scales_rates(self, crossing_trace):
        snap12 = compute_metrics(crossing_trace, horizon_ms=12000)
        snap24 = compute_metrics(crossing_trace, horizon_ms=24000)
        assert snap24.hor == pytest.approx(snap12.hor / 2.0, rel=1e-12)


class TestDwellInBest:
    def test_half_time_on_head(self):
        tr = _base_trace(duration=1000)
        for t in range(0, 1000, 100):
            if t < 500:
                _anl(tr, t, [("n1", 9.0), ("n2", 5.0)])
            else:
                _anl(tr, t, [("n2", 9.0), ("n1", 5.0)])
        _attach(tr, 0, "n1")
        assert compute_metrics(tr).dtib == pytest.approx(0.5)

    def test_never_attached_leaves_it_undefined(self):
        tr = _base_trace(duration=1000)
        for t in range(0, 1000, 100):
            _anl(tr, t, [])
        snap = compute_metrics(tr)
        assert snap.dtib is None
        assert snap.get("DTIB") is None
        assert snap.completed == 0
        assert snap.shor is None
        assert snap.get("SHOR") is None

    def test_detached_interval_not_counted(self):
        tr = _base_trace(duration=1000)
        for t in range(0, 1000, 100):
            _anl(tr, t, [("n1", 9.0)])
        _attach(tr, 0, "n1")
        tr.append(500, "mt1", TRANSITION, {
            "event": "link_lost", "from": "initiation", "to": "disconnection",
            "attached": None, "actions": [],
        })
        snap = compute_metrics(tr)
        assert snap.dtib == pytest.approx(1.0)  # all attached time was on head
        assert snap.counts["link_losses"] == 1
        assert snap.ir == pytest.approx(1.0)  # one loss over one second


class TestDegradation:
    def test_single_run_duration_and_deficit(self):
        tr = _base_trace(duration=1000, th_inf=2.0)
        values = [5, 5, 1.0, 1.5, 5, 5, 5, 5, 5, 5]
        for i, v in enumerate(values):
            _anl(tr, i * 100, [("n1", float(v))])
        _attach(tr, 0, "n1")
        snap = compute_metrics(tr)
        assert snap.dr == pytest.approx(1.0)    # one run in one second
        assert snap.dl == pytest.approx(200.0)  # two ticks long
        # deficits 1.0 and 0.5 over equal spans average to 0.75
        assert snap.di == pytest.approx(0.75)

    def test_separate_dips_are_separate_runs(self):
        tr = _base_trace(duration=1000, th_inf=2.0)
        values = [5, 5, 1.0, 5, 5, 1.0, 5, 5, 5, 5]
        for i, v in enumerate(values):
            _anl(tr, i * 100, [("n1", float(v))])
        _attach(tr, 0, "n1")
        snap = compute_metrics(tr)
        assert snap.dr == pytest.approx(2.0)
        assert snap.dl == pytest.approx(100.0)

    def test_no_dip_means_no_runs(self):
        tr = _base_trace(duration=1000, th_inf=2.0)
        for t in range(0, 1000, 100):
            _anl(tr, t, [("n1", 5.0)])
        _attach(tr, 0, "n1")
        snap = compute_metrics(tr)
        assert snap.dr == 0.0
        assert snap.dl is None and snap.di is None


class TestTimeliness:
    """Each grade read from the pooled counts of a one-handoff trace."""

    def _trace_with_history(self, values, t_trigger, dwell_sp=0, **record):
        tr = _base_trace(duration=1000, th_inf=2.0, dwell_sp=dwell_sp)
        for i, v in enumerate(values):
            _anl(tr, i * 100, [("n1", float(v)), ("n2", 10.0)])
        _attach(tr, 0, "n1")
        rec = _record(t_prep=t_trigger, t_trigger=t_trigger,
                      t_switch=t_trigger, t_eval=t_trigger, **record)
        tr.append(t_trigger, "mt1", HANDOFF, rec)
        return tr

    @staticmethod
    def _grade(tr):
        counts = compute_metrics(tr).counts
        graded = [g for g in ("timely", "tardy", "premature") if counts[g]]
        assert [counts[g] for g in graded] == [1]
        return graded[0]

    def test_premature_overrides_history(self):
        # The history alone would make it tardy.
        values = [5, 5, 1, 1, 1, 1, 5, 5, 5, 5]
        tr = self._trace_with_history(values, 500, accepted=False, reject=("NotBest",))
        assert self._grade(tr) == "premature"

    def test_rejection_without_notbest_is_not_premature(self):
        tr = self._trace_with_history([5] * 10, 500, accepted=False, reject=("IL",))
        assert self._grade(tr) == "timely"

    def test_long_degradation_before_trigger_is_tardy(self):
        # below threshold from t=200 through the t=500 trigger: span 300 ms
        values = [5, 5, 1, 1, 1, 1, 5, 5, 5, 5]
        tr = self._trace_with_history(values, 500)
        assert self._grade(tr) == "tardy"

    def test_short_dip_within_tolerance_is_timely(self):
        # the tolerance is dwell_sp + one tick = 100 ms
        values = [5, 5, 5, 5, 1, 1, 5, 5, 5, 5]
        tr = self._trace_with_history(values, 500)
        assert self._grade(tr) == "timely"

    def test_dwell_period_widens_default_tolerance(self):
        # A 300 ms span is within dwell_sp + one tick exactly when dwell_sp
        # is at least 200 ms.
        values = [5, 5, 1, 1, 1, 1, 5, 5, 5, 5]
        for dwell_sp, grade in ((400, "timely"), (200, "timely"), (199, "tardy")):
            tr = self._trace_with_history(values, 500, dwell_sp=dwell_sp)
            assert self._grade(tr) == grade, dwell_sp

    def test_pooled_counts_match_grades(self):
        values = [5, 5, 1, 1, 1, 1, 5, 5, 5, 5]
        tr = self._trace_with_history(values, 500)
        snap = compute_metrics(tr)
        assert snap.counts["tardy"] == 1
        assert snap.thor == pytest.approx(1.0)


# --- reference fold -----------------------------------------------------------
# Direct, quadratic forms of the per-terminal lookups; the fold's merge and
# bisection must agree with them on every breakpoint list.

def ref_dwell_times(st_):
    attach_segs = _segments(st_.attach_points, st_.horizon)
    head_segs = _segments(st_.anl_points, st_.horizon)
    attached = 0
    on_head = 0
    for a0, a1, net in attach_segs:
        if net is None:
            continue
        attached += a1 - a0
        for h0, h1, head in head_segs:
            lo = max(a0, h0)
            hi = min(a1, h1)
            if hi > lo and head == net:
                on_head += hi - lo
    return on_head, attached


def ref_uf_series(st_):
    attach_segs = _segments(st_.attach_points, st_.horizon)

    def attached_at(t):
        for a0, a1, value in attach_segs:
            if a0 <= t < a1:
                return value
        return None

    out = []
    for t in sorted(st_.anl_by_t):
        if t >= st_.horizon:
            continue
        net = attached_at(t)
        if net is None:
            continue
        value = st_.anl_by_t[t].get(net)
        if value is None:
            continue
        out.append((t, min(t + st_.tick, st_.horizon), value))
    return out


def ref_below_span_before(st_, t_trigger, from_net):
    span = 0
    ticks = [t for t in sorted(st_.anl_by_t) if t <= t_trigger]
    for t in reversed(ticks):
        value = st_.anl_by_t[t].get(from_net)
        if value is None or value >= st_.th_inf:
            break
        span = t_trigger - t
    return span


# Attachments come from n1, n2 or None; list heads also include n3 and n4,
# which are never attached. Times on a coarse grid repeat often and reach
# past the horizon.
_ATTACHED = st.sampled_from(["n1", "n2", None])
_LISTED = st.sampled_from(["n1", "n2", "n3", "n4"])
_TIME = st.integers(min_value=0, max_value=24).map(lambda k: 50 * k)
_EVENT = st.one_of(
    st.tuples(st.just(TRANSITION), _ATTACHED),
    st.tuples(
        st.just(ANL),
        st.lists(
            st.tuples(_LISTED, st.sampled_from([0.5, 1.5, 2.0, 2.5, 4.0])),
            max_size=3,
            unique_by=lambda e: e[0],
        ),
    ),
)


def _fed_stats(events, horizon):
    stats = _TerminalStats("mt1", horizon, 100, 2.0)
    tr = _base_trace(duration=horizon)
    for t, (kind, value) in sorted(events, key=lambda e: e[0]):
        if kind == TRANSITION:
            tr.append(t, "mt1", TRANSITION, {
                "event": "anl_updated", "from": "initiation", "to": "initiation",
                "attached": value, "actions": [],
            })
        else:
            _anl(tr, t, value)
    for rec in tr.records:
        if rec.terminal == "mt1":
            stats.feed(rec.t, rec.kind, rec.payload)
    return stats


class TestFoldMatchesReference:
    @given(
        events=st.lists(st.tuples(_TIME, _EVENT), max_size=30),
        horizon=st.integers(min_value=0, max_value=1100),
    )
    def test_lookups_match_reference(self, events, horizon):
        stats = _fed_stats(events, horizon)
        assert stats.dwell_times() == ref_dwell_times(stats)
        assert stats.uf_series() == ref_uf_series(stats)
        for t_trigger in range(0, 1300, 25):
            for net in ("n1", "n2", "n3", "n4"):
                assert stats.below_span_before(t_trigger, net) == (
                    ref_below_span_before(stats, t_trigger, net)
                )


class TestRatesAndMeans:
    def test_reason_split_sums_to_total(self):
        tr = _base_trace(duration=2000)
        _anl(tr, 0, [("n1", 5.0)])
        _attach(tr, 0, "n1")
        tr.append(300, "mt1", HANDOFF, _record(reason="imperative", t_eval=300))
        tr.append(700, "mt1", HANDOFF, _record(reason="opportunist", t_eval=700))
        tr.append(900, "mt1", HANDOFF, _record(reason="opportunist", t_eval=900))
        snap = compute_metrics(tr)
        assert snap.completed == 3
        assert snap.ihor == pytest.approx(0.5)
        assert snap.ohor == pytest.approx(1.0)
        assert snap.hor == snap.ihor + snap.ohor

    def test_improvement_skips_rejected_and_zero_base(self):
        tr = _base_trace(duration=1000)
        _anl(tr, 0, [("n1", 5.0)])
        _attach(tr, 0, "n1")
        tr.append(100, "mt1", HANDOFF,
                  _record(uf_old=2.0, uf_new=3.0, t_eval=100))
        tr.append(200, "mt1", HANDOFF,
                  _record(uf_old=1.0, uf_new=9.0, accepted=False,
                          reject=("IL",), t_eval=200))
        tr.append(300, "mt1", HANDOFF,
                  _record(uf_old=0.0, uf_new=9.0, t_eval=300))
        assert compute_metrics(tr).impr == pytest.approx(1.5)

    def test_latency_means(self):
        tr = _base_trace(duration=1000)
        _anl(tr, 0, [("n1", 5.0)])
        _attach(tr, 0, "n1")
        tr.append(400, "mt1", HANDOFF,
                  _record(t_prep=100, t_trigger=200, t_switch=300, t_eval=400))
        tr.append(800, "mt1", HANDOFF,
                  _record(t_prep=500, t_trigger=700, t_switch=750, t_eval=800))
        snap = compute_metrics(tr)
        assert snap.dlat == pytest.approx(150.0)   # (100 + 200) / 2
        assert snap.exlat == pytest.approx(75.0)   # (100 + 50) / 2
        assert snap.evlat == pytest.approx(75.0)   # (100 + 50) / 2
        assert snap.hol == pytest.approx(300.0)    # (300 + 300) / 2
        assert snap.il == snap.exlat

    def test_empty_trace_rates_are_zero(self):
        tr = _base_trace(duration=0)
        snap = compute_metrics(tr)
        assert snap.hor == 0.0
        assert snap.ir == 0.0
        assert snap.dr == 0.0


class TestSnapshotAccess:
    def test_get_covers_all_published_ids(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        ids = [m.id for m in METRICS if m.id is not None]
        assert len(ids) == len(set(ids))
        for m in METRICS:
            if m.id is not None:
                assert snap.get(m.id) == getattr(snap, m.source), m.id

    def test_every_row_reads_a_value_the_fold_produces(self, crossing_trace):
        # A misspelt counter key would otherwise publish a silent 0.
        snap = compute_metrics(crossing_trace)
        attrs = {f.name for f in fields(MetricSnapshot)}
        for m in METRICS:
            if m.kind == "count":
                assert m.source in snap.counts, m
            else:
                assert m.source in attrs, m
        assert set(PASS_THROUGH) == {"AL", "SO", "SSO", "DAR"}

    def test_every_feature_goal_names_a_published_id(self):
        ids = {m.id for m in METRICS}
        for spec in default_feature_specs():
            for goal in spec.goals:
                assert goal.metric_id in ids, (spec.name, goal.metric_id)

    def test_get_rejects_unknown_id(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        with pytest.raises(KeyError):
            snap.get("XYZ")


class TestSerialization:
    def _rows(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        return [("mt1", snap), ("all", snap)]

    def test_csv_header_and_shape(self, crossing_trace):
        text = snapshots_to_csv(self._rows(crossing_trace))
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_COLUMNS)

    def test_csv_cells(self, crossing_trace):
        text = snapshots_to_csv(self._rows(crossing_trace))
        row = dict(zip(CSV_COLUMNS, text.strip().split("\n")[1].split(",")))
        assert row["terminal"] == "mt1"
        assert row["completed"] == "1"
        assert row["shor"] == "1.0"
        assert row["dtib"] == "1.0"
        assert row["so"] == ""      # absent constant serializes empty

    def test_csv_empty_cells_for_undefined_means(self):
        tr = _base_trace(duration=1000)
        for t in range(0, 1000, 100):
            _anl(tr, t, [])
        text = snapshots_to_csv([("mt1", compute_metrics(tr))])
        row = dict(zip(CSV_COLUMNS, text.strip().split("\n")[1].split(",")))
        assert row["shor"] == ""
        assert row["dtib"] == ""
        assert row["il_ms"] == ""
        assert row["dl_ms"] == ""

    def test_json_shape(self, crossing_trace):
        doc = json.loads(snapshots_to_json(self._rows(crossing_trace)))
        assert set(doc) == {"mt1", "all"}
        assert "terminal" not in doc["mt1"]
        assert doc["mt1"]["completed"] == "1"
        assert list(doc["mt1"]) == sorted(m.column for m in METRICS)
        assert CSV_COLUMNS == ["terminal"] + [m.column for m in METRICS]
