"""Metric snapshot computation from traces, plus CSV/JSON serialization."""

import functools
import json
import math
import operator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handoffsim.engine import run
from handoffsim.metrics import (
    CSV_COLUMNS,
    METRICS,
    PASS_THROUGH,
    MetricFolder,
    MetricSnapshot,
    _Facts,
    compute_metrics,
    pool,
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
        assert snap.connects == 2
        assert snap.prep_entries == 1
        assert snap.executions == 1
        assert snap.rollbacks == 0
        assert snap.link_losses == 0

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
        assert snap.il_ms == 100.0
        assert snap.hol_ms == 200.0
        assert snap.dlat_ms == 0.0
        assert snap.exlat_ms == 100.0
        assert snap.evlat_ms == 100.0

    def test_dwell_in_best_is_total(self, crossing_trace):
        assert compute_metrics(crossing_trace).dtib == 1.0

    def test_improvement_ratio(self, crossing_trace):
        # the target reports 10000 + 10 t; evaluation lands at t = 9300
        expected = (math.log10(103000.0) / 5.0)
        assert compute_metrics(crossing_trace).impr == pytest.approx(expected, rel=1e-12)

    def test_timeliness_grades(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        assert snap.timely == 1
        assert snap.tardy == 0
        assert snap.premature == 0

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
        assert snap.connects == sum(
            1 for p in transitions for a in p["actions"] if "connect" in a)
        assert snap.link_losses == sum(
            1 for p in transitions if p["event"] == "link_lost")
        assert snap.executions == sum(
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
        assert snap.completed == 0
        assert snap.shor is None

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
        assert snap.link_losses == 1
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
        assert snap.dl_ms == pytest.approx(200.0)  # two ticks long
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
        assert snap.dl_ms == pytest.approx(100.0)

    def test_no_dip_means_no_runs(self):
        tr = _base_trace(duration=1000, th_inf=2.0)
        for t in range(0, 1000, 100):
            _anl(tr, t, [("n1", 5.0)])
        _attach(tr, 0, "n1")
        snap = compute_metrics(tr)
        assert snap.dr == 0.0
        assert snap.dl_ms is None and snap.di is None


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
        snap = compute_metrics(tr)
        graded = [g for g in ("timely", "tardy", "premature") if getattr(snap, g)]
        assert [getattr(snap, g) for g in graded] == [1]
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
        assert snap.tardy == 1
        assert snap.thor == pytest.approx(1.0)


class TestRepeatedNetwork:
    """A hand-made ``anl`` record may list a network twice.  The fold reads
    it as ``dict(entries)`` does: the last listing counts."""

    @staticmethod
    def _trace(first, last):
        """n1 attached throughout and listed twice at every tick, as
        ``first`` then ``last`` from 200 ms through 500 ms, and a handoff
        triggered at 500 ms."""
        tr = _base_trace(duration=1000, th_inf=2.0)
        for t in range(0, 1000, 100):
            dip = 200 <= t <= 500
            _anl(tr, t, [("n1", first if dip else 5.0), ("n2", 10.0),
                         ("n1", last if dip else 5.0)])
            if t == 0:
                _attach(tr, 0, "n1")
            elif t == 500:
                tr.append(500, "mt1", HANDOFF,
                          _record(t_prep=500, t_trigger=500, t_switch=500, t_eval=500))
        return tr

    @staticmethod
    def _snapshots(tr):
        """The snapshot of the finished trace and of the same records
        appended one at a time."""
        folder = MetricFolder(1000)
        for rec in tr.records:
            folder.append(*rec)
        return compute_metrics(tr), folder.snapshot()

    def test_a_last_listing_below_the_threshold_counts(self):
        for snap in self._snapshots(self._trace(first=5.0, last=1.0)):
            # One run from 200 ms to 600 ms, 1.0 below the threshold.
            assert (snap.dr, snap.dl_ms, snap.di) == (1.0, 400.0, 1.0)
            # 300 ms below before the trigger, past the 100 ms tolerance.
            assert (snap.tardy, snap.timely) == (1, 0)

    def test_a_last_listing_above_the_threshold_counts(self):
        for snap in self._snapshots(self._trace(first=1.0, last=5.0)):
            assert (snap.dr, snap.dl_ms, snap.di) == (0.0, None, None)
            assert (snap.tardy, snap.timely) == (0, 1)


# --- reference fold -----------------------------------------------------------
# A plain fold that reads only the records: each terminal's attachment and
# list head are looked up at every millisecond of the horizon, each list time's
# map is rebuilt from its last record, and each counter is a predicate on each
# transition.  It shares no state or breakpoint list with the fold under test,
# so a breakpoint the fold drops or merges wrongly shows up here.

def _per_ms(points, horizon):
    """For each millisecond of the horizon, the value of the last (time,
    value) point at or before it, in record order; None before the first."""
    out, value, i = [], None, 0
    for ms in range(horizon):
        while i < len(points) and points[i][0] <= ms:
            value = points[i][1]
            i += 1
        out.append(value)
    return out


def ref_facts(trace, horizon):
    """Each terminal's fold results, in fold order, computed from the raw
    records; ``pool`` turns them into the snapshots."""
    init = next(r.payload for r in trace.records if r.kind == INIT and r.terminal is None)
    tick, th_inf = init["tick_ms"], init["controller"]["th_inf"]
    tolerance = init["controller"]["dwell_sp"] + tick
    order = list(init["terminals"])
    for r in trace.records:
        if r.terminal is not None and r.terminal not in order:
            order.append(r.terminal)
    facts = []
    for terminal in order:
        own = [r for r in trace.records if r.terminal == terminal]
        transitions = [r for r in own if r.kind == TRANSITION]
        lists = [r for r in own if r.kind == ANL]
        attach_points = [(r.t, r.payload["attached"]) for r in transitions]
        head_points = [(r.t, r.payload["entries"][0][0] if r.payload["entries"] else None)
                       for r in lists]

        attached_at = _per_ms(attach_points, horizon)
        heads = _per_ms(head_points, horizon)
        attached = sum(net is not None for net in attached_at)
        on_head = sum(net is not None and net == head for net, head in zip(attached_at, heads))

        maps = {}
        for r in lists:
            maps[r.t] = {}
            for net, value in r.payload["entries"]:
                maps[r.t][net] = value
        series = []
        for t in sorted(maps):
            net = attached_at[t] if 0 <= t < horizon else None
            if net is not None and net in maps[t]:
                series.append((t, min(t + tick, horizon), maps[t][net]))
        runs, length, deficit, prev_end = [], 0, 0.0, None
        for t0, t1, value in series:
            if length and (value >= th_inf or t0 != prev_end):
                runs.append((length, deficit / length))
                length, deficit = 0, 0.0
            if value < th_inf:
                length += t1 - t0
                deficit += (th_inf - value) * (t1 - t0)
            prev_end = t1
        if length:
            runs.append((length, deficit / length))

        def grade(record):
            if not record["accepted"] and "NotBest" in record["reject_reasons"]:
                return "premature"
            span = 0
            for t in sorted((t for t in maps if t <= record["t_trigger"]), reverse=True):
                value = maps[t].get(record["from_net"])
                if value is None or value >= th_inf:
                    break
                span = record["t_trigger"] - t
            return "tardy" if span > tolerance else "timely"

        moves = [(r.payload["event"], r.payload["from"], r.payload["to"]) for r in transitions]
        counts = {
            "connects": sum("connect" in a for r in transitions for a in r.payload["actions"]),
            "link_losses": sum(e == "link_lost" for e, _, _ in moves),
            "prep_entries": sum(a == "initiation" and b in ("preparation", "execution")
                                for _, a, b in moves),
            "rollbacks": sum(a == "preparation" and b == "initiation" for _, a, b in moves),
            "executions": sum(b == "execution" != a for _, a, b in moves),
        }
        graded = [(r.payload, grade(r.payload)) for r in own if r.kind == HANDOFF]
        facts.append(_Facts(terminal, counts, on_head, attached, runs, graded))
    return facts


_COUNTS = ("connects", "link_losses", "prep_entries", "rollbacks", "executions")


def _ref_mean(values):
    """The mean as 3.10 and 3.11's ``sum()`` adds: from 0, left to right."""
    return functools.reduce(operator.add, values, 0.0) / len(values) if values else None


def ref_pool(facts, horizon_ms, constants):
    """The snapshot pooled over ``facts``, one comprehension per quantity:
    records sorted by their payloads' ``(t_eval_done, terminal)``, the runs
    in fold order."""
    records, counts, on_head, attached, runs = [], dict.fromkeys(_COUNTS, 0), 0, 0, []
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
    grades = [grade for _, grade in records]
    horizon_s = horizon_ms / 1000.0

    def rate(count):
        return count / horizon_s if horizon_s > 0 else 0.0

    ihor, ohor = rate(imperative), rate(completed - imperative)
    exlat = _ref_mean([float(r["t_switch_done"] - r["t_trigger"]) for r, _ in records])
    return MetricSnapshot(
        completed=completed,
        accepted=accepted,
        rejected=completed - accepted,
        hor=ihor + ohor,
        shor=(accepted / completed) if completed else None,
        ihor=ihor,
        ohor=ohor,
        thor=rate(grades.count("tardy")),
        phor=rate(grades.count("premature")),
        dtib=(on_head / attached) if attached else None,
        il_ms=exlat,
        ir=rate(counts["executions"] + counts["link_losses"]),
        hol_ms=_ref_mean([float(r["t_eval_done"] - r["t_prep"]) for r, _ in records]),
        dlat_ms=_ref_mean([float(r["t_trigger"] - r["t_prep"]) for r, _ in records]),
        exlat_ms=exlat,
        evlat_ms=_ref_mean([float(r["t_eval_done"] - r["t_switch_done"]) for r, _ in records]),
        impr=_ref_mean([r["uf_new"] / r["uf_old"] for r, _ in records
                        if r["accepted"] and r["uf_old"] != 0.0]),
        dr=rate(len(runs)),
        dl_ms=_ref_mean([float(length) for length, _ in runs]),
        di=_ref_mean([deficit for _, deficit in runs]),
        timely=grades.count("timely"),
        tardy=grades.count("tardy"),
        premature=grades.count("premature"),
        **counts,
        **{column: constants.get(mid) for mid, column in PASS_THROUGH.items()},
    )


# Two terminals that the init record lists and one it does not.  Attachments
# and list heads come from few networks, so equal neighbours are common;
# phases and events include strings outside the five phases; list entries may
# repeat a network; times on the tick grid repeat often and reach from before
# the start to past the horizon.  A handoff payload may name another terminal
# than the one whose records hold it, and its ratio of utilities is one of
# several whose sums round differently by order.  Each record is decoded from
# one integer, which hypothesis draws far faster than nested strategies.
_PHASES = ["disconnection", "initiation", "preparation", "execution", "evaluation", "limbo"]
_EVENTS = ["anl_updated", "link_lost", "timer_eval"]
_ATTACHED = ["n1", "n2", None]
_NETS = ["n1", "n2", "n3"]
_VALUES = [0.5, 1.5, 2.0, 2.5, 4.0]
_ACTIONS = [[], [{"connect": "n1"}], [{"disconnect": "n2"}, {"connect": "n2"}]]


def _decode(code):
    """(t, terminal, kind, payload) of one record: each field takes the
    remainder of ``code`` by its number of choices, then ``code`` moves on."""
    def pick(choices):
        nonlocal code
        code, i = divmod(code, len(choices))
        return choices[i]

    t = pick(range(-100, 1300, 100))
    terminal = pick(["mt1", "mt1", "mt1", "mt2", "mt3"])
    kind = pick([TRANSITION, TRANSITION, ANL, ANL, HANDOFF])
    if kind == TRANSITION:
        payload = {"event": pick(_EVENTS), "from": pick(_PHASES), "to": pick(_PHASES),
                   "attached": pick(_ATTACHED), "actions": pick(_ACTIONS)}
    elif kind == ANL:
        payload = {"entries": [[pick(_NETS), pick(_VALUES)] for _ in range(pick(range(4)))]}
    else:
        back = pick([0, 50, 150, 400])
        payload = _record(
            terminal=pick([terminal, terminal, "mt1", "mt2"]), from_net=pick(_NETS),
            reason=pick(["imperative", "opportunist"]),
            t_prep=t - back - 50, t_trigger=t - back, t_switch=t - back // 2, t_eval=t,
            uf_old=pick([0.0, 1.0, 2.5]), uf_new=pick([3.0, 0.1, 0.7]),
            accepted=pick([True, False]),
            reject=pick([(), ("NotBest",), ("IL",)]),
        )
    return t, terminal, kind, payload


def _trace_of(codes, horizon):
    tr = _base_trace(duration=horizon, terminals=("mt1", "mt2"), constants={"AL": 0.5})
    for t, terminal, kind, payload in sorted(map(_decode, codes), key=lambda r: r[0]):
        tr.append(t, terminal, kind, payload)
    return tr


class TestFoldMatchesReference:
    @settings(max_examples=300)
    @given(
        codes=st.lists(st.integers(min_value=0, max_value=2**24), min_size=8, max_size=40),
        horizon=st.integers(min_value=0, max_value=1100),
    )
    def test_fold_matches_a_reference_over_the_raw_records(self, codes, horizon):
        # A row holds the handoffs its terminal's records hold, whatever
        # terminal a payload names; the payload's name orders the means' terms.
        trace = _trace_of(codes, horizon)
        expected = ref_facts(trace, horizon)
        constants = {"AL": 0.5}
        want = ref_pool(expected, horizon, constants)

        online = MetricFolder(horizon)
        for rec in trace.records:
            online.append(*rec)
        assert online.facts() == expected
        assert repr(online.snapshot()) == repr(want)  # floats keep their bits

        pooled = compute_metrics(trace)
        assert repr(pooled) == repr(want)
        assert list(pooled.by_terminal) == [f.terminal for f in expected]
        for f in expected:
            alone = repr(ref_pool([f], horizon, constants))
            assert repr(compute_metrics(trace, horizon, f.terminal)) == alone, f.terminal
            assert repr(pooled.by_terminal[f.terminal]) == alone, f.terminal

    def test_a_phase_that_is_no_str_is_counted_like_any_other_value(self):
        # A hand-made trace may carry a list where a phase belongs; it matches
        # no phase, and the fold still counts the transition's other side.
        tr = _base_trace()
        tr.append(100, "mt1", TRANSITION, {
            "event": "link_lost", "from": ["preparation"], "to": "execution",
            "attached": "n1", "actions": [],
        })
        snap = compute_metrics(tr)
        assert (snap.executions, snap.link_losses, snap.prep_entries) == (1, 1, 0)


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
        assert snap.dlat_ms == pytest.approx(150.0)   # (100 + 200) / 2
        assert snap.exlat_ms == pytest.approx(75.0)   # (100 + 50) / 2
        assert snap.evlat_ms == pytest.approx(75.0)   # (100 + 50) / 2
        assert snap.hol_ms == pytest.approx(300.0)    # (300 + 300) / 2
        assert snap.il_ms == snap.exlat_ms

    def test_empty_trace_rates_are_zero(self):
        tr = _base_trace(duration=0)
        snap = compute_metrics(tr)
        assert snap.hor == 0.0
        assert snap.ir == 0.0
        assert snap.dr == 0.0


class TestSummationOrder:
    """Each mean adds its terms with ``+`` from 0.0, left to right: the
    handoffs' in their payloads' ``(t_eval_done, terminal)`` order, the
    runs' in fold order.  So did ``sum()`` before Python 3.12 made it
    compensated, and every interpreter writes the same bytes."""

    STEPS = [0.1, 0.7, 1e16, 0.2, 1.0, -1e16, 0.3, 0.6]

    def test_each_mean_adds_its_terms_left_to_right(self):
        steps = self.STEPS
        held = {"mt1": [], "mt2": []}
        for i, step in enumerate(steps):
            # Pairs of handoffs end at one time, latest pair first, each held
            # by one terminal and naming the other: the name orders a pair.
            t_eval = 10.0 * (4 - i // 2)
            t_switch = t_eval - step
            t_trigger = t_switch - steps[(i + 3) % 8]
            holder, named = ("mt2", "mt1") if i % 2 else ("mt1", "mt2")
            held[holder].append((_record(
                terminal=named, t_prep=t_trigger - steps[(i + 5) % 8], t_trigger=t_trigger,
                t_switch=t_switch, t_eval=t_eval, uf_old=1.0, uf_new=steps[(i + 1) % 8],
            ), "timely"))
        counts = dict.fromkeys(_COUNTS, 0)
        facts = [_Facts("mt1", counts, 0, 0, [(100, d) for d in steps[:5]], held["mt1"]),
                 _Facts("mt2", counts, 0, 0, [(200, d) for d in steps[5:]], held["mt2"])]
        snap = pool(facts, 1000, {})

        records = sorted((r for f in facts for r, _ in f.graded),
                         key=lambda r: (r["t_eval_done"], r["terminal"]))
        terms = {
            "hol_ms": [r["t_eval_done"] - r["t_prep"] for r in records],
            "dlat_ms": [r["t_trigger"] - r["t_prep"] for r in records],
            "exlat_ms": [r["t_switch_done"] - r["t_trigger"] for r in records],
            "evlat_ms": [r["t_eval_done"] - r["t_switch_done"] for r in records],
            "impr": [r["uf_new"] / r["uf_old"] for r in records],
            "di": steps,
        }
        for column, values in terms.items():
            left_to_right = functools.reduce(operator.add, values, 0.0)
            assert left_to_right != math.fsum(values), column  # the order shows
            assert repr(getattr(snap, column)) == repr(left_to_right / len(values)), column
        assert snap.il_ms == snap.exlat_ms
        assert snap.dl_ms == 137.5  # (5 * 100 + 3 * 200) / 8: whole ms add exactly


class TestSnapshotAccess:
    def test_every_row_reads_a_value_the_fold_produces(self):
        attrs = set(MetricSnapshot._fields)
        for m in METRICS:
            assert m.column in attrs, m
        assert set(PASS_THROUGH) == {"AL", "SO", "SSO", "DAR"}

    def test_the_snapshot_fields_are_the_published_columns_in_order(self):
        assert MetricSnapshot._fields == tuple(CSV_COLUMNS[1:])

    def test_a_row_is_the_snapshots_own_values_in_order(self, crossing_trace):
        snap = compute_metrics(crossing_trace)
        cells = ["" if v is None else str(v) for v in snap]
        assert snapshots_to_csv([("mt1", snap)]).split("\n")[1].split(",") == ["mt1"] + cells
        doc = json.loads(snapshots_to_json([("mt1", snap)]))
        assert doc == {"mt1": dict(zip(CSV_COLUMNS[1:], cells))}


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


class TestRecordOrder:
    """A finished trace folds in time order: records at one time keep their
    order, and records at different times may come in any order."""

    @settings(max_examples=150)
    @given(
        codes=st.lists(st.integers(min_value=0, max_value=2**24), min_size=8, max_size=40),
        horizon=st.integers(min_value=0, max_value=1100),
        rng=st.randoms(use_true_random=False),
    )
    def test_reordering_across_times_keeps_the_snapshot(self, codes, horizon, rng):
        trace = _trace_of(codes, horizon)
        by_t = {}
        for rec in trace.records:
            by_t.setdefault(rec.t, []).append(rec)
        # Deal each time's records out in their order, the times interleaved.
        slots = [rec.t for rec in trace.records]
        rng.shuffle(slots)
        queues = {t: iter(recs) for t, recs in by_t.items()}
        shuffled = Trace([next(queues[t]) for t in slots])

        want = ref_pool(ref_facts(trace, horizon), horizon, {"AL": 0.5})
        got = compute_metrics(shuffled)
        assert repr(got) == repr(compute_metrics(trace)) == repr(want)
        assert got.by_terminal == compute_metrics(trace).by_terminal

    def test_transitions_given_out_of_time_order(self):
        # Attached to n2 from 200 ms, then to the list head n1 from 500 ms.
        tr = _base_trace(duration=1000)
        for t in range(0, 1000, 100):
            _anl(tr, t, [("n1", 5.0), ("n2", 3.0)])
        for t, net in ((500, "n1"), (600, "n1"), (200, "n2")):
            _attach(tr, t, net)
        in_order = Trace(sorted(tr.records, key=lambda r: r.t))
        snap = compute_metrics(tr)
        assert repr(snap) == repr(compute_metrics(in_order))
        assert snap.dtib == pytest.approx(500 / 800)
