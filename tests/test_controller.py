"""Trigger predicates, policy lookup, evaluation, and the phase machine."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from handoffsim import engine
from handoffsim.controller import (
    AnlUpdated,
    Connect,
    ControllerState,
    CurrentLinkLost,
    Phase,
    PrepData,
    Reason,
    RecordHandoff,
    ScheduleTimer,
    StartSwitch,
    SwitchComplete,
    TimerFired,
    consistently_better,
    crossing_predicted,
    evaluate,
    handoff_reason,
    initial_state,
    latest_sample,
    step,
    sufficiently_better,
)
from handoffsim.context import GoalDirection, GoalSpec
from handoffsim.desirability import rank
from handoffsim.errors import (
    IllegalEventError,
    PolicyGapError,
)
from handoffsim.scenario import ControllerConfig, PolicyTable, Strategy
from handoffsim.taxonomy import Attachment, Layer, StationTypes, classify
from handoffsim.topology import BaseStation
from handoffsim.trace import ANL, TraceRecord


class TestSufficientlyBetter:
    def test_strict_margin(self):
        assert not sufficiently_better(5.0, 4.5, 0.5)  # equal to curr + delta
        assert sufficiently_better(5.0 + 1e-9, 4.5, 0.5)
        assert sufficiently_better(4.6, 4.5, 0.0)

    def test_zero_delta_still_strict(self):
        assert not sufficiently_better(4.5, 4.5, 0.0)

    @given(
        curr=st.floats(-100, 100),
        delta=st.floats(0, 10),
        eps=st.floats(min_value=1e-6, max_value=10),
    )
    def test_margin_partitions(self, curr, delta, eps):
        assert sufficiently_better(curr + delta + eps, curr, delta)
        assert not sufficiently_better(curr + delta - eps, curr, delta)


class TestConsistentlyBetter:
    def test_gap_resets_the_clock(self):
        # Condition holds at 0 and 50, breaks at 60, resumes at 60; by 140
        # only 80 ms have accrued, short of a 100 ms stability period.
        sp = 100
        since = None
        verdicts = []
        for now, holds in [(0, True), (50, True), (60, False), (60, True), (140, True)]:
            since, ok = consistently_better(since, now, sp, holds)
            verdicts.append(ok)
        assert verdicts == [False, False, False, False, False]
        assert since == 60

    def test_boundary_is_inclusive(self):
        sp = 80
        since, ok0 = consistently_better(None, 60, sp, True)
        since, ok1 = consistently_better(since, 140, sp, True)
        assert not ok0
        assert ok1  # 140 - 60 == sp exactly

    def test_zero_sp_passes_immediately(self):
        _, ok = consistently_better(None, 5, 0, True)
        assert ok

    def test_false_condition_clears_since(self):
        since, ok = consistently_better(10, 50, 20, False)
        assert not ok
        assert since is None


class TestHandoffReason:
    CFG = ControllerConfig(th_inf=2.0, th_sup=8.0)

    def test_gate_blocks_everything(self):
        # ``step`` asks for a reason only once the dwell gate passes: until
        # then neither a failing nor a comfortable serving network moves.
        cfg = self.CFG._replace(hysteresis_delta=0.5, dwell_sp=300)
        st1, _ = _feed_anl(initial_state("mt1"), 0, ("n1", 5.0), ("n2", 3.0), cfg=cfg)
        st2, actions = _feed_anl(st1, 100, ("n2", 3.0), ("n1", 1.0), cfg=cfg)  # below th_inf
        assert st2.phase is Phase.PREPARATION and actions == ()
        st3, actions = _feed_anl(st2, 200, ("n2", 10.0), ("n1", 9.0), cfg=cfg)  # above th_sup
        assert st3.phase is Phase.PREPARATION and actions == ()
        st4, actions = _feed_anl(st3, 400, ("n2", 10.0), ("n1", 9.0), cfg=cfg)
        assert st4.phase is Phase.EXECUTION
        assert actions[0].flight.reason is Reason.OPPORTUNIST

    def test_imperative_below_lower_threshold(self):
        assert handoff_reason(1.9, 3.0, self.CFG) is Reason.IMPERATIVE

    def test_opportunist_above_upper_threshold(self):
        assert handoff_reason(8.1, 9.0, self.CFG) is Reason.OPPORTUNIST

    def test_dead_band_gives_no_reason(self):
        assert handoff_reason(5.0, 6.0, self.CFG) is None
        assert handoff_reason(2.0, 3.0, self.CFG) is None  # boundary: not below
        assert handoff_reason(8.0, 9.0, self.CFG) is None  # boundary: not above

    def test_opportunist_may_judge_target_instead(self):
        cfg = ControllerConfig(th_inf=2.0, th_sup=8.0, opportunist_on_target=True)
        assert handoff_reason(5.0, 9.0, cfg) is Reason.OPPORTUNIST
        assert handoff_reason(5.0, 9.0, self.CFG) is None

    def test_imperative_wins_over_opportunist_reading(self):
        cfg = ControllerConfig(th_inf=2.0, th_sup=8.0, opportunist_on_target=True)
        assert handoff_reason(1.0, 9.0, cfg) is Reason.IMPERATIVE


class TestShouldEnterPreparation:
    """Entry into Preparation: ``step`` enters when the candidate's listed
    score beats the serving one, and a proactive controller also when
    ``crossing_predicted`` foresees the crossing within prep_latency."""

    def test_crossed_enters_for_both_strategies(self):
        for strategy in Strategy:
            cfg = CFG._replace(strategy=strategy)
            st1, _ = _feed_anl(initial_state("mt1"), 0, ("n1", 4.0), ("n2", 3.0), cfg=cfg)
            st2, actions = _feed_anl(st1, 100, ("n2", 4.4), ("n1", 4.0), cfg=cfg)
            assert st2.phase is Phase.PREPARATION and st2.prep.target == "n2", strategy
            assert actions == ()

    def test_reactive_ignores_trends(self):
        lists = [(0, (("n1", 4.0), ("n2", 3.0))), (100, (("n1", 4.0), ("n2", 3.9)))]

        def phase(strategy):
            st = initial_state("mt1")
            for now, pairs in lists:  # n2 racing upward, not there yet
                st, _ = _feed_anl(st, now, *pairs, cfg=CFG._replace(strategy=strategy))
            return st.phase

        assert phase(Strategy.REACTIVE) is Phase.INITIATION
        assert phase(Strategy.PROACTIVE) is Phase.PREPARATION

    def test_proactive_predicts_crossing_within_window(self):
        # Target climbs 0.006/ms toward a flat current: gap 0.4 closes in
        # ~66.7 ms, inside the 100 ms preparation window.
        assert crossing_predicted((0, 4.0), (100, 4.0), (0, 3.0), (100, 3.6), 100)

    def test_proactive_rejects_crossing_beyond_window(self):
        # Crossing at ~166.7 > 150.
        assert not crossing_predicted((0, 4.0), (100, 4.0), (0, 3.0), (100, 3.6), 50)

    def test_proactive_rejects_diverging_series(self):
        assert not crossing_predicted((0, 4.0), (100, 4.2), (0, 3.0), (100, 2.8), 100)

    def test_proactive_parallel_series_never_cross(self):
        assert not crossing_predicted((0, 4.0), (100, 4.1), (0, 3.0), (100, 3.1), 100)
        # Nor does a tie that holds: the target never overtakes.
        assert not crossing_predicted((0, 4.0), (100, 4.1), (0, 4.0), (100, 4.1), 100)

    def test_prediction_needs_two_samples_per_series(self):
        # With no previous sample for either network nothing is predicted.
        assert not crossing_predicted((0, 4.0), (100, 4.0), None, (100, 3.6), 100)
        assert not crossing_predicted(None, (100, 4.0), (0, 3.0), (100, 3.6), 100)

    def test_crossed_needs_no_history(self):
        # Already ahead: no prediction, one sample suffices even proactively.
        cfg = CFG._replace(strategy=Strategy.PROACTIVE)
        st1, _ = _feed_anl(initial_state("mt1"), 0, ("n1", 4.0), cfg=cfg)
        st2, _ = _feed_anl(st1, 100, ("n3", 4.1), ("n1", 4.0), cfg=cfg)
        assert latest_sample(st1, "n3") is None
        assert st2.phase is Phase.PREPARATION and st2.prep.target == "n3"

    @given(
        gap=st.floats(min_value=0.01, max_value=5.0),
        closing=st.floats(min_value=1e-4, max_value=1.0),
    )
    @example(gap=0.010000000000000002, closing=1e-4)
    def test_prediction_matches_analytic_crossing_time(self, gap, closing):
        prep_latency = 100
        curr = [(0, 4.0), (100, 4.0)]
        tgt = [(0, 4.0 - gap - 100 * closing), (100, 4.0 - gap)]
        # The verdict follows the samples as stored, in exact arithmetic:
        # rounding the draws into floats can move the crossing across the
        # inclusive prep_latency boundary relative to gap / closing.
        (c0, c1), (g0, g1) = ([Fraction(v) for _, v in s] for s in (curr, tgt))
        real_closing = ((g1 - g0) - (c1 - c0)) / 100
        expected = real_closing > 0 and (c1 - g1) / real_closing <= prep_latency
        assert crossing_predicted(*curr, *tgt, prep_latency) == expected

    @given(
        t0=st.integers(min_value=0, max_value=10_000),
        dt=st.integers(min_value=1, max_value=1_000),
        curr=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        closing=st.floats(min_value=1e-6, max_value=1.0),
        nudge=st.floats(min_value=-1e-7, max_value=1e-7),
        latency=st.integers(min_value=1, max_value=1_000),
    )
    @example(t0=0, dt=100, curr=(4.0, 4.0), closing=0.001, nudge=1e-9, latency=100)
    def test_verdict_ignores_absolute_time(self, t0, dt, curr, closing, nudge, latency):
        # The target closes in about `latency + nudge` ms, within float
        # steps of the window's end, where rounding an absolute crossing
        # time flipped the verdict once time was hours or a day in.
        c0, c1 = curr
        g1 = c1 - closing * (latency + nudge)
        g0 = g1 - dt * ((c1 - c0) / dt + closing)

        def verdict(shift):
            t_a, t_b = t0 + shift, t0 + dt + shift
            return crossing_predicted((t_a, c0), (t_b, c1), (t_a, g0), (t_b, g1), latency)

        base = verdict(0)
        for shift in (3_600_000, 86_400_000):
            assert verdict(shift) == base, shift


def _att(net, terminal="mt1"):
    return Attachment(
        terminal_id=terminal,
        provider_id="p1",
        net_id=net,
        cell_id=f"{net}-c",
        channel_id=f"{net}-ch",
        technology="lte",
    )


class TestPolicy:
    def test_defaults_by_layer(self):
        ht_l2 = classify(_att("n1"), Attachment("mt1", "p1", "n1", "c2", "x9", "lte"))
        assert ht_l2.layer is Layer.L2
        assert PolicyTable().lookup(ht_l2.layer, "*") == "MAHO"
        ht_l3 = classify(_att("n1"), _att("n2"))
        assert PolicyTable().lookup(ht_l3.layer, "*") == "MIP"
        ht_l47 = classify(_att("n1"), _att("n1", terminal="mt2"))
        assert PolicyTable().lookup(ht_l47.layer, "*") == "SIP"

    def test_exact_entry_beats_wildcards(self):
        table = PolicyTable(entries={("L3", "voice"): "HMIP", ("L3", "*"): "MIP6"})
        assert table.lookup(Layer.L3, "voice") == "HMIP"
        assert table.lookup(Layer.L3, "video") == "MIP6"
        assert table.lookup(Layer.L2, "voice") == "MAHO"

    def test_defaults_fill_uncovered_layers(self):
        table = PolicyTable(entries={("L3", "*"): "MIP6"})
        assert table.lookup(Layer.L2, "voice") == "MAHO"

    def test_strict_table_raises_on_gap(self):
        table = PolicyTable(entries={("L3", "*"): "MIP6"}, defaults={})
        with pytest.raises(PolicyGapError) as exc:
            table.lookup(Layer.L2, "voice")
        assert exc.value.key == ("L2", "voice")


def _anl(now, *pairs):
    return rank(pairs)


class TestEvaluate:
    def test_accepted_on_best_with_no_regions(self):
        anl = _anl(0, ("n2", 6.0), ("n1", 5.0))
        reasons = evaluate("n2", {"UF": 6.0}, anl, {})
        assert reasons == ()

    def test_not_best_rejected(self):
        anl = _anl(0, ("n3", 7.0), ("n2", 6.0))
        assert evaluate("n2", {"UF": 6.0}, anl, {}) == ("NotBest",)

    def test_region_violation_named(self):
        anl = _anl(0, ("n2", 6.0))
        regions = {"IL": GoalSpec(GoalDirection.MAINTAIN_BELOW, bound=50.0)}
        assert evaluate("n2", {"UF": 6.0, "IL": 120.0}, anl, regions) == ("IL",)

    def test_missing_configured_measure_is_a_violation(self):
        anl = _anl(0, ("n2", 6.0))
        regions = {"PJ": GoalSpec(GoalDirection.MAINTAIN_BELOW, bound=10.0)}
        assert evaluate("n2", {}, anl, regions) == ("PJ",)

    def test_reasons_accumulate_in_stable_order(self):
        anl = _anl(0, ("n3", 9.0), ("n2", 6.0))
        regions = {
            "IL": GoalSpec(GoalDirection.MAINTAIN_BELOW, bound=50.0),
            "EvLat": GoalSpec(GoalDirection.MAINTAIN_BELOW, bound=10.0),
        }
        reasons = evaluate("n2", {"IL": 120.0, "EvLat": 100.0}, anl, regions)
        assert reasons == ("NotBest", "EvLat", "IL")

    def test_no_list_at_all_counts_as_not_best(self):
        assert evaluate("n2", {}, None, {}) == ("NotBest",)


CFG = ControllerConfig(
    hysteresis_delta=0.5,
    th_sup=4.0,
    th_inf=2.0,
    dwell_sp=0,
    prep_latency=100,
    exec_latency=100,
    eval_latency=50,
    strategy=Strategy.REACTIVE,
)


def _types(*nets):
    return StationTypes(
        BaseStation(id=n, net_id=n, provider_id="p1", position=(0.0, 0.0), technology="lte")
        for n in nets
    )


def _feed_anl(state, now, *pairs, cfg=CFG):
    nets = [n for n, _ in pairs]
    event = AnlUpdated(anl=_anl(now, *pairs), types=_types(*nets))
    return step(state, event, cfg, now)


def _assert_actions(actions, *expected):
    """Equal, and of the same types: a NamedTuple equals any tuple of its
    fields, so ``ScheduleTimer("eval", 5) == ("eval", 5)``."""
    assert [type(a) for a in actions] == [type(e) for e in expected]
    assert actions == expected


class TestPhaseMachine:
    def test_first_list_connects_to_head(self):
        st0 = initial_state("mt1")
        st1, actions = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        assert st1.phase is Phase.INITIATION
        assert st1.current == "n1"
        _assert_actions(actions, Connect("n1"))

    def test_empty_list_keeps_disconnection(self):
        st0 = initial_state("mt1")
        st1, actions = _feed_anl(st0, 0)
        assert st1.phase is Phase.DISCONNECTION
        assert actions == ()

    def test_full_cycle_produces_record(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))

        # n2 overtakes with margin; serving utility sits above th_sup.
        st2, actions = _feed_anl(st1, 100, ("n2", 6.0), ("n1", 5.0))
        assert st2.phase is Phase.EXECUTION
        assert st2.current is None
        kinds = [type(a) for a in actions]
        assert kinds == [StartSwitch, ScheduleTimer]
        flight = actions[0].flight
        assert flight is st2.flight
        assert (flight.reason, flight.to_net, flight.method, flight.terminal, flight.t_trigger) == (
            Reason.OPPORTUNIST, "n2", "MIP", "mt1", 100
        )
        _assert_actions(actions[1:], ScheduleTimer("switch", 200))

        st3, actions = step(st2, SwitchComplete(), CFG, 200)
        assert st3.phase is Phase.EVALUATION
        assert st3.current == "n2"
        _assert_actions(actions, Connect("n2"), ScheduleTimer("eval", 250))

        # A fresher list lands during evaluation and is absorbed silently.
        st4, actions = _feed_anl(st3, 210, ("n2", 6.2), ("n1", 5.0))
        assert st4.phase is Phase.EVALUATION
        assert actions == ()

        st5, actions = step(st4, TimerFired(250), CFG, 250)
        assert st5.phase is Phase.INITIATION
        assert len(actions) == 1 and isinstance(actions[0], RecordHandoff)
        rec = actions[0].record
        assert rec.from_net == "n1" and rec.to_net == "n2"
        assert rec.reason is Reason.OPPORTUNIST
        assert rec.ho_type == "net_horizontal" and rec.method == "MIP"
        assert (rec.t_prep, rec.t_trigger, rec.t_switch_done, rec.t_eval_done) == (
            100, 100, 200, 250,
        )
        assert rec.dvho_ms == 150
        assert rec.uf_old == 5.0 and rec.uf_new == 6.2
        assert rec.accepted

    def test_crossing_without_margin_waits_in_preparation(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        # Crossed but inside the hysteresis band: prepare, don't trigger.
        st2, actions = _feed_anl(st1, 100, ("n2", 5.2), ("n1", 5.0))
        assert st2.phase is Phase.PREPARATION
        assert st2.prep.target == "n2"
        assert actions == ()

    def test_dead_band_blocks_trigger_but_keeps_preparation(self):
        cfg = ControllerConfig(
            hysteresis_delta=0.5, th_sup=8.0, th_inf=2.0, dwell_sp=0,
            exec_latency=100, eval_latency=50,
        )
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0), cfg=cfg)
        st2, actions = _feed_anl(st1, 100, ("n2", 6.5), ("n1", 5.0), cfg=cfg)
        assert st2.phase is Phase.PREPARATION  # margin ok, but 2 < 5 < 8
        assert actions == ()
        # The margin and the dwell held, so the dwell clock keeps running.
        assert st2.prep == PrepData("n2", 100, since=100)

    def test_rollback_when_serving_is_best_again(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, _ = _feed_anl(st1, 100, ("n2", 5.2), ("n1", 5.0))
        assert st2.phase is Phase.PREPARATION
        st3, actions = _feed_anl(st2, 200, ("n1", 5.0), ("n2", 4.0))
        assert st3.phase is Phase.INITIATION
        assert st3.prep is None
        assert actions == ()

    def test_retarget_keeps_entry_time_but_restarts_dwell(self):
        cfg = ControllerConfig(
            hysteresis_delta=0.5, th_sup=8.0, th_inf=2.0, dwell_sp=300,
        )
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0), cfg=cfg)
        st2, _ = _feed_anl(st1, 100, ("n2", 6.0), ("n1", 5.0), cfg=cfg)
        assert st2.prep.target == "n2"
        assert st2.prep.since == 100
        st3, _ = _feed_anl(st2, 200, ("n3", 7.0), ("n2", 6.0), ("n1", 5.0), cfg=cfg)
        assert st3.phase is Phase.PREPARATION
        assert st3.prep.target == "n3"
        assert st3.prep.entered_at == 100  # preparation began at first entry
        assert st3.prep.since == 200  # dwell clock restarted for n3

    def test_serving_network_vanishing_disconnects(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, actions = _feed_anl(st1, 100, ("n2", 3.0))
        assert st2.phase is Phase.DISCONNECTION
        assert st2.current is None
        assert actions == ()

    def test_link_loss_in_initiation_and_preparation(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, actions = step(st1, CurrentLinkLost(), CFG, 50)
        assert st2.phase is Phase.DISCONNECTION
        assert actions == ()

        st1b, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2b, _ = _feed_anl(st1b, 100, ("n2", 5.2), ("n1", 5.0))
        st3b, actions = step(st2b, CurrentLinkLost(), CFG, 150)
        assert st3b.phase is Phase.DISCONNECTION
        assert st3b.prep is None
        assert actions == ()

    def test_link_loss_during_evaluation_records_failure(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, _ = _feed_anl(st1, 100, ("n2", 6.0), ("n1", 5.0))
        st3, _ = step(st2, SwitchComplete(), CFG, 200)
        st4, actions = step(st3, CurrentLinkLost(), CFG, 230)
        assert st4.phase is Phase.DISCONNECTION
        rec = actions[0].record
        assert not rec.accepted
        assert rec.reject_reasons == ("LinkLost",)
        assert rec.t_eval_done == 230

    def test_link_loss_during_execution_is_illegal(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, _ = _feed_anl(st1, 100, ("n2", 6.0), ("n1", 5.0))
        with pytest.raises(IllegalEventError):
            step(st2, CurrentLinkLost(), CFG, 150)

    def test_link_loss_while_disconnected_is_illegal(self):
        with pytest.raises(IllegalEventError):
            step(initial_state("mt1"), CurrentLinkLost(), CFG, 0)

    def test_switch_complete_outside_execution_is_illegal(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        with pytest.raises(IllegalEventError):
            step(st1, SwitchComplete(), CFG, 100)

    def test_stale_eval_timer_ignored(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, _ = _feed_anl(st1, 100, ("n2", 6.0), ("n1", 5.0))
        st3, actions = step(st2, SwitchComplete(), CFG, 200)
        _assert_actions(actions, Connect("n2"), ScheduleTimer("eval", 250))
        st4, actions = step(st3, TimerFired(240), CFG, 240)
        assert st4 is st3 or st4 == st3
        assert actions == ()

    def test_eval_timer_outside_evaluation_ignored(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, actions = step(st1, TimerFired(50), CFG, 50)
        assert st2.phase is Phase.INITIATION
        assert actions == ()

    def test_an_ended_evaluations_timer_is_dropped_in_the_next_one(self):
        # The deadline is derived from the switch that completed last.  With
        # a long evaluation, the timer of one a lost link ended fires during
        # the next handoff's, whose switch completed later: it never matches.
        cfg = CFG._replace(eval_latency=500)

        def feed(state, now, *pairs):
            return _feed_anl(state, now, *pairs, cfg=cfg)

        st1, _ = feed(initial_state("mt1"), 0, ("n1", 5.0), ("n2", 3.0))
        st2, _ = feed(st1, 100, ("n2", 6.0), ("n1", 5.0))
        st3, actions = step(st2, SwitchComplete(), cfg, 200)
        _assert_actions(actions, Connect("n2"), ScheduleTimer("eval", 700))
        st4, actions = step(st3, CurrentLinkLost(), cfg, 230)
        assert st4.phase is Phase.DISCONNECTION
        assert [a.record.reject_reasons for a in actions] == [("LinkLost",)]
        st5, _ = feed(st4, 240, ("n1", 5.0), ("n2", 3.0))
        st6, _ = feed(st5, 300, ("n2", 6.0), ("n1", 5.0))
        st7, actions = step(st6, SwitchComplete(), cfg, 400)
        assert st7.phase is Phase.EVALUATION
        _assert_actions(actions, Connect("n2"), ScheduleTimer("eval", 900))
        # The first evaluation's timer fires: no action, no change.
        st8, actions = step(st7, TimerFired(700), cfg, 700)
        assert actions == () and st8 == st7
        st9, actions = step(st8, TimerFired(900), cfg, 900)
        assert st9.phase is Phase.INITIATION
        assert [type(a) for a in actions] == [RecordHandoff]
        rec = actions[0].record
        assert (rec.t_trigger, rec.t_switch_done, rec.t_eval_done) == (300, 400, 900)
        assert rec.accepted

    def test_zero_latency_chain_reaches_execution_in_one_event(self):
        cfg = ControllerConfig(
            hysteresis_delta=0.0, th_sup=-1e9, th_inf=-2e9, dwell_sp=0,
            prep_latency=0, exec_latency=0, eval_latency=0,
        )
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0), cfg=cfg)
        # One list update walks Initiation -> Preparation -> Execution.
        st2, actions = _feed_anl(st1, 100, ("n2", 6.0), ("n1", 5.0), cfg=cfg)
        assert st2.phase is Phase.EXECUTION
        assert [type(a) for a in actions] == [StartSwitch, ScheduleTimer]
        assert actions[1].at == 100  # same-instant switch deadline

    def test_rejected_when_landed_network_not_best(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, _ = _feed_anl(st1, 100, ("n2", 6.0), ("n1", 5.0))
        st3, _ = step(st2, SwitchComplete(), CFG, 200)
        # By evaluation time a third network leads the list.
        st4, _ = _feed_anl(st3, 210, ("n3", 9.0), ("n2", 6.2), ("n1", 5.0))
        st5, actions = step(st4, TimerFired(250), CFG, 250)
        rec = actions[0].record
        assert not rec.accepted
        assert rec.reject_reasons == ("NotBest",)
        assert st5.phase is Phase.INITIATION

    def test_success_region_checked_at_evaluation(self):
        cfg = ControllerConfig(
            hysteresis_delta=0.5, th_sup=4.0, th_inf=2.0, dwell_sp=0,
            exec_latency=100, eval_latency=50,
            success_regions={"ExLat": GoalSpec(GoalDirection.MAINTAIN_BELOW, bound=50.0)},
        )
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0), cfg=cfg)
        st2, _ = _feed_anl(st1, 100, ("n2", 6.0), ("n1", 5.0), cfg=cfg)
        st3, _ = step(st2, SwitchComplete(), cfg, 200)
        st4, actions = step(st3, TimerFired(250), cfg, 250)
        rec = actions[0].record
        # The switch itself took 100 ms, violating the 50 ms region.
        assert not rec.accepted
        assert rec.reject_reasons == ("ExLat",)

    def test_proactive_with_thin_history_falls_back_to_crossing(self):
        cfg = ControllerConfig(
            hysteresis_delta=0.5, th_sup=4.0, th_inf=2.0, dwell_sp=0,
            strategy=Strategy.PROACTIVE, prep_latency=200,
        )
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), cfg=cfg)
        # n3 shows up with a single sample, below the serving score: the
        # predictor cannot run, and the fallback crossing test says no.
        st2, actions = _feed_anl(st1, 100, ("n1", 5.0), ("n3", 4.8), cfg=cfg)
        assert st2.phase is Phase.INITIATION
        assert actions == ()

    def test_samples_keep_only_recent_history(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, _ = _feed_anl(st1, 100, ("n1", 5.1), ("n2", 3.1))
        st3, _ = _feed_anl(st2, 200, ("n1", 5.2), ("n2", 3.2))
        assert latest_sample(st3, "n1") == (200, 5.2)
        assert latest_sample(st3, "n2") == (200, 3.2)
        assert latest_sample(st3, "n9") is None

    def test_vanished_networks_dropped_from_history(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, _ = _feed_anl(st1, 100, ("n1", 5.1))
        assert latest_sample(st2, "n1") == (100, 5.1)
        assert latest_sample(st2, "n2") is None

    def test_serving_network_keeps_its_sample_while_unlisted(self):
        st0 = initial_state("mt1")
        st1, _ = _feed_anl(st0, 0, ("n1", 5.0), ("n2", 3.0))
        st2, _ = _feed_anl(st1, 100, ("n2", 6.0), ("n1", 5.0))
        st3, _ = step(st2, SwitchComplete(), CFG, 200)
        assert st3.phase is Phase.EVALUATION and st3.current == "n2"
        # Lists that leave the serving network out keep its last sample.
        st4, _ = _feed_anl(st3, 210, ("n1", 5.0))
        st5, _ = _feed_anl(st4, 220, ("n1", 5.1))
        assert latest_sample(st5, "n2") == (100, 6.0)
        _, actions = step(st5, TimerFired(250), CFG, 250)
        assert actions[0].record.uf_new == 6.0
        # Listed again, it takes the new sample.
        st6, _ = _feed_anl(st5, 230, ("n2", 6.5), ("n1", 5.1))
        assert latest_sample(st6, "n2") == (230, 6.5)

    def test_proactive_gate_reads_only_the_previous_and_current_samples(self):
        cfg = ControllerConfig(
            hysteresis_delta=0.5, th_sup=8.0, th_inf=2.0, dwell_sp=0,
            strategy=Strategy.PROACTIVE, prep_latency=100,
        )

        def verdict(*lists):
            st = initial_state("mt1")
            for now, pairs in zip(range(0, 100 * len(lists), 100), lists):
                st, actions = _feed_anl(st, now, *pairs, cfg=cfg)
            return st.phase, st.prep, actions

        # At t=200 n2 sits 0.5 below n1 and closes 1.5 per 100 ms from t=100:
        # the crossing is 33 ms away, within prep_latency.
        last = (("n1", 5.0), ("n2", 4.5))
        entered = verdict((("n1", 5.0), ("n2", 3.0)), (("n1", 5.0), ("n2", 3.0)), last)
        assert entered[0] is Phase.PREPARATION
        # A different sample older than the last list leaves the verdict as is.
        older = verdict((("n1", 5.0), ("n2", 4.5)), (("n1", 5.0), ("n2", 3.0)), last)
        assert older == entered
        # A different previous sample changes it: closing 0.1 per 100 ms puts
        # the crossing 500 ms away.
        slower = verdict((("n1", 5.0), ("n2", 3.0)), (("n1", 5.0), ("n2", 4.4)), last)
        assert slower[0] is Phase.INITIATION


# The values built once per event, terminal-tick or record.
_PER_EVENT_VALUES = [
    ControllerState(terminal="mt1", phase=Phase.INITIATION, current="n1"),
    AnlUpdated(_anl(0, ("n1", 5.0)), _types("n1")),
    PrepData("n2", 100, since=100),
    _anl(0, ("n1", 5.0), ("n2", 4.0)),
    TraceRecord(0, "mt1", ANL, {"entries": []}),
]


@pytest.mark.parametrize("value", _PER_EVENT_VALUES, ids=lambda v: type(v).__name__)
def test_per_event_values_are_immutable(value):
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_events_and_actions_equal_as_tuples_are_told_apart_by_type():
    assert ScheduleTimer("eval", 250) == ("eval", 250)
    assert TimerFired(250) == (250,)
    assert CurrentLinkLost() == SwitchComplete()
    # In Execution the switch completes, and a lost link is undefined.
    st1, _ = _feed_anl(initial_state("mt1"), 0, ("n1", 5.0), ("n2", 3.0))
    st2, _ = _feed_anl(st1, 100, ("n2", 6.0), ("n1", 5.0))
    assert st2.phase is Phase.EXECUTION
    st3, _ = step(st2, SwitchComplete(), CFG, 200)
    assert st3.phase is Phase.EVALUATION
    with pytest.raises(IllegalEventError):
        step(st2, CurrentLinkLost(), CFG, 200)
    # The engine traces an action by its type, not by its fields.
    assert engine._action_payload(ScheduleTimer("eval", 250)) == {
        "schedule_timer": {"kind": "eval", "at": 250}
    }
    assert StartSwitch(st2.flight) == RecordHandoff(st2.flight)
    assert list(engine._action_payload(StartSwitch(st2.flight))) == ["start_switch"]
    assert list(engine._action_payload(RecordHandoff(st2.flight))) == ["record_handoff"]
    with pytest.raises(TypeError):
        engine._action_payload(TimerFired(250))
