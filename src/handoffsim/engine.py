"""Deterministic discrete-event simulation of terminals moving through an
overlay network.

Time is integer milliseconds.  Each terminal gets one context event per
tick; controller timers land between ticks wherever their deadlines fall.
The event queue pops by (time, terminal id, kind rank, insertion order),
with context events ranking before timer events, so a run is a pure
function of its scenario: identical scenarios yield byte-identical traces.

Per context event the engine: advances the terminal's position, checks
whether the serving station still covers it (emitting a link-loss event
first if not), synthesizes every covered network's criteria (overwriting
RSS from the radio model), scores and ranks them, and hands the ranked
list to the controller.

Facts fixed for the run are computed once: the catalog index, each
(terminal, station) attachment, and the topology's coverage index.  A
station's synthesized sample depends only on (station, t), so it is taken
once per tick and shared by every terminal; the queue pops in time order
and synthesis advances only when time does, so a sample is dropped when
the tick moves on.  When RSS carries no weight a station's score does not
depend on the terminal either, so it too is computed once per (station,
tick) and shared; when RSS is weighted each terminal scores a copy of the
sample with its own RSS.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Optional

from . import controller as ctl
from .context import CriteriaVector, catalog_index
from .desirability import DesirabilityScore, desirability, rank
from .scenario import Scenario, TerminalSpec
from .synthesis import SynthesisState, sample_context
from .taxonomy import Attachment
from .topology import BaseStation, coverage
from .trace import ANL, HANDOFF, INIT, TRANSITION, Trace

Position = tuple[float, float]

_RANK_CONTEXT = 0
_RANK_TIMER = 1


def advance_position(path: tuple[tuple[int, Position], ...], t: int) -> Position:
    """Piecewise-linear movement along timed waypoints; parked outside them."""
    if t <= path[0][0]:
        return path[0][1]
    for (t0, p0), (t1, p1) in zip(path, path[1:]):
        if t <= t1:
            frac = (t - t0) / (t1 - t0)
            return (p0[0] + (p1[0] - p0[0]) * frac, p0[1] + (p1[1] - p0[1]) * frac)
    return path[-1][1]


@dataclass
class _Pending:
    """One scheduled queue entry."""

    kind: str  # "context" | "switch" | "eval"
    at: int


def _plan_payload(plan: ctl.TriggerPlan) -> dict:
    return {
        "why": plan.why.value,
        "where": plan.where,
        "how": plan.how,
        "who": plan.who,
        "when": plan.when,
    }


def _action_payload(action: ctl.Action) -> dict:
    if isinstance(action, ctl.Connect):
        return {"connect": action.network}
    if isinstance(action, ctl.StartSwitch):
        return {"start_switch": _plan_payload(action.plan)}
    if isinstance(action, ctl.ScheduleTimer):
        return {"schedule_timer": {"kind": action.kind, "at": action.at}}
    if isinstance(action, ctl.RecordHandoff):
        return {"record_handoff": {"to": action.record.to_net, "accepted": action.record.accepted}}
    raise TypeError(f"unknown action {action!r}")


def _record_payload(rec: ctl.HandoffRecord) -> dict:
    return {
        "terminal": rec.terminal,
        "from_net": rec.from_net,
        "to_net": rec.to_net,
        "reason": rec.reason.value,
        "ho_type": rec.ho_type,
        "method": rec.method,
        "t_prep": rec.t_prep,
        "t_trigger": rec.t_trigger,
        "t_switch_done": rec.t_switch_done,
        "t_eval_done": rec.t_eval_done,
        "dvho_ms": rec.dvho_ms,
        "uf_old": rec.uf_old,
        "uf_new": rec.uf_new,
        "accepted": rec.accepted,
        "reject_reasons": list(rec.reject_reasons),
    }


class _Run:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.trace = Trace()
        self.synth = SynthesisState(scenario.synthesis)
        self.states = {term.id: ctl.initial_state(term.id) for term in scenario.terminals}
        self.terms = {term.id: term for term in scenario.terminals}
        # Policy lookup keys on the terminal's application type.
        self.configs = {
            term.id: replace(scenario.controller, app_type=term.app_type)
            for term in scenario.terminals
        }
        self.heap: list = []
        self.seq = 0
        self.synth_t: Optional[int] = None
        # station -> (sample, score) at synth_t; the score is None when it
        # depends on the terminal's RSS.
        self.scored: dict[str, tuple[CriteriaVector, Optional[DesirabilityScore]]] = {}
        self.shared_scores = "RSS" not in scenario.weights.weights
        self.index = catalog_index(scenario.catalog)
        self.attachments: dict[tuple[str, str], Attachment] = {}

    def push(self, at: int, terminal: str, rank_: int, kind: str) -> None:
        if at >= self.sc.duration_ms:
            return  # beyond the horizon; never processed
        self.seq += 1
        heapq.heappush(self.heap, (at, terminal, rank_, self.seq, kind))

    def deliver(self, terminal: str, event: ctl.Event, now: int, event_name: str) -> None:
        state = self.states[terminal]
        new_state, actions = ctl.step(state, event, self.configs[terminal], now)
        self.states[terminal] = new_state
        self.trace.append(
            now,
            terminal,
            TRANSITION,
            {
                "event": event_name,
                "from": state.phase.value,
                "to": new_state.phase.value,
                "attached": new_state.current,
                "actions": [_action_payload(a) for a in actions],
            },
        )
        for action in actions:
            if isinstance(action, ctl.ScheduleTimer):
                self.push(action.at, terminal, _RANK_TIMER, action.kind)
            elif isinstance(action, ctl.RecordHandoff):
                self.trace.append(now, terminal, HANDOFF, _record_payload(action.record))

    def attachment(self, terminal: str, bs: BaseStation) -> Attachment:
        key = (terminal, bs.id)
        att = self.attachments.get(key)
        if att is None:
            att = self.attachments[key] = Attachment(
                terminal_id=terminal,
                provider_id=bs.provider_id,
                net_id=bs.net_id,
                cell_id=bs.id,
                channel_id=bs.channels[0],
                technology=bs.technology,
            )
        return att

    def context_tick(self, terminal: str, now: int) -> None:
        sc = self.sc
        if self.synth_t != now:
            self.synth.advance_to(now, sc.tick_ms)
            self.synth_t = now
            self.scored.clear()
        term = self.terms[terminal]
        pos = advance_position(term.path, now)
        covered = coverage(pos, sc.topology)
        covered_ids = {bs.id for bs, _ in covered}

        state = self.states[terminal]
        if state.current is not None and state.current not in covered_ids:
            self.deliver(terminal, ctl.CurrentLinkLost(), now, "link_lost")

        scores: list[DesirabilityScore] = []
        infos: dict[str, Attachment] = {}
        for bs, rss in covered:
            memo = self.scored.get(bs.id)
            if memo is None:
                vector = sample_context(bs.id, now, sc.synthesis, self.synth)
                score = None
                if self.shared_scores:
                    score = desirability(vector, sc.weights, self.index, network_id=bs.id)
                memo = self.scored[bs.id] = (vector, score)
            vector, score = memo
            if score is None:
                values = dict(vector.values)
                values["RSS"] = rss
                score = desirability(
                    CriteriaVector(values=values, timestamp=now),
                    sc.weights,
                    self.index,
                    network_id=bs.id,
                )
            scores.append(score)
            infos[bs.id] = self.attachment(terminal, bs)
        anl = rank(scores, as_of=now)
        self.trace.append(
            now,
            terminal,
            ANL,
            {"entries": [[net, score.value] for net, score in anl.entries]},
        )
        self.deliver(terminal, ctl.AnlUpdated(anl=anl, infos=infos), now, "anl_updated")
        self.push(now + sc.tick_ms, terminal, _RANK_CONTEXT, "context")

    def timer(self, terminal: str, kind: str, now: int) -> None:
        if kind == "switch":
            self.deliver(terminal, ctl.SwitchComplete(), now, "switch_complete")
        else:
            self.deliver(terminal, ctl.TimerFired(kind="eval", at=now), now, "timer_eval")

    def execute(self) -> Trace:
        sc = self.sc
        self.trace.append(
            0,
            None,
            INIT,
            {
                "seed": sc.seed,
                "duration_ms": sc.duration_ms,
                "tick_ms": sc.tick_ms,
                "controller": {
                    "hysteresis_delta": sc.controller.hysteresis_delta,
                    "th_sup": sc.controller.th_sup,
                    "th_inf": sc.controller.th_inf,
                    "dwell_sp": sc.controller.dwell_sp,
                    "prep_latency": sc.controller.prep_latency,
                    "exec_latency": sc.controller.exec_latency,
                    "eval_latency": sc.controller.eval_latency,
                    "strategy": sc.controller.strategy.value,
                },
                "stations": sorted(bs.id for bs in sc.topology.stations),
                "terminals": sorted(self.states),
                "metrics_constants": dict(sorted(sc.metrics_constants.items())),
            },
        )
        for tid in sorted(self.states):
            self.trace.append(0, tid, INIT, {"phase": ctl.Phase.DISCONNECTION.value})
        for tid in sorted(self.states):
            self.push(0, tid, _RANK_CONTEXT, "context")
        while self.heap:
            at, terminal, rank_, _, kind = heapq.heappop(self.heap)
            if kind == "context":
                self.context_tick(terminal, at)
            else:
                self.timer(terminal, kind, at)
        return self.trace


def run(scenario: Scenario) -> Trace:
    """Simulate a validated scenario and return its trace."""
    return _Run(scenario).execute()
