"""Deterministic discrete-event simulation of terminals moving through an
overlay network.

Time is integer milliseconds.  Each terminal gets one context event per
tick; controller timers land between ticks wherever their deadlines fall.
The event queue pops by (time, terminal id, kind rank, insertion order),
with context events ranking before timer events, so a run is a pure
function of its scenario: identical scenarios yield byte-identical traces.

Per context event the engine takes the terminal's context at that tick:
its position, the stations that cover it, every covered network's
synthesized criteria (RSS from the radio model), their scores and the
ranked list.  If the serving station no longer covers the terminal it
delivers a link-loss event first; then it records the list and hands it to
the controller.

Facts fixed for the run are computed once: the topology's coverage index,
each geometric network's sorted criteria and the stochastic walk's
network and criterion order (in the run's ``SynthesisState``), and each
weighted term's coefficient, floor and polarity (the ``terms`` a
``WeightProfile`` keeps for the scenario's catalog).  Coverage, sampling,
scoring and ranking are still called through this module's names, once
per unit, which the benchmark's layer probes wrap.  A (terminal, station)
attachment is built the first time the controller reads it, which
happens only when a handoff triggers.  A station's synthesized sample
depends only on (station, t), so it is taken once per tick and shared by
every terminal; the queue pops in time order and synthesis advances only
when time does, so a sample is dropped when the tick moves on.  When RSS
carries no weight a station's score does not depend on the terminal
either, so it too is computed once per (station, tick) and shared; when
RSS is weighted each terminal scores a copy of the sample with its own
RSS.

When no score reads RSS, the engine queries coverage on a copy of the
topology that does not measure it (``measure_rss=False``), so coverage
takes no per-station ``log10``.  The call stays ``coverage(pos, topology)``
through this module's name, which the benchmark's tracer wraps.

The values built per event, terminal-tick or record are immutable
NamedTuples, which cost no ``__setattr__`` per field to build: each
station's ``CriteriaVector`` and ``DesirabilityScore``, the controller's
``AnlUpdated`` event and ``ControllerState`` (with its ``PrepData`` and
``DwellTracker``), and a ``Trace``'s ``TraceRecord``.

A run makes no reference cycle: each record, payload and context value
is freed by reference counting once nothing holds it.  So the CLI runs
with the cycle collector paused, which would only scan them; a run called
as a library leaves the collector as its caller set it.

Records go to a sink: anything with ``append(t, terminal, kind, payload)``,
called once per record in trace order.  The default is a ``Trace``, which
keeps them; a ``metrics.MetricFolder`` folds them into metrics as they come
and keeps none, as the points of a ``sweep`` do.

Nothing in a terminal-tick's context reads the controller: the link-loss
check, the record and the controller step come after it.  A
``SharedContext`` keeps that context for several runs of one scenario that
differ only in ``controller``, as the points of a ``sweep`` worker do.  The
first run to reach a (terminal, t) computes it and later runs read it.
Their traces equal those of runs made alone, because every run asks for
the same terminal-ticks in the same order, whatever its controller, and
the context of each is a function of that order and of the scenario
outside ``controller``, to which the shared context is bound.  A plain
``run`` stores no context.

Nor does a terminal's context or controller read another terminal: each
tick advances synthesis for every station whichever terminals ask, so a
run over some of a scenario's terminals gives each of them the records it
gets in a run over all of them.  A sweep worker relies on this to run only
its own terminals.  A HandoffSimError raised while an event is processed
carries the event's ``(t, terminal)``, so the first failure of a run over
all terminals is the earliest of those of runs over parts of them.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator, Mapping
from typing import NamedTuple, Optional

from . import controller as ctl
from .context import CriteriaVector
from .desirability import AvailableNetworkList, DesirabilityScore, desirability, rank
from .errors import HandoffSimError
from .scenario import Scenario
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


def _plan_payload(plan: ctl.TriggerPlan) -> dict:
    return {**plan._asdict(), "why": plan.why.value}


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
        **rec._asdict(),
        "reason": rec.reason.value,
        "dvho_ms": rec.dvho_ms,
        "reject_reasons": list(rec.reject_reasons),
    }


class _Attachments(Mapping):
    """One terminal's attachment to each station, built the first time it is
    read: the controller reads them only when a handoff triggers."""

    def __init__(self, terminal: str, stations: Mapping[str, BaseStation]):
        self.terminal = terminal
        self.stations = stations
        self.built: dict[str, Attachment] = {}

    def __getitem__(self, station_id: str) -> Attachment:
        att = self.built.get(station_id)
        if att is None:
            bs = self.stations[station_id]
            att = self.built[station_id] = Attachment(
                terminal_id=self.terminal,
                provider_id=bs.provider_id,
                net_id=bs.net_id,
                cell_id=bs.id,
                channel_id=bs.channels[0],
                technology=bs.technology,
            )
        return att

    def __iter__(self) -> Iterator[str]:
        return iter(self.stations)

    def __len__(self) -> int:
        return len(self.stations)


class _Tick(NamedTuple):
    """The controller-independent context of one (terminal, t).  The list
    holds exactly the stations that cover the terminal."""

    anl: AvailableNetworkList
    payload: dict  # the ANL record's payload


class _Context:
    """Computes the context of each (terminal, t), asked in time order."""

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.synth = SynthesisState(scenario.synthesis)
        self.synth_t: Optional[int] = None
        # station -> (sample, score) at synth_t; the score is None when it
        # depends on the terminal's RSS.
        self.scored: dict[str, tuple[CriteriaVector, Optional[DesirabilityScore]]] = {}
        self.shared_scores = "RSS" not in scenario.weights.weights
        # When no score reads RSS, coverage queries leave it out.
        self.topology = (
            scenario.topology._replace(measure_rss=False)
            if self.shared_scores else scenario.topology
        )
        self.paths = {term.id: term.path for term in scenario.terminals}

    def at(self, terminal: str, now: int) -> _Tick:
        sc = self.sc
        if self.synth_t != now:
            self.synth.advance_to(now, sc.tick_ms)
            self.synth_t = now
            self.scored.clear()
        pos = advance_position(self.paths[terminal], now)
        covered = coverage(pos, self.topology)
        scores: list[DesirabilityScore] = []
        for bs, rss in covered:
            memo = self.scored.get(bs.id)
            if memo is None:
                vector = sample_context(bs.id, now, sc.synthesis, self.synth)
                score = None
                if self.shared_scores:
                    score = desirability(vector, sc.weights, sc.catalog, bs.id)
                memo = self.scored[bs.id] = (vector, score)
            vector, score = memo
            if score is None:
                values = dict(vector.values)
                values["RSS"] = rss
                score = desirability(CriteriaVector(values), sc.weights, sc.catalog, bs.id)
            scores.append(score)
        anl = rank(scores)
        return _Tick(anl, {"entries": [[net, score.value] for net, score in anl.entries]})


# Everything the context may depend on.
_KEYED = tuple(name for name in Scenario._fields if name not in ("controller", "raw"))


class SharedContext:
    """The context of a scenario's terminal-ticks, kept for several runs of
    that scenario that differ only in ``controller``.

    The first run binds it to its scenario.  A later run is accepted only
    when its scenario's fields outside ``controller`` are the very objects
    of the bound one's, as ``bound._replace(controller=...)`` makes; any
    other scenario, even one of equal content, raises ValueError.  The
    first run to reach a (terminal, t) computes its context and stores it,
    later runs read it.  Every run asks for the
    same (terminal, t) in the same order, whatever its controller, and an
    entry is stored only once complete, so a run that fails part way
    leaves a memo the next run can continue.
    """

    def __init__(self) -> None:
        self.context: Optional[_Context] = None
        self.ticks: dict[tuple[str, int], _Tick] = {}

    def bind(self, scenario: Scenario) -> Callable[[str, int], _Tick]:
        if self.context is None:
            self.context = _Context(scenario)
            return self.at
        bound = self.context.sc
        if any(getattr(scenario, name) is not getattr(bound, name) for name in _KEYED):
            raise ValueError("shared context: the scenario differs outside its controller")
        return self.at

    def at(self, terminal: str, now: int) -> _Tick:
        tick = self.ticks.get((terminal, now))
        if tick is None:
            tick = self.ticks[(terminal, now)] = self.context.at(terminal, now)
        return tick


class _Run:
    def __init__(self, scenario: Scenario, shared: Optional[SharedContext], sink):
        self.sc = scenario
        self.sink = sink
        self.record = sink.append
        self.states = {term.id: ctl.initial_state(term.id) for term in scenario.terminals}
        # Policy lookup keys on the terminal's application type.
        self.configs = {
            term.id: scenario.controller._replace(app_type=term.app_type)
            for term in scenario.terminals
        }
        stations = {bs.id: bs for bs in scenario.topology.stations}
        self.infos = {term.id: _Attachments(term.id, stations) for term in scenario.terminals}
        self.context = _Context(scenario).at if shared is None else shared.bind(scenario)
        self.heap: list = []
        self.seq = 0

    def push(self, at: int, terminal: str, rank_: int, kind: str) -> None:
        if at >= self.sc.duration_ms:
            return  # beyond the horizon; never processed
        self.seq += 1
        heapq.heappush(self.heap, (at, terminal, rank_, self.seq, kind))

    def deliver(self, terminal: str, event: ctl.Event, now: int, event_name: str) -> None:
        state = self.states[terminal]
        new_state, actions = ctl.step(state, event, self.configs[terminal], now)
        self.states[terminal] = new_state
        # _value_ skips the Enum ``value`` descriptor, twice per event.
        self.record(
            now,
            terminal,
            TRANSITION,
            {
                "event": event_name,
                "from": state.phase._value_,
                "to": new_state.phase._value_,
                "attached": new_state.current,
                "actions": [_action_payload(a) for a in actions],
            },
        )
        for action in actions:
            if isinstance(action, ctl.ScheduleTimer):
                self.push(action.at, terminal, _RANK_TIMER, action.kind)
            elif isinstance(action, ctl.RecordHandoff):
                self.record(now, terminal, HANDOFF, _record_payload(action.record))

    def context_tick(self, terminal: str, now: int) -> None:
        tick = self.context(terminal, now)
        current = self.states[terminal].current
        if current is not None and current not in tick.anl.values:
            self.deliver(terminal, ctl.CurrentLinkLost(), now, "link_lost")
        self.record(now, terminal, ANL, tick.payload)
        self.deliver(terminal, ctl.AnlUpdated(tick.anl, self.infos[terminal]), now, "anl_updated")
        self.push(now + self.sc.tick_ms, terminal, _RANK_CONTEXT, "context")

    def timer(self, terminal: str, kind: str, now: int) -> None:
        if kind == "switch":
            self.deliver(terminal, ctl.SwitchComplete(), now, "switch_complete")
        else:
            self.deliver(terminal, ctl.TimerFired(kind="eval", at=now), now, "timer_eval")

    def execute(self):
        sc = self.sc
        self.record(
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
            self.record(0, tid, INIT, {"phase": ctl.Phase.DISCONNECTION.value})
        for tid in sorted(self.states):
            self.push(0, tid, _RANK_CONTEXT, "context")
        try:
            while self.heap:
                at, terminal, rank_, _, kind = heapq.heappop(self.heap)
                if kind == "context":
                    self.context_tick(terminal, at)
                else:
                    self.timer(terminal, kind, at)
        except HandoffSimError as exc:
            exc.at = (at, terminal)
            raise
        return self.sink


def run(scenario: Scenario, shared: Optional[SharedContext] = None, sink=None):
    """Simulate a validated scenario, hand each record in trace order to
    ``sink.append(t, terminal, kind, payload)``, and return the sink: by
    default a new ``Trace``.

    With ``shared``, the controller-independent context of each
    terminal-tick is read from it, or computed and stored there; without
    it, the run stores none.  A HandoffSimError raised by an event carries
    that event's ``(t, terminal)`` in its ``at`` attribute.
    """
    return _Run(scenario, shared, Trace() if sink is None else sink).execute()
