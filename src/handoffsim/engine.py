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

The parsed scenario holds only data.  A run resolves what stays fixed for
it once, in ``_Context.__init__``: the weight terms (``weighted_terms``),
the topology's ``CoverageIndex``, each station's path-loss parameters when
RSS is weighted, and a ``SynthesisState`` seeded with the scenario's seed,
which holds each geometric network's sorted criteria and the stochastic
walk's network and criterion order.  Sampling, scoring and ranking are
still called through this module's names, once per unit, and coverage
through its name whenever it is asked; the benchmark's layer probes wrap
these names.  A run keeps one ``StationTypes``, which every
terminal and point shares: the type of a handoff between two stations is
classified the first time the controller reads it, which happens only
when a handoff triggers.  A station's synthesized sample depends only on
(station, t), so it is taken once per tick and shared by every terminal;
the queue pops in time order and synthesis advances only when time does,
so a sample is dropped when the tick moves on.  A sample is a
plain dict of criterion values and a score a float, listed as a
(station, score) pair.  When RSS carries no weight a station's score does
not depend on the terminal either, so its entry is built once per
(station, tick): one (station, score) pair, which every terminal's ranked
list of that tick holds, and one ``[station, score]`` list, which every
``anl`` payload of that tick holds.  When RSS is weighted each terminal
scores a copy of the sample with its own RSS, and gets entries of its own.

Coverage answers only which stations cover a position, by id, and the
answer's reach: how far the position can move before it may change.  Every
run keeps a terminal's answer for as long as the terminal, at its path's
top speed, needs to move that far, and asks coverage again only after
that.  A run that weights RSS computes it with ``rss_at`` each tick, for
each station the terminal's answer holds, at the terminal's position then;
one that does not skips interpolation too while the answer holds.

The values built per event or record are immutable named tuples, which
cost no ``__setattr__`` per field to build: the ranked
``AvailableNetworkList``, the controller's ``AnlUpdated`` event and
``ControllerState`` (with its ``PrepData``), and a ``Trace``'s
``TraceRecord``.  Those built once per terminal-tick or record (the list,
the event, the ``ControllerState`` an ANL step returns and the record) are
built with ``tuple.__new__``, which skips the generated ``__new__`` frame,
and a context is handed on as a plain (list, payload) pair.

A run makes no reference cycle: each record, payload and context value
is freed by reference counting once nothing holds it.  So the CLI runs
with the cycle collector paused, which would only scan them; a run called
as a library leaves the collector as its caller set it.

Records go to a sink: anything with ``append(t, terminal, kind, payload)``,
called once per record in trace order.  The default is a ``Trace``, which
keeps them; a ``metrics.MetricFolder`` folds them into metrics as they come
and keeps only the parts its metrics read, as the points of a ``sweep``
do.  A sink may keep a payload it is handed, and nothing mutates a payload
once it is appended: the same payload goes to every point's sink, and an
``anl`` entry list is shared by every record that lists that station at
that tick.

Nothing in a terminal-tick's context reads the controller: the link-loss
check, the record and the controller step come after it.  So one pass can
run a scenario under several controllers, as the points of a ``sweep``
worker do: each point keeps its one configuration, which steps every
terminal, and its own controller states and sink; each (terminal, t)
context is computed once and handed to every point still running, in
point order, and each point's timers are queued with the point under the
key a run alone gives them.  Each point's records equal those of its run
alone.  A controller error stops only its point; an error in the context
stops every running point at that event.

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
import math
from operator import itemgetter
from typing import Optional

from . import controller as ctl
from .desirability import AvailableNetworkList, desirability, rank, weighted_terms
from .errors import HandoffSimError
from .scenario import CONTROLLER_NUMBERS, ControllerConfig, Scenario
from .synthesis import SynthesisState, sample_context
from .taxonomy import StationTypes
from .topology import CoverageIndex, coverage, rss_at, tier_path_loss
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


def _moves(path: tuple[tuple[int, Position], ...]) -> tuple[float, float]:
    """(slack, pace) of a path: how far, in meters, rounding can put an
    interpolated position off the exact line, and the milliseconds per
    meter at its top segment speed, rounded up.  A terminal that moved for
    ``(reach - slack) * pace`` ms or less has moved less than ``reach``.
    A parked path has an infinite pace; a non-finite one gives a NaN or
    non-positive window, so its coverage is asked every tick."""
    slack = 1e-9 * (1.0 + sum(abs(x) + abs(y) for _, (x, y) in path))
    top = max(
        (math.hypot(p1[0] - p0[0], p1[1] - p0[1]) / (t1 - t0)
         for (t0, p0), (t1, p1) in zip(path, path[1:])),
        default=0.0,
    ) * (1.0 + 1e-9)
    return slack, 1.0 / top if top > 0.0 else math.inf


def _action_payload(action: ctl.Action) -> dict:
    if isinstance(action, ctl.Connect):
        return {"connect": action.network}
    if isinstance(action, ctl.StartSwitch):
        rec = action.flight
        return {"start_switch": {"why": rec.reason.value, "where": rec.to_net, "how": rec.method,
                                 "who": f"hce:{rec.terminal}", "when": rec.t_trigger}}
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


_net = itemgetter(0)


class _TickEntries(dict):
    """One tick's entries when no score reads RSS: station id -> the
    station's (id, score) pair, sampled and scored on the first ask, and in
    ``lists`` its ``[id, score]`` list for the tick's ``anl`` payloads.  It
    holds the state and the terms, not the ``_Context`` that holds it, so
    it makes no reference cycle."""

    __slots__ = ("synth", "terms", "now", "lists")

    def __init__(self, synth: SynthesisState, terms, now: int):
        self.synth, self.terms, self.now = synth, terms, now
        self.lists: dict[str, list] = {}

    def __missing__(self, sid: str) -> tuple[str, float]:
        score = desirability(sample_context(sid, self.now, self.synth), self.terms)
        self.lists[sid] = [sid, score]
        pair = self[sid] = (sid, score)
        return pair


class _Context:
    """Computes the context of each (terminal, t), asked in time order."""

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.synth = SynthesisState(scenario.synthesis, scenario.seed)
        self.terms = weighted_terms(scenario.weights, scenario.catalog)
        # With RSS weighted, station id -> (station, path-loss parameters).
        topo = scenario.topology
        self.radio = {
            bs.id: (bs, tier_path_loss(bs.tier, topo.path_loss_overrides))
            for bs in topo.stations
        } if "RSS" in scenario.weights.weights else None
        # The tick's shared entries, or with RSS weighted its samples.
        self.entries: Optional[_TickEntries] = None
        self.samples: dict[str, dict[str, float]] = {}
        self.index = CoverageIndex(topo)
        # Terminal id -> (path, slack, pace).  A terminal's covering station
        # ids are kept, with (since, window), until the terminal may have
        # moved as far as the answer's reach.
        self.paths = {term.id: (term.path, *_moves(term.path)) for term in scenario.terminals}
        self.held: dict[str, tuple[int, float, list[str]]] = {}

    def at(self, terminal: str, now: int) -> tuple[AvailableNetworkList, dict]:
        """The controller-independent context of (terminal, now): the ranked
        list of exactly the stations that cover the terminal, and the ANL
        record's payload."""
        sc = self.sc
        if self.synth.t != now:
            self.synth.advance_to(now, sc.tick_ms)
            if self.radio is None:
                self.entries = _TickEntries(self.synth, self.terms, now)
            else:
                self.samples.clear()
        held = self.held.get(terminal)
        if held is not None and now - held[0] < held[1]:
            ids = held[2]
            pos = None
        else:
            path, slack, pace = self.paths[terminal]
            pos = advance_position(path, now)
            ids = coverage(pos, self.index)
            self.held[terminal] = (now, (ids.reach - slack) * pace, ids)
        radio = self.radio
        if radio is None:
            entries = self.entries
            anl = rank(list(map(entries.__getitem__, ids)))
            return anl, {"entries": list(map(entries.lists.__getitem__, map(_net, anl.entries)))}
        if pos is None:
            pos = advance_position(self.paths[terminal][0], now)
        samples = self.samples
        scores: list[tuple[str, float]] = []
        for sid in ids:
            values = samples.get(sid)
            if values is None:
                values = samples[sid] = sample_context(sid, now, self.synth)
            station, params = radio[sid]
            scores.append((sid, desirability({**values, "RSS": rss_at(pos, station, params)},
                                             self.terms)))
        anl = rank(scores)
        return anl, {"entries": list(map(list, anl.entries))}


class _Point:
    """One controller's side of a run: its configuration, which steps every
    terminal, each terminal's controller state, the sink its records go to,
    and the error that stopped it, if any."""

    def __init__(self, scenario: Scenario, controller: ControllerConfig, sink):
        self.controller = controller
        self.sink = sink
        self.record = sink.append
        self.states = {
            term.id: ctl.initial_state(term.id, term.app_type) for term in scenario.terminals
        }
        self.error: Optional[HandoffSimError] = None


class _Run:
    def __init__(self, scenario: Scenario, points):
        self.sc = scenario
        self.points = [_Point(scenario, controller, sink) for controller, sink in points]
        self.live = self.points
        self.types = StationTypes(scenario.topology.stations)
        self.context = _Context(scenario).at
        self.heap: list = []
        self.seq = 0

    def push(self, at: int, terminal: str, rank_: int, kind: str, point=None) -> None:
        if at >= self.sc.duration_ms:
            return  # beyond the horizon; never processed
        self.seq += 1
        heapq.heappush(self.heap, (at, terminal, rank_, self.seq, kind, point))

    def fail(self, points: list[_Point], exc: HandoffSimError, at: int, terminal: str) -> None:
        exc.at = (at, terminal)
        for point in points:
            point.error = exc
        self.live = [point for point in self.live if point.error is None]

    def deliver(self, point: _Point, terminal: str, event: ctl.Event, now: int,
                event_name: str) -> None:
        state = point.states[terminal]
        new_state, actions = ctl.step(state, event, point.controller, now)
        point.states[terminal] = new_state
        # _value_ skips the Enum ``value`` descriptor, twice per event.
        point.record(
            now,
            terminal,
            TRANSITION,
            {
                "event": event_name,
                "from": state.phase._value_,
                "to": new_state.phase._value_,
                "attached": new_state.current,
                "actions": list(map(_action_payload, actions)),
            },
        )
        for action in actions:
            if isinstance(action, ctl.ScheduleTimer):
                self.push(action.at, terminal, _RANK_TIMER, action.kind, point)
            elif isinstance(action, ctl.RecordHandoff):
                point.record(now, terminal, HANDOFF, _record_payload(action.record))

    def context_tick(self, terminal: str, now: int) -> None:
        try:
            anl, payload = self.context(terminal, now)
        except HandoffSimError as exc:
            self.fail(self.live, exc, now, terminal)
            return
        values = anl.values
        event = tuple.__new__(ctl.AnlUpdated, (anl, self.types))
        for point in self.live:
            try:
                current = point.states[terminal].current
                if current is not None and current not in values:
                    self.deliver(point, terminal, ctl.CurrentLinkLost(), now, "link_lost")
                point.record(now, terminal, ANL, payload)
                self.deliver(point, terminal, event, now, "anl_updated")
            except HandoffSimError as exc:
                self.fail([point], exc, now, terminal)
        self.push(now + self.sc.tick_ms, terminal, _RANK_CONTEXT, "context")

    def timer(self, point: _Point, terminal: str, kind: str, now: int) -> None:
        try:
            if kind == "switch":
                self.deliver(point, terminal, ctl.SwitchComplete(), now, "switch_complete")
            else:
                self.deliver(point, terminal, ctl.TimerFired(now), now, "timer_eval")
        except HandoffSimError as exc:
            self.fail([point], exc, now, terminal)

    def execute(self) -> list:
        sc = self.sc
        terminals = sorted(term.id for term in sc.terminals)
        for point in self.points:
            cfg = point.controller
            point.record(
                0,
                None,
                INIT,
                {
                    "seed": sc.seed,
                    "duration_ms": sc.duration_ms,
                    "tick_ms": sc.tick_ms,
                    "controller": {
                        **{name: getattr(cfg, name) for name in CONTROLLER_NUMBERS},
                        "strategy": cfg.strategy.value,
                    },
                    "stations": sorted(bs.id for bs in sc.topology.stations),
                    "terminals": terminals,
                    "metrics_constants": dict(sorted(sc.metrics_constants.items())),
                },
            )
            for tid in terminals:
                point.record(0, tid, INIT, {"phase": ctl.Phase.DISCONNECTION.value})
        for tid in terminals:
            self.push(0, tid, _RANK_CONTEXT, "context")
        heap = self.heap
        while heap and self.live:
            at, terminal, _, _, kind, point = heapq.heappop(heap)
            if point is None:
                self.context_tick(terminal, at)
            elif point.error is None:
                self.timer(point, terminal, kind, at)
        return [point.sink if point.error is None else point.error for point in self.points]


def run(scenario: Scenario, sink=None, points=None):
    """Simulate a validated scenario, hand each record in trace order to
    ``sink.append(t, terminal, kind, payload)``, and return the sink: by
    default a new ``Trace``.  A HandoffSimError raised by an event carries
    that event's ``(t, terminal)`` in its ``at`` attribute.

    With ``points``, (controller, sink) pairs, one pass runs the scenario
    under each controller in place of its own, each point's records going
    to its sink, and returns a list with each point's sink, or the
    HandoffSimError that stopped it.
    """
    if points is not None:
        if sink is not None:
            raise TypeError("run: with points, each point carries its own sink")
        return _Run(scenario, points).execute()
    (outcome,) = _Run(scenario, [(scenario.controller, Trace() if sink is None else sink)]).execute()
    if isinstance(outcome, HandoffSimError):
        raise outcome
    return outcome
