"""A plain reference for a whole run: every record of ``engine.run(sc)``,
worked out by one loop per terminal.

The ``anl`` payloads are ``reference_context.anl_records(sc)``'s.  Each
terminal runs alone, from ``controller.initial_state``, with a sorted list
of its pending timers, as (at, order scheduled, kind).  At each tick t it:

- fires its timers due before t;
- steps ``CurrentLinkLost`` if its network is not in the tick's list;
- writes the ``anl`` record and steps ``AnlUpdated`` with the list;
- fires its timers due at t, those the steps at t scheduled included.

A timer due at or past ``duration_ms`` is never queued, and after the last
tick the rest fire.  A ``switch`` timer steps ``SwitchComplete``, any other
``TimerFired``.  There is no event queue, no shared context and no second
controller: the trace is the init records, then every terminal's records
merged by a stable sort on (t, terminal).  Only the controller's ``step``
and the engine's action and handoff payloads are the program's.
"""

import bisect
from collections import defaultdict

from handoffsim import controller as ctl
from handoffsim.desirability import AvailableNetworkList
from handoffsim.engine import _action_payload, _record_payload
from handoffsim.scenario import CONTROLLER_NUMBERS
from handoffsim.taxonomy import StationTypes
from reference_context import anl_records


def _terminal_records(sc, cfg, term, anls, types):
    """(t, terminal, kind, payload) of one terminal's records, in order."""
    state = ctl.initial_state(term.id, term.app_type)
    timers, out = [], []
    order = 0

    def deliver(event, name, now):
        nonlocal state, order
        before = state
        state, actions = ctl.step(state, event, cfg, now)
        out.append((now, term.id, "transition", {
            "event": name, "from": before.phase.value, "to": state.phase.value,
            "attached": state.current, "actions": [_action_payload(a) for a in actions],
        }))
        for action in actions:
            if isinstance(action, ctl.ScheduleTimer) and action.at < sc.duration_ms:
                order += 1
                bisect.insort(timers, (action.at, order, action.kind))
            elif isinstance(action, ctl.RecordHandoff):
                out.append((now, term.id, "handoff", _record_payload(action.record)))

    def fire(until):
        while timers and timers[0][0] <= until:
            at, _, kind = timers.pop(0)
            if kind == "switch":
                deliver(ctl.SwitchComplete(), "switch_complete", at)
            else:
                deliver(ctl.TimerFired(at), "timer_eval", at)

    for t, payload in anls:
        fire(t - 1)
        anl = AvailableNetworkList(tuple(map(tuple, payload["entries"])))
        if state.current is not None and state.current not in anl.values:
            deliver(ctl.CurrentLinkLost(), "link_lost", t)
        out.append((t, term.id, "anl", payload))
        deliver(ctl.AnlUpdated(anl, types), "anl_updated", t)
        fire(t)
    fire(sc.duration_ms)
    return out


def run_records(sc, cfg=None):
    """(t, terminal, kind, payload) of every record of ``engine.run(sc)``, or
    of its point under the controller ``cfg``, in trace order."""
    cfg = sc.controller if cfg is None else cfg
    terminals = sorted(term.id for term in sc.terminals)
    init = [(0, None, "init", {
        "seed": sc.seed, "duration_ms": sc.duration_ms, "tick_ms": sc.tick_ms,
        "controller": {**{name: getattr(cfg, name) for name in CONTROLLER_NUMBERS},
                       "strategy": cfg.strategy.value},
        "stations": sorted(bs.id for bs in sc.topology.stations),
        "terminals": terminals,
        "metrics_constants": dict(sorted(sc.metrics_constants.items())),
    })]
    init += [(0, tid, "init", {"phase": ctl.Phase.DISCONNECTION.value}) for tid in terminals]
    anls = defaultdict(list)
    for t, tid, payload in anl_records(sc):
        anls[tid].append((t, payload))
    types = StationTypes(sc.topology.stations)
    records = []
    for term in sc.terminals:
        records += _terminal_records(sc, cfg, term, anls[term.id], types)
    records.sort(key=lambda r: (r[0], r[1]))
    return init + records
