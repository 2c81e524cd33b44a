"""Handoff controller: trigger predicates, planning, and the five-phase machine.

The controller walks a terminal through five phases:

  Disconnection -> Initiation -> Preparation -> Execution -> Evaluation

Initiation watches the ranked network list.  Preparation tracks one target
and decides whether a switch is justified; it may roll back.  Execution is
committed: once a switch starts nothing cancels it, and the machine can
only move forward into Evaluation, which grades the finished handoff and
returns to Initiation.

Each gate answers only what ``step`` asks of it, so each rule is written once:

* Entry into Preparation: ``_on_anl`` enters when the best other network's
  listed score beats the serving one's and, under the proactive strategy,
  also when ``crossing_predicted`` foresees that within ``prep_latency`` ms.
* ``sufficiently_better``: the target clears the hysteresis margin.
* ``consistently_better``: the margin has held for the dwell time.
* ``handoff_reason``, asked once both hold: imperative (serving utility
  below the lower threshold), opportunist (above the upper), or none, and
  the machine stays in Preparation.
* ``evaluate``: a finished handoff's rejection reasons; none means accepted.

``step`` is a pure function: the returned state and actions depend only on
the inputs.  All per-terminal memory lives inside ControllerState: the
terminal's application type, which keys its policy lookup, the last seen
network list and, from trigger to evaluation, the handoff under way as the
HandoffRecord it will emit, filled in phase by phase; the trigger's
``StartSwitch`` carries that record as it stands then.  Every value here
(the state, events, actions and records) is a NamedTuple: immutable, and
built without a ``__setattr__`` per field; so is the configuration, which
the scenario schema defines (``scenario.ControllerConfig``) and every
terminal of a run shares.  A NamedTuple equals any tuple of equal
fields whatever its type (``CurrentLinkLost()`` equals ``SwitchComplete()``,
and ``ScheduleTimer("eval", t)`` equals ``("eval", t)``), so ``step`` and
its callers tell events and actions apart with ``isinstance``.

The proactive gate extrapolates each network's score from two samples:
the one in the current list and the previous one.  A network's previous
sample is its score in the last list, stamped with the time of that ANL
step; the serving network, when that list left it out, keeps the last
sample it had (``held``).  Older samples are never read, so the state keeps
O(1) memory per step and ``step`` does no merge and no sort.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple, Optional, Union

from .context import GoalSpec, goal_holds
from .desirability import AvailableNetworkList, best
from .errors import IllegalEventError
from .scenario import MEASURED, ControllerConfig, Strategy
from .taxonomy import StationTypes


class Phase(Enum):
    DISCONNECTION = "disconnection"
    INITIATION = "initiation"
    PREPARATION = "preparation"
    EXECUTION = "execution"
    EVALUATION = "evaluation"


class Reason(Enum):
    IMPERATIVE = "imperative"
    OPPORTUNIST = "opportunist"


def sufficiently_better(uf_target: float, uf_curr: float, delta: float) -> bool:
    """Hysteresis gate: the target must clear the serving utility by delta."""
    return uf_target > uf_curr + delta


def consistently_better(
    since: Optional[int], now: int, sp: int, suffb_now: bool
) -> tuple[Optional[int], bool]:
    """Dwell gate: sufficiently-better must hold continuously for sp ms.

    Takes the time the condition started holding, or None, and returns it
    updated, with the verdict.  The boundary is inclusive: a condition that
    started at t is consistent at t + sp.  Any gap resets the clock; sp = 0
    passes at the first holding instant.
    """
    if not suffb_now:
        return None, False
    if since is None:
        since = now
    return since, (now - since) >= sp


def handoff_reason(uf_curr: float, uf_target: float, cfg: ControllerConfig) -> Optional[Reason]:
    """Why move to a target that has proven itself: imperative flight from
    a failing link, or an opportunist grab while comfortable (judged on the
    target's utility under ``opportunist_on_target``).  None: stay."""
    if uf_curr < cfg.th_inf:
        return Reason.IMPERATIVE
    if (uf_target if cfg.opportunist_on_target else uf_curr) > cfg.th_sup:
        return Reason.OPPORTUNIST
    return None


Sample = tuple[int, float]


def crossing_predicted(
    curr_prev: Optional[Sample], curr: Sample,
    tgt_prev: Optional[Sample], tgt: Sample, prep_latency: int,
) -> bool:
    """Proactive entry: a straight line through each network's previous and
    current (t, score) samples has the target overtaking the serving
    network within prep_latency ms.  With no previous sample for either
    network nothing is predicted.
    """
    if curr_prev is None or tgt_prev is None:
        return False
    closing = _slope(tgt_prev, tgt) - _slope(curr_prev, curr)
    gap = curr[1] - tgt[1]
    # Durations, not instants: adding the current time to both sides would
    # round them differently at different absolute times.
    return closing > 0.0 and gap / closing <= prep_latency


def _slope(p0: Sample, p1: Sample) -> float:
    (t0, v0), (t1, v1) = p0, p1
    if t1 == t0:  # two lists at one time: step takes any event sequence
        return 0.0
    return (v1 - v0) / (t1 - t0)


def evaluate(
    network: str,
    measured: Mapping[str, float],
    anl: Optional[AvailableNetworkList],
    regions: Mapping[str, GoalSpec],
) -> tuple[str, ...]:
    """Grade a finished handoff: the reasons to reject it, in a stable
    order; none means accepted.

    Accepted when the terminal landed on the head of the current list and
    every configured objective measure sits inside its region.  A region
    over a measure missing from ``measured`` counts as a violation rather
    than passing silently.
    """
    reasons = []
    head = best(anl) if anl is not None else None
    if head != network:
        reasons.append("NotBest")
    for metric_id in sorted(regions):
        value = measured.get(metric_id)
        if value is None or not goal_holds(value, regions[metric_id]):
            reasons.append(metric_id)
    return tuple(reasons)


class HandoffRecord(NamedTuple):
    """One handoff attempt, from its trigger to its evaluation.

    The controller builds it at the trigger, hands it out in the
    ``StartSwitch`` action, and carries it as ``ControllerState.flight``:
    ``t_switch_done`` is None until the switch completes, and
    ``t_eval_done``, ``uf_new`` and ``accepted`` are None until the
    evaluation ends it.  An emitted record has every field set.
    """

    terminal: str
    from_net: str
    to_net: str
    reason: Reason
    ho_type: str
    method: str
    t_prep: int
    t_trigger: int
    t_switch_done: Optional[int]
    t_eval_done: Optional[int]
    uf_old: float
    uf_new: Optional[float]
    accepted: Optional[bool]
    reject_reasons: tuple[str, ...] = ()

    @property
    def dvho_ms(self) -> int:
        # Total vertical-handoff span: first preparation to evaluation done.
        return self.t_eval_done - self.t_prep


# ---------------------------------------------------------------------------
# Events


class AnlUpdated(NamedTuple):
    """A new ranked list; ``types`` gives a handoff's type by its stations."""

    anl: AvailableNetworkList
    types: StationTypes


class CurrentLinkLost(NamedTuple):
    pass


class SwitchComplete(NamedTuple):
    pass


class TimerFired(NamedTuple):
    """An evaluation timer, armed for ``at``."""

    at: int


Event = Union[AnlUpdated, CurrentLinkLost, SwitchComplete, TimerFired]


# ---------------------------------------------------------------------------
# Actions


class Connect(NamedTuple):
    network: str


class StartSwitch(NamedTuple):
    flight: HandoffRecord  # the record as built at the trigger


class ScheduleTimer(NamedTuple):
    kind: str  # "switch" | "eval"
    at: int


class RecordHandoff(NamedTuple):
    record: HandoffRecord


Action = Union[Connect, StartSwitch, ScheduleTimer, RecordHandoff]


# ---------------------------------------------------------------------------
# Controller state


class PrepData(NamedTuple):
    target: str
    entered_at: int
    since: Optional[int] = None  # when sufficiently-better started holding


class ControllerState(NamedTuple):
    terminal: str
    phase: Phase = Phase.DISCONNECTION
    current: Optional[str] = None
    prep: Optional[PrepData] = None
    flight: Optional[HandoffRecord] = None  # the handoff under way
    last_anl: Optional[AvailableNetworkList] = None
    anl_at: Optional[int] = None  # time of the ANL step that saw last_anl
    # (network, (t, score)): the serving network's last sample while
    # last_anl leaves it out.
    held: Optional[tuple[str, Sample]] = None
    app_type: str = "*"  # the terminal's application type: its policy key


def initial_state(terminal: str, app_type: str = "*") -> ControllerState:
    """A terminal's machine before its first event: disconnected, with the
    application type its handoffs look their method up under."""
    return ControllerState(terminal=terminal, app_type=app_type)


def latest_sample(state: ControllerState, net: Optional[str]) -> Optional[Sample]:
    """The last (t, score) sample the machine holds for a network, or None:
    its score in the last list, else the held sample of the serving one."""
    if state.last_anl is not None:
        value = state.last_anl.values.get(net)
        if value is not None:
            return state.anl_at, value
    held = state.held
    if held is not None and held[0] == net:
        return held[1]
    return None


def _candidate(anl: AvailableNetworkList, current: str) -> Optional[str]:
    # Best-ranked network other than the serving one.
    for nid, _ in anl.entries:
        if nid != current:
            return nid
    return None


def step(
    state: ControllerState, event: Event, cfg: ControllerConfig, now: int
) -> tuple[ControllerState, tuple[Action, ...]]:
    """Advance the machine by one event.

    Pure: no hidden state, no clock reads.  Undefined (phase, event) pairs
    raise IllegalEventError; stale evaluation timers are ignored.
    """
    if isinstance(event, AnlUpdated):
        return _on_anl(state, event, cfg, now)
    if isinstance(event, CurrentLinkLost):
        return _on_link_lost(state, cfg, now)
    if isinstance(event, SwitchComplete):
        return _on_switch_complete(state, cfg, now)
    if isinstance(event, TimerFired):
        return _on_timer(state, event, cfg, now)
    raise IllegalEventError(state.phase, event)


def _on_anl(state, event, cfg, now):
    # Every field of the next state is settled first, then built once.
    anl = event.anl
    held = None
    if state.current is not None and state.current not in anl.values:
        sample = latest_sample(state, state.current)
        if sample is not None:
            held = (state.current, sample)
    phase, current, prep, flight = state.phase, state.current, state.prep, state.flight
    actions = ()

    if phase is Phase.DISCONNECTION:
        head = best(anl)
        if head is not None:
            phase, current = Phase.INITIATION, head
            actions = (Connect(head),)
    elif phase in (Phase.EXECUTION, Phase.EVALUATION):
        pass  # Committed; keep absorbing context for the eventual evaluation.
    elif current not in anl.values:
        # The serving network is no longer listed.
        phase, current, prep = Phase.DISCONNECTION, None, None
    else:
        cand = _candidate(anl, current)
        d_curr = anl.values[current]
        d_tgt = None if cand is None else anl.values[cand]
        # The entry rule: the candidate's listed score beats the serving
        # one; a proactive controller also enters on a predicted crossing.
        if cand is None or not (
            d_tgt > d_curr
            or cfg.strategy is Strategy.PROACTIVE
            and crossing_predicted(
                latest_sample(state, current), (now, d_curr),
                latest_sample(state, cand), (now, d_tgt), cfg.prep_latency,
            )
        ):
            if phase is Phase.PREPARATION:
                # The serving network is the best choice again: roll back.
                phase, prep = Phase.INITIATION, None
        else:
            if phase is Phase.INITIATION:
                prep = PrepData(target=cand, entered_at=now)
            elif cand != prep.target:
                # Retargeting restarts the dwell clock.
                prep = PrepData(target=cand, entered_at=prep.entered_at)
            phase = Phase.PREPARATION
            suffb = sufficiently_better(d_tgt, d_curr, cfg.hysteresis_delta)
            since, conb = consistently_better(prep.since, now, cfg.dwell_sp, suffb)
            reason = handoff_reason(d_curr, d_tgt, cfg) if conb else None
            if reason is None:
                prep = PrepData(prep.target, prep.entered_at, since)
            else:
                # All gates passed: start switching, and carry the record
                # this handoff will emit.
                ho_type = event.types[current, cand]
                flight = HandoffRecord(
                    terminal=state.terminal, from_net=current, to_net=cand, reason=reason,
                    ho_type=ho_type.code,
                    method=cfg.policy.lookup(ho_type.layer, state.app_type),
                    t_prep=prep.entered_at, t_trigger=now, t_switch_done=None,
                    t_eval_done=None, uf_old=d_curr, uf_new=None, accepted=None,
                )
                phase, current, prep = Phase.EXECUTION, None, None
                actions = (StartSwitch(flight), ScheduleTimer("switch", now + cfg.exec_latency))

    # tuple.__new__ skips the generated __new__ frame: every field is given.
    fields = (state.terminal, phase, current, prep, flight, anl, now, held, state.app_type)
    return tuple.__new__(ControllerState, fields), actions


def _on_link_lost(state, cfg, now):
    if state.phase in (Phase.INITIATION, Phase.PREPARATION):
        return (
            state._replace(phase=Phase.DISCONNECTION, current=None, prep=None),
            (),
        )
    if state.phase is Phase.EVALUATION:
        # The new link died under evaluation: record the failure at once.
        record = state.flight._replace(t_eval_done=now, uf_new=_uf_new(state), accepted=False,
                                       reject_reasons=("LinkLost",))
        st = state._replace(phase=Phase.DISCONNECTION, current=None, flight=None)
        return st, (RecordHandoff(record),)
    raise IllegalEventError(state.phase, CurrentLinkLost())


def _on_switch_complete(state, cfg, now):
    if state.phase is not Phase.EXECUTION:
        raise IllegalEventError(state.phase, SwitchComplete())
    target = state.flight.to_net
    st = state._replace(
        phase=Phase.EVALUATION,
        current=target,
        flight=state.flight._replace(t_switch_done=now),
    )
    return st, (Connect(target), ScheduleTimer("eval", now + cfg.eval_latency))


def _on_timer(state, event, cfg, now):
    flight = state.flight
    if state.phase is not Phase.EVALUATION or event.at != flight.t_switch_done + cfg.eval_latency:
        # A timer armed for an evaluation that already ended; drop it.  A
        # later switch completes later, so an earlier deadline never matches.
        return state, ()
    when = flight.t_trigger
    uf_new = _uf_new(state)
    values = (
        uf_new,
        float(flight.t_switch_done - when),
        float(when - flight.t_prep),
        float(flight.t_switch_done - when),
        float(now - flight.t_switch_done),
        float(now - flight.t_prep),
        uf_new / flight.uf_old if flight.uf_old != 0.0 else None,  # no ratio to a zero base
    )
    measured = {mid: v for mid, v in zip(MEASURED, values, strict=True) if v is not None}
    reasons = evaluate(state.current, measured, state.last_anl, cfg.success_regions)
    record = flight._replace(t_eval_done=now, uf_new=uf_new, accepted=not reasons,
                             reject_reasons=reasons)
    return state._replace(phase=Phase.INITIATION, flight=None), (RecordHandoff(record),)


def _uf_new(state) -> float:
    sample = latest_sample(state, state.current)
    return state.flight.uf_old if sample is None else sample[1]
