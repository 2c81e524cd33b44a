"""Handoff controller: trigger predicates, planning, and the five-phase machine.

The controller walks a terminal through five phases:

  Disconnection -> Initiation -> Preparation -> Execution -> Evaluation

Initiation watches the ranked network list.  Preparation tracks one target
and decides whether a switch is justified; it may roll back.  Execution is
committed: once a switch starts nothing cancels it, and the machine can
only move forward into Evaluation, which grades the finished handoff and
returns to Initiation.

Triggers are gated three ways: the target must be sufficiently better than
the serving network (a hysteresis margin), it must have stayed that way
for a configured dwell time, and the serving network's utility must supply
a reason to move at all: imperative (below the lower threshold) or
opportunist (above the upper threshold).

``step`` is a pure function: the returned state and actions depend only on
the inputs.  All mutable memory (the last seen network list, the in-flight
handoff) lives inside ControllerState.  Every value here (the state, the
configuration, events, actions, plans and records) is a NamedTuple:
immutable, and built without a ``__setattr__`` per field.  Two of them with
equal fields compare equal whatever their types (``ScheduleTimer`` and
``TimerFired``, ``CurrentLinkLost`` and ``SwitchComplete``), so ``step``
and its callers tell events and actions apart with ``isinstance``.

The proactive gate extrapolates each network's score from two samples:
the one in the current list and the previous one.  A network's previous
sample is its score in the last list, stamped with the time of that ANL
step; the serving network, when that list left it out, keeps the last
sample it had (``held``).  Older samples are never read, so the state keeps
O(1) memory per step and ``step`` does no merge and no sort.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .context import GoalSpec, goal_holds
from .desirability import AvailableNetworkList, best
from .errors import IllegalEventError, PolicyGapError
from .taxonomy import Attachment, Layer, classify


class Phase(Enum):
    DISCONNECTION = "disconnection"
    INITIATION = "initiation"
    PREPARATION = "preparation"
    EXECUTION = "execution"
    EVALUATION = "evaluation"


class Reason(Enum):
    IMPERATIVE = "imperative"
    OPPORTUNIST = "opportunist"


class Strategy(Enum):
    REACTIVE = "reactive"
    PROACTIVE = "proactive"


DEFAULT_LAYER_METHODS: Mapping[Layer, str] = {
    Layer.L1: "MAHO",
    Layer.L2: "MAHO",
    Layer.L3: "MIP",
    Layer.L4_7: "SIP",
}


class PolicyTable(NamedTuple):
    """Maps (layer, application type) to a handoff method label.

    Lookup tries the exact key first, then the wildcard ("*") application
    type, then the per-layer defaults.  A user-supplied table with no
    applicable entry and no default for the layer is a configuration gap
    and raises.
    """

    entries: Mapping[tuple[str, str], str] = {}
    defaults: Mapping[Layer, str] = DEFAULT_LAYER_METHODS

    def lookup(self, layer: Layer, app_type: str) -> str:
        for key in ((layer.value, app_type), (layer.value, "*")):
            if key in self.entries:
                return self.entries[key]
        if layer in self.defaults:
            return self.defaults[layer]
        raise PolicyGapError((layer.value, app_type))


DEFAULT_POLICY = PolicyTable()


class ControllerConfig(NamedTuple):
    hysteresis_delta: float = 0.5
    th_sup: float = 8.0
    th_inf: float = 2.0
    dwell_sp: int = 200
    prep_latency: int = 100
    exec_latency: int = 100
    eval_latency: int = 100
    strategy: Strategy = Strategy.REACTIVE
    app_type: str = "*"
    # Alternative opportunist reading: judge the candidate's utility against
    # th_sup instead of the serving network's.  Off by default.
    opportunist_on_target: bool = False
    success_regions: Mapping[str, GoalSpec] = {}
    policy: PolicyTable = DEFAULT_POLICY


# The measures ``evaluate`` grades a finished handoff on: the only metric ids
# a success region can name.
MEASURED = ("UF", "IL", "DLat", "ExLat", "EvLat", "HOL", "ImpR")


def sufficiently_better(uf_target: float, uf_curr: float, delta: float) -> bool:
    """Hysteresis gate: the target must clear the serving utility by delta."""
    return uf_target > uf_curr + delta


class DwellTracker(NamedTuple):
    """Remembers when the sufficiently-better condition started holding."""

    since: Optional[int] = None


def consistently_better(
    tracker: DwellTracker, now: int, sp: int, suffb_now: bool
) -> tuple[DwellTracker, bool]:
    """Dwell gate: sufficiently-better must hold continuously for sp ms.

    Returns the updated tracker and the verdict.  The boundary is
    inclusive: a condition that started at t is consistent at t + sp.
    Any gap resets the clock; sp = 0 passes at the first holding instant.
    """
    if not suffb_now:
        return DwellTracker(), False
    since = tracker.since if tracker.since is not None else now
    return DwellTracker(since), (now - since) >= sp


def handoff_reason(
    uf_curr: float,
    cfg: ControllerConfig,
    target_conb: bool,
    uf_target: Optional[float] = None,
) -> Optional[Reason]:
    """Why move at all?  Imperative flight from a failing link, or an
    opportunist grab while comfortable.  Either way the target must have
    proven itself (target_conb)."""
    if not target_conb:
        return None
    if uf_curr < cfg.th_inf:
        return Reason.IMPERATIVE
    judged = uf_target if (cfg.opportunist_on_target and uf_target is not None) else uf_curr
    if judged > cfg.th_sup:
        return Reason.OPPORTUNIST
    return None


Series = Sequence[tuple[int, float]]


def should_enter_preparation(
    curr_series: Series, target_series: Series, cfg: ControllerConfig
) -> bool:
    """Decide whether a candidate deserves preparation.

    Reactive: the candidate's latest score already beats the serving one.
    Proactive: also true when a straight line through the last two samples
    of each series predicts the candidate overtaking within prep_latency
    ms.  With fewer than two samples in either series there is no
    prediction, and a candidate not yet ahead is refused.
    """
    if not curr_series or not target_series:
        raise ValueError("both series must be nonempty")
    t_curr, d_curr = curr_series[-1]
    t_tgt, d_tgt = target_series[-1]
    if d_tgt > d_curr:
        return True
    if cfg.strategy is Strategy.REACTIVE:
        return False
    if len(curr_series) < 2 or len(target_series) < 2:
        return False
    slope_curr = _slope(curr_series[-2], curr_series[-1])
    slope_tgt = _slope(target_series[-2], target_series[-1])
    closing = slope_tgt - slope_curr
    if closing <= 0.0:
        return False
    gap = d_curr - d_tgt
    # Durations, not instants: adding the current time to both sides would
    # round them differently at different absolute times.
    return gap / closing <= cfg.prep_latency


def _slope(p0: tuple[int, float], p1: tuple[int, float]) -> float:
    (t0, v0), (t1, v1) = p0, p1
    if t1 == t0:
        return 0.0
    return (v1 - v0) / (t1 - t0)


class TriggerPlan(NamedTuple):
    """A fully decided handoff: why, where, how, who, and when."""

    why: Reason
    where: str
    how: str
    who: str
    when: int


class MeasurementSet(NamedTuple):
    network: str
    values: Mapping[str, float] = {}


class EvalOutcome(NamedTuple):
    accepted: bool
    reasons: tuple[str, ...] = ()


def evaluate(
    post: MeasurementSet,
    anl: Optional[AvailableNetworkList],
    regions: Mapping[str, GoalSpec],
) -> EvalOutcome:
    """Grade a finished handoff.

    Accepted when the terminal landed on the head of the current list and
    every configured objective measure sits inside its region.  A region
    configured over a measure the set does not carry counts as a
    violation rather than passing silently.
    """
    reasons = []
    head = best(anl) if anl is not None else None
    if head != post.network:
        reasons.append("NotBest")
    for metric_id in sorted(regions):
        value = post.values.get(metric_id)
        if value is None or not goal_holds(value, regions[metric_id]):
            reasons.append(metric_id)
    if reasons:
        return EvalOutcome(accepted=False, reasons=tuple(reasons))
    return EvalOutcome(accepted=True)


class HandoffRecord(NamedTuple):
    """Everything known about one completed handoff attempt."""

    terminal: str
    from_net: str
    to_net: str
    reason: Reason
    ho_type: str
    method: str
    t_prep: int
    t_trigger: int
    t_switch_done: int
    t_eval_done: int
    uf_old: float
    uf_new: float
    accepted: bool
    reject_reasons: tuple[str, ...] = ()

    @property
    def dvho_ms(self) -> int:
        # Total vertical-handoff span: first preparation to evaluation done.
        return self.t_eval_done - self.t_prep


# ---------------------------------------------------------------------------
# Events


class AnlUpdated(NamedTuple):
    anl: AvailableNetworkList
    infos: Mapping[str, Attachment]


class CurrentLinkLost(NamedTuple):
    pass


class SwitchComplete(NamedTuple):
    pass


class TimerFired(NamedTuple):
    kind: str  # "eval"
    at: int


Event = Union[AnlUpdated, CurrentLinkLost, SwitchComplete, TimerFired]


# ---------------------------------------------------------------------------
# Actions


class Connect(NamedTuple):
    network: str


class StartSwitch(NamedTuple):
    plan: TriggerPlan


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
    dwell: DwellTracker = DwellTracker()
    last_reason: Optional[Reason] = None


class InFlight(NamedTuple):
    t_prep: int
    from_net: str
    uf_old: float
    ho_type: str
    t_switch_done: Optional[int] = None


class ControllerState(NamedTuple):
    terminal: str
    phase: Phase = Phase.DISCONNECTION
    current: Optional[str] = None
    prep: Optional[PrepData] = None
    plan: Optional[TriggerPlan] = None
    flight: Optional[InFlight] = None
    eval_deadline: Optional[int] = None
    last_anl: Optional[AvailableNetworkList] = None
    anl_at: Optional[int] = None  # time of the ANL step that saw last_anl
    # (network, (t, score)): the serving network's last sample while
    # last_anl leaves it out.
    held: Optional[tuple[str, tuple[int, float]]] = None


def initial_state(terminal: str) -> ControllerState:
    return ControllerState(terminal=terminal)


def latest_sample(state: ControllerState, net: Optional[str]) -> Optional[tuple[int, float]]:
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


def _series(state: ControllerState, net: str, value: float, now: int) -> Series:
    # The previous sample, if any, then the one just listed.
    prev = latest_sample(state, net)
    return ((now, value),) if prev is None else (prev, (now, value))


def _entry_holds(
    state: ControllerState, anl: AvailableNetworkList, current: str, candidate: str,
    cfg: ControllerConfig, now: int,
) -> bool:
    curr_series = _series(state, current, anl.values[current], now)
    tgt_series = _series(state, candidate, anl.values[candidate], now)
    return should_enter_preparation(curr_series, tgt_series, cfg)


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
    phase, current, prep = state.phase, state.current, state.prep
    plan, flight = state.plan, state.flight
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
        # The listed scores settle a reactive entry; only a proactive one
        # reads the sample series for a prediction.
        if cand is None or not (
            anl.values[cand] > anl.values[current]
            or cfg.strategy is Strategy.PROACTIVE
            and _entry_holds(state, anl, current, cand, cfg, now)
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
            d_curr = anl.values[current]
            d_tgt = anl.values[cand]
            suffb = sufficiently_better(d_tgt, d_curr, cfg.hysteresis_delta)
            dwell, conb = consistently_better(prep.dwell, now, cfg.dwell_sp, suffb)
            reason = handoff_reason(d_curr, cfg, suffb and conb, uf_target=d_tgt)
            if reason is None:
                prep = PrepData(prep.target, prep.entered_at, dwell, reason)
            else:
                # All gates passed: commit the plan and start switching.
                ho_type = classify(event.infos[current], event.infos[cand])
                plan = TriggerPlan(
                    why=reason,
                    where=cand,
                    how=cfg.policy.lookup(ho_type.layer, cfg.app_type),
                    who=f"hce:{state.terminal}",
                    when=now,
                )
                flight = InFlight(
                    t_prep=prep.entered_at,
                    from_net=current,
                    uf_old=d_curr,
                    ho_type=ho_type.code,
                )
                phase, current, prep = Phase.EXECUTION, None, None
                actions = (StartSwitch(plan), ScheduleTimer("switch", now + cfg.exec_latency))

    return ControllerState(
        state.terminal, phase, current, prep, plan, flight, state.eval_deadline, anl, now, held,
    ), actions


def _on_link_lost(state, cfg, now):
    if state.phase in (Phase.INITIATION, Phase.PREPARATION):
        return (
            state._replace(phase=Phase.DISCONNECTION, current=None, prep=None),
            (),
        )
    if state.phase is Phase.EVALUATION:
        # The new link died under evaluation: record the failure at once.
        record = _build_record(state, now, EvalOutcome(False, ("LinkLost",)))
        st = state._replace(
            phase=Phase.DISCONNECTION,
            current=None,
            plan=None,
            flight=None,
            eval_deadline=None,
        )
        return st, (RecordHandoff(record),)
    raise IllegalEventError(state.phase, CurrentLinkLost())


def _on_switch_complete(state, cfg, now):
    if state.phase is not Phase.EXECUTION:
        raise IllegalEventError(state.phase, SwitchComplete())
    target = state.plan.where
    st = state._replace(
        phase=Phase.EVALUATION,
        current=target,
        flight=state.flight._replace(t_switch_done=now),
        eval_deadline=now + cfg.eval_latency,
    )
    return st, (Connect(target), ScheduleTimer("eval", now + cfg.eval_latency))


def _on_timer(state, event, cfg, now):
    if event.kind != "eval":
        raise IllegalEventError(state.phase, event)
    if state.phase is not Phase.EVALUATION or event.at != state.eval_deadline:
        # A timer armed for an evaluation that already ended; drop it.
        return state, ()
    outcome = evaluate(
        post=_post_measurements(state, now),
        anl=state.last_anl,
        regions=cfg.success_regions,
    )
    record = _build_record(state, now, outcome)
    st = state._replace(
        phase=Phase.INITIATION,
        plan=None,
        flight=None,
        eval_deadline=None,
    )
    return st, (RecordHandoff(record),)


def _uf_new(state) -> float:
    sample = latest_sample(state, state.current)
    return state.flight.uf_old if sample is None else sample[1]


def _post_measurements(state, now) -> MeasurementSet:
    flight, when = state.flight, state.plan.when
    uf_new = _uf_new(state)
    measured = (
        uf_new,
        float(flight.t_switch_done - when),
        float(when - flight.t_prep),
        float(flight.t_switch_done - when),
        float(now - flight.t_switch_done),
        float(now - flight.t_prep),
        uf_new / flight.uf_old if flight.uf_old != 0.0 else None,  # no ratio to a zero base
    )
    values = {mid: v for mid, v in zip(MEASURED, measured, strict=True) if v is not None}
    return MeasurementSet(network=state.current, values=values)


def _build_record(state, now, outcome: EvalOutcome) -> HandoffRecord:
    flight = state.flight
    plan = state.plan
    return HandoffRecord(
        terminal=state.terminal,
        from_net=flight.from_net,
        to_net=plan.where,
        reason=plan.why,
        ho_type=flight.ho_type,
        method=plan.how,
        t_prep=flight.t_prep,
        t_trigger=plan.when,
        t_switch_done=flight.t_switch_done,
        t_eval_done=now,
        uf_old=flight.uf_old,
        uf_new=_uf_new(state),
        accepted=outcome.accepted,
        reject_reasons=outcome.reasons,
    )
