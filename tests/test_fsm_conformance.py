"""Phase machine conformance against an independent reference model.

A second, table-driven interpreter of the transition rules is written
here from scratch (plain dicts, no shared code with the production
machine beyond the event vocabulary).  Exhaustive exploration then
drives both machines through every event sequence up to depth six over
a fixed alphabet and requires identical phases, attachments, actions,
and illegal-event verdicts at every edge.  The walk runs once per trigger
strategy (reactive, and proactive with its linear crossing prediction)
and dwell period: one step, and zero, at which one list can take the
machine from Initiation through Preparation to Execution.

States are memoized relative to the current time (all rule arithmetic
uses time differences only), so converging histories are explored once
and the search stays small.  Both keys hold only the latest sample of each
network: the reference stores two per network, but the older one is never
read at the next step, so histories that differ only there converge.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from pathlib import Path

import pytest

from handoffsim import controller as ctl
from handoffsim.desirability import rank
from handoffsim.errors import IllegalEventError
from handoffsim.scenario import ControllerConfig, Strategy
from handoffsim.taxonomy import StationTypes
from handoffsim.topology import BaseStation

DELTA = 1.0
TH_INF = 2.0
TH_SUP = 8.0
SP = 100
EXEC_LAT = 100
EVAL_LAT = 100
PREP_LAT = 100
STEP_MS = 100
MAX_DEPTH = 6

CFG = ControllerConfig(
    hysteresis_delta=DELTA,
    th_sup=TH_SUP,
    th_inf=TH_INF,
    dwell_sp=SP,
    prep_latency=PREP_LAT,
    exec_latency=EXEC_LAT,
    eval_latency=EVAL_LAT,
    strategy=Strategy.REACTIVE,
)

# Ranked score lists covering the interesting regimes: empty coverage,
# stable serving network, crossings inside and outside the hysteresis
# margin, dead-band stays, imperative and opportunist triggers, and a
# third network that forces retargeting.  Under the proactive strategy,
# E_stable followed by E_fallback closes the gap fast enough to predict a
# crossing within PREP_LAT, while E_stable followed by E_slow_close does not,
# and E_newcomer lists a network just below the serving one with a single
# sample, too few to predict from.
ANL_LETTERS = {
    "E_empty": [],
    "E_stable": [("n1", 5.0), ("n2", 3.0)],
    "E_cross_thin": [("n2", 5.5), ("n1", 5.0)],
    "E_imperative": [("n2", 9.0), ("n1", 1.0)],
    "E_high_thin": [("n2", 9.5), ("n1", 9.0)],
    "E_fallback": [("n1", 4.0), ("n2", 3.8)],
    "E_deadband": [("n2", 6.5), ("n1", 5.0)],
    "E_retarget": [("n3", 9.6), ("n2", 9.0), ("n1", 1.5)],
    "E_opportunist": [("n2", 9.9), ("n1", 8.5)],
    "E_slow_close": [("n1", 5.0), ("n2", 3.5)],
    "E_newcomer": [("n1", 5.0), ("n4", 4.9), ("n2", 3.0)],
}

LETTERS = (
    [("anl", name) for name in sorted(ANL_LETTERS)]
    + [("loss", None), ("switch", None), ("timer_now", None), ("timer_stale", None)]
)


class RefIllegal(Exception):
    pass


def ref_initial(strategy="reactive", sp=SP):
    return {
        "strategy": strategy,
        "sp": sp,  # the dwell period
        "phase": "disconnection",
        "current": None,
        "target": None,
        "prep_entered": None,
        "dwell_since": None,
        "plan": None,
        "flight": None,
        "eval_deadline": None,
        "series": {},  # net -> its last one or two (t, score) samples
        "last_ranked": None,
    }


def _ref_uf_new(s):
    current = s["current"]
    if s["last_ranked"]:
        for net, value in s["last_ranked"]:
            if net == current:
                return value
    if current in s["series"]:
        return s["series"][current][-1][1]
    return s["flight"]["uf_old"]


def _ref_record(s, now, accepted, reasons):
    plan, flight = s["plan"], s["flight"]
    return (
        "record",
        "mt1",
        flight["from_net"],
        plan["where"],
        plan["why"],
        flight["ho_type"],
        plan["how"],
        flight["t_prep"],
        plan["when"],
        flight["t_switch_done"],
        now,
        flight["uf_old"],
        _ref_uf_new(s),
        accepted,
        tuple(reasons),
    )


def _ref_prep_update(s, scores, now):
    d_curr = scores[s["current"]]
    d_tgt = scores[s["target"]]
    suffb = d_tgt > d_curr + DELTA
    if not suffb:
        s["dwell_since"] = None
        return s, []
    since = s["dwell_since"] if s["dwell_since"] is not None else now
    s["dwell_since"] = since
    if now - since < s["sp"]:
        return s, []
    if d_curr < TH_INF:
        why = "imperative"
    elif d_curr > TH_SUP:
        why = "opportunist"
    else:
        return s, []
    plan = {"why": why, "where": s["target"], "how": "MIP", "who": "hce:mt1", "when": now}
    s["plan"] = plan
    s["flight"] = {
        "t_prep": s["prep_entered"],
        "from_net": s["current"],
        "uf_old": d_curr,
        "ho_type": "net_horizontal",
        "t_switch_done": None,
    }
    s["phase"] = "execution"
    s["current"] = None
    s["target"] = None
    s["prep_entered"] = None
    s["dwell_since"] = None
    return s, [
        ("start_switch", why, plan["where"], "MIP", "hce:mt1", now),
        ("timer", "switch", now + EXEC_LAT),
    ]


def _ref_predicts_crossing(cur, tgt):
    """Proactive rule: the straight lines through each series' last two
    samples converge and the target's reaches the serving one's within
    PREP_LAT of the latest sample.  Exact arithmetic on the stored floats."""

    def line(series):
        (t0, v0), (t1, v1) = series
        slope = (Fraction(v1) - Fraction(v0)) / (t1 - t0)
        return Fraction(v1), slope

    cur_now, cur_slope = line(cur)
    tgt_now, tgt_slope = line(tgt)
    if tgt_slope <= cur_slope:
        return False
    return tgt_now + tgt_slope * PREP_LAT >= cur_now + cur_slope * PREP_LAT


def _ref_entry(s, cand):
    if cand is None:
        return False
    cur = s["series"][s["current"]]
    tgt = s["series"][cand]
    if tgt[-1][1] > cur[-1][1]:
        return True
    # A series with a single sample cannot be extrapolated: only the plain
    # crossing test above applies.
    if s["strategy"] == "reactive" or len(cur) < 2 or len(tgt) < 2:
        return False
    return _ref_predicts_crossing(cur, tgt)


def _ref_anl(s, ranked, now):
    ids = [n for n, _ in ranked]
    scores = dict(ranked)
    keep = set(ids)
    if s["current"] is not None:
        keep.add(s["current"])
    series = {n: ser for n, ser in s["series"].items() if n in keep}
    for n, v in ranked:
        series[n] = (*series.get(n, ())[-1:], (now, v))
    s["series"] = series
    s["last_ranked"] = [tuple(p) for p in ranked]

    phase = s["phase"]
    if phase == "disconnection":
        if not ranked:
            return s, []
        head = ranked[0][0]
        s["phase"] = "initiation"
        s["current"] = head
        return s, [("connect", head)]

    if phase in ("execution", "evaluation"):
        return s, []

    if s["current"] not in scores:
        s.update(phase="disconnection", current=None, target=None,
                 prep_entered=None, dwell_since=None)
        return s, []

    cand = next((n for n in ids if n != s["current"]), None)
    entry = _ref_entry(s, cand)

    if phase == "initiation":
        if not entry:
            return s, []
        s["phase"] = "preparation"
        s["target"] = cand
        s["prep_entered"] = now
        s["dwell_since"] = None
        return _ref_prep_update(s, scores, now)

    # preparation
    if not entry:
        s.update(phase="initiation", target=None, prep_entered=None, dwell_since=None)
        return s, []
    if cand != s["target"]:
        s["target"] = cand
        s["dwell_since"] = None
    return _ref_prep_update(s, scores, now)


def ref_step(state, letter, now):
    s = dict(state)
    s["series"] = dict(state["series"])
    kind, payload = letter

    if kind == "anl":
        return _ref_anl(s, ANL_LETTERS[payload], now)

    if kind == "loss":
        if s["phase"] in ("initiation", "preparation"):
            s.update(phase="disconnection", current=None, target=None,
                     prep_entered=None, dwell_since=None)
            return s, []
        if s["phase"] == "evaluation":
            record = _ref_record(s, now, accepted=False, reasons=("LinkLost",))
            s.update(phase="disconnection", current=None, plan=None,
                     flight=None, eval_deadline=None)
            return s, [record]
        raise RefIllegal(s["phase"])

    if kind == "switch":
        if s["phase"] != "execution":
            raise RefIllegal(s["phase"])
        target = s["plan"]["where"]
        s["phase"] = "evaluation"
        s["current"] = target
        s["flight"] = dict(s["flight"], t_switch_done=now)
        s["eval_deadline"] = now + EVAL_LAT
        return s, [("connect", target), ("timer", "eval", now + EVAL_LAT)]

    # timers
    at = now if kind == "timer_now" else now - STEP_MS
    if s["phase"] != "evaluation" or at != s["eval_deadline"]:
        return s, []
    head = s["last_ranked"][0][0] if s["last_ranked"] else None
    reasons = () if head == s["current"] else ("NotBest",)
    record = _ref_record(s, now, accepted=not reasons, reasons=reasons)
    s.update(phase="initiation", plan=None, flight=None, eval_deadline=None)
    return s, [record]


# ---------------------------------------------------------------------------
# Driving the production machine with the same letters.


def _impl_event(letter, now):
    kind, payload = letter
    if kind == "anl":
        pairs = ANL_LETTERS[payload]
        anl = rank(pairs)
        types = StationTypes(
            BaseStation(id=n, net_id=n, provider_id="p1", position=(0.0, 0.0), technology="lte")
            for n, _ in pairs
        )
        return ctl.AnlUpdated(anl=anl, types=types)
    if kind == "loss":
        return ctl.CurrentLinkLost()
    if kind == "switch":
        return ctl.SwitchComplete()
    return ctl.TimerFired(now if kind == "timer_now" else now - STEP_MS)


def _fmt_actions(actions):
    out = []
    for a in actions:
        if isinstance(a, ctl.Connect):
            out.append(("connect", a.network))
        elif isinstance(a, ctl.StartSwitch):
            p = a.plan
            out.append(("start_switch", p.why.value, p.where, p.how, p.who, p.when))
        elif isinstance(a, ctl.ScheduleTimer):
            out.append(("timer", a.kind, a.at))
        elif isinstance(a, ctl.RecordHandoff):
            r = a.record
            out.append((
                "record", r.terminal, r.from_net, r.to_net, r.reason.value,
                r.ho_type, r.method, r.t_prep, r.t_trigger, r.t_switch_done,
                r.t_eval_done, r.uf_old, r.uf_new, r.accepted,
                tuple(r.reject_reasons),
            ))
        else:
            raise AssertionError(f"unexpected action {a!r}")
    return out


def _impl_key(st: ctl.ControllerState, now: int):
    def r(t):
        return None if t is None else t - now

    prep = st.prep and (
        st.prep.target, r(st.prep.entered_at), r(st.prep.since),
    )
    f = st.flight
    flight = f and (
        f.from_net, f.to_net, f.reason.value, f.ho_type, f.method, r(f.t_prep),
        r(f.t_trigger), r(f.t_switch_done), f.uf_old,
    )
    nets = set(st.last_anl.values) if st.last_anl else set()
    if st.held:
        nets.add(st.held[0])
    latest = tuple((nid, *ctl.latest_sample(st, nid)) for nid in sorted(nets))
    samples = tuple((nid, r(t), v) for nid, t, v in latest)
    anl = st.last_anl and st.last_anl.entries
    return st.phase.value, st.current, prep, flight, samples, anl


def _ref_key(s, now: int):
    def r(t):
        return None if t is None else t - now

    plan = s["plan"] and (
        s["plan"]["why"], s["plan"]["where"], s["plan"]["how"], r(s["plan"]["when"]),
    )
    flight = s["flight"] and (
        r(s["flight"]["t_prep"]), s["flight"]["from_net"], s["flight"]["uf_old"],
        s["flight"]["ho_type"], r(s["flight"]["t_switch_done"]),
    )
    ranked = None if s["last_ranked"] is None else tuple(s["last_ranked"])
    return (
        s["phase"], s["current"], s["target"], r(s["prep_entered"]),
        r(s["dwell_since"]), plan, flight, r(s["eval_deadline"]),
        tuple((n, r(ser[-1][0]), ser[-1][1]) for n, ser in sorted(s["series"].items())),
        ranked,
    )


def _explore(strategy=Strategy.REACTIVE, sp=SP):
    """Walk both machines in lockstep at dwell period ``sp``.  Returns the
    memo; the transitions,
    a map from each (phase, letter kind, phase) seen to the set of action
    kind sequences its edges emitted; the edge and handoff-record counts;
    how many edges opened Preparation on a prediction alone (the
    candidate's latest score was not above the serving network's); and the
    (phase, letter kind) pairs on which both machines raised."""
    cfg = CFG._replace(strategy=strategy, dwell_sp=sp)
    memo: dict = {}
    transitions: dict = {}
    illegal = set()
    edge_count = 0
    record_count = 0
    predicted = 0
    stack = [(ctl.initial_state("mt1"), ref_initial(strategy.value, sp), 0, 0)]
    while stack:
        impl, ref, now, depth = stack.pop()
        key = (_impl_key(impl, now), _ref_key(ref, now))
        prev = memo.get(key)
        if prev is not None and prev <= depth:
            continue
        memo[key] = depth
        if depth == MAX_DEPTH:
            continue
        for letter in LETTERS:
            name = letter[1] or letter[0]
            impl_raised = ref_raised = False
            impl2 = impl_actions = None
            ref2 = ref_actions = None
            try:
                impl2, impl_actions = ctl.step(impl, _impl_event(letter, now), cfg, now)
            except IllegalEventError:
                impl_raised = True
            try:
                ref2, ref_actions = ref_step(ref, letter, now)
            except RefIllegal:
                ref_raised = True
            assert impl_raised == ref_raised, (
                f"illegal-event verdicts diverge on {name} at t={now} "
                f"in phase {impl.phase.value}: impl={impl_raised} ref={ref_raised}"
            )
            if impl_raised:
                illegal.add((impl.phase.value, letter[0]))
                continue
            edge_count += 1
            got = _fmt_actions(impl_actions)
            assert got == ref_actions, (
                f"actions diverge on {name} at t={now} from {impl.phase.value}: "
                f"impl={got} ref={ref_actions}"
            )
            assert impl2.phase.value == ref2["phase"], (name, now, impl2.phase)
            assert impl2.current == ref2["current"], (name, now, impl2.current)
            record_count += sum(1 for a in got if a[0] == "record")
            transitions.setdefault((impl.phase.value, letter[0], impl2.phase.value), set()).add(
                tuple(a[0] for a in got)
            )
            if impl.phase is ctl.Phase.INITIATION and impl2.phase is ctl.Phase.PREPARATION:
                scores = dict(ANL_LETTERS[letter[1]])
                predicted += scores[impl2.prep.target] <= scores[impl2.current]
            stack.append((impl2, ref2, now + STEP_MS, depth + 1))
        assert edge_count < 2_000_000, "state space failed to converge"
    return memo, transitions, edge_count, record_count, predicted, illegal


@pytest.fixture(scope="module")
def exploration(fsm_exploration):
    return fsm_exploration


@pytest.fixture(scope="module")
def proactive_exploration():
    return _explore(Strategy.PROACTIVE)


@pytest.fixture(scope="module")
def zero_dwell_explorations():
    return [_explore(strategy, sp=0) for strategy in Strategy]


def test_machines_agree_on_every_sequence(exploration):
    memo, _, edges, *_ = exploration
    # The assertion work happens inside the exploration; here we require
    # that it actually covered a nontrivial graph.
    assert len(memo) > 50
    assert edges > 1_000


def test_every_phase_reached(exploration):
    _, transitions, *_ = exploration
    phases = {p for p, _, _ in transitions} | {p for _, _, p in transitions}
    assert phases == {"disconnection", "initiation", "preparation", "execution", "evaluation"}


def test_full_cycles_completed(exploration):
    _, transitions, _, records, *_ = exploration
    assert ("evaluation", "timer_now", "initiation") in transitions
    assert records > 0


def test_rollback_observed(exploration):
    _, transitions, *_ = exploration
    assert ("preparation", "anl", "initiation") in transitions


def test_execution_only_exits_via_switch_completion(exploration):
    _, transitions, *_ = exploration
    exits = {
        (letter, to)
        for frm, letter, to in transitions
        if frm == "execution" and to != "execution"
    }
    assert exits == {("switch", "evaluation")}


def test_no_backward_transition_from_execution(exploration):
    _, transitions, *_ = exploration
    for frm, _, to in transitions:
        if frm == "execution":
            assert to in ("execution", "evaluation")


def test_reactive_never_enters_on_a_prediction(exploration):
    assert exploration[4] == 0


def test_proactive_machines_agree_on_every_sequence(proactive_exploration):
    memo, transitions, edges, records, *_ = proactive_exploration
    assert len(memo) > 50
    assert edges > 1_000
    assert records > 0
    phases = {p for p, _, _ in transitions} | {p for _, _, p in transitions}
    assert phases == {"disconnection", "initiation", "preparation", "execution", "evaluation"}
    assert ("preparation", "anl", "initiation") in transitions


def test_proactive_walk_enters_preparation_on_predictions(proactive_exploration):
    assert proactive_exploration[4] > 0


def test_zero_dwell_machines_agree_on_every_sequence(zero_dwell_explorations):
    """With no dwell period the list that opens Preparation can also start
    the switch, so each walk takes Initiation to Execution in one step, and
    the machines agree on that path as on every other."""
    for memo, transitions, edges, records, *_ in zero_dwell_explorations:
        assert len(memo) > 50
        assert edges > 1_000
        assert records > 0
        assert ("initiation", "anl", "execution") in transitions


README = Path(__file__).resolve().parent.parent / "README.md"

# A walk letter as a transition record names its event, and an action as
# the trace names it.
EVENT_NAMES = {
    "anl": "anl_updated", "loss": "link_lost", "switch": "switch_complete",
    "timer_now": "timer_eval", "timer_stale": "timer_eval",
}
ACTION_NAMES = {
    "connect": "connect", "start_switch": "start_switch",
    "timer": "schedule_timer", "record": "record_handoff",
}


def _readme_tables():
    """The rows of each table in README's phase machine section, as lists
    of cells with the backticks stripped; header and rule rows dropped."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Handoff phase machine", 1)[1].split("\n## ", 1)[0]
    tables, rows = [], None
    for line in section.splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        if rows is None:
            rows = []
            tables.append(rows)
        rows.append([c.strip().replace("`", "") for c in line.strip().strip("|").split("|")])
    return [rows[2:] for rows in tables]


def test_readme_phase_table_is_the_walked_machine(exploration, proactive_exploration,
                                                 zero_dwell_explorations):
    legal, illegal = _readme_tables()
    table = {}
    for frm, event, leads_to, actions, _condition in legal:
        emitted = {}
        if actions != "none":
            for part in actions.split(";"):
                to, names = part.split(":")
                emitted[to.strip()] = tuple(n.strip() for n in names.split(","))
        assert (frm, event) not in table, (frm, event)
        table[frm, event] = {to.strip(): emitted.get(to.strip(), ()) for to in leads_to.split(",")}

    walks = (exploration, proactive_exploration, *zero_dwell_explorations)
    edges = [edge for walk in walks for edge in walk[1].items()]
    by_edge = {}
    for (frm, letter, to), seqs in edges:
        by_edge.setdefault((frm, EVENT_NAMES[letter], to), set()).update(seqs)
    walked = {}
    for (frm, event, to), seqs in by_edge.items():
        (seq,) = seqs  # each (phase, event, phase) emits one action sequence
        walked.setdefault((frm, event), {})[to] = tuple(ACTION_NAMES[a] for a in seq)
    differ = {
        pair: (table.get(pair), walked.get(pair))
        for pair in table.keys() | walked.keys() if table.get(pair) != walked.get(pair)
    }
    assert not differ, f"(phase, event): (README, walk): {differ}"

    raised = {(frm, EVENT_NAMES[letter]) for walk in walks for frm, letter in walk[5]}
    assert len({tuple(row) for row in illegal}) == len(illegal)
    assert {tuple(row) for row in illegal} == raised


@pytest.mark.parametrize("strategy", list(Strategy))
def test_step_leaves_its_input_state_unchanged(strategy):
    """Over every state the walk reaches, each letter leaves the state
    ``step`` was given equal to a deep copy taken before the call."""
    cfg = CFG._replace(strategy=strategy)
    memo: dict = {}
    stack = [(ctl.initial_state("mt1"), 0, 0)]
    edges = 0
    while stack:
        state, now, depth = stack.pop()
        key = _impl_key(state, now)
        if depth == MAX_DEPTH or memo.get(key, MAX_DEPTH) <= depth:
            continue
        memo[key] = depth
        for letter in LETTERS:
            before = copy.deepcopy(state)
            try:
                after, _ = ctl.step(state, _impl_event(letter, now), cfg, now)
            except IllegalEventError:
                after = None
            assert state == before, letter
            assert _impl_key(state, now) == key, letter
            edges += 1
            if after is not None:
                stack.append((after, now + STEP_MS, depth + 1))
    assert edges > 1_000
