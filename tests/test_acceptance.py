"""Acceptance gate: one test per published behavioral guarantee.

Each test checks a single end-to-end property of the package at its
stated tolerance and prints one [PASS]/[FAIL] line carrying the measured
values (visible with pytest -s; pytest -v shows one PASSED/FAILED row per
criterion either way).  Tolerances are part of the contract: exact for
counts and determinism, 1e-12 for the worked scoring example and metric
means, 1e-9 relative for randomized scoring equivalence.
"""

import json
import math
import random
import statistics

import mpmath
import pytest

from handoffsim.cli import main as cli_main
from handoffsim.context import ContextSource, CriterionDef, Polarity
from handoffsim.desirability import WeightProfile, desirability, weighted_terms
from handoffsim.engine import run
from handoffsim.metrics import compute_metrics
from handoffsim.scenario import from_dict, load_scenario
from handoffsim.taxonomy import Attachment, Layer, classify, enumerate_types
from handoffsim.trace import HANDOFF, TRANSITION
from trace_text import ndjson

from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _pass(name, **measured):
    detail = ", ".join(f"{k}={v}" for k, v in measured.items())
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


@pytest.fixture(scope="module")
def exploration(fsm_exploration):
    memo, transitions, edges, records, *_ = fsm_exploration
    return {"memo": memo, "transitions": transitions,
            "edges": edges, "records": records}


def _two_net_doc(duration_ms, controller, networks, tick_ms=100):
    return {
        "seed": 1,
        "duration_ms": duration_ms,
        "tick_ms": tick_ms,
        "topology": {
            "providers": [{
                "id": "prov1",
                "nets": [
                    {"id": "net_a", "stations": [{
                        "id": "bs_a", "position": [50.0, 0.0],
                        "technology": "lte", "tier": "macro",
                        "channels": ["a1"]}]},
                    {"id": "net_b", "stations": [{
                        "id": "bs_b", "position": [80.0, 0.0],
                        "technology": "lte", "tier": "macro",
                        "channels": ["b1"]}]},
                ],
            }],
        },
        "terminals": [{"id": "mt1", "path": [[0, [0.0, 0.0]]],
                       "app_type": "video"}],
        "criteria": [{"id": "Q", "source": "network",
                      "polarity": "beneficial", "unit": "score"}],
        "weights": {"k": 0.0, "weights": {"Q": 1.0}},
        "controller": controller,
        "synthesis": {"mode": "geometric", "networks": networks},
    }


def _handoffs(trace):
    return [r.payload for r in trace.records if r.kind == HANDOFF]


# --- 1: taxonomy enumeration --------------------------------------------

def test_c01_taxonomy_has_fifteen_types(capsys):
    types = enumerate_types()
    assert len(types) == 15
    assert len({t.code for t in types}) == 15
    assert cli_main(["enumerate-taxonomy"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 16  # header plus one row per type
    _pass("taxonomy enumeration", types=len(types))


# --- 2: scoring equivalence against an independent evaluation ------------

def _random_instance(rng):
    catalog, weights, values = [], {}, {}
    for prefix, count, pol in (("B", rng.randint(1, 4), Polarity.BENEFICIAL),
                               ("D", rng.randint(0, 3), Polarity.DETRIMENTAL)):
        raw = [rng.uniform(0.05, 1.0) for _ in range(count)]
        total = sum(raw)
        for j, r in enumerate(raw):
            cid = f"{prefix}{j}"
            catalog.append(CriterionDef(id=cid, source=ContextSource.NETWORK,
                                        polarity=pol))
            weights[cid] = r / total
            values[cid] = 10.0 ** rng.uniform(-3.0, 8.0)
    return catalog, weights, values, rng.uniform(0.0, 5.0)


def _direct_eval(catalog, weights, values, k):
    # independent formulation: exact sums over per-criterion terms
    plus, minus = [], []
    for c in catalog:
        term = (k + weights[c.id]) * math.log10(max(values[c.id], c.floor))
        (plus if c.polarity is Polarity.BENEFICIAL else minus).append(term)
    return math.fsum(plus) - math.fsum(minus)


def test_c02_scoring_matches_direct_evaluation():
    rng = random.Random(20260819)
    checked = 0
    worst = 0.0
    while checked < 10000:
        catalog, weights, values, k = _random_instance(rng)
        oracle = _direct_eval(catalog, weights, values, k)
        if abs(oracle) < 1e-2:
            continue  # keep the relative comparison well conditioned
        got = desirability(values, weighted_terms(WeightProfile(weights=weights, k=k), catalog))
        rel = abs(got - oracle) / abs(oracle)
        worst = max(worst, rel)
        assert rel <= 1e-9, (catalog, weights, values, k)
        checked += 1

    # the worked four-criterion example lands on 3.0 exactly
    catalog = [
        CriterionDef(id="SNR", source=ContextSource.NETWORK, polarity=Polarity.BENEFICIAL),
        CriterionDef(id="DTR", source=ContextSource.NETWORK, polarity=Polarity.BENEFICIAL),
        CriterionDef(id="BER", source=ContextSource.NETWORK, polarity=Polarity.DETRIMENTAL),
        CriterionDef(id="NL", source=ContextSource.NETWORK, polarity=Polarity.DETRIMENTAL),
    ]
    profile = WeightProfile(weights={"SNR": 0.5, "DTR": 0.5, "BER": 0.5, "NL": 0.5}, k=1.0)
    values = {"SNR": 100.0, "DTR": 50.0, "BER": 10.0, "NL": 5.0}
    got = desirability(values, weighted_terms(profile, catalog))
    assert abs(got - 3.0) <= 1e-12
    with mpmath.workdps(50):
        hp = (mpmath.mpf("1.5") * (mpmath.log10(100) + mpmath.log10(50))
              - mpmath.mpf("1.5") * (mpmath.log10(10) + mpmath.log10(5)))
        assert abs(got - float(hp)) <= 1e-12
    _pass("scoring equivalence", instances=checked, worst_rel=f"{worst:.2e}",
          worked_example=got)


# --- 3: scoring monotonicity ---------------------------------------------

def test_c03_scoring_monotone_in_each_polarity():
    rng = random.Random(42)
    trials = 0
    for _ in range(1000):
        catalog, weights, values, k = _random_instance(rng)
        terms = weighted_terms(WeightProfile(weights=weights, k=k), catalog)
        base = desirability(values, terms)
        for c in catalog:
            bumped = dict(values)
            bumped[c.id] = values[c.id] * 10.0
            moved = desirability(bumped, terms)
            if c.polarity is Polarity.BENEFICIAL:
                assert moved > base, c
            else:
                assert moved < base, c
            trials += 1
    _pass("scoring monotonicity", perturbations=trials)


# --- 4: controller conformance -------------------------------------------

def test_c04_controller_matches_reference_interpreter(exploration):
    # _explore asserts action-for-action and state-for-state agreement on
    # every edge; finishing the walk means zero divergences
    assert exploration["edges"] > 1000
    assert len(exploration["memo"]) > 100
    phases = {p for (a, _l, b) in exploration["transitions"] for p in (a, b)}
    assert phases == {"disconnection", "initiation", "preparation",
                      "execution", "evaluation"}
    assert exploration["records"] > 0
    _pass("controller conformance", states=len(exploration["memo"]),
          edges=exploration["edges"])


# --- 5: no rollback out of execution --------------------------------------

def _random_run_doc(i):
    rng = random.Random(1000 + i)
    return {
        "seed": i,
        "duration_ms": 2000,
        "tick_ms": 200,
        "topology": {"providers": [{
            "id": "prov1",
            "nets": [
                {"id": "net_a", "stations": [{
                    "id": "bs_a", "position": [-40.0, 0.0],
                    "technology": "lte", "tier": "macro", "channels": ["a1"]}]},
                {"id": "net_b", "stations": [{
                    "id": "bs_b", "position": [40.0, 0.0],
                    "technology": "wifi", "tier": "macro", "channels": ["b1"]}]},
            ]}]},
        "terminals": [{"id": "mt1",
                       "path": [[0, [0.0, 0.0]],
                                [2000, [rng.uniform(-30.0, 30.0), 0.0]]],
                       "app_type": "video"}],
        "criteria": [{"id": "Q", "source": "network",
                      "polarity": "beneficial", "unit": "score"}],
        "weights": {"k": 0.0, "weights": {"Q": 1.0}},
        "controller": {
            "hysteresis_delta": 0.1, "th_sup": 4.2, "th_inf": 2.0,
            "dwell_sp": 200, "prep_latency": 200, "exec_latency": 100,
            "eval_latency": 100,
            "strategy": rng.choice(["reactive", "proactive"]),
        },
        "synthesis": {
            "mode": "stochastic",
            "networks": {"bs_a": {"base": {"Q": 60000.0}},
                         "bs_b": {"base": {"Q": 50000.0}}},
            "ar1_rho": rng.choice([0.5, 0.9]),
            "noise_sigma": rng.choice([0.0, 5000.0, 20000.0]),
        },
    }


def test_c05_execution_never_rolls_back(exploration):
    forbidden = {("execution", "preparation"), ("execution", "initiation")}
    seen = {(a, b) for (a, _l, b) in exploration["transitions"]}
    assert not (seen & forbidden)

    total_handoffs = 0
    for i in range(100):
        trace = run(from_dict(_random_run_doc(i)))
        for rec in trace.records:
            if rec.kind != TRANSITION:
                continue
            pair = (rec.payload["from"], rec.payload["to"])
            assert pair not in forbidden, (i, rec)
        total_handoffs += len(_handoffs(trace))
    assert total_handoffs > 0  # the sample actually exercised handoffs
    _pass("no rollback from execution", random_runs=100,
          handoffs_seen=total_handoffs)


# --- 6: hysteresis suppresses ping-pong ------------------------------------

def _oscillation_doc(delta):
    lo, hi = 10.0 ** 4.6, 10.0 ** 5.4
    controller = {"hysteresis_delta": delta, "th_sup": 4.0, "th_inf": 1.0,
                  "dwell_sp": 0, "prep_latency": 100, "exec_latency": 100,
                  "eval_latency": 100, "strategy": "reactive"}
    networks = {
        "bs_a": {"base": {"Q": 100000.0}},
        "bs_b": {"waypoints": {"Q": [[0, lo], [3000, hi], [6000, lo],
                                     [9000, hi], [12000, lo]]}},
    }
    return _two_net_doc(12000, controller, networks)


def test_c06_hysteresis_suppresses_ping_pong():
    # the oscillating candidate swings 0.4 above and below the serving
    # network's flat score; a 0.5 margin must silence it completely
    with_margin = len(_handoffs(run(from_dict(_oscillation_doc(0.5)))))
    without = len(_handoffs(run(from_dict(_oscillation_doc(0.0)))))
    assert with_margin == 0
    assert without >= 2
    _pass("hysteresis ping-pong suppression",
          handoffs_with_margin=with_margin, handoffs_without=without)


# --- 7: dwell gating -------------------------------------------------------

def _pulse_doc(pulse_ms):
    lo, hi = 10.0 ** 4.7, 10.0 ** 5.6
    end = 1000 + pulse_ms
    controller = {"hysteresis_delta": 0.5, "th_sup": 4.0, "th_inf": 1.0,
                  "dwell_sp": 300, "prep_latency": 100, "exec_latency": 0,
                  "eval_latency": 0, "strategy": "reactive"}
    networks = {
        "bs_a": {"base": {"Q": 100000.0}},
        "bs_b": {"waypoints": {"Q": [[0, lo], [900, lo], [1000, hi],
                                     [end, hi], [end + 100, lo],
                                     [4000, lo]]}},
    }
    return _two_net_doc(4000, controller, networks)


def test_c07_dwell_gates_short_pulses():
    # one tick short of the dwell period: suppressed; exactly the dwell
    # period: admitted (the boundary is inclusive)
    short = _handoffs(run(from_dict(_pulse_doc(200))))
    exact = _handoffs(run(from_dict(_pulse_doc(300))))
    assert short == []
    assert len(exact) == 1
    assert exact[0]["t_trigger"] == 1300
    assert exact[0]["accepted"] is True
    _pass("dwell gating", short_pulse=len(short), full_pulse=len(exact))


# --- 8: proactive prepares no later than reactive ---------------------------

def _strategy_doc(strategy):
    controller = {"hysteresis_delta": 0.0, "th_sup": 4.0, "th_inf": 1.0,
                  "dwell_sp": 0, "prep_latency": 2000, "exec_latency": 100,
                  "eval_latency": 100, "strategy": strategy}
    networks = {
        "bs_a": {"base": {"Q": 100000.0}},
        "bs_b": {"base": {"Q": 10000.0}, "ramps": {"Q": 10.0}},
    }
    return _two_net_doc(12000, controller, networks)


def test_c08_proactive_prepares_no_later_than_reactive():
    pro = _handoffs(run(from_dict(_strategy_doc("proactive"))))
    rea = _handoffs(run(from_dict(_strategy_doc("reactive"))))
    assert len(pro) == 1 and len(rea) == 1
    assert pro[0]["t_prep"] <= rea[0]["t_prep"]
    assert pro[0]["t_prep"] < pro[0]["t_trigger"]  # preparation truly early
    assert rea[0]["t_prep"] == rea[0]["t_trigger"]
    assert pro[0]["t_trigger"] == rea[0]["t_trigger"] == 9100
    assert pro[0]["accepted"] and rea[0]["accepted"]
    _pass("strategy ordering", proactive_prep=pro[0]["t_prep"],
          reactive_prep=rea[0]["t_prep"])


# --- 9: always-best-connected limit -----------------------------------------

def test_c09_zero_friction_tracks_the_best_network():
    controller = {"hysteresis_delta": 0.0, "th_sup": 0.5, "th_inf": 0.0,
                  "dwell_sp": 0, "prep_latency": 0, "exec_latency": 0,
                  "eval_latency": 0, "strategy": "reactive"}
    networks = {
        "bs_a": {"base": {"Q": 100000.0}, "ramps": {"Q": -5.0}},
        "bs_b": {"base": {"Q": 10000.0}, "ramps": {"Q": 10.0}},
    }
    trace = run(from_dict(_two_net_doc(12000, controller, networks)))
    records = _handoffs(trace)
    snap = compute_metrics(trace)
    assert snap.dtib == 1.0  # exact: every attached instant on the head
    assert len(records) == 1
    assert records[0]["t_trigger"] == 6100
    assert records[0]["dvho_ms"] == 0
    assert records[0]["accepted"] is True
    _pass("always-best-connected limit", dtib=snap.dtib,
          switch_at=records[0]["t_trigger"])


# --- 10: reproducibility -----------------------------------------------------

def test_c10_reproducibility(tmp_path, capsys):
    sc = load_scenario(SCENARIO_DIR / "noisy.json")
    assert ndjson(run(sc)) == ndjson(run(sc))

    for d in ("one", "two"):
        assert cli_main(["run", str(SCENARIO_DIR / "noisy.json"),
                         "--out", str(tmp_path / d)]) == 0
    capsys.readouterr()
    first = (tmp_path / "one" / "noisy.trace.ndjson").read_bytes()
    second = (tmp_path / "two" / "noisy.trace.ndjson").read_bytes()
    assert first == second

    quick = dict(load_scenario(SCENARIO_DIR / "crossing.json").raw)
    quick["duration_ms"] = 2000
    qpath = tmp_path / "quick.json"
    qpath.write_text(json.dumps(quick))
    grid = "delta=0,0.5;sp=0,200"
    assert cli_main(["sweep", str(qpath), "--grid", grid]) == 0
    serial = capsys.readouterr().out
    assert cli_main(["sweep", str(qpath), "--grid", grid, "--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial
    _pass("reproducibility", trace_bytes=len(first),
          sweep_rows=len(serial.strip().split("\n")) - 1)


# --- 11: metrics recount ------------------------------------------------------

def _recount(trace):
    records = [r.payload for r in trace.records if r.kind == HANDOFF]
    transitions = [r.payload for r in trace.records if r.kind == TRANSITION]
    return {
        "completed": len(records),
        "accepted": sum(1 for r in records if r["accepted"]),
        "rejected": sum(1 for r in records if not r["accepted"]),
        "imperative": sum(1 for r in records if r["reason"] == "imperative"),
        "opportunist": sum(1 for r in records if r["reason"] == "opportunist"),
        "connects": sum(1 for p in transitions
                        for a in p["actions"] if "connect" in a),
        "link_losses": sum(1 for p in transitions if p["event"] == "link_lost"),
        "prep_entries": sum(1 for p in transitions
                            if p["from"] == "initiation"
                            and p["to"] in ("preparation", "execution")),
        "rollbacks": sum(1 for p in transitions
                         if p["from"] == "preparation" and p["to"] == "initiation"),
        "executions": sum(1 for p in transitions
                          if p["to"] == "execution" and p["from"] != "execution"),
    }, records


def test_c11_metrics_match_independent_recount():
    traces = {
        "crossing": run(load_scenario(SCENARIO_DIR / "crossing.json")),
        "noisy": run(load_scenario(SCENARIO_DIR / "noisy.json")),
        "pingpong": run(from_dict(_oscillation_doc(0.0))),
    }
    checked = 0
    for name, trace in traces.items():
        snap = compute_metrics(trace)
        expected, records = _recount(trace)
        # The reason split is published as rates, not counts.
        horizon_s = trace.records[0].payload["duration_ms"] / 1000.0
        assert snap.ihor == expected.pop("imperative") / horizon_s, name
        assert snap.ohor == expected.pop("opportunist") / horizon_s, name
        checked += 2
        for key, value in expected.items():
            assert getattr(snap, key) == value, (name, key)
            checked += 1
        assert snap.timely + snap.tardy + snap.premature == snap.completed
        assert snap.hor == snap.ihor + snap.ohor  # exact float identity

        def close(a, b):
            return (a is None and b is None) or math.isclose(
                a, b, rel_tol=1e-12, abs_tol=1e-15)

        mean = lambda xs: statistics.fmean(xs) if xs else None
        assert close(snap.il_ms, mean([float(r["t_switch_done"] - r["t_trigger"])
                                    for r in records]))
        assert close(snap.hol_ms, mean([float(r["t_eval_done"] - r["t_prep"])
                                     for r in records]))
        assert close(snap.dlat_ms, mean([float(r["t_trigger"] - r["t_prep"])
                                      for r in records]))
        assert close(snap.evlat_ms, mean([float(r["t_eval_done"] - r["t_switch_done"])
                                       for r in records]))
        assert close(snap.impr, mean([r["uf_new"] / r["uf_old"] for r in records
                                      if r["accepted"] and r["uf_old"] != 0.0]))
    _pass("metrics recount", traces=len(traces), counts_checked=checked)


# --- 12: narrative classification fixtures -----------------------------------

def _att(terminal="mtA", prov="p1", net="n1", cell="bs1", ch="c1", tech="lte"):
    return Attachment(terminal_id=terminal, provider_id=prov, net_id=net,
                      cell_id=cell, channel_id=ch, technology=tech)


def test_c12_narrative_transitions_classify_as_stated():
    cases = []

    # same cell, new channel: physical-layer move
    ht = classify(_att(cell="bs2", ch="ch1"), _att(cell="bs2", ch="ch2"))
    assert ht.code == "channel" and ht.layer is Layer.L1
    cases.append(("channel", ht.layer.value))

    # new IP network, same provider and technology: network-layer move
    ht = classify(_att(cell="bs6", net="n6"), _att(cell="bs7", net="n7"))
    assert ht.code == "net_horizontal" and ht.layer is Layer.L3
    cases.append((ht.code, ht.layer.value))

    # new provider: session-layer move regardless of technology
    ht = classify(_att(cell="bs4", net="n4", prov="p1"),
                  _att(cell="bs5", net="n5", prov="p2"))
    assert ht.code == "provider_horizontal" and ht.layer is Layer.L4_7
    cases.append((ht.code, ht.layer.value))

    # session passed between terminals on the same attachment point
    ht = classify(_att(terminal="mtA"), _att(terminal="mtB"))
    assert ht.code == "terminal" and ht.layer is Layer.L4_7
    cases.append((ht.code, ht.layer.value))

    _pass("narrative classification", cases=len(cases))


# --- 13: the terminal's application type selects the handoff method ----------

def test_c13_terminal_app_type_selects_policy_method():
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    doc["policy"] = {"entries": [
        {"layer": layer.value, "app_type": "video", "method": "VIDEO_HO"}
        for layer in Layer
    ]}
    # A second terminal beside the first, running another application.
    doc["terminals"].append({"id": "mt2", "path": [[0, [0.0, 0.0]]], "app_type": "voice"})
    handoffs = _handoffs(run(from_dict(doc)))
    by_terminal = {t: [h["method"] for h in handoffs if h["terminal"] == t]
                   for t in ("mt1", "mt2")}
    assert by_terminal["mt1"] and set(by_terminal["mt1"]) == {"VIDEO_HO"}
    assert by_terminal["mt2"] and "VIDEO_HO" not in by_terminal["mt2"]
    _pass("app type policy", handoffs=len(handoffs))
