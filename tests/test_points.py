"""Several controllers in one engine pass, against each run alone.

``engine.run(scenario, points=...)`` steps each (controller, sink) point over
one context: each terminal-tick's coverage, samples, scores and ranked list
are computed once and delivered to every live point.  Each point's records
must be those of the scenario run alone under its controller, byte for
byte; a controller error stops only its own point, and a context error
stops every point still running at that event.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handoffsim import controller, engine
from handoffsim.errors import HandoffSimError
from handoffsim.scenario import from_dict, parse_controller
from handoffsim.trace import HANDOFF, Trace
from test_reference_context import scenarios
from trace_text import ndjson

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Controller settings a grid point may set; each (th_sup, th_inf) is valid.
overrides = st.fixed_dictionaries({}, optional={
    "hysteresis_delta": st.sampled_from([0.0, 0.1, 0.5, 1e6]),
    "dwell_sp": st.sampled_from([0, 100, 400]),
    "strategy": st.sampled_from(["reactive", "proactive"]),
    "th": st.sampled_from([(8.0, 2.0), (0.5, 0.1), (4.0, 3.9)]),
})


def _with_controller(doc: dict, override: dict) -> dict:
    controller = {**doc.get("controller", {}), **override}
    if "th" in controller:
        controller["th_sup"], controller["th_inf"] = controller.pop("th")
    return {**copy.deepcopy(doc), "controller": controller}


def _outcome(result):
    """A point's trace text, or where and why it failed."""
    if isinstance(result, HandoffSimError):
        return ("failed", result.at, type(result).__name__, str(result))
    return ndjson(result)


def _alone(doc: dict):
    try:
        return _outcome(engine.run(from_dict(doc)))
    except HandoffSimError as exc:
        return _outcome(exc)


def _one_pass(doc: dict, docs: list[dict]) -> list:
    points = [(parse_controller(d), Trace()) for d in docs]
    return [_outcome(r) for r in engine.run(from_dict(doc), points=points)]


@settings(max_examples=80, deadline=None)
@given(doc=scenarios(ticks=20), variants=st.lists(overrides, min_size=1, max_size=4))
def test_every_point_of_one_pass_equals_its_run_alone(doc, variants):
    docs = [_with_controller(doc, v) for v in variants]
    assert _one_pass(doc, docs) == [_alone(d) for d in docs]


@settings(max_examples=80, deadline=None)
@given(doc=scenarios(ticks=20, crossing=True),
       variants=st.lists(overrides, min_size=1, max_size=4))
def test_every_point_of_one_pass_equals_its_run_alone_across_a_crossing(doc, variants):
    # Two stations' scores cross under one terminal, so most points hand off
    # and schedule their own timers.
    docs = [_with_controller(doc, v) for v in variants]
    assert _one_pass(doc, docs) == [_alone(d) for d in docs]


@pytest.fixture()
def gapped(handoffs_hit_a_policy_gap):
    """``crossing.json`` with each handoff failing where it starts, as
    under a strict policy table without its entry: at 9100 ms with
    ``delta`` 0 and at 11600 ms with 0.1, while ``delta`` 1e6 never hands
    off and runs to the end."""
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    return [_with_controller(doc, {"hysteresis_delta": d}) for d in (0.0, 1e6, 0.1)]


def test_a_controller_error_stops_only_its_point(gapped):
    want = [_alone(d) for d in gapped]
    assert [w[:2] for w in want if w[0] == "failed"] == [("failed", (9100, "mt1")),
                                                          ("failed", (11600, "mt1"))]
    for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
        docs = [gapped[i] for i in order]
        assert _one_pass(gapped[0], docs) == [want[i] for i in order], order


def test_a_context_error_stops_every_live_point(gapped, monkeypatch):
    real = engine.sample_context
    asked = []

    def failing(net, t, *args):
        asked.append(t)
        if t == 10000:
            raise HandoffSimError("no context at 10000 ms")
        return real(net, t, *args)

    monkeypatch.setattr(engine, "sample_context", failing)
    early, stopped = ("failed", (9100, "mt1")), ("failed", (10000, "mt1"))
    want = [_alone(d) for d in gapped]
    assert [w[:2] for w in want] == [early, stopped, stopped]
    assert want[1] == want[2]
    assert _one_pass(gapped[0], gapped) == want
    # With no point left running, the pass stops.
    asked.clear()
    assert _one_pass(gapped[0], gapped[:1]) == want[:1]
    assert max(asked) == 9100


def test_a_plain_run_raises_its_error_with_the_event(handoffs_hit_a_policy_gap):
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    with pytest.raises(HandoffSimError) as failed:
        engine.run(from_dict(doc))
    assert failed.value.at == (9100, "mt1")


def test_points_take_their_own_sinks():
    sc = from_dict(json.loads((SCENARIO_DIR / "crossing.json").read_text()))
    with pytest.raises(TypeError):
        engine.run(sc, Trace(), [(sc.controller, Trace())])
    assert engine.run(sc, points=[]) == []


def test_each_point_steps_every_terminal_with_its_one_configuration(monkeypatch):
    """A terminal's application type is its own controller state, and each
    point hands every step the one configuration it was given."""
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    doc["terminals"] = [{"id": "mt1", "path": [[0, [0.0, 0.0]]], "app_type": "video"},
                        {"id": "mt2", "path": [[0, [0.0, 0.0]]], "app_type": "voice"}]
    doc["policy"] = {"entries": [{"layer": layer, "app_type": "video", "method": "VIDEO_HO"}
                                 for layer in ("L2", "L3", "L4-7")]}
    sc = from_dict(doc)
    controllers = [sc.controller, sc.controller._replace(dwell_sp=200)]
    real, seen = controller.step, []

    def step(state, event, cfg, now):
        seen.append((state.terminal, state.app_type, cfg))
        return real(state, event, cfg, now)

    monkeypatch.setattr(controller, "step", step)
    traces = engine.run(sc, points=[(c, Trace()) for c in controllers])
    assert {(terminal, app) for terminal, app, _ in seen} == {("mt1", "video"), ("mt2", "voice")}
    assert {id(cfg) for *_, cfg in seen} == {id(c) for c in controllers}
    for trace in traces:
        methods = {(r.terminal, r.payload["method"]) for r in trace.records if r.kind == HANDOFF}
        assert methods == {("mt1", "VIDEO_HO"), ("mt2", "MIP")}
