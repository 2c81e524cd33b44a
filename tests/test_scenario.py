"""Scenario document parsing and validation diagnostics."""

import copy
import json
import pickle
from pathlib import Path

import pytest

from handoffsim import controller as ctl
from handoffsim import engine
from handoffsim.context import GoalDirection, GoalSpec
from handoffsim.controller import MEASURED, Strategy
from handoffsim.metrics import compute_metrics
from handoffsim.errors import ScenarioError
from handoffsim.scenario import from_dict, load_scenario, parse_controller
from handoffsim.synthesis import NetworkSignals
from handoffsim.taxonomy import Attachment, classify, delta
from handoffsim.topology import tier_path_loss
from handoffsim.trace import Trace
from test_golden import _inputs
from trace_text import ndjson

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _doc(**tweaks):
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    doc.update(tweaks)
    return doc


def _problems(doc):
    with pytest.raises(ScenarioError) as err:
        from_dict(doc)
    return err.value.problems


def _assert_problem(doc, fragment):
    problems = _problems(doc)
    assert any(fragment in p for p in problems), problems


class TestValidDocuments:
    def test_bundled_scenarios_load(self):
        for name in ("crossing.json", "noisy.json"):
            sc = load_scenario(SCENARIO_DIR / name)
            assert sc.duration_ms % sc.tick_ms == 0
            assert sc.topology.validate() == []
            assert sc.terminals

    def test_fields_round_trip(self):
        sc = from_dict(_doc())
        assert sc.seed == 7
        assert sc.duration_ms == 12000
        assert sc.tick_ms == 100
        assert sc.controller.th_sup == 4.0
        assert sc.controller.strategy is Strategy.REACTIVE
        assert sc.weights.k == 0.0
        assert sc.weights.weights == {"Q": 1.0}
        assert [t.id for t in sc.terminals] == ["mt1"]
        assert sc.metrics_constants == {"AL": 1.0, "DAR": 1.0}

    def test_raw_document_preserved(self):
        doc = _doc()
        sc = from_dict(doc)
        assert sc.raw == doc

    def test_catalog_extends_defaults(self):
        sc = from_dict(_doc())
        ids = [c.id for c in sc.catalog]
        assert "RSS" in ids  # built in
        assert "Q" in ids    # declared by the document

    def test_controller_defaults_fill_missing_fields(self):
        doc = _doc()
        del doc["controller"]
        doc["weights"] = {"k": 0.0, "weights": {"Q": 1.0}}
        sc = from_dict(doc)
        assert sc.controller.hysteresis_delta == 0.5
        assert sc.controller.th_sup == 8.0
        assert sc.controller.th_inf == 2.0
        assert sc.controller.dwell_sp == 200
        assert sc.controller.strategy is Strategy.REACTIVE

    def test_seed_defaults_to_zero(self):
        doc = _doc()
        del doc["seed"]
        assert from_dict(doc).seed == 0


class TestTimingValidation:
    def test_non_integer_seed(self):
        _assert_problem(_doc(seed="seven"), "seed: must be an integer")

    def test_missing_duration(self):
        doc = _doc()
        del doc["duration_ms"]
        _assert_problem(doc, "duration_ms: required non-negative integer")

    def test_negative_duration(self):
        _assert_problem(_doc(duration_ms=-1), "duration_ms: required")

    def test_zero_tick(self):
        _assert_problem(_doc(tick_ms=0), "tick_ms: required positive integer")

    def test_duration_not_multiple_of_tick(self):
        _assert_problem(_doc(duration_ms=12050), "multiple of tick_ms")


class TestTopologyValidation:
    def test_missing_topology(self):
        doc = _doc()
        del doc["topology"]
        _assert_problem(doc, "topology: missing or not an object")

    def test_no_stations(self):
        _assert_problem(_doc(topology={"providers": []}),
                        "no base stations defined")

    def test_station_without_channels(self):
        doc = _doc()
        doc["topology"]["providers"][0]["nets"][0]["stations"][0]["channels"] = []
        _assert_problem(doc, "lists no channels")

    def test_unknown_tier(self):
        doc = _doc()
        doc["topology"]["providers"][0]["nets"][0]["stations"][0]["tier"] = "zeppelin"
        _assert_problem(doc, "unknown tier")

    def test_duplicate_station_id(self):
        doc = _doc()
        nets = doc["topology"]["providers"][0]["nets"]
        nets[1]["stations"][0]["id"] = "bs_a"
        _assert_problem(doc, "duplicate station id")

    def test_non_positive_radius(self):
        doc = _doc()
        doc["topology"]["providers"][0]["nets"][0]["stations"][0]["radius"] = 0.0
        _assert_problem(doc, "non-positive radius")

    def test_unknown_tier_with_explicit_radius_still_reported(self):
        doc = _doc()
        station = doc["topology"]["providers"][0]["nets"][0]["stations"][0]
        station["tier"] = "zeppelin"
        station["radius"] = 500.0
        _assert_problem(doc, "unknown tier")

    def test_station_missing_position(self):
        doc = _doc()
        del doc["topology"]["providers"][0]["nets"][0]["stations"][0]["position"]
        _assert_problem(doc, "position: expected [x, y]")

    def test_station_missing_technology(self):
        doc = _doc()
        del doc["topology"]["providers"][0]["nets"][0]["stations"][0]["technology"]
        _assert_problem(doc, "technology: missing")


class TestTerminalValidation:
    def test_no_terminals(self):
        _assert_problem(_doc(terminals=[]), "at least one terminal required")

    def test_duplicate_terminal_ids(self):
        doc = _doc(terminals=[
            {"id": "mt1", "path": [[0, [0.0, 0.0]]]},
            {"id": "mt1", "path": [[0, [1.0, 0.0]]]},
        ])
        _assert_problem(doc, "duplicate terminal id")

    def test_path_times_must_increase(self):
        doc = _doc(terminals=[
            {"id": "mt1", "path": [[0, [0.0, 0.0]], [0, [1.0, 0.0]]]},
        ])
        _assert_problem(doc, "waypoint times must increase")

    @pytest.mark.parametrize("t", [-1, -5, -500])
    def test_path_may_start_before_time_zero(self, t):
        doc = _doc(terminals=[{"id": "mt1", "path": [[t, [0.0, 0.0]], [6000, [130.0, 0.0]]]}])
        assert from_dict(doc).terminals[0].path == ((t, (0.0, 0.0)), (6000, (130.0, 0.0)))

    @pytest.mark.parametrize("t", [-500, -1, 0])
    def test_equal_times_are_rejected_at_any_time(self, t):
        doc = _doc(terminals=[{"id": "mt1", "path": [[t, [0.0, 0.0]], [t, [1.0, 0.0]]]}])
        assert _problems(doc) == ["terminals[0].path[1]: waypoint times must increase"]

    def test_malformed_waypoint(self):
        doc = _doc(terminals=[{"id": "mt1", "path": [[0]]}])
        _assert_problem(doc, "expected [t, [x, y]]")

    def test_empty_path(self):
        doc = _doc(terminals=[{"id": "mt1", "path": []}])
        _assert_problem(doc, "at least one [t, [x, y]] waypoint")


class TestCriteriaAndWeights:
    def test_redefining_builtin_criterion(self):
        doc = _doc()
        doc["criteria"].append(
            {"id": "RSS", "source": "network", "polarity": "beneficial"})
        _assert_problem(doc, "'RSS' already defined")

    def test_bad_polarity(self):
        doc = _doc()
        doc["criteria"][0]["polarity"] = "sideways"
        _assert_problem(doc, "expected beneficial or detrimental")

    def test_bad_source(self):
        doc = _doc()
        doc["criteria"][0]["source"] = "hearsay"
        _assert_problem(doc, "unknown source")

    def test_weight_names_unknown_criterion(self):
        doc = _doc(weights={"k": 0.0, "weights": {"Zed": 1.0}})
        _assert_problem(doc, "unknown criterion 'Zed'")

    def test_weight_side_must_sum_to_one(self):
        doc = _doc(weights={"k": 0.0, "weights": {"Q": 0.4}})
        _assert_problem(doc, "expected 1.0")

    def test_weight_out_of_range(self):
        doc = _doc(weights={"k": 0.0, "weights": {"Q": 1.5}})
        _assert_problem(doc, "outside [0, 1]")

    def test_negative_k(self):
        doc = _doc(weights={"k": -1.0, "weights": {"Q": 1.0}})
        _assert_problem(doc, "constant K")


# A success region with a key its direction never reads, or an unknown
# direction, and the one problem each is reported as.
_REGION_PROBLEMS = [
    ({"direction": "minimize", "bound": 5, "lower": 1},
     "success_regions.ExLat.lower: not read for direction minimize"),
    ({"direction": "maintain_above", "bound": 5, "upper": 9},
     "success_regions.ExLat.upper: not read for direction maintain_above"),
    ({"direction": "keep_within", "lower": 1, "upper": 2, "bound": 5},
     "success_regions.ExLat.bound: not read for direction keep_within"),
    ({"direction": "sideways", "bound": 5},
     "success_regions.ExLat.direction: expected one of minimize, maximize, "
     "maintain_below, maintain_above, keep_within"),
]


class TestControllerValidation:
    def _ctl(self, **tweaks):
        doc = _doc()
        doc["controller"].update(tweaks)
        return doc

    def test_unknown_strategy(self):
        _assert_problem(self._ctl(strategy="psychic"),
                        "expected reactive or proactive")

    def test_negative_hysteresis(self):
        _assert_problem(self._ctl(hysteresis_delta=-0.1), "must be >= 0")

    def test_negative_dwell(self):
        _assert_problem(self._ctl(dwell_sp=-5), "dwell_sp: must be >= 0")

    def test_negative_latency(self):
        _assert_problem(self._ctl(exec_latency=-1), "exec_latency: must be >= 0")

    def test_thresholds_must_be_ordered(self):
        _assert_problem(self._ctl(th_inf=4.0, th_sup=4.0),
                        "strictly below controller.th_sup")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["hysteresis_delta", "th_sup", "th_inf"])
    def test_nonfinite_float_is_rejected(self, field, value):
        assert _problems(self._ctl(**{field: value})) == [
            f"controller.{field}: must be finite"
        ]

    def test_policy_unknown_layer(self):
        doc = _doc(policy={"entries": [{"layer": "L9", "method": "MIP"}]})
        _assert_problem(doc, "unknown layer 'L9'")

    def test_policy_missing_method(self):
        doc = _doc(policy={"entries": [{"layer": "L3"}]})
        _assert_problem(doc, "method: missing")

    def test_bad_success_region(self):
        doc = _doc(success_regions={"ExLat": {"kind": "teleport"}})
        _assert_problem(doc, "success_regions.ExLat")

    @pytest.mark.parametrize("metric_id", ["HOR", "SHOR", "nonsense"])
    def test_success_region_on_a_measure_the_controller_never_takes(self, metric_id):
        doc = _doc(success_regions={metric_id: {"direction": "maintain_below", "bound": 100.0}})
        assert _problems(doc) == [
            f"success_regions.{metric_id}: not measured by the controller "
            "(expected one of UF, IL, DLat, ExLat, EvLat, HOL, ImpR)"
        ]

    @pytest.mark.parametrize("region, problem", _REGION_PROBLEMS,
                             ids=[p.partition(": ")[0] for _, p in _REGION_PROBLEMS])
    def test_region_key_its_direction_never_reads(self, region, problem):
        assert _problems(_doc(success_regions={"ExLat": region})) == [problem]

    @pytest.mark.parametrize("region", [
        {"direction": "keep_within", "lower": 1, "upper": 2.5},
        {"direction": "keep_within", "lower": 2.5, "upper": 2.5},
        {"direction": "minimize", "bound": 5},
        {"direction": "maintain_above", "bound": -1.5},
    ])
    def test_region_with_the_keys_its_direction_reads(self, region):
        goal = from_dict(_doc(success_regions={"ExLat": region})).controller.success_regions
        assert goal["ExLat"] == GoalSpec(
            "ExLat", GoalDirection(region["direction"]),
            region.get("bound"), region.get("lower"), region.get("upper"),
        )

    @pytest.mark.parametrize("lower, upper", [(5, 1), (-1.5, -2.5)])
    def test_keep_within_with_lower_above_upper(self, lower, upper):
        # No value lies in the range, so every handoff would be rejected.
        region = {"direction": "keep_within", "lower": lower, "upper": upper}
        assert _problems(_doc(success_regions={"ExLat": region})) == [
            "success_regions.ExLat: lower above upper"
        ]

    def test_every_measured_id_reaches_evaluation(self):
        # A region that any value satisfies, on every measured id, rejects
        # nothing: evaluate() would reject a handoff missing the measure.
        loose = {"direction": "maintain_below", "bound": 1e300}
        doc = _doc(success_regions={mid: loose for mid in MEASURED})
        sc = from_dict(doc)
        assert sorted(sc.controller.success_regions) == sorted(MEASURED)
        assert (compute_metrics(engine.run(sc)).accepted
                == compute_metrics(engine.run(from_dict(_doc()))).accepted > 0)

    @pytest.mark.parametrize("edit", [
        {},
        {"controller": {"th_inf": 4.0, "dwell_sp": -5, "strategy": "psychic", "warp": 1}},
        {"controller": {"hysteresis_delta": float("nan"), "opportunist_on_target": 1}},
        {"success_regions": {"HOR": {}, "ExLat": {"kind": "teleport"}},
         "policy": {"entries": [{"layer": "L9"}, {"layer": "L3"}], "strict": "yes"}},
        {"controller": [], "policy": []},
        *({"success_regions": {"ExLat": region}} for region, _ in _REGION_PROBLEMS),
        {"success_regions": {"ExLat": {"direction": "keep_within", "lower": 5, "upper": 1}}},
    ], ids=["valid", "controller", "types", "regions-policy", "not-objects",
            *(f"region-{p.partition(': ')[0]}" for _, p in _REGION_PROBLEMS),
            "region-lower-above-upper"])
    def test_parse_controller_reports_what_from_dict_reports(self, edit):
        doc = _doc(**edit)
        try:
            want = from_dict(doc).controller
        except ScenarioError as exc:
            with pytest.raises(ScenarioError) as err:
                parse_controller(doc)
            assert err.value.problems == exc.problems
        else:
            assert parse_controller(doc) == want


class TestSynthesisValidation:
    def test_unknown_mode(self):
        doc = _doc()
        doc["synthesis"]["mode"] = "tarot"
        _assert_problem(doc, "expected geometric or stochastic")

    def test_rho_out_of_range(self):
        doc = _doc()
        doc["synthesis"]["ar1_rho"] = 1.0
        _assert_problem(doc, "must lie in [0, 1)")

    def test_negative_sigma(self):
        doc = _doc()
        doc["synthesis"]["noise_sigma"] = -2.0
        _assert_problem(doc, "noise_sigma: must be >= 0")

    def test_waypoint_times_must_increase(self):
        doc = _doc()
        doc["synthesis"]["networks"]["bs_b"]["waypoints"] = {
            "Q": [[0, 1.0], [0, 2.0]]}
        _assert_problem(doc, "times must increase")

    def test_empty_waypoint_series(self):
        doc = _doc()
        doc["synthesis"]["networks"]["bs_b"]["waypoints"] = {"Q": []}
        _assert_problem(doc, "empty series")

    def test_weighted_criterion_missing_from_station(self):
        doc = _doc()
        del doc["synthesis"]["networks"]["bs_b"]
        _assert_problem(doc, "synthesis.networks.bs_b: missing weighted criteria")

    def test_rss_weight_needs_no_synthesis(self):
        # RSS comes from the radio model, not the synthesizer
        doc = _doc()
        doc["criteria"] = []
        doc["weights"] = {"k": 0.0, "weights": {"RSS": 1.0}}
        doc["synthesis"] = {"mode": "geometric", "networks": {}}
        from_dict(doc)  # must not raise


class TestPathLossValidation:
    def test_numeric_overrides_load(self):
        sc = from_dict(_doc(path_loss={"macro": {"exponent": 2, "tx_power_dbm": -38.5},
                                       "femto": {}}))
        assert sc.topology.path_loss_overrides["macro"] == {"exponent": 2, "tx_power_dbm": -38.5}

    @pytest.mark.parametrize("value", ["x", None, [3.0], {"n": 3}, True])
    @pytest.mark.parametrize("field", ["tx_power_dbm", "exponent"])
    def test_non_numeric_value(self, field, value):
        assert _problems(_doc(path_loss={"macro": {field: value}})) == [
            f"path_loss.macro.{field}: must be a number"
        ]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    @pytest.mark.parametrize("field", ["tx_power_dbm", "exponent"])
    def test_non_finite_value(self, field, value):
        assert _problems(_doc(path_loss={"pico": {field: value}})) == [
            f"path_loss.pico.{field}: must be finite"
        ]

    def test_unknown_field(self):
        # A radius here would be silently ignored: coverage radii come from
        # the tier or the station.
        _assert_problem(_doc(path_loss={"micro": {"radius": 50.0}}),
                        "path_loss.micro.radius: unknown field")

    def test_unknown_tier(self):
        _assert_problem(_doc(path_loss={"blimp": {"exponent": 2.0}}),
                        "path_loss.blimp: unknown tier")

    def test_not_an_object(self):
        assert _problems(_doc(path_loss=[1, 2])) == ["path_loss: not an object"]
        assert _problems(_doc(path_loss={"macro": 3.0})) == ["path_loss.macro: not an object"]


class TestMisreadsAreRejected:
    """Values the parser once read as something else, or ignored."""

    def test_opportunist_on_target_must_be_a_boolean(self):
        doc = _doc()
        doc["controller"]["opportunist_on_target"] = "no"  # once ran as True
        assert _problems(doc) == ["controller.opportunist_on_target: must be true or false"]

    def test_boolean_tick_is_not_an_integer(self):
        # True once ran a 1 ms tick.
        assert _problems(_doc(tick_ms=True)) == ["tick_ms: required positive integer"]

    def test_channels_must_be_a_list(self):
        doc = _doc()
        doc["topology"]["providers"][0]["nets"][0]["stations"][0]["channels"] = "abc"  # 3 once
        assert _problems(doc) == [
            "topology.providers[0].nets[0].stations[0].channels: must be a list"
        ]

    def test_synthesized_network_must_name_a_station(self):
        doc = _doc()
        doc["synthesis"]["networks"]["bs_zz"] = {"base": {"Q": 1.0}}
        assert _problems(doc) == ["synthesis.networks.bs_zz: names no station"]

    def test_signals_the_mode_does_not_read(self):
        # The AR(1) process evolves only its base (from start), and the
        # geometric mode reads no start: a stochastic ramp alone once passed
        # validation and failed the run.
        doc = json.loads((SCENARIO_DIR / "noisy.json").read_text())
        doc["synthesis"]["networks"]["bs_b"] = {"ramps": {"Q": 1.0}}
        assert _problems(doc) == ["synthesis.networks.bs_b.ramps: not read in stochastic mode"]
        doc = _doc()
        doc["synthesis"]["networks"]["bs_a"]["start"] = {"Q": 5.0}
        assert _problems(doc) == ["synthesis.networks.bs_a.start: not read in geometric mode"]
        doc = json.loads((SCENARIO_DIR / "noisy.json").read_text())
        doc["synthesis"]["networks"]["bs_b"]["start"]["R"] = 5.0
        assert _problems(doc) == ["synthesis.networks.bs_b.start.R: has no base"]

    @pytest.mark.parametrize("scenario, key, value", [
        ("noisy.json", "base", 1.0),
        ("crossing.json", "base", 1.0),
        ("crossing.json", "ramps", 1.0),
        ("crossing.json", "waypoints", [[0, 1.0], [1000, 2.0]]),
    ], ids=["stochastic_base", "base", "ramps", "waypoints"])
    def test_signal_criteria_must_be_in_the_catalog(self, scenario, key, value):
        # Such an id was synthesized and never scored: in the stochastic
        # mode it took a draw from the shared AR(1) generator every tick
        # and so shifted every later draw.
        doc = json.loads((SCENARIO_DIR / scenario).read_text())
        doc["synthesis"]["networks"]["bs_a"].setdefault(key, {})["Zed"] = value
        assert _problems(doc) == [f"synthesis.networks.bs_a.{key}.Zed: unknown criterion"]

    def test_a_start_id_outside_the_catalog_has_no_base(self):
        doc = json.loads((SCENARIO_DIR / "noisy.json").read_text())
        signals = doc["synthesis"]["networks"]["bs_a"]
        signals["base"]["Zed"] = signals["start"]["Zed"] = 1.0
        assert _problems(doc) == ["synthesis.networks.bs_a.base.Zed: unknown criterion"]

    def test_misspelt_top_level_key(self):
        doc = _doc()
        doc["controler"] = doc.pop("controller")
        problems = _problems(doc)
        assert len(problems) == 1
        assert problems[0].startswith("controler: unknown field (expected one of ")

    def test_policy_entry_mobility_is_unknown(self):
        # Only "*" ever matched: any other mobility made the entry dead.
        doc = _doc(policy={"entries": [{"layer": "L3", "app_type": "video",
                                        "mobility": "vehicular", "method": "FMIP"}]})
        assert [p.split(" (")[0] for p in _problems(doc)] == [
            "policy.entries[0].mobility: unknown field"
        ]

    @pytest.mark.parametrize("path", [
        "feature_goals", "controller.app_timeout", "terminals[0].battery",
    ])
    def test_removed_knobs_are_unknown(self, path):
        doc = _doc()
        doc["feature_goals"] = {}
        doc["controller"]["app_timeout"] = 1000
        doc["terminals"][0]["battery"] = 100.0
        assert path in [p.split(":")[0] for p in _problems(doc)]

    def test_policy_entries_key_on_layer_and_app_type(self):
        doc = _doc(policy={"entries": [{"layer": "L3", "app_type": "video", "method": "FMIP"}],
                           "strict": True})
        policy = from_dict(doc).controller.policy
        assert policy.entries == {("L3", "video"): "FMIP"}
        assert policy.defaults == {}

    @pytest.mark.parametrize("value", [None, [], {}, True, "x"])
    @pytest.mark.parametrize("field", ["th_sup", "dwell_sp", "exec_latency"])
    def test_controller_numbers_are_typed(self, field, value):
        doc = _doc()
        doc["controller"][field] = value
        assert [p.split(": ")[0] for p in _problems(doc)] == [f"controller.{field}"]

    def test_waypoint_time_must_be_an_integer(self):
        doc = _doc(terminals=[{"id": "mt1", "path": [[0.5, [0.0, 0.0]]]}])
        assert _problems(doc) == ["terminals[0].path[0]: expected [t, [x, y]]"]


class TestErrorAccumulation:
    def test_multiple_problems_reported_together(self):
        doc = _doc(tick_ms=0, terminals=[])
        doc["controller"]["hysteresis_delta"] = -1.0
        problems = _problems(doc)
        assert len(problems) >= 3
        joined = "\n".join(problems)
        assert "tick_ms" in joined
        assert "terminal" in joined
        assert "hysteresis_delta" in joined

    def test_message_joins_problems(self):
        doc = _doc(tick_ms=0, terminals=[])
        with pytest.raises(ScenarioError) as err:
            from_dict(doc)
        assert "tick_ms" in str(err.value)

    def test_non_object_document(self):
        with pytest.raises(ScenarioError) as err:
            from_dict(["not", "an", "object"])
        assert err.value.problems == ["document: expected a JSON object"]


class TestFileLoading:
    def test_parse_error_names_line(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{\n  "seed": 1,\n  "duration_ms": oops\n}\n')
        with pytest.raises(ScenarioError) as err:
            load_scenario(bad)
        assert err.value.problems[0].startswith("line 3:")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "ghost.json")


def _values():
    """One value of each type a scenario is made of, or that a controller
    step builds: 29 types, all named tuples."""
    sc = load_scenario(SCENARIO_DIR / "crossing.json")
    topo = sc.topology
    old = Attachment("mt1", "p1", "net1", "c1", "ch1", "lte")
    new = Attachment("mt1", "p1", "net1", "c2", "ch2", "lte")
    plan = ctl.TriggerPlan(ctl.Reason.OPPORTUNIST, "c2", "MAHO", "hce:mt1", 100)
    record = ctl.HandoffRecord(
        "mt1", "c1", "c2", ctl.Reason.OPPORTUNIST, "cell_horizontal", "MAHO",
        0, 100, 200, 300, 5.0, 6.0, True,
    )
    return [
        sc, topo, topo.stations[0], topo.nets[0], topo.providers[0], tier_path_loss("macro"),
        sc.terminals[0], sc.weights, sc.controller, sc.controller.policy, sc.synthesis,
        NetworkSignals({"Q": 1.0}), sc.catalog[0],
        GoalSpec("IL", GoalDirection.MAINTAIN_BELOW, bound=50.0),
        old, delta(old, new), classify(old, new),
        plan, ctl.MeasurementSet("c2", {"IL": 10.0}), ctl.EvalOutcome(True), record,
        ctl.CurrentLinkLost(), ctl.SwitchComplete(), ctl.TimerFired("eval", 300),
        ctl.Connect("c2"), ctl.StartSwitch(plan), ctl.ScheduleTimer("eval", 300),
        ctl.RecordHandoff(record), ctl.InFlight(0, "c1", 5.0, "cell_horizontal", 200),
    ]


def test_the_value_list_names_each_type_once():
    types = [type(v) for v in _values()]
    assert len(types) == len(set(types)) == 29
    assert all(issubclass(t, tuple) for t in types)


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_scenario_values_are_immutable(value):
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_a_value_survives_pickling(value):
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value


class TestPickledScenarios:
    """Sweep workers unpickle the parsed scenario their pool hands them."""

    @pytest.mark.parametrize("name", ["crossing.json", "noisy.json"])
    def test_bundled_scenario_round_trips(self, name):
        sc = load_scenario(SCENARIO_DIR / name)
        sc.topology.coverage_index  # a cached index travels with its topology
        assert pickle.loads(pickle.dumps(sc)) == sc

    @pytest.mark.parametrize("name", sorted(_inputs()))
    def test_golden_input_round_trips(self, name):
        sc = from_dict(_inputs()[name])
        assert pickle.loads(pickle.dumps(sc)) == sc

    def test_replaced_controllers_of_an_unpickled_scenario_share_one_context(self):
        # A worker's points run in one pass over the scenario it unpickled.
        doc = _inputs()["noisy"]
        base = pickle.loads(pickle.dumps(from_dict(copy.deepcopy(doc))))
        controllers = [base.controller._replace(hysteresis_delta=h) for h in (0.0, 0.5, 2.0)]
        together = engine.run(base, points=[(c, Trace()) for c in controllers])
        for controller, trace in zip(controllers, together):
            alone = engine.run(from_dict(copy.deepcopy(doc))._replace(controller=controller))
            assert ndjson(trace) == ndjson(alone)
