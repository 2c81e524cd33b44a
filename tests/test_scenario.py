"""Scenario document parsing and validation diagnostics."""

import copy
import json
from pathlib import Path

import pytest

from handoffsim import engine
from handoffsim.controller import MEASURED, Strategy
from handoffsim.metrics import compute_metrics
from handoffsim.errors import ScenarioError
from handoffsim.scenario import from_dict, load_scenario

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

    def test_every_measured_id_reaches_evaluation(self):
        # A region that any value satisfies, on every measured id, rejects
        # nothing: evaluate() would reject a handoff missing the measure.
        loose = {"direction": "maintain_below", "bound": 1e300}
        doc = _doc(success_regions={mid: loose for mid in MEASURED})
        sc = from_dict(doc)
        assert sorted(sc.controller.success_regions) == sorted(MEASURED)
        assert (compute_metrics(engine.run(sc)).accepted
                == compute_metrics(engine.run(from_dict(_doc()))).accepted > 0)


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
