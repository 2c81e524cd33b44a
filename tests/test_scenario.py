"""Scenario document parsing and validation diagnostics."""

import copy
import json
import math
import pickle
import random
import struct
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handoffsim import controller as ctl
from handoffsim import engine
from handoffsim.context import GoalDirection, GoalSpec
from handoffsim.desirability import desirability, weighted_terms
from handoffsim.metrics import compute_metrics
from handoffsim.errors import ScenarioError
from handoffsim.scenario import (
    _CONTROLLER_KEYS, _GAUSS_MAX, MEASURED, ControllerConfig, Strategy, from_dict,
    load_scenario, parse_controller,
)
from handoffsim.synthesis import NetworkSignals
from handoffsim.taxonomy import Attachment, Layer, StationTypes, classify, delta
from handoffsim.topology import BaseStation, rss_at, tier_path_loss
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
            assert sc.topology.stations
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

    def test_config_fields_are_the_document_keys_that_set_them(self):
        # A field no document sets is not configuration.
        assert set(ControllerConfig._fields) == _CONTROLLER_KEYS | {"success_regions", "policy"}

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
            GoalDirection(region["direction"]),
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


class TestStrictPolicyReach:
    """A strict table must name a method for every (layer, app_type) pair
    that a handoff of the scenario can reach."""

    GAP = "policy.entries: strict table has no entry for {}, which a handoff can reach"

    def _strict(self, *entries, topology=None, app_types=("video",)):
        doc = _doc(policy={"strict": True, "entries": [
            {"layer": layer, "app_type": app, "method": "M"} for layer, app in entries
        ]})
        if topology is not None:
            doc["topology"]["providers"] = topology
        doc["terminals"] = [
            {"id": f"mt{i}", "path": [[0, [0.0, 0.0]]], "app_type": app}
            for i, app in enumerate(app_types)
        ]
        return doc

    def _providers(self, *layout):
        """Providers of nets of stations: ``[[["bs_a"], ["bs_b"]]]`` is one
        provider with two nets of one station each."""
        return [
            {"id": f"p{pi}", "nets": [
                {"id": f"n{pi}{ni}", "stations": [
                    {"id": sid, "position": [0.0, 0.0], "technology": "lte",
                     "channels": [f"{sid}_ch"]} for sid in net
                ]} for ni, net in enumerate(nets)
            ]} for pi, nets in enumerate(layout)
        ]

    def test_each_missing_pair_is_reported_in_layer_then_app_type_order(self):
        doc = self._strict(("L3", "voice"), app_types=("voice", "video", "data"),
                           topology=self._providers([["bs_a", "bs_b"]], [["bs_c"]]))
        doc["synthesis"]["networks"]["bs_c"] = {"base": {"Q": 1.0}}
        assert _problems(doc) == [self.GAP.format(pair) for pair in [
            ("L2", "data"), ("L2", "video"), ("L2", "voice"),
            ("L4-7", "data"), ("L4-7", "video"), ("L4-7", "voice"),
        ]]

    @pytest.mark.parametrize("layout, layer", [
        ([[["bs_a", "bs_b"]]], "L2"),
        ([[["bs_a"], ["bs_b"]]], "L3"),
        ([[["bs_a"]], [["bs_b"]]], "L4-7"),
    ], ids=["one-net", "one-provider", "two-providers"])
    def test_a_layout_reaches_one_layer(self, layout, layer):
        topology = self._providers(*layout)
        assert _problems(self._strict(topology=topology)) == [
            self.GAP.format((layer, "video"))
        ]
        for app in ("video", "*"):
            sc = from_dict(self._strict((layer, app), topology=topology))
            assert sc.controller.policy.defaults == {}

    def test_one_station_reaches_no_layer(self):
        doc = self._strict(topology=self._providers([["bs_a"]]))
        del doc["synthesis"]["networks"]["bs_b"]
        assert from_dict(doc).controller.policy.entries == {}

    def test_a_wildcard_terminal_needs_a_wildcard_entry(self):
        doc = self._strict(("L3", "video"), app_types=("video", "*"))
        assert _problems(doc) == [self.GAP.format(("L3", "*"))]

    def test_a_table_with_defaults_is_not_checked(self):
        doc = self._strict()
        doc["policy"]["strict"] = False
        assert from_dict(doc).controller.policy.entries == {}


# Station, net and provider ids are drawn from one pool, so an id of one kind
# often names something of another kind too.
_POOL = tuple("abcdefghijklmnopqrstuvwxyz0")


class TestReachScan:
    """The layers a strict table is checked for are the layers of all pairs
    of distinct stations, whatever ids a net and a provider share."""

    @staticmethod
    def _problems(layout, technology=lambda sid: "lte"):
        """What an empty strict table is reported to lack for ``layout``:
        (provider id, ((net id, (station id, ...)), ...)) pairs."""
        doc = TestStrictPolicyReach()._strict(topology=[
            {"id": pid, "nets": [
                {"id": nid, "stations": [
                    {"id": sid, "position": [0.0, 0.0], "technology": technology(sid),
                     "channels": [f"{sid}_ch"]} for sid in sids
                ]} for nid, sids in nets
            ]} for pid, nets in layout
        ])
        doc["synthesis"]["networks"] = {
            sid: {"base": {"Q": 1.0}} for _, nets in layout for _, sids in nets for sid in sids
        }
        try:
            from_dict(doc)
        except ScenarioError as err:
            return err.problems
        return []

    @staticmethod
    def _gaps(*layers):
        return [TestStrictPolicyReach.GAP.format((layer, "video")) for layer in layers]

    def test_a_net_and_a_provider_may_share_an_id(self):
        layout = [("a", [("b", ["s1"])]), ("b", [("c", ["s2"]), ("d", ["s3"])])]
        assert self._problems(layout) == self._gaps("L3", "L4-7")

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_the_scan_reports_the_layers_of_all_pairs(self, data):
        shape = data.draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3),
                                   min_size=1, max_size=3), label="shape")
        provider_ids, net_ids, station_ids = (
            iter(data.draw(st.permutations(_POOL), label=kind))
            for kind in ("providers", "nets", "stations")
        )
        layout = [
            (next(provider_ids), [(next(net_ids), [next(station_ids) for _ in range(size)])
                                  for size in nets])
            for nets in shape
        ]
        wifi = data.draw(st.sets(st.sampled_from(_POOL)), label="wifi stations")

        def technology(sid):
            return "wifi" if sid in wifi else "lte"

        stations = [
            BaseStation(sid, nid, pid, (0.0, 0.0), technology(sid))
            for pid, nets in layout for nid, sids in nets for sid in sids
        ]
        types = StationTypes(stations)
        layers = {types[a.id, b.id].layer for a in stations for b in stations if a != b}
        assert self._problems(layout, technology) == self._gaps(
            *(layer.value for layer in Layer if layer in layers)
        )

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


_MAX = sys.float_info.max


class TestGeometricOverflow:
    """A weighted geometric signal that is not finite at some tick of the
    run would stop scoring mid-run, so the parser rejects it; one that
    overflows only where no tick samples it runs to completion."""

    @staticmethod
    def _signal(**signals):
        doc = _doc()
        doc["synthesis"]["networks"]["bs_b"] = signals
        return doc

    def test_a_ramp_that_overflows_by_the_last_tick(self):
        doc = self._signal(base={"Q": 10000.0}, ramps={"Q": 1e308})
        assert _problems(doc) == ["synthesis.networks.bs_b.ramps.Q: not finite by 11900 ms"]

    def test_a_waypoint_rise_that_overflows(self):
        doc = self._signal(waypoints={"Q": [[0, -1.7e308], [12000, 1.7e308]]})
        assert _problems(doc) == [
            "synthesis.networks.bs_b.waypoints.Q: not finite between 0 and 12000 ms"
        ]

    def test_only_a_reached_segment_is_reported(self):
        # No 100 ms tick falls in (50, 99]; 100 ms falls in (99, 200].
        doc = self._signal(waypoints={"Q": [[0, 1.0], [50, -1.7e308], [99, 1.7e308],
                                            [200, -1.7e308]]})
        assert _problems(doc) == [
            "synthesis.networks.bs_b.waypoints.Q: not finite between 99 and 200 ms"
        ]

    @pytest.mark.parametrize("signals", [
        {"ramps": {"Q": _MAX / 11900}},  # finite at the last tick, 11900 ms
        {"base": {"Q": -_MAX}, "ramps": {"Q": _MAX / 11900}},
        {"waypoints": {"Q": [[11900, 1.0], [12000, -1.7e308], [13000, 1.7e308]]}},
        {"waypoints": {"Q": [[11850, -1.7e308], [11899, 1.7e308]]}},
        {"waypoints": {"Q": [[-200, -1.7e308], [-100, 1.7e308], [0, 1.0]]}},
        {"waypoints": {"Q": [[0, -_MAX / 2], [12000, _MAX / 2]]}},
    ], ids=["ramp", "ramp-from-below", "after-horizon", "between-ticks", "before-zero",
            "finite-rise"])
    def test_an_accepted_signal_runs_to_completion(self, signals):
        trace = engine.run(from_dict(self._signal(**signals)))
        assert trace.records[-1].t < 12000

    def test_an_unweighted_criterion_is_not_scored(self):
        doc = _doc(criteria=[*_doc()["criteria"], {"id": "Z", "source": "network",
                                                   "polarity": "beneficial", "unit": "u"}])
        doc["synthesis"]["networks"]["bs_b"]["ramps"]["Z"] = 1e308
        engine.run(from_dict(doc))


class TestStochasticOverflow:
    """A weighted AR(1) walk stays within ``|base| + M``, where ``M`` is the
    larger of its starting offset and ``sigma * Z / (1 - rho)`` and ``Z`` is
    the largest draw ``random.gauss`` can make; the parser rejects a walk
    whose bound is not finite."""

    @staticmethod
    def _noisy(**synthesis):
        doc = json.loads((SCENARIO_DIR / "noisy.json").read_text())
        doc["synthesis"].update(synthesis)
        return doc

    def test_the_bound_is_the_largest_gauss_draw(self):
        class Extreme(random.Random):
            """Draws 0.0, then the largest float below 1."""

            def __init__(self):
                super().__init__(0)
                self.draws = iter((0.0, 1.0 - 2.0 ** -53))

            def random(self):
                return next(self.draws)

        assert Extreme().gauss(0.0, 1.0) == _GAUSS_MAX == 8.571674348652905

    def test_a_noise_that_overflows(self):
        assert _problems(self._noisy(noise_sigma=1e308)) == [
            f"synthesis.networks.{net}.base.Q: walk may not stay finite" for net in ("bs_a", "bs_b")
        ]

    @pytest.mark.parametrize("sigma, signals", [
        (0.0, {"base": {"Q": 1e308}, "start": {"Q": -1e308}}),
        (1e306, {"base": {"Q": 1.7e308}}),  # its bound overflows; this seed's draws do not
    ], ids=["starting-offset", "base-plus-noise"])
    def test_a_walk_that_overflows(self, sigma, signals):
        doc = self._noisy(noise_sigma=sigma)
        doc["synthesis"]["networks"]["bs_b"] = signals
        assert _problems(doc) == ["synthesis.networks.bs_b.base.Q: walk may not stay finite"]

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_the_bound_is_exact_in_sigma_and_rho(self, rho):
        # noisy.json's bases (60000 and 50000) and starting offsets vanish
        # beside the noise's reach.
        edge = _MAX / (1.0 + 1e-9) * (1.0 - rho) / _GAUSS_MAX
        from_dict(self._noisy(noise_sigma=edge * 0.999, ar1_rho=rho))
        assert _problems(self._noisy(noise_sigma=edge * 1.001, ar1_rho=rho)) == [
            f"synthesis.networks.{net}.base.Q: walk may not stay finite" for net in ("bs_a", "bs_b")
        ]

    @pytest.mark.parametrize("synthesis", [
        {"noise_sigma": 1e306},
        {"noise_sigma": 1e306, "ar1_rho": 0.0},
        {"noise_sigma": 0.0, "ar1_rho": 0.0},
    ], ids=["noise", "white-noise", "still"])
    def test_an_accepted_walk_runs_to_completion(self, synthesis):
        doc = self._noisy(**synthesis)
        trace = engine.run(from_dict(doc))
        assert trace.records[-1].t < doc["duration_ms"]

    def test_an_invalid_rho_or_sigma_is_reported_alone(self):
        assert _problems(self._noisy(noise_sigma=1e308, ar1_rho=1.0)) == [
            "synthesis.ar1_rho: must lie in [0, 1)"
        ]
        assert _problems(self._noisy(noise_sigma=-1e308)) == [
            "synthesis.noise_sigma: must be >= 0"
        ]

    def test_an_unweighted_criterion_is_not_checked(self):
        doc = self._noisy(noise_sigma=1e308)
        doc["weights"]["weights"] = {"RSS": 1.0}
        engine.run(from_dict(doc))


def _rss_weighted(path_loss):
    doc = _doc(path_loss=path_loss)
    doc["weights"]["weights"] = {"Q": 0.5, "RSS": 0.5}
    return doc


def _scores(trace):
    return [value for rec in trace.records if rec.kind == "anl"
            for _, value in rec.payload["entries"]]


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _floats(bits):
    return array("d", array("q", bits).tobytes())


def _largest_accepted(accepts, lo, hi):
    """The largest float in [lo, hi) that ``accepts``, for positive ``lo``
    and ``hi`` with ``lo`` accepted and ``hi`` not, by bisection over the
    floats between them."""
    a, b = _bits(lo), _bits(hi)
    while b - a > 1:
        mid = (a + b) // 2
        if accepts(_floats([mid])[0]):
            a = mid
        else:
            b = mid
    return _floats([a])[0]


def _parses(doc):
    try:
        from_dict(doc)
    except ScenarioError:
        return False
    return True


def test_log10_is_non_decreasing_where_the_bounds_read_it():
    """The K and RSS bounds are exact wherever ``math.log10`` is
    non-decreasing: here over the 2**16 floats below the largest, on each
    side of the default floor, 1e-6, and above the least positive float."""
    n = 2 ** 16
    top, floor, least = _bits(_MAX), _bits(1e-6), _bits(5e-324)
    for start in (top - n + 1, floor - n, floor, least):
        logs = list(map(math.log10, _floats(range(start, start + n))))
        assert all(a <= b for a, b in zip(logs, logs[1:])), start


class TestScoreOverflow:
    """Every score of finite values lies between the scores of the two
    extreme assignments, beneficial values at the float maximum and
    detrimental ones at their floor, and the reverse; the parser rejects a
    K with which either is not finite."""

    # crossing.json weights Q alone, with W = 1 and the default floor, 1e-6.
    EDGE = _MAX / math.log10(_MAX) - 1.0

    def test_a_k_that_overflows(self):
        assert _problems(_doc(weights={"k": 1e308, "weights": {"Q": 1.0}})) == [
            "weights.k: scores may not stay finite with K = 1e+308"
        ]

    def test_the_bound_is_exact_in_k(self):
        from_dict(_doc(weights={"k": self.EDGE * 0.999, "weights": {"Q": 1.0}}))
        k = self.EDGE * 1.001
        assert _problems(_doc(weights={"k": k, "weights": {"Q": 1.0}})) == [
            f"weights.k: scores may not stay finite with K = {k!r}"
        ]

    def test_a_floor_below_the_smallest_normal_float_narrows_it(self):
        doc = _doc(weights={"k": self.EDGE * 0.999, "weights": {"Q": 1.0}})
        doc["criteria"][0]["floor"] = 5e-324
        assert _problems(doc) == [
            f"weights.k: scores may not stay finite with K = {self.EDGE * 0.999!r}"
        ]

    def test_an_accepted_k_scores_the_largest_values_finitely(self):
        doc = _doc(weights={"k": self.EDGE * 0.999, "weights": {"Q": 1.0}})
        for signals in doc["synthesis"]["networks"].values():
            signals["base"]["Q"] = _MAX
            signals.pop("ramps", None)
        scores = _scores(engine.run(from_dict(doc)))
        assert scores and all(math.isfinite(v) for v in scores)
        assert max(scores) > _MAX / 2

    @staticmethod
    def _with_detrimental(k):
        """crossing.json scored on ``Q`` and a detrimental ``Z``, weight 1.0
        each, with every ``Q`` at the float maximum and ``Z`` below its
        floor."""
        doc = _doc(weights={"k": k, "weights": {"Q": 1.0, "Z": 1.0}})
        doc["criteria"].append({"id": "Z", "source": "network", "polarity": "detrimental"})
        for signals in doc["synthesis"]["networks"].values():
            signals["base"] = {"Q": _MAX, "Z": 1e-9}
            signals.pop("ramps", None)
        return doc

    def test_a_detrimental_term_is_bounded_by_its_own_extreme(self):
        # Beneficial Q at the maximum adds (K + 1) * 308.25, detrimental Z
        # at its floor 1e-6 adds (K + 1) * 6: finite for K up to about
        # MAX / 314.25, past a bound that takes every term at the larger
        # magnitude, MAX / 616.5.
        k = _MAX / 400
        scores = _scores(engine.run(from_dict(self._with_detrimental(k))))
        assert scores and all(math.isfinite(v) for v in scores)
        assert max(scores) == pytest.approx((k + 1.0) * (math.log10(_MAX) + 6.0))
        assert f"{max(scores):.3g}" == "1.41e+308"

    @pytest.mark.parametrize("weights", [{"Q": 1.0}, {"Q": 1.0, "Z": 1.0}],
                             ids=["beneficial", "with-detrimental"])
    def test_the_largest_accepted_k_scores_its_extremes_finitely(self, weights):
        def doc(k):
            out = self._with_detrimental(k)
            out["weights"]["weights"] = weights
            return out

        def extremes_are_finite(profile):
            terms = weighted_terms(profile, sc.catalog)
            return all(
                math.isfinite(desirability({cid: _MAX if beneficial is high else floor
                                            for cid, _, floor, beneficial in terms}, terms))
                for high in (True, False)
            )

        edge = _largest_accepted(lambda k: _parses(doc(k)), 1.0, _MAX)
        sc = from_dict(doc(edge))
        assert extremes_are_finite(sc.weights)
        scores = _scores(engine.run(sc))
        assert scores and all(math.isfinite(v) for v in scores)
        k = math.nextafter(edge, math.inf)
        assert not extremes_are_finite(sc.weights._replace(k=k))
        assert _problems(doc(k)) == [f"weights.k: scores may not stay finite with K = {k!r}"]


class TestRssOverflow:
    """When RSS is weighted, a covered position lies within its station's
    radius, and ``rss_at`` is monotone in the distance, so the parser
    rejects an exponent with which ``rss_at`` at some station's radius is
    not finite."""

    # crossing.json's stations are macro cells of the default radius, 1000 m.
    EDGE = (_MAX - 40.0) / (10.0 * 3.0)

    @pytest.mark.parametrize("exponent", [1e308, -1e308])
    def test_an_exponent_that_overflows(self, exponent):
        assert _problems(_rss_weighted({"macro": {"exponent": exponent}})) == [
            "path_loss.macro.exponent: RSS may not stay finite"
        ]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_bound_is_exact_in_the_exponent(self, sign):
        doc = _rss_weighted({"macro": {"exponent": sign * self.EDGE * 0.999}})
        trace = engine.run(from_dict(doc))
        assert all(math.isfinite(v) for v in _scores(trace))
        assert _problems(_rss_weighted({"macro": {"exponent": sign * self.EDGE * 1.001}})) == [
            "path_loss.macro.exponent: RSS may not stay finite"
        ]

    def test_a_tier_without_stations_is_accepted_and_runs(self):
        # crossing.json has no femto station, so no RSS reads the override,
        # whose 10 n is not finite.
        doc = _rss_weighted({"femto": {"exponent": 1e308}})
        scores = _scores(engine.run(from_dict(doc)))
        assert scores and all(math.isfinite(v) for v in scores)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_largest_accepted_exponent_keeps_rss_finite(self, sign):
        def doc(n):
            return _rss_weighted({"macro": {"exponent": sign * n}})

        def rss_is_finite(exponent):
            params = tier_path_loss("macro", {"macro": {"exponent": exponent}})
            return all(
                math.isfinite(rss_at((bs.coverage_radius, 0.0),
                                     bs._replace(position=(0.0, 0.0)), params))
                for bs in sc.topology.stations
            )

        edge = _largest_accepted(lambda n: _parses(doc(n)), 1.0, _MAX)
        sc = from_dict(doc(edge))
        assert rss_is_finite(sign * edge)
        scores = _scores(engine.run(sc))
        assert scores and all(math.isfinite(v) for v in scores)
        n = math.nextafter(edge, math.inf)
        assert not rss_is_finite(sign * n)
        assert _problems(doc(n)) == ["path_loss.macro.exponent: RSS may not stay finite"]

    def test_an_unweighted_rss_is_not_checked(self):
        engine.run(from_dict(_doc(path_loss={"macro": {"exponent": 1e308}})))


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


def _station(doc, net=0):
    return doc["topology"]["providers"][0]["nets"][net]["stations"][0]


# Each check that reads more than one field, or a field against a rule of
# the model, and the exact problems an edit of crossing.json makes it report.
_FIELD_CHECKS = [
    ("duplicate-provider",
     lambda d: d["topology"]["providers"].append({"id": "prov1", "nets": []}),
     ["topology.providers[1].id: duplicate provider id 'prov1'"]),
    ("duplicate-net",
     lambda d: d["topology"]["providers"][0]["nets"].append({"id": "net_a", "stations": []}),
     ["topology.providers[0].nets[2].id: duplicate net id 'net_a'"]),
    ("duplicate-station",
     lambda d: _station(d, 1).update(id="bs_a"),
     ["topology.providers[0].nets[1].stations[0].id: duplicate station id 'bs_a'"]),
    ("duplicate-channel",
     lambda d: _station(d, 1).update(channels=["b1", "a1"]),
     ["topology.providers[0].nets[1].stations[0].channels[1]: duplicate channel id 'a1'"]),
    ("unknown-tier",
     lambda d: _station(d).update(tier="zeppelin"),
     ["topology.providers[0].nets[0].stations[0].tier: unknown tier 'zeppelin'"]),
    ("zero-radius",
     lambda d: _station(d).update(radius=0),
     ["topology.providers[0].nets[0].stations[0].radius: non-positive radius"]),
    ("negative-radius",
     lambda d: _station(d, 1).update(radius=-5.0),
     ["topology.providers[0].nets[1].stations[0].radius: non-positive radius"]),
    ("no-channels",
     lambda d: _station(d).pop("channels"),
     ["topology.providers[0].nets[0].stations[0].channels: lists no channels"]),
    ("negative-k",
     lambda d: d["weights"].update(k=-1),
     ["weights.k: constant K must be >= 0, got -1.0"]),
    ("weight-above-one",
     lambda d: d["weights"].update(weights={"Q": 1.5}),
     ["weights.weights.Q: outside [0, 1]: 1.5"]),
    ("unknown-weighted-criterion",
     lambda d: d["weights"]["weights"].update(NOPE=0.5),
     ["weights.weights.NOPE: unknown criterion 'NOPE'"]),
    ("side-sum",
     lambda d: d["weights"].update(weights={"Q": 0.4, "RSS": 0.5}),
     ["weights.weights: beneficial weights sum to 0.9, expected 1.0"]),
    ("region-without-bound",
     lambda d: d.update(success_regions={"ExLat": {"direction": "maintain_below"}}),
     ["success_regions.ExLat.bound: direction maintain_below needs a bound"]),
    ("region-without-lower",
     lambda d: d.update(success_regions={"ExLat": {"direction": "keep_within", "upper": 2}}),
     ["success_regions.ExLat.lower: keep_within needs lower and upper"]),
    ("region-without-upper",
     lambda d: d.update(success_regions={"ExLat": {"direction": "keep_within", "lower": 1}}),
     ["success_regions.ExLat.upper: keep_within needs lower and upper"]),
    ("negative-k-and-weight-above-one",
     lambda d: d.update(weights={"k": -1, "weights": {"Q": 1.5}}),
     ["weights.k: constant K must be >= 0, got -1.0", "weights.weights.Q: outside [0, 1]: 1.5"]),
]


@pytest.mark.parametrize("edit, expected", [c[1:] for c in _FIELD_CHECKS],
                         ids=[c[0] for c in _FIELD_CHECKS])
def test_each_check_reports_every_problem_at_its_field_path(edit, expected):
    doc = _doc()
    edit(doc)
    assert _problems(doc) == expected


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
    step builds: 23 types, all named tuples."""
    sc = load_scenario(SCENARIO_DIR / "crossing.json")
    topo = sc.topology
    old = Attachment("mt1", "p1", "net1", "c1", "ch1", "lte")
    new = Attachment("mt1", "p1", "net1", "c2", "ch2", "lte")
    record = ctl.HandoffRecord(
        "mt1", "c1", "c2", ctl.Reason.OPPORTUNIST, "cell_horizontal", "MAHO",
        0, 100, 200, 300, 5.0, 6.0, True,
    )
    return [
        sc, topo, topo.stations[0], tier_path_loss("macro"),
        sc.terminals[0], sc.weights, sc.controller, sc.controller.policy, sc.synthesis,
        NetworkSignals({"Q": 1.0}), sc.catalog[0],
        GoalSpec(GoalDirection.MAINTAIN_BELOW, bound=50.0),
        old, delta(old, new), classify(old, new),
        record,
        ctl.CurrentLinkLost(), ctl.SwitchComplete(), ctl.TimerFired(300),
        ctl.Connect("c2"), ctl.StartSwitch(record), ctl.ScheduleTimer("eval", 300),
        ctl.RecordHandoff(record),
    ]


def test_the_value_list_names_each_type_once():
    types = [type(v) for v in _values()]
    assert len(types) == len(set(types)) == 23
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
