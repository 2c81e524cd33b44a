"""Radio model, signal synthesis, and event engine behavior."""

import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handoffsim import engine
from handoffsim.engine import advance_position, run
from handoffsim.errors import ScenarioError
from handoffsim.scenario import from_dict, load_scenario
from handoffsim.synthesis import (
    ContextSynthesisSpec,
    NetworkSignals,
    SynthesisState,
    sample_context,
)
from handoffsim.topology import (
    TIER_DEFAULTS,
    BaseStation,
    CoverageIndex,
    PathLossParams,
    Topology,
    coverage,
    rss_at,
    tier_path_loss,
)
from handoffsim.trace import ANL, HANDOFF, INIT, TRANSITION
from reference_context import scenarios
from trace_text import ndjson

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _bs(sid="bs1", net="net1", prov="prov1", pos=(0.0, 0.0), tier="macro",
        radius=None, channels=("c1",), tech="lte"):
    return BaseStation(id=sid, net_id=net, provider_id=prov, position=pos,
                       technology=tech, tier=tier, radius=radius, channels=channels)


_MACRO = tier_path_loss("macro")


class TestPathLoss:
    def test_reference_distance_gives_tx_power(self):
        assert rss_at((1.0, 0.0), _bs(), _MACRO) == -40.0

    def test_macro_at_ten_meters(self):
        # -40 - 10 * 3.0 * log10(10) = -70
        assert rss_at((10.0, 0.0), _bs(), _MACRO) == pytest.approx(-70.0, abs=1e-12)

    def test_micro_at_ten_meters(self):
        rss = rss_at((10.0, 0.0), _bs(tier="micro"), tier_path_loss("micro"))
        assert rss == pytest.approx(-72.0, abs=1e-12)

    def test_pico_at_hundred_meters(self):
        # -50 - 10 * 2.3 * log10(100) = -96
        rss = rss_at((100.0, 0.0), _bs(tier="pico"), tier_path_loss("pico"))
        assert rss == pytest.approx(-96.0, abs=1e-12)

    def test_femto_at_ten_meters(self):
        rss = rss_at((10.0, 0.0), _bs(tier="femto"), tier_path_loss("femto"))
        assert rss == pytest.approx(-75.0, abs=1e-12)

    def test_distances_inside_reference_clamp(self):
        near = rss_at((0.25, 0.0), _bs(), _MACRO)
        assert near == rss_at((1.0, 0.0), _bs(), _MACRO)

    def test_euclidean_distance_both_axes(self):
        # 3-4-5 triangle puts the terminal at 5 m
        expected = -40.0 - 30.0 * math.log10(5.0)
        assert rss_at((3.0, 4.0), _bs(), _MACRO) == pytest.approx(expected, abs=1e-12)

    def test_explicit_params_override_tier(self):
        params = PathLossParams(tx_power_dbm=0.0, exponent=2.0)
        assert rss_at((100.0, 0.0), _bs(), params) == pytest.approx(-40.0, abs=1e-12)

    def test_tier_override_shifts_power(self):
        overrides = {"macro": {"tx_power_dbm": -30.0}}
        params = tier_path_loss("macro", overrides)
        base = rss_at((10.0, 0.0), _bs(), _MACRO)
        assert rss_at((10.0, 0.0), _bs(), params) == pytest.approx(base + 10.0, abs=1e-12)

    def test_unknown_tier_rejected(self):
        with pytest.raises(KeyError):
            tier_path_loss("blimp")

    @given(
        d1=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        d2=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    )
    def test_farther_is_never_stronger(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert rss_at((hi, 0.0), _bs(), _MACRO) <= rss_at((lo, 0.0), _bs(), _MACRO)


def _topo(stations):
    return Topology(stations=tuple(stations))


class TestCoverage:
    def test_only_stations_in_range(self):
        index = CoverageIndex(_topo([
            _bs("wide", pos=(0.0, 0.0)),                      # macro, 1000 m
            _bs("tight", net="net2", pos=(500.0, 0.0), tier="pico"),  # 100 m
        ]))
        assert coverage((0.0, 0.0), index) == ["wide"]
        assert coverage((450.0, 0.0), index) == ["tight", "wide"]

    def test_sorted_by_station_id(self):
        index = CoverageIndex(_topo([_bs("z_bs"), _bs("a_bs", net="net2", pos=(1.0, 0.0))]))
        assert coverage((0.0, 0.0), index) == ["a_bs", "z_bs"]

    def test_boundary_is_inclusive(self):
        index = CoverageIndex(_topo([_bs("edge", radius=100.0)]))
        assert coverage((100.0, 0.0), index) == ["edge"]
        assert coverage((100.0 + 1e-9, 0.0), index) == []

    def test_radius_defaults_follow_tier(self):
        index = CoverageIndex(_topo([_bs("small", tier="femto")]))
        assert TIER_DEFAULTS["femto"]["radius"] == 30.0
        assert coverage((29.0, 0.0), index) == ["small"]
        assert coverage((31.0, 0.0), index) == []

    def test_explicit_radius_wins_over_tier(self):
        index = CoverageIndex(_topo([_bs("boosted", tier="femto", radius=500.0)]))
        assert coverage((400.0, 0.0), index) == ["boosted"]


def _coverage_by_full_scan(pos, topo):
    """Reference for the indexed coverage: every station tested in id order."""
    return [
        bs.id for bs in sorted(topo.stations, key=lambda s: s.id)
        if math.hypot(pos[0] - bs.position[0], pos[1] - bs.position[1]) <= bs.coverage_radius
    ]


def _assert_matches_full_scan(pos, topo, index):
    """``index`` is an index of ``topo``."""
    assert coverage(pos, index) == _coverage_by_full_scan(pos, topo), pos


_coord = st.floats(min_value=-3000.0, max_value=3000.0, allow_nan=False)
_point = st.tuples(_coord, _coord)
_path_loss = st.fixed_dictionaries({}, optional={
    "tx_power_dbm": st.floats(min_value=-80.0, max_value=-20.0),
    "exponent": st.floats(min_value=1.5, max_value=4.0),
})


def _steps(v, n):
    """The float n steps from v, away from zero for n > 0."""
    for _ in range(abs(n)):
        v = math.nextafter(v, math.inf if n > 0 else -math.inf)
    return v


def _beyond_box_edges(bs, steps=(1,)):
    """Points a float step or a few outside the station's bounding box along
    each axis; rounding leaves some of them covered."""
    (x, y), r = bs.position, bs.coverage_radius
    out = []
    for n in steps:
        out += [
            (_steps(x - r, -n), y),
            (_steps(x + r, n), y),
            (x, _steps(y - r, -n)),
            (x, _steps(y + r, n)),
        ]
    return out


# Far from the origin a float step is large, and rounding in x - sx and
# x + r moves a point across a box edge by more.
_offset = st.sampled_from([0.0, 1e6, -3.3e7, 1e9, -7.5e8])


@st.composite
def _coverage_cases(draw, offsets=_offset):
    """A topology and query points: free points, points far outside every
    station, points exactly on a station's radius, and points one to three
    float steps past a station's bounding box.  Stations may share a
    position, and the whole layout may sit far from the origin."""
    ox, oy = draw(offsets), draw(offsets)
    shift = st.tuples(_coord.map(lambda v: v + ox), _coord.map(lambda v: v + oy))
    queries = draw(st.lists(shift, min_size=1, max_size=6))
    spots = draw(st.lists(shift, min_size=1, max_size=3))
    stations = []
    for i in range(draw(st.integers(min_value=1, max_value=14))):
        pos = draw(st.one_of(st.sampled_from(spots), shift))
        tier = draw(st.sampled_from(sorted(TIER_DEFAULTS)))
        radius = draw(st.one_of(
            st.none(),
            st.floats(min_value=0.0, max_value=1500.0),
            # exactly on the radius of one query point
            st.sampled_from(queries).map(lambda q, p=pos: math.hypot(q[0] - p[0], q[1] - p[1])),
        ))
        stations.append(_bs(f"s{i:02d}", net=f"net{i % 3}", pos=pos, tier=tier, radius=radius))
    overrides = draw(st.dictionaries(st.sampled_from(sorted(TIER_DEFAULTS)), _path_loss))
    topo = Topology(stations=tuple(stations), path_loss_overrides=overrides)
    queries += [(ox - 1e4, oy), (ox, oy + 1e4), (ox + 5e3, oy - 5e3)]
    for bs in stations:
        queries += _beyond_box_edges(bs, steps=(1, 2, 3))
    return topo, queries


NON_FINITE_STATIONS = [
    _bs("inf_radius", radius=math.inf),
    _bs("nan_pos", net="n2", pos=(math.nan, 0.0)),
    _bs("neg_radius", net="n3", radius=-1.0),
    _bs("huge", net="n4", pos=(1e308, -1e308), radius=1e308),
]
NON_FINITE_QUERIES = [(0.0, 0.0), (math.inf, 0.0), (math.nan, 1.0), (1e308, -1e308)]


class TestCoverageIndex:
    @given(_coverage_cases())
    def test_matches_the_full_scan(self, case):
        topo, queries = case
        index = CoverageIndex(topo)
        for pos in queries:
            _assert_matches_full_scan(pos, topo, index)

    def test_single_station_on_its_radius_and_just_past_its_box(self):
        topo = _topo([_bs("only", pos=(0.1, -0.7), tier="femto", radius=0.3)])
        index = CoverageIndex(topo)
        points = [(0.4, -0.7), (0.1, -0.4), (0.1, -0.4 - 1e-9)]
        for pos in points + _beyond_box_edges(topo.stations[0]):
            _assert_matches_full_scan(pos, topo, index)

    def test_far_from_the_origin_on_its_radius_and_just_past_its_box(self):
        stations = [
            _bs("a", pos=(1e9 + 0.1, -1e9 - 0.7), tier="femto", radius=0.3),
            _bs("b", net="n2", pos=(1e9 + 40.0, -1e9), tier="pico"),
            _bs("c", net="n3", pos=(1e9 - 25.0, -1e9 + 10.0), tier="femto"),
        ]
        topo = _topo(stations)
        points = [(1e9 + 0.4, -1e9 - 0.7), (1e9 - 60.0, -1e9), (1e9, -1e9)]
        for bs in stations:
            points += _beyond_box_edges(bs, steps=(1, 2, 3, 8))
        index = CoverageIndex(topo)
        for pos in points:
            _assert_matches_full_scan(pos, topo, index)

    def test_cells_list_a_station_only_near_its_box(self):
        # The pad is a few float steps, not a cell: a small station sits
        # only in the cells its own disk's box overlaps.
        stations = [_bs(f"s{i:02d}", net=f"n{i}", pos=(i * 97.0, (i * 61) % 400 * 1.0),
                        tier=("macro", "pico", "femto")[i % 3]) for i in range(30)]
        index = CoverageIndex(_topo(stations))
        for i, cell_list in enumerate(index.cells):
            col, row = i % index.cols, i // index.cols
            cx0, cy0 = index.x0 + col * index.cell, index.y0 + row * index.cell
            for sid, x, y, r in cell_list:
                slack = 1e-6 + r
                assert cx0 - slack <= x <= cx0 + index.cell + slack, (sid, col)
                assert cy0 - slack <= y <= cy0 + index.cell + slack, (sid, row)

    def test_coincident_stations_keep_id_order(self):
        topo = _topo([_bs(sid, net=f"n{sid}", pos=(7.0, 7.0), tier="pico") for sid in "cab"])
        index = CoverageIndex(topo)
        assert coverage((50.0, 50.0), index) == ["a", "b", "c"]
        _assert_matches_full_scan((50.0, 50.0), topo, index)

    def test_outside_the_extent_is_covered_by_nothing(self):
        index = CoverageIndex(
            _topo([_bs("a", pos=(0.0, 0.0), tier="micro"), _bs("b", net="n2", pos=(100.0, 0.0))])
        )
        for pos in [(1e6, 0.0), (0.0, -1e6), (-2000.0, -2000.0)]:
            assert coverage(pos, index) == []

    def test_non_finite_inputs_agree_with_the_full_scan(self):
        topo = _topo(NON_FINITE_STATIONS)
        index = CoverageIndex(topo)
        for pos in NON_FINITE_QUERIES:
            _assert_matches_full_scan(pos, topo, index)
        assert coverage((math.nan, 1.0), CoverageIndex(_topo([_bs("a")]))) == []

    def test_a_point_that_rounding_puts_past_the_unpadded_box(self):
        # The box ends at fl(-0.75 + 2**53) = 2**53 - 1, yet the point at
        # 2**53 is covered: hypot rounds its distance, 2**53 + 0.75, to
        # 2**53, the radius.  Only the grid's pad keeps it in a cell.
        topo = _topo([_bs("s", pos=(-0.75, 0.0), radius=2.0 ** 53)])
        index = CoverageIndex(topo)
        assert -0.75 + 2.0 ** 53 == 2.0 ** 53 - 1
        assert coverage((2.0 ** 53, 0.0), index) == ["s"]
        _assert_matches_full_scan((2.0 ** 53, 0.0), topo, index)

    def test_grid_stays_near_one_cell_per_station(self):
        # A long thin row of small stations must not become a huge grid.
        stations = [_bs(f"s{i:03d}", net=f"n{i}", pos=(i * 1e4, 0.0), tier="femto")
                    for i in range(50)]
        topo = _topo(stations)
        index = CoverageIndex(topo)
        assert len(index.cells) <= 4 * len(stations) + 9
        for pos in [(0.0, 0.0), (1e4 + 29.0, 0.0), (5e4, 1.0)]:
            _assert_matches_full_scan(pos, topo, index)


# Stations with a non-finite field, whose distance or radius is infinite or
# NaN wherever the query is finite, and none so large that the reach's
# guard overflows.
_ODD_STATIONS = [
    _bs("odd_inf_radius", net="odd", pos=(40.0, -30.0), radius=math.inf),
    _bs("odd_nan_pos", net="odd", pos=(math.nan, 0.0)),
    _bs("odd_inf_pos", net="odd", pos=(math.inf, 5.0), tier="pico"),
    _bs("odd_inf_both", net="odd", pos=(-math.inf, math.inf), radius=math.inf),
    _bs("odd_neg_radius", net="odd", radius=-1.0),
]


@st.composite
def _reach_cases(draw):
    """A topology and query points, drawn from the index's cases near the
    origin and far from it; from cases so far out that a float step is
    half a meter or more; from those cases with stations whose position or radius
    is not finite, so that there is no grid; and the topology of
    ``test_non_finite_inputs_agree_with_the_full_scan``."""
    kind = draw(st.sampled_from(["finite", "huge", "non_finite", "full_scan_test"]))
    if kind == "full_scan_test":
        return _topo(NON_FINITE_STATIONS), list(NON_FINITE_QUERIES)
    offsets = st.sampled_from([3e15, -7.1e17, 2.5e16]) if kind == "huge" else _offset
    topo, queries = draw(_coverage_cases(offsets))
    if kind == "non_finite":
        odd = draw(st.lists(st.sampled_from(_ODD_STATIONS), min_size=1, unique=True))
        topo = topo._replace(stations=topo.stations + tuple(odd))
        queries += NON_FINITE_QUERIES
    return topo, queries


def _directions(pos, topo, angle):
    """Unit vectors along each axis and the diagonals, toward and away from
    each station with a finite position, and at ``angle``."""
    out = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (math.sqrt(0.5), math.sqrt(0.5))]
    out.append((math.cos(angle), math.sin(angle)))
    for bs in topo.stations:
        dx, dy = bs.position[0] - pos[0], bs.position[1] - pos[1]
        d = math.hypot(dx, dy)
        if 0.0 < d < math.inf:
            out += [(dx / d, dy / d), (-dx / d, -dy / d)]
    return out


class TestCoverageReach:
    @given(_reach_cases(), st.floats(0.0, 2 * math.pi),
           st.floats(0.0, 1.0, exclude_max=True))
    def test_a_move_shorter_than_the_reach_keeps_the_stations(self, case, angle, fraction):
        topo, queries = case
        index = CoverageIndex(topo)
        for pos in queries:
            here = coverage(pos, index)
            assert 0.0 <= here.reach < math.inf
            if here.reach == 0.0:
                continue
            for ux, uy in _directions(pos, topo, angle):
                for f in (fraction, math.nextafter(1.0, 0.0)):
                    dx, dy = here.reach * f * ux, here.reach * f * uy
                    if not math.hypot(dx, dy) < here.reach:
                        continue
                    moved = (pos[0] + dx, pos[1] + dy)
                    assert coverage(moved, index) == here, (pos, moved)

    def test_a_position_on_a_radius_or_not_finite_has_no_reach(self):
        index = CoverageIndex(_topo([_bs("a", radius=50.0), _bs("b", net="n2", pos=(500.0, 0.0))]))
        assert coverage((30.0, 40.0), index).reach == 0.0
        for pos in [(math.inf, 0.0), (0.0, math.nan)]:
            assert coverage(pos, index).reach == 0.0
        # the guard overflows
        assert coverage((0.0, 0.0), CoverageIndex(_topo(NON_FINITE_STATIONS))).reach == 0.0

    def test_the_reach_is_the_nearest_circle_or_cell_edge(self):
        # One station, so one cell: its padded box, and the grid's extent.
        index = CoverageIndex(_topo([_bs("a", radius=50.0)]))
        assert index.cells is not None and len(index.cells) == 1
        got = coverage((0.0, 10.0), index)
        assert got == ["a"]
        assert got.reach == pytest.approx(40.0, abs=1e-6)  # to the top edge, 40 m up
        got = coverage((-20.0, 0.0), index)
        assert got.reach == pytest.approx(30.0, abs=1e-6)  # to the circle, 30 m left
        got = coverage((0.0, 80.0), index)
        assert got == [] and got.reach == pytest.approx(30.0, abs=1e-6)  # to the extent


def _topology_problems(stations):
    """The problems the scenario parser reports under ``topology`` for a
    document that lists ``stations`` under their providers and nets."""
    providers = {}
    for bs in stations:
        sdoc = {"id": bs.id, "position": list(bs.position), "technology": bs.technology,
                "tier": bs.tier, "channels": list(bs.channels)}
        if bs.radius is not None:
            sdoc["radius"] = bs.radius
        providers.setdefault(bs.provider_id, {}).setdefault(bs.net_id, []).append(sdoc)
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    doc["topology"] = {"providers": [
        {"id": pid, "nets": [{"id": nid, "stations": sdocs} for nid, sdocs in nets.items()]}
        for pid, nets in providers.items()
    ]}
    try:
        from_dict(doc)
    except ScenarioError as exc:
        return [p for p in exc.problems if p.startswith("topology")]
    return []


class TestTopologyValidate:
    """The parser checks a topology where it reads each field."""

    def test_clean_topology_has_no_problems(self):
        assert _topology_problems([_bs()]) == []

    def test_duplicate_station_id(self):
        problems = _topology_problems([_bs("dup", channels=("c1",)),
                                       _bs("dup", channels=("c2",))])
        assert problems == [
            "topology.providers[0].nets[0].stations[1].id: duplicate station id 'dup'"
        ]

    def test_unknown_tier_reported(self):
        problems = _topology_problems([_bs(tier="mega", radius=10.0)])
        assert problems == ["topology.providers[0].nets[0].stations[0].tier: unknown tier 'mega'"]

    def test_missing_channels_reported(self):
        problems = _topology_problems([_bs(channels=())])
        assert problems == ["topology.providers[0].nets[0].stations[0].channels: lists no channels"]

    def test_duplicate_channel_across_stations(self):
        problems = _topology_problems([_bs("s1", channels=("shared",)),
                                       _bs("s2", net="net2", prov="prov2", channels=("shared",))])
        assert problems == [
            "topology.providers[1].nets[0].stations[0].channels[0]: duplicate channel id 'shared'"
        ]

    def test_unknown_net_reference(self):
        # A station's net and provider are those it is listed under, so no
        # station can name a net or provider the topology lacks.
        topo = load_scenario(SCENARIO_DIR / "crossing.json").topology
        assert [(bs.id, bs.net_id, bs.provider_id) for bs in topo.stations] == [
            ("bs_a", "net_a", "prov1"), ("bs_b", "net_b", "prov1"),
        ]


class TestAdvancePosition:
    PATH = ((0, (0.0, 0.0)), (1000, (10.0, 0.0)), (2000, (10.0, 20.0)))

    def test_before_first_waypoint_holds_start(self):
        assert advance_position(self.PATH, -500) == (0.0, 0.0)

    def test_at_waypoints_exact(self):
        assert advance_position(self.PATH, 0) == (0.0, 0.0)
        assert advance_position(self.PATH, 1000) == (10.0, 0.0)
        assert advance_position(self.PATH, 2000) == (10.0, 20.0)

    def test_linear_between_waypoints(self):
        x, y = advance_position(self.PATH, 500)
        assert (x, y) == pytest.approx((5.0, 0.0))
        x, y = advance_position(self.PATH, 1500)
        assert (x, y) == pytest.approx((10.0, 10.0))

    def test_after_last_waypoint_holds_end(self):
        assert advance_position(self.PATH, 99999) == (10.0, 20.0)

    def test_single_waypoint_is_static(self):
        assert advance_position(((0, (3.0, 4.0)),), 12345) == (3.0, 4.0)


class TestGeometricSynthesis:
    def test_base_plus_ramp(self):
        spec = ContextSynthesisSpec(
            mode="geometric",
            networks={"n1": NetworkSignals(base={"Q": 100.0}, ramps={"Q": 2.0})},
        )
        state = SynthesisState(spec, 0)
        state.advance_to(0, 100)
        assert sample_context("n1", 0, state)["Q"] == 100.0
        state.advance_to(500, 100)
        assert sample_context("n1", 500, state)["Q"] == 1100.0

    def test_waypoints_interpolate_and_clamp(self):
        spec = ContextSynthesisSpec(
            mode="geometric",
            networks={"n1": NetworkSignals(
                waypoints={"Q": ((0, 1.0), (100, 5.0), (200, 1.0))})},
        )
        state = SynthesisState(spec, 0)
        samples = {t: sample_context("n1", t, state)["Q"]
                   for t in (-50, 0, 50, 100, 150, 200, 400)}
        assert samples[-50] == 1.0
        assert samples[0] == 1.0
        assert samples[50] == pytest.approx(3.0)
        assert samples[100] == 5.0
        assert samples[150] == pytest.approx(3.0)
        assert samples[200] == 1.0
        assert samples[400] == 1.0

    def test_waypoints_override_ramp_for_that_criterion(self):
        spec = ContextSynthesisSpec(
            mode="geometric",
            networks={"n1": NetworkSignals(
                base={"Q": 10.0, "P": 1.0},
                ramps={"Q": 1.0},
                waypoints={"Q": ((0, 7.0), (100, 7.0))})},
        )
        state = SynthesisState(spec, 0)
        values = sample_context("n1", 50, state)
        assert values["Q"] == 7.0
        assert values["P"] == 1.0

    def test_unknown_network_reports_nothing(self):
        spec = ContextSynthesisSpec(mode="geometric", networks={})
        state = SynthesisState(spec, 0)
        assert sample_context("ghost", 0, state) == {}


class TestStochasticSynthesis:
    def test_sigma_zero_decays_toward_base(self):
        spec = ContextSynthesisSpec(
            mode="stochastic",
            networks={"n1": NetworkSignals(base={"Q": 0.0}, start={"Q": 10.0})},
            ar1_rho=0.5,
            noise_sigma=0.0,
        )
        state = SynthesisState(spec, 1)
        state.advance_to(0, 100)
        assert sample_context("n1", 0, state)["Q"] == 10.0
        state.advance_to(100, 100)
        assert sample_context("n1", 100, state)["Q"] == pytest.approx(5.0)
        state.advance_to(200, 100)
        assert sample_context("n1", 200, state)["Q"] == pytest.approx(2.5)

    def test_same_seed_same_sequence(self):
        spec = ContextSynthesisSpec(
            mode="stochastic",
            networks={"n1": NetworkSignals(base={"Q": 50.0})},
            ar1_rho=0.9,
            noise_sigma=5.0,
        )
        runs = []
        for _ in range(2):
            state = SynthesisState(spec, 99)
            seq = []
            for t in range(0, 1000, 100):
                state.advance_to(t, 100)
                seq.append(sample_context("n1", t, state)["Q"])
            runs.append(seq)
        assert runs[0] == runs[1]

    def test_different_seed_differs(self):
        def sequence(seed):
            spec = ContextSynthesisSpec(
                mode="stochastic",
                networks={"n1": NetworkSignals(base={"Q": 50.0})},
                ar1_rho=0.9, noise_sigma=5.0,
            )
            state = SynthesisState(spec, seed)
            out = []
            for t in range(0, 1000, 100):
                state.advance_to(t, 100)
                out.append(sample_context("n1", t, state)["Q"])
            return out

        assert sequence(1) != sequence(2)

    # (network, criterion) walk slots, listed out of the walk's sorted order.
    SLOTS = (("nb", "Q"), ("na", "Q"), ("nb", "P"), ("nc", "A"))

    @staticmethod
    def _walk(slots, seed, base=0.0, rho=0.0):
        bases: dict = {}
        for net, cid in slots:
            bases.setdefault(net, {})[cid] = base
        spec = ContextSynthesisSpec(
            mode="stochastic",
            networks={net: NetworkSignals(base=b) for net, b in bases.items()},
            ar1_rho=rho,
            noise_sigma=1.0,
        )
        return spec, SynthesisState(spec, seed)

    def test_noise_consumed_in_sorted_network_criterion_order(self):
        """The walk draws what ``random.gauss(0.0, 1.0)`` draws, draw for draw,
        in sorted network and criterion order: for several seeds, with 1 to 4
        draws a tick, so that a pair's spare is used in the same tick, in the
        next one or in the next ``advance_to`` call, over 5 ticks of one call
        each and over the same 5 in one call.  With rho zero each value is
        its tick's draw; values are compared by ``float.hex``, so the sign of
        a zero counts."""
        for seed, count in itertools.product((0, 7, 41, 2**70), range(1, 5)):
            spec, state = self._walk(self.SLOTS[:count], seed)
            expect = list(_gauss_walk(spec, seed, 5))
            for tick in range(1, 6):
                state.advance_to(100 * tick, 100)
                assert _hexed(state.values) == expect[tick - 1], (seed, count, tick)
            spec, state = self._walk(self.SLOTS[:count], seed)
            state.advance_to(500, 100)
            assert _hexed(state.values) == expect[-1], (seed, count)

    def test_a_zero_draw_is_positive_zero(self, monkeypatch):
        """With ``random()`` stuck at 0.0 both draws of a pair are ``-0.0``
        (``sqrt(-0.0)``), and ``gauss`` returns ``0.0 + z``, a ``+0.0``.  With
        base and rho ``-0.0`` the walk's first two terms sum to ``-0.0``, so
        each value keeps the sign of its draw."""
        monkeypatch.setattr(random.Random, "random", lambda self: 0.0)
        spec, state = self._walk(self.SLOTS[:3], 7, base=-0.0, rho=-0.0)
        expect = list(_gauss_walk(spec, 7, 2))
        for tick in (1, 2):
            state.advance_to(100 * tick, 100)
            assert _hexed(state.values) == expect[tick - 1]
        assert expect[-1] == {"na": {"Q": "0x0.0p+0"}, "nb": {"P": "0x0.0p+0", "Q": "0x0.0p+0"}}


def _hexed(values):
    return {net: {cid: v.hex() for cid, v in vals.items()} for net, vals in values.items()}


def _gauss_walk(spec, seed, ticks):
    """Each tick's walk values, by ``float.hex``, drawn with ``random.gauss``
    from a walk that starts at its bases."""
    rng = random.Random(seed)
    values = {net: dict(spec.networks[net].base) for net in sorted(spec.networks)}
    for _ in range(ticks):
        for net, vals in values.items():
            for cid in sorted(vals):
                base = spec.networks[net].base[cid]
                eps = rng.gauss(0.0, 1.0)
                vals[cid] = base + spec.ar1_rho * (vals[cid] - base) + (spec.noise_sigma * eps)
        yield _hexed(values)


def _crossing_doc(**tweaks):
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    doc.update(tweaks)
    return doc


def _transitions(trace, terminal=None):
    return [r.payload for r in trace.records
            if r.kind == TRANSITION and terminal in (None, r.terminal)]


class TestEngine:
    def test_zero_duration_emits_init_only(self):
        trace = run(from_dict(_crossing_doc(duration_ms=0)))
        kinds = {r.kind for r in trace.records}
        assert kinds == {INIT}
        assert not any(r.kind == ANL for r in trace.records)

    def test_tick_grid_is_half_open(self):
        trace = run(from_dict(_crossing_doc(duration_ms=10000, tick_ms=500)))
        ticks = sorted({r.t for r in trace.records if r.kind == ANL})
        assert ticks[0] == 0
        assert ticks[-1] == 9500
        assert len(ticks) == 20

    def test_crossing_scenario_single_handoff(self):
        trace = run(load_scenario(SCENARIO_DIR / "crossing.json"))
        records = [r.payload for r in trace.records if r.kind == HANDOFF]
        assert len(records) == 1
        rec = records[0]
        assert rec["from_net"] == "bs_a"
        assert rec["to_net"] == "bs_b"
        assert rec["t_trigger"] == 9100
        assert rec["t_switch_done"] == 9200
        assert rec["t_eval_done"] == 9300
        assert rec["dvho_ms"] == 200
        assert rec["accepted"] is True
        assert rec["reason"] == "opportunist"
        assert rec["ho_type"] == "net_horizontal"
        assert rec["method"] == "MIP"

    def test_first_attachment_goes_to_list_head(self):
        trace = run(load_scenario(SCENARIO_DIR / "crossing.json"))
        first = _transitions(trace, "mt1")[0]
        assert first["from"] == "disconnection"
        assert first["to"] == "initiation"
        assert first["attached"] == "bs_a"
        anl = [r for r in trace.records if r.kind == ANL and r.terminal == "mt1"]
        head = anl[0].payload["entries"][0][0]
        assert head == "bs_a"

    def test_connect_conservation(self):
        # every attachment is either a first attach after disconnection or
        # the completion of a switch
        trace = run(load_scenario(SCENARIO_DIR / "crossing.json"))
        connects = sum(
            1 for p in _transitions(trace)
            for a in p["actions"] if "connect" in a
        )
        fresh = sum(1 for p in _transitions(trace)
                    if p["from"] == "disconnection" and p["to"] == "initiation")
        switched = sum(1 for p in _transitions(trace)
                       if p["event"] == "switch_complete")
        assert connects == fresh + switched
        assert connects == 2

    def test_timers_past_horizon_are_dropped(self):
        # the switch timer would land exactly at the horizon; it never fires
        trace = run(from_dict(_crossing_doc(duration_ms=9200)))
        assert not any(r.kind == HANDOFF for r in trace.records)
        last = _transitions(trace)[-1]
        assert last["to"] == "execution"

    def test_link_loss_reconnects_on_same_tick(self):
        doc = _crossing_doc(duration_ms=10000, tick_ms=500)
        topo = doc["topology"]["providers"][0]
        topo["nets"][0]["stations"][0].update(
            {"position": [0.0, 0.0], "radius": 100.0})
        topo["nets"][1]["stations"][0].update(
            {"position": [300.0, 0.0], "radius": 1000.0})
        doc["terminals"] = [
            {"id": "mt1", "path": [[0, [0.0, 0.0]], [10000, [200.0, 0.0]]],
             "app_type": "video"}
        ]
        # keep the serving network preferred while covered, and thresholds
        # wide enough that no ordinary handoff triggers
        doc["synthesis"]["networks"]["bs_a"] = {"base": {"Q": 100000.0}}
        doc["synthesis"]["networks"]["bs_b"] = {"base": {"Q": 10000.0}}
        doc["controller"].update({"th_sup": 8.0, "th_inf": 1.0,
                                  "hysteresis_delta": 0.5})
        trace = run(from_dict(doc))

        losses = [p for p in _transitions(trace) if p["event"] == "link_lost"]
        assert len(losses) == 1
        assert losses[0]["to"] == "disconnection"
        assert losses[0]["attached"] is None
        # x(t) = 0.02 t crosses the 100 m radius after t = 5000; the first
        # tick past it is 5500
        t_loss = [r.t for r in trace.records
                  if r.kind == TRANSITION and r.payload["event"] == "link_lost"][0]
        assert t_loss == 5500
        reattach = [r for r in trace.records if r.kind == TRANSITION
                    and r.t == t_loss and r.payload["event"] == "anl_updated"]
        assert len(reattach) == 1
        assert reattach[0].payload["attached"] == "bs_b"
        assert not any(r.kind == HANDOFF for r in trace.records)

    def test_trace_is_byte_reproducible(self):
        for name in ("crossing.json", "noisy.json"):
            sc = load_scenario(SCENARIO_DIR / name)
            assert ndjson(run(sc)) == ndjson(run(sc))

    def test_seed_changes_stochastic_trace(self):
        doc = json.loads((SCENARIO_DIR / "noisy.json").read_text())
        base = ndjson(run(from_dict(doc)))
        doc["seed"] = doc["seed"] + 1
        assert ndjson(run(from_dict(doc))) != base

    def test_replacing_a_parsed_seed_reseeds_the_signals(self):
        """The seed is held once, by the scenario: a run of a parsed
        scenario with its seed replaced draws its signals from the new
        seed, as a run of the document with that seed does."""
        doc = json.loads((SCENARIO_DIR / "noisy.json").read_text())
        sc = from_dict(doc)
        assert sc.seed != 9
        replaced = ndjson(run(sc._replace(seed=9)))
        assert replaced == ndjson(run(from_dict({**doc, "seed": 9})))
        assert replaced != ndjson(run(sc))

    def test_seed_is_irrelevant_for_geometric_mode(self):
        a = ndjson(run(from_dict(_crossing_doc(seed=1))))
        b = ndjson(run(from_dict(_crossing_doc(seed=2))))
        # init records carry the seed; everything after them matches
        tail = lambda s: s.splitlines()[1:]
        assert tail(a) == tail(b)

    def test_terminals_step_in_id_order_within_a_tick(self):
        doc = _crossing_doc()
        doc["terminals"] = [
            {"id": "mt2", "path": [[0, [0.0, 0.0]]], "app_type": "video"},
            {"id": "mt1", "path": [[0, [0.0, 0.0]]], "app_type": "voice"},
        ]
        trace = run(from_dict(doc))
        t0 = [r.terminal for r in trace.records if r.kind == ANL and r.t == 0]
        assert t0 == ["mt1", "mt2"]

    def test_run_init_record_carries_configuration(self):
        trace = run(load_scenario(SCENARIO_DIR / "crossing.json"))
        inits = [r for r in trace.records if r.kind == INIT]
        run_init = [r for r in inits if r.terminal is None]
        assert len(run_init) == 1
        payload = run_init[0].payload
        assert payload["seed"] == 7
        assert payload["duration_ms"] == 12000
        assert payload["tick_ms"] == 100
        assert payload["controller"]["th_sup"] == 4.0
        assert payload["metrics_constants"] == {"AL": 1.0, "DAR": 1.0}
        assert payload["terminals"] == ["mt1"]
        per_terminal = [r for r in inits if r.terminal == "mt1"]
        assert per_terminal[0].payload == {"phase": "disconnection"}


@pytest.mark.parametrize("weights, rss_read", [({"Q": 1.0}, False),
                                                ({"RSS": 0.5, "Q": 0.5}, True)])
def test_a_run_computes_rss_once_per_listed_entry(monkeypatch, weights, rss_read):
    """RSS is computed for each station an ``anl`` record lists, and only
    when a score reads it."""
    calls = []
    real = engine.rss_at
    monkeypatch.setattr(engine, "rss_at", lambda *args: calls.append(args) or real(*args))
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    doc["weights"] = {"k": 0.0, "weights": weights}
    trace = run(from_dict(doc))
    listed = sum(len(r.payload["entries"]) for r in trace.records if r.kind == ANL)
    assert listed > 0
    assert len(calls) == (listed if rss_read else 0)


def _run_counting(sc, every_tick=False):
    """``run(sc)`` and the positions coverage was asked at; with
    ``every_tick``, each answer's reach is cut to 0, so none is reused."""
    real, asked = engine.coverage, []

    def counting(pos, index):
        asked.append(pos)
        got = real(pos, index)
        if every_tick:
            got.reach = 0.0
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "coverage", counting)
        return run(sc), asked


def _assert_reuse_changes_nothing(sc):
    reused, asked = _run_counting(sc)
    fresh, asked_fresh = _run_counting(sc, every_tick=True)
    assert ndjson(reused) == ndjson(fresh)
    assert len(asked_fresh) == len(sc.terminals) * (sc.duration_ms // sc.tick_ms)
    return asked


def _moves_doc(terminals, weights=None):
    """Four stations of three sizes and the given terminals, over 40 ticks
    in which ``a``'s score falls below ``b``'s."""
    stations = [("a", [0.0, 0.0], 50.0), ("b", [120.0, 0.0], 100.0),
                ("c", [400.0, 300.0], 30.0), ("d", [-300.0, 200.0], 300.0)]
    return {
        "seed": 1,
        "duration_ms": 4000,
        "tick_ms": 100,
        "topology": {"providers": [{"id": "p", "nets": [
            {"id": f"n{sid}", "stations": [{"id": sid, "position": pos, "radius": radius,
                                            "technology": "lte", "channels": [f"{sid}c"]}]}
            for sid, pos, radius in stations
        ]}]},
        "terminals": [{"id": tid, "path": path} for tid, path in terminals.items()],
        "criteria": [{"id": "Q", "source": "network", "polarity": "beneficial"}],
        "weights": {"k": 0.0, "weights": weights or {"Q": 1.0}},
        "controller": {"strategy": "reactive", "dwell_sp": 0, "hysteresis_delta": 0.0,
                       "th_sup": 3.0, "th_inf": 1.0},
        "synthesis": {"mode": "geometric", "networks": {
            sid: {"base": {"Q": 4e4 if sid == "a" else 1e4},
                  "ramps": {"Q": -9.0 if sid == "a" else 0.0}}
            for sid, _, _ in stations
        }},
    }


class TestCoverageReuse:
    """Between ticks the engine keeps a terminal's coverage answer for as
    long as the terminal cannot have moved as far as the answer's reach.
    The records must be those of a run that asks coverage every tick."""

    PATHS = {
        "on_circle": [[0, [30.0, 40.0]]],  # exactly on a's radius of 50 m
        "tangent": [[0, [-200.0, 50.0]], [4000, [200.0, 50.0]]],  # touches a at t = 2000
        "early": [[-1000, [-100.0, -20.0]], [1500, [150.0, 30.0]]],
        "single": [[500, [40.0, 5.0]]],  # covered by a and b
    }

    def _with_cell_edge(self, doc):
        """``doc`` and a terminal that crosses one of its grid's column
        edges at t = 150, between two ticks."""
        index = CoverageIndex(from_dict(doc).topology)
        assert index.cols > 1
        x, y = index.x0 + index.cell, index.y0 + 0.5 * index.cell
        doc["terminals"].append({"id": "edge", "path": [[0, [x - 1.5, y]], [200, [x + 0.5, y]]]})
        return doc

    def test_hand_made_paths(self):
        doc = self._with_cell_edge(_moves_doc(self.PATHS))
        sc = from_dict(doc)
        asked = _assert_reuse_changes_nothing(sc)
        assert len(asked) < len(sc.terminals) * 40
        handoffs = [r for r in run(sc).records if r.kind == HANDOFF]
        assert handoffs  # the hand-made terminals do hand off

    def test_rss_weighted_runs_ask_coverage_where_unweighted_runs_do(self):
        _, asked = _run_counting(from_dict(self._with_cell_edge(_moves_doc(self.PATHS))))
        doc = self._with_cell_edge(_moves_doc(self.PATHS, {"RSS": 0.5, "Q": 0.5}))
        sc = from_dict(doc)
        assert _assert_reuse_changes_nothing(sc) == asked
        assert len(asked) < len(sc.terminals) * 40

    @pytest.mark.parametrize("tid, calls", [("single", 1), ("on_circle", 40)])
    def test_a_parked_terminal_is_asked_once_unless_it_sits_on_a_radius(self, tid, calls):
        sc = from_dict(_moves_doc({tid: self.PATHS[tid]}))
        assert len(_assert_reuse_changes_nothing(sc)) == calls

    def test_a_position_that_rounding_puts_across_a_radius(self):
        """At 1 m/s from x = -1e12, the terminal's x at 1000 ms computes as
        1.0001220703125 where the exact line gives 1.0, and ``s``'s edge
        lies between the two.  The answer held from 0 ms reaches only to
        that edge, so without the path's slack the window would keep "no
        station" at 1000 ms, where coverage lists ``s``."""
        edge = 1.00006103515625
        doc = _moves_doc({"far": [[-10**15, [-1e12, 0.0]], [10**15, [1e12, 0.0]]]})
        doc["duration_ms"] = 10000
        doc["topology"]["providers"][0]["nets"] = [{"id": "ns", "stations": [
            {"id": "s", "position": [edge + 3.0, 0.0], "radius": 3.0, "technology": "lte",
             "channels": ["sc"]}]}]
        doc["synthesis"]["networks"] = {"s": {"base": {"Q": 1e4}}}
        sc = from_dict(doc)
        pos = advance_position(sc.terminals[0].path, 1000)
        assert pos == (1.0001220703125, 0.0)
        assert coverage(pos, CoverageIndex(sc.topology)) == ["s"]
        _assert_reuse_changes_nothing(sc)

    @settings(max_examples=100, deadline=None)
    @given(doc=st.one_of(scenarios(), scenarios(crossing=True)))
    def test_generated_scenarios(self, doc):
        _assert_reuse_changes_nothing(from_dict(doc))
