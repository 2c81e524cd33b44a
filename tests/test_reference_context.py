"""The engine's context against a plain reference, on generated scenarios.

Between a scenario and its ``anl`` records the engine takes fast paths: the
coverage grid with its ulp pad, coverage without RSS, the per-tick sample
memo, scores shared by terminals when RSS has no weight, and constants
resolved once per run (each geometric network's criteria, the scoring plan
of the profile and catalog, the stochastic walk's order).
``reference_context`` takes none of them, so every record must match it.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from handoffsim.engine import run
from handoffsim.scenario import from_dict
from handoffsim.synthesis import SynthesisState, sample_context
from handoffsim.trace import ANL
from reference_context import anl_records, samples

# A point at (3m, 4m) from a station lies exactly on a radius of 5m.
ON_RADIUS = {"macro": (600.0, 800.0), "micro": (180.0, 240.0), "pico": (60.0, 80.0),
             "femto": (18.0, 24.0), 50.0: (30.0, 40.0), 250.0: (150.0, 200.0)}
SPLITS = {1: [1.0], 2: [0.25, 0.75], 3: [0.25, 0.25, 0.5]}  # each sums to exactly 1

coords = st.integers(-1000, 7000).map(lambda v: v / 10)  # -100.0 to 700.0 m


@st.composite
def scenarios(draw):
    """Small valid scenario documents: 1-12 stations over every tier, some
    on one spot; terminals whose waypoints sit on a station's radius or at
    the edge of its coverage box, in the open or out of reach, near the
    origin or far from it; geometric or
    stochastic signals; criteria with their own floors and polarities,
    weighted with RSS or without."""
    origin = draw(st.sampled_from([0.0, 1e6 + 0.5, -3e7]))
    tick = draw(st.sampled_from([100, 200]))
    duration = tick * draw(st.integers(1, 6))
    mode = draw(st.sampled_from(["geometric", "stochastic"]))

    criteria = [
        {"id": cid, "source": "network",
         "polarity": draw(st.sampled_from(["beneficial", "detrimental"])),
         "floor": draw(st.sampled_from([1e-6, 40.0, 3e4]))}
        for cid in ("Q", "L")
    ]
    polarity = {c["id"]: c["polarity"] for c in criteria} | {"RSS": "beneficial"}
    weighted = draw(st.sets(st.sampled_from(["Q", "L", "RSS"])))
    weights = {}
    for side in ("beneficial", "detrimental"):
        ids = sorted(cid for cid in weighted if polarity[cid] == side)
        weights |= dict(zip(ids, SPLITS.get(len(ids), [])))

    spots = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
    stations = []
    for i in range(draw(st.integers(1, 12))):
        x, y = draw(st.sampled_from(spots))
        station = {"id": f"s{i:02d}", "position": [origin + x, origin + y],
                   "technology": "lte", "tier": draw(st.sampled_from(list(ON_RADIUS)[:4])),
                   "channels": [f"s{i:02d}c"]}
        radius = draw(st.sampled_from([None, 50.0, 250.0]))
        if radius is not None:
            station["radius"] = radius
        stations.append(station)

    def waypoint():
        kind = draw(st.sampled_from(["radius", "edge", "open", "away"]))
        if kind in ("radius", "edge"):
            station = draw(st.sampled_from(stations))
            dx, dy = ON_RADIUS[station.get("radius", station["tier"])]
            sx, sy = station["position"]
            if kind == "radius":
                return [sx + dx, sy + dy]
            # On the radius along x, where the coverage box ends, or an ulp
            # to either side; which of these a station covers depends on
            # rounding, most of all far from the origin.
            x = sx + math.hypot(dx, dy)
            return [draw(st.sampled_from([x, math.nextafter(x, -math.inf),
                                          math.nextafter(x, math.inf)])), sy]
        if kind == "open":
            return [origin + draw(coords), origin + draw(coords)]
        return [origin + 5000.0, origin - 5000.0]

    terminals = []
    for i in range(draw(st.integers(1, 3))):
        times = sorted(draw(st.sets(st.integers(0, duration), min_size=1, max_size=3)))
        terminals.append({"id": f"mt{i}", "path": [[t, waypoint()] for t in times]})

    values = st.sampled_from([-50.0, 0.0, 35.0, 2e3, 2.9e4, 4.5e4])
    networks = {}
    for station in stations:
        signals = {}
        for cid in ("Q", "L"):
            if cid not in weighted and draw(st.booleans()):
                continue
            if mode == "stochastic":
                signals.setdefault("base", {})[cid] = draw(values)
                if draw(st.booleans()):
                    signals.setdefault("start", {})[cid] = draw(values)
            elif draw(st.booleans()):
                times = sorted(draw(st.sets(st.integers(-200, duration + 200), min_size=1,
                                            max_size=3)))
                signals.setdefault("waypoints", {})[cid] = [[t, draw(values)] for t in times]
            else:
                signals.setdefault("base", {})[cid] = draw(values)
                signals.setdefault("ramps", {})[cid] = draw(st.sampled_from([0.0, -7.5, 31.25]))
        if signals:
            networks[station["id"]] = signals
    synthesis = {"mode": mode, "networks": networks}
    if mode == "stochastic":
        synthesis["ar1_rho"] = draw(st.sampled_from([0.0, 0.5, 0.9]))
        synthesis["noise_sigma"] = draw(st.sampled_from([0.0, 800.0]))

    doc = {
        "seed": draw(st.integers(0, 1000)),
        "duration_ms": duration,
        "tick_ms": tick,
        "topology": {"providers": [{"id": "p", "nets": [
            {"id": "n0", "stations": stations[0::2]}, {"id": "n1", "stations": stations[1::2]},
        ]}]},
        "terminals": terminals,
        "criteria": criteria,
        "weights": {"k": draw(st.sampled_from([0.0, 0.5, 1.0])), "weights": weights},
        "controller": {"strategy": draw(st.sampled_from(["reactive", "proactive"]))},
        "synthesis": synthesis,
    }
    if draw(st.booleans()):
        tier = draw(st.sampled_from(list(ON_RADIUS)[:4]))
        doc["path_loss"] = {tier: {"tx_power_dbm": 60.0, "exponent": 2.2}}
    return doc


def _lines(records):
    """Each record's canonical JSON text."""
    return [json.dumps(list(r), sort_keys=True, separators=(",", ":")) for r in records]


@settings(max_examples=150, deadline=None)
@given(doc=scenarios())
def test_every_anl_record_matches_the_reference(doc):
    sc = from_dict(doc)
    got = [(r.t, r.terminal, r.payload) for r in run(sc).records if r.kind == ANL]
    assert _lines(got) == _lines(anl_records(sc))


@settings(max_examples=150, deadline=None)
@given(doc=scenarios())
def test_every_sample_matches_the_reference(doc):
    """Each network's sample at each tick has the reference's criteria, in
    sorted order, and values.  A criterion no weight reads never reaches an
    ``anl`` record, so only this sees one added to or dropped from a
    sample."""
    sc = from_dict(doc)
    state = SynthesisState(sc.synthesis)
    for t, want in samples(sc):
        state.advance_to(t, sc.tick_ms)
        got = {net: sample_context(net, t, sc.synthesis, state).values for net in want}
        assert json.dumps(got) == json.dumps(want), t
