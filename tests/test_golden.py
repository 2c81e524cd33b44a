"""Pinned output bytes: trace and CLI metrics digests for fixed inputs.

The determinism tests elsewhere compare two runs made by the same code, so
an engine change that alters the bytes of every run alike would still pass
them.  Each digest was recorded from the engine before the refactor it
was added to guard (the RSS-weighted one before scores were shared across
terminals); any refactor must reproduce them exactly.  A deliberate output change updates them in the same commit
and says so in CHANGES.md.
"""

import copy
import hashlib
import json
import random
from collections import defaultdict
from pathlib import Path

import pytest

from handoffsim.cli import main
from handoffsim.engine import run
from handoffsim.metrics import compute_metrics
from handoffsim.scenario import from_dict, parse_controller
from handoffsim.trace import Trace
from trace_text import ndjson

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

DURATION_MS = 6000
TIERS = {"macro": 8, "micro": 24, "pico": 36, "femto": 48}
EDGE_STATION = ("edge000", (700.0, 700.0), 50.0)
# 3-4-5 triangle: math.hypot gives exactly the edge station's radius.
EDGE_TERMINAL_POS = (730.0, 740.0)
# Every station sits in [0, 2000]^2 and no radius exceeds 1000 m.
FAR_AWAY = (6000.0, 6000.0)


def _dense_overlay(mode: str) -> dict:
    """More than a hundred stations over all four tiers, two providers and
    four nets, with a per-tier path-loss override, terminals crossing the
    area, one that walks out of every station's reach, and one parked
    exactly on a station's radius."""
    rng = random.Random(f"golden:{mode}")
    nets = [[] for _ in range(4)]
    networks = {}
    ids = []
    for tier, count in TIERS.items():
        for i in range(count):
            sid = f"{tier}{i:03d}"
            pos = [round(rng.uniform(0.0, 2000.0), 3), round(rng.uniform(0.0, 2000.0), 3)]
            ids.append(sid)
            tech = "lte" if tier in ("macro", "micro") else "wifi"
            nets[i % 4].append({"id": sid, "position": pos, "technology": tech, "tier": tier,
                                "channels": [f"{sid}c"]})
    sid, pos, radius = EDGE_STATION
    ids.append(sid)
    nets[0].append({"id": sid, "position": list(pos), "technology": "wifi", "tier": "femto",
                    "radius": radius, "channels": [f"{sid}c"]})
    for i, sid in enumerate(sorted(ids)):
        q = round(rng.uniform(5e3, 5e4), 1)
        load = round(rng.uniform(10.0, 90.0), 2)
        if mode == "stochastic":
            networks[sid] = {"base": {"Q": q, "L": load}, "start": {"Q": round(q * 0.8, 1)}}
        elif i % 3 == 0:
            networks[sid] = {
                "base": {"L": load},
                "waypoints": {"Q": [[t, round(rng.uniform(5e3, 5e4), 1)]
                                    for t in range(0, DURATION_MS + 1, 1500)]},
            }
        else:
            ramp = round(rng.uniform(-4, 4), 3)
            networks[sid] = {"base": {"Q": q, "L": load}, "ramps": {"Q": ramp}}
    terminals = []
    for i in range(4):
        start = [round(rng.uniform(200.0, 1800.0), 3), round(rng.uniform(200.0, 1800.0), 3)]
        end = [round(rng.uniform(0.0, 2000.0), 3), round(rng.uniform(0.0, 2000.0), 3)]
        terminals.append({"id": f"mt{i}", "path": [[0, start], [DURATION_MS, end]]})
    away = [[0, [1000.0, 1000.0]], [DURATION_MS // 2, list(FAR_AWAY)]]
    terminals.append({"id": "mt_away", "path": away})
    terminals.append({"id": "mt_edge", "path": [[0, list(EDGE_TERMINAL_POS)]]})
    synthesis = {"mode": mode, "networks": networks}
    if mode == "stochastic":
        synthesis.update({"ar1_rho": 0.85, "noise_sigma": 2500.0})
    return {
        "seed": 5,
        "duration_ms": DURATION_MS,
        "tick_ms": 100,
        "topology": {
            "providers": [
                {"id": f"prov{p}", "nets": [{"id": f"net{p}{n}", "stations": nets[2 * p + n]}
                                            for n in range(2)]}
                for p in range(2)
            ]
        },
        "path_loss": {"micro": {"tx_power_dbm": -43.5, "exponent": 2.9}},
        "terminals": terminals,
        "criteria": [
            {"id": "Q", "source": "network", "polarity": "beneficial", "unit": "score"},
            {"id": "L", "source": "network", "polarity": "detrimental", "unit": "%"},
        ],
        "weights": {"k": 0.5, "weights": {"Q": 1.0, "L": 1.0}},
        "controller": {
            "hysteresis_delta": 0.05, "th_sup": 3.0, "th_inf": 1.0, "dwell_sp": 200,
            "prep_latency": 100, "exec_latency": 100, "eval_latency": 100,
            "strategy": "proactive" if mode == "stochastic" else "reactive",
        },
        "synthesis": synthesis,
    }


def _rss_weighted() -> dict:
    """The geometric overlay scored on RSS as well, so each terminal scores a
    station by its own distance to it.  With the default tiers every RSS is
    at most -40 dBm and clamps to the 1e-6 floor; the macro override lifts
    RSS above the floor within about 530 m of a macro station."""
    doc = _dense_overlay("geometric")
    doc["weights"] = {"k": 0.5, "weights": {"RSS": 0.5, "Q": 0.5}}
    doc["path_loss"]["macro"] = {"tx_power_dbm": 60.0, "exponent": 2.2}
    return doc


def _inputs() -> dict:
    docs = {name: json.loads((SCENARIO_DIR / f"{name}.json").read_text())
            for name in ("crossing", "noisy")}
    docs["dense_geometric"] = _dense_overlay("geometric")
    docs["dense_stochastic"] = _dense_overlay("stochastic")
    docs["dense_rss"] = _rss_weighted()
    return docs


# (trace sha256, CLI metrics CSV sha256).  Each CSV digest is that of the
# CSV written before the metric table, with the columns shor_defined, ouir,
# cb, cd and hob cut from it, so the table reproduces every kept cell.
GOLDEN = {
    "crossing": (
        "5b5a4a6c3789b79070a5a166275cb96f24bd053eafed5aa55e8485832ac4cd3d",
        "1cd81054d8fafa34936e7339c8a7d51b43d2edbd9cb374f0b238ceab7e6728d1",
    ),
    "dense_geometric": (
        "fc85221631697fc9448f6a8a1373159e6f6d58aa21f0f0cba9640dfdb9ea480c",
        "dc9d4c9e23cad021eac885aa205b07f474d6625dbc606d2e3ca98efd249924f0",
    ),
    "dense_stochastic": (
        "144fc75f4efc356864dba405ce6b16bc2536ab8934c798e66024d3222a1721c1",
        "74aacbf75a1e01fad81374709e14ee33a067d7fa2bd5dca75b3a75fa293a9b12",
    ),
    "dense_rss": (
        "3983655fd1ea7e61de17779bf727db611300538568f88932f24890594f8a6f13",
        "52e13e0ebb6b772691eb903644407623e69a3d777f6c2cfa26c17565c61f9054",
    ),
    "noisy": (
        "f7fe0cd854543238ad7430e2683a7eb464e34fd7ceefc16e0f3114e3e7b14f27",
        "c52209beed084ef7125a033cfb698eb4b0c39be595548f1447137195f8c4a953",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


def test_dense_overlay_has_the_promised_shape(inputs):
    doc = inputs["dense_geometric"]
    stations = [s for prov in doc["topology"]["providers"] for net in prov["nets"]
                for s in net["stations"]]
    assert len(stations) > 100
    assert {s["tier"] for s in stations} == {"macro", "micro", "pico", "femto"}
    sc = from_dict(doc)
    assert sc.topology.path_loss_overrides
    trace = run(sc)
    anl = {r.terminal: r for r in trace.records if r.kind == "anl"}
    assert anl["mt_away"].payload["entries"] == []
    edge = [r for r in trace.records if r.kind == "anl" and r.terminal == "mt_edge"]
    assert all(EDGE_STATION[0] in [net for net, _ in r.payload["entries"]] for r in edge)


def test_rss_weighted_overlay_tells_terminals_apart(inputs):
    trace = run(from_dict(copy.deepcopy(inputs["dense_rss"])))
    scores = defaultdict(set)
    for r in trace.records:
        if r.kind == "anl":
            for net, value in r.payload["entries"]:
                scores[(r.t, net)].add(value)
    # Some station is scored differently by two terminals at the same tick.
    assert any(len(values) > 1 for values in scores.values())


# sha256 of `sweep crossing.json --grid SWEEP_GRID`, recorded before the sweep
# columns were drawn from the metric table; the worker count must not change it.
SWEEP_GRID = "delta=0,0.5;strategy=reactive,proactive"
SWEEP_CSV_SHA = "f3fa4cfe03c313506efd52aaa4804e81d2d61b06e2f1ec2507f75f8936703b5b"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_bytes_are_pinned(inputs, name):
    trace = run(from_dict(copy.deepcopy(inputs[name])))
    assert _sha(ndjson(trace)) == GOLDEN[name][0]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_metrics_bytes_are_pinned(inputs, name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(inputs[name]))
    assert main(["run", str(path), "--out", str(tmp_path), "--no-trace"]) == 0
    capsys.readouterr()
    assert _sha((tmp_path / f"{name}.metrics.csv").read_text()) == GOLDEN[name][1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_no_trace_folds_to_the_same_metrics_bytes(inputs, name, fmt, tmp_path, capsys):
    """``--no-trace`` folds the records as they are made; a traced run folds
    its finished trace.  Both write the same metrics file."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(inputs[name]))
    written = []
    for flags in ([], ["--no-trace"]):
        out = tmp_path / ("untraced" if flags else "traced")
        assert main(["run", str(path), "--out", str(out), "--metrics", fmt, *flags]) == 0
        capsys.readouterr()
        assert (out / f"{name}.trace.ndjson").exists() is not bool(flags)
        written.append((out / f"{name}.metrics.{fmt}").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_csv_bytes_are_pinned(workers, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", str(SCENARIO_DIR / "crossing.json"), "--grid", SWEEP_GRID,
            "--workers", str(workers), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha(out.read_text()) == SWEEP_CSV_SHA


# Controller settings a sweep might vary over one scenario.
VARIANTS = [
    {},
    {"hysteresis_delta": 0.3, "dwell_sp": 0},
    {"strategy": "proactive", "th_sup": 5.0, "th_inf": 0.5, "dwell_sp": 400},
    {"strategy": "reactive", "hysteresis_delta": 0.0},
]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shared_context_keeps_every_controller_variant_byte_identical(inputs, name):
    # One engine pass steps every variant over one context, as a sweep batch
    # does; each variant's records must be those of its run alone.
    base = from_dict(copy.deepcopy(inputs[name]))
    controllers, alone = [], []
    for variant in VARIANTS:
        doc = copy.deepcopy(inputs[name])
        doc["controller"].update(variant)
        controllers.append(parse_controller(doc))
        alone.append(run(from_dict(doc)))
    together = run(base, points=[(controller, Trace()) for controller in controllers])
    for variant, trace, want in zip(VARIANTS, together, alone):
        assert ndjson(trace) == ndjson(want), variant
    # The variants behave differently, so the pass is tested on distinct runs.
    behaviours = {tuple(json.dumps(r) for r in t.records if r.kind != "init") for t in alone}
    assert len(behaviours) > 1


def _entries_by_station_tick(trace):
    """(t, station) -> each ``anl`` entry list that names it, in record order."""
    found = defaultdict(list)
    for r in trace.records:
        if r.kind == "anl":
            for entry in r.payload["entries"]:
                found[(r.t, entry[0])].append(entry)
    return found


@pytest.mark.parametrize("name", ["crossing", "dense_geometric"])
def test_records_share_one_entry_per_station_tick_and_nothing_changes_them(
    inputs, name, tmp_path
):
    """With no RSS weight a station's entry at a tick is one list, held by
    every ``anl`` record that lists it; folding the trace and writing it
    leave every payload as it was."""
    doc = copy.deepcopy(inputs[name])
    if name == "crossing":
        doc["terminals"].append({**doc["terminals"][0], "id": "mt2"})
    trace = run(from_dict(doc))
    found = _entries_by_station_tick(trace)
    assert any(len(entries) > 1 for entries in found.values())
    for key, entries in found.items():
        assert all(entry is entries[0] for entry in entries), key
    before = copy.deepcopy([r.payload for r in trace.records])
    compute_metrics(trace)
    trace.write(tmp_path / "trace.ndjson")
    assert [r.payload for r in trace.records] == before


def test_rss_weighted_records_hold_entries_of_their_own(inputs):
    """Each terminal scores a station by its own RSS, so no two records
    share an entry list."""
    trace = run(from_dict(copy.deepcopy(inputs["dense_rss"])))
    found = _entries_by_station_tick(trace)
    assert any(len(entries) > 1 for entries in found.values())
    for key, entries in found.items():
        assert len({id(entry) for entry in entries}) == len(entries), key
