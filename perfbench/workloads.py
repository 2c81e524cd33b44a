"""Seeded scenario generator for the benchmark workloads (standard library only).

Each workload is an overlay of providers, IP networks and tiered stations
plus straight-line terminals, written as a plain scenario document.  The
layout, stations and terminal paths, is fixed per workload, and the seed
drives the signals: a seeded layout moved the number of stations each tick
ranks, and so the work of a run, by up to a tenth between seeds.  Stations
of one tier, and terminal starts, sit on a jittered grid, one per cell.

Documents carry only keys that change a run: no ``battery``,
``app_timeout``, ``feature_goals``, ``app_type`` or ``metrics_constants``.
"""

from __future__ import annotations

import math
import random

TECHNOLOGY = {"macro": "lte", "micro": "lte", "pico": "wifi", "femto": "wifi"}
PROVIDERS = 2
NETS_PER_PROVIDER = 3


def _grid_positions(rng: random.Random, count: int, side: float) -> list[list[float]]:
    """One point in each of `count` cells of a near-square grid over the area."""
    cols = math.ceil(math.sqrt(count))
    rows = math.ceil(count / cols)
    cells = rng.sample(range(rows * cols), count)
    w, h = side / cols, side / rows
    return [
        [round((c % cols + rng.random()) * w, 3), round((c // cols + rng.random()) * h, 3)]
        for c in cells
    ]


def _topology(rng: random.Random, tiers: dict[str, int], side: float) -> tuple[dict, list[str]]:
    """Providers x nets x stations; the stations of each tier are dealt to
    the nets round robin in a seeded order."""
    nets = [[] for _ in range(PROVIDERS * NETS_PER_PROVIDER)]
    ids = []
    for tier, count in tiers.items():
        positions = _grid_positions(rng, count, side)
        rng.shuffle(positions)
        for i, pos in enumerate(positions):
            sid = f"{tier}{i:03d}"
            ids.append(sid)
            nets[i % len(nets)].append(
                {
                    "id": sid,
                    "position": pos,
                    "technology": TECHNOLOGY[tier],
                    "tier": tier,
                    "channels": [f"{sid}c"],
                }
            )
    providers = [
        {
            "id": f"prov{p}",
            "nets": [
                {"id": f"net{p}{n}", "stations": nets[p * NETS_PER_PROVIDER + n]}
                for n in range(NETS_PER_PROVIDER)
            ],
        }
        for p in range(PROVIDERS)
    ]
    return {"providers": providers}, sorted(ids)


def _terminals(rng: random.Random, count: int, side: float, duration_ms: int,
               speeds: tuple[float, float]) -> list[dict]:
    """Straight lines from jittered-grid starts in the inner area, each at a
    uniform heading and speed (m/s), stopped at the edge of the area."""
    inner = 0.8 * side
    paths = []
    for i, (x, y) in enumerate(_grid_positions(rng, count, inner)):
        x, y = x + 0.1 * side, y + 0.1 * side
        heading = rng.uniform(0.0, 2.0 * math.pi)
        reach = rng.uniform(*speeds) * duration_ms / 1000.0
        end = [round(min(max(x + reach * math.cos(heading), 0.0), side), 3),
               round(min(max(y + reach * math.sin(heading), 0.0), side), 3)]
        paths.append({"id": f"mt{i:03d}", "path": [[0, [x, y]], [duration_ms, end]]})
    return paths


def _document(seed, duration_ms, tick_ms, topology, terminals, controller, synthesis) -> dict:
    return {
        "seed": seed,
        "duration_ms": duration_ms,
        "tick_ms": tick_ms,
        "topology": topology,
        "terminals": terminals,
        "criteria": [{"id": "Q", "source": "network", "polarity": "beneficial", "unit": "score"}],
        "weights": {"k": 0.0, "weights": {"Q": 1.0}},
        "controller": {
            "th_sup": 3.0,
            "th_inf": 1.0,
            "prep_latency": 100,
            "exec_latency": 100,
            "eval_latency": 100,
            **controller,
        },
        "synthesis": synthesis,
    }


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def metro(seed: int, scale: float = 1.0) -> tuple[dict, str]:
    """Dense four-tier overlay with geometric waypoint signals, reactive."""
    layout, rng = random.Random("metro"), random.Random(f"metro:{seed}")
    side = 2000.0
    duration = 4_000 if scale >= 1 else 2_000
    tiers = {"macro": 12, "micro": 36, "pico": 72, "femto": 120}
    topo, ids = _topology(layout, {t: _scaled(n, scale) for t, n in tiers.items()}, side)
    networks = {
        sid: {
            "waypoints": {
                "Q": [[t, round(rng.uniform(5e3, 5e4), 1)] for t in range(0, duration + 1, 500)]
            }
        }
        for sid in ids
    }
    doc = _document(
        seed, duration, 200, topo,
        _terminals(layout, _scaled(60, scale), side, duration, (5.0, 30.0)),
        {"hysteresis_delta": 0.1, "dwell_sp": 400, "strategy": "reactive"},
        {"mode": "geometric", "networks": networks},
    )
    return doc, "delta=0.1,0.2"


def churn(seed: int, scale: float = 1.0) -> tuple[dict, str]:
    """Few stations, noisy AR(1) signals, proactive: the controller works hard."""
    layout = random.Random("churn")
    side = 800.0
    duration = 25_000 if scale >= 1 else 2_000
    topo, ids = _topology(layout, {"macro": _scaled(4, scale), "micro": _scaled(8, scale)}, side)
    doc = _document(
        seed, duration, 100, topo,
        _terminals(layout, _scaled(8, scale), side, duration, (1.0, 15.0)),
        {"hysteresis_delta": 0.05, "dwell_sp": 100, "strategy": "proactive"},
        {
            "mode": "stochastic",
            "ar1_rho": 0.9,
            "noise_sigma": 3000.0,
            "networks": {sid: {"base": {"Q": 10000.0}} for sid in ids},
        },
    )
    return doc, "sp=100,300"


def sweep(seed: int, scale: float = 1.0) -> tuple[dict, str]:
    """Mid-size stochastic overlay, swept over hysteresis and dwell."""
    layout, rng = random.Random("sweep"), random.Random(f"sweep:{seed}")
    side = 2000.0
    duration = 10_000 if scale >= 1 else 2_000
    tiers = {"macro": 6, "micro": 18, "pico": 36, "femto": 60}
    topo, ids = _topology(layout, {t: _scaled(n, scale) for t, n in tiers.items()}, side)
    networks = {sid: {"base": {"Q": round(rng.uniform(5e3, 5e4), 1)}} for sid in ids}
    doc = _document(
        seed, duration, 200, topo,
        _terminals(layout, _scaled(24, scale), side, duration, (5.0, 30.0)),
        {"hysteresis_delta": 0.05, "dwell_sp": 200, "strategy": "reactive"},
        {"mode": "stochastic", "ar1_rho": 0.9, "noise_sigma": 3000.0, "networks": networks},
    )
    return doc, "delta=0.02,0.1;sp=0,400"


WORKLOADS = {"metro": metro, "churn": churn, "sweep": sweep}
