"""A plain reference for the engine's context: every ``anl`` record of a run,
worked out from the scenario alone.

Each terminal-tick, in time and then terminal order, takes its position by
its own interpolation, scans every station for coverage with
``topology.rss_at``, synthesizes and scores each covered station afresh,
and ranks the scores.  Nothing is indexed, memoized or shared between
terminals, ticks or stations, and no engine, synthesis or scoring code is
called; only the radio model is the program's.  The float operations are
the program's, in its order, so the records must match byte for byte.
"""

import math
import random

from handoffsim.context import Polarity
from handoffsim.topology import rss_at, tier_path_loss


def _position(path, t):
    if t <= path[0][0]:
        return path[0][1]
    for (t0, p0), (t1, p1) in zip(path, path[1:]):
        if t <= t1:
            frac = (t - t0) / (t1 - t0)
            return (p0[0] + (p1[0] - p0[0]) * frac, p0[1] + (p1[1] - p0[1]) * frac)
    return path[-1][1]


def _waypoint_value(points, t):
    if t <= points[0][0]:
        return points[0][1]
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        if t <= t1:
            return v0 + (v1 - v0) * ((t - t0) / (t1 - t0))
    return points[-1][1]


def _geometric(signals, t):
    cids = set(signals.base) | set(signals.ramps) | set(signals.waypoints)
    return {
        cid: _waypoint_value(signals.waypoints[cid], t) if cid in signals.waypoints
        else signals.base.get(cid, 0.0) + signals.ramps.get(cid, 0.0) * t
        for cid in sorted(cids)
    }


def samples(sc):
    """(t, each synthesized network's criterion values at t) per tick, in
    sorted network and criterion order; the stochastic walk steps once a
    tick from its start values at 0."""
    spec = sc.synthesis
    rng = random.Random(spec.seed)
    walk = {net: {cid: s.start.get(cid, s.base[cid]) for cid in sorted(s.base)}
            for net, s in sorted(spec.networks.items())}
    for t in range(0, sc.duration_ms, sc.tick_ms):
        if spec.mode == "geometric":
            yield t, {net: _geometric(s, t) for net, s in sorted(spec.networks.items())}
            continue
        for net, values in walk.items() if t > 0 else ():
            for cid, value in values.items():
                base = spec.networks[net].base[cid]
                eps = rng.gauss(0.0, 1.0)
                values[cid] = base + spec.ar1_rho * (value - base) + (spec.noise_sigma * eps)
        yield t, {net: dict(values) for net, values in walk.items()}


def _score(values, profile, catalog):
    """The log-weighted sum, each criterion's definition looked up anew."""
    total = 0.0
    for cid in sorted(profile.weights):
        cdef = next(c for c in catalog if c.id == cid)
        raw = values[cid]
        assert math.isfinite(raw), (cid, raw)
        term = (profile.k + profile.weights[cid]) * math.log10(max(raw, cdef.floor))
        total = total + term if cdef.polarity is Polarity.BENEFICIAL else total - term
    return total


def anl_records(sc):
    """(t, terminal, payload) of every ``anl`` record of ``engine.run(sc)``,
    in trace order."""
    topo = sc.topology
    out = []
    for t, sampled in samples(sc):
        for term in sorted(sc.terminals, key=lambda term: term.id):
            pos = _position(term.path, t)
            scores = []
            for bs in topo.stations:
                d = math.hypot(pos[0] - bs.position[0], pos[1] - bs.position[1])
                if not d <= bs.coverage_radius:
                    continue
                values = dict(sampled.get(bs.id, {}))
                if "RSS" in sc.weights.weights:
                    values["RSS"] = rss_at(pos, bs, tier_path_loss(bs.tier, topo.path_loss_overrides))
                scores.append((-_score(values, sc.weights, sc.catalog), bs.id))
            scores.sort()
            out.append((t, term.id, {"entries": [[net, -neg] for neg, net in scores]}))
    return out
