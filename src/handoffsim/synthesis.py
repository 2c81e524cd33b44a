"""Per-network context signal synthesis.

Two modes drive the criterion values a network reports over time:

* geometric: deterministic values from a base plus a linear ramp, or from
  a piecewise-linear waypoint series when one is configured (a waypoint
  series generalizes a single ramp and can describe pulses and triangles).
* stochastic: a seeded first-order autoregression around the base,
  x[t] = base + rho * (x[t-1] - base) + sigma * eps, with unit-normal
  noise eps: the draws ``random.Random(seed).gauss(0.0, 1.0)`` gives, by
  its own formula, computed inline.  Sigma zero degenerates to a
  deterministic geometric decay of the starting offset toward the base.

A run's ``SynthesisState`` holds the spec, and ``sample_context`` reads a
network's values from it.  All evolution is advanced one simulator tick at
a time in sorted network and criterion order, so a given seed always
yields the same byte stream.
"""

from __future__ import annotations

import math
import random
from typing import Mapping, NamedTuple, Optional, Sequence


class NetworkSignals(NamedTuple):
    """Synthesis inputs for one network's criteria.  The empty defaults are
    shared and never mutated; the parser passes all four maps."""

    base: Mapping[str, float] = {}
    ramps: Mapping[str, float] = {}  # value units per ms
    waypoints: Mapping[str, Sequence[tuple[int, float]]] = {}
    start: Mapping[str, float] = {}  # stochastic initial values


class ContextSynthesisSpec(NamedTuple):
    mode: str  # "geometric" | "stochastic"
    networks: Mapping[str, NetworkSignals] = {}
    ar1_rho: float = 0.9
    noise_sigma: float = 0.0


_TWOPI = 2.0 * math.pi  # random.TWOPI


def _interp(waypoints: Sequence[tuple[int, float]], t: int) -> float:
    if t <= waypoints[0][0]:
        return waypoints[0][1]
    for (t0, v0), (t1, v1) in zip(waypoints, waypoints[1:]):
        if t <= t1:
            frac = (t - t0) / (t1 - t0)
            return v0 + (v1 - v0) * frac
    return waypoints[-1][1]


def _geometric_value(signals: NetworkSignals, cid: str, t: int) -> float:
    if cid in signals.waypoints:
        return _interp(signals.waypoints[cid], t)
    base = signals.base.get(cid, 0.0)
    slope = signals.ramps.get(cid, 0.0)
    return base + slope * t


class SynthesisState:
    """Mutable evolution state of one run, advanced tick by tick, with the
    spec's constants resolved once: each geometric network's criteria in
    sorted order, and the sorted network and criterion order of the
    stochastic walk with each criterion's base.  ``t`` is the time its
    values stand for: None at first, then the last ``advance_to``'s t.

    The walk's noise is the stream ``random.Random(seed).gauss(0.0, 1.0)``
    would give, for the run's seed, drawn by that method's own formula in
    ``advance_to`` rather than through a call per draw: each pair of
    ``random()`` values gives one draw and a spare for the next, and the
    spare is kept here, in ``spare``, across calls."""

    def __init__(self, spec: ContextSynthesisSpec, seed: int):
        self.spec = spec
        self.rng = random.Random(seed)
        self.t: Optional[int] = None
        self.spare: Optional[float] = None  # the second draw of the last pair
        self.values: dict[str, dict[str, float]] = {}
        self.criteria: dict[str, tuple[str, ...]] = {}
        # (values, ((criterion, base), ...)) per network, in the walk's order.
        self.walk: list[tuple[dict[str, float], tuple[tuple[str, float], ...]]] = []
        for net in sorted(spec.networks):
            signals = spec.networks[net]
            if spec.mode == "geometric":
                self.criteria[net] = tuple(
                    sorted(set(signals.base) | set(signals.ramps) | set(signals.waypoints))
                )
                continue
            bases = tuple((cid, signals.base[cid]) for cid in sorted(signals.base))
            vals = {cid: signals.start.get(cid, base) for cid, base in bases}
            self.values[net] = vals
            self.walk.append((vals, bases))

    def advance_to(self, t: int, tick: int) -> None:
        """Advance every network's signals up to time t (multiples of tick)."""
        if self.spec.mode == "geometric":
            self.t = t
            return
        if self.t is None:
            self.t = 0  # initial values stand for t = 0
        rho, sigma = self.spec.ar1_rho, self.spec.noise_sigma
        uniform, spare = self.rng.random, self.spare
        cos, sin, sqrt, log = math.cos, math.sin, math.sqrt, math.log
        while self.t < t:
            self.t += tick
            for vals, bases in self.walk:
                for cid, base in bases:
                    # random.gauss(0.0, 1.0): returns 0.0 + z * 1.0, which is
                    # 0.0 + z, so a -0.0 draw comes out as 0.0.
                    if spare is None:
                        x2pi = uniform() * _TWOPI
                        g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                        eps = 0.0 + cos(x2pi) * g2rad
                        spare = sin(x2pi) * g2rad
                    else:
                        eps = 0.0 + spare
                        spare = None
                    vals[cid] = base + rho * (vals[cid] - base) + (sigma * eps)
        self.spare = spare


def sample_context(network_id: str, t: int, state: SynthesisState) -> dict[str, float]:
    """Criterion values a network reports at time t, a new dict by
    criterion id, under the state's spec.

    The state must already be advanced to t (the engine advances all
    networks together once per tick).  A stochastic sample is a copy,
    because advancing the walk changes its values in place.  The
    RSS entry, if any, is a placeholder: the engine overwrites it per
    terminal from the radio model.
    """
    spec = state.spec
    signals = spec.networks.get(network_id)
    if signals is None:
        return {}
    if spec.mode == "geometric":
        return {cid: _geometric_value(signals, cid, t) for cid in state.criteria[network_id]}
    return dict(state.values[network_id])
