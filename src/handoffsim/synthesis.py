"""Per-network context signal synthesis.

Two modes drive the criterion values a network reports over time:

* geometric: deterministic values from a base plus a linear ramp, or from
  a piecewise-linear waypoint series when one is configured (a waypoint
  series generalizes a single ramp and can describe pulses and triangles).
* stochastic: a seeded first-order autoregression around the base,
  x[t] = base + rho * (x[t-1] - base) + sigma * eps, with unit-normal
  noise.  Sigma zero degenerates to a deterministic geometric decay of the
  starting offset toward the base.

All evolution is advanced one simulator tick at a time in sorted network
and criterion order, so a given seed always yields the same byte stream.
"""

from __future__ import annotations

import random
from typing import Mapping, NamedTuple, Optional, Sequence

from .context import CriteriaVector


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
    seed: int = 0


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
    """Mutable evolution state, advanced tick by tick, with the spec's
    constants resolved once: each geometric network's criteria in sorted
    order, and the sorted network and criterion order of the stochastic
    walk with each criterion's base."""

    def __init__(self, spec: ContextSynthesisSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.t: Optional[int] = None
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
        rho, sigma, gauss = self.spec.ar1_rho, self.spec.noise_sigma, self.rng.gauss
        while self.t < t:
            self.t += tick
            for vals, bases in self.walk:
                for cid, base in bases:
                    eps = gauss(0.0, 1.0)
                    vals[cid] = base + rho * (vals[cid] - base) + (sigma * eps)


def sample_context(
    network_id: str, t: int, spec: ContextSynthesisSpec, state: SynthesisState
) -> CriteriaVector:
    """Criterion values a network reports at time t.

    The state must be the spec's, already advanced to t (the engine
    advances all networks together once per tick).  The RSS entry, if any,
    is a placeholder: the engine overwrites it per terminal from the radio
    model.
    """
    signals = spec.networks.get(network_id)
    if signals is None:
        return CriteriaVector(values={})
    if spec.mode == "geometric":
        values = {cid: _geometric_value(signals, cid, t) for cid in state.criteria[network_id]}
    else:
        values = dict(state.values[network_id])
    return CriteriaVector(values=values)
