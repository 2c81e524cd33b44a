"""Overlay network topology and the radio propagation model.

Providers own IP networks; IP networks own base stations (cells); each
station advertises one access technology, a coverage radius, and a list of
channels.  Stations come in four tiers whose default coverage radii nest:
macro covers the most ground, then micro, pico, and femto.

Received signal strength follows a log-distance path loss law:

    rss(d) = tx_power - 10 * n * log10(max(d, d0) / d0)

with per-tier defaults for the transmit power and the exponent n, and a
reference distance d0 of one meter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import UnknownTopologyElementError
from .taxonomy import Attachment

Position = tuple[float, float]


TIER_DEFAULTS: Mapping[str, dict] = {
    "macro": {"radius": 1000.0, "tx_power_dbm": -40.0, "exponent": 3.0},
    "micro": {"radius": 300.0, "tx_power_dbm": -45.0, "exponent": 2.7},
    "pico": {"radius": 100.0, "tx_power_dbm": -50.0, "exponent": 2.3},
    "femto": {"radius": 30.0, "tx_power_dbm": -55.0, "exponent": 2.0},
}

REFERENCE_DISTANCE_M = 1.0


@dataclass(frozen=True)
class PathLossParams:
    tx_power_dbm: float
    exponent: float
    d0: float = REFERENCE_DISTANCE_M


def tier_path_loss(tier: str, overrides: Optional[Mapping[str, Mapping]] = None) -> PathLossParams:
    base = TIER_DEFAULTS[tier]
    cfg = dict(base)
    if overrides and tier in overrides:
        cfg.update(overrides[tier])
    return PathLossParams(tx_power_dbm=cfg["tx_power_dbm"], exponent=cfg["exponent"])


@dataclass(frozen=True)
class BaseStation:
    id: str
    net_id: str
    provider_id: str
    position: Position
    technology: str
    tier: str = "macro"
    radius: Optional[float] = None  # None: tier default
    channels: tuple[str, ...] = ()

    @property
    def coverage_radius(self) -> float:
        if self.radius is not None:
            return self.radius
        return TIER_DEFAULTS[self.tier]["radius"]


@dataclass(frozen=True)
class IPNet:
    id: str
    provider_id: str
    station_ids: tuple[str, ...]


@dataclass(frozen=True)
class Provider:
    id: str
    net_ids: tuple[str, ...]


@dataclass(frozen=True)
class Topology:
    providers: tuple[Provider, ...]
    nets: tuple[IPNet, ...]
    stations: tuple[BaseStation, ...]
    path_loss_overrides: Mapping[str, Mapping] = field(default_factory=dict)

    def validate(self) -> list[str]:
        """Return structural problems; an empty list means well formed."""
        problems = []
        seen: dict[str, set] = {"provider": set(), "net": set(), "station": set(), "channel": set()}
        for p in self.providers:
            if p.id in seen["provider"]:
                problems.append(f"duplicate provider id {p.id!r}")
            seen["provider"].add(p.id)
        for net in self.nets:
            if net.id in seen["net"]:
                problems.append(f"duplicate net id {net.id!r}")
            seen["net"].add(net.id)
            if net.provider_id not in seen["provider"]:
                problems.append(f"net {net.id!r} names unknown provider {net.provider_id!r}")
        for bs in self.stations:
            if bs.id in seen["station"]:
                problems.append(f"duplicate station id {bs.id!r}")
            seen["station"].add(bs.id)
            if bs.net_id not in seen["net"]:
                problems.append(f"station {bs.id!r} names unknown net {bs.net_id!r}")
            if bs.tier not in TIER_DEFAULTS:
                problems.append(f"station {bs.id!r} has unknown tier {bs.tier!r}")
            if bs.radius is not None and bs.radius <= 0:
                problems.append(f"station {bs.id!r} has non-positive radius")
            if not bs.channels:
                problems.append(f"station {bs.id!r} lists no channels")
            for ch in bs.channels:
                if ch in seen["channel"]:
                    problems.append(f"duplicate channel id {ch!r}")
                seen["channel"].add(ch)
        return problems

    def validate_attachment(self, att: Attachment) -> None:
        """Raise unless the attachment names a consistent chain of elements."""
        station = None
        for bs in self.stations:
            if bs.id == att.cell_id:
                station = bs
                break
        if station is None:
            raise UnknownTopologyElementError("station", att.cell_id)
        if att.channel_id not in station.channels:
            raise UnknownTopologyElementError("channel", att.channel_id)
        if att.net_id != station.net_id:
            raise UnknownTopologyElementError("net", att.net_id)
        if att.provider_id != station.provider_id:
            raise UnknownTopologyElementError("provider", att.provider_id)


def rss_at(pos: Position, station: BaseStation, params: Optional[PathLossParams] = None) -> float:
    """Received signal strength in dBm at a position, log-distance model."""
    if params is None:
        params = tier_path_loss(station.tier)
    dx = pos[0] - station.position[0]
    dy = pos[1] - station.position[1]
    d = math.hypot(dx, dy)
    effective = max(d, params.d0)
    return params.tx_power_dbm - 10.0 * params.exponent * math.log10(effective / params.d0)


def coverage(pos: Position, topo: Topology) -> list[tuple[BaseStation, float]]:
    """Stations whose radius reaches the position, with their RSS there.

    Ordered by station id so downstream iteration is deterministic.
    """
    out = []
    for bs in sorted(topo.stations, key=lambda s: s.id):
        dx = pos[0] - bs.position[0]
        dy = pos[1] - bs.position[1]
        if math.hypot(dx, dy) <= bs.coverage_radius:
            params = tier_path_loss(bs.tier, topo.path_loss_overrides)
            out.append((bs, rss_at(pos, bs, params)))
    return out
