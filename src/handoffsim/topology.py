"""Overlay network topology and the radio propagation model.

Providers own IP networks; IP networks own base stations (cells); each
station advertises one access technology, a coverage radius, and a list of
channels.  Stations come in four tiers whose default coverage radii nest:
macro covers the most ground, then micro, pico, and femto.

Received signal strength follows a log-distance path loss law:

    rss(d) = tx_power - 10 * n * log10(max(d, d0) / d0)

with per-tier defaults for the transmit power and the exponent n, and a
reference distance d0 of one meter.

Coverage queries go through a per-topology index, built on the first
query: the stations sorted by id with their radius and path-loss
parameters, plus a uniform grid over their coverage disks' bounding boxes
that narrows each query to the stations near the position.  A topology
built with ``measure_rss=False`` answers the same stations with no RSS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional

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
    # False: coverage queries report None for RSS and skip its log10, for
    # runs whose scores do not read it.
    measure_rss: bool = True

    @cached_property
    def coverage_index(self) -> "CoverageIndex":
        """Built on first use, so parsing a scenario never pays for it."""
        return CoverageIndex(self)

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


def _rss(d: float, params: PathLossParams) -> float:
    effective = max(d, params.d0)
    return params.tx_power_dbm - 10.0 * params.exponent * math.log10(effective / params.d0)


def rss_at(pos: Position, station: BaseStation, params: Optional[PathLossParams] = None) -> float:
    """Received signal strength in dBm at a position, log-distance model."""
    if params is None:
        params = tier_path_loss(station.tier)
    dx = pos[0] - station.position[0]
    dy = pos[1] - station.position[1]
    return _rss(math.hypot(dx, dy), params)


class CoverageIndex:
    """Per-run coverage facts of one topology.

    ``entries`` holds (station, x, y, radius, path-loss parameters) in
    station id order, leaving out stations whose radius can reach nothing
    (negative or NaN).  The grid splits the stations' padded bounding boxes
    into about one square cell per station, and each cell lists, in id
    order, every station whose padded box overlaps it.  The grid only
    prefilters: the covered/not-covered verdict is the exact distance test.
    When some box is not finite (an infinite radius, a non-finite position)
    there is no grid and every query tests every entry.

    The pad is a few ulps of the largest box coordinate.  A covered point
    has ``|fl(x - sx)| <= hypot(...) <= radius``, so rounding in that
    difference and in ``sx + radius`` puts it at most about two ulps of the
    largest coordinate outside the unpadded box, and so inside the padded
    one.  The cell of a point is a monotone function of its coordinates,
    so a point inside a padded box lands in one of the box's cells.
    """

    def __init__(self, topo: Topology):
        self.measure_rss = topo.measure_rss
        self.entries = []
        for bs in sorted(topo.stations, key=lambda s: s.id):
            radius = bs.coverage_radius
            if radius >= 0:
                params = tier_path_loss(bs.tier, topo.path_loss_overrides)
                self.entries.append((bs, bs.position[0], bs.position[1], radius, params))
        self.cells: Optional[list[list]] = None
        boxes = [(x - r, y - r, x + r, y + r) for _, x, y, r, _ in self.entries]
        if not boxes or not all(math.isfinite(v) for box in boxes for v in box):
            return
        pad = 4 * math.ulp(max(abs(v) for box in boxes for v in box))
        boxes = [(bx0 - pad, by0 - pad, bx1 + pad, by1 + pad) for bx0, by0, bx1, by1 in boxes]
        x0 = min(b[0] for b in boxes)
        y0 = min(b[1] for b in boxes)
        x1 = max(b[2] for b in boxes)
        y1 = max(b[3] for b in boxes)
        width, height = x1 - x0, y1 - y0
        n = len(boxes)
        # About n cells over the extent; the second bound keeps a long thin
        # extent from being cut into a row of far more than n cells.
        cell = max(math.sqrt(width * height / n), (width + height) / n) or 1.0
        if not all(math.isfinite(v) for v in (x0, y0, x1, y1, width, height, cell)):
            return  # the padded extent overflows
        self.cell, self.x0, self.y0, self.x1, self.y1 = cell, x0, y0, x1, y1
        self.cols = math.floor(width / cell) + 1
        self.rows = math.floor(height / cell) + 1
        self.cells = [[] for _ in range(self.cols * self.rows)]
        for entry, (bx0, by0, bx1, by1) in zip(self.entries, boxes):
            c0, r0 = self._cell_of(bx0, by0)
            c1, r1 = self._cell_of(bx1, by1)
            for row in range(r0, r1 + 1):
                for col in range(c0, c1 + 1):
                    self.cells[row * self.cols + col].append(entry)

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Cell of a point at or past the grid's low corner; rounding at the
        high edge is clamped into the last row and column."""
        col = min(math.floor((x - self.x0) / self.cell), self.cols - 1)
        row = min(math.floor((y - self.y0) / self.cell), self.rows - 1)
        return col, row

    def covering(self, pos: Position) -> list[tuple[BaseStation, Optional[float]]]:
        x, y = pos
        if self.cells is None:
            candidates = self.entries
        elif self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1:
            col, row = self._cell_of(x, y)
            candidates = self.cells[row * self.cols + col]
        else:
            return []  # outside every padded box; NaN lands here too
        if not self.measure_rss:
            return [
                (bs, None) for bs, sx, sy, radius, _ in candidates
                if math.hypot(x - sx, y - sy) <= radius
            ]
        out = []
        for bs, sx, sy, radius, params in candidates:
            d = math.hypot(x - sx, y - sy)
            if d <= radius:
                out.append((bs, _rss(d, params)))
        return out


def coverage(pos: Position, topo: Topology) -> list[tuple[BaseStation, Optional[float]]]:
    """Stations whose radius reaches the position, with their RSS there
    (None when the topology does not measure it).

    Ordered by station id so downstream iteration is deterministic.
    """
    return topo.coverage_index.covering(pos)
