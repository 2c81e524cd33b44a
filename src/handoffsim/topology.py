"""Overlay network topology and the radio propagation model.

Providers own IP networks; IP networks own base stations (cells).  A
topology keeps only the stations, each naming its net and provider and
advertising one access technology, a coverage radius, and a list of
channels; the scenario parser checks each one where it reads it.  Stations
come in four tiers whose default coverage radii nest: macro covers the
most ground, then micro, pico, and femto.

Received signal strength follows a log-distance path loss law:

    rss(d) = tx_power - 10 * n * log10(max(d, d0) / d0)

with per-tier defaults for the transmit power and the exponent n, which
``tier_path_loss`` resolves with a topology's overrides and ``rss_at``
takes, and a reference distance d0 of one meter.

Coverage is geometry only: which stations' radii reach a position.
Queries go through a ``CoverageIndex`` of a topology, which a run builds
once: the station ids in order with their position and radius, plus a
uniform grid over their coverage disks' bounding boxes that narrows each
query to the stations near the position.  Each answer is the covering
station ids with its reach: how far the position can move before the
answer may change.  RSS is the radio model's, ``rss_at``, asked by a run
only for the stations that cover a terminal and only when a score reads it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Mapping, NamedTuple, Optional

Position = tuple[float, float]


TIER_DEFAULTS: Mapping[str, dict] = {
    "macro": {"radius": 1000.0, "tx_power_dbm": -40.0, "exponent": 3.0},
    "micro": {"radius": 300.0, "tx_power_dbm": -45.0, "exponent": 2.7},
    "pico": {"radius": 100.0, "tx_power_dbm": -50.0, "exponent": 2.3},
    "femto": {"radius": 30.0, "tx_power_dbm": -55.0, "exponent": 2.0},
}

REFERENCE_DISTANCE_M = 1.0


class PathLossParams(NamedTuple):
    tx_power_dbm: float
    exponent: float
    d0: float = REFERENCE_DISTANCE_M


def tier_path_loss(tier: str, overrides: Optional[Mapping[str, Mapping]] = None) -> PathLossParams:
    base = TIER_DEFAULTS[tier]
    cfg = dict(base)
    if overrides and tier in overrides:
        cfg.update(overrides[tier])
    return PathLossParams(tx_power_dbm=cfg["tx_power_dbm"], exponent=cfg["exponent"])


class BaseStation(NamedTuple):
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


Topology = namedtuple("Topology", ("stations", "path_loss_overrides"), defaults=({},))
Topology.__doc__ = """The stations, a tuple; ``path_loss_overrides`` maps a tier to its
overridden path-loss parameters."""


def rss_at(pos: Position, station: BaseStation, params: PathLossParams) -> float:
    """Received signal strength in dBm at a position, log-distance model,
    under the station's ``tier_path_loss`` parameters."""
    dx = pos[0] - station.position[0]
    dy = pos[1] - station.position[1]
    d0 = params.d0
    effective = max(math.hypot(dx, dy), d0)
    return params.tx_power_dbm - 10.0 * params.exponent * math.log10(effective / d0)


class Coverage(list):
    """The ids of the stations that cover a position, in id order, and
    ``reach``: a distance in meters that the position can move, in any
    direction, without changing which stations cover it.  A reach of 0
    promises nothing."""

    __slots__ = ("reach",)


class CoverageIndex:
    """Per-run coverage facts of one topology, whose ``stations`` it keeps.

    ``entries`` holds (station id, x, y, radius) in id order, leaving out
    stations whose radius can reach nothing (negative or NaN).  The grid
    splits the stations' padded bounding boxes into about one square cell
    per station, and each cell lists, in id order, every station whose
    padded box overlaps it.  The grid only prefilters: the covered/not-covered
    verdict is the exact distance test.  When some box is not finite (an
    infinite radius, a non-finite position) there is no grid and every
    query tests every entry.

    The pad is a few ulps of the largest box coordinate.  A covered point
    has ``|fl(x - sx)| <= hypot(...) <= radius``, so rounding in that
    difference and in ``sx + radius`` puts it at most about two ulps of the
    largest coordinate outside the unpadded box, and so inside the padded
    one.  The cell of a point is a monotone function of its coordinates,
    so a point inside a padded box lands in one of the box's cells.

    A query's reach is the least of ``|hypot(dx, dy) - radius|`` over the
    stations it tests, and of the distance to its cell's edges (or to the
    grid, from outside it): a point that moves less stays on the same side
    of every circle it was tested against and in the same cell, whose
    list holds every station that can cover it.  The reach is then cut by
    a guard of ``1e-9`` of the coordinates' scale, ``1 + |x| + |y|`` plus
    the largest ``|sx| + |sy| + radius`` of a finite entry, far above the
    rounding in these differences; one that is not finite and positive
    becomes 0.  Entries with a non-finite field need no guard: their
    distance or radius is infinite or NaN wherever the position is finite,
    so their verdict cannot change.
    """

    def __init__(self, topo: Topology):
        self.stations = topo.stations
        self.entries = []
        for bs in sorted(topo.stations, key=lambda s: s.id):
            radius = bs.coverage_radius
            if radius >= 0:
                self.entries.append((bs.id, bs.position[0], bs.position[1], radius))
        # Overflows to inf, and so zeroes every reach, when the coordinates
        # are too large for the guard to be summed.
        self.extent = max(
            (abs(x) + abs(y) + r for _, x, y, r in self.entries
             if math.isfinite(x) and math.isfinite(y) and math.isfinite(r)),
            default=0.0,
        )
        self.cells: Optional[list[list]] = None
        boxes = [(x - r, y - r, x + r, y + r) for _, x, y, r in self.entries]
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

    def covering(self, pos: Position) -> Coverage:
        x, y = pos
        out = Coverage()
        if self.cells is None:
            candidates = self.entries
            reach = math.inf
        elif self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1:
            col, row = self._cell_of(x, y)
            candidates = self.cells[row * self.cols + col]
            # The last column and row end where the grid does.
            left, bottom = self.x0 + col * self.cell, self.y0 + row * self.cell
            right = min(left + self.cell, self.x1)
            top = min(bottom + self.cell, self.y1)
            reach = min(x - left, right - x, y - bottom, top - y)
        else:
            # Outside every padded box; NaN lands here too.
            candidates = ()
            reach = math.hypot(max(self.x0 - x, x - self.x1, 0.0),
                               max(self.y0 - y, y - self.y1, 0.0))
        for sid, sx, sy, radius in candidates:
            d = math.hypot(x - sx, y - sy)
            if d <= radius:
                out.append(sid)
                gap = radius - d
            else:
                gap = d - radius
            if gap < reach:  # a NaN gap is a verdict no move changes
                reach = gap
        reach -= 1e-9 * (1.0 + abs(x) + abs(y) + self.extent)
        out.reach = reach if 0.0 < reach < math.inf else 0.0
        return out


def coverage(pos: Position, index: CoverageIndex) -> Coverage:
    """The ids of the stations whose radius reaches the position, in id
    order so downstream iteration is deterministic, and the answer's reach."""
    return index.covering(pos)
