"""Handoff classification.

An attachment names everything a connection touches: the terminal, the
provider, the IP network, the cell (base station), the radio channel, and
the access technology.  Comparing two attachments yields the set of levels
that changed; the classification reports the highest changed infrastructure
level together with whether the user terminal itself changed.

Two binary facts span the space: terminal changed or not, and one of eight
infrastructure outcomes (no change, channel, cell, network, or provider,
the last three split into homogeneous and heterogeneous by technology).
That grid holds 16 combinations; the one where nothing changes at all is
not a handoff, leaving 15 feasible handoff types, and ``classify`` returns
None for it.

Verticality is only meaningful where distinct radio technologies can meet:
cell, network, and provider level changes are vertical when the technology
changed and horizontal when it did not.  Channel-level changes and pure
terminal changes carry no verticality.

A run's handoff joins two distinct stations of one terminal, which
``StationTypes`` classifies, so only the six ``cell_``, ``net_`` and
``provider_`` x ``horizontal``/``vertical`` types occur in a run.  The other
nine arise only in ``enumerate_types`` and ``classify``.
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from typing import Iterable, NamedTuple, Optional


class InfraLevel(Enum):
    NONE = "none"
    CHANNEL = "channel"
    CELL = "cell"
    NET = "net"
    PROVIDER = "provider"


class Verticality(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    NOT_APPLICABLE = "n/a"


class Layer(Enum):
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    L4_7 = "L4-7"


class Attachment(NamedTuple):
    """A point of attachment, fully qualified."""

    terminal_id: str
    provider_id: str
    net_id: str
    cell_id: str
    channel_id: str
    technology: str


class TransitionDelta(NamedTuple):
    terminal_changed: bool
    channel_changed: bool
    cell_changed: bool
    net_changed: bool
    provider_changed: bool
    tech_changed: bool


class HandoffType(NamedTuple):
    code: str
    terminal_changed: bool
    infra_level: InfraLevel
    verticality: Verticality
    layer: Layer


def delta(before: Attachment, after: Attachment) -> TransitionDelta:
    return TransitionDelta(
        terminal_changed=before.terminal_id != after.terminal_id,
        channel_changed=before.channel_id != after.channel_id,
        cell_changed=before.cell_id != after.cell_id,
        net_changed=before.net_id != after.net_id,
        provider_changed=before.provider_id != after.provider_id,
        tech_changed=before.technology != after.technology,
    )


def _infra_level(d: TransitionDelta) -> InfraLevel:
    # Report the highest level that changed; changing a provider implies
    # new net, cell, and channel underneath it.
    if d.provider_changed:
        return InfraLevel.PROVIDER
    if d.net_changed:
        return InfraLevel.NET
    if d.cell_changed:
        return InfraLevel.CELL
    if d.channel_changed:
        return InfraLevel.CHANNEL
    return InfraLevel.NONE


def _verticality(level: InfraLevel, tech_changed: bool) -> Verticality:
    if level in (InfraLevel.CELL, InfraLevel.NET, InfraLevel.PROVIDER):
        return Verticality.VERTICAL if tech_changed else Verticality.HORIZONTAL
    return Verticality.NOT_APPLICABLE


def _layer(terminal_changed: bool, level: InfraLevel) -> Layer:
    # Terminal and provider changes need session-level support; below
    # that the layer follows the infrastructure level.
    if terminal_changed or level is InfraLevel.PROVIDER:
        return Layer.L4_7
    if level is InfraLevel.NET:
        return Layer.L3
    if level is InfraLevel.CELL:
        return Layer.L2
    return Layer.L1  # CHANNEL; (terminal same, NONE) never reaches here


def _code(terminal_changed: bool, level: InfraLevel, vert: Verticality) -> str:
    parts = []
    if terminal_changed:
        parts.append("terminal")
    if level is InfraLevel.NONE:
        pass
    elif level is InfraLevel.CHANNEL:
        parts.append("channel")
    else:
        parts.append(f"{level.value}_{vert.value}")
    return "+".join(parts)


def _make_type(terminal_changed: bool, level: InfraLevel, tech_changed: bool) -> HandoffType:
    vert = _verticality(level, tech_changed)
    return HandoffType(
        code=_code(terminal_changed, level, vert),
        terminal_changed=terminal_changed,
        infra_level=level,
        verticality=vert,
        layer=_layer(terminal_changed, level),
    )


# The eight infrastructure outcomes, in ranking order.
_INFRA_OUTCOMES: tuple[tuple[InfraLevel, bool], ...] = (
    (InfraLevel.NONE, False),
    (InfraLevel.CHANNEL, False),
    (InfraLevel.CELL, False),
    (InfraLevel.CELL, True),
    (InfraLevel.NET, False),
    (InfraLevel.NET, True),
    (InfraLevel.PROVIDER, False),
    (InfraLevel.PROVIDER, True),
)


def enumerate_types() -> list[HandoffType]:
    """All feasible handoff types, in a stable order.

    The grid is 2 terminal outcomes x 8 infrastructure outcomes; the
    combination where neither side changes is the identity and is
    excluded, leaving 15 entries.
    """
    types = []
    for terminal_changed, (level, tech) in product((False, True), _INFRA_OUTCOMES):
        if not terminal_changed and level is InfraLevel.NONE:
            continue  # nothing moved: not a handoff
        types.append(_make_type(terminal_changed, level, tech))
    return types


def classify(before: Attachment, after: Attachment) -> Optional[HandoffType]:
    """Classify the transition between two attachments.

    Returns None for the identity transition (same terminal, same
    attachment point).
    """
    d = delta(before, after)
    level = _infra_level(d)
    if not d.terminal_changed and level is InfraLevel.NONE:
        return None
    return _make_type(d.terminal_changed, level, d.tech_changed)


class StationTypes(dict):
    """The handoff type between two stations, keyed by ``(from_station,
    to_station)`` id and classified the first time it is read.  The two
    attachments hold terminal and channel equal: one terminal moves, and
    distinct stations are distinct cells, so a channel never decides."""

    def __init__(self, stations: Iterable):
        self.stations = {bs.id: bs for bs in stations}

    def __missing__(self, pair: tuple[str, str]) -> Optional[HandoffType]:
        before, after = (Attachment("", bs.provider_id, bs.net_id, bs.id, "", bs.technology)
                         for bs in map(self.stations.__getitem__, pair))
        ho_type = self[pair] = classify(before, after)
        return ho_type
