"""Multi-criteria desirability scoring and network ranking.

A network's desirability is a weighted sum of base-10 logarithms of its
criterion values: beneficial criteria add, detrimental criteria subtract.
Each weighted criterion contributes (K + W) * log10(value), where W is the
criterion's weight and K is a constant offset shared by all terms.  Values
at or below a criterion's floor are clamped up to the floor before the log
so the score stays finite.

Weights live in [0, 1] and each polarity side that has any weighted
criterion must sum to 1.  Criteria without a weight contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .context import CriteriaVector, CriterionDef, Polarity, catalog_index
from .errors import (
    DuplicateNetworkError,
    MissingCriterionError,
    NonFiniteValueError,
    UnknownCriterionError,
    WeightProfileError,
)

SIDE_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class WeightProfile:
    """Per-criterion weights plus the shared additive constant K."""

    weights: Mapping[str, float]
    k: float = 1.0

    @cached_property
    def terms(self) -> tuple[tuple[str, float], ...]:
        """(criterion id, K + W) per weighted criterion, in id order."""
        return tuple((cid, self.k + self.weights[cid]) for cid in sorted(self.weights))

    def validate(self, catalog: Sequence[CriterionDef]) -> None:
        """Raise WeightProfileError on any constraint violation."""
        index = catalog_index(catalog)
        if not math.isfinite(self.k) or self.k < 0:
            raise WeightProfileError(f"constant K must be finite and >= 0, got {self.k!r}")
        sums = {Polarity.BENEFICIAL: 0.0, Polarity.DETRIMENTAL: 0.0}
        counts = {Polarity.BENEFICIAL: 0, Polarity.DETRIMENTAL: 0}
        for cid, w in self.weights.items():
            if cid not in index:
                raise WeightProfileError(f"weight names unknown criterion {cid!r}")
            if not math.isfinite(w) or not (0.0 <= w <= 1.0):
                raise WeightProfileError(f"weight for {cid!r} outside [0, 1]: {w!r}")
            sums[index[cid].polarity] += w
            counts[index[cid].polarity] += 1
        for side, total in sums.items():
            if counts[side] and abs(total - 1.0) > SIDE_SUM_TOLERANCE:
                raise WeightProfileError(
                    f"{side.value} weights sum to {total!r}, expected 1.0"
                )


@dataclass(frozen=True)
class DesirabilityScore:
    network_id: str
    value: float
    computed_at: int = 0


def _clamped_log10(value: float, floor: float) -> float:
    return math.log10(max(value, floor))


def desirability(
    v: CriteriaVector,
    profile: WeightProfile,
    catalog: Sequence[CriterionDef] | Mapping[str, CriterionDef],
    network_id: str = "",
) -> DesirabilityScore:
    """Score one network's criteria vector.

    Every weighted criterion must be present in the vector and finite.
    Criteria present in the vector but unweighted are ignored.  ``catalog``
    may be a prebuilt ``catalog_index``.
    """
    index = catalog_index(catalog)
    total = 0.0
    for cid, coefficient in profile.terms:
        if cid not in index:
            raise UnknownCriterionError(cid)
        if cid not in v.values:
            raise MissingCriterionError(cid)
        raw = v.values[cid]
        if not math.isfinite(raw):
            raise NonFiniteValueError(cid, raw)
        cdef = index[cid]
        term = coefficient * _clamped_log10(raw, cdef.floor)
        if cdef.polarity is Polarity.BENEFICIAL:
            total += term
        else:
            total -= term
    return DesirabilityScore(network_id=network_id, value=total, computed_at=v.timestamp)


@dataclass(frozen=True)
class AvailableNetworkList:
    """Candidate networks ordered best first.

    ``entries`` pairs each network id with its score; order is descending
    desirability with ties broken by ascending network id, and each network
    appears once.  ``values`` maps each listed id to its score value; it is
    built with the list, because the controller looks scores up by id on
    every step (a ``cached_property`` would take a lock on each read).
    """

    entries: tuple[tuple[str, DesirabilityScore], ...] = ()
    as_of: int = 0
    values: Mapping[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", {net: s.value for net, s in self.entries})

    @property
    def network_ids(self) -> tuple[str, ...]:
        return tuple(net for net, _ in self.entries)

    def score_of(self, network_id: str) -> Optional[float]:
        return self.values.get(network_id)


def rank(scores: Sequence[DesirabilityScore], as_of: int = 0) -> AvailableNetworkList:
    """Order scores into an available-network list, best first."""
    seen = set()
    for s in scores:
        if s.network_id in seen:
            raise DuplicateNetworkError(s.network_id)
        seen.add(s.network_id)
    ordered = sorted(scores, key=lambda s: (-s.value, s.network_id))
    return AvailableNetworkList(
        entries=tuple((s.network_id, s) for s in ordered),
        as_of=as_of,
    )


def best(anl: AvailableNetworkList) -> Optional[str]:
    """Head of the list, or None when no network is available."""
    if not anl.entries:
        return None
    return anl.entries[0][0]
