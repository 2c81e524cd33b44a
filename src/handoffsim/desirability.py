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
from collections import namedtuple
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

from .context import CriteriaVector, CriterionDef, Polarity, catalog_index
from .errors import (
    DuplicateNetworkError,
    MissingCriterionError,
    NonFiniteValueError,
    UnknownCriterionError,
    WeightProfileError,
)

SIDE_SUM_TOLERANCE = 1e-9


class WeightProfile(namedtuple("WeightProfile", ("weights", "k"), defaults=(1.0,))):
    """Per-criterion weights plus the shared additive constant K.

    The class keeps a ``__dict__``, unlike a plain named tuple, only to
    cache ``terms``; setting an attribute raises AttributeError.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: WeightProfile is immutable")

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


class DesirabilityScore(NamedTuple):
    network_id: str
    value: float


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
    values = v.values
    total = 0.0
    for cid, coefficient in profile.terms:
        if cid not in index:
            raise UnknownCriterionError(cid)
        if cid not in values:
            raise MissingCriterionError(cid)
        raw = values[cid]
        if not math.isfinite(raw):
            raise NonFiniteValueError(cid, raw)
        cdef = index[cid]
        term = coefficient * _clamped_log10(raw, cdef.floor)
        if cdef.polarity is Polarity.BENEFICIAL:
            total += term
        else:
            total -= term
    return DesirabilityScore(network_id, total)


class AvailableNetworkList(namedtuple("AvailableNetworkList", ("entries", "values"))):
    """Candidate networks ordered best first.

    ``entries`` pairs each network id with its score; order is descending
    desirability with ties broken by ascending network id, and each network
    appears once.  ``values`` maps each listed id to its score value; it is
    built with the list, because the controller looks scores up by id on
    every step.  Given only ``entries``, the list builds ``values`` from
    them, so two lists are equal exactly when their entries are, and a
    list hashes by its entries.
    """

    __slots__ = ()

    def __new__(cls, entries=(), values=None):
        if values is None:
            values = {net: s.value for net, s in entries}
        return super().__new__(cls, entries, values)

    def __hash__(self) -> int:
        return hash(self.entries)


def _rank_key(s: DesirabilityScore) -> tuple[float, str]:
    return -s.value, s.network_id


def rank(scores: Sequence[DesirabilityScore]) -> AvailableNetworkList:
    """Order scores into an available-network list, best first.

    A network listed twice raises DuplicateNetworkError naming the first
    repeat in input order.  The list's ``values`` map holds one entry per
    network, so it is shorter than the input exactly when one repeats; only
    then is the input walked again, to name it."""
    ordered = sorted(scores, key=_rank_key)
    values = {s.network_id: s.value for s in ordered}
    if len(values) != len(scores):
        seen = set()
        for s in scores:
            if s.network_id in seen:
                raise DuplicateNetworkError(s.network_id)
            seen.add(s.network_id)
    # tuple.__new__ skips __new__'s Python frame: values is already built.
    return tuple.__new__(AvailableNetworkList, (tuple([(s.network_id, s) for s in ordered]), values))


def best(anl: AvailableNetworkList) -> Optional[str]:
    """Head of the list, or None when no network is available."""
    if not anl.entries:
        return None
    return anl.entries[0][0]
