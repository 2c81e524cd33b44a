"""Multi-criteria desirability scoring and network ranking.

A network's desirability is a weighted sum of base-10 logarithms of its
criterion values: beneficial criteria add, detrimental criteria subtract.
Each weighted criterion contributes (K + W) * log10(value), where W is the
criterion's weight and K is a constant offset shared by all terms.  Values
at or below a criterion's floor are clamped up to the floor before the log
so the score stays finite.

Weights live in [0, 1], each polarity side that has any weighted
criterion sums to 1, and K is small enough that no score of finite values
overflows; the scenario parser checks all three where it reads the
weights.  Criteria without a weight contribute nothing.  A score is a
float, listed with its network as a (network id, score) pair.

A ``WeightProfile`` holds only the parsed weights and K.
``weighted_terms`` resolves them against a criterion catalog into the
terms ``desirability`` reads; a run does so once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from .context import CriterionDef, Polarity
from .errors import (
    DuplicateNetworkError,
    MissingCriterionError,
    NonFiniteValueError,
    UnknownCriterionError,
)


WeightProfile = namedtuple("WeightProfile", ("weights", "k"), defaults=(1.0,))
WeightProfile.__doc__ = "Per-criterion weights plus the shared additive constant K."


def weighted_terms(
    profile: WeightProfile, catalog: Sequence[CriterionDef]
) -> tuple[tuple[str, float, Optional[float], bool], ...]:
    """(criterion id, K + W, floor, beneficial) per weighted criterion, in
    id order, resolved against ``catalog``; the floor is None for a
    criterion the catalog lacks."""
    index = {cdef.id: cdef for cdef in catalog}
    terms = []
    for cid in sorted(profile.weights):
        cdef = index.get(cid)
        coefficient = profile.k + profile.weights[cid]
        if cdef is None:
            terms.append((cid, coefficient, None, False))
        else:
            terms.append((cid, coefficient, cdef.floor, cdef.polarity is Polarity.BENEFICIAL))
    return tuple(terms)


def _clamped_log10(value: float, floor: float) -> float:
    return math.log10(max(value, floor))


def desirability(
    values: Mapping[str, float],
    terms: Sequence[tuple[str, float, Optional[float], bool]],
) -> float:
    """Score one network's criterion values, by criterion id, over the
    ``weighted_terms`` of a profile and catalog.

    Every weighted criterion must be present and finite.  Criteria present
    but unweighted are ignored.
    """
    total = 0.0
    for cid, coefficient, floor, beneficial in terms:
        if floor is None:
            raise UnknownCriterionError(cid)
        if cid not in values:
            raise MissingCriterionError(cid)
        raw = values[cid]
        if not math.isfinite(raw):
            raise NonFiniteValueError(cid, raw)
        term = coefficient * _clamped_log10(raw, floor)
        if beneficial:
            total += term
        else:
            total -= term
    return total


class AvailableNetworkList(namedtuple("AvailableNetworkList", ("entries", "values"))):
    """Candidate networks ordered best first.

    ``entries`` is a tuple of (network id, score) pairs; order is
    descending score with ties broken by ascending network id, and each
    network appears once.  ``values`` maps each listed id to its score; it
    is built with the list, because the controller looks scores up by id
    on every step.  Given only ``entries``, the list builds ``values`` as
    ``dict(entries)``, so two lists are equal exactly when their entries
    are, and a list hashes by its entries.
    """

    __slots__ = ()

    def __new__(cls, entries=(), values=None):
        if values is None:
            values = dict(entries)
        return super().__new__(cls, entries, values)

    def __hash__(self) -> int:
        return hash(self.entries)


_score = itemgetter(1)


def rank(scores: Sequence[tuple[str, float]]) -> AvailableNetworkList:
    """Order (network id, score) tuples into an available-network list,
    best first; the tuples themselves become its entries.

    The order is that of the key ``(-score, id)``, taken by two sorts on C
    keys: by pair, so by id, then by score alone, descending.  Python's sort
    is stable with ``reverse=True`` too, so tied scores (``0.0`` and
    ``-0.0`` among them) keep ascending id order for any input order.

    A network listed twice raises DuplicateNetworkError naming the first
    repeat in input order.  The list's ``values`` map holds one entry per
    network, so it is shorter than the input exactly when one repeats; only
    then is the input walked again, to name it."""
    ordered = sorted(sorted(scores), key=_score, reverse=True)
    values = dict(ordered)
    if len(values) != len(scores):
        seen = set()
        for net, _ in scores:
            if net in seen:
                raise DuplicateNetworkError(net)
            seen.add(net)
    # tuple.__new__ skips __new__'s Python frame: values is already built.
    return tuple.__new__(AvailableNetworkList, (tuple(ordered), values))


def best(anl: AvailableNetworkList) -> Optional[str]:
    """Head of the list, or None when no network is available."""
    if not anl.entries:
        return None
    return anl.entries[0][0]
