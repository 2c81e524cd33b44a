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


class WeightProfile(namedtuple("WeightProfile", ("weights", "k"), defaults=(1.0,))):
    """Per-criterion weights plus the shared additive constant K.

    The class keeps a ``__dict__``, unlike a plain named tuple, only to
    keep the ``terms`` of the last tuple catalog it was asked for; setting
    an attribute raises AttributeError.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: WeightProfile is immutable")

    def terms(
        self, catalog: Sequence[CriterionDef]
    ) -> tuple[tuple[str, float, Optional[float], bool], ...]:
        """(criterion id, K + W, floor, beneficial) per weighted criterion,
        in id order, resolved against ``catalog``; the floor is None for a
        criterion the catalog lacks.

        The terms of a tuple catalog, which cannot change, are kept and
        returned again while the same tuple is asked for, so a run that
        scores against its scenario's catalog resolves them once."""
        kept = self.__dict__.get("_terms")
        if kept is not None and kept[0] is catalog:
            return kept[1]
        index = {cdef.id: cdef for cdef in catalog}
        terms = []
        for cid in sorted(self.weights):
            cdef = index.get(cid)
            coefficient = self.k + self.weights[cid]
            if cdef is None:
                terms.append((cid, coefficient, None, False))
            else:
                terms.append((cid, coefficient, cdef.floor, cdef.polarity is Polarity.BENEFICIAL))
        terms = tuple(terms)
        if type(catalog) is tuple:
            self.__dict__["_terms"] = (catalog, terms)
        return terms


def _clamped_log10(value: float, floor: float) -> float:
    return math.log10(max(value, floor))


def desirability(
    values: Mapping[str, float],
    profile: WeightProfile,
    catalog: Sequence[CriterionDef],
) -> float:
    """Score one network's criterion values, by criterion id.

    Every weighted criterion must be present and finite.  Criteria present
    but unweighted are ignored.  The profile's ``terms`` are resolved
    against ``catalog``.
    """
    total = 0.0
    for cid, coefficient, floor, beneficial in profile.terms(catalog):
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
