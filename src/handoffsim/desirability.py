"""Multi-criteria desirability scoring and network ranking.

A network's desirability is a weighted sum of base-10 logarithms of its
criterion values: beneficial criteria add, detrimental criteria subtract.
Each weighted criterion contributes (K + W) * log10(value), where W is the
criterion's weight and K is a constant offset shared by all terms.  Values
at or below a criterion's floor are clamped up to the floor before the log
so the score stays finite.

Weights live in [0, 1] and each polarity side that has any weighted
criterion sums to 1; the scenario parser checks both where it reads the
weights.  Criteria without a weight contribute nothing.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Optional, Sequence

from .context import CriteriaVector, CriterionDef, Polarity
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


class DesirabilityScore(NamedTuple):
    network_id: str
    value: float


def _clamped_log10(value: float, floor: float) -> float:
    return math.log10(max(value, floor))


def desirability(
    v: CriteriaVector,
    profile: WeightProfile,
    catalog: Sequence[CriterionDef],
    network_id: str = "",
) -> DesirabilityScore:
    """Score one network's criteria vector.

    Every weighted criterion must be present in the vector and finite.
    Criteria present in the vector but unweighted are ignored.  The
    profile's ``terms`` are resolved against ``catalog``.
    """
    values = v.values
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
