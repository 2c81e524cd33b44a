"""Criterion catalog and goals."""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from handoffsim.context import (
    ContextSource,
    CriterionDef,
    GoalDirection,
    GoalSpec,
    Polarity,
    default_catalog,
    goal_holds,
)
from test_scenario import _doc, _problems


class TestCatalog:
    def test_six_sources(self):
        assert len(ContextSource) == 6

    def test_exactly_one_internal_source(self):
        # The decision process's own performance history is the internal
        # source, and only the history criteria come from it.
        internal = {c.id for c in default_catalog()
                    if c.source is ContextSource.HANDOFF_PERFORMANCE}
        assert internal == {"ETSLH", "HOLH"}

    def test_external_sources_are_the_surroundings(self):
        external = {c.source for c in default_catalog() if c.id not in ("ETSLH", "HOLH")}
        assert external == {
            ContextSource.USER,
            ContextSource.TERMINAL,
            ContextSource.APPLICATION,
            ContextSource.NETWORK,
            ContextSource.PROVIDER,
        }

    def test_catalog_ids_unique(self):
        catalog = default_catalog()
        assert len({c.id for c in catalog}) == len(catalog)

    def test_catalog_covers_every_source(self):
        sources = {c.source for c in default_catalog()}
        assert sources == set(ContextSource)

    def test_catalog_has_both_polarities(self):
        catalog = default_catalog()
        assert any(c.polarity is Polarity.BENEFICIAL for c in catalog)
        assert any(c.polarity is Polarity.DETRIMENTAL for c in catalog)

    def test_known_entries(self):
        index = {c.id: c for c in default_catalog()}
        assert index["RSS"].polarity is Polarity.BENEFICIAL
        assert index["RSS"].source is ContextSource.TERMINAL
        assert index["BER"].polarity is Polarity.DETRIMENTAL
        assert index["NL"].source is ContextSource.NETWORK
        assert index["UPREF"].source is ContextSource.USER
        assert index["FEE"].source is ContextSource.PROVIDER
        assert index["LP"].source is ContextSource.APPLICATION
        assert index["ETSLH"].source is ContextSource.HANDOFF_PERFORMANCE

    def test_duplicate_id_rejected(self):
        # A scenario's catalog is checked where its criteria are read.
        doc = _doc()
        doc["criteria"].append(doc["criteria"][0])
        assert _problems(doc) == ["criteria[1].id: 'Q' already defined"]

    def test_floor_default_positive(self):
        assert all(c.floor > 0 for c in default_catalog())


class TestGoals:
    def test_minimize_is_strict_below(self):
        goal = GoalSpec(GoalDirection.MINIMIZE, bound=500.0)
        assert goal_holds(499.9, goal)
        assert not goal_holds(500.0, goal)

    def test_maximize_is_strict_above(self):
        goal = GoalSpec(GoalDirection.MAXIMIZE, bound=0.5)
        assert goal_holds(0.6, goal)
        assert not goal_holds(0.5, goal)

    def test_maintain_below_behaves_like_minimize(self):
        g1 = GoalSpec(GoalDirection.MINIMIZE, bound=10.0)
        g2 = GoalSpec(GoalDirection.MAINTAIN_BELOW, bound=10.0)
        for value in (-1.0, 9.999, 10.0, 11.0):
            assert goal_holds(value, g1) == goal_holds(value, g2)

    def test_keep_within_inclusive(self):
        goal = GoalSpec(GoalDirection.KEEP_WITHIN, lower=1.0, upper=2.0)
        assert goal_holds(1.0, goal)
        assert goal_holds(2.0, goal)
        assert not goal_holds(0.999, goal)
        assert not goal_holds(2.001, goal)

    # A scenario's goals are checked where its success regions are read.
    def test_keep_within_requires_both_bounds(self):
        region = {"direction": "keep_within"}
        assert _problems(_doc(success_regions={"ImpR": region})) == [
            "success_regions.ImpR.lower: keep_within needs lower and upper",
            "success_regions.ImpR.upper: keep_within needs lower and upper",
        ]

    def test_open_directions_require_bound(self):
        for direction in ("minimize", "maximize", "maintain_above"):
            assert _problems(_doc(success_regions={"IL": {"direction": direction}})) == [
                f"success_regions.IL.bound: direction {direction} needs a bound"
            ]


@given(
    value=st.floats(allow_nan=False, allow_infinity=False, width=32),
    bound=st.floats(allow_nan=False, allow_infinity=False, width=32),
)
def test_below_and_above_partition_excludes_boundary(value, bound):
    # For any bound, a value satisfies at most one of the two open regions,
    # and the boundary itself satisfies neither.
    below = goal_holds(value, GoalSpec(GoalDirection.MAINTAIN_BELOW, bound=bound))
    above = goal_holds(value, GoalSpec(GoalDirection.MAINTAIN_ABOVE, bound=bound))
    assert not (below and above)
    if math.isclose(value, bound, rel_tol=0.0, abs_tol=0.0):
        assert not below and not above
