"""Scoring function and network ranking.

The worked example is checked against a 50-digit mpmath recomputation, so
the float implementation is compared to an independent high-precision
oracle rather than to itself.
"""

from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from handoffsim.context import CriteriaVector, Polarity, default_catalog
from handoffsim.desirability import (
    AvailableNetworkList,
    DesirabilityScore,
    WeightProfile,
    best,
    desirability,
    rank,
)
from handoffsim.errors import (
    DuplicateNetworkError,
    MissingCriterionError,
    NonFiniteValueError,
    UnknownCriterionError,
    WeightProfileError,
)

CATALOG = default_catalog()

# Two beneficial and two detrimental criteria, equal weights, K = 1.
PROFILE = WeightProfile(
    weights={"SNR": 0.5, "DTR": 0.5, "BER": 0.5, "NL": 0.5}, k=1.0
)
VALUES = {"SNR": 100.0, "DTR": 50.0, "BER": 10.0, "NL": 5.0}


def _oracle(values, profile, catalog):
    """Recompute the score with 50-digit arithmetic."""
    index = {c.id: c for c in catalog}
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for cid, w in profile.weights.items():
            term = (mpmath.mpf(profile.k) + mpmath.mpf(w)) * mpmath.log(
                max(mpmath.mpf(values[cid]), mpmath.mpf(index[cid].floor)), 10
            )
            if index[cid].polarity.value == "beneficial":
                total += term
            else:
                total -= term
        return float(total)


class TestScore:
    def test_worked_example_is_three(self):
        # 1.5*(2 + log10 50) - 1.5*(1 + log10 5) = 1.5*(1 + log10 10) = 3.
        score = desirability(CriteriaVector(values=VALUES), PROFILE, CATALOG, "n1")
        assert score.value == pytest.approx(3.0, abs=1e-12)
        assert score.network_id == "n1"

    def test_worked_example_matches_high_precision_oracle(self):
        score = desirability(CriteriaVector(values=VALUES), PROFILE, CATALOG)
        assert score.value == pytest.approx(_oracle(VALUES, PROFILE, CATALOG), abs=1e-12)

    def test_beneficial_adds_detrimental_subtracts(self):
        up = dict(VALUES, SNR=1000.0)
        down = dict(VALUES, BER=100.0)
        base = desirability(CriteriaVector(values=VALUES), PROFILE, CATALOG).value
        assert desirability(CriteriaVector(values=up), PROFILE, CATALOG).value > base
        assert desirability(CriteriaVector(values=down), PROFILE, CATALOG).value < base

    def test_floor_clamps_small_values(self):
        # Zero would blow up log10; the floor (1e-6) caps the penalty at -6
        # per unit coefficient.
        profile = WeightProfile(weights={"SNR": 1.0}, k=0.0)
        v0 = desirability(CriteriaVector(values={"SNR": 0.0}), profile, CATALOG).value
        v_tiny = desirability(CriteriaVector(values={"SNR": 1e-12}), profile, CATALOG).value
        assert v0 == v_tiny == pytest.approx(-6.0)

    def test_unweighted_criteria_contribute_nothing(self):
        with_extra = dict(VALUES, RSS=-55.0, NBW=300.0)
        a = desirability(CriteriaVector(values=VALUES), PROFILE, CATALOG).value
        b = desirability(CriteriaVector(values=with_extra), PROFILE, CATALOG).value
        assert a == b

    def test_unknown_weighted_criterion_raises(self):
        profile = WeightProfile(weights={"NOPE": 1.0})
        with pytest.raises(UnknownCriterionError):
            desirability(CriteriaVector(values={"NOPE": 1.0}), profile, CATALOG)

    def test_missing_weighted_criterion_raises(self):
        with pytest.raises(MissingCriterionError):
            desirability(CriteriaVector(values={"SNR": 10.0}), PROFILE, CATALOG)

    def test_each_catalog_scores_with_its_own_floors_and_polarities(self):
        """A profile keeps the plan of the tuple catalog it last scored
        against; another catalog, even of the same ids, gets its own."""
        profile = WeightProfile(weights={"SNR": 1.0, "BER": 1.0}, k=0.0)
        vector = CriteriaVector(values={"SNR": 10.0, "BER": 100.0})
        plain = tuple(CATALOG)
        floored = tuple(c._replace(floor=1e3) if c.id == "SNR" else c for c in CATALOG)
        flipped = tuple(c._replace(polarity=Polarity.BENEFICIAL) if c.id == "BER" else c
                        for c in CATALOG)
        for catalog, want in [(plain, -1.0), (floored, 1.0), (plain, -1.0), (flipped, 3.0),
                              (CATALOG, -1.0), (flipped, 3.0)]:
            assert desirability(vector, profile, catalog).value == want
            assert desirability(vector, profile, catalog).value == want

    def test_non_finite_raises(self):
        bad = dict(VALUES, SNR=float("nan"))
        with pytest.raises(NonFiniteValueError):
            desirability(CriteriaVector(values=bad), PROFILE, CATALOG)

    @given(
        snr=st.floats(min_value=1e-3, max_value=1e9),
        snr_boost=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_beneficial_monotone(self, snr, snr_boost):
        lo = desirability(
            CriteriaVector(values=dict(VALUES, SNR=snr)), PROFILE, CATALOG
        ).value
        hi = desirability(
            CriteriaVector(values=dict(VALUES, SNR=snr + snr_boost)), PROFILE, CATALOG
        ).value
        assert hi >= lo

    @given(
        ber=st.floats(min_value=1e-3, max_value=1e9),
        bump=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_detrimental_antitone(self, ber, bump):
        lo = desirability(
            CriteriaVector(values=dict(VALUES, BER=ber + bump)), PROFILE, CATALOG
        ).value
        hi = desirability(
            CriteriaVector(values=dict(VALUES, BER=ber)), PROFILE, CATALOG
        ).value
        assert hi >= lo


class TestWeightProfile:
    def test_valid_profile_passes(self):
        PROFILE.validate(CATALOG)

    def test_single_sided_profile_allowed(self):
        WeightProfile(weights={"SNR": 1.0}).validate(CATALOG)

    def test_negative_k_rejected(self):
        with pytest.raises(WeightProfileError, match="K"):
            WeightProfile(weights={"SNR": 1.0}, k=-0.1).validate(CATALOG)

    def test_unknown_id_rejected(self):
        with pytest.raises(WeightProfileError, match="unknown"):
            WeightProfile(weights={"NOPE": 1.0}).validate(CATALOG)

    def test_weight_above_one_rejected(self):
        with pytest.raises(WeightProfileError, match="outside"):
            WeightProfile(weights={"SNR": 1.2}).validate(CATALOG)

    def test_negative_weight_rejected(self):
        with pytest.raises(WeightProfileError, match="outside"):
            WeightProfile(weights={"SNR": -0.2}).validate(CATALOG)

    def test_side_sum_must_be_one(self):
        with pytest.raises(WeightProfileError, match="sum"):
            WeightProfile(weights={"SNR": 0.5, "DTR": 0.4}).validate(CATALOG)

    def test_side_sum_tolerates_float_dust(self):
        WeightProfile(weights={"SNR": 0.1, "DTR": 0.2, "NBW": 0.7}).validate(CATALOG)

    def test_zero_weights_count_toward_side_sum(self):
        # A weighted-but-zero criterion makes the side sum 1.0 only if the
        # rest carries the full mass.
        WeightProfile(weights={"SNR": 0.0, "DTR": 1.0}).validate(CATALOG)


def _scores(*pairs):
    return [DesirabilityScore(network_id=n, value=v) for n, v in pairs]


class TestRanking:
    def test_descending_order(self):
        anl = rank(_scores(("a", 1.0), ("b", 3.0), ("c", 2.0)))
        assert [net for net, _ in anl.entries] == ["b", "c", "a"]

    def test_ties_break_by_id(self):
        anl = rank(_scores(("zeta", 2.0), ("alpha", 2.0), ("mid", 2.0)))
        assert [net for net, _ in anl.entries] == ["alpha", "mid", "zeta"]

    def test_duplicate_network_rejected(self):
        with pytest.raises(DuplicateNetworkError):
            rank(_scores(("a", 1.0), ("a", 2.0)))

    def test_best_is_head(self):
        anl = rank(_scores(("a", 1.0), ("b", 3.0)))
        assert best(anl) == "b"

    def test_best_of_empty_is_none(self):
        assert best(AvailableNetworkList()) is None
        assert best(rank([])) is None

    def test_score_lookup(self):
        anl = rank(_scores(("a", 1.5), ("b", 3.0)))
        assert anl.values["a"] == 1.5
        assert "missing" not in anl.values

    def test_lists_compare_and_hash_by_entries(self):
        anl = rank(_scores(("a", 1.5), ("b", 3.0)))
        again = rank(_scores(("b", 3.0), ("a", 1.5)))
        built = AvailableNetworkList(anl.entries)
        assert anl == again == built and hash(anl) == hash(again) == hash(built)
        assert built.values == anl.values
        assert anl != rank(_scores(("a", 1.5), ("b", 2.0)))
        assert AvailableNetworkList() == rank([]) and AvailableNetworkList().values == {}

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcdefgh", min_size=1, max_size=3),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            unique_by=lambda p: p[0],
            max_size=8,
        )
    )
    def test_rank_is_sorted_and_complete(self, pairs):
        anl = rank(_scores(*pairs))
        values = [s.value for _, s in anl.entries]
        assert values == sorted(values, reverse=True)
        assert sorted(anl.values) == sorted(n for n, _ in pairs)
        # Ties must be ordered by id.
        for (n1, s1), (n2, s2) in zip(anl.entries, anl.entries[1:]):
            if s1.value == s2.value:
                assert n1 < n2

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcd", min_size=1, max_size=2),
                st.floats(allow_nan=False, width=32),
            ),
            max_size=8,
        )
    )
    def test_rank_names_the_first_repeat_or_sorts(self, pairs):
        scores = _scores(*pairs)
        ids = [n for n, _ in pairs]
        repeats = [n for i, n in enumerate(ids) if n in ids[:i]]
        if repeats:
            with pytest.raises(DuplicateNetworkError) as raised:
                rank(scores)
            assert raised.value.network_id == repeats[0]
        else:
            ranked = [s for _, s in rank(scores).entries]
            assert ranked == sorted(scores, key=lambda s: (-s.value, s.network_id))
