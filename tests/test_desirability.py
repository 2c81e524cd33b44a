"""Scoring function and network ranking.

The worked example is checked against a 50-digit mpmath recomputation, so
the float implementation is compared to an independent high-precision
oracle rather than to itself.
"""

from __future__ import annotations

import functools
import math
import operator

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from handoffsim.context import Polarity, default_catalog
from handoffsim.desirability import (
    AvailableNetworkList,
    WeightProfile,
    best,
    desirability,
    rank,
    weighted_terms,
)
from handoffsim.errors import (
    DuplicateNetworkError,
    MissingCriterionError,
    NonFiniteValueError,
    ScenarioError,
    UnknownCriterionError,
)
from handoffsim.scenario import from_dict
from test_scenario import _doc

CATALOG = default_catalog()

# Two beneficial and two detrimental criteria, equal weights, K = 1.
PROFILE = WeightProfile(
    weights={"SNR": 0.5, "DTR": 0.5, "BER": 0.5, "NL": 0.5}, k=1.0
)
VALUES = {"SNR": 100.0, "DTR": 50.0, "BER": 10.0, "NL": 5.0}
TERMS = weighted_terms(PROFILE, CATALOG)


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
        score = desirability(VALUES, TERMS)
        assert score == pytest.approx(3.0, abs=1e-12)

    def test_worked_example_matches_high_precision_oracle(self):
        score = desirability(VALUES, TERMS)
        assert score == pytest.approx(_oracle(VALUES, PROFILE, CATALOG), abs=1e-12)

    def test_beneficial_adds_detrimental_subtracts(self):
        up = dict(VALUES, SNR=1000.0)
        down = dict(VALUES, BER=100.0)
        base = desirability(VALUES, TERMS)
        assert desirability(up, TERMS) > base
        assert desirability(down, TERMS) < base

    def test_floor_clamps_small_values(self):
        # Zero would blow up log10; the floor (1e-6) caps the penalty at -6
        # per unit coefficient.
        terms = weighted_terms(WeightProfile(weights={"SNR": 1.0}, k=0.0), CATALOG)
        v0 = desirability({"SNR": 0.0}, terms)
        v_tiny = desirability({"SNR": 1e-12}, terms)
        assert v0 == v_tiny == pytest.approx(-6.0)

    def test_unweighted_criteria_contribute_nothing(self):
        with_extra = dict(VALUES, RSS=-55.0, NBW=300.0)
        a = desirability(VALUES, TERMS)
        b = desirability(with_extra, TERMS)
        assert a == b

    def test_unknown_weighted_criterion_raises(self):
        terms = weighted_terms(WeightProfile(weights={"NOPE": 1.0}), CATALOG)
        assert terms == (("NOPE", 2.0, None, False),)
        with pytest.raises(UnknownCriterionError):
            desirability({"NOPE": 1.0}, terms)

    def test_missing_weighted_criterion_raises(self):
        with pytest.raises(MissingCriterionError):
            desirability({"SNR": 10.0}, TERMS)

    def test_each_catalog_scores_with_its_own_floors_and_polarities(self):
        """A profile resolved against a catalog scores with that catalog's
        floors and polarities; another catalog, even of the same ids, gives
        other terms.  Each catalog is resolved twice, to the same score."""
        profile = WeightProfile(weights={"SNR": 1.0, "BER": 1.0}, k=0.0)
        values = {"SNR": 10.0, "BER": 100.0}
        plain = tuple(CATALOG)
        floored = tuple(c._replace(floor=1e3) if c.id == "SNR" else c for c in CATALOG)
        flipped = tuple(c._replace(polarity=Polarity.BENEFICIAL) if c.id == "BER" else c
                        for c in CATALOG)
        for catalog, want in [(plain, -1.0), (floored, 1.0), (plain, -1.0), (flipped, 3.0),
                              (CATALOG, -1.0), (flipped, 3.0)]:
            assert desirability(values, weighted_terms(profile, catalog)) == want
            assert desirability(values, weighted_terms(profile, catalog)) == want

    def test_non_finite_raises(self):
        bad = dict(VALUES, SNR=float("nan"))
        with pytest.raises(NonFiniteValueError):
            desirability(bad, TERMS)

    @given(
        snr=st.floats(min_value=1e-3, max_value=1e9),
        snr_boost=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_beneficial_monotone(self, snr, snr_boost):
        lo = desirability(dict(VALUES, SNR=snr), TERMS)
        hi = desirability(dict(VALUES, SNR=snr + snr_boost), TERMS)
        assert hi >= lo

    @given(
        ber=st.floats(min_value=1e-3, max_value=1e9),
        bump=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_detrimental_antitone(self, ber, bump):
        lo = desirability(dict(VALUES, BER=ber + bump), TERMS)
        hi = desirability(dict(VALUES, BER=ber), TERMS)
        assert hi >= lo


def _weight_problems(profile):
    """The problems the scenario parser reports for ``profile``'s weights,
    which the scoring itself takes as given."""
    try:
        from_dict(_doc(weights={"k": profile.k, "weights": profile.weights}))
    except ScenarioError as exc:
        return [p for p in exc.problems if p.startswith("weights")]
    return []


class TestWeightProfile:
    def test_valid_profile_passes(self):
        assert _weight_problems(PROFILE) == []

    def test_single_sided_profile_allowed(self):
        assert _weight_problems(WeightProfile(weights={"SNR": 1.0})) == []

    def test_negative_k_rejected(self):
        assert _weight_problems(WeightProfile(weights={"SNR": 1.0}, k=-0.1)) == [
            "weights.k: constant K must be >= 0, got -0.1"
        ]

    def test_unknown_id_rejected(self):
        assert _weight_problems(WeightProfile(weights={"NOPE": 1.0})) == [
            "weights.weights.NOPE: unknown criterion 'NOPE'"
        ]

    def test_weight_above_one_rejected(self):
        assert _weight_problems(WeightProfile(weights={"SNR": 1.2})) == [
            "weights.weights.SNR: outside [0, 1]: 1.2"
        ]

    def test_negative_weight_rejected(self):
        assert _weight_problems(WeightProfile(weights={"SNR": -0.2, "DTR": 1.2})) == [
            "weights.weights.SNR: outside [0, 1]: -0.2",
            "weights.weights.DTR: outside [0, 1]: 1.2",
        ]

    def test_side_sum_must_be_one(self):
        profile = WeightProfile(weights={"SNR": 0.5, "DTR": 0.4, "BER": 0.5, "NL": 0.6})
        assert _weight_problems(profile) == [
            "weights.weights: beneficial weights sum to 0.9, expected 1.0",
            "weights.weights: detrimental weights sum to 1.1, expected 1.0",
        ]

    def test_side_sum_tolerates_float_dust(self):
        weights = {"NBW": 0.7, "DTR": 0.2, "SNR": 0.1}
        # ``_parse_weights`` adds a side's weights with ``+``, in this order;
        # ``sum()`` compensates its rounding from Python 3.12, and gives 1.0.
        assert functools.reduce(operator.add, weights.values(), 0.0) != 1.0
        assert _weight_problems(WeightProfile(weights=weights)) == []

    def test_zero_weights_count_toward_side_sum(self):
        # A weighted-but-zero criterion makes the side sum 1.0 only if the
        # rest carries the full mass.
        assert _weight_problems(WeightProfile(weights={"SNR": 0.0, "DTR": 1.0})) == []


class TestRanking:
    def test_descending_order(self):
        anl = rank([("a", 1.0), ("b", 3.0), ("c", 2.0)])
        assert [net for net, _ in anl.entries] == ["b", "c", "a"]

    def test_ties_break_by_id(self):
        anl = rank([("zeta", 2.0), ("alpha", 2.0), ("mid", 2.0)])
        assert [net for net, _ in anl.entries] == ["alpha", "mid", "zeta"]

    def test_duplicate_network_rejected(self):
        with pytest.raises(DuplicateNetworkError):
            rank([("a", 1.0), ("a", 2.0)])

    def test_best_is_head(self):
        anl = rank([("a", 1.0), ("b", 3.0)])
        assert best(anl) == "b"

    def test_best_of_empty_is_none(self):
        assert best(AvailableNetworkList()) is None
        assert best(rank([])) is None

    def test_score_lookup(self):
        anl = rank([("a", 1.5), ("b", 3.0)])
        assert anl.values["a"] == 1.5
        assert "missing" not in anl.values

    def test_lists_compare_and_hash_by_entries(self):
        anl = rank([("a", 1.5), ("b", 3.0)])
        again = rank([("b", 3.0), ("a", 1.5)])
        built = AvailableNetworkList(anl.entries)
        assert anl == again == built and hash(anl) == hash(again) == hash(built)
        assert built.values == anl.values
        assert anl != rank([("a", 1.5), ("b", 2.0)])
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
        anl = rank(pairs)
        values = [value for _, value in anl.entries]
        assert values == sorted(values, reverse=True)
        assert sorted(anl.values) == sorted(n for n, _ in pairs)
        # Ties must be ordered by id.
        for (n1, s1), (n2, s2) in zip(anl.entries, anl.entries[1:]):
            if s1 == s2:
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
        ids = [n for n, _ in pairs]
        repeats = [n for i, n in enumerate(ids) if n in ids[:i]]
        if repeats:
            with pytest.raises(DuplicateNetworkError) as raised:
                rank(pairs)
            assert raised.value.network_id == repeats[0]
        else:
            assert list(rank(pairs).entries) == sorted(pairs, key=lambda p: (-p[1], p[0]))

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcdef", min_size=1, max_size=2),
                st.one_of(
                    st.sampled_from((0.0, -0.0, 1.5, -1.5)),
                    st.floats(allow_nan=False, width=16),
                ),
            ),
            unique_by=lambda p: p[0],
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_rank_orders_any_input_order_by_minus_score_then_id(self, pairs, rnd):
        """Whatever order the pairs come in, with tied scores (``0.0`` and
        ``-0.0`` among them), the entries are the input tuples themselves in
        ``(-score, id)`` order; and a repeated id still raises, naming the
        first repeat in input order."""
        rnd.shuffle(pairs)
        anl = rank(pairs)
        expected = sorted(pairs, key=lambda p: (-p[1], p[0]))
        assert anl.entries == tuple(expected)
        assert all(entry is pair for entry, pair in zip(anl.entries, expected))
        if pairs:
            net, score = rnd.choice(pairs)
            repeated = [*pairs, (net, rnd.choice((0.0, -0.0, score)))]
            rnd.shuffle(repeated)
            ids = [n for n, _ in repeated]
            first = next(n for i, n in enumerate(ids) if n in ids[:i])
            with pytest.raises(DuplicateNetworkError) as raised:
                rank(repeated)
            assert raised.value.network_id == first
