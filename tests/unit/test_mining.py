"""Unit tests for the mining package (apriori, sequences, Markov)."""

from __future__ import annotations

import pytest

from repro.exceptions import EvaluationError
from repro.mining.apriori import apriori
from repro.mining.prediction import MarkovPredictor
from repro.mining.sequential import frequent_sequences, pattern_overlap
from repro.sessions.model import Session, SessionSet


def _s(pages, user="u0"):
    return Session.from_pages(pages, user_id=user)


@pytest.fixture()
def shop_sessions():
    """Four sessions over a toy shop: {home, list, item, cart}."""
    return SessionSet([
        _s(["home", "list", "item", "cart"]),
        _s(["home", "list", "item"]),
        _s(["home", "list"]),
        _s(["home", "about"]),
    ])


class TestApriori:
    def test_singleton_supports(self, shop_sessions):
        itemsets = apriori(shop_sessions, min_support=0.5)
        by_pages = {item.pages: item.support for item in itemsets}
        assert by_pages[("home",)] == 1.0
        assert by_pages[("list",)] == 0.75
        assert by_pages[("item",)] == 0.5

    def test_pair_supports(self, shop_sessions):
        itemsets = apriori(shop_sessions, min_support=0.5)
        by_pages = {item.pages for item in itemsets}
        assert ("home", "list") in by_pages
        assert ("home", "item") in by_pages
        assert ("cart",) not in by_pages  # support 0.25 < 0.5

    def test_downward_closure(self, shop_sessions):
        itemsets = apriori(shop_sessions, min_support=0.25, max_size=4)
        mined = {frozenset(item.pages) for item in itemsets}
        for itemset in mined:
            if len(itemset) > 1:
                for page in itemset:
                    assert itemset - {page} in mined

    def test_max_size_bounds_lattice(self, shop_sessions):
        itemsets = apriori(shop_sessions, min_support=0.25, max_size=2)
        assert max(len(item.pages) for item in itemsets) == 2

    def test_distinct_pages_per_transaction(self):
        # repeats within one session must not inflate support.
        repeated = SessionSet([_s(["A", "B", "A"])])
        itemsets = apriori(repeated, min_support=1.0)
        by_pages = {item.pages: item.count for item in itemsets}
        assert by_pages[("A",)] == 1

    @pytest.mark.parametrize("kwargs", [
        {"min_support": 0.0}, {"min_support": 1.1}, {"max_size": 0}])
    def test_rejects_invalid(self, shop_sessions, kwargs):
        with pytest.raises(EvaluationError):
            apriori(shop_sessions, **kwargs)

    def test_rejects_empty(self):
        with pytest.raises(EvaluationError):
            apriori(SessionSet([]))


class TestFrequentSequences:
    def test_contiguous_paths(self, shop_sessions):
        patterns = frequent_sequences(shop_sessions, min_support=0.5)
        mined = {pattern.pages for pattern in patterns}
        assert ("home", "list") in mined
        assert ("home", "list", "item") in mined
        assert ("home", "item") not in mined  # never contiguous

    def test_session_counted_once_per_pattern(self):
        looping = SessionSet([_s(["A", "B", "A", "B"])])
        patterns = frequent_sequences(looping, min_support=1.0)
        by_pages = {pattern.pages: pattern.count for pattern in patterns}
        assert by_pages[("A", "B")] == 1

    def test_max_length_bound(self, shop_sessions):
        patterns = frequent_sequences(shop_sessions, min_support=0.25,
                                      max_length=2)
        assert max(len(p.pages) for p in patterns) == 2

    def test_rejects_invalid(self, shop_sessions):
        with pytest.raises(EvaluationError):
            frequent_sequences(shop_sessions, min_support=2.0)
        with pytest.raises(EvaluationError):
            frequent_sequences(shop_sessions, max_length=0)
        with pytest.raises(EvaluationError):
            frequent_sequences(SessionSet([]))


class TestPatternOverlap:
    def test_identical_sets(self, shop_sessions):
        mined = frequent_sequences(shop_sessions, min_support=0.5)
        assert pattern_overlap(mined, mined) == 1.0

    def test_disjoint_sets(self, shop_sessions):
        mined = frequent_sequences(shop_sessions, min_support=0.5)
        other = frequent_sequences(
            SessionSet([_s(["X", "Y"]), _s(["X", "Y"])]), min_support=1.0)
        assert pattern_overlap(mined, other) == 0.0

    def test_both_empty(self):
        assert pattern_overlap([], []) == 1.0


class TestMarkovPredictor:
    def test_predicts_most_frequent_transition(self, shop_sessions):
        model = MarkovPredictor().fit(shop_sessions)
        assert model.predict("home", top=1) == ["list"]

    def test_transition_probability(self, shop_sessions):
        model = MarkovPredictor().fit(shop_sessions)
        assert model.transition_probability("home", "list") == 0.75
        assert model.transition_probability("home", "about") == 0.25
        assert model.transition_probability("home", "cart") == 0.0
        assert model.transition_probability("nowhere", "list") == 0.0

    def test_unknown_page_predicts_nothing(self, shop_sessions):
        model = MarkovPredictor().fit(shop_sessions)
        assert model.predict("cart") == []

    def test_hit_rate_perfect_on_training_chain(self):
        sessions = SessionSet([_s(["A", "B", "C"])] * 3)
        model = MarkovPredictor().fit(sessions)
        assert model.hit_rate(sessions, top=1) == 1.0

    def test_hit_rate_requires_transitions(self, shop_sessions):
        model = MarkovPredictor().fit(shop_sessions)
        with pytest.raises(EvaluationError, match="no transitions"):
            model.hit_rate(SessionSet([_s(["A"])]))

    def test_untrained_raises(self):
        with pytest.raises(EvaluationError, match="not trained"):
            MarkovPredictor().predict("home")

    def test_rejects_empty_training(self):
        with pytest.raises(EvaluationError):
            MarkovPredictor().fit(SessionSet([]))

    def test_rejects_bad_top(self, shop_sessions):
        model = MarkovPredictor().fit(shop_sessions)
        with pytest.raises(EvaluationError):
            model.predict("home", top=0)

    def test_vocabulary(self, shop_sessions):
        model = MarkovPredictor().fit(shop_sessions)
        assert "home" in model.vocabulary()
        assert "cart" not in model.vocabulary()  # never a source
