"""Unit tests for session statistics."""

from __future__ import annotations

import pytest

from repro.evaluation.statistics import describe, render_statistics
from repro.exceptions import EvaluationError
from repro.sessions.model import Session, SessionSet


def _s(pages, user="u0", start=0.0, gap=120.0):
    return Session.from_pages(pages, user_id=user, start=start, gap=gap)


@pytest.fixture()
def profiled():
    return SessionSet([
        _s(["home", "a", "b"], user="u1"),
        _s(["home", "a"], user="u1", gap=60.0),
        _s(["home"], user="u2"),
    ])


class TestDescribe:
    def test_basic_counts(self, profiled):
        stats = describe(profiled)
        assert stats.session_count == 3
        assert stats.user_count == 2
        assert stats.total_requests == 6
        assert stats.mean_length == 2.0
        assert stats.median_length == 2.0
        assert stats.max_length == 3

    def test_length_histogram(self, profiled):
        stats = describe(profiled)
        assert stats.length_histogram == {1: 1, 2: 1, 3: 1}

    def test_durations_and_gaps(self, profiled):
        stats = describe(profiled)
        assert stats.max_duration == 240.0
        # gaps: 120, 120 (first session), 60 (second) -> mean 100.
        assert stats.mean_gap == pytest.approx(100.0)

    def test_top_pages(self, profiled):
        stats = describe(profiled, top=2)
        assert stats.top_pages[0] == ("home", 3)
        assert stats.top_entry_pages[0] == ("home", 3)

    def test_entropy_zero_for_single_page(self):
        stats = describe(SessionSet([_s(["only"])]))
        assert stats.page_entropy == 0.0

    def test_entropy_maximal_for_uniform(self):
        stats = describe(SessionSet([_s(["a"]), _s(["b"]),
                                     _s(["c"]), _s(["d"])]))
        assert stats.page_entropy == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(EvaluationError):
            describe(SessionSet([]))
        with pytest.raises(EvaluationError):
            describe(SessionSet([Session([])]))

    def test_rejects_bad_top(self, profiled):
        with pytest.raises(EvaluationError):
            describe(profiled, top=0)

    def test_render_contains_key_lines(self, profiled):
        text = render_statistics(describe(profiled))
        assert "sessions:" in text
        assert "length histogram:" in text
        assert "home" in text

    def test_ground_truth_stay_time_matches_table5(self, small_simulation):
        """The simulator's empirical page-stay time must track the
        configured Table 5 distribution (2.2 +/- 0.5 min)."""
        stats = describe(small_simulation.ground_truth)
        assert 2.0 * 60 < stats.mean_gap < 2.4 * 60
