"""Unit tests for session-set operations."""

from __future__ import annotations

import pytest

from repro.exceptions import EvaluationError
from repro.sessions.model import Session, SessionSet
from repro.sessions.ops import (
    concatenate,
    rename_pages,
    sample_users,
    split_by_user,
    within_window,
)


def _s(pages, user="u0", start=0.0, gap=60.0):
    return Session.from_pages(pages, user_id=user, start=start, gap=gap)


class TestOps:
    def test_concatenate(self):
        merged = concatenate([SessionSet([_s(["a"])]),
                              SessionSet([_s(["b"])])])
        assert [s.pages for s in merged] == [("a",), ("b",)]

    def test_within_window_keeps_fully_contained(self):
        sessions = SessionSet([
            _s(["a", "b"], start=0.0),      # ends 60
            _s(["c", "d"], start=100.0),    # ends 160
            _s(["e", "f"], start=140.0),    # straddles 150
        ])
        kept = within_window(sessions, 0.0, 160.0)
        assert [s.pages for s in kept] == [("a", "b"), ("c", "d")]

    def test_within_window_rejects_inverted(self):
        with pytest.raises(EvaluationError):
            within_window(SessionSet([]), 10.0, 0.0)

    def test_sample_users_keeps_whole_users(self):
        sessions = SessionSet(
            [_s(["a"], user=f"u{i}") for i in range(10)]
            + [_s(["b"], user=f"u{i}") for i in range(10)])
        sampled = sample_users(sessions, fraction=0.5, seed=1)
        assert len(sampled.users()) == 5
        for user in sampled.users():
            assert len(sampled.for_user(user)) == 2

    def test_sample_users_deterministic(self):
        sessions = SessionSet([_s(["a"], user=f"u{i}") for i in range(10)])
        assert sample_users(sessions, 0.3, seed=4) == sample_users(
            sessions, 0.3, seed=4)

    def test_sample_users_rejects_bad_fraction(self):
        with pytest.raises(EvaluationError):
            sample_users(SessionSet([]), 0.0)

    def test_rename_pages(self):
        from repro.sessions.model import Request
        sessions = SessionSet([Session([
            Request(0.0, "u", "a"),
            Request(60.0, "u", "b", referrer="a"),
        ])])
        renamed = rename_pages(sessions, lambda page: page.upper())
        assert renamed[0].pages == ("A", "B")
        assert renamed[0][1].referrer == "A"

    def test_split_by_user(self):
        sessions = SessionSet([_s(["a"], user="u1"), _s(["b"], user="u2"),
                               _s(["c"], user="u1")])
        split = split_by_user(sessions)
        assert set(split) == {"u1", "u2"}
        assert len(split["u1"]) == 2
