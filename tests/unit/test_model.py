"""Unit tests for the session data model (Request/Session/SessionSet)."""

from __future__ import annotations

import json
import math

import pytest

from repro.exceptions import ReconstructionError
from repro.sessions.model import Request, Session, SessionSet


def _session(pages, user="u0", start=0.0, gap=60.0):
    return Session.from_pages(pages, user_id=user, start=start, gap=gap)


class TestRequest:
    def test_orders_chronologically(self):
        early = Request(1.0, "u", "A")
        late = Request(2.0, "u", "A")
        assert sorted([late, early]) == [early, late]

    def test_synthetic_flag_excluded_from_equality(self):
        assert Request(1.0, "u", "A", synthetic=True) == Request(1.0, "u", "A")

    def test_shifted_moves_timestamp_only(self):
        request = Request(10.0, "u", "A", synthetic=True)
        moved = request.shifted(5.0)
        assert moved.timestamp == 15.0
        assert moved.page == "A"
        assert moved.user_id == "u"
        assert moved.synthetic is True

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Request(1.0, "u", "A").page = "B"  # type: ignore[misc]


class TestSession:
    def test_rejects_descending_timestamps(self):
        with pytest.raises(ReconstructionError, match="timestamp order"):
            Session([Request(5.0, "u", "A"), Request(1.0, "u", "B")])

    def test_allows_equal_timestamps(self):
        session = Session([Request(5.0, "u", "A"), Request(5.0, "u", "B")])
        assert session.pages == ("A", "B")

    def test_rejects_mixed_users(self):
        with pytest.raises(ReconstructionError, match="mix users"):
            Session([Request(1.0, "u1", "A"), Request(2.0, "u2", "B")])

    def test_from_pages_spacing(self):
        session = _session(["A", "B", "C"], start=100.0, gap=30.0)
        assert [r.timestamp for r in session] == [100.0, 130.0, 160.0]

    def test_sequence_protocol(self):
        session = _session(["A", "B", "C"])
        assert len(session) == 3
        assert session[1].page == "B"
        assert [r.page for r in session] == ["A", "B", "C"]
        assert bool(session)
        assert not bool(Session([]))

    def test_extended_leaves_receiver_unchanged(self):
        base = _session(["A", "B"])
        longer = base.extended(Request(300.0, "u0", "C"))
        assert base.pages == ("A", "B")
        assert longer.pages == ("A", "B", "C")

    def test_duration_and_gap(self):
        session = Session([Request(0.0, "u", "A"), Request(10.0, "u", "B"),
                           Request(100.0, "u", "C")])
        assert session.duration == 100.0
        assert session.max_gap() == 90.0
        assert session.start_time == 0.0
        assert session.end_time == 100.0

    def test_empty_session_edge_cases(self):
        empty = Session([])
        assert empty.duration == 0.0
        assert empty.max_gap() == 0.0
        with pytest.raises(ReconstructionError):
            __ = empty.user_id
        with pytest.raises(ReconstructionError):
            __ = empty.start_time
        with pytest.raises(ReconstructionError):
            __ = empty.end_time

    def test_equality_and_hash(self):
        assert _session(["A", "B"]) == _session(["A", "B"])
        assert _session(["A", "B"]) != _session(["A", "C"])
        assert hash(_session(["A"])) == hash(_session(["A"]))

    def test_distinct_pages(self):
        session = Session([Request(0.0, "u", "A"), Request(1.0, "u", "B"),
                           Request(2.0, "u", "A")])
        assert session.distinct_pages() == {"A", "B"}

    def test_repr_shows_pages(self):
        assert "'A'" in repr(_session(["A"]))


class TestSessionSet:
    def test_indexes_by_user(self):
        sessions = SessionSet([
            _session(["A"], user="u1"),
            _session(["B"], user="u2"),
            _session(["C"], user="u1"),
        ])
        assert set(sessions.users()) == {"u1", "u2"}
        assert [s.pages for s in sessions.for_user("u1")] == [("A",), ("C",)]
        assert sessions.for_user("nobody") == ()

    def test_vocabulary_and_counts(self):
        sessions = SessionSet([_session(["A", "B"]), _session(["B", "C"])])
        assert sessions.page_vocabulary() == {"A", "B", "C"}
        assert sessions.total_requests() == 4
        assert sessions.mean_length() == 2.0

    def test_mean_length_empty(self):
        assert SessionSet([]).mean_length() == 0.0

    def test_filtered_by_length(self):
        sessions = SessionSet([_session(["A"]), _session(["A", "B"])])
        assert len(sessions.filtered(min_length=2)) == 1

    def test_json_roundtrip(self, tmp_path):
        original = SessionSet([
            Session([Request(1.5, "u1", "A"),
                     Request(2.5, "u1", "B", synthetic=True)]),
            _session(["C"], user="u2"),
        ])
        path = str(tmp_path / "sessions.json")
        original.save(path)
        loaded = SessionSet.load(path)
        assert loaded == original
        assert loaded[0][1].synthetic is True

    def test_getitem_and_iteration(self):
        sessions = SessionSet([_session(["A"]), _session(["B"])])
        assert sessions[0].pages == ("A",)
        assert [s.pages for s in sessions] == [("A",), ("B",)]


class TestSessionSetSave:
    """``save`` memoizes request fragments; ``json.dumps(to_jsonable())``
    is the byte-level spec."""

    def _saved(self, sessions, tmp_path):
        path = tmp_path / "sessions.json"
        sessions.save(str(path))
        assert path.read_bytes() == json.dumps(
            sessions.to_jsonable()).encode("utf-8")
        return SessionSet.load(str(path))

    def test_equal_requests_differing_in_synthetic_stay_apart(self, tmp_path):
        # equal and hash-equal: a memo keyed by the Request itself would
        # write the second one with the first one's synthetic flag.
        real = Request(1.0, "u", "A")
        inserted = Request(1.0, "u", "A", synthetic=True)
        assert real == inserted and hash(real) == hash(inserted)
        loaded = self._saved(SessionSet([Session([real]),
                                         Session([inserted]),
                                         Session([real, inserted])]),
                             tmp_path)
        assert [[r.synthetic for r in s] for s in loaded] \
            == [[False], [True], [False, True]]

    def test_fallback_types_match_the_json_encoder(self, tmp_path):
        class Stamp(float):
            def __repr__(self):
                return "not-json"

        sessions = SessionSet([
            Session([Request(3, "u", "A"), Request(Stamp(4.5), "u", "B"),
                     Request(math.inf, "u", "C")]),
            Session([Request(math.nan, "v", "D")]),
            Session([Request(-math.inf, "w", "E", synthetic=1)]),
            Session([]),
        ])
        self._saved(sessions, tmp_path)
