"""Unit tests for the ⊏ capture relation (substring search)."""

from __future__ import annotations

from repro.evaluation.metrics import _capture_relation
from repro.evaluation.subsequence import contains, failure_function, find
from repro.sessions.model import Session, SessionSet


class TestPaperExamples:
    def test_captured_example(self):
        # §5.1: R = [P1,P3,P5] ⊏ H = [P9,P1,P3,P5,P8].
        assert contains(["P9", "P1", "P3", "P5", "P8"], ["P1", "P3", "P5"])

    def test_interrupted_example(self):
        # §5.1: P9 interrupts R in H, so R ⋢ H.
        assert not contains(["P1", "P9", "P3", "P5", "P8"],
                            ["P1", "P3", "P5"])


class TestFind:
    def test_finds_first_occurrence(self):
        assert find(["a", "b", "a", "b"], ["a", "b"]) == 0

    def test_finds_at_end(self):
        assert find(["x", "y", "a", "b"], ["a", "b"]) == 2

    def test_absent(self):
        assert find(["a", "b"], ["b", "a"]) == -1

    def test_empty_needle_matches_at_zero(self):
        assert find(["a"], []) == 0
        assert find([], []) == 0

    def test_needle_longer_than_haystack(self):
        assert find(["a"], ["a", "b"]) == -1

    def test_whole_match(self):
        assert find(["a", "b"], ["a", "b"]) == 0

    def test_repetitive_patterns(self):
        # classic KMP stress: needle with strong self-overlap.
        haystack = ["a"] * 5 + ["b"] + ["a"] * 6 + ["b"]
        needle = ["a"] * 6 + ["b"]
        assert find(haystack, needle) == 6

    def test_single_symbol(self):
        assert find(["x", "y", "z"], ["y"]) == 1
        assert find(["x", "y", "z"], ["w"]) == -1


class TestFailureFunction:
    def test_no_overlap(self):
        assert failure_function(["a", "b", "c"]) == [0, 0, 0]

    def test_full_overlap(self):
        assert failure_function(["a", "a", "a"]) == [0, 1, 2]

    def test_partial_overlap(self):
        assert failure_function(["a", "b", "a", "b", "c"]) == [0, 0, 1, 2, 0]

    def test_empty(self):
        assert failure_function([]) == []


class TestContains:
    def test_works_on_tuples(self):
        assert contains(("A", "B", "C"), ("B", "C"))

    def test_order_matters(self):
        assert not contains(("A", "B", "C"), ("C", "B"))


class TestCaptureRelation:
    """The one capture relation the evaluation reads (``str.find`` over
    encoded sessions), checked against the KMP specification."""

    CORPUS = [("P9", "P1", "P3", "P5", "P8"),   # captures [P1,P3,P5]
              ("P1", "P9", "P3", "P5", "P8"),   # interrupted — no capture
              ("P1", "P3", "P5"),               # exact match
              ()]                               # empty session

    @staticmethod
    def _edges(needle, corpus, match_within_user=False):
        truth = SessionSet([Session.from_pages(needle)])
        pool = SessionSet(Session.from_pages(pages) for pages in corpus)
        edges, __ = _capture_relation(truth, pool, match_within_user)
        return edges[0]

    def test_relation_matches_linear_scan(self):
        needle = ("P1", "P3", "P5")
        expected = [i for i, hay in enumerate(self.CORPUS)
                    if contains(hay, needle)]
        assert self._edges(needle, self.CORPUS) == expected == [0, 2]

    def test_page_absent_from_pool_is_not_captured(self):
        assert self._edges(("P1", "P77"), self.CORPUS) == []

    def test_empty_real_session_is_captured_by_every_session(self):
        # the empty needle matches the whole global pool, empty sessions
        # included, whatever match_within_user says.
        assert self._edges((), self.CORPUS) == [0, 1, 2, 3]
        assert self._edges((), self.CORPUS, True) == [0, 1, 2, 3]

    def test_repeated_occurrences_report_a_session_once(self):
        assert self._edges(("a", "b"), [("a", "b", "a", "b")]) == [0]

    def test_match_never_spans_two_sessions(self):
        assert self._edges(("P5", "P8"), [("P5",), ("P8",)]) == []

    def test_within_user_pool_skips_other_users_and_empty_sessions(self):
        truth = SessionSet([Session.from_pages(["A"], user_id="u"),
                            Session.from_pages([], user_id="u")])
        pool = SessionSet([Session.from_pages(["A"], user_id="v"),
                           Session.from_pages([]),
                           Session.from_pages(["X", "A"], user_id="u")])
        edges, groups = _capture_relation(truth, pool)
        assert edges == [[2], [0, 1, 2]]
        assert groups == {"u": [0], "": [1]}
