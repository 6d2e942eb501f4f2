"""Unit tests for the accuracy metrics (any-capture and one-to-one)."""

from __future__ import annotations

import pytest

from repro.evaluation.metrics import (
    _maximum_matching,
    evaluate_reconstruction,
    real_accuracy,
    session_captured,
)
from repro.exceptions import EvaluationError
from repro.sessions.model import Session, SessionSet


def _s(pages, user="u0"):
    return Session.from_pages(pages, user_id=user)


class TestSessionCaptured:
    def test_captured_by_superset(self):
        assert session_captured(_s(["A", "B"]), [_s(["X", "A", "B", "Y"])])

    def test_not_captured_when_interrupted(self):
        assert not session_captured(_s(["A", "B"]), [_s(["A", "X", "B"])])

    def test_empty_pool(self):
        assert not session_captured(_s(["A"]), [])


class TestAnyCapture:
    def test_perfect_reconstruction(self):
        truth = SessionSet([_s(["A", "B"]), _s(["C"])])
        assert real_accuracy(truth, truth) == 1.0

    def test_one_giant_session_captures_everything(self):
        truth = SessionSet([_s(["A", "B"]), _s(["C", "D"])])
        giant = SessionSet([_s(["A", "B", "C", "D"])])
        assert real_accuracy(truth, giant) == 1.0

    def test_fragmented_reconstruction_misses(self):
        truth = SessionSet([_s(["A", "B"])])
        fragments = SessionSet([_s(["A"]), _s(["B"])])
        assert real_accuracy(truth, fragments) == 0.0

    def test_user_boundary_respected(self):
        truth = SessionSet([_s(["A", "B"], user="alice")])
        other_user = SessionSet([_s(["A", "B"], user="bob")])
        assert real_accuracy(truth, other_user) == 0.0
        assert real_accuracy(truth, other_user,
                             match_within_user=False) == 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(EvaluationError):
            real_accuracy(SessionSet([]), SessionSet([_s(["A"])]))


class TestOneToOneMatching:
    def test_giant_session_credits_only_one(self):
        truth = SessionSet([_s(["A", "B"]), _s(["C", "D"])])
        giant = SessionSet([_s(["A", "B", "C", "D"])])
        report = evaluate_reconstruction("h", truth, giant)
        assert report.captured == 2
        assert report.matched == 1
        assert report.matched_accuracy == 0.5

    def test_distinct_sessions_credit_each(self):
        truth = SessionSet([_s(["A", "B"]), _s(["C", "D"])])
        split = SessionSet([_s(["A", "B"]), _s(["C", "D"])])
        report = evaluate_reconstruction("h", truth, split)
        assert report.matched == 2

    def test_matching_finds_augmenting_assignment(self):
        # H1 captures both R1 and R2; H2 captures only R1.  A greedy
        # assignment of H1->R1 would strand R2; maximum matching must
        # credit both (H2->R1, H1->R2).
        truth = SessionSet([_s(["A"]), _s(["B"])])
        pool = SessionSet([_s(["A", "B"]), _s(["X", "A"])])
        report = evaluate_reconstruction("h", truth, pool)
        assert report.matched == 2

    def test_duplicate_real_sessions_need_duplicate_captures(self):
        truth = SessionSet([_s(["A"]), _s(["A"])])
        single = SessionSet([_s(["A"])])
        report = evaluate_reconstruction("h", truth, single)
        assert report.captured == 2
        assert report.matched == 1


class TestReportDiagnostics:
    def test_exact_counts_verbatim_matches(self):
        truth = SessionSet([_s(["A", "B"]), _s(["C"])])
        pool = SessionSet([_s(["A", "B"]), _s(["X", "C"])])
        report = evaluate_reconstruction("h", truth, pool)
        assert report.exact == 1
        assert report.captured == 2

    def test_precision(self):
        truth = SessionSet([_s(["A", "B"])])
        pool = SessionSet([_s(["A", "B"]), _s(["Z", "Q"])])
        report = evaluate_reconstruction("h", truth, pool)
        assert report.productive == 1
        assert report.precision == 0.5

    def test_precision_empty_pool(self):
        truth = SessionSet([_s(["A"])])
        report = evaluate_reconstruction("h", truth, SessionSet([]))
        assert report.precision == 0.0
        assert report.accuracy == 0.0

    def test_mean_lengths(self):
        truth = SessionSet([_s(["A", "B"])])
        pool = SessionSet([_s(["A", "B", "C", "D"])])
        report = evaluate_reconstruction("h", truth, pool)
        assert report.mean_real_length == 2.0
        assert report.mean_reconstructed_length == 4.0

    def test_heuristic_name_recorded(self):
        truth = SessionSet([_s(["A"])])
        report = evaluate_reconstruction("my-heuristic", truth, truth)
        assert report.heuristic == "my-heuristic"


class TestEmptyCorpusEvaluation:
    """Zero-denominator paths must return defined values (regression).

    ``accuracy``/``matched_accuracy`` used to raise on a report with no
    ground-truth sessions, which turned an empty evaluation corpus into
    a crash deep inside sweep/diffcheck plumbing.  They are vacuously
    1.0 now (nothing to recover, nothing missed); the strict default of
    ``evaluate_reconstruction`` still rejects an empty ground truth so
    upstream mistakes stay loud.
    """

    def test_accuracies_defined_on_empty_truth(self):
        report = evaluate_reconstruction(
            "h", SessionSet([]), SessionSet([]), allow_empty=True)
        assert report.total_real == 0
        assert report.accuracy == 1.0
        assert report.matched_accuracy == 1.0
        assert report.precision == 0.0

    def test_spurious_output_shows_in_precision_not_accuracy(self):
        report = evaluate_reconstruction(
            "h", SessionSet([]), SessionSet([_s(["A", "B"])]),
            allow_empty=True)
        assert report.accuracy == 1.0          # vacuous: no real sessions
        assert report.reconstructed_count == 1
        assert report.precision == 0.0         # the junk is still visible

    def test_empty_reconstruction_against_real_truth(self):
        report = evaluate_reconstruction(
            "h", SessionSet([_s(["A", "B"])]), SessionSet([]))
        assert report.accuracy == 0.0
        assert report.matched_accuracy == 0.0
        assert report.precision == 0.0

    def test_empty_truth_still_rejected_by_default(self):
        with pytest.raises(EvaluationError):
            evaluate_reconstruction("h", SessionSet([]), SessionSet([]))

    def test_report_roundtrip_keeps_vacuous_values(self):
        report = evaluate_reconstruction(
            "h", SessionSet([]), SessionSet([]), allow_empty=True)
        from repro.evaluation.metrics import AccuracyReport
        recovered = AccuracyReport.from_dict(report.to_dict())
        assert recovered.accuracy == 1.0


class TestDeepAugmentingChains:
    """Cross-user matching puts every real session into one group, so an
    augmenting path can run through thousands of sessions (regression:
    the recursive search raised RecursionError there)."""

    N = 2000

    def test_matching_follows_a_chain_as_deep_as_the_group(self):
        # left i takes right i; the last left forces every one of them
        # over by one, an augmenting path N deep.
        adjacency = [[i, i + 1] for i in range(self.N)] + [[0]]
        assert _maximum_matching(adjacency) == self.N + 1

    def test_global_matching_survives_a_deep_chain(self):
        # R_i = [p_i] is captured by H_i = [p_(i-1), p_i] and H_(i+1);
        # the last real session [p_-1] only by H_0.
        pages = [f"p{i}" for i in range(-1, self.N + 1)]
        pool = SessionSet(_s(pages[j:j + 2], user=f"h{j}")
                          for j in range(self.N + 1))
        truth = SessionSet([_s([pages[i + 1]], user=f"r{i}")
                            for i in range(self.N)] + [_s([pages[0]])])
        report = evaluate_reconstruction("h", truth, pool,
                                         match_within_user=False)
        assert report.matched == self.N + 1
        assert report.captured == self.N + 1
