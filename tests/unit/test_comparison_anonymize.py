"""Unit tests for McNemar comparison and log anonymization."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.evaluation.comparison import _two_sided_p, compare_heuristics
from repro.exceptions import EvaluationError, LogFormatError
from repro.logs.anonymize import pseudonymize_hosts, truncate_ipv4_hosts
from repro.logs.clf import CLFRecord
from repro.sessions.model import Session, SessionSet


def _s(pages, user="u0"):
    return Session.from_pages(pages, user_id=user)


class TestCompareHeuristics:
    @pytest.fixture()
    def truth(self):
        return SessionSet([_s([f"A{i}", f"B{i}"], user=f"u{i}")
                           for i in range(30)])

    def test_identical_reconstructions_tie(self, truth):
        result = compare_heuristics(truth, truth, truth, "x", "y")
        assert result.p_value == 1.0
        assert result.winner is None
        assert result.both == 30
        assert not result.significant()

    def test_one_sided_dominance_is_significant(self, truth):
        nothing = SessionSet([_s(["Z"], user=f"u{i}") for i in range(30)])
        result = compare_heuristics(truth, truth, nothing, "good", "bad")
        assert result.only_a == 30
        assert result.only_b == 0
        assert result.winner == "good"
        assert result.significant(0.001)
        assert result.accuracy_a == 1.0
        assert result.accuracy_b == 0.0

    def test_small_discordance_not_significant(self, truth):
        # B misses exactly one session A gets: 1 discordant pair, p = 1.0.
        almost = SessionSet(
            [_s(["A0", "X"], user="u0")]
            + [_s([f"A{i}", f"B{i}"], user=f"u{i}") for i in range(1, 30)])
        result = compare_heuristics(truth, truth, almost)
        assert result.only_a == 1
        assert result.p_value == 1.0

    def test_counts_partition_ground_truth(self, truth):
        half = SessionSet([_s([f"A{i}", f"B{i}"], user=f"u{i}")
                           for i in range(15)])
        result = compare_heuristics(truth, half, truth)
        assert (result.both + result.only_a + result.only_b
                + result.neither) == len(truth)

    def test_str_rendering(self, truth):
        text = str(compare_heuristics(truth, truth, truth, "a", "b"))
        assert "p=" in text and "tie" in text

    def test_empty_truth_rejected(self):
        with pytest.raises(EvaluationError):
            compare_heuristics(SessionSet([]), SessionSet([]),
                               SessionSet([]))

    def test_smart_sra_beats_time_significantly(self, small_site,
                                                small_simulation):
        from repro.core.smart_sra import SmartSRA
        from repro.sessions.time_oriented import PageStayHeuristic
        smart = SmartSRA(small_site).reconstruct(
            small_simulation.log_requests)
        naive = PageStayHeuristic().reconstruct(
            small_simulation.log_requests)
        result = compare_heuristics(small_simulation.ground_truth,
                                    smart, naive, "heur4", "heur2")
        assert result.winner == "heur4"
        assert result.significant(0.01)


# (k, n, scipy.stats.binomtest(k, n, 0.5).pvalue), computed once with
# scipy 1.17.1 and frozen here: the stdlib p-value must not drift from it.
SCIPY_BINOMTEST = [
    (0, 1, 1.0),
    (0, 2, 0.5),
    (1, 2, 1.0),
    (0, 5, 0.0625),
    (2, 5, 1.0),
    (1, 10, 0.021484375),
    (3, 10, 0.34375),
    (5, 10, 1.0),
    (7, 20, 0.26317596435546875),
    (10, 21, 1.0),
    (12, 40, 0.01658900337497471),
    (30, 100, 7.85013964559367e-05),
    (45, 100, 0.36820161732669615),
    (50, 100, 1.0),
    (0, 200, 1.2446030555722283e-60),
    (80, 200, 0.005685155996750306),
    (99, 200, 0.9436515209907435),
    (150, 333, 0.07934462030570755),
    (180, 399, 0.056985439025828394),
    (199, 399, 1.0),
]


class TestExactPValue:
    @pytest.mark.parametrize("k, n, expected", SCIPY_BINOMTEST)
    def test_matches_scipy_binomtest(self, k, n, expected):
        assert _two_sided_p(k, n) == pytest.approx(expected, rel=1e-12)

    def test_no_discordant_pairs_is_null(self):
        assert _two_sided_p(0, 0) == 1.0


_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, NoScipy())
import pytest
sys.exit(pytest.main(sys.argv[1:]))
"""


def test_mcnemar_runs_without_scipy():
    """McNemar is stdlib-only: its unit and property tests pass in a
    process where every scipy import raises."""
    root = pathlib.Path(__file__).resolve().parents[2]
    source = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source, os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, "-p", "no:cacheprovider",
         "tests/unit/test_comparison_anonymize.py::TestCompareHeuristics",
         "tests/unit/test_comparison_anonymize.py::TestExactPValue",
         "tests/property/test_statistics_tools_properties.py::"
         "test_mcnemar_is_antisymmetric",
         "tests/property/test_statistics_tools_properties.py::"
         "test_mcnemar_self_comparison_is_null"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "30 passed" in completed.stdout, completed.stdout


def _record(host, t=0.0):
    return CLFRecord(host, t, "GET", "/P1.html", "HTTP/1.1", 200, 100)


class TestPseudonymize:
    def test_stable_within_key(self):
        records = [_record("1.2.3.4"), _record("1.2.3.4"),
                   _record("5.6.7.8")]
        out = pseudonymize_hosts(records, key="secret")
        assert out[0].host == out[1].host
        assert out[0].host != out[2].host
        assert out[0].host.startswith("user-")

    def test_different_keys_differ(self):
        record = _record("1.2.3.4")
        first = pseudonymize_hosts([record], key="k1")[0].host
        second = pseudonymize_hosts([record], key="k2")[0].host
        assert first != second

    def test_other_fields_untouched(self):
        record = _record("1.2.3.4", t=42.0)
        out = pseudonymize_hosts([record], key="k")[0]
        assert out.timestamp == 42.0
        assert out.url == record.url

    def test_empty_key_rejected(self):
        with pytest.raises(LogFormatError):
            pseudonymize_hosts([_record("1.2.3.4")], key="")

    def test_reconstruction_survives(self, small_simulation):
        """Pseudonymization must not change per-user session structure."""
        from repro.logs.reader import records_to_requests
        from repro.logs.users import IdentityAddressMap
        from repro.logs.writer import requests_to_records
        from repro.sessions.time_oriented import PageStayHeuristic
        records = requests_to_records(small_simulation.log_requests,
                                      IdentityAddressMap())
        anonymous = pseudonymize_hosts(records, key="k")
        original = PageStayHeuristic().reconstruct(
            records_to_requests(records))
        masked = PageStayHeuristic().reconstruct(
            records_to_requests(anonymous))
        assert sorted(s.pages for s in original) == sorted(
            s.pages for s in masked)


class TestTruncate:
    def test_truncates_low_octets(self):
        out = truncate_ipv4_hosts([_record("10.20.30.40")], keep_octets=3)
        assert out[0].host == "10.20.30.0"
        out = truncate_ipv4_hosts([_record("10.20.30.40")], keep_octets=1)
        assert out[0].host == "10.0.0.0"

    def test_non_ipv4_passes_through(self):
        out = truncate_ipv4_hosts([_record("agent000042")])
        assert out[0].host == "agent000042"

    def test_collapses_neighbors(self):
        out = truncate_ipv4_hosts([_record("10.0.0.1"), _record("10.0.0.2")])
        assert out[0].host == out[1].host

    def test_invalid_octets_rejected(self):
        with pytest.raises(LogFormatError):
            truncate_ipv4_hosts([_record("1.2.3.4")], keep_octets=0)
        with pytest.raises(LogFormatError):
            truncate_ipv4_hosts([_record("1.2.3.4")], keep_octets=4)
