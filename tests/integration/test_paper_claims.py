"""The paper's prose claims, asserted as executable checks.

Each test quotes a claim from the paper and verifies it holds on a
simulated workload — the checklist a reviewer would walk through.
"""

from __future__ import annotations

import pytest

from repro.core.smart_sra import SmartSRA
from repro.sessions.navigation_oriented import NavigationHeuristic
from tests.simulator_validation import validate_simulation


@pytest.fixture(scope="module")
def reconstructions(small_site, small_simulation):
    smart = SmartSRA(small_site).reconstruct(small_simulation.log_requests)
    nav = NavigationHeuristic(small_site).reconstruct(
        small_simulation.log_requests)
    return smart, nav


class TestSection3Claims:
    def test_no_artificial_page_requests(self, reconstructions):
        """'Since we don't insert such artificial page requests...' —
        every request in Smart-SRA output is a genuine log request."""
        smart, __ = reconstructions
        assert all(not request.synthetic
                   for session in smart for request in session)

    def test_heur3_does_insert(self, reconstructions):
        """...whereas the navigation-oriented heuristic does insert."""
        __, nav = reconstructions
        assert any(request.synthetic
                   for session in nav for request in session)

    def test_sessions_much_shorter(self, reconstructions):
        """'our session sequences are much shorter' than heur3's."""
        smart, nav = reconstructions
        assert smart.mean_length() < nav.mean_length()

    def test_connectivity_of_consecutive_requests(self, small_site,
                                                  reconstructions):
        """'we do not allow page sequences with any unrelated ...
        consecutive requests to be in the same session.'"""
        smart, __ = reconstructions
        for session in smart:
            for left, right in zip(session.pages, session.pages[1:]):
                assert small_site.has_link(left, right)

    def test_no_session_subsumes_another(self, small_simulation,
                                         small_site):
        """'all sessions generated will be maximal sequences and do not
        subsume any other session' — checked per candidate (branches from
        the same candidate never contain one another as prefixes)."""
        from repro.core.phase1 import split_candidates
        from repro.core.phase2 import maximal_sessions_fast
        per_user: dict[str, list] = {}
        for request in small_simulation.log_requests:
            per_user.setdefault(request.user_id, []).append(request)
        checked = 0
        for requests in list(per_user.values())[:50]:
            requests.sort(key=lambda r: r.timestamp)
            for candidate in split_candidates(requests):
                sessions = [
                    tuple((r.page, r.timestamp) for r in s)
                    for s in maximal_sessions_fast(candidate, small_site)]
                for a in sessions:
                    for b in sessions:
                        if a is not b:
                            assert not (len(a) < len(b)
                                        and b[:len(a)] == a)
                checked += 1
        assert checked > 10


class TestSection4Claims:
    def test_simulator_sessions_satisfy_both_rules(self, small_site,
                                                   small_simulation):
        """'Our agent simulator generates complete sessions satisfying
        both connectivity and timestamp rules.'"""
        for session in small_simulation.ground_truth:
            times = [request.timestamp for request in session]
            assert times == sorted(times)
            for left, right in zip(session.pages, session.pages[1:]):
                assert small_site.has_link(left, right)

    def test_log_misses_cache_served_requests(self, small_simulation):
        """'sessions containing access requests served from a client's
        local cache cannot be accurately determined' — the log must be a
        strict subset of the navigation whenever any cache hit occurred."""
        landings = sum(len(session)
                       for session in small_simulation.ground_truth)
        assert len(small_simulation.log_requests) < landings

    def test_statistical_validation_passes(self, small_simulation):
        """The simulator matches its own configured distributions."""
        report = validate_simulation(small_simulation)
        assert report.passed, str(report)
