"""Unit tests for the error taxonomy, the adaptive-timeout heuristic, and
the proxy-cache / parallel simulation options."""

from __future__ import annotations

import pytest

from repro.evaluation.taxonomy import (
    ErrorCategory,
    classify_session,
    error_breakdown,
    render_breakdown,
)
from repro.exceptions import ConfigurationError, EvaluationError
from repro.sessions.adaptive import AdaptiveTimeoutHeuristic
from repro.sessions.model import Request, Session, SessionSet
from repro.simulator.config import SimulationConfig
from repro.simulator.population import simulate_population


def _s(pages, user="u0"):
    return Session.from_pages(pages, user_id=user)


class TestClassifySession:
    def test_exact(self):
        assert classify_session(_s(["A", "B"]), [_s(["A", "B"])]) \
            is ErrorCategory.EXACT

    def test_merged(self):
        assert classify_session(_s(["A", "B"]), [_s(["X", "A", "B"])]) \
            is ErrorCategory.MERGED

    def test_scattered(self):
        assert classify_session(_s(["A", "B"]),
                                [_s(["A"]), _s(["B"])]) \
            is ErrorCategory.SCATTERED

    def test_interrupted_capture_is_scattered(self):
        assert classify_session(_s(["A", "B"]), [_s(["A", "X", "B"])]) \
            is ErrorCategory.SCATTERED

    def test_partial(self):
        assert classify_session(_s(["A", "B"]), [_s(["A", "X"])]) \
            is ErrorCategory.PARTIAL

    def test_lost(self):
        assert classify_session(_s(["A", "B"]), [_s(["X", "Y"])]) \
            is ErrorCategory.LOST
        assert classify_session(_s(["A"]), []) is ErrorCategory.LOST

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            classify_session(Session([]), [])


class TestErrorBreakdown:
    def test_counts_all_categories(self):
        truth = SessionSet([
            _s(["A", "B"], "u1"),     # exact
            _s(["C", "D"], "u1"),     # merged
            _s(["E", "F"], "u2"),     # partial (only E present)
        ])
        recon = SessionSet([
            _s(["A", "B"], "u1"),
            _s(["X", "C", "D"], "u1"),
            _s(["E"], "u2"),
        ])
        breakdown = error_breakdown(truth, recon)
        assert breakdown[ErrorCategory.EXACT] == 1
        assert breakdown[ErrorCategory.MERGED] == 1
        assert breakdown[ErrorCategory.PARTIAL] == 1
        assert breakdown[ErrorCategory.LOST] == 0
        assert sum(breakdown.values()) == 3

    def test_user_isolation(self):
        truth = SessionSet([_s(["A"], "alice")])
        recon = SessionSet([_s(["A"], "bob")])
        breakdown = error_breakdown(truth, recon)
        assert breakdown[ErrorCategory.LOST] == 1

    def test_empty_truth_rejected(self):
        with pytest.raises(EvaluationError):
            error_breakdown(SessionSet([]), SessionSet([]))

    def test_render(self):
        truth = SessionSet([_s(["A"])])
        text = render_breakdown(
            {"h": error_breakdown(truth, truth)})
        assert "exact" in text
        assert "100.0%" in text

    def test_render_empty_rejected(self):
        with pytest.raises(EvaluationError):
            render_breakdown({})


class TestAdaptiveTimeout:
    def test_fast_user_gets_tight_cutoff(self):
        # uniform 10s gaps, then a 120s pause: a fixed 10-min rule keeps
        # one session, the adaptive rule splits.
        requests = [Request(float(i * 10), "u", f"P{i}") for i in range(10)]
        requests.append(Request(90.0 + 120.0, "u", "PX"))
        sessions = AdaptiveTimeoutHeuristic().reconstruct_user(requests)
        assert len(sessions) == 2
        from repro.sessions.time_oriented import PageStayHeuristic
        assert len(PageStayHeuristic().reconstruct_user(requests)) == 1

    def test_few_gaps_fall_back_to_ceiling(self):
        requests = [Request(0.0, "u", "A"), Request(30.0, "u", "B")]
        heuristic = AdaptiveTimeoutHeuristic()
        assert heuristic.user_cutoff(requests) == heuristic.ceiling

    def test_cutoff_clamped_to_floor(self):
        requests = [Request(float(i), "u", f"P{i}") for i in range(20)]
        heuristic = AdaptiveTimeoutHeuristic(floor=60.0)
        assert heuristic.user_cutoff(requests) == 60.0

    def test_cutoff_clamped_to_ceiling(self):
        requests = [Request(float(i * 650), "u", f"P{i}") for i in range(20)]
        heuristic = AdaptiveTimeoutHeuristic()
        assert heuristic.user_cutoff(requests) == heuristic.ceiling

    def test_partitions_stream(self):
        requests = [Request(float(i * 45), "u", f"P{i}") for i in range(12)]
        sessions = AdaptiveTimeoutHeuristic().reconstruct_user(requests)
        assert [r for s in sessions for r in s] == requests

    def test_registered(self):
        from repro.sessions.base import get_heuristic
        assert isinstance(get_heuristic("adaptive"),
                          AdaptiveTimeoutHeuristic)

    @pytest.mark.parametrize("kwargs", [
        {"sigmas": -1}, {"floor": 0}, {"ceiling": -5},
        {"floor": 700, "ceiling": 600}, {"min_gaps": 1}])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveTimeoutHeuristic(**kwargs)


class TestProxySimulation:
    def test_proxy_hides_traffic(self, small_site):
        base = SimulationConfig(n_agents=100, seed=6)
        plain = simulate_population(small_site, base)
        proxied = simulate_population(
            small_site, base.with_(proxy_group_size=10))
        assert len(proxied.log_requests) < len(plain.log_requests)
        assert proxied.cache_hit_rate > plain.cache_hit_rate
        assert sum(t.proxy_hits for t in proxied.traces) > 0
        assert sum(t.proxy_hits for t in plain.traces) == 0

    def test_ground_truth_not_affected_by_logging(self, small_site):
        """The proxy hides requests from the log; what users *did* also
        changes (their RNG stream is identical but proxied agents never
        see different pages — the walk itself is cache-independent), so
        ground truth session counts stay in the same ballpark."""
        base = SimulationConfig(n_agents=100, seed=6)
        plain = simulate_population(small_site, base)
        proxied = simulate_population(
            small_site, base.with_(proxy_group_size=10))
        # the navigation itself is unchanged: same landings per agent.
        for a, b in zip(plain.traces, proxied.traces):
            assert [s.pages for s in a.real_sessions] == [
                s.pages for s in b.real_sessions]

    def test_proxy_degrades_reconstruction(self, small_site):
        from repro.core.smart_sra import SmartSRA
        from repro.evaluation.metrics import evaluate_reconstruction
        base = SimulationConfig(n_agents=150, seed=6)
        scores = {}
        for k in (1, 10):
            sim = simulate_population(small_site,
                                      base.with_(proxy_group_size=k))
            sessions = SmartSRA(small_site).reconstruct(sim.log_requests)
            scores[k] = evaluate_reconstruction(
                "h", sim.ground_truth, sessions).matched_accuracy
        assert scores[10] < scores[1]

    def test_invalid_group_size_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(proxy_group_size=0)
