"""Unit tests for Smart-SRA: Phase 1, Phase 2, config and the facade.

Anchored on the paper's worked example: Table 3's candidate session over
the Figure 1 topology must yield exactly the three maximal sessions of
Table 4.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import SmartSRAConfig
from repro.core.phase1 import split_candidates
from repro.core.phase2 import maximal_sessions
from repro.core.smart_sra import Phase1Only, SmartSRA
from repro.exceptions import ConfigurationError, ReconstructionError
from repro.sessions.model import Request
from repro.topology.graph import WebGraph

MIN = 60.0


class TestConfig:
    def test_paper_defaults(self):
        config = SmartSRAConfig()
        assert config.max_duration == 30 * MIN
        assert config.max_gap == 10 * MIN
        assert config.rescue_orphans is False

    @pytest.mark.parametrize("kwargs", [
        {"max_duration": 0.0},
        {"max_gap": -5.0},
        {"max_duration": 100.0, "max_gap": 200.0},
        {"max_gap": math.nan},
        {"max_duration": math.nan},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            SmartSRAConfig(**kwargs)


class TestPhase1:
    def test_table1_stream_splits_like_combined_time_rules(
            self, table1_stream):
        # Table 1 with both rules: gap rule splits after P13 (14 min gap)
        # and after P34 (15 min gap).
        candidates = split_candidates(table1_stream)
        assert [[r.page for r in c] for c in candidates] == [
            ["P1", "P20", "P13"], ["P49", "P34"], ["P23"]]

    def test_table3_stream_is_single_candidate(self, table3_stream):
        candidates = split_candidates(table3_stream)
        assert len(candidates) == 1
        assert [r.page for r in candidates[0]] == [
            "P1", "P20", "P13", "P49", "P34", "P23"]

    def test_duration_rule_splits(self):
        # gaps of 9 minutes never trip ρ=10min, but the fourth request is
        # 36 > 30 minutes after the first.
        stream = [Request(i * 9 * MIN, "u", f"P{i}") for i in range(5)]
        candidates = split_candidates(stream)
        assert [[r.page for r in c] for c in candidates] == [
            ["P0", "P1", "P2", "P3"], ["P4"]]

    def test_invariants_hold_on_output(self, table1_stream):
        config = SmartSRAConfig()
        for candidate in split_candidates(table1_stream, config):
            assert (candidate[-1].timestamp - candidate[0].timestamp
                    <= config.max_duration)
            for earlier, later in zip(candidate, candidate[1:]):
                assert later.timestamp - earlier.timestamp <= config.max_gap

    def test_rejects_unsorted_stream(self):
        stream = [Request(100.0, "u", "A"), Request(0.0, "u", "B")]
        with pytest.raises(ReconstructionError, match="not sorted"):
            split_candidates(stream)

    def test_empty_stream(self):
        assert split_candidates([]) == []


class TestPhase2PaperExample:
    def test_paper_table4_sessions(self, fig1_topology, table3_stream):
        sessions = maximal_sessions(table3_stream, fig1_topology)
        pages = {session.pages for session in sessions}
        assert pages == {
            ("P1", "P13", "P34", "P23"),
            ("P1", "P13", "P49", "P23"),
            ("P1", "P20", "P23"),
        }

    def test_facade_matches_phase_composition(self, fig1_topology,
                                              table3_stream):
        facade = SmartSRA(fig1_topology).reconstruct_user(table3_stream)
        direct = [session
                  for candidate in split_candidates(table3_stream)
                  for session in maximal_sessions(candidate, fig1_topology)]
        assert {s.pages for s in facade} == {s.pages for s in direct}


class TestPhase2Mechanics:
    def test_sessions_satisfy_topology_rule(self, fig1_topology,
                                            table3_stream):
        for session in maximal_sessions(table3_stream, fig1_topology):
            for left, right in zip(session.pages, session.pages[1:]):
                assert fig1_topology.has_link(left, right)

    def test_sessions_satisfy_timestamp_rule(self, fig1_topology,
                                             table3_stream):
        config = SmartSRAConfig()
        for session in maximal_sessions(table3_stream, fig1_topology):
            for earlier, later in zip(session.requests,
                                      session.requests[1:]):
                assert 0 <= later.timestamp - earlier.timestamp
                assert later.timestamp - earlier.timestamp <= config.max_gap

    def test_unlinked_pages_become_singletons(self):
        graph = WebGraph([("A", "B")], pages=["A", "B", "C"],
                         start_pages=["A"])
        candidate = [Request(0.0, "u", "C"), Request(MIN, "u", "A"),
                     Request(2 * MIN, "u", "B")]
        sessions = maximal_sessions(candidate, graph)
        assert {s.pages for s in sessions} == {("C",), ("A", "B")}

    def test_branching_keeps_all_maximal_extensions(self):
        # A links to both B and C; both are released in round 2 and each
        # extends [A] independently.
        graph = WebGraph([("A", "B"), ("A", "C")], start_pages=["A"])
        candidate = [Request(0.0, "u", "A"), Request(MIN, "u", "B"),
                     Request(2 * MIN, "u", "C")]
        sessions = maximal_sessions(candidate, graph)
        assert {s.pages for s in sessions} == {("A", "B"), ("A", "C")}

    def test_referrer_window_respects_max_gap(self):
        # A links to B but 11 minutes apart: B has no referrer within ρ and
        # both pages are released together as independent sessions.
        graph = WebGraph([("A", "B")], start_pages=["A"])
        candidate = [Request(0.0, "u", "A"), Request(11 * MIN, "u", "B")]
        sessions = maximal_sessions(candidate, graph,
                                    SmartSRAConfig(max_gap=10 * MIN))
        assert {s.pages for s in sessions} == {("A",), ("B",)}

    def test_extension_requires_forward_time(self):
        # C@10 is released first (no referrer); B@5's referrer A is consumed
        # in round 1.  C links to B but lies *later* in time, so [C, B]
        # would violate the timestamp rule and must not be produced.
        graph = WebGraph([("A", "B"), ("C", "B")], start_pages=["A"])
        candidate = [Request(0.0, "u", "A"), Request(5 * MIN, "u", "B"),
                     Request(10 * MIN, "u", "C")]
        sessions = maximal_sessions(candidate, graph)
        for session in sessions:
            times = [r.timestamp for r in session]
            assert times == sorted(times)

    def test_far_future_linked_page_seeds_its_own_session(self):
        # A->C but C is 18 minutes after A: outside the ρ referrer window,
        # so C is released in round 1 and seeds its own session rather than
        # extending [A].
        graph = WebGraph([("A", "B"), ("A", "C")], start_pages=["A"])
        candidate = [Request(0.0, "u", "A"), Request(9 * MIN, "u", "B"),
                     Request(18 * MIN, "u", "C")]
        sessions = maximal_sessions(candidate, graph)
        assert {s.pages for s in sessions} == {("A", "B"), ("C",)}

    def test_no_page_is_ever_dropped(self, fig1_topology, table3_stream):
        # Every released page's last blocker ends an open session one round
        # earlier within ρ, so (provably) no input request is lost; the
        # rescue_orphans safety net therefore never changes the output on
        # chronologically sorted candidates.
        plain = maximal_sessions(table3_stream, fig1_topology)
        rescued = maximal_sessions(table3_stream, fig1_topology,
                                   SmartSRAConfig(rescue_orphans=True))
        assert {s.pages for s in plain} == {s.pages for s in rescued}
        covered = {(r.page, r.timestamp) for s in plain for r in s}
        assert all((r.page, r.timestamp) in covered for r in table3_stream)

    def test_empty_candidate(self, fig1_topology):
        assert maximal_sessions([], fig1_topology) == []

    def test_single_page_candidate(self, fig1_topology):
        sessions = maximal_sessions([Request(0.0, "u", "P1")], fig1_topology)
        assert [s.pages for s in sessions] == [("P1",)]

    def test_pages_unknown_to_topology(self, fig1_topology):
        candidate = [Request(0.0, "u", "X"), Request(MIN, "u", "Y")]
        sessions = maximal_sessions(candidate, fig1_topology)
        assert {s.pages for s in sessions} == {("X",), ("Y",)}


class TestPhase1Only:
    def test_equals_combined_time_rules(self, table1_stream):
        sessions = Phase1Only().reconstruct_user(table1_stream)
        assert [s.pages for s in sessions] == [
            ("P1", "P20", "P13"), ("P49", "P34"), ("P23",)]

    def test_is_registered(self):
        from repro.sessions.base import get_heuristic
        assert isinstance(get_heuristic("phase1"), Phase1Only)


class TestSmartSRAFacade:
    def test_registry_requires_topology(self):
        from repro.sessions.base import get_heuristic
        with pytest.raises(ConfigurationError, match="topology"):
            get_heuristic("heur4")

    def test_multi_user_streams_stay_separate(self, fig1_topology):
        stream = [
            Request(0.0, "alice", "P1"), Request(0.0, "bob", "P1"),
            Request(MIN, "alice", "P13"), Request(MIN, "bob", "P20"),
        ]
        sessions = SmartSRA(fig1_topology).reconstruct(stream)
        assert {s.pages for s in sessions.for_user("alice")} == {
            ("P1", "P13")}
        assert {s.pages for s in sessions.for_user("bob")} == {
            ("P1", "P20")}
