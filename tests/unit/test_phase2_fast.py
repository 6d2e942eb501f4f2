"""Unit tests for the indexed Phase 2 implementation."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.config import SmartSRAConfig
from repro.core.phase2 import maximal_sessions, maximal_sessions_fast
from repro.exceptions import ReconstructionError
from repro.sessions.model import Request, Session
from repro.topology.graph import WebGraph

MIN = 60.0


def _multiset(sessions):
    return sorted(tuple((r.page, r.timestamp) for r in s) for s in sessions)


class TestFastPhase2:
    def test_paper_table4(self, fig1_topology, table3_stream):
        sessions = maximal_sessions_fast(table3_stream, fig1_topology)
        assert {s.pages for s in sessions} == {
            ("P1", "P13", "P34", "P23"),
            ("P1", "P13", "P49", "P23"),
            ("P1", "P20", "P23"),
        }

    def test_empty_candidate(self, fig1_topology):
        assert maximal_sessions_fast([], fig1_topology) == []

    def test_singleton(self, fig1_topology):
        sessions = maximal_sessions_fast(
            [Request(0.0, "u", "P1")], fig1_topology)
        assert [s.pages for s in sessions] == [("P1",)]

    def test_unknown_pages(self, fig1_topology):
        candidate = [Request(0.0, "u", "X"), Request(MIN, "u", "Y")]
        sessions = maximal_sessions_fast(candidate, fig1_topology)
        assert {s.pages for s in sessions} == {("X",), ("Y",)}

    def test_branching(self):
        graph = WebGraph([("A", "B"), ("A", "C")], start_pages=["A"])
        candidate = [Request(0.0, "u", "A"), Request(MIN, "u", "B"),
                     Request(2 * MIN, "u", "C")]
        sessions = maximal_sessions_fast(candidate, graph)
        assert {s.pages for s in sessions} == {("A", "B"), ("A", "C")}

    def test_timestamp_rule_enforced(self):
        graph = WebGraph([("A", "B"), ("C", "B")], start_pages=["A"])
        candidate = [Request(0.0, "u", "A"), Request(5 * MIN, "u", "B"),
                     Request(10 * MIN, "u", "C")]
        for session in maximal_sessions_fast(candidate, graph):
            times = [r.timestamp for r in session]
            assert times == sorted(times)

    def test_rescue_orphans_path(self, fig1_topology, table3_stream):
        plain = maximal_sessions_fast(table3_stream, fig1_topology)
        rescued = maximal_sessions_fast(
            table3_stream, fig1_topology,
            SmartSRAConfig(rescue_orphans=True))
        assert _multiset(plain) == _multiset(rescued)

    def test_matches_reference_on_paper_examples(self, fig1_topology,
                                                 table1_stream,
                                                 table3_stream):
        for stream in (table1_stream, table3_stream):
            assert _multiset(maximal_sessions_fast(stream, fig1_topology)) \
                == _multiset(maximal_sessions(stream, fig1_topology))

    def test_output_stable_across_hash_seeds(self, tmp_path):
        """Session ORDER must not depend on PYTHONHASHSEED (frozenset
        iteration order does; the implementation sorts to compensate)."""
        script = tmp_path / "emit.py"
        script.write_text(
            "from repro.topology.generators import random_site\n"
            "from repro.core.phase2 import maximal_sessions_fast\n"
            "from repro.sessions.model import Request\n"
            "import random\n"
            "site = random_site(40, 5, seed=3)\n"
            "rng = random.Random(1)\n"
            "pages = sorted(site.pages)\n"
            "cand = [Request(i * 30.0, 'u', rng.choice(pages))"
            " for i in range(40)]\n"
            "for s in maximal_sessions_fast(cand, site):\n"
            "    print('|'.join(p for p in s.pages))\n",
            encoding="utf-8")
        # the child imports the same repro package this test imported
        package_root = str(pathlib.Path(repro.__file__).resolve().parent
                           .parent)
        outputs = set()
        for hash_seed in ("1", "7", "42"):
            completed = subprocess.run(
                [sys.executable, str(script)], capture_output=True,
                text=True, env={"PYTHONHASHSEED": hash_seed,
                                "PYTHONPATH": package_root,
                                "PATH": os.environ.get("PATH", "")},
                check=False)
            assert completed.returncode == 0, completed.stderr
            outputs.add(completed.stdout)
        assert len(outputs) == 1
        assert len(outputs.pop().splitlines()) > 1


class TestTrieEdgeCases:
    def test_link_across_users_raises_sessions_message(self):
        graph = WebGraph([("A", "B")], start_pages=["A"])
        candidate = [Request(0.0, "u1", "A"), Request(MIN, "u2", "B")]
        with pytest.raises(ReconstructionError) as reference:
            maximal_sessions(candidate, graph)
        with pytest.raises(ReconstructionError) as fast:
            maximal_sessions_fast(candidate, graph)
        assert str(fast.value) == str(reference.value) \
            == "a session may not mix users: 'u1' vs 'u2'"

    def test_users_without_a_joining_link_stay_apart(self):
        graph = WebGraph([("A", "B"), ("C", "D")], start_pages=["A", "C"])
        a, c = Request(0.0, "u1", "A"), Request(30.0, "u2", "C")
        b, d = Request(MIN, "u1", "B"), Request(2 * MIN, "u2", "D")
        sessions = maximal_sessions_fast([a, c, b, d], graph)
        # wave 1 opens [A] and [C]; wave 2 extends both, in release order
        assert [s.requests for s in sessions] == [(a, b), (c, d)]
        assert [s.user_id for s in sessions] == ["u1", "u2"]

    def test_deep_chain_builds_without_recursion(self):
        length = 3000
        pages = [f"P{k:04d}" for k in range(length)]
        graph = WebGraph(list(zip(pages, pages[1:])), start_pages=pages[:1])
        # 400 s apart: each request's ρ window holds only its referrer
        candidate = [Request(k * 400.0, "u", page)
                     for k, page in enumerate(pages)]
        sessions = maximal_sessions_fast(candidate, graph)
        assert len(sessions) == 1
        assert sessions[0].requests == tuple(candidate)

    def test_sessions_match_constructed_sessions(self, fig1_topology,
                                                 table3_stream):
        sessions = maximal_sessions_fast(
            table3_stream, fig1_topology,
            SmartSRAConfig(rescue_orphans=True))
        assert sessions
        for session in sessions:
            built = Session(session.requests)
            assert session == built
            assert hash(session) == hash(built)
            assert session.pages == built.pages
