"""Property tests: the fast Phase 2 against two oracles.

* the paper-reference :func:`maximal_sessions` — the same session
  multiset;
* the wave-list kernel that the trie kernel replaced, kept verbatim
  below as ``oracle_maximal_sessions_fast`` — the same list: same length,
  same order, each session made of the same ``Request`` objects, and the
  same ``sessions.phase2.*`` counter deltas.  Saved session files depend
  on that order, so this is what keeps them byte-identical.

Generated candidates cover runs of equal timestamps, pages absent from
the topology, both orphan policies and ρ = δ = ∞.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.core.config import SmartSRAConfig
from repro.core.phase2 import (
    _publish_phase2,
    maximal_sessions,
    maximal_sessions_fast,
)
from repro.obs import Registry, use_registry
from repro.sessions.model import Request, Session
from repro.topology.generators import random_site
from repro.topology.graph import WebGraph

# ---------------------------------------------------------------------------
# the oracle: the wave-list kernel, which re-listed every open session in
# each wave and grew sessions through Session.extended


def oracle_maximal_sessions_fast(candidate, topology: WebGraph,
                                 config: SmartSRAConfig | None = None
                                 ) -> list[Session]:
    if config is None:
        config = SmartSRAConfig()
    n = len(candidate)
    if n == 0:
        return []

    requests = list(candidate)
    max_gap = config.max_gap
    index = topology.adjacency_index()
    page_id = index.page_id
    pred_id_sets = index.pred_id_sets
    pred_sorted_ids = index.pred_sorted_ids
    # Interned per-request views: pages absent from the topology get id -1
    # (no in-links, no out-links, so they never block and never extend).
    ids = [page_id.get(request.page, -1) for request in requests]
    times = [request.timestamp for request in requests]
    _EMPTY: tuple[int, ...] = ()

    # Blocker graph: j blocks i (j < i) when page_j links to page_i within
    # the referrer window ρ.  Requests are chronological, so the scan walks
    # j backwards from i and stops at the first request outside the window
    # — O(n·w) where w is the ρ-window population, instead of O(n²).
    blocker_count = [0] * n
    dependents: list[list[int]] = [[] for __ in range(n)]
    for i in range(n):
        pid = ids[i]
        if pid < 0:
            continue
        predecessors = pred_id_sets[pid]
        if not predecessors:
            continue
        timestamp = times[i]
        for j in range(i - 1, -1, -1):
            # same expression as the reference's window test: subtraction
            # is monotone in j (times are sorted), so the first request
            # past ρ ends the scan without float-rounding disagreements.
            if timestamp - times[j] > max_gap:
                break
            if ids[j] in predecessors:
                blocker_count[i] += 1
                dependents[j].append(i)

    wave = [i for i in range(n) if blocker_count[i] == 0]
    open_sessions: list[Session] = []
    by_last: dict[int, list[int]] = {}
    first_wave = True
    hits = misses = 0
    while wave:
        if first_wave:
            open_sessions = [Session([requests[i]]) for i in wave]
            for index_, i in enumerate(wave):
                by_last.setdefault(ids[i], []).append(index_)
            first_wave = False
        else:
            next_sessions: list[Session] = []
            next_by_last: dict[int, list[int]] = {}
            extended: set[int] = set()

            def add(session: Session, last_id: int) -> None:
                next_by_last.setdefault(last_id, []).append(
                    len(next_sessions))
                next_sessions.append(session)

            for i in wave:
                request = requests[i]
                pid = ids[i]
                timestamp = times[i]
                placed = False
                # numeric id order == sorted page-name order (ids are
                # sorted ranks), pinning the extension order across
                # processes without a per-release sort.
                for predecessor in (pred_sorted_ids[pid] if pid >= 0
                                    else _EMPTY):
                    for session_index in by_last.get(predecessor, ()):
                        session = open_sessions[session_index]
                        if (0 <= timestamp
                                - session[-1].timestamp <= max_gap):
                            add(session.extended(request), pid)
                            extended.add(session_index)
                            placed = True
                if placed:
                    hits += 1
                else:
                    misses += 1
                    if config.rescue_orphans:
                        add(Session([request]), pid)
            for session_index, session in enumerate(open_sessions):
                if session_index not in extended:
                    add(session, page_id.get(session[-1].page, -1))
            open_sessions = next_sessions
            by_last = next_by_last

        next_wave = []
        for i in wave:
            for dependent in dependents[i]:
                blocker_count[dependent] -= 1
                if blocker_count[dependent] == 0:
                    next_wave.append(dependent)
        next_wave.sort()
        wave = next_wave

    _publish_phase2(hits, misses, len(open_sessions))
    return open_sessions


# ---------------------------------------------------------------------------
# generated candidates

#: pages no generated topology contains: no links in or out.
_OFFSITE = ("/offsite-a", "/offsite-b")


@st.composite
def candidate_and_topology(draw, max_length=30):
    seed = draw(st.integers(0, 10_000))
    n_pages = draw(st.integers(2, 20))
    density = draw(st.floats(0.5, min(6.0, n_pages - 1)))
    graph = random_site(n_pages, density, start_fraction=0.5, seed=seed)
    pages = sorted(graph.pages) + list(_OFFSITE[:draw(st.integers(0, 2))])
    rng = random.Random(seed + 1)
    length = draw(st.integers(0, max_length))
    # gaps small enough that most requests stay in one ρ window, with
    # occasional larger ones to exercise the window boundary, and zeros
    # for runs of equal timestamps.
    gaps = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 700.0)),
                         min_size=length, max_size=length))
    clock = 0.0
    candidate = []
    for gap in gaps:
        clock += min(gap, 590.0)  # keep it a legal Phase-1 candidate
        candidate.append(Request(clock, "u", rng.choice(pages)))
    return graph, candidate


def _session_multiset(sessions):
    return sorted(tuple((r.page, r.timestamp) for r in session)
                  for session in sessions)


def _run(kernel, candidate, graph, config):
    registry = Registry()
    with use_registry(registry):
        sessions = kernel(candidate, graph, config)
    return sessions, registry.snapshot()


def _assert_same_list(candidate, graph, config):
    expected, expected_counters = _run(oracle_maximal_sessions_fast,
                                       candidate, graph, config)
    actual, actual_counters = _run(maximal_sessions_fast,
                                   candidate, graph, config)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert [id(r) for r in got] == [id(r) for r in want]
    assert actual_counters == expected_counters


@settings(max_examples=120, deadline=None)
@given(candidate_and_topology(), st.booleans())
def test_fast_equals_reference(data, rescue):
    graph, candidate = data
    config = SmartSRAConfig(rescue_orphans=rescue)
    reference = maximal_sessions(candidate, graph, config)
    fast = maximal_sessions_fast(candidate, graph, config)
    assert _session_multiset(fast) == _session_multiset(reference)


@settings(max_examples=150, deadline=None)
@given(candidate_and_topology(), st.booleans())
def test_fast_equals_replaced_kernel_exactly(data, rescue):
    graph, candidate = data
    _assert_same_list(candidate, graph, SmartSRAConfig(rescue_orphans=rescue))


@settings(max_examples=60, deadline=None)
@given(candidate_and_topology(max_length=12), st.booleans())
def test_fast_equals_replaced_kernel_without_bounds(data, rescue):
    # ρ = δ = ∞: every linked pair is in the window, the most branching
    # case (candidates stay short so the session count stays small).
    graph, candidate = data
    config = SmartSRAConfig(max_gap=math.inf, max_duration=math.inf,
                            rescue_orphans=rescue)
    _assert_same_list(candidate, graph, config)


@settings(max_examples=60, deadline=None)
@given(candidate_and_topology())
def test_fast_output_satisfies_both_rules(data):
    graph, candidate = data
    config = SmartSRAConfig()
    for session in maximal_sessions_fast(candidate, graph, config):
        for earlier, later in zip(session.requests, session.requests[1:]):
            assert graph.has_link(earlier.page, later.page)
            assert 0 <= later.timestamp - earlier.timestamp <= config.max_gap
