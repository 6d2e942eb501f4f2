"""Smart-SRA Phase 2 — topological maximal-session extraction.

Phase 2 (paper Figure 2) turns one time-consistent candidate session into
the set of **maximal** page sequences that satisfy both

* the *timestamp ordering rule* — pages appear in increasing request-time
  order with consecutive gaps ≤ ρ, and
* the *topology rule* — every consecutive pair is connected by a hyperlink.

It iterates three steps until the candidate is exhausted:

* **Step I** — collect the candidate's current *referrer-free* pages: pages
  with no earlier candidate member linking to them within ρ.  (The paper's
  pseudocode writes the referrer scan with ``j > i``; its worked example —
  Tables 3-4, where ``P1`` is the sole initial start page — requires
  *earlier* pages, i.e. ``j < i``.  We follow the worked example; see
  DESIGN.md.)
* **Step II** — remove those pages from the candidate.
* **Step III** — extend every open session whose last page hyperlinks to a
  removed page within ρ, possibly *branching* one session into several;
  sessions that could not be extended are carried over unchanged (this is
  what makes the output maximal).  On the first iteration each removed page
  simply opens its own session.

The worked example — candidate ``P1@0 P20@6 P13@9 P49@12 P34@14 P23@15``
over the Figure 1 topology yielding exactly ``[P1 P13 P34 P23]``,
``[P1 P13 P49 P23]`` and ``[P1 P20 P23]`` — is verified in
``tests/unit/test_smart_sra.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.config import SmartSRAConfig
from repro.obs import get_registry
from repro.sessions.model import Request, Session
from repro.topology.graph import WebGraph

__all__ = ["maximal_sessions", "maximal_sessions_fast"]


def _publish_phase2(extensions: int, orphans: int, sessions: int) -> None:
    """Flush one candidate's Phase-2 tallies to the ambient registry.

    ``extensions`` are topology-rule hits (a released page legally
    extended an open session); ``orphans`` are misses (a released page
    matched no open session's tail).  Tallied locally and flushed once per
    candidate so the hot loop stays metric-free.
    """
    registry = get_registry()
    if registry.enabled:
        registry.counter("sessions.phase2.candidates").inc()
        registry.counter("sessions.phase2.extensions").inc(extensions)
        registry.counter("sessions.phase2.orphans").inc(orphans)
        registry.counter("sessions.phase2.sessions").inc(sessions)


def maximal_sessions(candidate: Sequence[Request], topology: WebGraph,
                     config: SmartSRAConfig | None = None) -> list[Session]:
    """Run Phase 2 on one candidate session.

    Args:
        candidate: a time-consistent candidate produced by
            :func:`repro.core.phase1.split_candidates` (chronological).
        topology: the site's hyperlink graph.  Pages absent from the graph
            simply have no links (they always become singleton sessions).
        config: thresholds and the orphan policy; defaults to the paper's.

    Returns:
        The maximal sessions extracted from ``candidate``, in the order the
        algorithm produced them.  With the default (paper-faithful) orphan
        policy some input pages may appear in **no** output session; with
        ``config.rescue_orphans`` every page appears in at least one.
    """
    if config is None:
        config = SmartSRAConfig()
    remaining: list[Request] = list(candidate)
    open_sessions: list[Session] = []
    hits = misses = 0

    while remaining:
        released = _referrer_free(remaining, topology, config.max_gap)
        released_set = {id(request) for request in released}
        remaining = [request for request in remaining
                     if id(request) not in released_set]

        if not open_sessions:
            # Step III-a: the released pages seed the initial sessions.
            open_sessions = [Session([request]) for request in released]
            continue

        # Step III-b: try to extend every open session with every released
        # page.  One page may extend several sessions, and one session may
        # be extended by several pages — each combination yields a distinct
        # branched session, exactly like the paper's Table 4 trace.
        next_sessions: list[Session] = []
        extended: set[int] = set()
        for request in released:
            placed = False
            for index, session in enumerate(open_sessions):
                last = session[-1]
                # Topology rule + timestamp ordering rule: the new page
                # must be hyperlinked from the session's last page AND come
                # later (a released page can predate a session's tail when
                # its own referrer was consumed in an earlier iteration).
                if (topology.has_link(last.page, request.page)
                        and 0 <= request.timestamp - last.timestamp
                        <= config.max_gap):
                    next_sessions.append(session.extended(request))
                    extended.add(index)
                    placed = True
            if placed:
                hits += 1
            else:
                misses += 1
                if config.rescue_orphans:
                    next_sessions.append(Session([request]))
        for index, session in enumerate(open_sessions):
            if index not in extended:
                next_sessions.append(session)
        open_sessions = next_sessions

    _publish_phase2(hits, misses, len(open_sessions))
    return open_sessions


def maximal_sessions_fast(candidate: Sequence[Request], topology: WebGraph,
                          config: SmartSRAConfig | None = None
                          ) -> list[Session]:
    """Optimized Phase 2 — same output set as :func:`maximal_sessions`.

    The reference implementation re-scans the whole candidate for
    referrer-free pages every round (O(n²) per round, O(n³) worst case).
    This version computes each request's *blocker set* once and releases
    requests topological-sort style: a request joins the wave after the
    wave that removed its last blocker — provably the same waves as the
    reference (a request is referrer-free exactly when all its blockers
    are gone).  Step III is also indexed: a released page can only extend
    sessions whose last page is one of its topology predecessors.

    It pays most on long candidates, where the reference's repeated Step-I
    scans dominate, and on candidates that branch into dozens of sessions;
    ``bench_phase2_implementations`` times both on three shapes and writes
    ``benchmarks/results/phase2.txt``.

    The inner loops run on the topology's interned integer adjacency view
    (:meth:`~repro.topology.graph.WebGraph.adjacency_index`): page ids are
    dense sorted-name ranks, so numeric id order reproduces the reference's
    sorted-page-name extension order without re-sorting per release, and
    the blocker scan walks backwards in time and stops at the ρ window
    instead of re-testing every earlier request.

    Open sessions are leaves of a per-candidate parent-pointer trie, so
    branching copies nothing, a wave touches only the sessions it scans
    and extends, and each output session is built once at the end.  The
    output list — order included — is the one the previous wave-list
    kernel produced, which keeps saved session files byte-identical
    (property-tested against that kernel, kept as a test oracle).

    Output may differ from the reference in *ordering* only; the session
    multiset is identical (property-tested).  :class:`~repro.core.smart_sra.
    SmartSRA` uses this version; the reference stays as the
    paper-pseudocode ground truth.
    """
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

    # Open sessions are the live leaves of a parent-pointer trie: node k
    # is request ``node_request[k]`` appended to node ``node_parent[k]``
    # (-1 for a root).  Each wave appends one block of nodes; a node that
    # a later wave extends is consumed and leaves the open list.  Step
    # III's list after wave k is (the nodes wave k created) + (the list
    # after wave k-1, minus what wave k extended), so the open list is
    # always the blocks newest first, each in creation order, without the
    # consumed nodes.  ``by_last`` keeps one bucket per (last page id,
    # wave), oldest wave first, so the scan below visits open sessions in
    # exactly that list order without re-listing the ones no wave extends.
    node_request: list[Request] = []
    node_parent: list[int] = []
    node_time: list[float] = []
    consumed: set[int] = set()
    block_starts: list[int] = []
    by_last: dict[int, list[list[int]]] = {}
    hits = misses = 0
    wave = [i for i in range(n) if blocker_count[i] == 0]
    while wave:
        fresh: dict[int, list[int]] = {}
        block_starts.append(len(node_request))
        if not node_request:
            # Step III-a: the first wave's requests seed the trie's roots.
            for i in wave:
                fresh.setdefault(ids[i], []).append(len(node_request))
                node_request.append(requests[i])
                node_parent.append(-1)
                node_time.append(times[i])
        else:
            extended: list[int] = []
            for i in wave:
                request = requests[i]
                pid = ids[i]
                timestamp = times[i]
                first_node = len(node_request)
                # numeric id order == sorted page-name order (ids are
                # sorted ranks), pinning the extension order across
                # processes without a per-release sort.
                for predecessor in (pred_sorted_ids[pid] if pid >= 0
                                    else _EMPTY):
                    buckets = by_last.get(predecessor)
                    if buckets is None:
                        continue
                    for bucket in reversed(buckets):
                        for node in bucket:
                            parent_time = node_time[node]
                            if (0 <= timestamp - parent_time <= max_gap
                                    and node not in consumed):
                                parent = node_request[node]
                                if (timestamp < parent_time
                                        or request.user_id
                                        != parent.user_id):
                                    # the edge fails Session's boundary
                                    # checks, which raise its message
                                    Session((parent, request))
                                node_request.append(request)
                                node_parent.append(node)
                                node_time.append(timestamp)
                                extended.append(node)
                if len(node_request) > first_node:
                    hits += 1
                else:
                    misses += 1
                    if not config.rescue_orphans:
                        continue
                    node_request.append(request)
                    node_parent.append(-1)
                    node_time.append(timestamp)
                fresh.setdefault(pid, []).extend(
                    range(first_node, len(node_request)))
            consumed.update(extended)
        # the block joins the index only now, so the scan above never
        # sees sessions opened in its own wave.
        for last_id, bucket in fresh.items():
            if last_id >= 0:
                by_last.setdefault(last_id, []).append(bucket)

        next_wave = []
        for i in wave:
            for dependent in dependents[i]:
                blocker_count[dependent] -= 1
                if blocker_count[dependent] == 0:
                    next_wave.append(dependent)
        next_wave.sort()
        wave = next_wave

    # Build each surviving leaf's session once, walking its parent chain
    # iteratively (a candidate can be thousands of requests deep).
    sessions: list[Session] = []
    block_end = len(node_request)
    for block_start in reversed(block_starts):
        for leaf in range(block_start, block_end):
            if leaf in consumed:
                continue
            chain: list[Request] = []
            node = leaf
            while node >= 0:
                chain.append(node_request[node])
                node = node_parent[node]
            chain.reverse()
            sessions.append(Session.from_trusted_parts(tuple(chain)))
        block_end = block_start

    _publish_phase2(hits, misses, len(sessions))
    return sessions


def _referrer_free(remaining: Sequence[Request], topology: WebGraph,
                   max_gap: float) -> list[Request]:
    """Step I — pages of ``remaining`` with no earlier referrer within ρ.

    The first remaining request is always referrer-free (it has no earlier
    member), which guarantees the Phase 2 loop makes progress.
    """
    released: list[Request] = []
    for index, request in enumerate(remaining):
        has_referrer = any(
            topology.has_link(earlier.page, request.page)
            and request.timestamp - earlier.timestamp <= max_gap
            for earlier in remaining[:index])
        if not has_referrer:
            released.append(request)
    return released
