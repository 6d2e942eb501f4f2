"""Columnar Smart-SRA data plane — vectorized reconstruction over int columns.

The object-path hot loops (:func:`repro.core.phase1.split_candidates`,
:func:`repro.core.phase2.maximal_sessions_fast`) traverse a Python object
graph: every record is a :class:`~repro.sessions.model.Request`, every
comparison an attribute load.
This module replaces that data plane with a **struct-of-arrays** view: a
user's clickstream becomes parallel columns of ``(timestamp, page-id,
referrer-id)`` with page URLs interned once per run into an integer
:class:`SymbolTable`, and both Smart-SRA phases run as array passes over
the whole multi-user batch at once.  ``Request``/``Session`` objects only
appear at the boundary — ingest interns them into columns, and the final
session index lists are handed, with the original requests, to an
index-form :class:`~repro.sessions.model.SessionSet`, which writes them
out without building a ``Session`` per row.

Backend
-------
numpy is a required dependency and the plane's only backend: columns are
numpy arrays and every pass is vectorized.  The readable references for
the same semantics are the object path's
:func:`~repro.core.phase2.maximal_sessions` (the oracle) and
:func:`~repro.core.phase2.maximal_sessions_fast` (the object and
streaming kernel); cross-engine equivalence is pinned by the property
suite and the ``repro diffcheck`` golden corpus.

Phase 2 as a DAG pass
---------------------
``maximal_sessions_fast`` releases requests in *waves* (a request joins the
wave after the one that consumed its last blocker) and extends open
sessions wave by wave.  That whole process is equivalent to a static DAG
computation, which is what makes it vectorizable:

* **edges** — within one candidate, ``a → b`` when ``link(page_a, page_b)``
  and ``0 <= t_b - t_a <= ρ``.  Forward edges (``a < b``) are exactly the
  blocker relation; equal-timestamp pairs additionally contribute
  *reversed* edges (``a > b``, ``t_a == t_b``) that can extend but never
  block.
* **wave** — longest-path depth over forward edges (``wave[b] = 1 +
  max(wave[a])`` over blockers, ``0`` with none): provably the release
  wave of the object path.
* **succ** — a session ending at ``a`` is consumed by the *first* wave
  holding a valid extender, branching into all of that wave's extenders:
  ``succ(a) = {b : wave[b] == min wave over edges a → b with wave[a] <
  wave[b]}``.  Forward edges always satisfy the wave inequality (a blocker
  strictly raises its dependent's wave); only reversed edges need the
  check.
* **sessions** — exactly the root-to-sink paths of the ``succ`` relation.
  Roots are the zero-wave requests, plus — under ``rescue_orphans`` — any
  released request no firing edge reaches (the rescued singletons).
  Without the rescue policy, a released request nothing reaches simply
  never exists, and reachability from the roots encodes that for free.

Paths are enumerated breadth-first over the whole batch (a trie of
``(request, parent)`` frontier blocks), so enumeration is also a handful of
array ops per depth level rather than a per-session Python walk.  Output
order within a user is deterministic — ``(path depth, discovery order)`` —
and independent of which other users share the batch.  It differs from the object engines' order; cross-engine comparison is by
canonical form, exactly as for ``maximal_sessions`` vs the fast path.

Float exactness
---------------
Every accepting comparison uses the *same* float expressions as the object
path — ``fl(t_b - t_a) <= ρ``, ``fl(t_i - t_first) > δ`` — never an
algebraically equal rearrangement.  Vectorized window discovery
(``searchsorted`` over offset timestamps) only ever produces *supersets*,
which the exact per-pair predicates then filter, so ρ/δ-boundary ties
resolve bit-identically to the object engines.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import attrgetter

import numpy as np

from repro.core.config import SmartSRAConfig
from repro.exceptions import ConfigurationError, ReconstructionError
from repro.obs import SIZE_BUCKETS, get_registry
from repro.sessions.model import Request, Session, SessionSet
from repro.topology.graph import WebGraph

__all__ = [
    "SymbolTable",
    "ColumnBatch",
    "ColumnarPlane",
    "PlaneResult",
    "reconstruct_serial",
]

#: dense adjacency matrices are capped at this many cells (16M booleans =
#: 16 MiB); larger topologies fall back to sorted-edge-key membership.
_DENSE_ADJACENCY_LIMIT = 1 << 24

# C-level attribute readers for the ingest hot loops.
_GET_TIMESTAMP = attrgetter("timestamp")
_GET_PAGE = attrgetter("page")


class SymbolTable:
    """Bidirectional page-URL ↔ integer-id interner.

    Seeded from a topology's :class:`~repro.topology.graph.AdjacencyIndex`
    so every topology page's symbol id **equals** its adjacency rank —
    the precomputed predecessor structures then apply to the columns
    directly.  Pages outside the topology intern on first sight to ids
    ``>= n_topology``; they have no links, so they never block and never
    extend (mirroring the object path's ``id -1`` convention).
    """

    __slots__ = ("_names", "_ids", "n_topology")

    def __init__(self, pages: Sequence[str] = ()) -> None:
        self._names: list[str] = list(pages)
        self._ids: dict[str, int] = {
            name: index for index, name in enumerate(self._names)}
        if len(self._ids) != len(self._names):
            raise ConfigurationError("symbol table seed has duplicate pages")
        #: ids below this bound are topology pages (== adjacency ranks).
        self.n_topology: int = len(self._names)

    @classmethod
    def for_topology(cls, topology: WebGraph) -> "SymbolTable":
        """Seed from ``topology`` so ids coincide with adjacency ranks."""
        return cls(topology.adjacency_index().pages)

    def intern(self, page: str) -> int:
        """Return ``page``'s id, assigning the next one on first sight."""
        ids = self._ids
        pid = ids.get(page)
        if pid is None:
            pid = ids[page] = len(self._names)
            self._names.append(page)
        return pid

    def resolve(self, pid: int) -> str:
        """The page name behind ``pid``.

        Raises:
            ReconstructionError: for an id this table never assigned.
        """
        if 0 <= pid < len(self._names):
            return self._names[pid]
        raise ReconstructionError(
            f"unknown page id {pid} (table holds {len(self._names)})")

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, page: str) -> bool:
        return page in self._ids

    @property
    def pages(self) -> tuple[str, ...]:
        """All interned page names, indexed by id."""
        return tuple(self._names)


#: referrer-id column value for "no referrer" (direct entry / plain CLF).
NO_REFERRER = -1


class ColumnBatch:
    """Many users' columns concatenated — what one plane pass consumes.

    Batching *across* users matters as much as vectorizing within one:
    per-array fixed overhead would otherwise dominate on real logs, where
    the median user contributes a handful of requests.  ``user_starts``
    has ``len(users) + 1`` entries (offset of each user plus the total),
    and candidate splitting forces a cut at every user boundary.
    """

    __slots__ = ("users", "user_starts", "times", "pages")

    def __init__(self, users, user_starts, times, pages) -> None:
        self.users = users
        self.user_starts = user_starts
        self.times = times
        self.pages = pages

    @classmethod
    def from_user_requests(cls, items,
                           symbols: SymbolTable) -> "ColumnBatch":
        """Intern ``[(user_id, sorted requests), ...]`` into one batch."""
        users: list[str] = []
        user_starts: list[int] = [0]
        cursor = 0
        for user_id, requests in items:
            users.append(user_id)
            cursor += len(requests)
            user_starts.append(cursor)
        pool = _request_pool(items)
        times = list(map(_GET_TIMESTAMP, pool))
        pages = list(map(symbols._ids.get, map(_GET_PAGE, pool)))
        if None in pages:     # only on first sight of off-topology pages
            intern = symbols.intern
            pages = [pid if pid is not None else intern(request.page)
                     for pid, request in zip(pages, pool)]
        return cls(users, np.asarray(user_starts, dtype=np.int64),
                   np.asarray(times, dtype=np.float64),
                   np.asarray(pages, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.times)


class PlaneResult:
    """Index-level output of one plane pass, grouped by batch user.

    ``session_flat[session_offsets[i]:session_offsets[i + 1]]`` holds the
    ``i``-th session's request positions (batch-global, ascending-time);
    sessions are ordered user by user (batch user order).  This is the
    form :func:`reconstruct_serial` hands to
    :class:`~repro.sessions.model.SessionSet`; benches time the plane up to
    exactly this point.
    """

    __slots__ = ("session_offsets", "session_flat", "user_session_counts")

    def __init__(self, session_offsets, session_flat,
                 user_session_counts) -> None:
        self.session_offsets = session_offsets
        self.session_flat = session_flat
        self.user_session_counts = user_session_counts

    def __len__(self) -> int:
        return max(0, len(self.session_offsets) - 1)


class ColumnarPlane:
    """The reconstruction pipeline over columns for one heuristic config.

    Two shapes exist: the full Smart-SRA plane (Phase-1 split + the
    Phase-2 DAG pass) and split-only planes for the time-oriented
    heuristics (δ-only for heur1, ρ-only for heur2, both for the Phase-1
    ablation) — one bound at infinity disables that rule in exactly the
    object path's ``>`` form, since nothing exceeds infinity.
    """

    def __init__(self, symbols: SymbolTable, *, max_gap: float,
                 max_duration: float, phase2: bool = False,
                 rescue_orphans: bool = False,
                 publish_phase1: bool = False,
                 pred_id_sets: tuple[frozenset[int], ...] = ()) -> None:
        self.symbols = symbols
        self.max_gap = max_gap
        self.max_duration = max_duration
        self.phase2 = phase2
        self.rescue_orphans = rescue_orphans
        self.publish_phase1 = publish_phase1
        self.pred_id_sets = pred_id_sets
        self._dense = None       # lazy numpy adjacency (never pickled)
        self._edge_keys = None

    @classmethod
    def for_smart_sra(cls, topology: WebGraph,
                      config: SmartSRAConfig | None = None
                      ) -> "ColumnarPlane":
        """The full heur4 plane: split + topology DAG pass."""
        if config is None:
            config = SmartSRAConfig()
        index = topology.adjacency_index()
        return cls(SymbolTable(index.pages), max_gap=config.max_gap,
                   max_duration=config.max_duration, phase2=True,
                   rescue_orphans=config.rescue_orphans,
                   publish_phase1=True,
                   pred_id_sets=index.pred_id_sets)

    @classmethod
    def split_only(cls, *, max_gap: float = math.inf,
                   max_duration: float = math.inf,
                   publish_phase1: bool = False) -> "ColumnarPlane":
        """A time-rules-only plane (heur1 / heur2 / Phase-1 ablation)."""
        return cls(SymbolTable(), max_gap=max_gap,
                   max_duration=max_duration,
                   publish_phase1=publish_phase1)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_dense"] = None       # workers rebuild lazily, payloads
        state["_edge_keys"] = None   # stay slim (mirrors WebGraph)
        return state

    @property
    def n_topology(self) -> int:
        return self.symbols.n_topology

    # -- the pass ----------------------------------------------------------

    def run_batch(self, batch: ColumnBatch) -> PlaneResult:
        """Run the full plane over one batch, publishing obs tallies.

        Phase-1 counters (``sessions.phase1.*``) match the object path
        exactly; so do the Phase-2 tallies (``sessions.phase2.*`` —
        candidates, extension hits, orphan misses, session count), proven
        by the counter-parity unit test.
        """
        starts = _split_numpy(batch.times, batch.user_starts,
                              self.max_gap, self.max_duration)
        self._publish_phase1(len(starts), len(batch),
                             _sizes_numpy(starts, len(batch)))
        if not self.phase2:
            return _candidates_as_result_numpy(batch, starts)
        return self._phase2_numpy(batch, starts)

    def _publish_phase1(self, n_candidates: int, n_requests: int,
                        sizes) -> None:
        if not self.publish_phase1:
            return
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter("sessions.phase1.candidates").inc(n_candidates)
        registry.counter("sessions.phase1.requests").inc(n_requests)
        histogram = registry.histogram("sessions.phase1.candidate_size",
                                       SIZE_BUCKETS)
        for size in sizes:
            histogram.observe(size)

    def _publish_phase2(self, n_candidates: int, hits: int, misses: int,
                        sessions: int) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter("sessions.phase2.candidates").inc(n_candidates)
            registry.counter("sessions.phase2.extensions").inc(hits)
            registry.counter("sessions.phase2.orphans").inc(misses)
            registry.counter("sessions.phase2.sessions").inc(sessions)

    # -- adjacency ---------------------------------------------------------

    def _linked_numpy(self, pa, pb):
        """Vector bool: is there a hyperlink ``page pa → page pb``?"""
        n_topo = self.n_topology
        if n_topo == 0 or pa.size == 0:
            return np.zeros(pa.shape, dtype=bool)
        known = (pa < n_topo) & (pb < n_topo)
        keys = np.where(known, pa * n_topo + pb, 0)
        if n_topo * n_topo <= _DENSE_ADJACENCY_LIMIT:
            dense = self._dense
            if dense is None:
                dense = np.zeros(n_topo * n_topo, dtype=bool)
                for dst, preds in enumerate(self.pred_id_sets):
                    if preds:
                        sources = np.fromiter(preds, dtype=np.int64,
                                              count=len(preds))
                        dense[sources * n_topo + dst] = True
                self._dense = dense
            return dense[keys] & known
        edge_keys = self._edge_keys
        if edge_keys is None:
            flat = [src * n_topo + dst
                    for dst, preds in enumerate(self.pred_id_sets)
                    for src in preds]
            edge_keys = self._edge_keys = np.sort(
                np.asarray(flat, dtype=np.int64))
        if edge_keys.size == 0:
            return np.zeros(pa.shape, dtype=bool)
        positions = np.searchsorted(edge_keys, keys)
        positions[positions == edge_keys.size] = 0
        return (edge_keys[positions] == keys) & known

    # -- phase 2, numpy ----------------------------------------------------

    def _phase2_numpy(self, batch: ColumnBatch, starts) -> PlaneResult:
        t = batch.times
        n = t.shape[0]
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            return PlaneResult(np.zeros(1, dtype=np.int64), empty,
                               np.zeros(len(batch.users), dtype=np.int64))
        max_gap = self.max_gap

        # Candidate geometry: ordinal and start offset per request.
        start_flags = np.zeros(n, dtype=np.int64)
        start_flags[starts] = 1
        cand_ord = np.cumsum(start_flags) - 1
        cand_start_of = starts[cand_ord]

        # Offset timestamps: per-candidate-normalized times spread onto a
        # stride that isolates candidates, so one global sorted array
        # answers every "tails within the window of b, same candidate"
        # query via searchsorted.  The window is ρ capped just past the
        # largest candidate span — a wider one adds no same-candidate
        # pair, and the cap keeps the stride finite when ρ = ∞.
        # Rounding only widens the windows (slack below); the exact
        # predicates filter afterwards.
        t_norm = t - t[cand_start_of]
        span = float(t_norm.max())
        window = min(max_gap, span + 1.0)
        stride = span + window + 2.0
        t_off = t_norm + cand_ord * stride
        slack = 1e-6 + abs(float(t_off[-1])) * 1e-12
        arange_n = np.arange(n, dtype=np.int64)
        lo = np.searchsorted(t_off, t_off - window - slack, side="left")

        # Expand windows to forward (tail a < released b) pairs only —
        # a ranges over [lo, b), so self-pairs and reversed pairs never
        # materialize.  Every window pair shares one candidate by
        # construction: candidates sit ≥ window + 2 apart on the t_off
        # axis (stride is the max span plus window + 2, slack is
        # microseconds), so the window can never reach a neighbour.  The
        # exact predicate is the object path's subtraction form; the
        # window is only its (slack-widened) superset.
        counts = arange_n - lo
        total = int(counts.sum())
        b_idx = np.repeat(arange_n, counts)
        exclusive = np.cumsum(counts) - counts
        a_idx = (np.arange(total, dtype=np.int64)
                 + np.repeat(lo - exclusive, counts))
        ok = t[b_idx] - t[a_idx] <= max_gap
        ok &= self._linked_numpy(batch.pages[a_idx], batch.pages[b_idx])
        fwd_a = a_idx[ok]
        fwd_b = b_idx[ok]

        # Reversed extension-only pairs exist solely inside runs of equal
        # timestamps (a > b, t_a == t_b) — expand those runs separately;
        # they are empty for most batches.
        eq_next = t_off[1:] == t_off[:-1]
        if bool(eq_next.any()):
            hi = np.searchsorted(t_off, t_off, side="right")
            rev_counts = hi - arange_n - 1
            rev_total = int(rev_counts.sum())
            rev_excl = np.cumsum(rev_counts) - rev_counts
            rb_idx = np.repeat(arange_n, rev_counts)
            ra_idx = (np.arange(rev_total, dtype=np.int64)
                      + np.repeat(arange_n + 1 - rev_excl, rev_counts))
            rok = t[ra_idx] == t[rb_idx]
            rok &= self._linked_numpy(batch.pages[ra_idx],
                                      batch.pages[rb_idx])
            rev_a = ra_idx[rok]
            rev_b = rb_idx[rok]
        else:
            rev_a = rev_b = np.zeros(0, dtype=np.int64)

        # Waves: longest-path depth over the forward (blocker) edges.
        wave = np.zeros(n, dtype=np.int64)
        if fwd_a.size:
            while True:
                relaxed = wave.copy()
                np.maximum.at(relaxed, fwd_b, wave[fwd_a] + 1)
                if np.array_equal(relaxed, wave):
                    break
                wave = relaxed
        rev_ok = wave[rev_a] < wave[rev_b]
        edge_a = np.concatenate([fwd_a, rev_a[rev_ok]])
        edge_b = np.concatenate([fwd_b, rev_b[rev_ok]])

        # succ: each tail keeps only edges into its minimal later wave.
        if edge_a.size:
            first_wave = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(first_wave, edge_a, wave[edge_b])
            succ = wave[edge_b] == first_wave[edge_a]
            succ_a = edge_a[succ]
            succ_b = edge_b[succ]
            order = np.lexsort((succ_b, succ_a))
            succ_a = succ_a[order]
            succ_b = succ_b[order]
        else:
            succ_a = succ_b = np.zeros(0, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(succ_a, minlength=n), out=indptr[1:])
        outdeg = indptr[1:] - indptr[:-1]

        if self.rescue_orphans:
            placed = np.zeros(n, dtype=bool)
            placed[succ_b] = True    # under rescue every succ edge fires
            roots = np.flatnonzero((wave == 0) | ~placed)
        else:
            roots = np.flatnonzero(wave == 0)

        # Breadth-first path trie over the whole batch.  Each node also
        # remembers its path's root request, so leaves can be sorted into
        # batch user order before backfill (sessions never cross users: a
        # session's user is its root's).
        req_blocks = [roots]
        parent_blocks = [np.full(roots.size, -1, dtype=np.int64)]
        root_blocks = [roots]
        leaf_blocks: list = []
        leaf_depths: list[int] = []
        frontier_req = roots
        frontier_ids = np.arange(roots.size, dtype=np.int64)
        frontier_roots = roots
        trie_size = int(roots.size)
        depth = 0
        while frontier_req.size:
            degrees = outdeg[frontier_req]
            is_leaf = degrees == 0
            if is_leaf.any():
                leaf_blocks.append(frontier_ids[is_leaf])
                leaf_depths.append(depth)
            grow = ~is_leaf
            parents = frontier_req[grow]
            if parents.size == 0:
                break
            parent_ids = frontier_ids[grow]
            child_counts = degrees[grow]
            n_children = int(child_counts.sum())
            exclusive = np.cumsum(child_counts) - child_counts
            slots = (np.arange(n_children, dtype=np.int64)
                     - np.repeat(exclusive, child_counts)
                     + np.repeat(indptr[parents], child_counts))
            children = succ_b[slots]
            req_blocks.append(children)
            parent_blocks.append(np.repeat(parent_ids, child_counts))
            frontier_roots = np.repeat(frontier_roots[grow], child_counts)
            root_blocks.append(frontier_roots)
            frontier_req = children
            frontier_ids = np.arange(trie_size, trie_size + n_children,
                                     dtype=np.int64)
            trie_size += n_children
            depth += 1

        trie_req = np.concatenate(req_blocks)
        trie_parent = np.concatenate(parent_blocks)
        trie_root = np.concatenate(root_blocks)
        if leaf_blocks:
            leaf_ids = np.concatenate(leaf_blocks)
            lengths = np.concatenate(
                [np.full(block.size, block_depth + 1, dtype=np.int64)
                 for block, block_depth in zip(leaf_blocks, leaf_depths)])
        else:  # pragma: no cover - every root terminates somewhere
            leaf_ids = np.zeros(0, dtype=np.int64)
            lengths = np.zeros(0, dtype=np.int64)

        # Sort sessions into batch user order up front (stable, so the
        # within-user emission order is the leaf discovery order), then
        # backfill each path directly into its final slot.
        user_of = np.searchsorted(batch.user_starts, trie_root[leaf_ids],
                                  side="right") - 1
        order = np.argsort(user_of, kind="stable")
        leaf_ids = leaf_ids[order]
        lengths = lengths[order]
        offsets = np.zeros(leaf_ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        cursor = leaf_ids
        positions = offsets[1:] - 1
        while cursor.size:    # backfill each path, one depth per step
            flat[positions] = trie_req[cursor]
            cursor = trie_parent[cursor]
            alive = cursor >= 0
            cursor = cursor[alive]
            positions = positions[alive] - 1
        user_counts = np.bincount(user_of, minlength=len(batch.users))

        released = int(np.count_nonzero(wave))
        if trie_req.size > roots.size:
            # hits = distinct extended requests = depth ≥ 1 trie nodes;
            # a scatter mask beats a sort-based unique here.
            reached = np.zeros(n, dtype=bool)
            reached[trie_req[roots.size:]] = True
            hits = int(np.count_nonzero(reached))
        else:
            hits = 0
        self._publish_phase2(int(starts.size), hits, released - hits,
                             int(leaf_ids.size))
        return PlaneResult(offsets, flat, user_counts)

# -- phase 1 ---------------------------------------------------------------

def _split_numpy(times, user_starts, max_gap: float, max_duration: float):
    """Candidate start offsets over a batch (numpy).

    Gap cuts and user boundaries come from one vectorized diff; the δ
    rule then refines only the (rare) segments whose total span exceeds
    it, re-testing candidates with ``searchsorted`` plus an exact
    subtraction-form adjustment so boundaries agree with the object path
    bit for bit.
    """
    n = times.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    diffs = times[1:] - times[:-1]
    is_user_start = np.zeros(n, dtype=bool)
    is_user_start[user_starts[:-1]] = True
    unsorted = (diffs < 0) & ~is_user_start[1:]
    if unsorted.any():
        i = int(np.flatnonzero(unsorted)[0])
        raise ReconstructionError(
            "request stream not sorted by timestamp: "
            f"{float(times[i])} then {float(times[i + 1])}")
    forced = is_user_start.copy()
    forced[1:] |= diffs > max_gap
    seg_starts = np.flatnonzero(forced)
    seg_ends = np.append(seg_starts[1:], n)
    overflow = np.flatnonzero(
        times[seg_ends - 1] - times[seg_starts] > max_duration)
    if overflow.size == 0:
        return seg_starts
    # Every overflowing segment advances one δ cut per round, all segments
    # at once: searchsorted over offset-isolated times proposes the cut,
    # then the exact subtraction-form predicate snaps it so boundaries
    # agree with the object path bit for bit (at most a rounding step or
    # two, because times[j] - times[cursor] is monotone in j).
    o_start = seg_starts[overflow]
    lengths = seg_ends[overflow] - o_start
    total = int(lengths.sum())
    excl = np.cumsum(lengths) - lengths
    gather = (np.arange(total, dtype=np.int64)
              - np.repeat(excl, lengths) + np.repeat(o_start, lengths))
    t_seg = times[gather]
    t_norm = t_seg - np.repeat(t_seg[excl], lengths)
    stride = float(t_norm.max()) + max_duration + 2.0
    t_off = t_norm + np.repeat(
        np.arange(overflow.size, dtype=np.float64) * stride, lengths)
    cur = excl
    end = excl + lengths
    cuts: list = []
    while True:
        active = t_seg[end - 1] - t_seg[cur] > max_duration
        if not active.any():
            break
        cur = cur[active]
        end = end[active]
        cut = np.searchsorted(t_off, t_off[cur] + max_duration,
                              side="right")
        while True:
            down = ((cut - 1 > cur)
                    & (t_seg[cut - 1] - t_seg[cur] > max_duration))
            if not down.any():
                break
            cut[down] -= 1
        while True:
            probe = np.minimum(cut, end - 1)
            up = (cut < end) & (t_seg[probe] - t_seg[cur] <= max_duration)
            if not up.any():
                break
            cut[up] += 1
        cuts.append(gather[cut])
        cur = cut
    return np.unique(np.concatenate([seg_starts] + cuts))


def _sizes_numpy(starts, n: int):
    return np.diff(np.append(starts, n)).tolist()


# -- result shaping --------------------------------------------------------

def _candidates_as_result_numpy(batch: ColumnBatch, starts) -> PlaneResult:
    n = len(batch)
    offsets = np.append(starts, n)
    counts = np.diff(np.searchsorted(starts, batch.user_starts))
    return PlaneResult(offsets if n else np.zeros(1, dtype=np.int64),
                       np.arange(n, dtype=np.int64), counts)


# -- materialization & drivers --------------------------------------------

def _request_pool(items) -> list[Request]:
    """Every user's requests concatenated: batch position -> request."""
    pool: list[Request] = []
    for __, requests in items:
        pool.extend(requests)
    return pool


def _session_set(items, result: PlaneResult) -> SessionSet:
    """The plane's output as an index-form
    :class:`~repro.sessions.model.SessionSet` over the *original*
    ``Request`` objects (``items`` aligns with the batch's users), so
    ``synthetic``/``referrer`` metadata survives exactly and no request
    is allocated at the boundary.  Sessions are built only if a caller
    asks for them; writing the set out does not."""
    return SessionSet._from_index(_request_pool(items),
                                  result.session_offsets.tolist(),
                                  result.session_flat)


def materialize_sessions(items, result: PlaneResult) -> list[Session]:
    """Turn index-level plane output into ``Session`` objects now.

    One C-level gather picks every referenced request; each session is
    then a tuple slice, so the per-session Python cost is one constructor
    call.  :func:`reconstruct_serial` does not call this: its set builds
    the same sessions on first use.
    """
    return list(_session_set(items, result))


def reconstruct_serial(plane: ColumnarPlane, per_user) -> SessionSet:
    """One batched plane pass over every user, as an index-form set."""
    items = list(per_user.items())
    batch = ColumnBatch.from_user_requests(items, plane.symbols)
    return _session_set(items, plane.run_batch(batch))
