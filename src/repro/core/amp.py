"""All-Maximal-Paths (AMP) — the Bayir–Toroslu 2013 Phase-2 generalization.

Smart-SRA's Phase 2 extends *one wave* of maximal link-consistent
sessions.  The authors' follow-up — "Link Based Session Reconstruction:
Finding All Maximal Paths" (arXiv 1307.1927, PAPERS.md) — generalizes it:
model each Phase-1 candidate as a DAG over request *ordinals* with an edge
``a → b`` whenever

* ``a`` precedes ``b`` in the candidate (timestamp ordering rule; ties
  resolve by ordinal, matching the candidate's stable sort order),
* ``0 ≤ t_b − t_a ≤ ρ`` (page-stay rule), and
* the topology has a hyperlink ``page_a → page_b`` (topology rule),

then emit **every maximal path**: every path from a root (in-degree 0) to
a sink (out-degree 0).  The total-duration rule (δ) needs no per-path
check — Phase 1 already bounds the whole candidate's span, and every path
lives inside it.

Two properties this module relies on (both property-tested):

* **Nothing is dropped.**  Every request is reachable from some root
  (walk blockers backwards until in-degree 0), so every request appears
  in at least one emitted path — unlike Phase 2, whose released pages can
  be orphaned under degraded inputs.
* **Maximality is structural.**  No emitted path is a proper *contiguous*
  infix of another: a path starts at an in-degree-0 node and ends at an
  out-degree-0 node, so any contiguous containment would contradict one
  endpoint's degree.  (Plain *subsequence* containment is legal output —
  ``[P1, P3]`` alongside ``[P1, P2, P3]`` when the link ``P1 → P3``
  exists — which is why the invariant verifier's maximality rule is
  semantics-aware; see :mod:`repro.diffcheck.invariants`.)

The danger is exactly the one Meiss et al. ("What's in a Session",
PAPERS.md) predict: dense, cyclic, crawler-shaped click graphs make the
path count combinatorial (a length-``n`` candidate over a complete
topology has ``2^(n-2)`` maximal paths).  Both implementations therefore
compute the **exact** path count first — an O(V+E) big-int dynamic
program, no enumeration — and apply the configured
:class:`AMPConfig` overflow policy *before* materializing anything, so
memory stays bounded no matter how adversarial the workload.

Two implementations, byte-identical canonical digests required (enforced
by the ``amp-reference`` / ``amp-optimized`` diffcheck engines):

* :func:`amp_sessions_reference` — clear DFS over the candidate graph
  built with :meth:`~repro.topology.graph.WebGraph.has_link` calls.
* :func:`amp_sessions_optimized` — interned adjacency from
  :class:`repro.core.columnar.SymbolTable` (ids == adjacency ranks, so
  link tests are set-membership on ints), backward ρ-window edge scan,
  and memoized suffix extension (each node's maximal suffixes are built
  once, bottom-up in reverse ordinal order, instead of re-walked per
  path).

Both enumerate in the same order — roots by ascending ordinal, successors
by ascending ordinal — so even *truncated* outputs agree byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.config import SmartSRAConfig
from repro.exceptions import ConfigurationError, PathBudgetError
from repro.obs import get_registry
from repro.sessions.model import Request, Session
from repro.topology.graph import WebGraph

__all__ = [
    "AMP_OVERFLOW_POLICIES",
    "AMPConfig",
    "AMPCandidateOutcome",
    "count_maximal_paths",
    "amp_sessions_reference",
    "amp_sessions_optimized",
    "AMPAudit",
    "audit_amp_config",
]

#: Legal :attr:`AMPConfig.overflow` policies, in degradation-severity order.
AMP_OVERFLOW_POLICIES = ("block", "truncate", "raise")


@dataclass(frozen=True, slots=True)
class AMPConfig:
    """Explosion guards for All-Maximal-Paths enumeration.

    Attributes:
        path_budget: maximum number of maximal paths one Phase-1 candidate
            may emit.  The exact count is known *before* enumeration (an
            O(V+E) counting pass), so the budget is enforced without
            materializing a single over-budget path.
        overflow: what to do when a candidate's exact path count exceeds
            ``path_budget``:

            * ``"block"`` — skip the candidate entirely (emit nothing for
              it) and count it in ``sessions.amp.blocked_candidates``;
            * ``"truncate"`` (default) — emit exactly the first
              ``path_budget`` paths in the deterministic shared
              enumeration order, so reference and optimized digests still
              agree byte for byte;
            * ``"raise"`` — raise :class:`~repro.exceptions.PathBudgetError`
              with the offending count.
    """

    path_budget: int = 4096
    overflow: str = "truncate"

    def __post_init__(self) -> None:
        if self.path_budget < 1:
            raise ConfigurationError(
                f"path_budget must be at least 1, got {self.path_budget}")
        if self.overflow not in AMP_OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"unknown overflow policy {self.overflow!r}; expected one "
                f"of {', '.join(AMP_OVERFLOW_POLICIES)}")


@dataclass(slots=True)
class AMPCandidateOutcome:
    """Per-candidate enumeration result, budget verdict included.

    Attributes:
        sessions: the emitted maximal-path sessions (possibly truncated,
            possibly empty under ``"block"``).
        path_count: the *exact* number of maximal paths the candidate
            graph holds, regardless of how many were emitted.
        policy: ``None`` when the candidate fit its budget, else the
            overflow policy that fired (``"block"`` or ``"truncate"``;
            ``"raise"`` never returns).
    """

    sessions: list[Session]
    path_count: int
    policy: str | None


def _publish_amp(candidates: int, paths: int, truncated_paths: int,
                 blocked: int) -> None:
    """Flush AMP tallies to the ambient registry (phase2 idiom: the hot
    loop stays metric-free, one flush per reconstruct-user call)."""
    registry = get_registry()
    if registry.enabled:
        registry.counter("sessions.amp.candidates").inc(candidates)
        registry.counter("sessions.amp.paths").inc(paths)
        registry.counter("sessions.amp.truncated_paths").inc(truncated_paths)
        registry.counter("sessions.amp.blocked_candidates").inc(blocked)


# -- candidate graph construction --------------------------------------------


def _graph_reference(candidate: Sequence[Request], topology: WebGraph,
                     max_gap: float
                     ) -> tuple[list[int], list[list[int]]]:
    """Build the candidate DAG with plain :meth:`WebGraph.has_link` calls.

    Returns ``(roots, successors)`` over request ordinals; successor lists
    are ascending (the shared enumeration order).  The forward scan stops
    at the first request past the ρ window — timestamps are sorted, so the
    gap is monotone in ``j``.
    """
    n = len(candidate)
    successors: list[list[int]] = [[] for __ in range(n)]
    in_degree = [0] * n
    for i in range(n):
        earlier = candidate[i]
        for j in range(i + 1, n):
            later = candidate[j]
            # same subtraction form as Phase 2's window test — never
            # rearranged algebraically, so float rounding cannot disagree
            # between implementations.
            gap = later.timestamp - earlier.timestamp
            if gap > max_gap:
                break
            if 0 <= gap and topology.has_link(earlier.page, later.page):
                successors[i].append(j)
                in_degree[j] += 1
    roots = [i for i in range(n) if in_degree[i] == 0]
    return roots, successors


def _graph_interned(times: Sequence[float], ids: Sequence[int],
                    pred_id_sets: Sequence[frozenset[int]], n_topology: int,
                    max_gap: float) -> tuple[list[int], list[list[int]]]:
    """Build the candidate DAG on interned symbol ids.

    ``ids`` come from a :class:`~repro.core.columnar.SymbolTable` seeded
    for the topology, so topology pages carry their adjacency rank
    (``< n_topology``) and the link test is integer set membership on the
    precomputed predecessor sets; off-topology pages (``>= n_topology``)
    have no links in either direction.  The backward scan from each
    ``j`` stops at the first request outside the ρ window, mirroring
    :func:`repro.core.phase2.maximal_sessions_fast`'s blocker scan.
    """
    n = len(times)
    successors: list[list[int]] = [[] for __ in range(n)]
    in_degree = [0] * n
    for j in range(n):
        pid = ids[j]
        if pid >= n_topology:
            continue
        predecessors = pred_id_sets[pid]
        if not predecessors:
            continue
        timestamp = times[j]
        for i in range(j - 1, -1, -1):
            if timestamp - times[i] > max_gap:
                break
            if ids[i] in predecessors:
                # outer j ascends, so each successors[i] stays ascending.
                successors[i].append(j)
                in_degree[j] += 1
    roots = [i for i in range(n) if in_degree[i] == 0]
    return roots, successors


# -- counting and enumeration ------------------------------------------------


def count_maximal_paths(roots: Sequence[int],
                        successors: Sequence[Sequence[int]]) -> int:
    """Exact maximal-path count of a candidate DAG, without enumerating.

    ``paths_from[i]`` is 1 at a sink, else the sum over successors —
    evaluated in reverse ordinal order (edges only go forward, so that is
    a reverse topological order).  Python big ints make the count exact
    even when it is astronomically past any budget (a length-50 complete
    candidate counts ``2^48`` paths in microseconds).
    """
    n = len(successors)
    paths_from = [0] * n
    for i in range(n - 1, -1, -1):
        succ = successors[i]
        paths_from[i] = (1 if not succ
                         else sum(paths_from[j] for j in succ))
    return sum(paths_from[i] for i in roots)


def _iter_paths(roots: Sequence[int],
                successors: Sequence[Sequence[int]]):
    """Lazily yield every maximal path in the shared enumeration order.

    Iterative DFS (explicit stack — adversarial candidates can be longer
    than the recursion limit): roots ascending, successors ascending, so
    paths arrive in lexicographic ordinal order.  Used by the reference
    implementation always, and by the optimized one under ``"truncate"``
    where materializing the memo table would defeat the budget's point.
    """
    for root in roots:
        path = [root]
        # (node, index of the next successor to descend into)
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            node, cursor = stack[-1]
            succ = successors[node]
            if not succ:
                yield tuple(path)
                stack.pop()
                path.pop()
                continue
            if cursor == len(succ):
                stack.pop()
                path.pop()
                continue
            stack[-1] = (node, cursor + 1)
            child = succ[cursor]
            stack.append((child, 0))
            path.append(child)


def _suffix_paths(successors: Sequence[Sequence[int]]
                  ) -> list[list[tuple[int, ...]]]:
    """Memoized suffix extension: every node's maximal suffixes, built once.

    Reverse ordinal order is reverse topological order, so each node's
    suffix list concatenates its successors' already-built lists — shared
    suffixes are walked once instead of once per path through them.  List
    order per node is (successor ascending, then that successor's own
    order), which makes ``suffixes[root]`` identical to the DFS order of
    :func:`_iter_paths` from that root.
    """
    n = len(successors)
    suffixes: list[list[tuple[int, ...]]] = [[] for __ in range(n)]
    for i in range(n - 1, -1, -1):
        succ = successors[i]
        if not succ:
            suffixes[i] = [(i,)]
        else:
            suffixes[i] = [(i,) + tail
                           for j in succ for tail in suffixes[j]]
    return suffixes


# -- the two public per-candidate entry points -------------------------------


def _budget_verdict(count: int, amp: AMPConfig,
                    candidate: Sequence[Request]) -> str | None:
    """Apply the overflow policy to an exact pre-enumeration count."""
    if count <= amp.path_budget:
        return None
    if amp.overflow == "raise":
        user = candidate[0].user_id if candidate else "?"
        raise PathBudgetError(
            f"candidate for user {user!r} ({len(candidate)} requests) has "
            f"{count} maximal paths, over the path budget of "
            f"{amp.path_budget}; lower the density, raise the budget, or "
            f"pick overflow='block'/'truncate'")
    return amp.overflow


def amp_sessions_reference(candidate: Sequence[Request], topology: WebGraph,
                           config: SmartSRAConfig | None = None,
                           amp: AMPConfig | None = None
                           ) -> AMPCandidateOutcome:
    """Enumerate one candidate's maximal paths — clear reference version.

    Args:
        candidate: a chronological Phase-1 candidate
            (:func:`repro.core.phase1.split_candidates` output).
        topology: the site's hyperlink graph; off-topology pages have no
            links and become singleton paths.
        config: Smart-SRA thresholds (only ρ = ``max_gap`` is consulted;
            δ is already enforced by Phase 1 on the whole candidate).
        amp: explosion guards; defaults to :class:`AMPConfig`'s.
    """
    if config is None:
        config = SmartSRAConfig()
    if amp is None:
        amp = AMPConfig()
    if not candidate:
        return AMPCandidateOutcome([], 0, None)
    roots, successors = _graph_reference(candidate, topology, config.max_gap)
    count = count_maximal_paths(roots, successors)
    policy = _budget_verdict(count, amp, candidate)
    if policy == "block":
        return AMPCandidateOutcome([], count, policy)
    sessions: list[Session] = []
    for path in _iter_paths(roots, successors):
        if len(sessions) == amp.path_budget:
            break
        sessions.append(Session([candidate[i] for i in path]))
    return AMPCandidateOutcome(sessions, count, policy)


def amp_sessions_optimized(candidate: Sequence[Request], topology: WebGraph,
                           config: SmartSRAConfig | None = None,
                           amp: AMPConfig | None = None, *,
                           interner: Any | None = None
                           ) -> AMPCandidateOutcome:
    """Enumerate one candidate's maximal paths — interned, memoized version.

    Same contract and byte-identical output as
    :func:`amp_sessions_reference`; see the module docstring for what is
    optimized.  ``interner`` is an optional pre-built
    :class:`~repro.core.columnar.SymbolTable` to reuse across candidates
    (the reconstructor builds one per reconstruct call); when ``None`` a
    fresh table is seeded from ``topology``.

    Under ``"truncate"`` overflow the memo table is *not* built — its
    size tracks the full path count, which is exactly what the budget
    exists to avoid — so the first ``path_budget`` paths stream out of
    the lazy shared-order DFS instead.
    """
    # Imported here: repro.core.columnar imports numpy, sessions.model
    # and topology, so importing core.amp does not pull in the columnar
    # plane until an AMP candidate is actually enumerated.
    from repro.core.columnar import SymbolTable

    if config is None:
        config = SmartSRAConfig()
    if amp is None:
        amp = AMPConfig()
    if not candidate:
        return AMPCandidateOutcome([], 0, None)
    symbols = interner if interner is not None else (
        SymbolTable.for_topology(topology))
    index = topology.adjacency_index()
    intern = symbols.intern
    ids = [intern(request.page) for request in candidate]
    times = [request.timestamp for request in candidate]
    roots, successors = _graph_interned(
        times, ids, index.pred_id_sets, symbols.n_topology, config.max_gap)
    count = count_maximal_paths(roots, successors)
    policy = _budget_verdict(count, amp, candidate)
    if policy == "block":
        return AMPCandidateOutcome([], count, policy)
    sessions: list[Session] = []
    if policy == "truncate":
        for path in _iter_paths(roots, successors):
            if len(sessions) == amp.path_budget:
                break
            sessions.append(Session.from_trusted_parts(
                tuple(candidate[i] for i in path)))
    else:
        suffixes = _suffix_paths(successors)
        for root in roots:
            for path in suffixes[root]:
                sessions.append(Session.from_trusted_parts(
                    tuple(candidate[i] for i in path)))
    return AMPCandidateOutcome(sessions, count, policy)


# -- configuration audit (repro doctor) --------------------------------------


@dataclass(slots=True)
class AMPAudit:
    """Outcome of auditing an AMP configuration (``repro doctor``).

    Attributes:
        amp: the audited configuration.
        checks: ``(level, message)`` conclusions; levels are ``"ok"``,
            ``"warn"`` and ``"FAIL"`` (same vocabulary as
            :class:`repro.streaming.governor.OverloadAudit`).
    """

    amp: AMPConfig
    checks: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        """True when no check failed (warnings are advisory)."""
        return all(level != "FAIL" for level, _ in self.checks)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (``repro doctor --json``)."""
        return {
            "path_budget": self.amp.path_budget,
            "overflow": self.amp.overflow,
            "checks": [{"level": level, "message": message}
                       for level, message in self.checks],
            "ok": self.ok,
        }

    def render(self) -> str:
        """Human-readable audit, one conclusion per line."""
        lines = [
            f"amp configuration: path-budget={self.amp.path_budget}"
            f" overflow={self.amp.overflow}"]
        for level, message in self.checks:
            lines.append(f"  {level:<4}  {message}")
        lines.append(f"  verdict: {'ok' if self.ok else 'DEGRADED'}")
        return "\n".join(lines)


def audit_amp_config(amp: AMPConfig, *, memory_budget: int | None = None,
                     typical_cost: int = 96,
                     typical_path_length: int = 8) -> AMPAudit:
    """Audit an AMP configuration for operational sanity.

    Static construction errors are :class:`ConfigurationError` at
    :class:`AMPConfig` time; this audit catches configurations that are
    *legal but degenerate* — above all a path budget whose worst-case
    materialized output dwarfs the streaming governor's memory budget,
    which would let a single dense candidate blow the budget the governor
    thinks it is enforcing.

    Args:
        amp: the (already validated) configuration to audit.
        memory_budget: the streaming governor's memory budget in bytes,
            when AMP runs behind the governed pipeline; ``None`` audits
            the config standalone.
        typical_cost: planning estimate for one request's tracked bytes.
        typical_path_length: planning estimate for one maximal path's
            request count.
    """
    checks: list[tuple[str, str]] = []
    worst_case = amp.path_budget * typical_path_length * typical_cost
    checks.append(
        ("ok", f"worst case ~{worst_case}B materialized per candidate "
               f"({amp.path_budget} paths x {typical_path_length} requests "
               f"x {typical_cost}B)"))
    if memory_budget is not None:
        if worst_case > memory_budget:
            checks.append(
                ("FAIL", f"one over-budget candidate materializes "
                         f"~{worst_case}B, over the governor's whole "
                         f"memory budget ({memory_budget}B) — the path "
                         f"budget undoes the memory budget; lower "
                         f"path_budget below ~"
                         f"{memory_budget // (typical_path_length * typical_cost)}"))
        elif worst_case > memory_budget // 2:
            checks.append(
                ("warn", f"one candidate may materialize ~{worst_case}B "
                         f"({100 * worst_case / memory_budget:.0f}% of the "
                         f"governor's budget); expect rebalancing churn "
                         f"while AMP output drains"))
        else:
            checks.append(
                ("ok", f"path budget fits the governor's memory budget "
                       f"({100 * worst_case / memory_budget:.1f}%)"))
    if amp.overflow == "raise":
        checks.append(
            ("warn", "overflow='raise' turns adversarial traffic into hard "
                     "failures; block/truncate degrade gracefully"))
    if amp.path_budget > 1_000_000:
        checks.append(
            ("warn", f"path_budget {amp.path_budget} is past 1M; counting "
                     f"stays exact but enumeration cost is linear in the "
                     f"budget"))
    return AMPAudit(amp=amp, checks=checks)
