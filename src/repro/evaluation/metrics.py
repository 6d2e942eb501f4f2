"""Accuracy metrics (paper §5.1) and extended diagnostics.

The paper's headline number is **real accuracy** — "the ratio of correctly
reconstructed sessions over the number of real sessions", where a
reconstructed session H captures a real session R when R ⊏ H (contiguous
subsequence).  Two readings of that ratio are implemented:

* **any-capture** (:attr:`AccuracyReport.accuracy`): R counts when *some* H
  captures it.  This is the literal reading of the ⊏ definition, but it
  lets one giant under-segmented session capture every real session of its
  user, so a heuristic that never splits scores deceptively well.
* **one-to-one matched** (:attr:`AccuracyReport.matched_accuracy`): each
  reconstructed session may be credited with at most one real session
  (maximum bipartite matching on the capture relation).  This reading
  rewards *correct segmentation* — precisely what the paper's experiments
  discriminate — and reproduces the magnitude ordering of Figures 8-10;
  the benchmarks report it as the headline series.  See EXPERIMENTS.md.

:func:`evaluate_reconstruction` additionally reports diagnostics the paper
discusses qualitatively — reconstructed session counts and lengths
(heur3's inserted back-movements inflate length), exact matches, and a
precision analogue (the fraction of reconstructed sessions that capture
some real session).
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.evaluation.subsequence import contains
from repro.exceptions import EvaluationError
from repro.sessions.model import Session, SessionSet

__all__ = [
    "session_captured",
    "real_accuracy",
    "evaluate_reconstruction",
    "AccuracyReport",
]


def session_captured(real: Session,
                     reconstructed: Iterable[Session]) -> bool:
    """Whether any session in ``reconstructed`` captures ``real`` (⊏)."""
    pages = real.pages
    return any(contains(candidate.pages, pages)
               for candidate in reconstructed)


@dataclass(frozen=True, slots=True)
class AccuracyReport:
    """Evaluation result for one (ground truth, reconstruction) pair.

    Attributes:
        heuristic: name of the evaluated reconstructor.
        total_real: number of ground-truth sessions (the denominator).
        captured: ground-truth sessions captured by ⊏ (any-capture).
        matched: ground-truth sessions credited under the one-to-one
            matching (each reconstructed session matches at most one).
        exact: ground-truth sessions reproduced *verbatim* (page sequences
            equal) — a stricter diagnostic than the paper's metric.
        reconstructed_count: sessions the heuristic produced.
        productive: reconstructed sessions that capture at least one real
            session (a precision analogue).
        mean_real_length: mean ground-truth session length, in requests.
        mean_reconstructed_length: mean reconstructed session length —
            heur3's path completion shows up here.
    """

    heuristic: str
    total_real: int
    captured: int
    matched: int
    exact: int
    reconstructed_count: int
    productive: int
    mean_real_length: float
    mean_reconstructed_length: float

    @property
    def accuracy(self) -> float:
        """Any-capture real accuracy: ``captured / total_real``.

        With no ground-truth sessions the ratio is vacuously ``1.0``
        (there was nothing to recover and nothing was missed); spurious
        reconstructed output still shows up in :attr:`precision`.
        """
        if self.total_real == 0:
            return 1.0
        return self.captured / self.total_real

    @property
    def matched_accuracy(self) -> float:
        """One-to-one matched real accuracy: ``matched / total_real``.

        Vacuously ``1.0`` when the ground truth is empty, mirroring
        :attr:`accuracy`.
        """
        if self.total_real == 0:
            return 1.0
        return self.matched / self.total_real

    @property
    def precision(self) -> float:
        """``productive / reconstructed_count`` (0.0 when nothing produced)."""
        if self.reconstructed_count == 0:
            return 0.0
        return self.productive / self.reconstructed_count

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe) for reports and checkpoints."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> AccuracyReport:
        """Rebuild a report from :meth:`to_dict` output.

        Unknown keys are ignored so documents written by a newer minor
        version still load; a missing field raises ``TypeError`` — the
        checkpoint layer treats that as a corrupt unit and recomputes.
        """
        names = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in names})


def _maximum_matching(adjacency: list[list[int]]) -> int:
    """Size of a maximum bipartite matching (Hopcroft–Karp).

    ``adjacency[i]`` lists the right-side partner ids of left node ``i``.
    A greedy pass matches every left node it can to a free partner; then
    each phase layers the graph by a breadth-first search from the free
    left nodes and augments along layered paths until none is left, so
    the search costs O(E·√V), not Kuhn's O(V·E) when cross-user matching
    puts every real session in one group.  Paths are walked over an
    explicit stack of ``(left, remaining partners)`` frames, so a chain
    as deep as the group needs no interpreter recursion.
    """
    match_left: list[int | None] = [None] * len(adjacency)
    match_right: dict[int, int] = {}
    for left, partners in enumerate(adjacency):
        for right in partners:
            if right not in match_right:
                match_right[right] = left
                match_left[left] = right
                break
    size = len(match_right)
    while True:
        free = [left for left, right in enumerate(match_left)
                if right is None and adjacency[left]]
        layer = [-1] * len(adjacency)
        for left in free:
            layer[left] = 0
        queue = list(free)
        reachable = False
        for left in queue:
            for right in adjacency[left]:
                occupant = match_right.get(right)
                if occupant is None:
                    reachable = True
                elif layer[occupant] < 0:
                    layer[occupant] = layer[left] + 1
                    queue.append(occupant)
        if not reachable:
            return size
        for root in free:
            stack = [(root, iter(adjacency[root]))]
            # path[k] is the right node that frame k took to reach k + 1
            path: list[int] = []
            while stack:
                left, partners = stack[-1]
                for right in partners:
                    occupant = match_right.get(right)
                    if occupant is None:
                        path.append(right)
                        for (node, __), taken in zip(stack, path):
                            match_right[taken] = node
                            match_left[node] = taken
                        size += 1
                        stack.clear()
                        break
                    if layer[occupant] == layer[left] + 1:
                        path.append(right)
                        stack.append((occupant, iter(adjacency[occupant])))
                        break
                else:
                    # no augmenting path through ``left`` in this phase.
                    layer[left] = -1
                    stack.pop()
                    if path:
                        path.pop()


class _Codes(dict):
    """Page id → one code point, assigned on first sight from U+0001 up
    (U+0000 separates sessions); room for 1 114 111 distinct pages."""

    def __missing__(self, page: str) -> str:
        code = self[page] = chr(len(self) + 1)
        return code


def _pool(texts: list[str], members: list[int] | range
          ) -> tuple[str, list[int], list[int] | range]:
    """Encoded sessions joined by U+0000, their start offsets, and the
    ``SessionSet`` index of each."""
    starts = []
    offset = 0
    for text in texts:
        starts.append(offset)
        offset += len(text) + 1
    return "\0".join(texts), starts, members


def _capture_relation(ground_truth: SessionSet, reconstructed: SessionSet,
                      match_within_user: bool = True
                      ) -> tuple[list[list[int]], dict[str, list[int]]]:
    """The capture relation ``R ⊏ H`` between two session sets.

    Returns ``(edges, groups)``.  ``edges[i]`` lists, ascending, the
    ``reconstructed`` indices whose session captures ground-truth session
    ``i``.  ``groups`` maps a matching group to its ground-truth indices:
    a real session is matched within its user's group when
    ``match_within_user`` holds and it is non-empty, and in the ``""``
    group otherwise.

    A user's pool holds that user's non-empty reconstructed sessions; the
    global pool holds every reconstructed session, empty ones included.
    The empty needle is captured by every session of its pool.

    Every page is one code point, so a session is a ``str`` and a pool is
    its sessions joined by U+0000: each capture is a ``str.find`` hit,
    mapped back to its session by ``bisect``, and the search resumes at
    the next session's start.  :func:`~repro.evaluation.subsequence.
    contains` is the specification this is property-tested against.
    """
    codes = _Codes()
    encode = codes.__getitem__
    texts = ["".join(map(encode, session.pages))
             for session in reconstructed]
    members_by_user: dict[str, list[int]] = {}
    for index, session in enumerate(reconstructed):
        if session:
            members_by_user.setdefault(session.user_id, []).append(index)
    pools = {user: _pool([texts[index] for index in members], members)
             for user, members in members_by_user.items()}
    no_pool = _pool([], [])
    global_pool = None

    edges: list[list[int]] = []
    groups: dict[str, list[int]] = {}
    for real_index, real in enumerate(ground_truth):
        if match_within_user and real:
            group = real.user_id
            text, starts, members = pools.get(group, no_pool)
        else:
            group = ""
            if global_pool is None:
                global_pool = _pool(texts, range(len(texts)))
            text, starts, members = global_pool
        needle = "".join(map(encode, real.pages))
        hits = []
        if starts:
            last = len(starts) - 1
            at = text.find(needle)
            while at != -1:
                slot = bisect_right(starts, at) - 1
                hits.append(members[slot])
                if slot == last:
                    break
                at = text.find(needle, starts[slot + 1])
        edges.append(hits)
        groups.setdefault(group, []).append(real_index)
    return edges, groups


def real_accuracy(ground_truth: SessionSet, reconstructed: SessionSet,
                  match_within_user: bool = True) -> float:
    """The paper's accuracy metric as a bare number.

    Args:
        ground_truth: the simulator's real sessions.
        reconstructed: one heuristic's output.
        match_within_user: when ``True`` (default), a real session may only
            be captured by a reconstructed session of the *same user* —
            the natural reading, since heuristics reconstruct per user.
            ``False`` matches against the whole reconstructed set (needed
            when identities were translated, e.g. after a CLF round trip
            with proxy sharing).

    Raises:
        EvaluationError: when ``ground_truth`` is empty.
    """
    report = evaluate_reconstruction("(anonymous)", ground_truth,
                                     reconstructed, match_within_user)
    return report.accuracy


def evaluate_reconstruction(heuristic: str, ground_truth: SessionSet,
                            reconstructed: SessionSet,
                            match_within_user: bool = True, *,
                            allow_empty: bool = False) -> AccuracyReport:
    """Full evaluation of one heuristic's output against ground truth.

    See :func:`real_accuracy` for the ``match_within_user`` semantics.

    Args:
        allow_empty: permit an empty ``ground_truth`` and return a report
            with ``total_real == 0`` (accuracies vacuously 1.0) instead of
            raising.  An empty ground truth is usually an upstream mistake,
            so the default stays strict; the differential harness and
            empty-corpus evaluations opt in explicitly.

    Raises:
        EvaluationError: when ``ground_truth`` is empty and ``allow_empty``
            is false.
    """
    if len(ground_truth) == 0 and not allow_empty:
        raise EvaluationError(
            "cannot evaluate against an empty ground truth")

    edges, groups = _capture_relation(ground_truth, reconstructed,
                                      match_within_user)
    sizes = [len(session) for session in reconstructed]
    exact = 0
    productive: set[int] = set()
    for real, hits in zip(ground_truth, edges):
        # a capture as long as the real session is the session verbatim
        size = len(real)
        exact += any(sizes[index] == size for index in hits)
        productive.update(hits)
    matched = sum(_maximum_matching([edges[index] for index in group])
                  for group in groups.values())

    return AccuracyReport(
        heuristic=heuristic,
        total_real=len(ground_truth),
        captured=sum(map(bool, edges)),
        matched=matched,
        exact=exact,
        reconstructed_count=len(reconstructed),
        productive=len(productive),
        mean_real_length=ground_truth.mean_length(),
        mean_reconstructed_length=reconstructed.mean_length(),
    )
