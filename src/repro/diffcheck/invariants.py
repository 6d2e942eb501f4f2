"""The Smart-SRA output contract, checkable after the fact.

The paper defines a valid session by construction; Bayir & Toroslu's
follow-up (arXiv:1307.1927, *Link Based Session Reconstruction: Finding
All Maximal Paths*) states the same contract as postconditions on the
output.  :func:`verify_sessions` checks those postconditions — the five
rules below — against *any* session list, independent of which execution
path produced it, so every engine (serial, columnar, streaming,
sharded) is held to one definition of correct:

1. **ordering** — requests within a session are in non-decreasing
   timestamp order (PAPER.md §Smart-SRA, rule 1);
2. **topology** — every consecutive page pair is connected by a
   hyperlink of the site graph (rule 2);
3. **max-gap** — no inter-request gap exceeds the page-stay threshold
   ρ (rule 3; the threshold itself is *inclusive*: a gap of exactly ρ
   is legal);
4. **max-duration** — the session spans at most the duration threshold
   δ (rule 4; inclusive likewise);
5. **maximality** — sessions are maximal paths: no session is a proper
   prefix of another session of the same user (it could have been
   extended), and no request is synthetic — Smart-SRA never fabricates
   the backward movements heur3 inserts.

The maximality rule is **engine-aware** (``semantics=``): Smart-SRA's
Phase 2 extends every open session each wave, so a proper prefix of a
sibling proves the prefix was extendable.  All-Maximal-Paths output is
different — ``[P1, P3]`` is legal *alongside* ``[P1, P2, P3]`` when the
link ``P1 → P3`` exists (both are root-to-sink paths), and with equal
timestamps one path's body can even be a proper prefix of a sibling's.
What AMP does promise is that no emitted path is a proper **contiguous
infix** of another (its endpoints are in-degree-0 / out-degree-0 nodes),
so ``semantics="amp"`` checks containment instead of prefixes — strong
enough to catch a deliberately truncated session, weak enough to accept
overlapping maximal paths (both directions are mutation-tested).

The verifier deliberately consumes bare request sequences (anything
iterable yielding :class:`~repro.sessions.model.Request`), not just
:class:`~repro.sessions.model.Session` — a session list deserialized
from a checkpoint or produced by a buggy engine may violate even the
constraints ``Session.__init__`` would enforce.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.config import SmartSRAConfig
from repro.sessions.model import Request
from repro.topology.graph import WebGraph

__all__ = ["INVARIANT_RULES", "InvariantViolation", "verify_sessions"]

#: The five rule identifiers, in the order the paper states them.
INVARIANT_RULES = ("ordering", "topology", "max-gap", "max-duration",
                   "maximality")


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One broken rule in one session.

    Attributes:
        rule: which of :data:`INVARIANT_RULES` was violated.
        session_index: position of the offending session in the input.
        user_id: user owning the session (``""`` for an empty session).
        detail: human-readable specifics (timestamps, pages, thresholds).
    """

    rule: str
    session_index: int
    user_id: str
    detail: str

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form for JSON reports."""
        return dataclasses.asdict(self)


def verify_sessions(sessions: Iterable[Sequence[Request]],
                    topology: WebGraph | None = None,
                    config: SmartSRAConfig | None = None, *,
                    semantics: str = "smart-sra",
                    ) -> tuple[InvariantViolation, ...]:
    """Check a session list against the paper's five output rules.

    Args:
        sessions: the reconstructed sessions, each an ordered request
            sequence (:class:`~repro.sessions.model.Session` qualifies).
        topology: the site graph for the hyperlink rule; ``None`` skips
            rule 2 (e.g. when checking bare Phase-1 candidates, which do
            not promise connectivity).
        config: the ρ/δ thresholds the run used (paper defaults when
            omitted).
        semantics: which maximality contract applies — ``"smart-sra"``
            (the default: a proper prefix of a same-user sibling is a
            violation) or ``"amp"`` (overlapping maximal paths are legal;
            a proper *contiguous infix* of a sibling with a strictly
            later/earlier neighbor at the boundary is a violation — the
            strict boundary is what proves the contained path's endpoint
            still had an edge available, while tie-timestamp boundaries
            stay legal because duplicate requests make them ambiguous).
            Rules 1-4 and the synthetic-request check are identical in
            both.

    Returns:
        Every violation found, in session order — empty for a compliant
        list.  One session may contribute several violations.

    Raises:
        ValueError: for an unknown ``semantics`` name.
    """
    if semantics not in ("smart-sra", "amp"):
        raise ValueError(
            f"unknown semantics {semantics!r}; use 'smart-sra' or 'amp'")
    cfg = config if config is not None else SmartSRAConfig()
    materialized = [tuple(session) for session in sessions]
    violations: list[InvariantViolation] = []

    # Per-user canonical bodies for the maximality (proper-prefix) rule.
    bodies_by_user: dict[str, list[tuple[tuple[float, str], ...]]] = {}
    for requests in materialized:
        if requests:
            bodies_by_user.setdefault(requests[0].user_id, []).append(
                tuple((r.timestamp, r.page) for r in requests))

    for index, requests in enumerate(materialized):
        user = requests[0].user_id if requests else ""

        for earlier, later in zip(requests, requests[1:]):
            if later.timestamp < earlier.timestamp:
                violations.append(InvariantViolation(
                    "ordering", index, user,
                    f"timestamp {later.timestamp} follows "
                    f"{earlier.timestamp}"))
            gap = later.timestamp - earlier.timestamp
            if gap > cfg.max_gap:
                violations.append(InvariantViolation(
                    "max-gap", index, user,
                    f"gap {gap}s between {earlier.page!r} and "
                    f"{later.page!r} exceeds rho={cfg.max_gap}s"))
            if topology is not None and not topology.has_link(
                    earlier.page, later.page):
                violations.append(InvariantViolation(
                    "topology", index, user,
                    f"no hyperlink {earlier.page!r} -> {later.page!r}"))

        if requests:
            span = requests[-1].timestamp - requests[0].timestamp
            if span > cfg.max_duration:
                violations.append(InvariantViolation(
                    "max-duration", index, user,
                    f"span {span}s exceeds delta={cfg.max_duration}s"))
            for request in requests:
                if request.synthetic:
                    violations.append(InvariantViolation(
                        "maximality", index, user,
                        f"synthetic request for {request.page!r} at "
                        f"t={request.timestamp} — Smart-SRA never inserts "
                        f"back-movements"))
                    break
            body = tuple((r.timestamp, r.page) for r in requests)
            if semantics == "smart-sra":
                for other in bodies_by_user.get(user, ()):
                    if (len(other) > len(body)
                            and other[:len(body)] == body):
                        violations.append(InvariantViolation(
                            "maximality", index, user,
                            f"session is a proper prefix of a longer "
                            f"session (next request would be "
                            f"{other[len(body)][1]!r} at "
                            f"t={other[len(body)][0]}) — it was extendable"))
                        break
            else:
                violation = _amp_containment(body, bodies_by_user.get(
                    user, ()))
                if violation is not None:
                    violations.append(InvariantViolation(
                        "maximality", index, user, violation))

    return tuple(violations)


def _amp_containment(body: tuple[tuple[float, str], ...],
                     siblings: Sequence[tuple[tuple[float, str], ...]]
                     ) -> str | None:
    """AMP maximality: is ``body`` provably contained in a sibling?

    A correct All-Maximal-Paths output never emits a path whose body
    occurs as a proper contiguous infix of a sibling's with a *strictly*
    earlier predecessor or strictly later successor at the boundary:
    the sibling's adjacent element then witnesses a hyperlink within ρ
    from/to the contained path's endpoint in the same candidate — so the
    endpoint was not a root/sink and the path could not have been
    enumerated.  Tie-timestamp boundaries are not flagged: with duplicate
    requests (same user, timestamp and page) a legal root can share its
    body with a mid-path node, making the occurrence ambiguous.

    Returns a violation detail string, or ``None`` when compliant.
    Quadratic in the user's session count — fine for corpus-sized cases,
    which is where the verifier runs.
    """
    length = len(body)
    if length == 0:
        return None
    for other in siblings:
        if len(other) <= length:
            continue
        for offset in range(len(other) - length + 1):
            if other[offset:offset + length] != body:
                continue
            left_strict = (offset > 0
                           and other[offset - 1][0] < body[0][0])
            right_strict = (offset + length < len(other)
                            and other[offset + length][0] > body[-1][0])
            if left_strict or right_strict:
                end = offset + length
                witness = (other[offset - 1] if left_strict
                           else other[end])
                return (f"session is a proper contiguous infix of a "
                        f"longer session with a strict boundary "
                        f"(neighboring request {witness[1]!r} at "
                        f"t={witness[0]} proves an endpoint was "
                        f"extendable)")
    return None
