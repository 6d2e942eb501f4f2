"""Error taxonomy: *how* does a reconstruction miss a session?

Accuracy says how often a heuristic fails; error analysis needs to know
*how*.  For each ground-truth session this module assigns exactly one
category, evaluated in order against the user's reconstructed sessions:

========== ============================================================
category   meaning
========== ============================================================
EXACT      some reconstructed session has exactly the real pages.
MERGED     some reconstructed session captures the real one (⊏) with
           extra context around it — under-segmentation.
SCATTERED  not captured, but every real page occurs *somewhere* in the
           user's reconstruction: the visit order or grouping was
           destroyed (over-segmentation or interleaving).
PARTIAL    only some of the real pages appear anywhere — typically the
           session's cache-served pages are simply absent from the log.
LOST       none of the real pages appear for this user.
========== ============================================================

Each heuristic has a signature error profile (benchmark A13): time
heuristics are dominated by MERGED (giant sessions), Smart-SRA's misses
concentrate in PARTIAL (cache-hidden first pages nothing reactive can
recover).
"""

from __future__ import annotations

import enum
from collections import Counter

from repro.evaluation.metrics import _capture_relation
from repro.evaluation.subsequence import contains
from repro.exceptions import EvaluationError
from repro.sessions.model import Session, SessionSet

__all__ = ["ErrorCategory", "classify_session", "error_breakdown",
           "render_breakdown"]


class ErrorCategory(enum.Enum):
    """Reconstruction outcome for one ground-truth session."""

    EXACT = "exact"
    MERGED = "merged"
    SCATTERED = "scattered"
    PARTIAL = "partial"
    LOST = "lost"


def classify_session(real: Session,
                     pool: list[Session]) -> ErrorCategory:
    """Assign the error category for one real session.

    Args:
        real: the ground-truth session (non-empty).
        pool: the same user's reconstructed sessions.

    Raises:
        EvaluationError: for an empty real session.
    """
    if not real:
        raise EvaluationError("cannot classify an empty real session")
    pages = real.pages
    for candidate in pool:
        if candidate.pages == pages:
            return ErrorCategory.EXACT
    for candidate in pool:
        if contains(candidate.pages, pages):
            return ErrorCategory.MERGED
    return _uncaptured_category(
        pages, {page for candidate in pool for page in candidate.pages})


def _uncaptured_category(pages: tuple[str, ...],
                         seen: set[str]) -> ErrorCategory:
    """Category of an uncaptured real session, given every page id of
    its user's reconstructed sessions."""
    present = sum(1 for page in pages if page in seen)
    if present == len(pages):
        return ErrorCategory.SCATTERED
    if present > 0:
        return ErrorCategory.PARTIAL
    return ErrorCategory.LOST


def error_breakdown(ground_truth: SessionSet,
                    reconstructed: SessionSet
                    ) -> dict[ErrorCategory, int]:
    """Count ground-truth sessions per error category (within-user pools).

    Raises:
        EvaluationError: for an empty ground truth.
    """
    if not any(ground_truth):
        raise EvaluationError(
            "cannot analyze an empty ground truth")
    edges, __ = _capture_relation(ground_truth, reconstructed)
    sizes = [len(session) for session in reconstructed]
    seen_by_user: dict[str, set[str]] = {}
    counts: Counter[ErrorCategory] = Counter()
    for real, hits in zip(ground_truth, edges):
        if not real:
            continue
        size = len(real)
        if any(sizes[index] == size for index in hits):
            counts[ErrorCategory.EXACT] += 1
        elif hits:
            counts[ErrorCategory.MERGED] += 1
        else:
            user = real.user_id
            if user not in seen_by_user:
                seen_by_user[user] = {
                    page for session in reconstructed.for_user(user)
                    for page in session.pages}
            counts[_uncaptured_category(real.pages, seen_by_user[user])] \
                += 1
    return {category: counts.get(category, 0)
            for category in ErrorCategory}


def render_breakdown(breakdowns: dict[str, dict[ErrorCategory, int]]) -> str:
    """Render ``{heuristic: breakdown}`` as an aligned percentage table."""
    if not breakdowns:
        raise EvaluationError("nothing to render")
    categories = list(ErrorCategory)
    header = ("  heuristic  "
              + "  ".join(f"{category.value:>9}" for category in categories))
    lines = [header]
    for name, breakdown in breakdowns.items():
        total = sum(breakdown.values())
        cells = "  ".join(
            f"{breakdown.get(category, 0) / total * 100:8.1f}%"
            for category in categories)
        lines.append(f"  {name:>9}  {cells}")
    return "\n".join(lines) + "\n"
