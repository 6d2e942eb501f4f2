"""Bootstrap confidence intervals for accuracy estimates.

A simulated accuracy number is a point estimate over a finite agent
population; reporting it without uncertainty invites over-reading small
gaps between heuristics.  Since agents are independent by construction,
the *user* is the natural resampling unit: :func:`bootstrap_accuracy`
resamples users with replacement and rebuilds the matched-accuracy ratio
per replicate, yielding a percentile confidence interval.

Used by the population-stability analysis and available to any experiment
that wants error bars on the paper's figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.evaluation.metrics import _capture_relation, _maximum_matching
from repro.exceptions import EvaluationError
from repro.sessions.model import SessionSet

__all__ = ["AccuracyInterval", "bootstrap_accuracy"]


@dataclass(frozen=True, slots=True)
class AccuracyInterval:
    """A bootstrap percentile interval for matched accuracy.

    Attributes:
        estimate: the full-sample matched accuracy.
        low / high: the interval bounds at the requested confidence.
        confidence: the nominal coverage (e.g. 0.95).
        replicates: number of bootstrap resamples drawn.
    """

    estimate: float
    low: float
    high: float
    confidence: float
    replicates: int

    @property
    def width(self) -> float:
        """Interval width (high - low)."""
        return self.high - self.low

    def __str__(self) -> str:
        return (f"{self.estimate:.3f} "
                f"[{self.low:.3f}, {self.high:.3f}] "
                f"@{self.confidence:.0%}")


def bootstrap_accuracy(ground_truth: SessionSet, reconstructed: SessionSet,
                       replicates: int = 500, confidence: float = 0.95,
                       seed: int = 0) -> AccuracyInterval:
    """Percentile bootstrap CI for the one-to-one matched accuracy.

    Users are resampled with replacement; each replicate's accuracy is the
    ratio of resampled matched counts to resampled session counts.  The
    per-user (matched, total) pairs are computed once, so the resampling
    itself is O(replicates × users).

    Args:
        ground_truth: the simulator's real sessions.
        reconstructed: one heuristic's output.
        replicates: bootstrap resamples (≥ 50 recommended).
        confidence: nominal coverage in (0, 1).
        seed: resampling RNG seed.

    Raises:
        EvaluationError: for an empty ground truth, non-positive
            replicates, or a confidence outside (0, 1).
    """
    if replicates <= 0:
        raise EvaluationError(
            f"replicates must be positive, got {replicates}")
    if not 0 < confidence < 1:
        raise EvaluationError(
            f"confidence must be in (0, 1), got {confidence}")

    users = list(ground_truth.users())
    if not users:
        raise EvaluationError(
            "cannot bootstrap against an empty ground truth")

    # Per-user sufficient statistics: (matched sessions, total sessions)
    # over the user's non-empty real sessions; the filter matters for the
    # user id "", whose group also holds every empty real session.
    edges, groups = _capture_relation(ground_truth, reconstructed)
    sessions = ground_truth.sessions
    per_user: list[tuple[int, int]] = []
    for user in users:
        adjacency = [edges[index] for index in groups[user]
                     if sessions[index]]
        per_user.append((_maximum_matching(adjacency), len(adjacency)))

    total_matched = sum(matched for matched, __ in per_user)
    total_sessions = sum(total for __, total in per_user)
    estimate = total_matched / total_sessions

    rng = random.Random(seed)
    n = len(per_user)
    samples = []
    for __ in range(replicates):
        matched_sum = 0
        total_sum = 0
        for __ in range(n):
            matched, total = per_user[rng.randrange(n)]
            matched_sum += matched
            total_sum += total
        samples.append(matched_sum / total_sum if total_sum else 0.0)
    samples.sort()

    alpha = (1 - confidence) / 2
    low_index = int(alpha * replicates)
    high_index = min(replicates - 1, int((1 - alpha) * replicates))
    return AccuracyInterval(
        estimate=estimate,
        low=samples[low_index],
        high=samples[high_index],
        confidence=confidence,
        replicates=replicates,
    )
