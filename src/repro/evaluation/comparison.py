"""Paired statistical comparison of two heuristics (McNemar's test).

"Heuristic A scored 58.9%, heuristic B 46.8%" — is that difference real or
seed noise?  Since both heuristics reconstruct the *same* ground truth,
the right test is paired: for every real session, did A capture it, did B?
Only the *discordant* sessions (captured by exactly one of the two) carry
information, and under the null hypothesis of equal accuracy they split
50/50 — McNemar's exact test on a binomial.

The paper reports point estimates only; this module is what lets the
reproduction say "Smart-SRA's advantage is significant at p < 0.001" and
lets users vet their own variants honestly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.evaluation.metrics import _capture_relation
from repro.exceptions import EvaluationError
from repro.sessions.model import SessionSet

__all__ = ["McNemarResult", "compare_heuristics"]


@dataclass(frozen=True, slots=True)
class McNemarResult:
    """Outcome of a paired capture comparison.

    Attributes:
        name_a / name_b: labels of the two reconstructions.
        both: sessions captured by both.
        only_a / only_b: the discordant counts.
        neither: sessions captured by neither.
        p_value: two-sided exact McNemar p-value (1.0 when there are no
            discordant sessions — the methods are indistinguishable).
        accuracy_a / accuracy_b: the two any-capture accuracies.
    """

    name_a: str
    name_b: str
    both: int
    only_a: int
    only_b: int
    neither: int
    p_value: float
    accuracy_a: float
    accuracy_b: float

    @property
    def winner(self) -> str | None:
        """The label with more discordant wins, or ``None`` on a tie."""
        if self.only_a > self.only_b:
            return self.name_a
        if self.only_b > self.only_a:
            return self.name_b
        return None

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the difference is significant at level ``alpha``."""
        return self.p_value < alpha

    def __str__(self) -> str:
        verdict = self.winner or "tie"
        return (f"{self.name_a} {self.accuracy_a:.1%} vs "
                f"{self.name_b} {self.accuracy_b:.1%} — discordant "
                f"{self.only_a}/{self.only_b}, p={self.p_value:.2e} "
                f"({verdict})")


def _two_sided_p(k: int, n: int) -> float:
    """Two-sided exact binomial p-value at p = ½ for ``k ≤ n / 2``:
    ``min(1, 2·Σ_{i≤k} C(n, i) / 2ⁿ)``, 1.0 for ``n = 0``.

    The binomial coefficients are summed exactly in integers, each from
    the last (``C(n, i+1) = C(n, i)·(n-i) / (i+1)``), so one call costs
    O(k) big-integer steps instead of ``k`` calls to ``math.comb``.
    """
    term = tail = 1
    for i in range(k):
        term = term * (n - i) // (i + 1)
        tail += term
    return min(1.0, 2 * tail / 2 ** n)


def compare_heuristics(ground_truth: SessionSet,
                       reconstructed_a: SessionSet,
                       reconstructed_b: SessionSet,
                       name_a: str = "A", name_b: str = "B",
                       match_within_user: bool = True) -> McNemarResult:
    """Run McNemar's exact test on two reconstructions of one ground truth.

    Capture here is the per-session any-capture relation (⊏) — the natural
    per-item pairing; the one-to-one matched metric is a set-level quantity
    and has no per-session boolean.

    Raises:
        EvaluationError: for an empty ground truth.
    """
    if len(ground_truth) == 0:
        raise EvaluationError("cannot compare against an empty ground truth")

    flags = []
    for reconstructed in (reconstructed_a, reconstructed_b):
        edges, __ = _capture_relation(ground_truth, reconstructed,
                                      match_within_user)
        # an empty real session counts as not captured
        flags.append([bool(real) and bool(hits)
                      for real, hits in zip(ground_truth, edges)])

    both = only_a = only_b = neither = 0
    for a, b in zip(*flags):
        if a and b:
            both += 1
        elif a:
            only_a += 1
        elif b:
            only_b += 1
        else:
            neither += 1

    total = len(ground_truth)
    return McNemarResult(
        name_a=name_a, name_b=name_b,
        both=both, only_a=only_a, only_b=only_b, neither=neither,
        p_value=_two_sided_p(min(only_a, only_b), only_a + only_b),
        accuracy_a=(both + only_a) / total,
        accuracy_b=(both + only_b) / total,
    )
