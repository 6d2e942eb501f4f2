"""Statistical validation of the simulator against its specification.

A reproduction's simulator is itself a claim: "agents behave as §4
describes".  :func:`validate_simulation` audits a
:class:`~repro.simulator.population.SimulationResult` with three
goodness-of-fit tests, all in the standard library:

* **stay times** — inter-request gaps must match the configured truncated
  normal: the one-sample Kolmogorov-Smirnov distance against the analytic
  CDF, with its p-value from the Kolmogorov distribution (Stephens'
  finite-sample correction);
* **termination rate** — every landing terminates the agent with
  probability at least STP (dead ends and exhausted start pools only add
  stops), so the empirical agents-per-landing rate must not fall
  significantly below STP (one-sided z-test);
* **NIP jump rate** — fresh session boundaries (NIP jumps) can occur at
  most ``(1 - STP)·NIP`` per landing; exceeding that bound is a behavior
  bug (one-sided exact binomial test, summed in integers).

The suite asserts it passes on default populations, so an edit that bends
the behavior model trips a statistical alarm, not just golden numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from repro.exceptions import SimulationError
from repro.simulator.population import SimulationResult


@dataclass(frozen=True, slots=True)
class ValidationCheck:
    """One goodness-of-fit check.

    Attributes:
        name: what was tested.
        statistic: the test statistic (KS distance, z, or observed rate).
        p_value: the test's p-value (high = consistent with the spec).
        passed: whether the check passed at the report's alpha.
        detail: human-readable summary.
    """

    name: str
    statistic: float
    p_value: float
    passed: bool
    detail: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """All checks plus the overall verdict."""

    checks: tuple[ValidationCheck, ...]
    alpha: float

    @property
    def passed(self) -> bool:
        """True when every check passed."""
        return all(check.passed for check in self.checks)

    def __str__(self) -> str:
        lines = [f"simulator validation (alpha={self.alpha}):"]
        for check in self.checks:
            status = "ok" if check.passed else "FAILED"
            lines.append(f"  {check.name}: {status} "
                         f"(p={check.p_value:.3f}) — {check.detail}")
        return "\n".join(lines)


def ks_statistic(sample: list[float], cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance ``sup |F_n - F|``."""
    ordered = sorted(sample)
    n = len(ordered)
    distance = 0.0
    for i, value in enumerate(ordered):
        expected = cdf(value)
        distance = max(distance, (i + 1) / n - expected, expected - i / n)
    return distance


def ks_p_value(distance: float, n: int) -> float:
    """Upper tail of the Kolmogorov distribution at Stephens' scaled
    distance ``(√n + 0.12 + 0.11/√n)·D``; each branch is the series that
    converges fast on its side of λ = 1.18."""
    root = math.sqrt(n)
    lam = (root + 0.12 + 0.11 / root) * distance
    if lam <= 0:
        return 1.0
    if lam < 1.18:
        inner = sum(math.exp(-(2 * k - 1) ** 2 * math.pi ** 2
                             / (8 * lam * lam)) for k in range(1, 6))
        return min(1.0, max(0.0,
                            1.0 - math.sqrt(2 * math.pi) / lam * inner))
    return max(0.0, min(1.0, 2 * sum((-1) ** (k - 1)
                                     * math.exp(-2 * k * k * lam * lam)
                                     for k in range(1, 101))))


def binomial_upper_tail(k: int, n: int, p: float) -> float:
    """Exact ``P(X >= k)`` for ``X ~ Binomial(n, p)``.

    ``p`` is taken as the exact rational ``a/d`` a float is.  With
    ``b = d - a``, the terms ``T_i = C(n, i)·aⁱ·b⁽ⁿ⁻ⁱ⁾`` are integers and
    each follows from the last exactly (``T_{i+1}·(i+1)·b = T_i·(n-i)·a``),
    so the tail is an integer over ``dⁿ``, rounded once.  The shorter side
    is summed: ``i >= k``, or ``i < k`` taken from ``dⁿ``.
    """
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    a, d = p.as_integer_ratio()
    b = d - a
    upper = k > n // 2
    start, stop = (k, n + 1) if upper else (0, k)
    term = math.comb(n, start) * a ** start * b ** (n - start)
    total = 0
    for i in range(start, stop):
        total += term
        term = term * (n - i) * a // ((i + 1) * b)
    return (total if upper else d ** n - total) / d ** n


def _truncated_normal_cdf(mean: float, deviation: float, upper: float):
    """CDF of a normal truncated to (0, upper]."""
    normal = NormalDist(mean, deviation)
    low = normal.cdf(0.0)
    mass = normal.cdf(upper) - low

    def cdf(value: float) -> float:
        return (normal.cdf(min(max(value, 0.0), upper)) - low) / mass
    return cdf


def validate_simulation(result: SimulationResult,
                        alpha: float = 0.001) -> ValidationReport:
    """Audit a simulation against its own configuration.

    Args:
        result: the simulation to audit (needs ≥ 100 ground-truth
            landings for the tests to have any power).
        alpha: significance level — checks fail when their p-value drops
            below it.  The default is deliberately strict-ish but tolerant
            of multiple testing across three checks.

    Raises:
        SimulationError: if the simulation is too small to test.
    """
    config = result.config
    gaps: list[float] = []
    landings = 0
    for session in result.ground_truth:
        landings += len(session)
        for earlier, later in zip(session.requests, session.requests[1:]):
            gaps.append(later.timestamp - earlier.timestamp)
    if landings < 100:
        raise SimulationError(
            f"too few landings ({landings}) to validate; simulate more "
            "agents")

    checks: list[ValidationCheck] = []

    # 1) stay times ~ truncated normal (only valid for the unimodal model).
    if config.content_fraction == 0 and gaps:
        distance = ks_statistic(gaps, _truncated_normal_cdf(
            config.mean_stay, config.stay_deviation, config.max_stay))
        p_value = ks_p_value(distance, len(gaps))
        checks.append(ValidationCheck(
            name="stay-time distribution",
            statistic=distance,
            p_value=p_value,
            passed=p_value >= alpha,
            detail=(f"KS distance {distance:.4f} vs truncated normal "
                    f"({config.mean_stay / 60:.2f} ± "
                    f"{config.stay_deviation / 60:.2f} min) over "
                    f"{len(gaps)} gaps"),
        ))

    # 2) termination rate: each landing (below the cap) terminates the
    # agent with probability STP; dead-end terminations add extra stops, so
    # the empirical rate may exceed STP but must never fall below it.
    terminations = len(result.traces)
    z_denominator = math.sqrt(config.stp * (1 - config.stp) * landings)
    z_value = (terminations - config.stp * landings) / z_denominator
    # one-sided: flag only a termination rate significantly BELOW stp.
    p_low = NormalDist().cdf(z_value)
    checks.append(ValidationCheck(
        name="termination rate (lower bound)",
        statistic=z_value,
        p_value=p_low,
        passed=p_low >= alpha,
        detail=(f"{terminations} agents over {landings} landings; "
                f"empirical rate {terminations / landings:.4f} vs "
                f"STP {config.stp}"),
    ))

    # 3) NIP jump rate: a session boundary opened by a *fresh* (non-cache)
    # landing can only come from an NIP draw, and the draw fires at most
    # (1-STP)·NIP per landing (fall-throughs — exhausted start pools —
    # only lower it).  Observed fresh boundaries significantly ABOVE that
    # bound indicate a behavior-model bug.  Only meaningful when revisit
    # jumps are disabled (revisit jumps open with a cache-served landing
    # and would be miscounted).
    if config.nip > 0 and not config.nip_revisits:
        nip_boundaries = sum(
            1 for trace in result.traces
            for nxt in trace.real_sessions[1:]
            if nxt and not nxt.requests[0].synthetic)
        ceiling = (1 - config.stp) * config.nip
        p_value = binomial_upper_tail(nip_boundaries, landings, ceiling)
        checks.append(ValidationCheck(
            name="NIP jump rate (upper bound)",
            statistic=nip_boundaries / landings,
            p_value=p_value,
            passed=p_value >= alpha,
            detail=(f"{nip_boundaries} fresh boundaries over {landings} "
                    f"landings vs per-landing ceiling {ceiling:.3f}"),
        ))

    return ValidationReport(checks=tuple(checks), alpha=alpha)
