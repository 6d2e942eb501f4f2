"""Statistical validation of the simulator against its specification.

A reproduction's simulator is itself a claim: "agents behave as §4
describes".  This module audits a :class:`~repro.simulator.population.
SimulationResult` with standard goodness-of-fit tests (scipy):

* **termination rate** — every landing terminates the agent with
  probability at least STP (dead ends and exhausted start pools only add
  stops), so the empirical agents-per-landing rate must not fall
  significantly below STP (one-sided z-test);
* **stay times** — inter-request gaps must match the configured truncated
  normal (Kolmogorov-Smirnov against the analytic CDF);
* **NIP jump rate** — fresh session boundaries (NIP jumps) can occur at
  most ``(1 - STP)·NIP`` per landing; exceeding that bound is a behavior
  bug (one-sided binomial test).

:func:`validate_simulation` runs all checks and returns a report; the
test suite asserts it passes on default populations, so any future edit
that bends the behavior model trips a statistical alarm, not just golden
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

try:                                    # optional: only the statistical
    from scipy import stats             # validation layer needs scipy,
except ImportError:                     # which is not a declared
    stats = None                        # dependency

from repro.exceptions import SimulationError
from repro.simulator.population import SimulationResult

__all__ = ["ValidationCheck", "ValidationReport", "validate_simulation"]


@dataclass(frozen=True, slots=True)
class ValidationCheck:
    """One goodness-of-fit check.

    Attributes:
        name: what was tested.
        statistic: the test statistic (KS distance or |z|).
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


def _truncated_normal_cdf(value, mean: float, deviation: float,
                          upper: float):
    """CDF of a normal truncated to (0, upper]; vectorized over ``value``
    (``scipy.stats.ks_1samp`` calls it with the whole sample array)."""
    import numpy

    normal = stats.norm(mean, deviation)
    mass = normal.cdf(upper) - normal.cdf(0.0)
    clipped = numpy.clip(value, 0.0, upper)
    return (normal.cdf(clipped) - normal.cdf(0.0)) / mass


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
    if stats is None:
        raise SimulationError(
            "simulation validation needs scipy (goodness-of-fit tests); "
            "install it or skip validate_simulation")
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
        ks = stats.ks_1samp(
            gaps, lambda value: _truncated_normal_cdf(
                value, config.mean_stay, config.stay_deviation,
                config.max_stay))
        checks.append(ValidationCheck(
            name="stay-time distribution",
            statistic=float(ks.statistic),
            p_value=float(ks.pvalue),
            passed=bool(ks.pvalue >= alpha),
            detail=(f"KS distance {ks.statistic:.4f} vs truncated normal "
                    f"({config.mean_stay / 60:.2f} ± "
                    f"{config.stay_deviation / 60:.2f} min) over "
                    f"{len(gaps)} gaps"),
        ))

    # 2) termination rate: each landing (below the cap) terminates the
    # agent with probability STP; dead-end terminations add extra stops, so
    # the empirical rate may exceed STP but must never fall below it.
    terminations = len(result.traces)
    z_denominator = math.sqrt(config.stp * (1 - config.stp) * landings)
    expected = config.stp * landings
    z_value = (terminations - expected) / z_denominator
    # one-sided: flag only a termination rate significantly BELOW stp.
    p_low = float(stats.norm.cdf(z_value))
    checks.append(ValidationCheck(
        name="termination rate (lower bound)",
        statistic=float(z_value),
        p_value=p_low,
        passed=bool(p_low >= alpha),
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
        nip_boundaries = 0
        for trace in result.traces:
            for nxt in trace.real_sessions[1:]:
                if nxt and not nxt.requests[0].synthetic:
                    nip_boundaries += 1
        ceiling = (1 - config.stp) * config.nip
        binom = stats.binomtest(nip_boundaries, landings, ceiling,
                                alternative="greater")
        checks.append(ValidationCheck(
            name="NIP jump rate (upper bound)",
            statistic=float(nip_boundaries / landings),
            p_value=float(binom.pvalue),
            passed=bool(binom.pvalue >= alpha),
            detail=(f"{nip_boundaries} fresh boundaries over {landings} "
                    f"landings vs per-landing ceiling {ceiling:.3f}"),
        ))

    return ValidationReport(checks=tuple(checks), alpha=alpha)
