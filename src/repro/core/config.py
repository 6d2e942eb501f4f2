"""Configuration for Smart-SRA."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["SmartSRAConfig"]


@dataclass(frozen=True, slots=True)
class SmartSRAConfig:
    """Thresholds and policy knobs for Smart-SRA.

    Attributes:
        max_duration: δ — total candidate-session duration bound, seconds
            (paper default: 30 minutes).  Enforced by Phase 1 only; the
            paper notes the overall duration limit "is already guaranteed
            after performing the first phase".
        max_gap: ρ — page-stay bound, seconds (paper default: 10 minutes).
            Enforced by Phase 1 between consecutive requests and by Phase 2
            both in the referrer scan (Step I) and when extending sessions
            (Step III).
        rescue_orphans: safety net for Phase 2's Step III: a released page
            that extends no open session would be silently dropped (the
            paper's pseudocode has the same property).  For chronologically
            sorted candidates this provably never happens — a released
            page's last blocking referrer always terminates an open session
            one round earlier, within ρ — so the default ``False`` is both
            faithful and lossless (asserted by
            ``tests/property/test_smart_sra_properties.py``).  ``True``
            turns the would-be drop into a singleton session, guarding
            degraded inputs and rule experiments.
    """

    max_duration: float = 30.0 * 60.0
    max_gap: float = 10.0 * 60.0
    rescue_orphans: bool = False

    def __post_init__(self) -> None:
        # ``not (x > 0)`` rather than ``x <= 0``: NaN fails every
        # comparison, so only this form rejects it.
        if not (self.max_duration > 0):
            raise ConfigurationError(
                f"max_duration must be positive, got {self.max_duration}")
        if not (self.max_gap > 0):
            raise ConfigurationError(
                f"max_gap must be positive, got {self.max_gap}")
        if self.max_gap > self.max_duration:
            raise ConfigurationError(
                "max_gap (ρ) cannot exceed max_duration (δ): "
                f"{self.max_gap} > {self.max_duration}")
