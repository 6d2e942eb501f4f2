"""The differential oracle: run every engine, diff everything.

For each corpus case the harness runs the selected engines
(:mod:`repro.diffcheck.engines`), canonicalizes each output
(:meth:`~repro.sessions.model.SessionSet.canonical_form`), and reports

* **divergences** — the first session where an engine's canonical output
  for some user differs from the serial baseline's (or from the pinned
  golden expectation), with the engine pair and, when the divergent
  session itself breaks one of the five output rules, the rule violated;
* **invariant violations** — every rule breach in every engine's output,
  via :func:`repro.diffcheck.invariants.verify_sessions`, so an engine
  that is *consistently* wrong (all engines agree, all break rule 3) is
  still caught.

A clean report means: all engines agree with each other, with the golden
corpus where pinned, and with the paper's output contract.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.diffcheck.corpus import CorpusCase
from repro.diffcheck.engines import (
    ENGINE_BASELINE,
    ENGINE_SEMANTICS,
    INVARIANT_ONLY_ENGINES,
    EngineContext,
    resolve_engines,
    run_engine,
)
from repro.diffcheck.invariants import InvariantViolation, verify_sessions
from repro.obs import get_registry

__all__ = [
    "CaseOutcome",
    "DiffcheckReport",
    "Divergence",
    "run_diffcheck",
]

#: canonical body of one session: ((timestamp, page, synthetic), ...)
_Body = tuple[tuple[float, str, bool], ...]


@dataclass(frozen=True, slots=True)
class Divergence:
    """First point where two engines disagree about one user.

    Attributes:
        case: corpus case name.
        baseline: reference engine (``"serial"``, or ``"golden"`` when
            diffing against the pinned corpus expectation).
        engine: the diverging engine.
        user_id: the user whose session list first differs.
        session_index: position in the user's *sorted* canonical session
            list where the difference starts.
        baseline_session: the baseline's session body at that position
            (``None`` when the baseline has fewer sessions).
        engine_session: the engine's session body at that position
            (``None`` when the engine has fewer sessions).
        rule: the invariant the divergent engine session breaks, when it
            breaks one; ``"equivalence"`` when both sides are
            individually rule-compliant and merely segment differently.
    """

    case: str
    baseline: str
    engine: str
    user_id: str
    session_index: int
    baseline_session: _Body | None
    engine_session: _Body | None
    rule: str = "equivalence"

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        def shown(body: _Body | None) -> str:
            if body is None:
                return "<absent>"
            return "[" + ", ".join(f"{page}@{t:g}" for t, page, _ in body) + "]"
        return (f"{self.case}: {self.engine} vs {self.baseline}, user "
                f"{self.user_id!r}, session #{self.session_index}: "
                f"{shown(self.engine_session)} != "
                f"{shown(self.baseline_session)} (rule: {self.rule})")


@dataclass(frozen=True, slots=True)
class CaseOutcome:
    """Everything the harness learned about one corpus case."""

    case: str
    engines: tuple[str, ...]
    digests: dict[str, str]
    divergences: tuple[Divergence, ...]
    violations: dict[str, tuple[InvariantViolation, ...]]
    expected_digest: str | None = None
    expected_amp_digest: str | None = None

    @property
    def ok(self) -> bool:
        return (not self.divergences
                and not any(self.violations.values()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "case": self.case,
            "engines": list(self.engines),
            "digests": dict(self.digests),
            "expected_digest": self.expected_digest,
            "expected_amp_digest": self.expected_amp_digest,
            "divergences": [d.to_dict() for d in self.divergences],
            "violations": {engine: [v.to_dict() for v in found]
                           for engine, found in self.violations.items()},
            "ok": self.ok,
        }


@dataclass(frozen=True, slots=True)
class DiffcheckReport:
    """The oracle's verdict over a whole corpus."""

    outcomes: tuple[CaseOutcome, ...]
    engines: tuple[str, ...]
    seed: int = 0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def total_divergences(self) -> int:
        return sum(len(outcome.divergences) for outcome in self.outcomes)

    @property
    def total_violations(self) -> int:
        return sum(len(found) for outcome in self.outcomes
                   for found in outcome.violations.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "engines": list(self.engines),
            "cases": [outcome.to_dict() for outcome in self.outcomes],
            "total_divergences": self.total_divergences,
            "total_violations": self.total_violations,
        }

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"diffcheck: {len(self.outcomes)} case(s) x "
                 f"{len(self.engines)} engine(s) "
                 f"[{', '.join(self.engines)}]"]
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else "DIVERGED"
            golden = (" golden" if outcome.expected_digest is not None
                      else "")
            lines.append(f"  {outcome.case}: {status}{golden} "
                         f"(digest {outcome.digests.get('serial', '?')[:12]})")
            for divergence in outcome.divergences:
                lines.append(f"    ! {divergence.describe()}")
            for engine, found in outcome.violations.items():
                for violation in found:
                    lines.append(
                        f"    ! {outcome.case}: {engine} breaks "
                        f"{violation.rule} in session "
                        f"#{violation.session_index} "
                        f"(user {violation.user_id!r}): {violation.detail}")
        verdict = ("all engines equivalent, all invariants hold"
                   if self.ok else
                   f"{self.total_divergences} divergence(s), "
                   f"{self.total_violations} invariant violation(s)")
        lines.append(f"diffcheck: {verdict}")
        return "\n".join(lines)


def _first_divergence(case: str, baseline_name: str, engine_name: str,
                      baseline_form: dict[str, list[_Body]],
                      engine_form: dict[str, list[_Body]],
                      rules_hint: dict[str, str],
                      ) -> Divergence | None:
    """Locate the first per-user difference between two canonical forms."""
    for user in sorted(set(baseline_form) | set(engine_form)):
        ours = baseline_form.get(user, [])
        theirs = engine_form.get(user, [])
        if ours == theirs:
            continue
        index = next((i for i, (a, b)
                      in enumerate(zip(ours, theirs)) if a != b),
                     min(len(ours), len(theirs)))
        return Divergence(
            case=case, baseline=baseline_name, engine=engine_name,
            user_id=user, session_index=index,
            baseline_session=ours[index] if index < len(ours) else None,
            engine_session=theirs[index] if index < len(theirs) else None,
            rule=rules_hint.get(user, "equivalence"))
    return None


def run_diffcheck(cases: Iterable[CorpusCase],
                  engines: str | Sequence[str] = "all",
                  seed: int | None = None) -> DiffcheckReport:
    """Run the full differential oracle over a corpus.

    Args:
        cases: corpus cases (loaded from disk or freshly generated).
        engines: ``"all"``, a comma-separated string, or a name sequence
            (see :func:`repro.diffcheck.engines.resolve_engines`); the
            serial baseline is always included.
        seed: overrides every case's own seed when given (useful to
            re-shake the seeded engines without editing the corpus).

    Raises:
        ConfigurationError: for unknown engine names.
    """
    chosen = resolve_engines(engines)
    counter = get_registry().counter("diffcheck.cases")
    outcomes: list[CaseOutcome] = []
    for case in cases:
        counter.inc()
        case_seed = case.seed if seed is None else seed
        ctx = EngineContext(requests=case.requests, topology=case.topology,
                            config=case.config, seed=case_seed)
        outputs = {name: run_engine(name, ctx) for name in chosen}
        forms = {name: output.canonical_form()
                 for name, output in outputs.items()}
        digests = {name: output.canonical_digest()
                   for name, output in outputs.items()}
        violations = {
            name: verify_sessions(
                output, case.topology, case.config,
                semantics=ENGINE_SEMANTICS.get(name, "smart-sra"))
            for name, output in outputs.items()}

        divergences: list[Divergence] = []
        for name in chosen:
            if name == "serial" or name in INVARIANT_ONLY_ENGINES:
                # invariant-only engines degrade segmentation on purpose;
                # their outputs are rule-checked above, not diffed.
                continue
            # each engine diffs against its own semantic baseline:
            # Smart-SRA engines against serial, amp-optimized against
            # amp-reference; amp-reference itself has no in-run baseline
            # (it is held to the pinned golden digest below).
            baseline_name = ENGINE_BASELINE.get(name, "serial")
            if baseline_name is None:
                continue
            # attribute a rule to the diff when the engine's own output
            # breaks one for that user; else it is a pure segmentation
            # difference between two individually-valid outputs.
            rules_hint = {violation.user_id: violation.rule
                          for violation in reversed(violations[name])}
            found = _first_divergence(case.name, baseline_name, name,
                                      forms[baseline_name], forms[name],
                                      rules_hint)
            if found is not None:
                divergences.append(found)
        if case.expected_form is not None:
            golden_form = {user: list(bodies)
                           for user, bodies in case.expected_form}
            for name in chosen:
                if (name in INVARIANT_ONLY_ENGINES
                        or ENGINE_SEMANTICS.get(name, "smart-sra") != "smart-sra"
                        or digests[name] == case.expected_digest):
                    continue
                found = _first_divergence(case.name, "golden", name,
                                          golden_form, forms[name], {})
                divergences.append(found if found is not None else
                                   Divergence(case.name, "golden", name,
                                              "", 0, None, None,
                                              rule="digest"))
        if case.expected_amp_digest is not None:
            for name in chosen:
                if (ENGINE_SEMANTICS.get(name, "smart-sra") == "amp"
                        and digests[name] != case.expected_amp_digest):
                    divergences.append(
                        Divergence(case.name, "golden-amp", name,
                                   "", 0, None, None, rule="digest"))
        outcomes.append(CaseOutcome(
            case=case.name, engines=chosen, digests=digests,
            divergences=tuple(divergences), violations=violations,
            expected_digest=case.expected_digest,
            expected_amp_digest=case.expected_amp_digest))
    return DiffcheckReport(outcomes=tuple(outcomes), engines=chosen,
                           seed=seed if seed is not None else 0)
