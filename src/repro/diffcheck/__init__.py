"""repro.diffcheck — the differential correctness oracle.

Smart-SRA runs through several structurally different execution paths
(serial batch, the columnar plane, streaming with and without a
governor, the sharded runtime with and without killed workers).  This
package holds them to one definition of correct:

* :mod:`repro.diffcheck.invariants` — verify any session list against
  the paper's five output rules (ordering, hyperlink topology, gap ≤ ρ,
  duration ≤ δ, maximality/no-synthetic), engine-independent;
* :mod:`repro.diffcheck.engines` — each execution path wrapped as a
  deterministic ``context -> SessionSet`` function;
* :mod:`repro.diffcheck.corpus` — seeded adversarial corpus cases
  (ρ/δ-boundary timestamps, duplicates, ties, single-page sessions,
  chunk-spanning users, simulator populations) with pinned golden
  expectations, serialized under ``tests/data/diffcheck/``;
* :mod:`repro.diffcheck.harness` — run corpus × engines, canonicalize,
  and report structured per-user divergences and rule violations.

Quickstart::

    from repro.diffcheck import generate_corpus, run_diffcheck

    report = run_diffcheck(generate_corpus(seed=0), engines="all")
    assert report.ok, report.render()

or from the command line: ``repro diffcheck --corpus tests/data/diffcheck``.
"""

from repro.diffcheck.corpus import (
    CORPUS_SCHEMA,
    CorpusCase,
    case_from_jsonable,
    case_to_jsonable,
    generate_corpus,
    load_corpus,
    save_corpus,
)
from repro.diffcheck.engines import (
    ENGINE_BASELINE,
    ENGINE_REGISTRY,
    ENGINE_SEMANTICS,
    INVARIANT_ONLY_ENGINES,
    EngineContext,
    available_engines,
    resolve_engines,
    run_engine,
)
from repro.diffcheck.harness import (
    CaseOutcome,
    DiffcheckReport,
    Divergence,
    run_diffcheck,
)
from repro.diffcheck.invariants import (
    INVARIANT_RULES,
    InvariantViolation,
    verify_sessions,
)

__all__ = [
    "CORPUS_SCHEMA",
    "CaseOutcome",
    "CorpusCase",
    "DiffcheckReport",
    "Divergence",
    "ENGINE_BASELINE",
    "ENGINE_REGISTRY",
    "ENGINE_SEMANTICS",
    "INVARIANT_ONLY_ENGINES",
    "EngineContext",
    "INVARIANT_RULES",
    "InvariantViolation",
    "available_engines",
    "case_from_jsonable",
    "case_to_jsonable",
    "generate_corpus",
    "load_corpus",
    "resolve_engines",
    "run_diffcheck",
    "run_engine",
    "save_corpus",
    "verify_sessions",
]
