"""Full differential oracle over the committed golden corpus.

Runs every registered engine across the pinned corpus under
``tests/data/diffcheck`` and requires byte-level canonical agreement —
with each other *and* with the golden digests committed alongside the
cases.  A failure here means an engine's output changed: either a real
equivalence bug or an intentional semantic change that must be
re-pinned with ``repro diffcheck --write-golden``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.diffcheck import (
    available_engines,
    generate_corpus,
    load_corpus,
    run_diffcheck,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "data" / "diffcheck"


@pytest.fixture(scope="module")
def golden_cases():
    return load_corpus(GOLDEN_DIR)


def test_all_engines_agree_on_golden_corpus(golden_cases):
    report = run_diffcheck(golden_cases, engines="all")
    assert report.engines == available_engines()
    assert report.ok, report.render()
    assert report.total_divergences == 0
    assert report.total_violations == 0


def test_corpus_covers_columnar_edge_cases(golden_cases):
    """The cases the columnar plane is most likely to get wrong — equal
    timestamps (reversed extension edges), exact δ/ρ boundaries (the
    slack-widened window must not change splits) and chunk-spanning
    users — are all pinned in the corpus the engines must match."""
    names = {case.name for case in golden_cases}
    assert {"equal-timestamps", "boundary-rho-delta",
            "chunk-spanning-users"} <= names


def test_golden_digests_still_pinned(golden_cases):
    # every committed case carries its expected canonical output, and the
    # harness checks engines against it (baseline "golden" in a report).
    for case in golden_cases:
        assert case.expected_digest, case.name
        assert case.expected_form is not None, case.name


def test_committed_corpus_matches_generator(golden_cases):
    """The committed corpus is exactly ``generate_corpus(seed=0)``.

    Guards against hand-edits to the JSON drifting away from what
    ``--write-golden`` would regenerate.
    """
    generated = {case.name: case for case in generate_corpus(seed=0)}
    assert sorted(generated) == [case.name for case in golden_cases]
    for case in golden_cases:
        twin = generated[case.name]
        assert case.requests == twin.requests, case.name
        assert case.config == twin.config, case.name
        assert (case.topology.fingerprint()
                == twin.topology.fingerprint()), case.name
