"""Paper-results gate: the exact figures and worked example, pinned.

The committed ``benchmarks/results/fig{8,9,10}.csv`` and
``tables3_4.txt`` come from the benches at 800 agents, which take
minutes; this test re-derives the same experiments at 100 agents (seed 0,
a few seconds for all 40 sweep points) and pins every field of every
:class:`~repro.evaluation.metrics.AccuracyReport` — counts, accuracies,
mean lengths — plus Smart-SRA's Table 3/4 sessions, as one SHA-256 per
experiment.  Any change to the simulator, a heuristic, or the capture
relation and its matching moves a digest.  If the change is intended,
regenerate the figures and these digests together.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.phase1 import split_candidates
from repro.core.smart_sra import SmartSRA
from repro.evaluation.experiments import (
    fig8_sweep,
    fig9_sweep,
    fig10_sweep,
    paper_example_topology,
    paper_table3_stream,
)

DIGESTS = {
    "fig8": "b65178b7cae31ec2eae6b99548bd99730f431647c333ce164e0550f02c1910be",
    "fig9": "9dd53fa554b39a85599eca7cd33988cfb32fa465dcc4eb3d2881d23dce5bd356",
    "fig10": "c88ca9832df32554bd958b9c56166991c5d4cbb4f9c7274b4149f5c629ee10ef",
    "tables3_4": "29438def48cf6c61367b1bc8cb7085fd24ede621cb482cbd244a2ca474705963",
}


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sweep_document(result):
    return [[value, {name: report.to_dict()
                     for name, report in trial.reports.items()}]
            for value, trial in zip(result.values, result.trials)]


@pytest.mark.parametrize("name, sweep", [("fig8", fig8_sweep),
                                         ("fig9", fig9_sweep),
                                         ("fig10", fig10_sweep)])
def test_figure_reports_are_pinned(name, sweep):
    result = sweep(n_agents=100, seed=0)
    assert not result.failures
    assert _digest(_sweep_document(result)) == DIGESTS[name], (
        result.series())


def test_table3_4_worked_example_is_pinned():
    stream = paper_table3_stream()
    document = {
        "table3": [[request.page for request in candidate]
                   for candidate in split_candidates(stream)],
        "table4": [[[request.page, request.timestamp]
                    for request in session]
                   for session in SmartSRA(
                       paper_example_topology()).reconstruct_user(stream)],
    }
    assert _digest(document) == DIGESTS["tables3_4"]
