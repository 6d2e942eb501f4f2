"""Parallel sweeps are bit-identical to serial ones.

The engine's contract (``repro.parallel``) is that worker count is
*invisible* in the output: ``sweep(..., workers=N)`` returns exactly
the serial sweep for every N, and the merged per-worker metrics
registries reconcile with a serial run's.  The sweep point is the
library's one parallel unit of work, so this runs the real process pool
once per heuristic the paper evaluates, with the lineup built by a
picklable factory inside the workers.
"""

from __future__ import annotations

import functools

import pytest

from repro.evaluation.experiments import paper_topology
from repro.evaluation.harness import sweep
from repro.evaluation.spec import build_heuristics
from repro.obs import Registry, use_registry
from repro.simulator.config import SimulationConfig


def comparable(snapshot: dict) -> tuple:
    """A snapshot minus wall durations (which legitimately vary)."""
    return (snapshot["counters"], snapshot["gauges"],
            {series: (data["buckets"], data["count"])
             for series, data in snapshot["histograms"].items()
             if not series.split("{")[0].endswith(".seconds")})


@pytest.fixture(scope="module")
def topology():
    return paper_topology(seed=5)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("name", ["heur1", "heur2", "heur3", "heur4"])
def test_process_parallel_equals_serial_per_heuristic(topology, name,
                                                      workers):
    """The real process pool, for every heuristic the paper evaluates.

    The factory is a :func:`functools.partial`, so ``workers > 1``
    resolves to processes; on platforms without process support the
    engine's documented thread fallback keeps the assertion meaningful
    rather than skipped.
    """
    config = SimulationConfig(n_agents=40, seed=5)
    factory = functools.partial(build_heuristics, [name], topology)
    serial_registry, parallel_registry = Registry(), Registry()
    with use_registry(serial_registry):
        serial = sweep(topology, config, "stp", [0.05, 0.3],
                       heuristic_factory=factory)
    with use_registry(parallel_registry):
        parallel = sweep(topology, config, "stp", [0.05, 0.3],
                         heuristic_factory=factory, workers=workers)
    assert parallel.rows() == serial.rows()
    assert parallel.rows("captured") == serial.rows("captured")
    assert (comparable(parallel_registry.snapshot())
            == comparable(serial_registry.snapshot()))
