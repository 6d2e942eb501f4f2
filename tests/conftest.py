"""Shared fixtures: the paper's literal examples and small simulated worlds.

Every run of the suite has scipy and networkx blocked: numpy is the only
runtime dependency, so no library code and no test may import either.
"""

from __future__ import annotations

import sys

import pytest

#: top-level packages no test process may import.
BLOCKED_PACKAGES = ("scipy", "networkx")


class _BlockedPackages:
    """A meta-path finder that refuses :data:`BLOCKED_PACKAGES`."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED_PACKAGES:
            raise ImportError(f"{name} is blocked: repro does not depend "
                              f"on it")
        return None


# installed before the library is imported below, so an import of either
# package anywhere in repro fails here rather than passing unseen.
sys.meta_path.insert(0, _BlockedPackages())

from repro.evaluation.experiments import (
    paper_example_topology,
    paper_table1_stream,
    paper_table3_stream,
)
from repro.simulator.config import SimulationConfig
from repro.simulator.population import simulate_population
from repro.topology.generators import random_site


@pytest.fixture(scope="session")
def fig1_topology():
    """The six-page topology of the paper's Figures 1 and 3."""
    return paper_example_topology()


@pytest.fixture()
def table1_stream():
    """Table 1's request sequence (minutes 0, 6, 15, 29, 32, 47)."""
    return paper_table1_stream()


@pytest.fixture()
def table3_stream():
    """Table 3's request sequence (minutes 0, 6, 9, 12, 14, 15)."""
    return paper_table3_stream()


@pytest.fixture(scope="session")
def small_site():
    """A 60-page random site used across simulator/integration tests."""
    return random_site(n_pages=60, avg_out_degree=6, start_fraction=0.1,
                       seed=42)


@pytest.fixture(scope="session")
def small_simulation(small_site):
    """A 200-agent simulation over the small site (session-scoped: several
    test modules reuse it read-only)."""
    config = SimulationConfig(n_agents=200, seed=7)
    return simulate_population(small_site, config)
