"""Unit tests for the topology generators."""

from __future__ import annotations

import pytest

from repro.exceptions import TopologyError
from repro.topology.analysis import degree_statistics, reachable_fraction
from repro.topology.generators import (
    hierarchical_site,
    page_name,
    power_law_site,
    random_site,
)


def test_page_name_convention():
    assert page_name(0) == "P0"
    assert page_name(42) == "P42"


class TestRandomSite:
    def test_paper_scale_statistics(self):
        graph = random_site(300, 15.0, seed=0)
        assert graph.page_count == 300
        stats = degree_statistics(graph)
        # binomial mean 15; the reachability repair may add a few links.
        assert 13.0 < stats.mean_out < 17.5

    def test_start_fraction(self):
        graph = random_site(200, 5.0, start_fraction=0.05, seed=1)
        assert len(graph.start_pages) == 10

    def test_at_least_one_start_page(self):
        graph = random_site(10, 2.0, start_fraction=0.01, seed=1)
        assert len(graph.start_pages) == 1

    def test_fully_reachable(self):
        for seed in range(3):
            graph = random_site(80, 3.0, seed=seed)
            assert reachable_fraction(graph) == 1.0

    def test_deterministic_per_seed(self):
        assert random_site(50, 4.0, seed=9) == random_site(50, 4.0, seed=9)

    def test_seeds_differ(self):
        assert random_site(50, 4.0, seed=1) != random_site(50, 4.0, seed=2)

    def test_single_page_site(self):
        graph = random_site(1, 0.0, seed=0)
        assert graph.page_count == 1
        assert graph.start_pages == {"P0"}

    @pytest.mark.parametrize("kwargs", [
        {"n_pages": 0},
        {"n_pages": 10, "avg_out_degree": 10},
        {"n_pages": 10, "avg_out_degree": -1},
        {"n_pages": 10, "start_fraction": 0.0},
        {"n_pages": 10, "start_fraction": 1.5},
    ])
    def test_rejects_invalid(self, kwargs):
        kwargs.setdefault("avg_out_degree", 2.0)
        with pytest.raises(TopologyError):
            random_site(**kwargs)


class TestHierarchicalSite:
    def test_single_root_start_page(self):
        graph = hierarchical_site(100, seed=3)
        assert graph.start_pages == {"P0"}

    def test_children_link_back_to_parent(self):
        graph = hierarchical_site(20, branching=3,
                                  cross_link_probability=0.0,
                                  home_link_probability=0.0, seed=0)
        # node 1's parent is node 0; bidirectional tree edges.
        assert graph.has_link("P0", "P1")
        assert graph.has_link("P1", "P0")

    def test_fully_reachable(self):
        graph = hierarchical_site(150, seed=5)
        assert reachable_fraction(graph) == 1.0

    def test_rejects_invalid(self):
        with pytest.raises(TopologyError):
            hierarchical_site(0)
        with pytest.raises(TopologyError):
            hierarchical_site(10, branching=0)
        with pytest.raises(TopologyError):
            hierarchical_site(10, cross_link_probability=2.0)


class TestPowerLawSite:
    def test_heavy_tail(self):
        graph = power_law_site(200, links_per_page=4, seed=2)
        stats = degree_statistics(graph)
        # hubs accumulate far more in-links than the mean.
        assert stats.max_in > 3 * stats.mean_in

    def test_fully_reachable(self):
        graph = power_law_site(120, seed=7)
        assert reachable_fraction(graph) == 1.0

    def test_start_pages_are_hubs(self):
        graph = power_law_site(100, links_per_page=3, start_fraction=0.05,
                               seed=4)
        mean_in = sum(graph.in_degree(p) for p in graph.pages) / 100
        start_in = [graph.in_degree(p) for p in graph.start_pages]
        assert min(start_in) >= mean_in

    def test_deterministic(self):
        assert power_law_site(60, seed=1) == power_law_site(60, seed=1)

    def test_rejects_invalid(self):
        with pytest.raises(TopologyError):
            power_law_site(0)
        with pytest.raises(TopologyError):
            power_law_site(10, links_per_page=0)
        with pytest.raises(TopologyError):
            power_law_site(10, start_fraction=0.0)


#: builds every family, including a sparse random site whose
#: reachability repair adds many links, and prints each graph's edges and
#: start pages as JSON.
_FAMILIES_SCRIPT = """
import json
from repro.topology.generators import (
    hierarchical_site, power_law_site, random_site)
graphs = {
    "random": random_site(80, 15.0, seed=0),
    "random-sparse": random_site(60, 1.2, seed=0),
    "hierarchical": hierarchical_site(80, seed=0),
    "power-law": power_law_site(80, links_per_page=8, seed=0),
}
print(json.dumps({name: [list(graph.edges()), sorted(graph.start_pages)]
                  for name, graph in graphs.items()}))
"""


def test_generators_do_not_depend_on_the_hash_seed():
    """Set iteration order varies with ``PYTHONHASHSEED``; the generators
    must draw from their RNG in an order that does not."""
    import json
    import os
    import subprocess
    import sys

    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for hash_seed in ("0", "1"):
        completed = subprocess.run(
            [sys.executable, "-c", _FAMILIES_SCRIPT],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed))
        assert completed.returncode == 0, completed.stderr
        outputs.append(json.loads(completed.stdout))
    for family in outputs[0]:
        assert outputs[0][family] == outputs[1][family], family
