"""Unit tests for the WebGraph value type."""

from __future__ import annotations

import pytest

from repro.exceptions import TopologyError
from repro.topology.graph import WebGraph


@pytest.fixture()
def diamond():
    """A -> {B, C} -> D with A as the start page."""
    return WebGraph([("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
                    start_pages=["A"])


class TestConstruction:
    def test_basic_counts(self, diamond):
        assert diamond.page_count == 4
        assert diamond.edge_count == 4
        assert diamond.start_pages == {"A"}

    def test_duplicate_edges_collapse(self):
        graph = WebGraph([("A", "B"), ("A", "B")], start_pages=["A"])
        assert graph.edge_count == 1

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self-loop"):
            WebGraph([("A", "A")], start_pages=["A"])

    def test_rejects_empty_graph(self):
        with pytest.raises(TopologyError, match="at least one page"):
            WebGraph([], start_pages=[])

    def test_rejects_missing_start_pages(self):
        with pytest.raises(TopologyError, match="start page"):
            WebGraph([("A", "B")], start_pages=[])

    def test_rejects_unknown_start_page(self):
        with pytest.raises(TopologyError, match="not present"):
            WebGraph([("A", "B")], start_pages=["Z"])

    def test_rejects_edge_outside_explicit_pages(self):
        with pytest.raises(TopologyError, match="outside"):
            WebGraph([("A", "Z")], pages=["A", "B"], start_pages=["A"])

    def test_isolated_pages_via_explicit_set(self):
        graph = WebGraph([("A", "B")], pages=["A", "B", "C"],
                         start_pages=["A"])
        assert "C" in graph
        assert graph.out_degree("C") == 0


class TestQueries:
    def test_has_link(self, diamond):
        assert diamond.has_link("A", "B")
        assert not diamond.has_link("B", "A")
        assert not diamond.has_link("A", "nope")
        assert not diamond.has_link("nope", "A")

    def test_successors_predecessors(self, diamond):
        assert diamond.successors("A") == {"B", "C"}
        assert diamond.predecessors("D") == {"B", "C"}
        assert diamond.successors("unknown") == frozenset()
        assert diamond.predecessors("unknown") == frozenset()

    def test_degrees(self, diamond):
        assert diamond.out_degree("A") == 2
        assert diamond.in_degree("D") == 2
        assert diamond.out_degree("missing") == 0

    def test_edges_sorted(self, diamond):
        assert list(diamond.edges()) == [
            ("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]

    def test_container_protocol(self, diamond):
        assert "A" in diamond
        assert len(diamond) == 4
        assert list(diamond) == ["A", "B", "C", "D"]

    def test_equality(self, diamond):
        same = WebGraph([("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
                        start_pages=["A"])
        assert diamond == same
        different_start = WebGraph(
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
            start_pages=["A", "B"])
        assert diamond != different_start


class TestRestriction:
    def test_induced_subgraph(self, diamond):
        sub = diamond.restricted_to(["A", "B", "D"])
        assert sub.pages == {"A", "B", "D"}
        assert sub.has_link("A", "B")
        assert sub.has_link("B", "D")
        assert not sub.has_link("A", "D")

    def test_unknown_pages_ignored(self, diamond):
        sub = diamond.restricted_to(["A", "XX"])
        assert sub.pages == {"A"}

    def test_empty_restriction_rejected(self, diamond):
        with pytest.raises(TopologyError, match="empty"):
            diamond.restricted_to(["XX"])

    def test_start_pages_promoted_when_lost(self, diamond):
        sub = diamond.restricted_to(["B", "D"])
        assert sub.start_pages == {"B", "D"}


class TestFromAdjacency:
    def test_builds_from_mapping(self):
        graph = WebGraph.from_adjacency(
            {"A": ["B", "C"], "B": ["C"]}, start_pages=["A"])
        assert graph.successors("A") == {"B", "C"}
        assert graph.page_count == 3
