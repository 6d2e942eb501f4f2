"""Web site topology substrate.

The paper models the mined web site as a static directed graph whose nodes
are pages and whose edges are hyperlinks, with a designated subset of
*start pages* (pages where new sessions may begin — ``index.html`` and the
like).  This package provides:

* :class:`~repro.topology.graph.WebGraph` — the graph value type consumed by
  the navigation-oriented heuristic, Smart-SRA and the agent simulator;
* generators (:mod:`repro.topology.generators`) reproducing the paper's
  random topology (Table 5: 300 pages, average out-degree 15) plus two more
  realistic families (hierarchical and power-law) used by the topology
  ablation benchmark;
* structural analysis helpers (:mod:`repro.topology.analysis`);
* JSON / adjacency-list serialization (:mod:`repro.topology.io`).
"""

from repro.topology.analysis import (
    degree_statistics,
    entry_candidates,
    path_statistics,
    reachable_fraction,
    summarize,
)
from repro.topology.generators import (
    hierarchical_site,
    power_law_site,
    random_site,
)
from repro.topology.graph import WebGraph
from repro.topology.io import (
    graph_from_adjacency_lines,
    graph_from_jsonable,
    graph_to_adjacency_lines,
    graph_to_jsonable,
    load_graph,
    save_graph,
)

__all__ = [
    "WebGraph",
    "random_site",
    "hierarchical_site",
    "power_law_site",
    "degree_statistics",
    "entry_candidates",
    "reachable_fraction",
    "path_statistics",
    "summarize",
    "graph_to_jsonable",
    "graph_from_jsonable",
    "graph_to_adjacency_lines",
    "graph_from_adjacency_lines",
    "save_graph",
    "load_graph",
]
