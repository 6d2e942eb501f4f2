"""Random web-site topology generators.

The paper evaluates on randomly generated topologies whose two first-order
statistics come from its Table 5: **300 pages** and an **average out-degree
of 15**.  :func:`random_site` reproduces that family.  Two further families,
:func:`hierarchical_site` (a tree-shaped site with cross links and home
links, the shape of most hand-authored sites) and :func:`power_law_site`
(preferential attachment, the shape of large organically grown sites), feed
the topology-family ablation benchmark.

All generators are deterministic given ``seed`` and return a
:class:`~repro.topology.graph.WebGraph` whose start pages are reachable
session entry points.
"""

from __future__ import annotations

import random

from repro.exceptions import TopologyError
from repro.topology.graph import WebGraph

__all__ = ["random_site", "hierarchical_site", "power_law_site", "page_name"]


def page_name(index: int) -> str:
    """Canonical page identifier for node ``index`` (``"P0"``, ``"P1"``, …)."""
    return f"P{index}"


def _ensure_reachable(adjacency: dict[str, set[str]],
                      start_pages: list[str], rng: random.Random) -> None:
    """Patch ``adjacency`` in place until every page is reachable from a start.

    Unreachable pages would be dead weight in the simulator (no agent could
    ever visit them) and would silently shrink the effective site size, so
    every generator runs this repair step: for each unreachable page, add one
    link from a uniformly chosen already-reachable page.
    """
    reachable = set(start_pages)
    frontier = list(start_pages)
    while frontier:
        page = frontier.pop()
        for target in adjacency[page]:
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)

    unreachable = sorted(set(adjacency) - reachable)
    reachable_list = sorted(reachable)
    for page in unreachable:
        source = rng.choice(reachable_list)
        while source == page:
            source = rng.choice(reachable_list)
        adjacency[source].add(page)
        # Everything newly reachable through `page` becomes a valid source
        # for later repairs.
        stack = [page]
        while stack:
            current = stack.pop()
            if current in reachable:
                continue
            reachable.add(current)
            reachable_list.append(current)
            stack.extend(sorted(adjacency[current]))


def random_site(n_pages: int = 300, avg_out_degree: float = 15.0,
                start_fraction: float = 0.05, *,
                seed: int | None = None) -> WebGraph:
    """Generate the paper's random topology family.

    Each page receives a binomially distributed number of out-links with
    mean ``avg_out_degree``, targeting uniformly random distinct pages.
    ``ceil(start_fraction * n_pages)`` pages (at least one) are designated
    start pages, and a repair pass guarantees every page is reachable from
    some start page.

    Args:
        n_pages: number of pages (paper: 300).
        avg_out_degree: mean out-links per page (paper: 15).
        start_fraction: fraction of pages promoted to session entry points.
        seed: RNG seed for reproducibility.

    Raises:
        TopologyError: for non-positive sizes or an average out-degree that
            cannot be realized (``avg_out_degree >= n_pages``).
    """
    if n_pages <= 0:
        raise TopologyError(f"n_pages must be positive, got {n_pages}")
    if not 0 <= avg_out_degree < n_pages:
        raise TopologyError(
            f"avg_out_degree must be in [0, n_pages); got {avg_out_degree} "
            f"for {n_pages} pages")
    if not 0 < start_fraction <= 1:
        raise TopologyError(
            f"start_fraction must be in (0, 1], got {start_fraction}")

    rng = random.Random(seed)
    pages = [page_name(i) for i in range(n_pages)]
    # Binomial out-degree: each of the (n-1) possible targets is linked
    # independently with probability p = avg / (n - 1).
    link_probability = avg_out_degree / (n_pages - 1) if n_pages > 1 else 0.0

    adjacency: dict[str, set[str]] = {page: set() for page in pages}
    for src_index, src in enumerate(pages):
        degree = sum(1 for _ in range(n_pages - 1)
                     if rng.random() < link_probability)
        if degree:
            candidates = pages[:src_index] + pages[src_index + 1:]
            adjacency[src] = set(rng.sample(candidates, degree))

    n_starts = max(1, round(start_fraction * n_pages))
    start_pages = rng.sample(pages, n_starts)
    _ensure_reachable(adjacency, start_pages, rng)

    return WebGraph(
        ((src, dst) for src, targets in adjacency.items() for dst in targets),
        pages=pages, start_pages=start_pages)


def hierarchical_site(n_pages: int = 300, branching: int = 4,
                      cross_link_probability: float = 0.05,
                      home_link_probability: float = 0.3, *,
                      seed: int | None = None) -> WebGraph:
    """Generate a tree-shaped site with cross links.

    Pages form a ``branching``-ary tree rooted at ``P0`` (the single start
    page).  Every non-root page links back to its parent; with
    ``home_link_probability`` a page also links to the root (the ubiquitous
    "home" link), and each page sprouts cross links to uniformly random
    pages with probability ``cross_link_probability`` per candidate sampled
    (``branching`` candidates are drawn per page).

    Raises:
        TopologyError: for invalid sizes or probabilities.
    """
    if n_pages <= 0:
        raise TopologyError(f"n_pages must be positive, got {n_pages}")
    if branching < 1:
        raise TopologyError(f"branching must be >= 1, got {branching}")
    for label, probability in (("cross_link_probability",
                                cross_link_probability),
                               ("home_link_probability",
                                home_link_probability)):
        if not 0 <= probability <= 1:
            raise TopologyError(f"{label} must be in [0, 1], got {probability}")

    rng = random.Random(seed)
    pages = [page_name(i) for i in range(n_pages)]
    adjacency: dict[str, set[str]] = {page: set() for page in pages}
    root = pages[0]

    for index in range(1, n_pages):
        parent = pages[(index - 1) // branching]
        child = pages[index]
        adjacency[parent].add(child)
        adjacency[child].add(parent)
        if rng.random() < home_link_probability and parent != root:
            adjacency[child].add(root)

    if n_pages > 2:
        for page in pages:
            for _ in range(branching):
                if rng.random() < cross_link_probability:
                    target = rng.choice(pages)
                    if target != page:
                        adjacency[page].add(target)

    _ensure_reachable(adjacency, [root], rng)
    return WebGraph(
        ((src, dst) for src, targets in adjacency.items() for dst in targets),
        pages=pages, start_pages=[root])


def power_law_site(n_pages: int = 300, links_per_page: int = 8,
                   start_fraction: float = 0.05, *,
                   seed: int | None = None) -> WebGraph:
    """Generate a preferential-attachment ("rich get richer") site.

    Pages are added one at a time; each new page links to
    ``links_per_page`` existing pages chosen with probability proportional
    to their current in-degree (plus one, so fresh pages are attachable),
    and each linked page links back with probability 0.5.  The resulting
    in-degree distribution is heavy-tailed, matching measured web graphs
    (Broder et al., WWW 2000, the paper's reference [1]).

    Raises:
        TopologyError: for invalid sizes or fractions.
    """
    if n_pages <= 0:
        raise TopologyError(f"n_pages must be positive, got {n_pages}")
    if links_per_page < 1:
        raise TopologyError(
            f"links_per_page must be >= 1, got {links_per_page}")
    if not 0 < start_fraction <= 1:
        raise TopologyError(
            f"start_fraction must be in (0, 1], got {start_fraction}")

    rng = random.Random(seed)
    pages = [page_name(i) for i in range(n_pages)]
    adjacency: dict[str, set[str]] = {page: set() for page in pages}
    # attachment_pool holds one entry per (in-degree + 1) unit, so a uniform
    # draw from it realizes preferential attachment.
    attachment_pool: list[str] = [pages[0]]

    for index in range(1, n_pages):
        newcomer = pages[index]
        fanout = min(links_per_page, index)
        targets: set[str] = set()
        while len(targets) < fanout:
            targets.add(rng.choice(attachment_pool))
        for target in sorted(targets):
            adjacency[newcomer].add(target)
            attachment_pool.append(target)
            if rng.random() < 0.5:
                adjacency[target].add(newcomer)
                attachment_pool.append(newcomer)
        attachment_pool.append(newcomer)

    n_starts = max(1, round(start_fraction * n_pages))
    # The oldest pages are the hubs; make the biggest hubs the entry points,
    # which mirrors real sites (the home page is the most linked page).
    by_in_degree = sorted(
        pages, key=lambda p: sum(p in adjacency[q] for q in pages),
        reverse=True)
    start_pages = by_in_degree[:n_starts]
    _ensure_reachable(adjacency, start_pages, rng)

    return WebGraph(
        ((src, dst) for src, targets in adjacency.items() for dst in targets),
        pages=pages, start_pages=start_pages)
