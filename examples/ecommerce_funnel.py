"""Site reorganization study on a hierarchical shop-like site.

One of the application areas the paper lists for web usage mining is *site
reorganization*: find the navigation paths users actually walk and compare
them against the site's link structure.  This example:

1. builds a hierarchical site (a catalog tree with cross links) — the shape
   of a typical shop,
2. simulates a population and reconstructs sessions with Smart-SRA,
3. mines frequent navigation paths and frequent page pairs from the
   reconstructed sessions,
4. flags "shortcut candidates": frequent 3-step paths whose endpoints are
   not directly linked — pages the site should probably connect.

Run:  python examples/ecommerce_funnel.py
"""

from __future__ import annotations

from repro import SimulationConfig, SmartSRA, hierarchical_site, simulate_population
from repro.mining.apriori import apriori
from repro.mining.sequential import frequent_sequences


def main() -> None:
    site = hierarchical_site(n_pages=200, branching=4,
                             cross_link_probability=0.03,
                             home_link_probability=0.4, seed=11)
    print(f"catalog site: {site}")

    simulation = simulate_population(
        site, SimulationConfig(n_agents=600, seed=2, nip=0.1))
    sessions = SmartSRA(site).reconstruct(simulation.log_requests)
    print(f"{len(sessions)} reconstructed sessions from "
          f"{len(simulation.log_requests)} log records\n")

    patterns = frequent_sequences(sessions, min_support=0.002, max_length=3)
    paths = [p for p in patterns if len(p.pages) >= 2]
    paths.sort(key=lambda p: -p.support)
    print("top walked paths:")
    for pattern in paths[:8]:
        print(f"  {pattern.support:6.2%}  {' -> '.join(pattern.pages)}")

    shortcuts = [p for p in paths
                 if len(p.pages) == 3
                 and not site.has_link(p.pages[0], p.pages[2])]
    print("\nshortcut candidates (frequent A->B->C with no A->C link):")
    for pattern in shortcuts[:8]:
        print(f"  {pattern.support:6.2%}  {pattern.pages[0]} -> "
              f"{pattern.pages[2]}  (via {pattern.pages[1]})")
    if not shortcuts:
        print("  (none above the support threshold)")

    itemsets = apriori(sessions, min_support=0.005, max_size=2)
    pairs = sorted((i for i in itemsets if len(i) == 2),
                   key=lambda i: (-i.support, i.pages))
    print("\nmost frequent visited-together page pairs:")
    for itemset in pairs[:8]:
        print(f"  {itemset.support:6.2%}  {' + '.join(itemset.pages)}")


if __name__ == "__main__":
    main()
