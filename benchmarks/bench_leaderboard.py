"""Extension A15 — the full heuristic leaderboard at the Table 5 point.

Ranks every heuristic in the library — the paper's four, the phase-1
ablation, the adaptive timeout, All-Maximal-Paths and the combined-log
referrer upper baseline — on one simulation, with bootstrap confidence intervals.  The
one-table summary of everything this repository measures.
"""

from __future__ import annotations

from _bench_utils import BENCH_AGENTS, BENCH_SEED, emit
from repro.evaluation.experiments import PAPER_DEFAULTS, paper_topology
from repro.evaluation.leaderboard import leaderboard, render_leaderboard


def test_leaderboard(benchmark, results_dir):
    topology = paper_topology(seed=BENCH_SEED)
    config = PAPER_DEFAULTS.simulation_config(n_agents=BENCH_AGENTS,
                                              seed=BENCH_SEED)
    rows = benchmark.pedantic(leaderboard, args=(topology, config),
                              rounds=1, iterations=1)

    by_name = {row.name: row for row in rows}
    # structural claims the whole repository rests on:
    assert rows[0].name == "referrer"          # richer logs win
    # Smart-SRA is the best of the paper's own four heuristics; AMP, a
    # later paper's (arXiv 1307.1927), may rank above it and stays listed.
    paper = [row for row in rows if row.name in ("heur1", "heur2", "heur3",
                                                 "heur4")]
    assert paper[0].name == "heur4"
    assert by_name["heur4"].matched.low > by_name["heur3"].matched.high, \
        "Smart-SRA's CI must clear heur3's entirely at this scale"

    emit(results_dir, "leaderboard",
         f"Extension A15 — full leaderboard [{BENCH_AGENTS} agents, "
         f"matched metric]\n" + render_leaderboard(rows))
