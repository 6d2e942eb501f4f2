"""Extension A14 — Phase 2 implementations: reference vs indexed.

Times the paper-pseudocode Phase 2 (re-scan per round) against the indexed
wave-release implementation on three workload shapes:

* the paper's dense setting (out-degree 15, short candidates) — both are
  Step-III-bound;
* a sparse-site stress candidate (out-degree 2, 600 requests) — the
  reference's repeated O(n²) Step-I scans dominate and the indexed version
  wins severalfold;
* a branching-heavy candidate, like the e2e ``long-sessions`` ones: a
  simulated agent with 1% STP and 5% NIP on the out-degree-15 site, the
  candidate whose maximal sessions number in the dozens.

Correctness equivalence is asserted on every shape (and property-tested
exhaustively in ``tests/property/test_phase2_equivalence.py``).
``test_phase2_results`` writes ``results/phase2.txt``: the best of
interleaved rounds per implementation and shape, with the visible CPU
count and the Python version.
"""

from __future__ import annotations

import gc
import platform
import random
import time

import pytest

from _bench_utils import BENCH_QUICK, BENCH_SEED, emit
from repro.core.phase1 import split_candidates
from repro.core.phase2 import maximal_sessions, maximal_sessions_fast
from repro.parallel import available_cpus
from repro.sessions.model import Request
from repro.simulator import SimulationConfig, simulate_population
from repro.topology.generators import random_site

_ROUNDS = 3 if BENCH_QUICK else 15


def _session_multiset(sessions):
    return sorted(tuple((r.page, r.timestamp) for r in session)
                  for session in sessions)


@pytest.fixture(scope="module")
def sparse_candidate():
    site = random_site(300, 2, seed=BENCH_SEED)
    rng = random.Random(BENCH_SEED)
    pages = sorted(site.pages)
    candidate = [Request(i * 3.0, "u", rng.choice(pages))
                 for i in range(600)]
    return site, candidate


@pytest.fixture(scope="module")
def dense_candidate():
    site = random_site(300, 15, seed=BENCH_SEED)
    rng = random.Random(BENCH_SEED)
    pages = sorted(site.pages)
    candidate = [Request(i * 6.0, "u", rng.choice(pages))
                 for i in range(120)]
    return site, candidate


@pytest.fixture(scope="module")
def branching_candidate():
    site = random_site(300, 15, seed=BENCH_SEED)
    config = SimulationConfig(stp=0.01, nip=0.05, mean_stay=20.0,
                              stay_deviation=5.0, n_agents=6,
                              seed=BENCH_SEED)
    per_user: dict[str, list[Request]] = {}
    for request in simulate_population(site, config).log_requests:
        per_user.setdefault(request.user_id, []).append(request)
    candidates = [candidate for requests in per_user.values()
                  for candidate in split_candidates(
                      sorted(requests, key=lambda r: r.timestamp))]
    candidate = max(candidates,
                    key=lambda c: len(maximal_sessions_fast(c, site)))
    assert len(maximal_sessions_fast(candidate, site)) >= 24
    return site, candidate


def test_sparse_reference(benchmark, sparse_candidate):
    site, candidate = sparse_candidate
    result = benchmark(lambda: maximal_sessions(candidate, site))
    assert result


def test_sparse_indexed(benchmark, sparse_candidate):
    site, candidate = sparse_candidate
    result = benchmark(lambda: maximal_sessions_fast(candidate, site))
    assert _session_multiset(result) == _session_multiset(
        maximal_sessions(candidate, site))


def test_dense_reference(benchmark, dense_candidate):
    site, candidate = dense_candidate
    result = benchmark(lambda: maximal_sessions(candidate, site))
    assert result


def test_dense_indexed(benchmark, dense_candidate):
    site, candidate = dense_candidate
    result = benchmark(lambda: maximal_sessions_fast(candidate, site))
    assert _session_multiset(result) == _session_multiset(
        maximal_sessions(candidate, site))


def test_branching_reference(benchmark, branching_candidate):
    site, candidate = branching_candidate
    result = benchmark(lambda: maximal_sessions(candidate, site))
    assert result


def test_branching_indexed(benchmark, branching_candidate):
    site, candidate = branching_candidate
    result = benchmark(lambda: maximal_sessions_fast(candidate, site))
    assert _session_multiset(result) == _session_multiset(
        maximal_sessions(candidate, site))


def _seconds(kernel, candidate, site) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel(candidate, site)
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_phase2_results(results_dir, sparse_candidate, dense_candidate,
                        branching_candidate):
    shapes = (("dense", dense_candidate), ("sparse", sparse_candidate),
              ("branching", branching_candidate))
    lines = [f"Extension A14 — Phase 2: paper reference vs indexed kernel "
             f"(seed {BENCH_SEED}, best of {_ROUNDS} interleaved rounds, "
             f"{available_cpus()} CPU(s) visible, "
             f"Python {platform.python_version()})",
             "  shape      requests  sessions  reference ms  indexed ms"
             "  speedup"]
    for name, (site, candidate) in shapes:
        site.adjacency_index()  # built once per topology, not timed
        sessions = maximal_sessions_fast(candidate, site)
        assert _session_multiset(sessions) == _session_multiset(
            maximal_sessions(candidate, site))
        best = {maximal_sessions: float("inf"),
                maximal_sessions_fast: float("inf")}
        for __ in range(_ROUNDS):
            for kernel in best:
                best[kernel] = min(best[kernel],
                                   _seconds(kernel, candidate, site))
        reference = best[maximal_sessions]
        indexed = best[maximal_sessions_fast]
        lines.append(f"  {name:<9}  {len(candidate):8d}  {len(sessions):8d}"
                     f"  {reference * 1e3:12.2f}  {indexed * 1e3:10.2f}"
                     f"  {reference / indexed:6.1f}x")
    emit(results_dir, "phase2", "\n".join(lines) + "\n")
