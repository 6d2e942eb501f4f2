"""Seeded workload generation and the reference oracle.

Each workload turns a seed into exactly two files — a topology JSON and an
access log — which are the only inputs the measured paths receive.  The
oracle is computed here, once per ``(workload, seed, scale, generator
version)``, from the generator's own requests rather than by parsing the
log back, so a bug in the ingest layer cannot agree with itself:

* ``oracle_digest`` — the canonical digest of Phase 1 (``split_candidates``)
  followed by the paper-faithful reference Phase 2 (``maximal_sessions``),
  i.e. what uncapped batch Smart-SRA must produce from the file;
* ``governed_digest`` — the serial governed pipeline on the same requests,
  what the governed and sharded paths must produce when the workload's
  per-user cap makes the governor evict (``crawler-nat``).

Files are cached under ``.cache/`` next to this module (git-ignored) and
written to a temporary directory first, so a half-written cache entry is
never reused.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass

from repro.core import maximal_sessions, split_candidates
from repro.evaluation.experiments import PAPER_DEFAULTS, paper_topology
from repro.logs.users import UserAddressMap
from repro.logs.writer import (requests_to_records, write_clf_file,
                               write_combined_file)
from repro.sessions.model import Request, Session, SessionSet
from repro.simulator import SimulationConfig, adversarial_workload
from repro.simulator import simulate_population
from repro.streaming import streaming_smart_sra
from repro.streaming.governor import GovernorConfig
from repro.topology import random_site
from repro.topology.io import save_graph

#: bump when generation or the oracle changes, so stale caches are unused.
GENERATOR_VERSION = 5

#: size divisor of ``--quick`` runs.
QUICK_DIVISOR = 20

#: event-time seconds between watermark flushes (``repro stream
#: --flush-every 600``); the sharded runtime uses the same interval.
FLUSH_INTERVAL = 600.0

#: generous enough that global-budget eviction never fires, which keeps
#: every governed and sharded run inside the byte-identity scope.
MEMORY_BUDGET = 1 << 30

CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         ".cache")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to generate it and how to judge it.

    Why each workload exists is stated in ``BENCHMARK.json`` and README.md.

    Attributes:
        name: the ``--workload`` name.
        log_format: ``"combined"`` or ``"clf"``.
        per_user_cap: the governor's per-user cap on the governed and
            sharded paths.
        governed_matches_oracle: whether the governed and sharded paths
            must reproduce the batch oracle (no eviction can fire) or
            the serial governed reference (cap eviction fires).
    """

    name: str
    log_format: str
    per_user_cap: int
    governed_matches_oracle: bool

    def governor(self) -> GovernorConfig:
        return GovernorConfig(memory_budget=MEMORY_BUDGET,
                              per_user_cap=self.per_user_cap)


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("population", "combined", per_user_cap=512,
                 governed_matches_oracle=True),
        Workload("long-sessions", "clf", per_user_cap=512,
                 governed_matches_oracle=True),
        Workload("crawler-nat", "combined", per_user_cap=64,
                 governed_matches_oracle=False),
    )
}


# Each generator returns ``(topology, requests, horizon)`` for one scale.
# The navigation itself is generated once, from BASE_SEED: fully reseeded,
# Phase 2's output per log line varies by 16-39% (interquartile range over
# ten seeds) on long-sessions and crawler-nat, which would swamp any
# regression bound.  The run seed instead shifts every user's trace by a
# whole number of seconds within ``horizon`` (see ``perturb``), so each
# seed is a different log — interleaving, event times, client addresses —
# posing the same reconstruction work.
BASE_SEED = 0


def _population(scale: float):
    # 600 agents over 4.8 h: the arrival density of ~3 000 agents a day.
    horizon = 17_280.0 * scale
    config = PAPER_DEFAULTS.simulation_config(
        n_agents=max(1, round(600 * scale)), seed=BASE_SEED)
    topology = paper_topology(seed=BASE_SEED)
    result = simulate_population(topology, config, horizon=horizon)
    return topology, result.log_requests, horizon


def _long_sessions(scale: float):
    horizon = 4_320.0 * scale
    config = SimulationConfig(stp=0.01, nip=0.05, mean_stay=20.0,
                              stay_deviation=5.0,
                              n_agents=max(5, round(22 * scale)),
                              seed=BASE_SEED)
    topology = random_site(300, 15, seed=BASE_SEED)
    result = simulate_population(topology, config, horizon=horizon)
    return topology, result.log_requests, horizon


def _crawler_nat(scale: float):
    # Crawlers fetch every 20 s, not every second: at 1 s the uncapped
    # batch Phase 2 enumerates so many maximal paths that two 400-request
    # crawlers exhaust a 3 GiB address space (see README.md).  At 20 s a
    # ~90-request candidate still overruns the 64-request cap.
    topology = random_site(150, 6, seed=BASE_SEED)
    requests = adversarial_workload(
        topology, crawlers=10,
        crawler_requests=max(100, round(450 * scale)),
        crawler_interval=20.0, nat_pools=4,
        humans_per_pool=max(2, round(12 * scale)),
        normal_agents=max(2, round(16 * scale)), seed=BASE_SEED)
    return topology, requests, 3_600.0


_GENERATORS = {"population": _population, "long-sessions": _long_sessions,
               "crawler-nat": _crawler_nat}


def perturb(requests, seed: int, workload_name: str,
            horizon: float) -> list[Request]:
    """Shift each user's requests by a seeded whole number of seconds.

    Whole seconds commute with CLF's flooring, so every user's gaps and
    Phase-1 candidates are unchanged; only the interleaving of users,
    the absolute times and the order users first appear in (hence their
    client addresses) depend on ``seed``.
    """
    rng = random.Random(f"e2e:{workload_name}:{seed}")
    offsets: dict[str, int] = {}
    shifted = []
    for request in requests:
        offset = offsets.get(request.user_id)
        if offset is None:
            offset = offsets[request.user_id] = rng.randrange(
                max(1, int(horizon)))
        shifted.append(Request(request.timestamp + offset, request.user_id,
                               request.page, request.synthetic,
                               request.referrer))
    shifted.sort(key=lambda r: (r.timestamp, r.user_id))
    return shifted


def as_logged(records) -> list[Request]:
    """The requests a log reader must recover from ``records``.

    Host as user, whole-second timestamps (CLF's quantization) and the
    page id; referrers are dropped, as the canonical digest ignores them.
    """
    from repro.logs.clf import url_to_page
    return [Request(float(int(record.timestamp)), record.host,
                    url_to_page(record.url))
            for record in records]


def reference_sessions(requests: list[Request], topology) -> SessionSet:
    """Batch Smart-SRA through the reference Phase 2 (the oracle)."""
    per_user: dict[str, list[Request]] = {}
    for request in requests:
        per_user.setdefault(request.user_id, []).append(request)
    sessions: list[Session] = []
    for user_requests in per_user.values():
        user_requests.sort(key=lambda r: r.timestamp)
        for candidate in split_candidates(user_requests):
            sessions.extend(maximal_sessions(candidate, topology))
    return SessionSet(sessions)


def governed_reference(requests: list[Request], topology,
                       governor: GovernorConfig) -> SessionSet:
    """The serial governed pipeline fed in log order, flushing on the
    benchmark's watermark cadence."""
    pipeline = streaming_smart_sra(topology, governor=governor)
    sessions: list[Session] = []
    next_watermark = None
    for request in requests:
        if next_watermark is None:
            next_watermark = request.timestamp + FLUSH_INTERVAL
        while request.timestamp >= next_watermark:
            sessions.extend(pipeline.flush(next_watermark))
            next_watermark += FLUSH_INTERVAL
        sessions.extend(pipeline.feed(request))
    sessions.extend(pipeline.flush())
    return SessionSet(sessions)


def generate(workload: Workload, seed: int, scale: float,
             directory: str) -> dict:
    """Write ``topology.json``, ``access.log`` and ``oracle.json``.

    Returns the oracle document.  Deterministic: the same arguments write
    byte-identical files.
    """
    topology, base, horizon = _GENERATORS[workload.name](scale)
    requests = perturb(base, seed, workload.name, horizon)
    os.makedirs(directory, exist_ok=True)
    topology_path = os.path.join(directory, "topology.json")
    log_path = os.path.join(directory, "access.log")
    save_graph(topology, topology_path)
    records = requests_to_records(requests, UserAddressMap())
    if workload.log_format == "combined":
        lines = write_combined_file(log_path, records)
    else:
        lines = write_clf_file(log_path, records)
    logged = as_logged(records)
    oracle = reference_sessions(logged, topology)
    governed = (oracle if workload.governed_matches_oracle
                else governed_reference(logged, topology,
                                        workload.governor()))
    document = {
        "workload": workload.name, "seed": seed, "scale": scale,
        "generator_version": GENERATOR_VERSION, "lines": lines,
        "users": len({request.user_id for request in logged}),
        "oracle_digest": oracle.canonical_digest(),
        "oracle_sessions": len(oracle),
        "governed_digest": governed.canonical_digest(),
        "governed_sessions": len(governed),
    }
    with open(os.path.join(directory, "oracle.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    return document


def cache_path(workload: Workload, seed: int, quick: bool) -> str:
    size = "quick" if quick else "full"
    return os.path.join(CACHE_DIR, f"{workload.name}-s{seed}-{size}"
                                   f"-g{GENERATOR_VERSION}")


def load_cached(directory: str) -> dict | None:
    """The cached oracle document, or ``None`` when not (fully) cached."""
    try:
        with open(os.path.join(directory, "oracle.json"),
                  encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def generate_cached(workload: Workload, seed: int, quick: bool) -> str:
    """Generate into the cache unless present; returns the directory."""
    directory = cache_path(workload, seed, quick)
    if load_cached(directory) is not None:
        return directory
    scratch = f"{directory}.tmp{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    generate(workload, seed, 1.0 / QUICK_DIVISOR if quick else 1.0, scratch)
    shutil.rmtree(directory, ignore_errors=True)
    os.replace(scratch, directory)
    return directory
