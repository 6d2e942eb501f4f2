"""Seeded corpus cases for the differential harness.

A corpus case is one self-contained reconstruction problem: a site
graph, the ρ/δ thresholds, and a request stream — plus, once pinned, the
*expected* canonical output so the corpus doubles as a golden-file
regression suite.  Cases serialize to single JSON documents under
``tests/data/diffcheck/`` (one file per case, committed), so a
divergence fixed once can never silently return.

:func:`generate_corpus` builds the adversarial family the tentpole calls
for: ρ/δ-boundary timestamps (threshold-exactly and threshold-plus-
epsilon gaps), duplicate events, equal timestamps, single-page sessions
(including pages unknown to the topology), many interleaved users
whose streams overlap in time, cyclic topologies (2-cycles, rings
and a dense complete core, so pages repeat within one candidate), and a
simulator population — all seeded, so regenerating with the same seed
reproduces the committed corpus byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.config import SmartSRAConfig
from repro.exceptions import ConfigurationError
from repro.sessions.model import Request, SessionSet
from repro.simulator import SimulationConfig, simulate_population
from repro.topology.generators import random_site
from repro.topology.graph import WebGraph
from repro.topology.io import graph_from_jsonable, graph_to_jsonable

__all__ = [
    "CORPUS_SCHEMA",
    "CorpusCase",
    "case_from_jsonable",
    "case_to_jsonable",
    "generate_corpus",
    "load_corpus",
    "save_corpus",
]

#: bump when the on-disk case layout changes incompatibly.
CORPUS_SCHEMA = 1


@dataclass(frozen=True, slots=True)
class CorpusCase:
    """One reconstruction problem, optionally with pinned expectations.

    Attributes:
        name: unique identifier; doubles as the JSON filename stem.
        description: what the case stresses.
        seed: seed the engines receive (reorder shuffle, retry jitter).
        config: the ρ/δ thresholds for this case.
        topology: the site graph.
        requests: the stream, sorted by ``(timestamp, user, page)``.
        expected_form: pinned canonical output
            (:meth:`~repro.sessions.model.SessionSet.canonical_form` as a
            sorted item list), or ``None`` before pinning.
        expected_digest: pinned
            :meth:`~repro.sessions.model.SessionSet.canonical_digest`.
        expected_amp_digest: pinned canonical digest of the
            All-Maximal-Paths output (the ``amp-reference`` engine's) —
            a *second*, algorithm-independent golden over the same case,
            or ``None`` before pinning.  Optional in the JSON document,
            so pre-AMP corpus files still load.
    """

    name: str
    description: str
    seed: int
    config: SmartSRAConfig
    topology: WebGraph
    requests: tuple[Request, ...]
    expected_form: tuple[tuple[str, tuple[tuple[tuple[float, str, bool],
                                                ...], ...]], ...] | None = None
    expected_digest: str | None = None
    expected_amp_digest: str | None = None

    def with_expected(self, reference: SessionSet,
                      amp_reference: SessionSet | None = None
                      ) -> "CorpusCase":
        """Pin the reference output (normally the serial engine's).

        ``amp_reference`` additionally pins the All-Maximal-Paths golden
        (normally the ``amp-reference`` engine's output).
        """
        form = tuple(
            (user, tuple(bodies))
            for user, bodies in sorted(reference.canonical_form().items()))
        return dataclasses.replace(
            self, expected_form=form,
            expected_digest=reference.canonical_digest(),
            expected_amp_digest=(amp_reference.canonical_digest()
                                 if amp_reference is not None
                                 else self.expected_amp_digest))


def case_to_jsonable(case: CorpusCase) -> dict[str, Any]:
    """Encode a case as a plain JSON document."""
    document: dict[str, Any] = {
        "schema": CORPUS_SCHEMA,
        "name": case.name,
        "description": case.description,
        "seed": case.seed,
        "config": {
            "max_gap": case.config.max_gap,
            "max_duration": case.config.max_duration,
            "rescue_orphans": case.config.rescue_orphans,
        },
        "topology": graph_to_jsonable(case.topology),
        "requests": [[request.timestamp, request.user_id, request.page]
                     for request in case.requests],
    }
    if case.expected_digest is not None:
        document["expected"] = {
            "digest": case.expected_digest,
            "sessions": [[user, [list(map(list, body)) for body in bodies]]
                         for user, bodies in (case.expected_form or ())],
        }
    if case.expected_amp_digest is not None:
        document["expected_amp"] = {"digest": case.expected_amp_digest}
    return document


def case_from_jsonable(data: Mapping[str, Any]) -> CorpusCase:
    """Decode :func:`case_to_jsonable` output.

    Raises:
        ConfigurationError: for a schema the reader does not understand.
    """
    if data.get("schema") != CORPUS_SCHEMA:
        raise ConfigurationError(
            f"corpus case schema {data.get('schema')!r} does not match "
            f"this reader ({CORPUS_SCHEMA})")
    config = data.get("config", {})
    expected = data.get("expected")
    expected_amp = data.get("expected_amp")
    expected_form = None
    expected_digest = None
    if expected is not None:
        expected_digest = str(expected["digest"])
        expected_form = tuple(
            (str(user), tuple(tuple((float(t), str(page), bool(synthetic))
                                    for t, page, synthetic in body)
                              for body in bodies))
            for user, bodies in expected["sessions"])
    return CorpusCase(
        name=str(data["name"]),
        description=str(data.get("description", "")),
        seed=int(data.get("seed", 0)),
        config=SmartSRAConfig(
            max_duration=float(config.get("max_duration", 1800.0)),
            max_gap=float(config.get("max_gap", 600.0)),
            rescue_orphans=bool(config.get("rescue_orphans", False))),
        topology=graph_from_jsonable(data["topology"]),
        requests=tuple(sorted(
            Request(float(t), str(user), str(page))
            for t, user, page in data["requests"])),
        expected_form=expected_form,
        expected_digest=expected_digest,
        expected_amp_digest=(str(expected_amp["digest"])
                             if expected_amp is not None else None),
    )


def save_corpus(cases: Iterable[CorpusCase], directory: str | Path) -> list[str]:
    """Write one ``<name>.json`` per case; returns the paths written."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = target / f"{case.name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case_to_jsonable(case), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        paths.append(str(path))
    return paths


def load_corpus(directory: str | Path) -> list[CorpusCase]:
    """Load every ``*.json`` case in ``directory``, sorted by filename.

    Raises:
        ConfigurationError: for a missing/empty directory or a case file
            that does not parse — a corpus that silently loads as empty
            would make the harness vacuously green.
    """
    source = Path(directory)
    paths = sorted(source.glob("*.json"))
    if not paths:
        raise ConfigurationError(
            f"no corpus cases (*.json) found in {str(source)!r}")
    cases = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                cases.append(case_from_jsonable(json.load(handle)))
        except (OSError, json.JSONDecodeError, KeyError,
                TypeError, ValueError) as error:
            raise ConfigurationError(
                f"corpus case {str(path)!r} is unreadable: {error}") from error
    return cases


# -- generation --------------------------------------------------------------


def _sorted(requests: Iterable[Request]) -> tuple[Request, ...]:
    return tuple(sorted(requests))


def _chain_topology(length: int = 6) -> WebGraph:
    """A linear site A0 -> A1 -> ... plus one isolated page."""
    pages = [f"A{i}" for i in range(length)] + ["LONE"]
    edges = [(f"A{i}", f"A{i + 1}") for i in range(length - 1)]
    return WebGraph(edges, pages=pages, start_pages=["A0"])


def _boundary_case(config: SmartSRAConfig, seed: int) -> CorpusCase:
    """Gaps and spans landing exactly on, and just past, ρ and δ."""
    rho, delta = config.max_gap, config.max_duration
    eps = 1e-6
    requests = []
    # exactly-on-threshold gaps: one unbroken chain until δ is exceeded.
    t = 0.0
    for i in range(4):
        requests.append(Request(t, "u-gap-eq", f"A{i}"))
        t += rho
    # a gap of ρ+ε must split, however the engine buffers.
    requests += [Request(0.0, "u-gap-over", "A0"),
                 Request(rho + eps, "u-gap-over", "A1"),
                 Request(rho + eps + 1.0, "u-gap-over", "A2")]
    # span exactly δ stays whole; one ε more must split.
    requests += [Request(0.0, "u-span-eq", "A0"),
                 Request(delta / 2, "u-span-eq", "A1"),
                 Request(delta, "u-span-eq", "A2")]
    requests += [Request(0.0, "u-span-over", "A0"),
                 Request(delta / 2, "u-span-over", "A1"),
                 Request(delta + eps, "u-span-over", "A2")]
    return CorpusCase(
        name="boundary-rho-delta",
        description="gaps/spans exactly on and just past the inclusive "
                    "rho and delta thresholds",
        seed=seed, config=config, topology=_chain_topology(),
        requests=_sorted(requests))


def _tie_case(config: SmartSRAConfig, seed: int) -> CorpusCase:
    """Equal timestamps within and across users."""
    requests = []
    for user in ("tie-a", "tie-b"):
        requests += [Request(100.0, user, "A0"),
                     Request(100.0, user, "A1"),
                     Request(100.0, user, "A2"),
                     Request(160.0, user, "A3")]
    # a third user whose every hit collides with the others' clock.
    requests += [Request(100.0, "tie-c", "A0"),
                 Request(160.0, "tie-c", "A1")]
    return CorpusCase(
        name="equal-timestamps",
        description="zero-gap requests within a user and identical "
                    "clocks across users",
        seed=seed, config=config, topology=_chain_topology(),
        requests=_sorted(requests))


def _duplicate_case(config: SmartSRAConfig, seed: int) -> CorpusCase:
    """Literal duplicate events and same-instant different-page hits."""
    requests = [
        Request(10.0, "dup", "A0"),
        Request(10.0, "dup", "A0"),       # the double-logging artifact
        Request(20.0, "dup", "A1"),
        Request(20.0, "dup", "A2"),       # same instant, different page
        Request(700.0, "dup", "A0"),
        Request(700.0, "dup", "A0"),
    ]
    return CorpusCase(
        name="duplicate-events",
        description="exact duplicates and same-timestamp distinct pages "
                    "must flow through every engine identically",
        seed=seed, config=config, topology=_chain_topology(),
        requests=_sorted(requests))


def _single_page_case(config: SmartSRAConfig, seed: int) -> CorpusCase:
    """One-hit users: linked pages, a linkless page, an off-site page."""
    requests = [
        Request(5.0, "solo-1", "A0"),
        Request(6.0, "solo-2", "LONE"),
        Request(7.0, "solo-3", "OFFSITE"),   # not in the topology at all
        Request(8.0, "solo-4", "A3"),
    ]
    return CorpusCase(
        name="single-page-sessions",
        description="singleton sessions, including pages without links "
                    "and pages unknown to the site graph",
        seed=seed, config=config, topology=_chain_topology(),
        requests=_sorted(requests))


def _chunk_spanning_case(config: SmartSRAConfig, seed: int) -> CorpusCase:
    """Many interleaved users whose streams overlap in time.

    The name and description predate the removal of the per-user
    fan-out; they stay because the golden corpus pins them.
    """
    topology = random_site(20, 4.0, seed=seed)
    pages = sorted(topology.pages)
    rng = random.Random(seed)
    requests = []
    for u in range(12):
        t = float(rng.randrange(0, 50))
        page = rng.choice(pages)
        for _ in range(rng.randint(2, 9)):
            requests.append(Request(t, f"w{u:02d}", page))
            successors = sorted(topology.successors(page))
            page = (rng.choice(successors) if successors
                    else rng.choice(pages))
            t += rng.choice([0.0, 30.0, 60.0, config.max_gap,
                             config.max_gap + 1.0])
    return CorpusCase(
        name="chunk-spanning-users",
        description="12 interleaved users so worker counts 2/3/auto cut "
                    "chunk boundaries between different user shards",
        seed=seed, config=config, topology=topology,
        requests=_sorted(requests))


def _cyclic_case(config: SmartSRAConfig, seed: int) -> CorpusCase:
    """Cyclic topologies: 2-cycles, a ring, and a dense complete core.

    Page graphs are cyclic in practice (nav bars link back to the home
    page) even though the *session DAGs* built over request ordinals are
    acyclic by construction.  A user ping-ponging a 2-cycle, or lapping a
    ring, repeats the same page inside one candidate — exactly where an
    id-keyed index (``by_last``, trie backfill, interned symbol reuse)
    can conflate two visits to one page.  The dense K4 core additionally
    branches every wave, and a duplicate event sits *on* the 2-cycle.
    """
    cycles = [f"C{i}" for i in range(5)]
    dense = [f"D{i}" for i in range(4)]
    edges = [("C0", "C1"), ("C1", "C0"),                 # 2-cycle
             ("C1", "C2"), ("C2", "C3"), ("C3", "C1"),   # 3-ring
             ("C3", "C4"), ("C4", "C0"),                 # closing arc
             ("C4", "D0")]
    edges += [(a, b) for a in dense for b in dense if a != b]  # K4 core
    topology = WebGraph(edges, pages=cycles + dense, start_pages=["C0"])
    requests = [
        # ping-pong the 2-cycle: the same two pages alternate within ρ.
        Request(0.0, "cyc-pong", "C0"), Request(30.0, "cyc-pong", "C1"),
        Request(60.0, "cyc-pong", "C0"), Request(90.0, "cyc-pong", "C1"),
        Request(120.0, "cyc-pong", "C0"),
        # two full laps of the 3-ring: every page repeats once.
        Request(0.0, "cyc-ring", "C1"), Request(20.0, "cyc-ring", "C2"),
        Request(40.0, "cyc-ring", "C3"), Request(60.0, "cyc-ring", "C1"),
        Request(80.0, "cyc-ring", "C2"), Request(100.0, "cyc-ring", "C3"),
        # dense complete core with a revisit and a same-instant tie.
        Request(0.0, "cyc-dense", "D0"), Request(15.0, "cyc-dense", "D1"),
        Request(15.0, "cyc-dense", "D2"), Request(30.0, "cyc-dense", "D3"),
        Request(45.0, "cyc-dense", "D0"), Request(60.0, "cyc-dense", "D2"),
        # a literal duplicate event sitting on the 2-cycle.
        Request(10.0, "cyc-dup", "C0"), Request(40.0, "cyc-dup", "C1"),
        Request(40.0, "cyc-dup", "C1"), Request(70.0, "cyc-dup", "C0"),
    ]
    return CorpusCase(
        name="cyclic-topologies",
        description="2-cycle ping-pong, ring laps and a dense complete "
                    "core: repeated pages within one candidate stress "
                    "id-keyed session indexes in every engine",
        seed=seed, config=config, topology=topology,
        requests=_sorted(requests))


def _simulated_case(config: SmartSRAConfig, seed: int) -> CorpusCase:
    """A small simulator population — realistic branching navigation."""
    topology = random_site(30, 4.0, seed=seed + 1)
    result = simulate_population(
        topology,
        SimulationConfig(n_agents=40, seed=seed + 2),
        horizon=7_200.0)
    return CorpusCase(
        name="simulated-population",
        description="40 simulated agents on a 30-page random site "
                    "(paper-style workload)",
        seed=seed, config=config, topology=topology,
        requests=_sorted(result.log_requests))


def generate_corpus(seed: int = 0,
                    config: SmartSRAConfig | None = None) -> list[CorpusCase]:
    """Build the full adversarial corpus (without pinned expectations).

    Deterministic in ``seed``: the committed golden corpus is exactly
    ``generate_corpus(seed=0)`` pinned against the serial engine.
    """
    cfg = config if config is not None else SmartSRAConfig()
    return [
        _boundary_case(cfg, seed),
        _tie_case(cfg, seed),
        _duplicate_case(cfg, seed),
        _single_page_case(cfg, seed),
        _chunk_spanning_case(cfg, seed),
        _cyclic_case(cfg, seed),
        _simulated_case(cfg, seed),
    ]
