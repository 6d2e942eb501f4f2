"""Multi-agent simulation.

:func:`simulate_population` runs :func:`~repro.simulator.agent.simulate_agent`
for ``config.n_agents`` independent agents over one topology and bundles

* the ground-truth :class:`~repro.sessions.model.SessionSet`, and
* the merged, time-sorted server request stream (the access log content)

into a :class:`SimulationResult` — the input pairing every evaluation in
the paper's §5 consumes.

Each agent draws from an RNG seeded by ``(config.seed, agent index)``, so
individual agents are reproducible and *prefix-stable*: agent 41 behaves
identically whether the population has 100 or 10,000 members.  Agents start
at independent uniformly random offsets within ``horizon`` (default: one
day), like real visitors arriving over a day.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any

from repro.exceptions import SimulationError
from repro.obs import get_registry
from repro.sessions.model import Request, Session, SessionSet
from repro.simulator.arrivals import sample_arrival
from repro.simulator.agent import AgentTrace, simulate_agent
from repro.simulator.config import SimulationConfig
from repro.topology.graph import WebGraph

__all__ = ["SimulationResult", "simulate_population"]


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Outcome of simulating a whole agent population.

    Attributes:
        topology: the site the agents browsed.
        config: the behavioral configuration used.
        ground_truth: every agent's real sessions (the denominator of the
            paper's accuracy metric).
        log_requests: all server-served requests, sorted by timestamp —
            exactly what a web server's access log records, ready for
            :mod:`repro.logs` serialization or direct reconstruction.
        traces: the per-agent traces, for cache statistics and drill-down.
    """

    topology: WebGraph
    config: SimulationConfig
    ground_truth: SessionSet
    log_requests: tuple[Request, ...]
    traces: tuple[AgentTrace, ...]

    @property
    def cache_hit_rate(self) -> float:
        """Population-wide fraction of landings hidden by caches (browser
        plus proxy) — landings the server log never saw."""
        hidden = sum(trace.cache_hits + trace.proxy_hits
                     for trace in self.traces)
        served = sum(trace.cache_misses for trace in self.traces)
        total = hidden + served
        return hidden / total if total else 0.0

    def sessions_per_agent(self) -> float:
        """Mean number of ground-truth sessions per agent."""
        if not self.traces:
            return 0.0
        return len(self.ground_truth) / len(self.traces)


def agent_name(index: int) -> str:
    """Canonical agent identity for agent ``index`` (doubles as its IP key)."""
    return f"agent{index:06d}"


def _agent_rng_and_start(config: SimulationConfig, index: int,
                         horizon: float,
                         arrival_profile: str = "uniform"
                         ) -> tuple[random.Random, float]:
    """The agent's private random stream and start time (drawn first, so
    agent behavior is a pure function of (seed, index, horizon,
    profile))."""
    rng = random.Random(f"{config.seed}:{index}")
    if horizon:
        start_time = sample_arrival(rng.random(), horizon, arrival_profile)
    else:
        rng.random()  # keep the stream aligned across profiles
        start_time = 0.0
    return rng, start_time


def _simulate_range(topology: WebGraph, config: SimulationConfig,
                    horizon: float, indices: list[int],
                    arrival_profile: str = "uniform") -> list[AgentTrace]:
    """Simulate the given agent indices without proxy sharing."""
    traces = []
    for index in indices:
        rng, start_time = _agent_rng_and_start(config, index, horizon,
                                               arrival_profile)
        traces.append(simulate_agent(agent_name(index), topology, config,
                                     rng, start_time))
    return traces


def simulate_population(topology: WebGraph, config: SimulationConfig,
                        horizon: float = 86_400.0,
                        arrival_profile: str = "uniform", *,
                        checkpoint=None, resume: bool = False,
                        checkpoint_block: int = 256) -> SimulationResult:
    """Simulate ``config.n_agents`` agents browsing ``topology``.

    Args:
        topology: the site to browse.
        config: behavioral parameters (including ``n_agents``, ``seed`` and
            ``proxy_group_size``).
        horizon: agents' first requests are spread uniformly over
            ``[0, horizon)`` seconds.
        arrival_profile: how arrivals spread over the horizon —
            ``"uniform"`` (paper-implicit default) or ``"diurnal"`` (see
            :mod:`repro.simulator.arrivals`).
        checkpoint: optional checkpoint directory (path or
            :class:`~repro.parallel.checkpoint.CheckpointStore`).  Agent
            traces are persisted in blocks of ``checkpoint_block`` as
            they complete; requires independent agents
            (``proxy_group_size == 1``), since shared proxy caches make
            block results order-dependent.
        resume: continue from an existing checkpoint directory,
            re-simulating only the missing agent blocks.  Because agents
            are prefix-stable, the resumed population is identical to an
            uninterrupted run — including the final ``sim.*`` metrics,
            which are derived from the assembled traces.
        checkpoint_block: agents per checkpoint unit (trade-off between
            write frequency and work lost to an interrupt).

    Raises:
        SimulationError: if ``horizon`` is negative, or checkpointing is
            combined with proxy sharing.
    """
    if horizon < 0:
        raise SimulationError(f"horizon must be >= 0, got {horizon}")

    if checkpoint is not None:
        if config.proxy_group_size > 1:
            raise SimulationError(
                "checkpointing requires independent agents; proxy "
                "sharing makes block results order-dependent")
        traces = _simulate_checkpointed(
            topology, config, horizon, arrival_profile, checkpoint, resume,
            checkpoint_block)
    elif config.proxy_group_size > 1:
        traces = _simulate_with_proxies(topology, config, horizon,
                                        arrival_profile)
    else:
        traces = _simulate_range(topology, config, horizon,
                                 list(range(config.n_agents)),
                                 arrival_profile)

    ground_truth = SessionSet(
        session for trace in traces for session in trace.real_sessions)
    log_requests = sorted(
        (request for trace in traces for request in trace.server_requests),
        key=lambda request: (request.timestamp, request.user_id))
    registry = get_registry()
    if registry.enabled:
        registry.counter("sim.agents").inc(len(traces))
        registry.counter("sim.sessions.generated").inc(len(ground_truth))
        registry.counter("sim.requests.logged").inc(len(log_requests))
        registry.counter("sim.requests.cache_suppressed").inc(
            sum(trace.cache_hits + trace.proxy_hits for trace in traces))
    return SimulationResult(
        topology=topology,
        config=config,
        ground_truth=ground_truth,
        log_requests=tuple(log_requests),
        traces=tuple(traces),
    )


def _simulate_with_proxies(topology: WebGraph, config: SimulationConfig,
                           horizon: float,
                           arrival_profile: str = "uniform"
                           ) -> list[AgentTrace]:
    """Simulate with agents grouped behind shared proxy caches.

    Within each group, agents run in start-time order so the proxy warms
    up roughly as it would in wall-clock time (agent-granular
    approximation; see :class:`SimulationConfig`).
    """
    from repro.simulator.cache import BrowserCache

    prepared = []
    for index in range(config.n_agents):
        rng, start_time = _agent_rng_and_start(config, index, horizon,
                                               arrival_profile)
        prepared.append((index, rng, start_time))

    traces: list[AgentTrace | None] = [None] * config.n_agents
    group_size = config.proxy_group_size
    for group_start in range(0, config.n_agents, group_size):
        group = prepared[group_start:group_start + group_size]
        proxy = BrowserCache()
        for index, rng, start_time in sorted(group,
                                             key=lambda item: item[2]):
            traces[index] = simulate_agent(
                agent_name(index), topology, config, rng, start_time,
                proxy_cache=proxy)
    return [trace for trace in traces if trace is not None]


# -- checkpoint/resume ---------------------------------------------------
#
# Agents are prefix-stable pure functions of (seed, index, horizon,
# profile), so the natural checkpoint unit is a *block of agent indices*:
# blocks complete independently, serialize compactly, and a resumed block
# regenerates byte-identically if its unit was lost or corrupted.  The
# ``sim.*`` metrics are derived from the assembled traces at the end of
# :func:`simulate_population`, so restored and recomputed blocks
# contribute identically — no per-unit snapshot is needed.


def _request_to_jsonable(request: Request) -> list[Any]:
    """Full-fidelity request encoding (unlike
    :meth:`~repro.sessions.model.SessionSet.to_jsonable`, which drops the
    referrer — checkpointed traces must round-trip *exactly*)."""
    return [request.timestamp, request.user_id, request.page,
            request.synthetic, request.referrer]


def _request_from_jsonable(doc: list[Any]) -> Request:
    timestamp, user_id, page, synthetic, referrer = doc
    return Request(timestamp, user_id, page, synthetic, referrer)


def _trace_to_jsonable(trace: AgentTrace) -> dict[str, Any]:
    return {
        "agent_id": trace.agent_id,
        "sessions": [[_request_to_jsonable(request) for request in session]
                     for session in trace.real_sessions],
        "server": [_request_to_jsonable(request)
                   for request in trace.server_requests],
        "cache_hits": trace.cache_hits,
        "proxy_hits": trace.proxy_hits,
        "cache_misses": trace.cache_misses,
    }


def _trace_from_jsonable(doc: dict[str, Any]) -> AgentTrace:
    return AgentTrace(
        agent_id=doc["agent_id"],
        real_sessions=tuple(
            Session(_request_from_jsonable(request) for request in session)
            for session in doc["sessions"]),
        server_requests=tuple(_request_from_jsonable(request)
                              for request in doc["server"]),
        cache_hits=doc["cache_hits"],
        proxy_hits=doc["proxy_hits"],
        cache_misses=doc["cache_misses"],
    )


def _simulate_checkpointed(topology: WebGraph, config: SimulationConfig,
                           horizon: float, arrival_profile: str,
                           checkpoint, resume: bool, block_size: int
                           ) -> list[AgentTrace]:
    """Block-checkpointed population simulation."""
    from repro.parallel.checkpoint import CheckpointStore

    if block_size < 1:
        raise SimulationError(
            f"checkpoint_block must be >= 1, got {block_size}")
    store = (checkpoint if isinstance(checkpoint, CheckpointStore)
             else CheckpointStore(checkpoint))
    fingerprint = hashlib.sha256(json.dumps({
        "kind": "simulate",
        "topology": topology.fingerprint(),
        "config": dataclasses.asdict(config),
        "horizon": horizon,
        "arrival_profile": arrival_profile,
        "block": block_size,
    }, sort_keys=True, default=str).encode("utf-8")).hexdigest()[:24]
    store.begin(fingerprint, label=f"simulate agents={config.n_agents}",
                resume=resume)

    blocks = [(start, min(start + block_size, config.n_agents))
              for start in range(0, config.n_agents, block_size)]
    traces: list[AgentTrace] = []
    try:
        for start, end in blocks:
            key = f"agents={start}-{end}"
            unit = store.load_unit("agent-block", key)
            if unit is not None:
                block_traces = [_trace_from_jsonable(doc)
                                for doc in unit["payload"]["traces"]]
            else:
                block_traces = _simulate_range(
                    topology, config, horizon, list(range(start, end)),
                    arrival_profile)
                store.save_unit(
                    "agent-block", key,
                    {"traces": [_trace_to_jsonable(trace)
                                for trace in block_traces]})
            traces.extend(block_traces)
    except BaseException:
        store.mark("interrupted")
        raise
    store.mark("complete")
    return traces
