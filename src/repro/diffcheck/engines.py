"""The execution paths under differential test, behind one interface.

The same request log can be reconstructed many structurally different
ways — the serial object path, the vectorized columnar plane, the
incremental streaming pipeline (plain, watermark-flushed, reordered,
governed, evicting), the crash-safe sharded runtime with and without
killed workers, and the two All-Maximal-Paths enumerators.  Each is
wrapped here as an *engine*: a function from one :class:`EngineContext`
to one :class:`~repro.sessions.model.SessionSet`, so the harness can
canonical-compare their outputs pairwise without knowing how any of them
executes.

Every engine is deterministic given the context ``seed`` — including the
sharded chaos leg (fault injection plus seeded retry jitter) and the
reorder leg (seeded bounded shuffle) — so a divergence is always a bug,
never noise.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.config import SmartSRAConfig
from repro.core.smart_sra import SmartSRA
from repro.exceptions import ConfigurationError
from repro.faults.execution import use_execution_faults
from repro.sessions.model import Request, Session, SessionSet
from repro.streaming import streaming_smart_sra
from repro.topology.graph import WebGraph

__all__ = [
    "ENGINE_REGISTRY",
    "ENGINE_BASELINE",
    "ENGINE_SEMANTICS",
    "INVARIANT_ONLY_ENGINES",
    "EngineContext",
    "available_engines",
    "resolve_engines",
    "run_engine",
]

EngineFn = Callable[["EngineContext"], SessionSet]


@dataclass(frozen=True, slots=True)
class EngineContext:
    """Everything an engine needs to reconstruct one corpus case.

    Attributes:
        requests: the request stream, already in ``(timestamp, user,
            page)`` sort order — each engine applies its own execution
            discipline on top (chunking, sharding, bounded shuffling).
        topology: the site graph.
        config: the ρ/δ thresholds.
        seed: drives every seeded choice an engine makes (retry jitter,
            reorder shuffle), so reruns are reproducible.
    """

    requests: tuple[Request, ...]
    topology: WebGraph
    config: SmartSRAConfig = field(default_factory=SmartSRAConfig)
    seed: int = 0


def _serial(ctx: EngineContext) -> SessionSet:
    return SmartSRA(ctx.topology, ctx.config).reconstruct(ctx.requests)


def _columnar(ctx: EngineContext) -> SessionSet:
    """The vectorized columnar data plane (:mod:`repro.core.columnar`).

    Same heuristic, entirely different execution substrate — interned
    int columns, batched array passes, a DAG reformulation of the
    Phase-2 wave loop — so canonical equivalence here is the correctness
    contract gating every columnar optimization.  The plane has one
    backend (numpy), so this leg is its whole coverage.
    """
    return SmartSRA(ctx.topology, ctx.config).reconstruct(
        ctx.requests, engine="columnar")


def _streaming(ctx: EngineContext) -> SessionSet:
    pipeline = streaming_smart_sra(ctx.topology, ctx.config)
    sessions = pipeline.feed_many(ctx.requests)
    sessions.extend(pipeline.flush())
    return SessionSet(sessions)


def _streaming_watermark(ctx: EngineContext) -> SessionSet:
    """Streaming with periodic watermark flushes between feeds.

    Emitting eagerly at watermarks exercises the incremental closing
    logic (`flush(watermark)`) rather than the end-of-stream drain; the
    session *set* must not depend on when flushes happen.
    """
    pipeline = streaming_smart_sra(ctx.topology, ctx.config)
    step = max(ctx.config.max_gap * 0.75, 1.0)
    sessions: list[Session] = []
    next_watermark = step
    for request in ctx.requests:
        while request.timestamp >= next_watermark:
            sessions.extend(pipeline.flush(next_watermark))
            next_watermark += step
        sessions.extend(pipeline.feed(request))
    sessions.extend(pipeline.flush())
    return SessionSet(sessions)


def _streaming_reorder(ctx: EngineContext) -> SessionSet:
    """Streaming over a seeded, time-bounded shuffle of the stream.

    The stream is partitioned into blocks spanning at most the reorder
    window; each block is shuffled (seeded by the context), so arrival
    order differs from event order by a bounded amount.  The reorder
    buffer must restore the deterministic total order and reproduce the
    batch output exactly — ``late_policy="raise"`` turns any miscounted
    bound into a loud failure instead of a quietly dropped request.
    """
    window = max(ctx.config.max_gap / 2.0, 1.0)
    rng = random.Random(ctx.seed)
    shuffled: list[Request] = []
    block: list[Request] = []
    for request in ctx.requests:
        if block and request.timestamp - block[0].timestamp > window:
            rng.shuffle(block)
            shuffled.extend(block)
            block = []
        block.append(request)
    rng.shuffle(block)
    shuffled.extend(block)
    pipeline = streaming_smart_sra(ctx.topology, ctx.config,
                                   reorder_window=window)
    sessions = pipeline.feed_many(shuffled)
    sessions.extend(pipeline.flush())
    return SessionSet(sessions)


def _streaming_governed(ctx: EngineContext) -> SessionSet:
    """Streaming under a resource governor whose budget is never hit.

    The governance layer must be a pure pass-through until pressure
    exists: with an effectively unlimited budget the governed output has
    to be byte-identical to every other engine's — any divergence means
    the governor rewrote behavior it promised not to touch.
    """
    from repro.streaming.governor import GovernorConfig
    governor = GovernorConfig(memory_budget=1 << 30)
    pipeline = streaming_smart_sra(ctx.topology, ctx.config,
                                   governor=governor)
    sessions = pipeline.feed_many(ctx.requests)
    sessions.extend(pipeline.flush())
    if not pipeline.stats().reconciles():   # surfaces as a divergence
        return SessionSet([])
    return SessionSet(sessions)


def _streaming_evicting(ctx: EngineContext) -> SessionSet:
    """Streaming under a budget small enough to force degradation.

    Eviction splits candidates early, so the session *set* legitimately
    differs from the batch output — this engine is invariant-only (see
    :data:`INVARIANT_ONLY_ENGINES`): the harness checks that every
    emitted session still satisfies the five output rules and that the
    stats ledger reconciles, not that the segmentation matches serial.
    """
    from repro.streaming.governor import GovernorConfig
    governor = GovernorConfig(memory_budget=2048, per_user_cap=8,
                              quarantine_after=2, quarantine_cap=16)
    pipeline = streaming_smart_sra(ctx.topology, ctx.config,
                                   governor=governor, late_policy="drop")
    sessions = pipeline.feed_many(ctx.requests)
    sessions.extend(pipeline.flush())
    if not pipeline.stats().reconciles():   # surfaces as a violation
        raise ConfigurationError(
            "streaming-evicting stats failed to reconcile: "
            f"{pipeline.stats()}")
    return SessionSet(sessions)


def _streaming_sharded(ctx: EngineContext) -> SessionSet:
    """The crash-safe sharded runtime, fault-free.

    Users hash across two forked worker processes, each running its own
    governed pipeline; the coordinator seals at the global low-watermark
    and reassembles.  With no faults injected the sealed output must be
    byte-identical to serial — partitioning and the wire protocol are
    pure plumbing.
    """
    from repro.streaming import ShardedConfig, ShardedStreamingRuntime
    from repro.streaming.governor import GovernorConfig
    runtime = ShardedStreamingRuntime(
        ctx.topology, ctx.config,
        sharded=ShardedConfig(shards=2, ack_interval=16),
        governor=GovernorConfig(memory_budget=1 << 30))
    result = runtime.run(ctx.requests,
                         flush_interval=max(ctx.config.max_gap, 1.0))
    if not result.stats.reconciles():   # surfaces as a divergence
        return SessionSet([])
    return result.sessions


def _amp_reference(ctx: EngineContext) -> SessionSet:
    """All-Maximal-Paths, clear DFS enumerator.

    A *different algorithm* from Smart-SRA, not a different execution of
    it: AMP emits every maximal link-consistent path of each Phase-1
    candidate (arXiv 1307.1927), so its output is deliberately not
    diffed against serial.  It serves as an independent Phase-2-semantics
    oracle — the harness diffs ``amp-optimized`` against this engine
    instead (see :data:`ENGINE_BASELINE`) and verifies its output under
    AMP maximality semantics (see :data:`ENGINE_SEMANTICS`).
    """
    from repro.sessions.maximal_paths import AllMaximalPaths
    return AllMaximalPaths(
        ctx.topology, ctx.config,
        implementation="reference").reconstruct(ctx.requests)


def _amp_optimized(ctx: EngineContext) -> SessionSet:
    """All-Maximal-Paths, interned-adjacency memoized enumerator.

    Must be byte-identical to ``amp-reference`` on every corpus case —
    including truncated output, because both implementations share one
    deterministic enumeration order.
    """
    from repro.sessions.maximal_paths import AllMaximalPaths
    return AllMaximalPaths(
        ctx.topology, ctx.config,
        implementation="optimized").reconstruct(ctx.requests)


def _streaming_sharded_chaos(ctx: EngineContext) -> SessionSet:
    """The sharded runtime with both workers killed mid-stream.

    Each shard's worker is crashed once at a low event ordinal, after it
    cut a capsule (one every 4 events); failover must restore the
    capsule, replay quietly up to the last ACK, re-derive the unsealed
    tail and still produce sealed output byte-identical to serial.  This
    is the repo's hardest determinism claim exercised on every diffcheck
    corpus case.
    """
    from repro.parallel import RetryPolicy
    from repro.streaming import ShardedConfig, ShardedStreamingRuntime
    from repro.streaming.governor import GovernorConfig
    retry = RetryPolicy(max_retries=3, deadline=30.0, backoff_base=0.01,
                        backoff_cap=0.1, seed=ctx.seed)
    runtime = ShardedStreamingRuntime(
        ctx.topology, ctx.config,
        sharded=ShardedConfig(shards=2, ack_interval=4, replay_capacity=8,
                              retry=retry),
        governor=GovernorConfig(memory_budget=1 << 30))
    with use_execution_faults("kill-worker:0:5", "kill-worker:1:9"):
        result = runtime.run(ctx.requests,
                             flush_interval=max(ctx.config.max_gap, 1.0))
    if not result.stats.reconciles():   # surfaces as a divergence
        return SessionSet([])
    return result.sessions


#: name -> engine, in report order.  ``serial`` is the baseline every
#: other engine is diffed against and must stay first.
ENGINE_REGISTRY: dict[str, EngineFn] = {
    "serial": _serial,
    "columnar": _columnar,
    "streaming": _streaming,
    "streaming-watermark": _streaming_watermark,
    "streaming-reorder": _streaming_reorder,
    "streaming-governed": _streaming_governed,
    "streaming-evicting": _streaming_evicting,
    "streaming-sharded": _streaming_sharded,
    "streaming-sharded-chaos": _streaming_sharded_chaos,
    "amp-reference": _amp_reference,
    "amp-optimized": _amp_optimized,
}

#: engines whose output is *intentionally* not canonical-identical to
#: serial (forced degradation changes segmentation).  The harness still
#: runs the invariant verifier over them but skips the canonical diff
#: and the golden-digest comparison.
INVARIANT_ONLY_ENGINES = frozenset({"streaming-evicting"})

#: engines diffed against a baseline other than ``serial``.  The amp
#: engines run a *different algorithm* (All-Maximal-Paths), so comparing
#: them to Smart-SRA output would flag every case; instead the optimized
#: implementation is held byte-identical to the reference one, and the
#: reference engine itself is pinned by the corpus's
#: ``expected_amp_digest`` golden (its own baseline entry is ``None``).
ENGINE_BASELINE: dict[str, str | None] = {
    "amp-reference": None,
    "amp-optimized": "amp-reference",
}

#: which output-rule semantics the invariant verifier applies per engine
#: (:func:`repro.diffcheck.invariants.verify_sessions` ``semantics=``).
#: Engines not listed use ``"smart-sra"``.  AMP's overlapping maximal
#: paths are legal output, so its maximality rule checks contiguous-infix
#: containment instead of the prefix rule.
ENGINE_SEMANTICS: dict[str, str] = {
    "amp-reference": "amp",
    "amp-optimized": "amp",
}


def available_engines() -> tuple[str, ...]:
    """Every registered engine name, baseline first."""
    return tuple(ENGINE_REGISTRY)


def resolve_engines(spec: str | Sequence[str]) -> tuple[str, ...]:
    """Expand an ``--engines`` value into registry names.

    Accepts ``"all"``, a comma-separated string, or a sequence of names.
    The serial baseline is always included (a diff needs its reference),
    as is any selected engine's own baseline (``amp-optimized`` pulls in
    ``amp-reference``), and ordering follows the registry, not the spec.

    Raises:
        ConfigurationError: for an unknown engine name.
    """
    if isinstance(spec, str):
        names = ([name.strip() for name in spec.split(",") if name.strip()]
                 if spec != "all" else list(ENGINE_REGISTRY))
    else:
        names = list(spec)
    unknown = [name for name in names if name not in ENGINE_REGISTRY]
    if unknown:
        known = ", ".join(ENGINE_REGISTRY)
        raise ConfigurationError(
            f"unknown engine(s) {', '.join(sorted(unknown))} "
            f"(known: {known})")
    chosen = set(names) | {"serial"}
    for name in names:
        baseline = ENGINE_BASELINE.get(name, "serial")
        if baseline is not None:
            chosen.add(baseline)
    return tuple(name for name in ENGINE_REGISTRY if name in chosen)


def run_engine(name: str, ctx: EngineContext) -> SessionSet:
    """Run one registered engine over a context.

    Raises:
        ConfigurationError: for an unknown engine name.
    """
    try:
        engine = ENGINE_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r} "
            f"(known: {', '.join(ENGINE_REGISTRY)})") from None
    return engine(ctx)
