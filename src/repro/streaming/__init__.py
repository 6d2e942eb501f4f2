"""Streaming (incremental) session reconstruction.

The paper's "reactive" processing is batch: collect the log, process it
offline.  Production log pipelines usually cannot wait — they *tail* the
access log and want sessions emitted as soon as they are provably complete.
This package provides an incremental driver for exactly that:

* :class:`~repro.streaming.pipeline.StreamingReconstructor` — the one
  pipeline class: feeds requests one at a time, buffers each user's open
  Phase-1 candidate, and emits finished sessions the moment the time
  rules prove the candidate closed (or a watermark passes), reporting one
  :class:`~repro.streaming.pipeline.StreamingStats` ledger;
* :func:`~repro.streaming.pipeline.streaming_smart_sra` /
  :func:`~repro.streaming.pipeline.streaming_phase1` /
  :func:`~repro.streaming.pipeline.streaming_amp` — its finishers.

The streaming output is *identical* to the batch output (verified by
property test): Smart-SRA's two-phase structure makes it naturally
streamable, because Phase 2 only ever looks inside one time-closed
candidate.

For degraded real-world streams, the reconstructor also offers a bounded
reorder buffer, a late-event policy (typed
:class:`~repro.exceptions.LateEventError` or counted drops) and adjacent
deduplication — see :mod:`repro.streaming.pipeline`.

For *adversarial* streams — crawlers that never idle, NAT addresses
aggregating thousands of humans — the same class takes a
:class:`~repro.streaming.governor.GovernorConfig` as its ``governor``
and bounds tracked memory under an explicit budget with observable
degradation (eviction, spill-to-disk, quarantine, shedding) instead of
OOM.  Without one it runs unbounded.

For population scale, :mod:`repro.streaming.sharded` hash-shards users
across crash-safe worker processes: per-shard watermarks with a global
low-watermark sealing rule, acked state capsules plus bounded replay
logs so a killed or wedged worker fails over with byte-identical sealed
output, and policy-driven degradation (``failover`` / ``shed-shard`` /
``raise``) mirroring the governor.
"""

from repro.streaming.governor import (
    OVERLOAD_POLICIES,
    GovernorConfig,
    OverloadAudit,
    SpillStore,
    audit_overload_config,
    parse_memory_budget,
    request_cost,
)
from repro.streaming.pipeline import (
    StreamingReconstructor,
    StreamingStats,
    streaming_amp,
    streaming_phase1,
    streaming_smart_sra,
)
from repro.streaming.sharded import (
    SHARD_FAILURE_POLICIES,
    ReplayLog,
    ShardedAudit,
    ShardedConfig,
    ShardedRunResult,
    ShardedStreamingRuntime,
    ShardedStreamingStats,
    ShardLedger,
    audit_sharded_config,
    shard_for,
)

__all__ = [
    "StreamingReconstructor",
    "StreamingStats",
    "streaming_smart_sra",
    "streaming_phase1",
    "streaming_amp",
    "OVERLOAD_POLICIES",
    "GovernorConfig",
    "SpillStore",
    "OverloadAudit",
    "audit_overload_config",
    "parse_memory_budget",
    "request_cost",
    "SHARD_FAILURE_POLICIES",
    "ShardedConfig",
    "ShardedStreamingRuntime",
    "ShardedStreamingStats",
    "ShardedRunResult",
    "ShardedAudit",
    "ShardLedger",
    "ReplayLog",
    "audit_sharded_config",
    "shard_for",
]
