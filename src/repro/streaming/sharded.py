"""Crash-safe sharded streaming runtime with failover and replay.

ROADMAP's "sharded streaming at population scale" item, built for
robustness first: the streaming pipeline must survive the worker process
dying under it without changing the answer.

Architecture
------------

A coordinator hash-shards users across ``N`` forked worker processes,
each running a governed
:class:`~repro.streaming.pipeline.StreamingReconstructor` over one shard
of the user population.  Per shard there are two OS
pipes carrying the framed compact protocol of
:mod:`repro.streaming.wire` — interned symbols plus fixed-width event
records, never per-chunk pickles (the A17 lesson).  The coordinator's
single ``select`` loop routes events, drains emitted sessions, and
supervises liveness; workers are otherwise autonomous.

Events are handed over in batches, not one at a time: routing appends
each event to its shard's replay log and to a pending batch, and the
coordinator frames every pending batch as one multi-record ``EVT`` frame
and pumps the ``select`` loop only when a batch reaches ``ack_interval``
events, ``_PUMP_TIMEOUT`` seconds after the previous pump, before a
watermark (which is pumped at once, so sealing is as prompt as before)
and at EOF — so while the input is quiet, the events routed in its last
``_PUMP_TIMEOUT`` wait for the next event, watermark or EOF.  A worker writes what one pipe read produced in one write,
except that each ACK leaves as soon as it is cut.

Crash safety rests on three pieces:

* **Progress ACKs and rare capsules.**  Every ``ack_interval`` events
  (and after every watermark flush) a worker sends a 24-byte progress
  ACK: its event ordinal, watermark index and event-time watermark.
  Because the pipe is FIFO, an ACK for event ``k`` proves the
  coordinator already holds every session emitted by events ``<= k``;
  those sessions become *durable*.  Far less often — once
  :attr:`ShardedConfig.checkpoint_interval` events (half the replay
  capacity) have passed since the last one — the worker also cuts a
  full **capsule** right after the ACK: the schema stamp, the pipeline's
  own ``state()`` (its declared replay state — a pure function of the
  events processed so far) and the worker registry's ``snapshot()``.
  The coordinator keeps the capsule bytes as they came, without parsing
  them, and trims the shard's replay log to the capsule's stamp.
* **Bounded replay logs.**  The events (and watermark marks) routed
  since the last capsule are retained per shard in a bounded, in-memory
  :class:`ReplayLog`.  A full log is backpressure: the coordinator stops
  routing to that shard until it cuts a capsule or its lease expires.
* **Lease supervision and replay.**  A shard with outstanding work —
  bytes not yet written to it, an EOF, or a full replay log waiting on
  its next capsule — that produces no frames within ``lease`` seconds
  is wedged; a pipe that
  reaches EOF is dead.  The lease clock restarts whenever bytes reach
  the worker, a frame comes back, or work is queued for a shard that
  owed nothing — so a pause in the input, however long, is never read
  as a wedge.  Either way the coordinator discards the shard's
  *pending* (post-ACK) sessions, respawns the worker after a
  :class:`~repro.parallel.supervisor.RetryPolicy` backoff, hands it the
  last capsule together with the stamp of the last ACK, and replays the
  logged events in order.  Replay is deterministic, so up to that ACK
  the respawned worker re-derives sessions the coordinator already
  holds: it encodes none of them and sends no ACK until it passes the
  stamp.  After it, it re-derives exactly the sessions that were
  discarded — so a run with injected worker kills produces
  byte-identical sealed output (by
  :meth:`~repro.sessions.model.SessionSet.canonical_digest`) to an
  unkilled single-threaded run, and re-processes at most one replay
  capacity of events.

Sealing follows the watermark rule: each ACK carries the shard's event
time watermark; the coordinator's global low-watermark is the minimum
over live shards, and a durable session is *sealed* — released into the
output — only once its end time is at or below that low-watermark (EOF
drives every watermark to +inf).  The output is put in canonical order
once, at the end, by :func:`~repro.streaming.wire.canonical_keys` over
the retained ``OUT`` batches, whose request tables and index lists
become the output :class:`~repro.sessions.model.SessionSet` as they are
(it writes them out without building a ``Session`` per row).

Failure policy mirrors the governor: ``failover`` (default) replays as
above, ``shed-shard`` abandons the shard's unsealed events (visibly, in
the ledger), ``raise`` turns the first worker loss into
:class:`~repro.exceptions.ExecutionError`.  The
:class:`ShardedStreamingStats` ledger reconciles exactly:
``fed == routed + replayed + shed``.  The governor's ``block`` policy is
refused at construction: a spilled buffer is worker-local, so no capsule
could carry it.

Byte-identity scope
-------------------

Failover is exact at a fixed shard count under any budget: eviction
victims are chosen from the captured state alone, so a killed run seals
the same sessions, ledger and merged metrics as an unkilled run with the
same number of shards.  Across shard counts, per-user degradation (caps,
strikes, quarantine) still shards transparently, because it depends only
on that user's own substream.  *Global*-budget eviction depends on every
user's interleaving and is therefore not byte-stable across shard
counts — compare different shard counts (or sharded against serial)
with a budget generous enough that global eviction never fires (the
default here), exactly as :func:`repro.faults.execution.run_shard_selftest`
does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import math
import multiprocessing
import os
import select
import time
import traceback
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any

from repro.exceptions import (ConfigurationError, ExecutionError,
                              WireProtocolError)
from repro.faults.execution import (active_exec_faults,
                                    inject_shard_fault)
from repro.obs import ConfigAudit, Registry, get_registry
from repro.parallel.supervisor import RetryPolicy
from repro.sessions.model import Request, SessionSet
from repro.streaming import wire
from repro.streaming.governor import GovernorConfig
from repro.streaming.pipeline import streaming_phase1, streaming_smart_sra

__all__ = [
    "SHARD_FAILURE_POLICIES",
    "ShardedConfig",
    "ShardedStreamingStats",
    "ShardedRunResult",
    "ShardedStreamingRuntime",
    "ShardLedger",
    "ReplayLog",
    "audit_sharded_config",
    "shard_for",
    "capsule_from",
    "restore_capsule",
]

#: what to do when a shard worker dies or wedges.
SHARD_FAILURE_POLICIES = ("failover", "shed-shard", "raise")

#: schema version of capsules and of the CAP payload that carries them.
REPLAY_SCHEMA = 4

#: bytes read from a pipe per syscall.
_READ_CHUNK = 1 << 16

#: select timeout of the coordinator loop, seconds.
_PUMP_TIMEOUT = 0.05

#: why workers cannot run the spilling governor: a spilled buffer lives in
#: the worker's own spill dir, outside every capsule, so the replay log
#: cannot trim past it, the lease reads the full log as a wedge, and the
#: shard is shed after its retries.
_BLOCK_REFUSED = (
    "overload_policy='block' cannot run sharded: spilled buffers stay in "
    "the worker's spill dir, outside the capsules failover restores — "
    "use --overload-policy evict with --shards, or block without --shards")


def shard_for(user_id: str, n_shards: int) -> int:
    """The shard owning ``user_id`` — stable across runs and platforms.

    Uses a keyed-free BLAKE2b of the UTF-8 bytes rather than ``hash()``
    so the routing is independent of ``PYTHONHASHSEED`` and identical on
    every machine — replay logs and capsules written by one coordinator
    must route the same way in the next.
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.blake2b(user_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


@dataclass(frozen=True, slots=True)
class ShardedConfig:
    """Configuration of the sharded runtime.

    Attributes:
        shards: number of worker processes (users hash across them).
        on_shard_failure: one of :data:`SHARD_FAILURE_POLICIES`.
        ack_interval: events between a worker's progress ACKs (one also
            follows every watermark flush).  An ACK makes the sessions
            emitted so far durable and advances sealing; it is 24 bytes
            of progress, never state.
        lease: seconds a shard with outstanding work may stay silent
            before the coordinator declares it wedged.
        replay_capacity: maximum events retained per shard since its
            last capsule; reaching it backpressures routing to that
            shard.  A worker cuts a capsule every
            :attr:`checkpoint_interval` events, half this capacity, so
            the log normally stays under it, and a crash re-processes at
            most this many events.
        max_watermark_lag: event-time seconds a shard's watermark may
            trail the routed head before ``/health`` degrades.
    """

    shards: int = 2
    on_shard_failure: str = "failover"
    ack_interval: int = 256
    lease: float = 30.0
    replay_capacity: int = 65536
    max_watermark_lag: float = 900.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}")
        if self.on_shard_failure not in SHARD_FAILURE_POLICIES:
            known = ", ".join(SHARD_FAILURE_POLICIES)
            raise ConfigurationError(
                f"unknown shard-failure policy "
                f"{self.on_shard_failure!r} (known: {known})")
        if self.ack_interval < 1:
            raise ConfigurationError(
                f"ack_interval must be >= 1, got {self.ack_interval}")
        if self.lease <= 0:
            raise ConfigurationError(f"lease must be > 0, got {self.lease}")
        if self.replay_capacity < self.ack_interval:
            raise ConfigurationError(
                f"replay_capacity ({self.replay_capacity}) must be >= "
                f"ack_interval ({self.ack_interval}); otherwise no ACK "
                f"boundary ever fits in the log")
        if self.max_watermark_lag <= 0:
            raise ConfigurationError(
                f"max_watermark_lag must be > 0, got "
                f"{self.max_watermark_lag}")

    @property
    def checkpoint_interval(self) -> int:
        """Events between a worker's capsules: half ``replay_capacity``,
        rounded down to a multiple of ``ack_interval`` and never below
        it."""
        half = self.replay_capacity // 2
        return max(self.ack_interval,
                   half - half % self.ack_interval)


class ShardLedger:
    """Exact final-disposition accounting for every routed event.

    Pure bookkeeping — no processes, no pipes — so the reconciliation
    invariant (``fed == routed + replayed + shed``) can be property
    tested under arbitrary kill schedules without forking anything.

    An event's disposition is *final*: ``routed`` counts events that
    reached a worker and were never disturbed, ``replayed`` counts
    events re-delivered after at least one failover (however many times),
    and ``shed`` counts events abandoned with their shard.  Acked events
    simply leave the pending window with whatever disposition they had.

    A shard's pending window is always a run of replayed events followed
    by a run of fresh ones — :meth:`fail` marks the whole window, routing
    appends fresh events and acks retire the oldest — so two counts per
    shard describe it exactly.
    """

    __slots__ = ("shards", "fed", "routed", "replayed", "shed",
                 "_replayed_pending", "_fresh_pending", "_shed_shards")

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.fed = 0
        self.routed = 0
        self.replayed = 0
        self.shed = 0
        # per shard, the unacked events already replayed (the oldest ones)
        # and the fresh ones routed since the last failover.
        self._replayed_pending = [0] * shards
        self._fresh_pending = [0] * shards
        self._shed_shards: set[int] = set()

    def route(self, shard: int) -> bool:
        """Count one event toward ``shard``; False if the shard is shed."""
        self.fed += 1
        if shard in self._shed_shards:
            self.shed += 1
            return False
        self.routed += 1
        self._fresh_pending[shard] += 1
        return True

    def ack(self, shard: int, count: int) -> None:
        """Retire the ``count`` oldest pending events of ``shard``."""
        pending = self.pending(shard)
        if count > pending:
            raise ExecutionError(
                f"shard {shard} acked {count} events but only "
                f"{pending} are pending")
        replayed = min(count, self._replayed_pending[shard])
        self._replayed_pending[shard] -= replayed
        self._fresh_pending[shard] -= count - replayed

    def fail(self, shard: int) -> int:
        """Mark every pending event of ``shard`` replayed; count new ones."""
        moved = self._fresh_pending[shard]
        self._fresh_pending[shard] = 0
        self._replayed_pending[shard] += moved
        self.routed -= moved
        self.replayed += moved
        return moved

    def shed_shard(self, shard: int) -> int:
        """Abandon ``shard``: pending and all future events become shed."""
        dropped = self.pending(shard)
        self.replayed -= self._replayed_pending[shard]
        self.routed -= self._fresh_pending[shard]
        self.shed += dropped
        self._replayed_pending[shard] = self._fresh_pending[shard] = 0
        self._shed_shards.add(shard)
        return dropped

    def pending(self, shard: int) -> int:
        """Unacked events currently attributed to ``shard``."""
        return self._replayed_pending[shard] + self._fresh_pending[shard]

    def reconciles(self) -> bool:
        """The exactness invariant: every fed event has one disposition."""
        return self.fed == self.routed + self.replayed + self.shed


class ReplayLog:
    """Bounded per-shard log of the events and watermarks routed since
    the shard's last capsule, and that capsule's bytes.

    Entries are the routed :data:`~repro.streaming.wire.Event` tuples
    and the broadcast watermark values, in routing order; their ordinals
    and watermark indices are implicit, counting on from the capsule's
    stamp.  Lives in coordinator memory: a dead coordinator ends the
    run, so nothing outlives it that a replay could use.
    """

    def __init__(self, shard: int, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"replay capacity must be >= 1, got {capacity}")
        self.shard = shard
        self.capacity = capacity
        self.entries: deque[wire.Event | float] = deque()
        #: the last capsule's CAP payload as the worker sent it.
        self.capsule: bytes | None = None
        #: the ``(ordinal, wm_index)`` the first entry follows.
        self.stamp = (0, 0)
        self._events = 0

    @property
    def event_count(self) -> int:
        """Events currently held (the bounded quantity)."""
        return self._events

    @property
    def full(self) -> bool:
        """At capacity: routing to the shard waits for its next capsule."""
        return self._events >= self.capacity

    def append_event(self, event: wire.Event) -> bool:
        """Retain one routed event; False when the log is at capacity."""
        if self.full:
            return False
        self.entries.append(event)
        self._events += 1
        return True

    def append_watermark(self, value: float) -> None:
        """Retain one broadcast watermark (watermarks are never bounded)."""
        self.entries.append(value)

    def clear(self) -> None:
        """Drop every retained entry (the shard was shed)."""
        self.entries.clear()
        self._events = 0

    def checkpoint(self, capsule: bytes) -> int:
        """Adopt a worker's capsule payload and drop the entries its
        stamp covers; returns the dropped event count.

        Raises:
            ExecutionError: when the stamp is behind the log's, or past
                what the log holds.
        """
        ordinal, wm_index = target = wire.capsule_stamp(capsule)
        done, wm_done = self.stamp
        if ordinal < done or wm_index < wm_done:
            raise ExecutionError(
                f"shard {self.shard} capsule at {list(target)} is behind "
                f"the replay log at {list(self.stamp)}")
        consumed = 0
        for entry in self.entries:
            if type(entry) is tuple:
                if done == ordinal:
                    break
                done += 1
            elif wm_done < wm_index:
                wm_done += 1
            else:
                break
            consumed += 1
        if (done, wm_done) != target:
            raise ExecutionError(
                f"shard {self.shard} capsule at {list(target)} is past "
                f"the replay log, which ends at {[done, wm_done]}")
        trimmed = ordinal - self.stamp[0]
        for _ in range(consumed):
            self.entries.popleft()
        self._events -= trimmed
        self.capsule = capsule
        self.stamp = target
        return trimmed

    def recover(self) -> tuple[bytes | None, list[wire.Event | float]]:
        """State to rebuild a worker from: ``(capsule, entries)``."""
        return self.capsule, list(self.entries)


# ---------------------------------------------------------------------------
# worker state capsules


def capsule_from(pipeline: Any) -> dict[str, Any]:
    """The schema stamp plus the pipeline's replay ``state()``.

    ``state()`` needs an empty reorder buffer and no spilled users: shard
    workers run with ``reorder_window=0`` (the coordinator reorders
    *before* routing) and never spill (the runtime refuses
    ``overload_policy="block"``).
    """
    return {"schema": REPLAY_SCHEMA, "state": pipeline.state()}


def restore_capsule(pipeline: Any, capsule: dict[str, Any]) -> None:
    """Restore a :func:`capsule_from` capsule into a fresh pipeline."""
    if capsule.get("schema") != REPLAY_SCHEMA:
        raise ExecutionError(
            f"capsule schema {capsule.get('schema')!r} != {REPLAY_SCHEMA}")
    pipeline.restore(capsule["state"])


# ---------------------------------------------------------------------------
# worker process


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _worker_main(shard: int, incarnation: int, down_fd: int, up_fd: int,
                 close_fds: tuple[int, ...], ack_interval: int,
                 checkpoint_interval: int, builder: Any) -> None:
    """Body of one shard worker process (forked; never returns)."""
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    reader = wire.FrameReader()
    decoder = wire.SymbolDecoder()
    # interns the users and pages of emitted sessions, worker -> coordinator
    encoder = wire.SymbolEncoder()
    registry = Registry()
    pipeline = builder(registry)
    ordinal = 0
    wm_index = 0
    # the ordinal of the last capsule cut or restored.
    capsule_at = 0
    # a respawned worker replays what the coordinator's last ACK already
    # covers: until it passes that stamp it is quiet — no OUT, no ACK.
    acked_ordinal = acked_wm = 0
    quiet = False

    def progress(out: bytearray) -> None:
        nonlocal capsule_at
        out += wire.progress_frame(ordinal, wm_index, pipeline.max_seen)
        if ordinal - capsule_at >= checkpoint_interval:
            # after the ACK, so the coordinator never holds a capsule
            # newer than the sessions it holds.  The registry rides
            # along, so a respawned worker's metrics resume here.
            capsule = capsule_from(pipeline)
            capsule["metrics"] = registry.snapshot()
            out += wire.capsule_frame(ordinal, wm_index, capsule)
            capsule_at = ordinal
        # an ACK leaves as soon as it is cut, with the sessions it makes
        # durable: a worker that fell a whole pipe chunk behind must not
        # hold its progress back for the rest of the chunk.
        _write_all(up_fd, out)
        out.clear()

    # faults are armed before the fork, so the plan is fixed for this
    # incarnation's lifetime.
    faults = active_exec_faults()
    try:
        while True:
            data = os.read(down_fd, _READ_CHUNK)
            if not data:
                os._exit(0)
            # what this chunk's frames produce leaves in one write (plus
            # one per ACK cut on the way).
            out = bytearray()
            for kind, payload in reader.feed(data):
                if kind == wire.EVT:
                    for ts, user, page, referrer, synthetic in \
                            decoder.decode_events(payload):
                        ordinal += 1
                        if faults and inject_shard_fault(
                                shard, ordinal, incarnation,
                                faults) == "drop-pipe":
                            _write_all(up_fd, out)
                            os.close(down_fd)
                            os.close(up_fd)
                            os._exit(0)
                        sessions = pipeline.feed(
                            Request(ts, user, page, synthetic, referrer))
                        if quiet:
                            if ordinal <= acked_ordinal:
                                continue
                            quiet = False
                        encoder.encode_sessions(out, sessions)
                        if (ordinal % ack_interval == 0
                                or ordinal - capsule_at
                                >= checkpoint_interval):
                            progress(out)
                elif kind == wire.SYM:
                    decoder.add_symbol(payload)
                elif kind == wire.CAP:
                    (acked_ordinal, acked_wm), stamp, capsule = \
                        wire.decode_resume(payload)
                    if capsule is not None:
                        restore_capsule(pipeline, capsule)
                        registry.merge_snapshot(capsule["metrics"])
                        ordinal, wm_index = stamp
                        capsule_at = ordinal
                    quiet = True
                elif kind == wire.WM:
                    watermark = wire.decode_watermark(payload)
                    wm_index += 1
                    sessions = pipeline.flush(watermark)
                    if quiet:
                        if wm_index <= acked_wm:
                            continue
                        quiet = False
                    encoder.encode_sessions(out, sessions)
                    progress(out)
                elif kind == wire.EOF:
                    encoder.encode_sessions(out, pipeline.flush())
                    _write_all(up_fd, out + wire.json_frame(wire.DONE, {
                        "ordinal": ordinal, "wm_index": wm_index,
                        "watermark": math.inf,
                        "stats": dataclasses.asdict(pipeline.stats()),
                        "snapshot": registry.snapshot()}))
                    os._exit(0)
            if out:
                _write_all(up_fd, out)
    except BaseException:  # noqa: BLE001 - must report, then die
        try:
            _write_all(up_fd, wire.frame(
                wire.ERR, traceback.format_exc().encode("utf-8")))
        except OSError:
            pass
        os._exit(1)


# ---------------------------------------------------------------------------
# coordinator


@dataclass(frozen=True, slots=True)
class ShardedStreamingStats:
    """Run-level accounting of the sharded runtime.

    ``reconciles`` is the exactness contract: every event the
    coordinator accepted has exactly one final disposition — delivered
    undisturbed (``routed``), re-delivered after failover
    (``replayed``), or visibly abandoned with a shed shard (``shed``).
    """

    shards: int
    fed: int
    routed: int
    replayed: int
    shed: int
    sealed_sessions: int
    failovers: int
    respawns: int
    wedged: int
    worker_deaths: int
    shed_shards: int
    low_watermark: float

    def reconciles(self) -> bool:
        """True when fed == routed + replayed + shed."""
        return self.fed == self.routed + self.replayed + self.shed


@dataclass(frozen=True, slots=True)
class ShardedRunResult:
    """Outcome of :meth:`ShardedStreamingRuntime.run`.

    Attributes:
        sessions: the sealed output, in canonical-key order (so two
            identical runs produce identical files, whatever the pipe
            arrival interleaving was).
        stats: the reconciling run ledger.
        shard_stats: each worker's final
            :class:`~repro.streaming.pipeline.StreamingStats`
            as a plain dict (empty for shed shards).
        recovery_seconds: wall-clock time from each failover to the
            respawned worker's first ACK — sent once its replay of the
            events since the last capsule has passed the last ACK the
            coordinator absorbed — in occurrence order.
    """

    sessions: SessionSet
    stats: ShardedStreamingStats
    shard_stats: tuple[dict[str, Any], ...]
    recovery_seconds: tuple[float, ...] = ()


class _ShardHandle:
    """Coordinator-side mutable state of one shard."""

    __slots__ = ("shard", "proc", "down_fd", "up_fd", "encoder", "decoder",
                 "reader", "outbound", "batch", "pending", "watermark",
                 "acked", "last_inbound", "last_sent", "incarnation",
                 "state", "eof_sent", "events_sent", "done", "failed_at")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.proc: Any = None
        self.down_fd = -1
        self.up_fd = -1
        self.encoder = wire.SymbolEncoder()
        self.decoder = wire.SymbolDecoder()
        self.reader = wire.FrameReader()
        self.outbound = bytearray()
        # routed events not yet framed into an EVT frame
        self.batch: list[wire.Event] = []
        # OUT batches received since the last ACK (not yet durable)
        self.pending: list[wire.SessionBatch] = []
        self.watermark = -math.inf
        # the (ordinal, wm_index) stamp of the last ACK absorbed
        self.acked = (0, 0)
        self.last_inbound = 0.0
        self.last_sent = 0.0
        self.incarnation = 0
        self.state = "new"          # new | running | done | shed
        self.eof_sent = False
        self.events_sent = 0
        self.done: dict[str, Any] | None = None
        self.failed_at: float | None = None

    @property
    def outstanding(self) -> bool:
        """Does the worker owe us progress (unwritten bytes or EOF)?"""
        return bool(self.outbound) or self.eof_sent

    def send(self, data: bytes | bytearray, now: float) -> None:
        """Queue ``data`` for the worker.

        A worker that owed nothing starts its lease clock now: however
        long the input paused before this, it cannot have been wedged on
        work it did not have.
        """
        if not self.outstanding:
            self.last_sent = now
        self.outbound += data

    def quiet_for(self, now: float) -> float:
        """Seconds without *either* direction making progress.

        The lease clock runs from whichever happened last — a frame
        arriving, bytes leaving, or work queued for a worker that owed
        nothing (:meth:`send`) — so neither an idle worker nor a pause in
        the input reads as a wedge, and a wedged worker whose 64 KiB of
        pipe slack keeps absorbing writes is caught once the pipe jams.
        """
        return now - max(self.last_inbound, self.last_sent)


class ShardedStreamingRuntime:
    """Coordinator of the crash-safe sharded streaming pipeline.

    Construct with the same knobs as
    :func:`~repro.streaming.pipeline.streaming_smart_sra` plus a
    :class:`ShardedConfig`, then :meth:`run` an iterable of requests.
    Requires the ``fork`` start method (workers inherit the topology and
    finisher; nothing heavyweight crosses the pipe).
    """

    def __init__(self, topology: Any = None, config: Any = None, *,
                 sharded: ShardedConfig | None = None,
                 governor: GovernorConfig | None = None,
                 heuristic: str = "smart-sra",
                 late_policy: str = "raise", dedup: bool = False,
                 reorder_window: float = 0.0,
                 registry: Registry | None = None) -> None:
        if heuristic not in ("smart-sra", "phase1"):
            raise ConfigurationError(
                f"unknown heuristic {heuristic!r} "
                f"(known: smart-sra, phase1)")
        if heuristic == "smart-sra" and topology is None:
            raise ConfigurationError("smart-sra sharding needs a topology")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "the sharded runtime requires the 'fork' start method")
        if reorder_window < 0:
            raise ConfigurationError(
                f"reorder_window must be >= 0, got {reorder_window}")
        self.sharded = sharded if sharded is not None else ShardedConfig()
        # workers always run governed; the default budget is generous so
        # global eviction (shard-order dependent) never fires unless the
        # caller opts into a real budget.
        self.governor = (governor if governor is not None
                         else GovernorConfig(memory_budget=1 << 30))
        if self.governor.overload_policy == "block":
            raise ConfigurationError(_BLOCK_REFUSED)
        self._topology = topology
        self._config = config
        self._heuristic = heuristic
        self._late_policy = late_policy
        self._dedup = dedup
        self._reorder_window = float(reorder_window)
        self._registry = registry if registry is not None else get_registry()
        self._ctx = multiprocessing.get_context("fork")
        self._handles: list[_ShardHandle] = []
        self._logs: list[ReplayLog] = []
        self._ledger = ShardLedger(self.sharded.shards)
        # OUT batches made durable by an ACK, in ACK order, and the end
        # times of their sessions that are not sealed yet (a heap).
        self._batches: list[wire.SessionBatch] = []
        self._durable: list[float] = []
        self._sealed = 0
        self._head = -math.inf
        self._failovers = 0
        self._respawns = 0
        self._wedged = 0
        self._worker_deaths = 0
        self._recoveries: list[float] = []
        # the memoized router, events routed but not yet counted, and
        # when the coordinator last pumped.
        self._shard_of: dict[str, int] = {}
        self._routed_unreported = 0
        self._last_pump = 0.0

    # -- worker construction ------------------------------------------------

    def _build_pipeline(self, registry: Registry) -> Any:
        options = dict(late_policy=self._late_policy, reorder_window=0.0,
                       dedup=self._dedup, registry=registry)
        if self._heuristic == "phase1":
            return streaming_phase1(self._config, governor=self.governor,
                                    **options)
        return streaming_smart_sra(self._topology, self._config,
                                   governor=self.governor, **options)

    def _spawn(self, handle: _ShardHandle, capsule: bytes | None,
               entries: list[wire.Event | float]) -> None:
        down_read, down_write = os.pipe()
        up_read, up_write = os.pipe()
        os.set_blocking(down_write, False)
        os.set_blocking(up_read, False)
        # the child must not inherit the parent ends — its own or any
        # sibling's — or a sibling's death would never read as pipe EOF.
        close_fds = [down_write, up_read]
        for other in self._handles:
            if other is not handle and other.down_fd >= 0:
                close_fds.extend((other.down_fd, other.up_fd))
        proc = self._ctx.Process(
            target=_worker_main,
            args=(handle.shard, handle.incarnation, down_read, up_write,
                  tuple(close_fds), self.sharded.ack_interval,
                  self.sharded.checkpoint_interval, self._build_pipeline),
            daemon=True,
            name=f"repro-shard-{handle.shard}.{handle.incarnation}")
        proc.start()
        os.close(down_read)
        os.close(up_write)
        handle.proc = proc
        handle.down_fd = down_write
        handle.up_fd = up_read
        handle.encoder = wire.SymbolEncoder()
        handle.decoder = wire.SymbolDecoder()
        handle.reader = wire.FrameReader()
        handle.outbound = bytearray()
        handle.state = "running"
        handle.last_inbound = time.monotonic()
        handle.last_sent = handle.last_inbound
        self._gauge("sharded.shard.alive", handle.shard).set(1)
        if capsule is not None or handle.acked != (0, 0):
            handle.outbound += wire.resume_frame(handle.acked, capsule)
        # consecutive logged events travel in ACK-span EVT frames, exactly
        # as they were first routed.
        span = self.sharded.ack_interval
        events: list[wire.Event] = []
        for entry in entries:
            if type(entry) is tuple:
                events.append(entry)
                if len(events) == span:
                    handle.encoder.encode_events(handle.outbound, events)
                    events.clear()
            else:
                handle.encoder.encode_events(handle.outbound, events)
                events.clear()
                handle.outbound += wire.watermark_frame(entry)
        handle.encoder.encode_events(handle.outbound, events)
        if handle.eof_sent:
            handle.outbound += wire.frame(wire.EOF)

    # -- obs helpers --------------------------------------------------------

    def _gauge(self, name: str, shard: int | None = None) -> Any:
        if shard is None:
            return self._registry.gauge(name)
        return self._registry.gauge(name, shard=str(shard))

    def _count(self, name: str, value: int = 1) -> None:
        if value:
            self._registry.counter(name).inc(value)

    def _update_lag(self, handle: _ShardHandle) -> None:
        if math.isfinite(self._head):
            floor = handle.watermark if math.isfinite(handle.watermark) \
                else self._head
            lag = max(0.0, self._head - floor)
            self._gauge("sharded.shard.watermark_lag", handle.shard).set(lag)

    # -- the run loop -------------------------------------------------------

    def run(self, requests: Iterable[Request], *,
            flush_interval: float | None = None) -> ShardedRunResult:
        """Stream ``requests`` through the shards; block until sealed.

        ``flush_interval`` broadcasts a watermark to every shard each
        time the released head advances that many event-time seconds,
        driving incremental sealing (EOF always seals everything).
        """
        if flush_interval is not None and flush_interval <= 0:
            raise ConfigurationError(
                f"flush_interval must be > 0, got {flush_interval}")
        cfg = self.sharded
        self._handles = [_ShardHandle(shard) for shard in range(cfg.shards)]
        self._logs = [ReplayLog(shard, cfg.replay_capacity)
                      for shard in range(cfg.shards)]
        self._gauge("sharded.shards").set(cfg.shards)
        self._gauge("sharded.config.max_watermark_lag").set(
            cfg.max_watermark_lag)
        try:
            for handle in self._handles:
                self._spawn(handle, None, [])
            self._drive(requests, flush_interval)
            while any(h.state == "running" for h in self._handles):
                self._pump(_PUMP_TIMEOUT)
            return self._finalize()
        finally:
            self._cleanup()

    def _drive(self, requests: Iterable[Request],
               flush_interval: float | None) -> None:
        window = self._reorder_window
        last_flush = -math.inf
        if window > 0:
            heap: list[tuple[float, int, Request]] = []
            seq = 0
            max_seen = -math.inf
            for request in requests:
                heapq.heappush(heap, (request.timestamp, seq, request))
                seq += 1
                if request.timestamp > max_seen:
                    max_seen = request.timestamp
                bound = max_seen - window
                while heap and heap[0][0] < bound:
                    released = heapq.heappop(heap)[2]
                    self._route(released)
                    last_flush = self._maybe_flush(released.timestamp,
                                                   last_flush,
                                                   flush_interval, window)
            while heap:
                self._route(heapq.heappop(heap)[2])
        else:
            for request in requests:
                self._route(request)
                last_flush = self._maybe_flush(request.timestamp, last_flush,
                                               flush_interval, 0.0)
        self._frame_batches()
        now = time.monotonic()
        for handle in self._handles:
            if handle.state == "running":
                handle.send(wire.frame(wire.EOF), now)
            handle.eof_sent = True

    def _maybe_flush(self, released_ts: float, last_flush: float,
                     flush_interval: float | None, window: float) -> float:
        if flush_interval is None:
            return last_flush
        if released_ts - last_flush < flush_interval:
            return last_flush
        # the broadcast promise must not outrun events still held in the
        # coordinator's reorder buffer.
        watermark = released_ts - window
        self._frame_batches()
        now = time.monotonic()
        for handle in self._handles:
            if handle.state == "running":
                self._logs[handle.shard].append_watermark(watermark)
                handle.send(wire.watermark_frame(watermark), now)
        # hand the watermark over now, so sealing is as prompt as when
        # every event was pumped on its own.
        self._pump(0.0)
        return released_ts

    def _route(self, request: Request) -> None:
        user = request.user_id
        shard = self._shard_of.get(user)
        if shard is None:
            shard = self._shard_of[user] = shard_for(user,
                                                     self._ledger.shards)
        handle = self._handles[shard]
        log = self._logs[shard]
        # a full replay log is backpressure: wait for a capsule (or for
        # the lease supervisor to declare the shard wedged) before
        # routing more events at it.
        while handle.state == "running" and log.full:
            self._pump(_PUMP_TIMEOUT)
        if not self._ledger.route(shard):
            self._count("sharded.events.shed")
            return
        handle.events_sent += 1
        timestamp = request.timestamp
        event = (timestamp, user, request.page, request.referrer,
                 request.synthetic)
        log.append_event(event)
        batch = handle.batch
        batch.append(event)
        self._routed_unreported += 1
        if timestamp > self._head:
            self._head = timestamp
        # the worker gets its events an ACK span at a time, or after one
        # pump interval, whichever comes first.
        if (len(batch) >= self.sharded.ack_interval
                or time.monotonic() - self._last_pump >= _PUMP_TIMEOUT):
            self._pump(0.0)

    def _frame_batches(self) -> None:
        """Frame every shard's pending batch; report what was routed."""
        now = time.monotonic()
        for handle in self._handles:
            if not handle.batch:
                continue
            out = bytearray()
            handle.encoder.encode_events(out, handle.batch)
            handle.batch.clear()
            handle.send(out, now)
            self._gauge("sharded.replay.events", handle.shard).set(
                self._logs[handle.shard].event_count)
            self._update_lag(handle)
        self._count("sharded.events.routed", self._routed_unreported)
        self._routed_unreported = 0

    # -- the select loop ----------------------------------------------------

    def _pump(self, timeout: float) -> None:
        self._frame_batches()
        now = self._last_pump = time.monotonic()
        for handle in self._handles:
            # a shard whose log is full owes a capsule: its lease runs
            # even when every byte routed to it has been written.
            if (handle.state == "running"
                    and (handle.outstanding or self._logs[handle.shard].full)
                    and handle.quiet_for(now) > self.sharded.lease):
                self._wedged += 1
                self._count("sharded.wedged")
                self._fail(handle, "lease expired (wedged worker)")
        running = [h for h in self._handles if h.state == "running"]
        if not running:
            return
        readers = [h.up_fd for h in running]
        writers = [h.down_fd for h in running if h.outbound]
        try:
            readable, writable, _ = select.select(readers, writers, [],
                                                  timeout)
        except OSError:
            return
        by_up = {h.up_fd: h for h in running}
        by_down = {h.down_fd: h for h in running}
        for fd in writable:
            handle = by_down[fd]
            # a _fail earlier in this very loop may have respawned the
            # handle onto fresh descriptors; acting on the stale fd would
            # hit a closed (or worse, reused) descriptor.
            if (handle.state != "running" or handle.down_fd != fd
                    or not handle.outbound):
                continue
            try:
                written = os.write(fd, handle.outbound[:_READ_CHUNK])
                del handle.outbound[:written]
                if written:
                    handle.last_sent = time.monotonic()
            except BlockingIOError:
                continue
            except OSError:
                self._worker_deaths += 1
                self._count("sharded.worker_deaths")
                self._fail(handle, "pipe write failed (dead worker)")
        for fd in readable:
            handle = by_up[fd]
            if handle.state != "running" or handle.up_fd != fd:
                continue
            try:
                data = os.read(fd, _READ_CHUNK)
            except BlockingIOError:
                continue
            except OSError:
                data = b""
            if not data:
                self._worker_deaths += 1
                self._count("sharded.worker_deaths")
                self._fail(handle, "pipe EOF (dead worker)")
                continue
            handle.last_inbound = time.monotonic()
            try:
                for kind, payload in handle.reader.feed(data):
                    self._on_frame(handle, kind, payload)
                    if handle.state != "running":
                        break
            except WireProtocolError as error:
                self._fail(handle, f"protocol error: {error}")

    def _on_frame(self, handle: _ShardHandle, kind: int,
                  payload: bytes) -> None:
        if kind == wire.SYM:
            handle.decoder.add_symbol(payload)
            return
        if kind == wire.OUT:
            handle.pending.append(handle.decoder.decode_batch(payload))
            return
        if kind == wire.ACK:
            self._registry.counter("sharded.ack.bytes",
                                   shard=str(handle.shard)).inc(len(payload))
            self._absorb_progress(handle, *wire.decode_progress(payload))
            return
        if kind == wire.CAP:
            self._registry.counter("sharded.capsule.bytes",
                                   shard=str(handle.shard)).inc(len(payload))
            log = self._logs[handle.shard]
            log.checkpoint(payload)
            self._gauge("sharded.replay.events", handle.shard).set(
                log.event_count)
            return
        if kind == wire.DONE:
            document = wire.decode_json(payload)
            self._absorb_progress(handle, int(document["ordinal"]),
                                  int(document["wm_index"]), math.inf)
            handle.done = document
            handle.state = "done"
            handle.watermark = math.inf
            self._close_handle(handle)
            if handle.proc is not None:
                handle.proc.join(timeout=5.0)
            self._advance_seal()
            return
        if kind == wire.ERR:
            message = payload.decode("utf-8", "replace").strip()
            raise ExecutionError(
                f"shard {handle.shard} worker failed deterministically "
                f"(replay would repeat it):\n{message}")
        raise WireProtocolError(
            f"unexpected frame kind {kind} from shard {handle.shard}")

    def _absorb_progress(self, handle: _ShardHandle, ordinal: int,
                         wm_index: int, watermark: float) -> None:
        self._ledger.ack(handle.shard, ordinal - handle.acked[0])
        handle.acked = (ordinal, wm_index)
        if watermark > handle.watermark:
            handle.watermark = watermark
        if handle.failed_at is not None:
            self._recoveries.append(time.monotonic() - handle.failed_at)
            handle.failed_at = None
        # FIFO pipes make the ACK a durability proof: every session
        # emitted by the acked events has already been received.
        if handle.pending:
            for batch in handle.pending:
                self._batches.append(batch)
                for end_time in batch.end_times:
                    heapq.heappush(self._durable, end_time)
            handle.pending.clear()
        if math.isfinite(handle.watermark):
            self._gauge("sharded.shard.watermark", handle.shard).set(
                handle.watermark)
        self._update_lag(handle)
        self._advance_seal()

    # -- failure handling ---------------------------------------------------

    def _close_handle(self, handle: _ShardHandle) -> None:
        for fd in (handle.down_fd, handle.up_fd):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        handle.down_fd = -1
        handle.up_fd = -1

    def _terminate(self, handle: _ShardHandle) -> None:
        proc = handle.proc
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        self._close_handle(handle)

    def _fail(self, handle: _ShardHandle, reason: str) -> None:
        """A shard worker is gone or useless: recover per policy."""
        policy = self.sharded.on_shard_failure
        self._gauge("sharded.shard.alive", handle.shard).set(0)
        self._terminate(handle)
        # sessions emitted after the last ACK are not durable — the
        # respawned worker will re-derive exactly these.  Dropping their
        # batches releases the payloads nothing else references.
        handle.pending.clear()
        # routed-but-unframed events are already replay-log entries: a
        # respawn re-encodes them, a shed drops them with the log.
        handle.batch.clear()
        if policy == "raise":
            handle.state = "shed"
            raise ExecutionError(
                f"shard {handle.shard} failed ({reason}) under "
                f"on_shard_failure='raise'")
        exhausted = handle.incarnation >= self.sharded.retry.max_retries + 1
        if policy == "shed-shard" or exhausted:
            dropped = self._ledger.shed_shard(handle.shard)
            handle.state = "shed"
            self._count("sharded.events.shed", dropped)
            self._count("sharded.shed_shards")
            self._logs[handle.shard].clear()
            self._advance_seal()
            return
        self._failovers += 1
        self._count("sharded.failovers")
        moved = self._ledger.fail(handle.shard)
        self._count("sharded.events.replayed", moved)
        time.sleep(self.sharded.retry.backoff_for(handle.shard,
                                                  handle.incarnation))
        handle.incarnation += 1
        handle.failed_at = time.monotonic()
        self._respawns += 1
        self._count("sharded.respawns")
        capsule, entries = self._logs[handle.shard].recover()
        self._spawn(handle, capsule, entries)

    # -- sealing and finalization ------------------------------------------

    def _advance_seal(self) -> None:
        live = [h.watermark for h in self._handles if h.state == "running"]
        low = min(live, default=math.inf)
        if math.isfinite(low):
            self._gauge("sharded.watermark.low").set(low)
        sealed = 0
        while self._durable and self._durable[0] <= low:
            heapq.heappop(self._durable)
            sealed += 1
        self._sealed += sealed
        self._count("sharded.sessions.sealed", sealed)

    def _finalize(self) -> ShardedRunResult:
        # worker metrics merge in shard order, not DONE arrival order, so
        # the merged (last-write-wins) gauges are the same on every run.
        for handle in self._handles:
            if handle.done is not None:
                self._registry.merge_snapshot(handle.done["snapshot"])
        self._advance_seal()
        if self._durable:
            raise ExecutionError(
                f"{len(self._durable)} durable sessions left unsealed "
                f"after EOF — watermark logic broken")
        leftovers = [h for h in self._handles
                     if h.state == "running" or
                     (h.state == "done" and h.pending)]
        if leftovers:
            raise ExecutionError(
                f"shards {[h.shard for h in leftovers]} never completed")
        stats = ShardedStreamingStats(
            shards=self.sharded.shards,
            fed=self._ledger.fed,
            routed=self._ledger.routed,
            replayed=self._ledger.replayed,
            shed=self._ledger.shed,
            sealed_sessions=self._sealed,
            failovers=self._failovers,
            respawns=self._respawns,
            wedged=self._wedged,
            worker_deaths=self._worker_deaths,
            shed_shards=sum(1 for h in self._handles if h.state == "shed"),
            low_watermark=min((h.watermark for h in self._handles
                               if h.state != "shed"), default=math.inf),
        )
        # every durable session is sealed by now.  Sessions with equal
        # keys have equal end times, so they sealed in ACK order, which a
        # stable sort over the batches in ACK order keeps.  The output
        # set is the batches' request tables and index lists end to end,
        # read in that order.
        pool: list[Request] = []
        lengths: list[int] = []
        flat: list[int] = []
        for batch in self._batches:
            base = len(pool)
            pool += batch.requests
            lengths += batch.lengths
            flat += [base + index for index in batch.indices]
        keys = wire.canonical_keys(self._batches)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        sessions = SessionSet._from_index(
            pool, list(accumulate(lengths, initial=0)), flat, order)
        shard_stats = tuple(
            (h.done or {}).get("stats", {}) for h in self._handles)
        return ShardedRunResult(sessions=sessions, stats=stats,
                                shard_stats=shard_stats,
                                recovery_seconds=tuple(self._recoveries))

    def _cleanup(self) -> None:
        for handle in self._handles:
            self._terminate(handle)


# ---------------------------------------------------------------------------
# configuration audit (repro doctor)


def audit_sharded_config(sharded: ShardedConfig,
                         governor: GovernorConfig | None = None, *,
                         typical_cost: int = 96) -> ConfigAudit:
    """Sanity-check a sharded deployment before running it.

    Mirrors :func:`~repro.streaming.governor.audit_overload_config`:
    every conclusion is one line with a remediation, and only outright
    contradictions FAIL.
    """
    checks: list[tuple[str, str]] = []
    cores = os.cpu_count() or 1
    if sharded.shards > cores:
        checks.append(("warn",
                       f"{sharded.shards} shards on {cores} CPU core(s) — "
                       f"workers will time-slice, not parallelize; lower "
                       f"--shards to <= {cores} or run on a bigger host"))
    else:
        checks.append(("ok",
                       f"{sharded.shards} shard(s) fit {cores} CPU core(s)"))
    if governor is not None:
        log_bytes = sharded.replay_capacity * typical_cost
        if log_bytes < governor.memory_budget:
            checks.append((
                "warn",
                f"replay capacity {sharded.replay_capacity} events "
                f"(~{log_bytes}B at {typical_cost}B/event) is smaller than "
                f"the governor budget ({governor.memory_budget}B) — a "
                f"worker can buffer more state than its log can replay; "
                f"raise --replay-capacity to >= "
                f"{governor.memory_budget // typical_cost} events"))
        else:
            checks.append(("ok",
                           f"replay capacity covers the governor budget "
                           f"({log_bytes}B >= {governor.memory_budget}B)"))
        if governor.overload_policy == "block":
            checks.append(("FAIL", _BLOCK_REFUSED))
        else:
            checks.append(("ok",
                           f"failure policy {sharded.on_shard_failure!r} is "
                           f"compatible with governor policy "
                           f"{governor.overload_policy!r}"))
    if sharded.lease <= 2 * _PUMP_TIMEOUT:
        checks.append(("FAIL",
                       f"lease {sharded.lease}s is shorter than the "
                       f"coordinator can even poll ({_PUMP_TIMEOUT}s loop) — "
                       f"every shard would read as wedged; raise --shard-"
                       f"lease"))
    return ConfigAudit(
        f"sharded configuration: shards={sharded.shards}"
        f" on-shard-failure={sharded.on_shard_failure}"
        f" ack-interval={sharded.ack_interval}"
        f" replay-capacity={sharded.replay_capacity}",
        {"shards": sharded.shards,
         "on_shard_failure": sharded.on_shard_failure,
         "ack_interval": sharded.ack_interval,
         "replay_capacity": sharded.replay_capacity},
        checks)
