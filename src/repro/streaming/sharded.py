"""Crash-safe sharded streaming runtime with failover and replay.

ROADMAP's "sharded streaming at population scale" item, built for
robustness first: the streaming pipeline must survive the worker process
dying under it without changing the answer.

Architecture
------------

A coordinator hash-shards users across ``N`` forked worker processes,
each running a :class:`~repro.streaming.governor.GovernedStreamingReconstructor`
over one shard of the user population.  Per shard there are two OS
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

* **Acked capsules.**  The coordinator keeps, per shard, the last acked
  capsule: the schema stamp, the pipeline's own ``state()`` (its
  declared replay state — a pure function of the events processed so
  far) and the worker registry's ``snapshot()``, so a respawned worker
  resumes both its sessions and its metrics exactly where the ACK left
  them.  Every ``ack_interval`` events (and after every watermark flush)
  a worker ships only a capsule *delta* inside its ACK: the pipeline's
  ``delta()`` since the last capsule it sent (or the CAP it was restored
  from), plus the registry snapshot.  :func:`fold_capsule`, called by
  :meth:`ReplayLog.ack`, folds it into the full capsule, so an ACK costs
  the events since the previous one, not the buffered state.
  Because the pipe is FIFO, an ACK for event ``k`` proves the
  coordinator already holds every session emitted by events ``<= k``;
  those sessions become *durable* and the events are trimmed from the
  replay log.
* **Bounded replay logs.**  Unacked events (and watermark marks) are
  retained per shard in a bounded, in-memory :class:`ReplayLog`.  A full
  log is backpressure: the coordinator stops routing to that shard until
  it acks or its lease expires.
* **Lease supervision and replay.**  A shard with outstanding work that
  produces no frames within ``lease`` seconds is wedged; a pipe that
  reaches EOF is dead.  The lease clock restarts whenever bytes reach
  the worker, a frame comes back, or work is queued for a shard that
  owed nothing — so a pause in the input, however long, is never read
  as a wedge.  Either way the coordinator discards the shard's
  *pending* (post-ACK) sessions, respawns the worker after a
  :class:`~repro.parallel.supervisor.RetryPolicy` backoff, restores the
  last capsule, and replays the logged events in order.  The respawned
  worker re-derives exactly the sessions that were discarded — so a run
  with injected worker kills produces byte-identical sealed output
  (by :meth:`~repro.sessions.model.SessionSet.canonical_digest`) to an
  unkilled single-threaded run.

Sealing follows the watermark rule: each ACK carries the shard's event
time watermark; the coordinator's global low-watermark is the minimum
over live shards, and a durable session is *sealed* — released into the
output — only once its end time is at or below that low-watermark (EOF
drives every watermark to +inf).

Failure policy mirrors the governor: ``failover`` (default) replays as
above, ``shed-shard`` abandons the shard's unsealed events (visibly, in
the ledger), ``raise`` turns the first worker loss into
:class:`~repro.exceptions.ExecutionError`.  The
:class:`ShardedStreamingStats` ledger reconciles exactly:
``fed == routed + replayed + shed``.

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
from typing import Any

from repro.exceptions import (ConfigurationError, ExecutionError,
                              WireProtocolError)
from repro.faults.execution import (active_exec_faults,
                                    inject_shard_fault)
from repro.obs import Registry, get_registry
from repro.parallel.supervisor import RetryPolicy
from repro.sessions.model import Request, Session, SessionSet
from repro.streaming import wire
from repro.streaming.governor import (GovernedStreamingReconstructor,
                                      GovernorConfig)
from repro.streaming.pipeline import streaming_phase1, streaming_smart_sra

__all__ = [
    "SHARD_FAILURE_POLICIES",
    "ShardedConfig",
    "ShardedStreamingStats",
    "ShardedRunResult",
    "ShardedStreamingRuntime",
    "ShardLedger",
    "ReplayLog",
    "ShardedAudit",
    "audit_sharded_config",
    "shard_for",
    "capsule_from",
    "restore_capsule",
    "fold_capsule",
]

#: what to do when a shard worker dies or wedges.
SHARD_FAILURE_POLICIES = ("failover", "shed-shard", "raise")

#: schema version of capsules.
REPLAY_SCHEMA = 2

#: bytes read from a pipe per syscall.
_READ_CHUNK = 1 << 16

#: select timeout of the coordinator loop, seconds.
_PUMP_TIMEOUT = 0.05


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
        ack_interval: events between worker capsules/ACKs.  Smaller
            means less replay after a crash but more capsule traffic.
        lease: seconds a shard with outstanding work may stay silent
            before the coordinator declares it wedged.
        replay_capacity: maximum *unacked* events retained per shard;
            reaching it backpressures routing to that shard.
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
    """

    __slots__ = ("shards", "fed", "routed", "replayed", "shed",
                 "_pending", "_shed_shards")

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.fed = 0
        self.routed = 0
        self.replayed = 0
        self.shed = 0
        # per shard, one flag per unacked event: already replayed?
        self._pending: list[deque[bool]] = [deque() for _ in range(shards)]
        self._shed_shards: set[int] = set()

    def route(self, shard: int) -> bool:
        """Count one event toward ``shard``; False if the shard is shed."""
        self.fed += 1
        if shard in self._shed_shards:
            self.shed += 1
            return False
        self.routed += 1
        self._pending[shard].append(False)
        return True

    def ack(self, shard: int, count: int) -> None:
        """Retire the ``count`` oldest pending events of ``shard``."""
        pending = self._pending[shard]
        if count > len(pending):
            raise ExecutionError(
                f"shard {shard} acked {count} events but only "
                f"{len(pending)} are pending")
        for _ in range(count):
            pending.popleft()

    def fail(self, shard: int) -> int:
        """Mark every pending event of ``shard`` replayed; count new ones."""
        pending = self._pending[shard]
        moved = 0
        for i, already in enumerate(pending):
            if not already:
                pending[i] = True
                moved += 1
        self.routed -= moved
        self.replayed += moved
        return moved

    def shed_shard(self, shard: int) -> int:
        """Abandon ``shard``: pending and all future events become shed."""
        pending = self._pending[shard]
        dropped = len(pending)
        while pending:
            if pending.popleft():
                self.replayed -= 1
            else:
                self.routed -= 1
            self.shed += 1
        self._shed_shards.add(shard)
        return dropped

    def pending(self, shard: int) -> int:
        """Unacked events currently attributed to ``shard``."""
        return len(self._pending[shard])

    def reconciles(self) -> bool:
        """The exactness invariant: every fed event has one disposition."""
        return self.fed == self.routed + self.replayed + self.shed


class ReplayLog:
    """Bounded per-shard log of unacked events and watermark marks.

    Lives in coordinator memory: a dead coordinator ends the run, so
    nothing outlives it that a replay could use.
    """

    def __init__(self, shard: int, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"replay capacity must be >= 1, got {capacity}")
        self.shard = shard
        self.capacity = capacity
        # entries: ["evt", ordinal, ts, user, page, referrer, synthetic]
        #       or ["wm", wm_index, value]
        self.entries: deque[list[Any]] = deque()
        self.capsule: dict[str, Any] | None = None
        self._events = 0

    @property
    def event_count(self) -> int:
        """Unacked events currently held (the bounded quantity)."""
        return self._events

    def append_event(self, ordinal: int, timestamp: float, user: str,
                     page: str, referrer: str | None,
                     synthetic: bool) -> bool:
        """Retain one routed event; False when the log is at capacity."""
        if self._events >= self.capacity:
            return False
        self.entries.append(["evt", ordinal, timestamp, user, page,
                             referrer, synthetic])
        self._events += 1
        return True

    def append_watermark(self, wm_index: int, value: float) -> None:
        """Retain one broadcast watermark (watermarks are never bounded)."""
        self.entries.append(["wm", wm_index, value])

    def clear(self) -> None:
        """Drop every retained entry (the shard was shed)."""
        self.entries.clear()
        self._events = 0

    def ack(self, ordinal: int, wm_index: int,
            delta: dict[str, Any] | None = None) -> int:
        """Trim entries covered by an ACK and fold its capsule ``delta``
        (see :func:`fold_capsule`); returns the trimmed event count."""
        trimmed = 0
        entries = self.entries
        while entries:
            head = entries[0]
            if head[0] == "evt" and head[1] <= ordinal:
                entries.popleft()
                self._events -= 1
                trimmed += 1
            elif head[0] == "wm" and head[1] <= wm_index:
                entries.popleft()
            else:
                break
        if delta is not None:
            self.capsule = fold_capsule(self.capsule, delta, ordinal,
                                        wm_index)
        return trimmed

    def recover(self) -> tuple[dict[str, Any] | None, list[list[Any]]]:
        """State to rebuild a worker from: ``(capsule, entries)``.

        The returned capsule is the log's own, the base the respawned
        worker's next delta folds into; do not mutate it.
        """
        return self.capsule, [list(entry) for entry in self.entries]


# ---------------------------------------------------------------------------
# worker state capsules


def capsule_from(pipeline: Any) -> dict[str, Any]:
    """The schema stamp plus the pipeline's replay ``state()``.

    ``state()`` needs an empty reorder buffer and no spilled users: shard
    workers run with ``reorder_window=0`` (the coordinator reorders
    *before* routing) and skip ACKs while any cold buffer is on disk
    (spill files die with the worker).
    """
    return {"schema": REPLAY_SCHEMA, "state": pipeline.state()}


def restore_capsule(pipeline: Any, capsule: dict[str, Any]) -> None:
    """Restore a :func:`capsule_from` capsule into a fresh pipeline."""
    if capsule.get("schema") != REPLAY_SCHEMA:
        raise ExecutionError(
            f"capsule schema {capsule.get('schema')!r} != {REPLAY_SCHEMA}")
    pipeline.restore(capsule["state"])


def fold_capsule(capsule: dict[str, Any] | None, delta: dict[str, Any],
                 ordinal: int, wm_index: int) -> dict[str, Any]:
    """Fold an ACK's capsule delta into the acked ``capsule``, in place.

    ``delta`` holds the worker pipeline's ``delta()`` (``state``), its
    registry ``snapshot()`` (``metrics``) and the ``[ordinal, wm_index]``
    stamp of the capsule it extends (``base``; ``None`` for a fresh
    worker, whose state folds from empty).  The result is the full
    capsule at ``ordinal`` / ``wm_index``, as :func:`capsule_from` plus
    those stamps would have cut it.

    Raises:
        ExecutionError: when ``base`` is not ``capsule``'s stamp.
    """
    stamp = (None if capsule is None
             else [capsule["ordinal"], capsule["wm_index"]])
    if delta["base"] != stamp:
        raise ExecutionError(
            f"capsule delta extends {delta['base']!r}, but the acked "
            f"capsule is at {stamp!r}")
    if capsule is None:
        capsule = {"schema": REPLAY_SCHEMA, "state": {}}
    GovernedStreamingReconstructor.fold(capsule["state"], delta["state"])
    capsule["metrics"] = delta["metrics"]
    capsule["ordinal"] = ordinal
    capsule["wm_index"] = wm_index
    return capsule


# ---------------------------------------------------------------------------
# worker process


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _worker_main(shard: int, incarnation: int, down_fd: int, up_fd: int,
                 close_fds: tuple[int, ...], ack_interval: int,
                 builder: Any) -> None:
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
    pipeline.track_changes()
    ordinal = 0
    wm_index = 0
    # the stamp of the capsule the coordinator folds the next delta into:
    # the last one sent, or the restored CAP (None: the empty state).
    base: list[int] | None = None

    def progress_document() -> dict[str, Any]:
        return {"ordinal": ordinal, "wm_index": wm_index,
                "watermark": pipeline.max_seen}

    def maybe_ack(out: bytearray) -> None:
        nonlocal base
        # spilled cold buffers live in this process's temp dir and die
        # with it — a capsule taken now could not be replayed, so keep
        # the previous one and let the log carry the extra events; the
        # delta base stays put until the next ACK.
        if pipeline.has_spilled:
            return
        document = progress_document()
        # the registry rides along, so a respawned worker's metrics
        # resume where this incarnation's stood at the ACK.
        document["delta"] = {"base": base, "state": pipeline.delta(),
                             "metrics": registry.snapshot()}
        base = [ordinal, wm_index]
        out += wire.json_frame(wire.ACK, document)
        # an ACK leaves as soon as it is cut, with the sessions it makes
        # durable: a worker that fell a whole pipe chunk behind must not
        # hold its progress (and the coordinator's replay trim) back for
        # the rest of the chunk.
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
                        encoder.encode_sessions(out, pipeline.feed(
                            Request(ts, user, page, synthetic, referrer)))
                        if ordinal % ack_interval == 0:
                            maybe_ack(out)
                elif kind == wire.SYM:
                    decoder.add_symbol(payload)
                elif kind == wire.CAP:
                    capsule = wire.decode_json(payload)
                    # restore() also rebases the pipeline's deltas.
                    restore_capsule(pipeline, capsule)
                    registry.merge_snapshot(capsule["metrics"])
                    ordinal = int(capsule["ordinal"])
                    wm_index = int(capsule["wm_index"])
                    base = [ordinal, wm_index]
                elif kind == wire.WM:
                    watermark = wire.decode_watermark(payload)
                    wm_index += 1
                    encoder.encode_sessions(out, pipeline.flush(watermark))
                    maybe_ack(out)
                elif kind == wire.EOF:
                    encoder.encode_sessions(out, pipeline.flush())
                    document = progress_document()
                    document["watermark"] = math.inf
                    document["stats"] = dataclasses.asdict(pipeline.stats())
                    document["snapshot"] = registry.snapshot()
                    out += wire.json_frame(wire.DONE, document)
                    _write_all(up_fd, out)
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
            :class:`~repro.streaming.governor.GovernedStreamingStats`
            as a plain dict (empty for shed shards).
        recovery_seconds: wall-clock failover-to-first-ACK time of every
            recovery, in occurrence order.
    """

    sessions: SessionSet
    stats: ShardedStreamingStats
    shard_stats: tuple[dict[str, Any], ...]
    recovery_seconds: tuple[float, ...] = ()


class _ShardHandle:
    """Coordinator-side mutable state of one shard."""

    __slots__ = ("shard", "proc", "down_fd", "up_fd", "encoder", "decoder",
                 "reader", "outbound", "batch", "pending", "watermark",
                 "last_inbound", "last_sent", "incarnation", "state",
                 "eof_sent", "events_sent", "wm_sent", "done", "failed_at")

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
        self.pending: list[Session] = []
        self.watermark = -math.inf
        self.last_inbound = 0.0
        self.last_sent = 0.0
        self.incarnation = 0
        self.state = "new"          # new | running | done | shed
        self.eof_sent = False
        self.events_sent = 0
        self.wm_sent = 0
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
        self._durable: list[tuple[float, int, Session]] = []
        self._durable_seq = 0
        self._sealed: list[Session] = []
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

    def _spawn(self, handle: _ShardHandle,
               capsule: dict[str, Any] | None,
               entries: list[list[Any]]) -> None:
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
                  self._build_pipeline),
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
        if capsule is not None:
            handle.outbound += wire.json_frame(wire.CAP, capsule)
        # consecutive logged events travel in ACK-span EVT frames, exactly
        # as they were first routed.
        span = self.sharded.ack_interval
        events: list[wire.Event] = []
        for entry in entries:
            if entry[0] == "evt":
                _, _, ts, user, page, referrer, synthetic = entry
                events.append((float(ts), user, page, referrer,
                               bool(synthetic)))
                if len(events) == span:
                    handle.encoder.encode_events(handle.outbound, events)
                    events.clear()
            else:
                handle.encoder.encode_events(handle.outbound, events)
                events.clear()
                handle.outbound += wire.watermark_frame(float(entry[2]))
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
                handle.wm_sent += 1
                self._logs[handle.shard].append_watermark(
                    handle.wm_sent, watermark)
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
        # a full replay log is backpressure: wait for an ACK (or for the
        # lease supervisor to declare the shard wedged) before routing
        # more events at it.
        while (handle.state == "running"
               and log.event_count >= log.capacity):
            self._pump(_PUMP_TIMEOUT)
        if not self._ledger.route(shard):
            self._count("sharded.events.shed")
            return
        handle.events_sent += 1
        timestamp = request.timestamp
        log.append_event(handle.events_sent, timestamp, user, request.page,
                         request.referrer, request.synthetic)
        batch = handle.batch
        batch.append((timestamp, user, request.page, request.referrer,
                      request.synthetic))
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
            if (handle.state == "running" and handle.outstanding
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
            handle.pending.extend(handle.decoder.decode_sessions(payload))
            return
        if kind == wire.ACK:
            self._registry.counter("sharded.ack.bytes",
                                   shard=str(handle.shard)).inc(len(payload))
            document = wire.decode_json(payload)
            self._absorb_progress(handle, document,
                                  delta=document.get("delta"))
            return
        if kind == wire.DONE:
            document = wire.decode_json(payload)
            self._absorb_progress(handle, document, delta=None)
            handle.done = document
            handle.state = "done"
            handle.watermark = math.inf
            self._registry.merge_snapshot(document.get("snapshot", {}))
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

    def _absorb_progress(self, handle: _ShardHandle,
                         document: dict[str, Any],
                         delta: dict[str, Any] | None) -> None:
        log = self._logs[handle.shard]
        trimmed = log.ack(int(document["ordinal"]),
                          int(document["wm_index"]), delta)
        self._ledger.ack(handle.shard, trimmed)
        watermark = float(document["watermark"])
        if watermark > handle.watermark:
            handle.watermark = watermark
        if handle.failed_at is not None:
            self._recoveries.append(time.monotonic() - handle.failed_at)
            handle.failed_at = None
        # FIFO pipes make the ACK a durability proof: every session
        # emitted by the acked events has already been received.
        if handle.pending:
            for session in handle.pending:
                self._durable_seq += 1
                heapq.heappush(self._durable,
                               (session.end_time, self._durable_seq,
                                session))
            handle.pending.clear()
        self._gauge("sharded.replay.events", handle.shard).set(
            log.event_count)
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
        # respawned worker will re-derive exactly these.
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
        while self._durable and self._durable[0][0] <= low:
            self._sealed.append(heapq.heappop(self._durable)[2])
            sealed += 1
        self._count("sharded.sessions.sealed", sealed)

    def _finalize(self) -> ShardedRunResult:
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
            sealed_sessions=len(self._sealed),
            failovers=self._failovers,
            respawns=self._respawns,
            wedged=self._wedged,
            worker_deaths=self._worker_deaths,
            shed_shards=sum(1 for h in self._handles if h.state == "shed"),
            low_watermark=min((h.watermark for h in self._handles
                               if h.state != "shed"), default=math.inf),
        )
        ordered = sorted(self._sealed, key=lambda s: s.canonical_key())
        shard_stats = tuple(
            (h.done or {}).get("stats", {}) for h in self._handles)
        return ShardedRunResult(sessions=SessionSet(ordered), stats=stats,
                                shard_stats=shard_stats,
                                recovery_seconds=tuple(self._recoveries))

    def _cleanup(self) -> None:
        for handle in self._handles:
            self._terminate(handle)


# ---------------------------------------------------------------------------
# configuration audit (repro doctor)


@dataclass(frozen=True, slots=True)
class ShardedAudit:
    """Outcome of auditing a sharded configuration (``repro doctor``).

    Attributes:
        sharded: the audited configuration.
        checks: ``(level, message)`` conclusions; levels are ``"ok"``,
            ``"warn"`` and ``"FAIL"``.
    """

    sharded: ShardedConfig
    checks: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        """True when no check failed (warnings are advisory)."""
        return all(level != "FAIL" for level, _ in self.checks)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (``repro doctor --json``)."""
        return {
            "shards": self.sharded.shards,
            "on_shard_failure": self.sharded.on_shard_failure,
            "ack_interval": self.sharded.ack_interval,
            "replay_capacity": self.sharded.replay_capacity,
            "checks": [{"level": level, "message": message}
                       for level, message in self.checks],
            "ok": self.ok,
        }

    def render(self) -> str:
        """Human-readable audit, one conclusion per line."""
        lines = [
            f"sharded configuration: shards={self.sharded.shards}"
            f" on-shard-failure={self.sharded.on_shard_failure}"
            f" ack-interval={self.sharded.ack_interval}"
            f" replay-capacity={self.sharded.replay_capacity}"]
        for level, message in self.checks:
            lines.append(f"  {level:<4}  {message}")
        lines.append(f"  verdict: {'ok' if self.ok else 'DEGRADED'}")
        return "\n".join(lines)


def audit_sharded_config(sharded: ShardedConfig,
                         governor: GovernorConfig | None = None, *,
                         typical_cost: int = 96) -> ShardedAudit:
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
        if (sharded.on_shard_failure == "shed-shard"
                and governor.overload_policy == "block"):
            checks.append((
                "warn",
                "on-shard-failure=shed-shard with governor policy=block is "
                "deadlock-prone: a blocked worker stops acking, the lease "
                "sheds the shard, and blocked events are silently gone — "
                "use policy=evict with shed-shard, or keep failover"))
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
    return ShardedAudit(sharded, checks)
