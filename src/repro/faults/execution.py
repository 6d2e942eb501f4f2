"""Injectable *execution* faults: crashed, hung and slow workers.

The fault models in :mod:`repro.faults.injectors` corrupt **data**; the
models here break **execution** — the worker process dies mid-chunk, hangs
past its deadline, or a checkpoint file rots on disk.  They exist so the
recovery machinery in :mod:`repro.parallel.supervisor` and
:mod:`repro.parallel.checkpoint` can be exercised deterministically from
tests, from CI and from ``repro chaos --exec-selftest``, instead of
waiting for real hardware to misbehave.

Faults are armed through the :data:`EXEC_FAULTS_ENV` environment variable
(environment propagates into pool workers under both ``fork`` and
``spawn``), normally via the :func:`use_execution_faults` context manager::

    with use_execution_faults("crash-chunk:2", "slow-chunk:0:0.1"):
        supervised_map(fn, items, workers=4, policy=RetryPolicy())

Each spec is ``kind:index[:seconds[:attempts]]``:

* ``crash-chunk:N`` — the worker executing chunk ``N`` dies with
  ``os._exit`` (the pool observes ``BrokenProcessPool``);
* ``hang-chunk:N[:S]`` — chunk ``N`` sleeps ``S`` seconds (default 30)
  before doing any work, tripping the supervisor's deadline;
* ``slow-chunk:N[:S]`` — chunk ``N`` is delayed ``S`` seconds (default
  0.25) but completes — exercises deadline headroom, not recovery;
* ``corrupt-checkpoint:N`` — the ``N``-th checkpoint unit written by
  :class:`~repro.parallel.checkpoint.CheckpointStore` has its integrity
  digest flipped after the atomic rename, so validation must catch it;
* ``mem-pressure:N[:F]`` — from feed ordinal ``N`` on, a
  governed :class:`~repro.streaming.pipeline.StreamingReconstructor`
  constructed under the armed plan shrinks its effective memory budget
  by factor ``F`` (default 0.5) — models the co-tenant that eats half
  the headroom mid-stream;
* ``burst:N[:C]`` — the :func:`run_overload_selftest` driver injects
  ``C`` (default 64) extra same-timestamp requests from a synthetic
  burst user at feed ordinal ``N`` — models a thundering-herd arrival.

Three further kinds target the *sharded* streaming runtime
(:mod:`repro.streaming.sharded`), where the unit of failure is a whole
shard worker rather than a chunk.  For these the spec fields are reused:
``index`` is the **shard**, ``seconds`` is the worker-local **event
ordinal** at which the fault fires, and ``attempts`` counts worker
*incarnations* (so ``attempts=2`` kills the original worker and its
first respawn):

* ``kill-worker:SHARD[:ORDINAL[:ATTEMPTS]]`` — the shard worker dies
  with ``os._exit`` just before processing its ``ORDINAL``-th event
  (default 1, i.e. immediately);
* ``wedge-worker:SHARD[:ORDINAL]`` — the worker stops making progress
  (sleeps far past any lease) without dying, so only the coordinator's
  lease supervision can detect it;
* ``drop-pipe:SHARD[:ORDINAL]`` — the worker abruptly closes both of
  its pipe ends and exits cleanly, modelling a torn transport rather
  than a dead process.

``attempts`` (default 1) is the number of *attempts* the fault fires for:
with the default, a chunk crashes on its first attempt and succeeds on
retry — the canonical transient fault.  Worker faults only ever fire
inside a pool worker process (never in the parent), so in-process
chunks and the supervisor's serial-degrade path are immune by
construction.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "EXEC_FAULTS_ENV",
    "EXEC_FAULT_KINDS",
    "ExecutionFault",
    "parse_exec_fault",
    "parse_exec_fault_plan",
    "use_execution_faults",
    "active_exec_faults",
    "inject_chunk_faults",
    "inject_shard_fault",
    "corrupt_checkpoint_file",
    "run_overload_selftest",
    "run_shard_selftest",
]

#: environment variable carrying the armed fault plan into pool workers.
EXEC_FAULTS_ENV = "REPRO_EXEC_FAULTS"

#: the recognized execution-fault kinds.
EXEC_FAULT_KINDS = ("crash-chunk", "hang-chunk", "slow-chunk",
                    "corrupt-checkpoint", "mem-pressure", "burst",
                    "kill-worker", "wedge-worker", "drop-pipe")

#: default sleep, per kind, when the spec names no explicit duration.
#: (For ``mem-pressure`` the field is a budget-shrink factor; for
#: ``burst`` it is a request count; for the shard-worker kinds it is the
#: worker-local event ordinal — the spec grammar is shared.)
_DEFAULT_SECONDS = {"hang-chunk": 30.0, "slow-chunk": 0.25,
                    "mem-pressure": 0.5, "burst": 64.0,
                    "kill-worker": 1.0, "wedge-worker": 1.0,
                    "drop-pipe": 1.0}

#: how long a wedged shard worker sleeps — far past any sane lease, so
#: only the coordinator's lease supervision ends it.
_WEDGE_SECONDS = 3600.0

#: exit status of a fault-crashed worker (distinctive in core dumps/strace).
_CRASH_EXIT_STATUS = 23

#: the shard selftest's second replay capacity: with its ACK every 16
#: events, a capsule every 32, so the default kills land past capsules.
SELFTEST_REPLAY_CAPACITY = 64


@dataclass(frozen=True, slots=True)
class ExecutionFault:
    """One armed execution fault.

    Attributes:
        kind: one of :data:`EXEC_FAULT_KINDS`.
        index: the chunk index (or checkpoint-unit ordinal) it targets.
        seconds: sleep duration for ``hang-chunk``/``slow-chunk``.
        attempts: the fault fires while ``attempt < attempts`` (so the
            default of 1 models a transient fault that a single retry
            clears; a value above ``max_retries`` models a hard fault).
    """

    kind: str
    index: int
    seconds: float = 0.0
    attempts: int = 1

    def encode(self) -> str:
        """The spec string :func:`parse_exec_fault` parses back."""
        return f"{self.kind}:{self.index}:{self.seconds:g}:{self.attempts}"

    def fires(self, kind: str, index: int, attempt: int) -> bool:
        return (self.kind == kind and self.index == index
                and attempt < self.attempts)


def parse_exec_fault(text: str) -> ExecutionFault:
    """Parse one ``kind:index[:seconds[:attempts]]`` spec.

    Raises:
        ConfigurationError: for an unknown kind or malformed numbers.
    """
    parts = text.strip().split(":")
    kind = parts[0]
    if kind not in EXEC_FAULT_KINDS:
        known = ", ".join(EXEC_FAULT_KINDS)
        raise ConfigurationError(
            f"unknown execution fault {kind!r} (known: {known})")
    if len(parts) < 2 or len(parts) > 4:
        raise ConfigurationError(
            f"execution fault spec {text!r} must be "
            f"kind:index[:seconds[:attempts]]")
    try:
        index = int(parts[1])
        seconds = (float(parts[2]) if len(parts) > 2
                   else _DEFAULT_SECONDS.get(kind, 0.0))
        attempts = int(parts[3]) if len(parts) > 3 else 1
    except ValueError as exc:
        raise ConfigurationError(
            f"malformed execution fault spec {text!r}") from exc
    if index < 0 or seconds < 0 or attempts < 1:
        raise ConfigurationError(
            f"execution fault spec {text!r} has out-of-range fields")
    return ExecutionFault(kind, index, seconds, attempts)


def parse_exec_fault_plan(text: str) -> tuple[ExecutionFault, ...]:
    """Parse a ``;``-separated plan string (the env-var encoding)."""
    return tuple(parse_exec_fault(part)
                 for part in text.split(";") if part.strip())


def active_exec_faults() -> tuple[ExecutionFault, ...]:
    """The currently armed faults (empty when the env var is unset)."""
    text = os.environ.get(EXEC_FAULTS_ENV, "")
    if not text:
        return ()
    return parse_exec_fault_plan(text)


@contextmanager
def use_execution_faults(*specs: str | ExecutionFault) -> Iterator[None]:
    """Arm execution faults for the duration of the block.

    Accepts spec strings or :class:`ExecutionFault` objects; the previous
    environment value is restored on exit.  Pools spawned inside the block
    inherit the plan; pools spawned before it do not re-read it per chunk
    dispatch from the parent side, but workers consult the environment
    they were created with, so arm faults *before* creating the pool.
    """
    plan = [fault if isinstance(fault, ExecutionFault)
            else parse_exec_fault(fault) for fault in specs]
    previous = os.environ.get(EXEC_FAULTS_ENV)
    os.environ[EXEC_FAULTS_ENV] = ";".join(f.encode() for f in plan)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(EXEC_FAULTS_ENV, None)
        else:
            os.environ[EXEC_FAULTS_ENV] = previous


def _in_worker_process() -> bool:
    """True only inside a multiprocessing child (never the main process)."""
    return multiprocessing.parent_process() is not None


def inject_chunk_faults(chunk_index: int, attempt: int) -> None:
    """Apply any armed worker fault matching ``(chunk_index, attempt)``.

    Called by the engine at the top of every chunk execution.  Only fires
    inside a pool *worker process*: in the parent (an in-process chunk
    or the supervisor's serial-degrade path) it is a no-op, so an armed
    crash fault can never take down the supervising process.
    """
    faults = active_exec_faults()
    if not faults or not _in_worker_process():
        return
    for fault in faults:
        if fault.fires("slow-chunk", chunk_index, attempt):
            time.sleep(fault.seconds)
        elif fault.fires("hang-chunk", chunk_index, attempt):
            time.sleep(fault.seconds)
        elif fault.fires("crash-chunk", chunk_index, attempt):
            # a real crash: no exception, no cleanup, no exit handlers —
            # the pool parent observes BrokenProcessPool.
            os._exit(_CRASH_EXIT_STATUS)


def inject_shard_fault(shard: int, ordinal: int, incarnation: int,
                       faults: tuple[ExecutionFault, ...] | None = None
                       ) -> str | None:
    """Apply any armed shard-worker fault matching this processing point.

    Called by the sharded streaming worker just before processing the
    event with worker-local 1-based ``ordinal``.  ``incarnation`` is 0
    for the originally spawned worker and increments on every respawn,
    and plays the role the retry *attempt* plays for chunk faults — a
    fault with ``attempts=2`` fires for incarnations 0 and 1.

    ``kill-worker`` exits the process immediately (no cleanup, exit
    status :data:`_CRASH_EXIT_STATUS`); ``wedge-worker`` sleeps far past
    any lease so the coordinator must detect the stall itself.
    ``drop-pipe`` cannot be applied here — the pipe file descriptors
    belong to the caller — so it is *reported*: the function returns the
    string ``"drop-pipe"`` and the worker tears its transport down.
    Returns ``None`` when nothing fires.  Only ever fires inside a
    worker process, like :func:`inject_chunk_faults`.  ``faults`` is the
    armed plan when the caller already read it (a worker reads it once,
    since faults are armed before it forks); ``None`` reads the
    environment.
    """
    if faults is None:
        faults = active_exec_faults()
    if not faults or not _in_worker_process():
        return None
    for fault in faults:
        if int(fault.seconds) != ordinal:
            continue
        if fault.fires("kill-worker", shard, incarnation):
            os._exit(_CRASH_EXIT_STATUS)
        if fault.fires("wedge-worker", shard, incarnation):
            time.sleep(_WEDGE_SECONDS)
        if fault.fires("drop-pipe", shard, incarnation):
            return "drop-pipe"
    return None


def corrupt_checkpoint_file(path: str, ordinal: int) -> bool:
    """Corrupt the checkpoint unit at ``path`` if a fault targets it.

    Called by :class:`~repro.parallel.checkpoint.CheckpointStore` after
    every atomic unit write with that unit's write ordinal.  When a
    ``corrupt-checkpoint:N`` fault matches, the stored integrity digest is
    rewritten to an obviously-wrong value (valid JSON, wrong hash) —
    exactly the damage a torn block or bit rot produces from the reader's
    point of view.  Returns ``True`` when the file was corrupted.
    """
    import json

    for fault in active_exec_faults():
        if fault.fires("corrupt-checkpoint", ordinal, 0):
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
            document["digest"] = "0" * 64
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            return True
    return False


def _selftest_work(x: int, seed: int = 0) -> tuple[int, int]:
    """Deterministic, CPU-trivial work item for the exec selftest.

    Returns ``(pid, value)``: the id of the process that ran the item
    shows whether the selftest really exercised the process pool.
    """
    value = (x + seed) & 0xFFFFFFFF
    for _ in range(8):
        value = (value * 2654435761 + 1) & 0xFFFFFFFF
    return os.getpid(), value


def run_exec_selftest(specs: list[str], *, items: int = 64, workers: int = 2,
                      seed: int = 0, policy=None) -> dict:
    """Run the execution-fault recovery selftest (``repro chaos``'s body).

    Arms ``specs``, fans a trivial deterministic workload out through the
    supervised map, and checks the recovered output is byte-identical to
    the serial loop and that the pool, not the parent, ran it.  Returns a
    plain dict: ``identical`` (bool), ``items``, ``pooled_items`` (items
    a pool worker computed — the rest were degraded to the parent),
    ``chunks``, ``stats`` (supervision counters) and ``failures``
    (structured :class:`ChunkFailure` dicts).
    """
    import functools

    from repro.parallel.supervisor import RetryPolicy, supervised_map

    if policy is None:
        policy = RetryPolicy(max_retries=2, deadline=5.0)
    work = functools.partial(_selftest_work, seed=seed)
    expected = [work(x)[1] for x in range(items)]
    with use_execution_faults(*specs):
        outcome = supervised_map(work, range(items), workers=workers,
                                 policy=policy)
    parent = os.getpid()
    return {
        "identical": [value for _, value in outcome.results] == expected,
        "items": items,
        "pooled_items": sum(pid != parent for pid, _ in outcome.results),
        "chunks": outcome.stats.chunks,
        "stats": {
            "retries": outcome.stats.retries,
            "respawns": outcome.stats.respawns,
            "deadline_hits": outcome.stats.deadline_hits,
            "crashes": outcome.stats.crashes,
            "degraded_serial": outcome.stats.degraded_serial,
            "skipped": outcome.stats.skipped,
        },
        "failures": [failure.to_dict() for failure in outcome.failures],
    }


def run_overload_selftest(specs: list[str], *, budget: int = 48 * 1024,
                          policy: str = "evict", seed: int = 0,
                          spill_dir: str | None = None) -> dict:
    """Run the overload-degradation selftest (``repro chaos``'s body).

    Generates an adversarial crawler + NAT workload, arms ``specs``
    (typically ``mem-pressure`` and ``burst`` faults), streams it
    through a governed Smart-SRA pipeline under ``budget`` bytes, and
    checks the degradation contract end to end: peak tracked state stays
    under the budget, the stats ledger reconciles, and every emitted
    session satisfies the five Smart-SRA invariants.  Returns a plain
    dict with the three verdicts plus the degradation counters.
    """
    from repro.core.config import SmartSRAConfig
    from repro.diffcheck.invariants import verify_sessions
    from repro.sessions.model import Request
    from repro.simulator.adversarial import adversarial_workload
    from repro.streaming.governor import GovernorConfig
    from repro.streaming.pipeline import streaming_smart_sra
    from repro.topology.generators import random_site

    topology = random_site(n_pages=120, avg_out_degree=6.0, seed=seed)
    config = SmartSRAConfig()
    workload = adversarial_workload(
        topology, crawlers=2, crawler_requests=600, crawler_interval=5.0,
        nat_pools=2, humans_per_pool=10, normal_agents=6, seed=seed)
    governor = GovernorConfig(
        memory_budget=budget, per_user_cap=64, overload_policy=policy,
        spill_dir=spill_dir, quarantine_after=2, quarantine_cap=256)
    with use_execution_faults(*specs):
        bursts = {fault.index: max(1, int(fault.seconds))
                  for fault in active_exec_faults()
                  if fault.kind == "burst"}
        pipeline = streaming_smart_sra(topology, config,
                                       governor=governor,
                                       late_policy="drop")
        sessions = []
        for ordinal, request in enumerate(workload):
            extra = bursts.get(ordinal, 0)
            pages = sorted(topology.start_pages)
            for i in range(extra):   # thundering herd at this instant
                sessions.extend(pipeline.feed(Request(
                    request.timestamp, "burst-bot",
                    pages[i % len(pages)])))
            sessions.extend(pipeline.feed(request))
        sessions.extend(pipeline.flush())
    stats = pipeline.stats()
    violations = verify_sessions(sessions, topology, config)
    return {
        "bounded": stats.peak_tracked_bytes <= budget,
        "reconciled": stats.reconciles(),
        "invariant_clean": not violations,
        "violations": [v.to_dict() for v in violations[:10]],
        "budget": budget,
        "policy": policy,
        "requests": stats.fed_requests,
        "sessions": len(sessions),
        "stats": {
            "peak_tracked_bytes": stats.peak_tracked_bytes,
            "evictions": stats.evictions,
            "evicted_requests": stats.evicted_requests,
            "shed_requests": stats.shed_requests,
            "spill_writes": stats.spill_writes,
            "spill_restores": stats.spill_restores,
            "spill_lost": stats.spill_lost,
            "quarantined_users": stats.quarantined_users,
            "quarantine_flushes": stats.quarantine_flushes,
            "cap_strikes": stats.cap_strikes,
            "late_dropped": stats.late_dropped,
        },
    }


def run_shard_selftest(specs: list[str] | None = None, *, shards: int = 2,
                       seed: int = 0, lease: float = 5.0) -> dict:
    """Run the sharded-failover selftest (``repro chaos --shard-selftest``).

    Streams an adversarial crawler + NAT workload through the sharded
    runtime with worker faults armed (default: two ``kill-worker``
    faults, one per shard) and checks the crash-safety contract end to
    end: the sealed output is byte-identical — by canonical digest — to
    the serial governed run of the same workload, the sharded ledger
    reconciles (fed == routed + replayed + shed), and at least one
    failover actually happened when a fault was armed.

    The stream runs twice: at the default replay capacity, where no
    worker cuts a capsule before the default kills, and at
    :data:`SELFTEST_REPLAY_CAPACITY` events, where every shard cuts a
    capsule every 32 events, so the same kills land past capsules and
    failover restores them.  Returns a plain dict: the three verdicts
    over both runs, and each run's own verdicts and runtime counters
    under ``"runs"``.
    """
    from repro.sessions.model import SessionSet
    from repro.simulator.adversarial import adversarial_workload
    from repro.streaming.governor import GovernorConfig
    from repro.streaming.pipeline import streaming_smart_sra
    from repro.streaming.sharded import (ShardedConfig,
                                         ShardedStreamingRuntime)
    from repro.topology.generators import random_site

    topology = random_site(n_pages=100, avg_out_degree=5.0, seed=seed)
    workload = adversarial_workload(
        topology, crawlers=2, crawler_requests=300, crawler_interval=5.0,
        nat_pools=2, humans_per_pool=8, normal_agents=6, seed=seed)
    # generous budget: per-user caps and quarantine still exercise the
    # governor, but global eviction (which is shard-order dependent)
    # never fires, keeping the byte-identity contract in scope.
    governor = GovernorConfig(memory_budget=1 << 30, per_user_cap=64,
                              quarantine_after=2, quarantine_cap=256)

    serial = streaming_smart_sra(topology, governor=governor)
    sessions = serial.feed_many(workload)
    sessions.extend(serial.flush())
    expected = SessionSet(sessions).canonical_digest()

    if specs is None:
        specs = ["kill-worker:0:40", f"kill-worker:{shards - 1}:60"]
    shard_kinds = ("kill-worker", "wedge-worker", "drop-pipe")
    armed = any(spec.split(":", 1)[0] in shard_kinds for spec in specs)
    runs = []
    for capacity in (ShardedConfig().replay_capacity,
                     SELFTEST_REPLAY_CAPACITY):
        sharded = ShardedConfig(shards=shards, ack_interval=16, lease=lease,
                                replay_capacity=capacity)
        with use_execution_faults(*specs):
            result = ShardedStreamingRuntime(
                topology, governor=governor, sharded=sharded).run(workload)
        stats = result.stats
        runs.append({
            "replay_capacity": capacity,
            "checkpoint_interval": sharded.checkpoint_interval,
            "identical": result.sessions.canonical_digest() == expected,
            "reconciled": stats.reconciles(),
            "recovered": (stats.failovers + stats.shed_shards >= 1
                          if armed else True),
            "requests": stats.fed,
            "sessions": len(result.sessions),
            "stats": {
                "routed": stats.routed,
                "replayed": stats.replayed,
                "shed": stats.shed,
                "failovers": stats.failovers,
                "respawns": stats.respawns,
                "wedged": stats.wedged,
                "worker_deaths": stats.worker_deaths,
                "shed_shards": stats.shed_shards,
            },
        })
    return {
        "identical": all(run["identical"] for run in runs),
        "reconciled": all(run["reconciled"] for run in runs),
        "recovered": all(run["recovered"] for run in runs),
        "specs": list(specs),
        "shards": shards,
        "requests": runs[0]["requests"],
        "runs": runs,
    }
