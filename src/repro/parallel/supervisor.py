"""The one parallel map: chunked, order-preserving and supervised.

:func:`supervised_map` returns ``[fn(item) for item in items]``: items
are split into contiguous chunks, the chunks run on a
``ProcessPoolExecutor`` or in-process, and the results are reassembled
in chunk order, so the output does not depend on the worker count.
Work that does not pickle, one worker, one chunk, or a host where no
process pool can be brought up runs the chunks in-process, in order.

On the pool, recovery happens at **chunk granularity**:

* every batch of outstanding chunks runs under a *progress deadline* —
  if no chunk completes within ``deadline`` seconds, the pool is
  presumed hung, killed, and the outstanding chunks are retried;
* a crashed pool (``BrokenProcessPool``) is respawned and only the
  unfinished chunks are resubmitted — completed results are kept.  A
  crash is charged to a chunk only when that chunk was alone in flight:
  when several were unfinished, none is charged, and each is re-run in
  a pool round of its own until the crasher is isolated;
* each failed chunk is retried up to ``max_retries`` times with
  exponential backoff plus deterministic seeded jitter;
* a chunk that exhausts its retries is resolved by the policy's
  ``on_failure`` mode: ``"serial"`` (default) re-executes it in-process
  in the parent, ``"skip"`` quarantines it as a structured
  :class:`ChunkFailure`, ``"raise"`` aborts with
  :class:`~repro.exceptions.ExecutionError`.

Determinism is preserved: recovery happens at chunk boundaries and the
results are reassembled in chunk order, so a run that survived three
crashes is byte-identical to an undisturbed one (skipped chunks
excepted — they are reported, never silently dropped).  Exceptions
raised by the *work function itself* are not retried: they are
deterministic bugs, not execution faults, and propagate after the
queued chunks are cancelled.

The parent-side callback ``on_chunk_complete`` fires as each chunk's
results arrive (including retried and serially-degraded chunks), which
is what lets :mod:`repro.parallel.checkpoint` consumers persist
completed work units *while* the run is still in flight.
"""

from __future__ import annotations

import pickle
import random
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ConfigurationError, ExecutionError
from repro.obs import get_registry
from repro.parallel.engine import (
    CHUNKS_PER_WORKER,
    _run_chunk,
    resolve_workers,
)

__all__ = [
    "RetryPolicy",
    "ChunkFailure",
    "SupervisionStats",
    "SupervisedMapResult",
    "supervised_map",
]

_FAILURE_MODES = ("raise", "serial", "skip")


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How the supervisor treats crashed and hung chunks.

    Attributes:
        max_retries: retry budget per chunk (0 disables retries; the
            chunk then goes straight to the ``on_failure`` resolution).
        deadline: progress deadline in seconds — if no outstanding chunk
            completes within this window the pool is presumed hung and
            the outstanding chunks are retried.  ``None`` waits forever.
        backoff_base: first retry delay, seconds; doubles per attempt.
        backoff_cap: upper bound on the raw backoff delay, seconds.
        jitter: jitter fraction in ``[0, 1]`` — the delay is scaled by a
            factor drawn deterministically from ``seed`` in
            ``[1, 1 + jitter]``, so colliding retries decorrelate while
            tests stay reproducible.
        on_failure: ``"serial"`` | ``"skip"`` | ``"raise"`` — what to do
            with a chunk that exhausted its retries.
        seed: base seed for the jitter stream.

    Raises:
        ConfigurationError: for out-of-range fields.
    """

    max_retries: int = 2
    deadline: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.5
    on_failure: str = "serial"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(
                f"deadline must be positive (or None), got {self.deadline}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}")
        if self.on_failure not in _FAILURE_MODES:
            raise ConfigurationError(
                f"unknown on_failure mode {self.on_failure!r}; "
                f"use one of {_FAILURE_MODES}")

    def backoff_for(self, chunk_index: int, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based) of ``chunk_index``."""
        raw = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        rng = random.Random(f"{self.seed}:{chunk_index}:{attempt}")
        return raw * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True, slots=True)
class ChunkFailure:
    """Structured record of one chunk that exhausted its retries.

    Attributes:
        chunk_index: position of the chunk in the dispatch order.
        item_offset: index of the chunk's first item in the input list.
        n_items: number of items the chunk carried.
        attempts: total execution attempts (1 + retries).
        reason: ``"crash"`` or ``"deadline"`` — the *last* failure mode.
        error: human-readable detail of the last failure.
        resolution: ``"serial"``, ``"skipped"`` or ``"raised"``.
    """

    chunk_index: int
    item_offset: int
    n_items: int
    attempts: int
    reason: str
    error: str
    resolution: str

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form for JSON reports and checkpoint manifests."""
        return {"chunk_index": self.chunk_index,
                "item_offset": self.item_offset,
                "n_items": self.n_items,
                "attempts": self.attempts,
                "reason": self.reason,
                "error": self.error,
                "resolution": self.resolution}


@dataclass(slots=True)
class SupervisionStats:
    """Recovery-event counters for one supervised run."""

    chunks: int = 0
    retries: int = 0
    respawns: int = 0
    deadline_hits: int = 0
    crashes: int = 0
    degraded_serial: int = 0
    skipped: int = 0


@dataclass(slots=True)
class SupervisedMapResult:
    """Outcome of one :func:`supervised_map` call.

    Attributes:
        results: the flattened work-function results in item order.
            Items of chunks skipped under ``on_failure="skip"`` are
            omitted — consult :attr:`failures` for their offsets.
        chunk_outputs: per-chunk result lists in chunk order (``None``
            for a skipped chunk) — the alignment-preserving view callers
            use to map results back to inputs under the skip policy.
        failures: structured records of chunks that exhausted retries.
        stats: recovery-event counters.
    """

    results: list[Any]
    chunk_outputs: list[list[Any] | None]
    failures: list[ChunkFailure] = field(default_factory=list)
    stats: SupervisionStats = field(default_factory=SupervisionStats)


def _kill_pool(pool: Any) -> None:
    """Tear a (possibly hung) process pool down without waiting.

    ``shutdown(wait=False, cancel_futures=True)`` alone leaves a hung
    worker sleeping in the background; terminating the worker processes
    first (best-effort, private API) reclaims them immediately.
    """
    try:
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
    except Exception:  # pragma: no cover - teardown is best-effort
        pass
    pool.shutdown(wait=False, cancel_futures=True)


class _PoolUnavailable(Exception):
    """Internal: the process pool could not be brought up at all."""


def _picklable(*objects: object) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def supervised_map(fn: Callable[[Any], Any], items: Iterable[Any], *,
                   workers: int | None = 0,
                   chunk_size: int | None = None,
                   policy: RetryPolicy | None = None,
                   on_chunk_complete: Callable[[int, list[Any]], None]
                   | None = None) -> SupervisedMapResult:
    """``[fn(item) for item in items]``, chunked and supervised.

    Chunks run on a process pool when there is more than one worker
    and more than one chunk, and ``fn`` with the first item pickles
    (a module-level function, or a :func:`functools.partial` of one).
    Otherwise, or where no process pool can be brought up, they run
    in-process, in order; a thread pool would gain nothing under the
    GIL.  Supervision — deadlines, retries, respawns, degradation — is
    a pool feature (an in-process chunk cannot crash the pool, and a
    hung one cannot be killed), but chunk boundaries,
    ``on_chunk_complete`` callbacks and the result shape are the same
    either way.

    When the ambient :mod:`repro.obs` registry is enabled, each chunk
    runs under a private registry whose snapshot the parent merges back
    in chunk order, so counters and histogram counts reconcile with a
    serial loop and gauges keep its last write.  In-process chunks keep
    the ambient tracer; a pool worker's lifecycle is traced parent-side.

    Args:
        fn: the work function.
        items: the work items, fully materialized before dispatch.
        workers: worker count; ``0`` auto-detects usable CPUs, ``None``
            or ``1`` runs every chunk in-process.
        chunk_size: items per chunk.  The default is one chunk when
            there is one worker, else enough chunks for
            :data:`~repro.parallel.engine.CHUNKS_PER_WORKER` per worker.
        policy: the :class:`RetryPolicy`; ``None`` uses the defaults.
        on_chunk_complete: parent-side callback ``(chunk_index,
            results)`` invoked as each chunk completes (in completion
            order, not chunk order) — the checkpoint layer's hook.

    Raises:
        ExecutionError: a chunk exhausted its retries under
            ``on_failure="raise"``.
        ConfigurationError: an invalid worker count or chunk size.
    """
    policy = policy or RetryPolicy()
    items = list(items)
    count = min(resolve_workers(workers), max(1, len(items)))
    if chunk_size is None:
        chunk_size = (max(1, -(-len(items) // (count * CHUNKS_PER_WORKER)))
                      if count > 1 else max(1, len(items)))
    elif chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}")
    chunks = [items[offset:offset + chunk_size]
              for offset in range(0, len(items), chunk_size)]
    parent = get_registry()
    collect = parent.enabled
    stats = SupervisionStats(chunks=len(chunks))
    failures: list[ChunkFailure] = []

    outputs: list[tuple[list[Any], dict | None] | None] | None = None
    pool_workers = min(count, len(chunks))
    if pool_workers > 1 and _picklable(fn, items[0]):
        try:
            outputs = _supervised_process_map(
                fn, chunks, pool_workers, collect, policy, stats,
                failures, on_chunk_complete)
        except _PoolUnavailable:
            outputs = None
    if outputs is None:
        # in-process, in chunk order.  The chunk/attempt span makes each
        # chunk attributable in `repro trace analyze` (attempt 0 —
        # nothing retries here).
        outputs = []
        for index, chunk in enumerate(chunks):
            with parent.span("parallel.chunk", chunk=index, attempt=0):
                result = _run_chunk((fn, chunk, collect, index, 0),
                                    parent.tracer)
            outputs.append(result)
            if on_chunk_complete is not None:
                on_chunk_complete(index, result[0])

    _publish_stats(parent, stats)
    results: list[Any] = []
    chunk_outputs: list[list[Any] | None] = []
    for output in outputs:
        if output is None:
            chunk_outputs.append(None)
            continue
        chunk_results, snapshot = output
        chunk_outputs.append(chunk_results)
        results.extend(chunk_results)
        if snapshot is not None:
            parent.merge_snapshot(snapshot)
    return SupervisedMapResult(results=results, chunk_outputs=chunk_outputs,
                               failures=failures, stats=stats)


def _publish_stats(registry: Any, stats: SupervisionStats) -> None:
    """Record recovery events as metrics — only when they happened.

    Series are created lazily so a zero-fault run leaves no supervisor
    series behind; that keeps resumed-run snapshots identical to
    uninterrupted ones.
    """
    if not registry.enabled:
        return
    for name, value in (("parallel.supervisor.retries", stats.retries),
                        ("parallel.supervisor.respawns", stats.respawns),
                        ("parallel.supervisor.deadline_exceeded",
                         stats.deadline_hits),
                        ("parallel.supervisor.crashes", stats.crashes),
                        ("parallel.supervisor.degraded_serial",
                         stats.degraded_serial),
                        ("parallel.supervisor.skipped", stats.skipped)):
        if value:
            registry.counter(name).inc(value)


def _supervised_process_map(fn: Callable[[Any], Any],
                            chunks: list[list[Any]], pool_workers: int,
                            collect: bool, policy: RetryPolicy,
                            stats: SupervisionStats,
                            failures: list[ChunkFailure],
                            on_chunk_complete: Callable | None
                            ) -> list[tuple[list[Any], dict | None] | None]:
    """The supervised process-pool execution loop.

    Returns per-chunk ``(results, obs_snapshot)`` tuples in chunk order,
    ``None`` for chunks skipped under ``on_failure="skip"``.
    """
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    item_offsets: list[int] = []
    offset = 0
    for chunk in chunks:
        item_offsets.append(offset)
        offset += len(chunk)

    pending: dict[int, list[Any]] = dict(enumerate(chunks))
    attempts: dict[int, int] = {index: 0 for index in pending}
    # chunks unfinished when a pool crashed beside other unfinished
    # chunks: any of them may be the crasher, so each runs alone until
    # it completes, and only a crash while alone is charged to it.
    suspects: set[int] = set()
    outputs: dict[int, tuple[list[Any], dict | None] | None] = {}
    pool: ProcessPoolExecutor | None = None
    spawned = 0
    # worker-side code cannot trace (spans do not cross the process
    # boundary), so chunk lifecycle is recorded parent-side: trace
    # *events* carrying chunk/attempt, and a span around the in-parent
    # degraded-serial re-execution.
    registry = get_registry()

    def complete(index: int,
                 output: tuple[list[Any], dict | None]) -> None:
        registry.event("parallel.chunk.complete", chunk=index,
                       attempt=attempts[index])
        outputs[index] = output
        del pending[index]
        if on_chunk_complete is not None:
            on_chunk_complete(index, output[0])

    def resolve_exhausted(index: int, reason: str, error: str) -> None:
        """A chunk is out of retries: degrade per the failure policy."""
        record = ChunkFailure(
            chunk_index=index, item_offset=item_offsets[index],
            n_items=len(chunks[index]), attempts=attempts[index] + 1,
            reason=reason, error=error,
            resolution={"serial": "serial", "skip": "skipped",
                        "raise": "raised"}[policy.on_failure])
        failures.append(record)
        if policy.on_failure == "raise":
            raise ExecutionError(
                f"chunk {index} ({record.n_items} items at offset "
                f"{record.item_offset}) failed after {record.attempts} "
                f"attempts ({reason}): {error}")
        if policy.on_failure == "serial":
            # in-process re-execution: worker faults never fire in the
            # parent, so a genuinely healthy chunk recovers here, and a
            # genuinely broken work function raises its real exception.
            stats.degraded_serial += 1
            attempts[index] += 1
            with registry.span("parallel.chunk", chunk=index,
                               attempt=attempts[index], degraded="serial"):
                output = _run_chunk((fn, chunks[index], collect, index,
                                     attempts[index]))
            complete(index, output)
        else:
            stats.skipped += 1
            registry.event("parallel.chunk.skipped", chunk=index,
                           attempt=attempts[index], reason=reason)
            outputs[index] = None
            del pending[index]

    try:
        while pending:
            if pool is None:
                try:
                    pool = ProcessPoolExecutor(
                        max_workers=min(pool_workers, len(pending)))
                except (OSError, ImportError, NotImplementedError,
                        PermissionError) as error:
                    raise _PoolUnavailable(str(error)) from error
                spawned += 1
                if spawned > 1:
                    stats.respawns += 1

            suspects &= pending.keys()
            batch = [min(suspects)] if suspects else sorted(pending)
            futures: dict[Any, int] = {}
            # a chunk submitted a moment ago may already have killed its
            # worker, breaking the pool under the rest of the batch.
            submitted_all = True
            try:
                for index in batch:
                    futures[pool.submit(
                        _run_chunk, (fn, pending[index], collect, index,
                                     attempts[index]))] = index
            except BrokenProcessPool:
                submitted_all = False
            failed_round: dict[int, tuple[str, str]] = {}
            crashed = not submitted_all
            not_done = set(futures)
            while not_done and not crashed:
                done, not_done = wait(not_done, timeout=policy.deadline,
                                      return_when=FIRST_COMPLETED)
                if not done:
                    # progress deadline: nothing completed in the window,
                    # so the pool is presumed hung on the outstanding
                    # chunks.  Kill it; everything unfinished retries.
                    stats.deadline_hits += 1
                    for future in not_done:
                        failed_round[futures[future]] = (
                            "deadline",
                            f"no progress within {policy.deadline:g}s")
                    _kill_pool(pool)
                    pool = None
                    break
                for future in done:
                    index = futures[future]
                    error = future.exception()
                    if error is None:
                        complete(index, future.result())
                    elif isinstance(error, BrokenProcessPool):
                        crashed = True
                    else:
                        # a deterministic work-function error: cancel the
                        # backlog and propagate, as an in-process chunk
                        # would.
                        pool.shutdown(wait=False, cancel_futures=True)
                        raise error
            if crashed:
                stats.crashes += 1
                unfinished = [index for index in batch if index in pending]
                if len(unfinished) == 1 and submitted_all:
                    failed_round[unfinished[0]] = (
                        "crash", "worker process died (BrokenProcessPool)")
                else:
                    suspects.update(unfinished)
                _kill_pool(pool)
                pool = None

            if not failed_round:
                continue
            delay = 0.0
            for index in sorted(failed_round):
                reason, error = failed_round[index]
                if attempts[index] < policy.max_retries:
                    delay = max(delay, policy.backoff_for(index,
                                                          attempts[index]))
                    attempts[index] += 1
                    stats.retries += 1
                    registry.event("parallel.chunk.retry", chunk=index,
                                   attempt=attempts[index], reason=reason)
                else:
                    resolve_exhausted(index, reason, error)
            if pending and delay > 0.0:
                time.sleep(delay)
    finally:
        if pool is not None:
            pool.shutdown(wait=True)

    return [outputs[index] for index in range(len(chunks))]
