"""The execution engine behind the library's one parallel path.

The unit of parallel work is a sweep point
(:func:`repro.evaluation.harness.sweep`): one simulated population with
every heuristic scored on it, coarse enough to pay for a process pool.
Finer units — one user's reconstruction, one heuristic's scoring, one
agent's simulation — lose to the serial loop at every core count,
because pickling their inputs and results costs more than the work.

Design contract:

* **Determinism** — :func:`parallel_map` returns exactly
  ``[fn(item) for item in items]``: items are chunked contiguously, chunks
  are executed wherever, and results are reassembled in chunk order.  A
  run with 4 process workers, 2 thread workers or none produces
  byte-identical output.
* **Exact observability** — when the ambient :mod:`repro.obs` registry is
  enabled, each chunk runs under a private registry
  (:func:`~repro.obs.registry.use_local_registry`) whose snapshot the
  parent merges back (:meth:`~repro.obs.registry.Registry.merge_snapshot`),
  so counters and histogram counts reconcile with a serial run.
* **Graceful degradation** — ``workers=0`` auto-detects the usable CPU
  count; unpicklable work or a sandbox without process support falls
  back to threads; ``workers=None``, one worker or one item
  short-circuits to a plain loop (``None`` means serial everywhere in
  the library).
"""

from __future__ import annotations

import gc
import os
import pickle
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.exceptions import ConfigurationError
from repro.obs import Registry, get_registry, use_local_registry

__all__ = [
    "ParallelPlan",
    "available_cpus",
    "resolve_workers",
    "plan_execution",
    "parallel_map",
    "paused_gc",
]

#: target chunks per worker: >1 so a slow chunk doesn't serialize the
#: tail, small enough that per-chunk dispatch cost stays negligible.
CHUNKS_PER_WORKER = 4

_MODES = ("auto", "process", "thread", "serial")

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware, never less than 1)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count knob to an effective count (>= 1).

    ``None`` means *serial* (one worker), as it does for every
    ``workers=`` knob in the library; ``0`` means *auto-detect*
    (:func:`available_cpus`); any positive integer is taken literally.

    Raises:
        ConfigurationError: for a negative or non-integer count.
    """
    if workers is None:
        return 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigurationError(
            f"workers must be an integer >= 0, got {workers!r}")
    if workers < 0:
        raise ConfigurationError(
            f"workers must be >= 0 (0 = auto-detect), got {workers}")
    return workers if workers > 0 else available_cpus()


@dataclass(frozen=True, slots=True)
class ParallelPlan:
    """The resolved execution shape for one :func:`parallel_map` call.

    Attributes:
        workers: effective worker count (>= 1).
        mode: ``"process"``, ``"thread"`` or ``"serial"`` — never
            ``"auto"`` (planning resolves it).
        chunk_size: items per chunk.
    """

    workers: int
    mode: str
    chunk_size: int


def _picklable(*objects: object) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def plan_execution(n_items: int, workers: int | None = 0,
                   mode: str = "auto", chunk_size: int | None = None,
                   probe: Sequence[object] = ()) -> ParallelPlan:
    """Decide how a workload of ``n_items`` should execute.

    Args:
        n_items: number of work items.
        workers: requested worker count (``0`` = auto-detect, ``None``
            = serial).
        mode: ``"auto"`` (processes when the probe objects pickle, else
            threads), or an explicit ``"process"``/``"thread"``/
            ``"serial"``.
        chunk_size: items per chunk; default targets
            :data:`CHUNKS_PER_WORKER` chunks per worker.
        probe: objects that must cross the process boundary (the work
            function and one representative item); only consulted in
            ``"auto"`` mode.

    Raises:
        ConfigurationError: for an unknown mode or invalid worker count.
    """
    if mode not in _MODES:
        raise ConfigurationError(
            f"unknown parallel mode {mode!r}; use one of {_MODES}")
    count = resolve_workers(workers)
    count = min(count, max(1, n_items))
    if mode == "serial" or count <= 1 or n_items <= 1:
        return ParallelPlan(1, "serial", max(1, n_items))
    if chunk_size is None:
        chunk_size = max(1, -(-n_items // (count * CHUNKS_PER_WORKER)))
    elif chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}")
    if mode == "auto":
        mode = "process" if _picklable(*probe) else "thread"
    return ParallelPlan(count, mode, chunk_size)


@contextmanager
def paused_gc():
    """Suspend generational GC for a batch that only allocates live output.

    A batch workload whose allocations survive until the batch returns
    (e.g. session reconstruction accumulating its result set) gets zero
    benefit from mid-batch collection passes, yet pays for each pass in
    proportion to the *whole* live heap — measured as a superlinear
    krec/s drop on growing workloads (see ``docs/performance.md``).  This
    pauses collection for the duration and restores the previous state;
    a caller that already disabled GC is left alone.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


#: environment variable arming injectable execution faults (see
#: :mod:`repro.faults.execution`); checked by name so the hot path pays
#: one dict lookup when no faults are armed.
_EXEC_FAULTS_ENV = "REPRO_EXEC_FAULTS"


def _run_chunk(payload: tuple[Callable[[Any], Any], list[Any], bool,
                              int, int]
               ) -> tuple[list[Any], dict[str, Any] | None]:
    """Execute one chunk; module-level so it pickles into worker processes.

    The payload is ``(fn, items, collect_obs, chunk_index, attempt)`` —
    the index and attempt exist for the execution-fault hook
    (:func:`repro.faults.execution.inject_chunk_faults`), which lets tests
    crash, hang or slow a specific chunk attempt deterministically.  The
    hook only ever fires inside pool worker processes.

    When obs collection is requested, the chunk runs under a private
    thread-local registry and returns its snapshot alongside the results
    (the tracer never crosses the boundary — spans are a parent-side
    concern).  GC is paused per chunk — chunk results stay live until the
    chunk returns, so mid-chunk collections are pure overhead.
    """
    fn, chunk, collect, chunk_index, attempt = payload
    if os.environ.get(_EXEC_FAULTS_ENV):
        from repro.faults.execution import inject_chunk_faults
        inject_chunk_faults(chunk_index, attempt)
    if not collect:
        with paused_gc():
            return [fn(item) for item in chunk], None
    registry = Registry()
    with use_local_registry(registry), paused_gc():
        results = [fn(item) for item in chunk]
    return results, registry.snapshot()


def parallel_map(fn: Callable[[T], R], items: Iterable[T], *,
                 workers: int | None = 0, mode: str = "auto",
                 chunk_size: int | None = None,
                 collect_obs: bool | None = None,
                 supervision: Any = None) -> list[R]:
    """``[fn(item) for item in items]``, fanned out deterministically.

    Items are split into contiguous chunks, chunks execute on a
    ``ProcessPoolExecutor`` (or threads — see ``mode``), and the results
    are reassembled in chunk order, so output is byte-identical to the
    serial loop regardless of worker count.

    Args:
        fn: the work function.  For process mode it must pickle (a
            module-level function, or a bound method of a picklable
            object); ``"auto"`` mode silently degrades to threads when it
            does not.
        items: the work items, fully materialized before dispatch.
        workers: worker count; ``0`` auto-detects usable CPUs, ``None``
            or ``1`` short-circuits to a serial loop.
        mode: ``"auto"`` | ``"process"`` | ``"thread"`` | ``"serial"``.
        chunk_size: items per chunk (default: enough chunks for
            :data:`CHUNKS_PER_WORKER` per worker).
        collect_obs: force per-chunk registry capture on/off; default
            follows whether the ambient registry is enabled.
        supervision: optional
            :class:`~repro.parallel.supervisor.RetryPolicy`; when given,
            chunks run under the fault-tolerant supervisor — per-chunk
            deadlines, retry with backoff, pool respawn on worker crash,
            and the policy's degradation path when retries are exhausted.
            Under ``on_failure="skip"`` the items of an unrecoverable
            chunk are *omitted* from the result; callers that must map
            results back to items should use
            :func:`~repro.parallel.supervisor.supervised_map` directly.

    Raises:
        ConfigurationError: invalid workers / mode / chunk_size.
        ExecutionError: a chunk exhausted its retries under
            ``supervision`` with ``on_failure="raise"``.
    """
    if supervision is not None:
        from repro.parallel.supervisor import supervised_map
        return supervised_map(fn, items, workers=workers, mode=mode,
                              chunk_size=chunk_size,
                              collect_obs=collect_obs,
                              policy=supervision).results
    items = list(items)
    probe = (fn, items[0]) if items else (fn,)
    plan = plan_execution(len(items), workers, mode, chunk_size, probe)
    parent = get_registry()
    if plan.mode == "serial":
        return [fn(item) for item in items]
    collect = parent.enabled if collect_obs is None else collect_obs

    chunks = [items[offset:offset + plan.chunk_size]
              for offset in range(0, len(items), plan.chunk_size)]
    payloads = [(fn, chunk, collect, index, 0)
                for index, chunk in enumerate(chunks)]
    pool_workers = min(plan.workers, len(chunks))

    outputs: list[tuple[list[R], dict[str, Any] | None]] | None = None
    if plan.mode == "process":
        try:
            outputs = _map_in_processes(payloads, pool_workers)
        except _PoolUnavailable:
            if mode == "process":
                raise ConfigurationError(
                    "process pool unavailable on this platform; use "
                    "mode='thread' or mode='auto'") from None
            outputs = None
    if outputs is None:
        outputs = _map_in_threads(payloads, pool_workers)

    results: list[R] = []
    for chunk_results, snapshot in outputs:
        results.extend(chunk_results)
        if snapshot is not None:
            parent.merge_snapshot(snapshot)
    return results


class _PoolUnavailable(Exception):
    """Internal: the process pool could not be brought up at all."""


def _map_in_processes(payloads: list, pool_workers: int) -> list:
    """Run chunk payloads on a process pool (order-preserving).

    Environmental failures — a sandbox without ``/dev/shm`` semaphores, a
    missing ``fork``/``spawn`` — surface as :class:`_PoolUnavailable` so
    the caller can fall back; exceptions raised by the work function
    itself propagate untouched.  Every error path shuts the executor down
    with ``cancel_futures=True`` so a failing chunk raises immediately
    instead of blocking on straggler chunks that are now pointless.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        pool = ProcessPoolExecutor(max_workers=pool_workers)
    except (OSError, ImportError, NotImplementedError,
            PermissionError) as error:
        raise _PoolUnavailable(str(error)) from error
    try:
        futures = [pool.submit(_run_chunk, payload) for payload in payloads]
        results = [future.result() for future in futures]
    except BrokenProcessPool as error:
        pool.shutdown(wait=False, cancel_futures=True)
        raise _PoolUnavailable(str(error)) from error
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results


def _map_in_threads(payloads: list, pool_workers: int) -> list:
    """Run chunk payloads on a thread pool (order-preserving).

    Pure-Python work gains no wall-clock speedup under the GIL; this path
    exists as the always-available fallback with identical semantics
    (per-chunk registries are thread-local, so obs capture stays exact).
    As with the process path, error paths cancel queued chunks so the
    first failure propagates without draining the whole backlog.
    """
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=pool_workers)
    try:
        futures = [pool.submit(_run_chunk, payload) for payload in payloads]
        results = [future.result() for future in futures]
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results
