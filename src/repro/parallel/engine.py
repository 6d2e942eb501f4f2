"""The primitives under the library's one parallel entry point.

The unit of parallel work is a sweep point
(:func:`repro.evaluation.harness.sweep`): one simulated population with
every heuristic scored on it, coarse enough to pay for a process pool.
Finer units — one user's reconstruction, one heuristic's scoring, one
agent's simulation — lose to the serial loop at every core count,
because pickling their inputs and results costs more than the work.

Every sweep point runs through
:func:`repro.parallel.supervisor.supervised_map`; this module holds what
that map builds on: the worker-count knob (:func:`resolve_workers`),
the GC pause (:func:`paused_gc`) and the chunk body (:func:`_run_chunk`)
that executes in a pool worker or in-process.
"""

from __future__ import annotations

import gc
import os
from collections.abc import Callable
from contextlib import contextmanager
from typing import Any

from repro.exceptions import ConfigurationError
from repro.obs import Registry, use_local_registry

__all__ = [
    "CHUNKS_PER_WORKER",
    "available_cpus",
    "resolve_workers",
    "paused_gc",
]

#: target chunks per worker when the caller names no chunk size: >1 so a
#: slow chunk doesn't serialize the tail, small enough that per-chunk
#: dispatch cost stays negligible.
CHUNKS_PER_WORKER = 4


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
                              int, int], tracer: Any = None
               ) -> tuple[list[Any], dict[str, Any] | None]:
    """Execute one chunk; module-level so it pickles into worker processes.

    The payload is ``(fn, items, collect, chunk_index, attempt)`` —
    the index and attempt exist for the execution-fault hook
    (:func:`repro.faults.execution.inject_chunk_faults`), which lets tests
    crash, hang or slow a specific chunk attempt deterministically.  The
    hook only ever fires inside pool worker processes.

    When obs collection is requested, the chunk runs under a private
    thread-local registry and returns its snapshot alongside the results.
    That registry carries ``tracer``: an in-process caller passes the
    parent's, so spans the work records land in the parent's trace; a
    pool worker gets none, because a tracer's sink never crosses the
    process boundary.  GC is paused per chunk — chunk results stay live
    until the chunk returns, so mid-chunk collections are pure overhead.
    """
    fn, chunk, collect, chunk_index, attempt = payload
    if os.environ.get(_EXEC_FAULTS_ENV):
        from repro.faults.execution import inject_chunk_faults
        inject_chunk_faults(chunk_index, attempt)
    if not collect:
        with paused_gc():
            return [fn(item) for item in chunk], None
    registry = Registry(tracer=tracer)
    with use_local_registry(registry), paused_gc():
        results = [fn(item) for item in chunk]
    return results, registry.snapshot()
