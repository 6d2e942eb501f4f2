"""repro.parallel — the one deterministic parallel map.

The library parallelises one unit of work: the sweep point
(:func:`repro.evaluation.harness.sweep`, ``repro sweep --workers N``).
Every sweep point, serial or parallel, checkpointed or not, runs
through one entry point, :func:`supervised_map`
(:mod:`repro.parallel.supervisor`).  Its contract is *byte-identical
output regardless of worker count*: contiguous chunks run on a process
pool or in-process, results come back in chunk order, and each chunk's
private metrics registry is merged back in that same order.

Around that map sit:

* :mod:`repro.parallel.supervisor` — chunk-level retry with backoff,
  progress deadlines, pool respawn after worker crashes, and structured
  degradation when a chunk cannot be recovered;
* :mod:`repro.parallel.checkpoint` — atomic, integrity-hashed
  checkpoints of completed work units so interrupted sweeps and
  simulations resume instead of restarting;
* :mod:`repro.parallel.engine` — the worker-count knob, the GC pause
  and the chunk body the map runs.

Quickstart::

    from repro.parallel import RetryPolicy, supervised_map

    # fan out a coarse, picklable work function, surviving worker crashes:
    outcome = supervised_map(run_point, values, workers=2,
                             policy=RetryPolicy(deadline=60.0))
    results = outcome.results
"""

from repro.parallel.checkpoint import (
    atomic_write_json,
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    DoctorReport,
)
from repro.parallel.engine import (
    CHUNKS_PER_WORKER,
    available_cpus,
    paused_gc,
    resolve_workers,
)
from repro.parallel.supervisor import (
    ChunkFailure,
    RetryPolicy,
    SupervisedMapResult,
    SupervisionStats,
    supervised_map,
)

__all__ = [
    "CHUNKS_PER_WORKER",
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "ChunkFailure",
    "DoctorReport",
    "RetryPolicy",
    "SupervisedMapResult",
    "SupervisionStats",
    "atomic_write_json",
    "available_cpus",
    "paused_gc",
    "resolve_workers",
    "supervised_map",
]
