"""repro.parallel — the deterministic fan-out execution engine.

The library parallelises one unit of work: the sweep point
(:func:`repro.evaluation.harness.sweep`, ``repro sweep --workers N``).
The contract is *byte-identical output regardless of worker count* —
see :mod:`repro.parallel.engine` for how chunked order-preserving
execution and per-worker metrics-registry merging deliver that.

On top of the engine sit the fault-tolerance layers:

* :mod:`repro.parallel.supervisor` — chunk-level retry with backoff,
  progress deadlines, pool respawn after worker crashes, and structured
  degradation when a chunk cannot be recovered;
* :mod:`repro.parallel.checkpoint` — atomic, integrity-hashed
  checkpoints of completed work units so interrupted sweeps and
  simulations resume instead of restarting.

Quickstart::

    from repro.parallel import RetryPolicy, parallel_map

    # fan out a coarse, picklable work function, surviving worker crashes:
    results = parallel_map(run_point, values, workers=2,
                           supervision=RetryPolicy(deadline=60.0))
"""

from repro.parallel.checkpoint import (
    atomic_write_json,
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    DoctorReport,
)
from repro.parallel.engine import (
    CHUNKS_PER_WORKER,
    ParallelPlan,
    available_cpus,
    parallel_map,
    paused_gc,
    plan_execution,
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
    "ParallelPlan",
    "RetryPolicy",
    "SupervisedMapResult",
    "SupervisionStats",
    "atomic_write_json",
    "available_cpus",
    "parallel_map",
    "paused_gc",
    "plan_execution",
    "resolve_workers",
    "supervised_map",
]
