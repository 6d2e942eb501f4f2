"""Helpers shared by the benchmark modules.

Environment knobs:

* ``REPRO_BENCH_AGENTS`` — agents per sweep point (default 800; the paper
  uses 10,000 — set it for a full-scale run).
* ``REPRO_BENCH_SEED`` — base seed (default 0).
* ``REPRO_BENCH_QUICK`` — any non-empty value shrinks the perf benches to
  a correctness smoke (small workloads, no timing assertions) for CI.
"""

from __future__ import annotations

import json
import os
import pathlib

#: agents per sweep point (paper: 10,000).
BENCH_AGENTS = int(os.environ.get("REPRO_BENCH_AGENTS", "800"))
#: base seed for topology + simulation.
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
#: CI quick mode: correctness assertions only, timing claims skipped.
BENCH_QUICK = bool(os.environ.get("REPRO_BENCH_QUICK", ""))


def emit(results_dir: pathlib.Path, name: str, text: str,
         csv: str | None = None) -> None:
    """Print a result block and persist it under ``results_dir``."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text, encoding="utf-8")
    if csv is not None:
        (results_dir / f"{name}.csv").write_text(csv, encoding="utf-8")


def write_metrics_sidecar(results_dir: pathlib.Path, name: str,
                          registry) -> pathlib.Path:
    """Persist a registry snapshot as ``<name>.metrics.json``.

    The sidecar rides next to the usual text/CSV results so a benchmark
    run's internal counters (requests fed, sessions emitted, per-phase
    wall time) survive alongside its headline numbers.  It records the
    workload knobs, which pick the counter pins ``repro bench-diff``
    compares it with.
    """
    snapshot = registry.snapshot()
    snapshot["workload"] = {"agents": BENCH_AGENTS, "quick": BENCH_QUICK,
                            "seed": BENCH_SEED}
    path = results_dir / f"{name}.metrics.json"
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
