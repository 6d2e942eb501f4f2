"""Counter pins: ``repro bench-diff`` checks the bench sidecars exactly.

``pytest benchmarks/ --emit-metrics`` leaves one snapshot sidecar per
bench module in ``benchmarks/results/*.metrics.json``, and records in
each the **workload** that produced it: the ``benchmarks/_bench_utils``
knobs ``quick``, ``agents`` and ``seed``.  At a fixed workload the
simulator and every pipeline are deterministic, so each sidecar counter
(requests fed, Phase-2 extensions, AMP paths, ...) is an exact function
of the code.  ``BENCH_BASELINE.json`` pins them, one pin set per
workload; :func:`compare_to_baseline` picks the pin set of the sidecars'
workload and fails on any pinned counter that changed or went missing.
A bench or counter without a pin is not checked.

Timings are not compared: the end-to-end bounds in ``BENCHMARK.json``
are the one timing gate.
"""

from __future__ import annotations

import json
import os
from glob import glob
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = [
    "load_sidecars",
    "record_pins",
    "compare_to_baseline",
    "BaselineReport",
]

BASELINE_VERSION = 2

#: counters that depend on the process schedule, not on the workload,
#: and are never pinned: a respawned shard replays the events since the
#: last ACK its coordinator saw before the kill.
UNPINNED = frozenset({"sharded.events.replayed"})


def load_sidecars(results_dir: str) -> dict[str, dict[str, Any]]:
    """Load every ``*.metrics.json`` sidecar: ``{bench_name: snapshot}``.

    The bench name is the filename stem (``bench_streaming`` for
    ``bench_streaming.metrics.json``).

    Raises:
        ConfigurationError: when the directory holds no sidecars, or a
            sidecar is not a version-1 snapshot document.
    """
    paths = sorted(glob(os.path.join(results_dir, "*.metrics.json")))
    if not paths:
        raise ConfigurationError(
            f"no *.metrics.json sidecars in {results_dir!r}; run "
            f"pytest benchmarks/ --emit-metrics first")
    sidecars: dict[str, dict[str, Any]] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                snapshot = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"sidecar {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(snapshot, dict) or snapshot.get("version") != 1:
            raise ConfigurationError(
                f"sidecar {path!r} is not a version-1 snapshot document")
        name = os.path.basename(path)[:-len(".metrics.json")]
        sidecars[name] = snapshot
    return sidecars


def _workload(sidecars: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """The one workload every sidecar records."""
    workloads = [snapshot.get("workload") for snapshot in sidecars.values()]
    workload = workloads[0]
    if any(other != workload for other in workloads):
        seen = sorted({json.dumps(other, sort_keys=True)
                       for other in workloads})
        raise ConfigurationError(
            f"the sidecars record different workloads: {', '.join(seen)}")
    if not isinstance(workload, dict):
        raise ConfigurationError(
            "the sidecars record no workload; re-run the benches with "
            "--emit-metrics")
    return workload


def _label(workload: dict[str, Any]) -> str:
    return " ".join(f"{key}={json.dumps(value)}"
                    for key, value in sorted(workload.items()))


def _pins(snapshot: dict[str, Any]) -> dict[str, int]:
    return {name: value
            for name, value in sorted(snapshot.get("counters", {}).items())
            if name not in UNPINNED}


def _pin_sets(baseline: dict[str, Any]) -> list[dict[str, Any]]:
    if baseline.get("version") != BASELINE_VERSION:
        raise ConfigurationError(
            f"baseline document version {baseline.get('version')!r} is "
            f"not {BASELINE_VERSION}")
    return baseline.get("pins", [])


def record_pins(sidecars: dict[str, dict[str, Any]],
                baseline: dict[str, Any] | None = None) -> dict[str, Any]:
    """Baseline document with the sidecars' workload (re)pinned.

    Pin sets of other workloads in ``baseline`` are kept as they are.
    """
    workload = _workload(sidecars)
    kept = _pin_sets(baseline) if baseline is not None else []
    pins = [entry for entry in kept if entry["workload"] != workload]
    pins.append({"workload": workload,
                 "benches": {name: _pins(snapshot)
                             for name, snapshot in sorted(sidecars.items())}})
    pins.sort(key=lambda entry: _label(entry["workload"]))
    return {"version": BASELINE_VERSION, "pins": pins}


class BaselineReport:
    """Outcome of comparing fresh sidecars against their pin set.

    ``rows`` are ``(bench, counter, status, detail)`` with status
    ``ok``, ``CHANGED`` or ``MISSING``; :attr:`ok` is False (``repro
    bench-diff`` exits 1) when any row is not ``ok``.
    """

    def __init__(self, rows: list[tuple[str, str, str, str]],
                 workload: dict[str, Any]) -> None:
        self.rows = rows
        self.workload = workload

    @property
    def failures(self) -> list[tuple[str, str, str, str]]:
        return [row for row in self.rows if row[2] != "ok"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready report (``repro bench-diff --json``)."""
        return {"version": BASELINE_VERSION, "ok": self.ok,
                "workload": self.workload,
                "failing": len(self.failures),
                "rows": [{"bench": bench, "counter": counter,
                          "status": status, "detail": detail}
                         for bench, counter, status, detail in self.rows]}

    def render(self, verbose: bool = False) -> str:
        """Human-readable diff; ``ok`` rows elided unless verbose."""
        lines = [f"bench-diff: {len(self.rows)} pinned counters, "
                 f"workload {_label(self.workload)}"]
        for bench, counter, status, detail in self.rows:
            if verbose or status != "ok":
                lines.append(f"  {status:<8} {bench}: {counter} {detail}")
        if self.ok and not verbose:
            lines.append("  all pinned counters equal")
        lines.append(f"verdict: {'ok' if self.ok else 'CHANGED'} "
                     f"({len(self.failures)} failing)")
        return "\n".join(lines)


def compare_to_baseline(sidecars: dict[str, dict[str, Any]],
                        baseline: dict[str, Any]) -> BaselineReport:
    """Compare fresh sidecars' counters with their workload's pin set.

    A pinned bench with no fresh sidecar is ``MISSING`` (deleting a
    sidecar does not dodge the check); a sidecar or counter with no pin
    is not checked until recorded with ``repro bench-diff --update``.

    Raises:
        ConfigurationError: for a malformed baseline document, sidecars
            without one common workload, or a workload with no pin set.
    """
    workload = _workload(sidecars)
    pinned = next((entry["benches"] for entry in _pin_sets(baseline)
                   if entry["workload"] == workload), None)
    if pinned is None:
        raise ConfigurationError(
            f"no pin set for workload {_label(workload)}; record one with "
            f"repro bench-diff --update")
    rows: list[tuple[str, str, str, str]] = []
    for bench, pins in sorted(pinned.items()):
        if bench not in sidecars:
            rows.append((bench, "*", "MISSING", "pinned bench has no "
                                                "sidecar"))
            continue
        counters = sidecars[bench].get("counters", {})
        for counter, old in sorted(pins.items()):
            new = counters.get(counter)
            status = ("ok" if new == old else
                      "MISSING" if new is None else "CHANGED")
            rows.append((bench, counter, status,
                         f"{old} -> {'absent' if new is None else new}"))
    return BaselineReport(rows, workload)
