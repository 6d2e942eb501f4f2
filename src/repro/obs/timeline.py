"""Time-series sampling: the registry's history, not just its totals.

A :class:`Registry` answers "how many so far"; operating a long-running
stream needs "how fast *right now*" and "what did the last ten minutes
look like".  :class:`TimelineSampler` bridges the two without touching
the hot path: on a configurable interval (a daemon thread, or explicit
:meth:`~TimelineSampler.sample` calls from tests) it snapshots selected
counter/gauge values and histogram quantiles into a fixed-capacity ring
buffer.  The instrumented code never knows the sampler exists — cost is
one registry snapshot per tick, zero when no sampler is installed.

The ring holds :class:`TimelinePoint` rows (timestamp + sampled values);
:meth:`TimelineSampler.to_dict` exports it as deterministic JSON with
per-interval counter **deltas and rates** derived on the way out, so a
consumer sees ``governor.evicted_requests`` both as a running total and
as an evictions-per-second series.  Invariants the property tests pin:

* the ring never exceeds ``capacity`` points (old points are evicted and
  counted, never silently lost);
* timestamps are strictly increasing;
* for every counter series, the per-interval deltas over the retained
  window sum exactly to ``last - first`` — rates always reconcile with
  the totals they were derived from.

Example::

    registry = Registry()
    sampler = TimelineSampler(registry, interval=1.0, capacity=600)
    sampler.start()
    with use_registry(registry):
        run_the_stream()
    sampler.stop()
    json.dump(sampler.to_dict(), open("timeline.json", "w"))
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ConfigurationError
from repro.obs.registry import Registry

__all__ = [
    "TimelinePoint",
    "TimelineSampler",
    "histogram_quantile",
    "ConfigAudit",
    "audit_telemetry_config",
]

#: quantiles sampled from every selected histogram series.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

#: deterministic planning cost of one timeline point, bytes — a model
#: constant like ``governor.request_cost``, not ``sys.getsizeof``: the
#: doctor audit must reach the same verdict on every platform.
POINT_BASE_COST = 96
SERIES_COST = 48

#: sampling intervals below this are almost certainly a misconfiguration
#: (the snapshot lock would be contended harder than the work it
#: observes); ``repro doctor`` warns below it.
MIN_SANE_INTERVAL = 0.010


def histogram_quantile(data: dict[str, Any], quantile: float) -> float:
    """Estimate a quantile from a snapshot histogram document.

    Standard Prometheus-style estimation: find the bucket the target rank
    lands in and interpolate linearly inside it (the first bucket
    interpolates from 0, the overflow bucket returns the largest finite
    bound — the honest answer when the value escaped the buckets).
    Returns 0.0 for an empty histogram.

    Raises:
        ConfigurationError: for a quantile outside ``(0, 1)``.
    """
    if not 0 < quantile < 1:
        raise ConfigurationError(
            f"quantile must be in (0, 1), got {quantile}")
    total = data.get("count", 0)
    if not total:
        return 0.0
    rank = quantile * total
    running = 0
    previous_bound = 0.0
    for bound, count in data.get("buckets", ()):
        if count:
            if running + count >= rank:
                fraction = (rank - running) / count
                return previous_bound + (bound - previous_bound) * fraction
            running += count
        previous_bound = bound
    # rank lands in the +Inf overflow: report the last finite bound.
    buckets = data.get("buckets", ())
    return float(buckets[-1][0]) if buckets else 0.0


class TimelinePoint:
    """One sampled instant: timestamp plus the selected series values."""

    __slots__ = ("timestamp", "counters", "gauges", "quantiles")

    def __init__(self, timestamp: float, counters: dict[str, float],
                 gauges: dict[str, float],
                 quantiles: dict[str, dict[str, float]]) -> None:
        self.timestamp = timestamp
        self.counters = counters
        self.gauges = gauges
        self.quantiles = quantiles


class TimelineSampler:
    """Samples a registry into a bounded ring of timeline points.

    Args:
        registry: the :class:`Registry` to observe.
        interval: seconds between daemon-thread samples
            (:meth:`start`); irrelevant when driving :meth:`sample`
            manually.
        capacity: maximum retained points; the oldest point is evicted
            (and counted in :attr:`evicted`) when a new one arrives at
            capacity.
        prefixes: series-name prefixes to retain (e.g. ``("stream.",
            "governor.")``); ``None`` retains every series.  Histogram
            series matching a prefix contribute quantile samples.
        quantiles: quantiles sampled per histogram series.

    The sampler itself records two series into the observed registry —
    ``timeline.samples`` (ticks taken) and ``timeline.evicted`` (points
    displaced from the ring) — so the timeline is visible in the very
    exports it powers.

    Raises:
        ConfigurationError: for a non-positive interval or capacity, or
            an out-of-range quantile.
    """

    def __init__(self, registry: Registry, *, interval: float = 1.0,
                 capacity: int = 600,
                 prefixes: tuple[str, ...] | None = None,
                 quantiles: tuple[float, ...] = DEFAULT_QUANTILES) -> None:
        if interval <= 0:
            raise ConfigurationError(
                f"sampling interval must be positive, got {interval}")
        if capacity < 2:
            raise ConfigurationError(
                f"timeline capacity must be >= 2 (deltas need two "
                f"points), got {capacity}")
        for quantile in quantiles:
            if not 0 < quantile < 1:
                raise ConfigurationError(
                    f"quantile must be in (0, 1), got {quantile}")
        self.registry = registry
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.prefixes = tuple(prefixes) if prefixes is not None else None
        self.quantiles = tuple(quantiles)
        self._ring: deque[TimelinePoint] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._last_ts = float("-inf")
        self.evicted = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._m_samples = registry.counter("timeline.samples")
        self._m_evicted = registry.counter("timeline.evicted")

    # -- selection ---------------------------------------------------------

    def _selected(self, series: str) -> bool:
        if self.prefixes is None:
            return True
        return series.startswith(self.prefixes)

    # -- sampling ----------------------------------------------------------

    def sample(self, timestamp: float | None = None) -> TimelinePoint:
        """Take one sample; returns the appended point.

        Args:
            timestamp: explicit sample time (tests); defaults to
                ``time.time()``.  Must exceed the previous point's
                timestamp — the ring's timestamps are strictly
                increasing by construction.

        Raises:
            ConfigurationError: for a timestamp that does not advance.
        """
        now = time.time() if timestamp is None else float(timestamp)
        snapshot = self.registry.snapshot()
        counters = {series: value
                    for series, value in snapshot["counters"].items()
                    if self._selected(series)}
        gauges = {series: value
                  for series, value in snapshot["gauges"].items()
                  if self._selected(series)}
        quantiles = {
            series: {f"p{quantile * 100:g}":
                     histogram_quantile(data, quantile)
                     for quantile in self.quantiles}
            for series, data in snapshot["histograms"].items()
            if self._selected(series)}
        point = TimelinePoint(now, counters, gauges, quantiles)
        with self._lock:
            if now <= self._last_ts:
                raise ConfigurationError(
                    f"timeline sample at t={now} does not advance past "
                    f"the previous point at t={self._last_ts}")
            self._last_ts = now
            if len(self._ring) == self.capacity:
                self.evicted += 1
                self._m_evicted.inc()
            self._ring.append(point)
        self._m_samples.inc()
        return point

    # -- the daemon thread -------------------------------------------------

    def start(self) -> "TimelineSampler":
        """Begin sampling every ``interval`` seconds on a daemon thread."""
        if self._thread is not None:
            return self
        self._stop.clear()

        def run() -> None:
            while not self._stop.wait(self.interval):
                try:
                    self.sample()
                except ConfigurationError:
                    # a clock step backwards (NTP) makes one tick
                    # unrecordable; the next tick resumes normally.
                    continue

        self._thread = threading.Thread(target=run, name="repro-timeline",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the daemon thread (no-op when never started)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    # -- export ------------------------------------------------------------

    def points(self) -> list[TimelinePoint]:
        """The retained points, oldest first (a consistent copy)."""
        with self._lock:
            return list(self._ring)

    def to_dict(self) -> dict[str, Any]:
        """The ring as sorted, JSON-serializable plain data.

        Layout (stable and versioned)::

            {"version": 1, "capacity": C, "evicted": E,
             "interval_seconds": I,
             "timestamps": [t0, t1, ...],
             "counters":  {series: [v0, v1, ...], ...},
             "gauges":    {series: [v0, v1, ...], ...},
             "quantiles": {series: {"p50": [...], ...}, ...},
             "deltas":    {series: [v1-v0, ...], ...},
             "rates":     {series: [(v1-v0)/(t1-t0), ...], ...}}

        A series absent at some points (created mid-run) reads 0 before
        its first appearance, so every value list has one entry per
        timestamp and every delta list exactly one fewer.
        """
        points = self.points()
        timestamps = [point.timestamp for point in points]
        counter_names = sorted({series for point in points
                                for series in point.counters})
        gauge_names = sorted({series for point in points
                              for series in point.gauges})
        quantile_names = sorted({series for point in points
                                 for series in point.quantiles})
        counters = {series: [point.counters.get(series, 0)
                             for point in points]
                    for series in counter_names}
        gauges = {series: [point.gauges.get(series, 0)
                           for point in points]
                  for series in gauge_names}
        quantiles: dict[str, dict[str, list[float]]] = {}
        for series in quantile_names:
            labels = sorted({label for point in points
                             for label in point.quantiles.get(series, ())})
            quantiles[series] = {
                label: [point.quantiles.get(series, {}).get(label, 0.0)
                        for point in points]
                for label in labels}
        deltas = {series: [values[i + 1] - values[i]
                           for i in range(len(values) - 1)]
                  for series, values in counters.items()}
        rates = {}
        for series, series_deltas in deltas.items():
            rates[series] = [
                series_deltas[i] / (timestamps[i + 1] - timestamps[i])
                for i in range(len(series_deltas))]
        return {"version": 1, "capacity": self.capacity,
                "evicted": self.evicted,
                "interval_seconds": self.interval,
                "timestamps": timestamps,
                "counters": counters, "gauges": gauges,
                "quantiles": quantiles,
                "deltas": deltas, "rates": rates}


# -- configuration audit (repro doctor) -------------------------------------


@dataclass(frozen=True, slots=True)
class ConfigAudit:
    """Outcome of auditing a configuration (``repro doctor``).

    The overload, sharded, AMP and telemetry audits all return one.

    Attributes:
        title: the header line naming the audited configuration.
        settings: the audited settings, leading keys of :meth:`to_dict`.
        checks: ``(level, message)`` conclusions; levels are ``"ok"``,
            ``"warn"`` and ``"FAIL"``.
    """

    title: str
    settings: dict[str, Any]
    checks: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        """True when no check failed (warnings are advisory)."""
        return all(level != "FAIL" for level, _ in self.checks)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (``repro doctor --json``)."""
        return {**self.settings,
                "checks": [{"level": level, "message": message}
                           for level, message in self.checks],
                "ok": self.ok}

    def render(self) -> str:
        """Human-readable audit, one conclusion per line."""
        lines = [self.title]
        for level, message in self.checks:
            lines.append(f"  {level:<4}  {message}")
        lines.append(f"  verdict: {'ok' if self.ok else 'DEGRADED'}")
        return "\n".join(lines)


def estimate_timeline_bytes(capacity: int, series: int = 24) -> int:
    """Deterministic planning estimate of a full ring's memory, bytes."""
    return capacity * (POINT_BASE_COST + series * SERIES_COST)


def audit_telemetry_config(*, interval: float | None = None,
                           capacity: int | None = None,
                           port: int | None = None,
                           memory_budget: int | None = None,
                           typical_series: int = 24) -> ConfigAudit:
    """Audit a live-telemetry configuration for operational sanity.

    Catches the legal-but-degenerate setups: a sampling interval so short
    the snapshot lock fights the pipeline it watches, a ``--serve-metrics``
    port that needs root, a timeline ring whose full size would dwarf the
    streaming governor's own memory budget.

    Args:
        interval: ``--timeline-interval`` seconds (``None`` = unaudited).
        capacity: ``--timeline-capacity`` points.
        port: ``--serve-metrics`` port.
        memory_budget: the governor's byte budget when one is configured
            alongside; the timeline ring should be small next to it.
        typical_series: planning estimate of series retained per point.
    """
    checks: list[tuple[str, str]] = []
    if interval is not None:
        if interval <= 0:
            checks.append(("FAIL", f"sampling interval {interval:g}s is "
                                   f"not positive"))
        elif interval < MIN_SANE_INTERVAL:
            checks.append(
                ("warn", f"sampling interval {interval:g}s is below "
                         f"{MIN_SANE_INTERVAL:g}s; each tick snapshots "
                         f"the whole registry under its lock — expect "
                         f"measurable hot-path contention"))
        else:
            checks.append(("ok", f"sampling interval {interval:g}s"))
    if port is not None:
        if not 0 <= port <= 65535:
            checks.append(("FAIL", f"serve-metrics port {port} is outside "
                                   f"0-65535"))
        elif 0 < port < 1024:
            checks.append(
                ("warn", f"serve-metrics port {port} is privileged "
                         f"(< 1024); binding requires elevated rights — "
                         f"use a port >= 1024"))
        else:
            checks.append(("ok", f"serve-metrics port {port}"))
    if capacity is not None:
        ring_bytes = estimate_timeline_bytes(capacity, typical_series)
        if memory_budget is not None and ring_bytes > memory_budget:
            checks.append(
                ("warn", f"timeline capacity {capacity} retains "
                         f"~{ring_bytes}B (at ~{typical_series} series), "
                         f"over the governor's {memory_budget}B budget — "
                         f"the telemetry would outweigh the state it "
                         f"watches; lower the capacity or widen the "
                         f"interval"))
        else:
            checks.append(
                ("ok", f"timeline capacity {capacity} retains "
                       f"~{ring_bytes}B (at ~{typical_series} series)"))
    if not checks:
        checks.append(("ok", "nothing to audit (no telemetry flags given)"))
    return ConfigAudit("telemetry configuration:", {}, checks)
