"""repro.obs — unified metrics and tracing for the whole pipeline.

The observability layer the rest of the library is instrumented against:

* :mod:`repro.obs.registry` — a zero-dependency metrics registry
  (counters, gauges, fixed-bucket histograms, ``perf_counter`` timers)
  with Prometheus text exposition, deterministic JSON snapshots and a
  human-readable table rendering;
* :mod:`repro.obs.tracing` — span-based tracing emitting structured
  JSON-lines events.

The ambient registry (:func:`get_registry`) is process-global but
injectable, and **disabled by default**: instrumented code paths cost one
no-op method call until a caller opts in::

    from repro.obs import Registry, use_registry

    registry = Registry()
    with use_registry(registry):
        records = ingest_clf_file("access.log", policy="repair")
        sessions = SmartSRA(site).reconstruct(requests)
    print(registry.render_table())           # or .render_prometheus()
    json.dump(registry.snapshot(), open("metrics.json", "w"))

Every ``repro`` CLI subcommand exposes the same thing via ``--metrics
FILE`` and ``--trace FILE``; ``repro stats --snapshot FILE`` renders a
saved snapshot.  The metric catalog lives in ``docs/observability.md``.
"""

from repro.obs.registry import (
    NULL_REGISTRY,
    SIZE_BUCKETS,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    Timer,
    get_registry,
    merge_snapshots,
    series_name,
    snapshot_digest,
    set_registry,
    snapshot_to_prometheus,
    snapshot_to_table,
    split_series,
    use_local_registry,
    use_registry,
)
from repro.obs.baseline import (
    BaselineReport,
    compare_to_baseline,
    load_sidecars,
    record_pins,
)
from repro.obs.export import MetricsServer, health_report
from repro.obs.spans import (
    SpanNode,
    TraceReport,
    analyze_trace,
    build_span_forest,
    parse_trace,
)
from repro.obs.timeline import (
    ConfigAudit,
    TimelinePoint,
    TimelineSampler,
    audit_telemetry_config,
    histogram_quantile,
)
from repro.obs.tracing import ListSink, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Registry",
    "NULL_REGISTRY",
    "TIME_BUCKETS",
    "SIZE_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
    "use_local_registry",
    "merge_snapshots",
    "snapshot_digest",
    "series_name",
    "split_series",
    "snapshot_to_prometheus",
    "snapshot_to_table",
    "Tracer",
    "ListSink",
    "TimelineSampler",
    "TimelinePoint",
    "ConfigAudit",
    "audit_telemetry_config",
    "histogram_quantile",
    "MetricsServer",
    "health_report",
    "SpanNode",
    "TraceReport",
    "analyze_trace",
    "build_span_forest",
    "parse_trace",
    "BaselineReport",
    "compare_to_baseline",
    "load_sidecars",
    "record_pins",
]
