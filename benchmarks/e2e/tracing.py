"""Traced runs: spans recorded from outside, around public library calls.

Only the traced child process installs hooks.  Each hook names its target
as ``(module, attribute path)`` and is resolved by name at install time;
it rebinds the module or class attribute the caller resolves, so the
library itself is untouched.  A target that no longer exists (a renamed
function, a method that moved) is reported as a missing layer — its
metrics come out ``null`` — and the run goes on without it.

Per-call spans are aggregated in memory by call path: one node per
``(parent node, layer)`` with its summed duration and a ``calls`` count.
Durations are kept in integer nanoseconds while recording, so a layer's
self time (its total minus its children's totals) is exact.  They are
written as spans of the :mod:`repro.obs.tracing` JSON-lines schema and
analyzed with :mod:`repro.obs.spans`, like any trace ``repro trace
analyze`` reads.
"""

from __future__ import annotations

import functools
import importlib
import time

from repro.obs.spans import build_span_forest

import paths as e2e_paths
from calibration import calibrate
from replica import REPLICA_LAYERS, replay_shards

#: hook kinds: a plain call, or a function returning an iterator whose
#: every ``next()`` is one call of the layer.
CALL = "call"
ITER = "iter"

_READER = "repro.logs.reader"
_COMMON_HEAD = (("ingest", _READER, "iter_clf_lines", ITER),
                ("reader", _READER, "iter_requests", ITER))
_EMIT = ("emit", "repro.sessions.model", "SessionSet.save", CALL)


def _streaming(module: str, cls: str):
    return _COMMON_HEAD + (
        ("feed", module, f"{cls}.feed", CALL),
        ("finish", "repro.streaming.pipeline", "maximal_sessions_fast", CALL),
        ("flush", module, f"{cls}.flush", CALL),
        _EMIT)


_SHARDED = _COMMON_HEAD + (
    ("coord_wait", "repro.streaming.sharded", "ShardedStreamingRuntime.run",
     CALL),
    _EMIT)

#: path -> ``(layer, module, attribute path, kind)`` hooks.
HOOKS = {
    "batch_object": _COMMON_HEAD + (
        ("partition", "repro.core.smart_sra", "SmartSRA.reconstruct", CALL),
        ("phase1", "repro.core.smart_sra", "split_candidates", CALL),
        ("phase2", "repro.core.smart_sra", "maximal_sessions_fast", CALL),
        _EMIT),
    "batch_columnar": _COMMON_HEAD + (
        ("partition", "repro.core.smart_sra", "SmartSRA.reconstruct", CALL),
        ("columns", "repro.core.columnar", "ColumnBatch.from_user_requests",
         CALL),
        ("plane", "repro.core.columnar", "ColumnarPlane.run_batch", CALL),
        ("materialize", "repro.core.columnar", "materialize_sessions", CALL),
        _EMIT),
    "stream": _streaming("repro.streaming.pipeline",
                         "StreamingReconstructor"),
    "governed": _streaming("repro.streaming.governor",
                           "GovernedStreamingReconstructor"),
    "sharded1": _SHARDED,
    "sharded2": _SHARDED,
}

#: path -> extra per-layer values that are counts, not times: (name, unit).
COUNTS = {
    "batch_object": (("phase1.candidates", "count"),
                     ("phase2.sessions", "count")),
    "batch_columnar": (),
    "stream": (("mean_candidate_len", "requests"),),
    "governed": (("mean_candidate_len", "requests"), ("evictions", "count"),
                 ("evicted_requests", "count"),
                 ("quarantined_users", "count"),
                 ("peak_tracked_bytes", "B")),
    "sharded1": (("events_routed", "count"), ("sessions_sealed", "count"),
                 ("capsule_bytes_per_rec", "B/rec"),
                 ("out_bytes_per_rec", "B/rec"),
                 ("evt_bytes_per_rec", "B/rec")),
}
COUNTS["sharded2"] = COUNTS["sharded1"]


def layers(path: str) -> tuple[str, ...]:
    """The timed layers reported for ``path``, in pipeline order."""
    names = tuple(hook[0] for hook in HOOKS[path])
    return names + REPLICA_LAYERS if path in e2e_paths.SHARDS else names


def per_layer_catalog() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``."""
    catalog = []
    for path in e2e_paths.PATHS:
        for layer in layers(path) + ("other",):
            catalog.append((f"{path}.{layer}.us_per_rec", "us/rec"))
        catalog.extend((f"{path}.{name}", unit) for name, unit in COUNTS[path])
        catalog.append((f"{path}.peak_rss_mb", "MB"))
        catalog.append((f"{path}.trace_overhead_frac", "frac"))
    return catalog


# ---------------------------------------------------------------------------
# recording


class _Node:
    __slots__ = ("name", "children", "ns", "calls", "ts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: dict[str, _Node] = {}
        self.ns = 0
        self.calls = 0
        self.ts = time.time()


class _Span:
    __slots__ = ("_recorder", "_name")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        self._recorder.enter(self._name)

    def __exit__(self, *exc_info: object) -> None:
        self._recorder.exit()


def _dyadic_seconds(ns: int) -> float:
    # a multiple of 2**-32 s: sums and differences of such values are
    # exact in a double, so exclusive times telescope to the root's
    # inclusive time with ``==`` after the round trip through floats.
    return ((ns << 32) + 500_000_000) // 1_000_000_000 / (1 << 32)


class SpanRecorder:
    """Aggregating in-memory span recorder (single-threaded)."""

    def __init__(self) -> None:
        self._top: dict[str, _Node] = {}
        self._stack: list[tuple[_Node, int]] = []

    def enter(self, name: str) -> None:
        stack = self._stack
        siblings = stack[-1][0].children if stack else self._top
        node = siblings.get(name)
        if node is None:
            node = siblings[name] = _Node(name)
        stack.append((node, time.perf_counter_ns()))

    def exit(self) -> None:
        end = time.perf_counter_ns()
        node, start = self._stack.pop()
        node.ns += end - start
        node.calls += 1

    def span(self, name: str) -> _Span:
        """A context manager recording one call of ``name``."""
        return _Span(self, name)

    def wrap(self, function, name: str, kind: str):
        """``function`` with each call (or each ``next()``) recorded."""
        if kind == ITER:
            @functools.wraps(function)
            def traced_iter(*args, **kwargs):
                return self._iterate(name, function(*args, **kwargs))
            return traced_iter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.exit()
        return traced

    def _iterate(self, name: str, iterable):
        iterator = iter(iterable)
        while True:
            self.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.exit()
            yield item

    def records(self) -> list[dict]:
        """The recorded nodes as ``repro.obs.tracing`` span records."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        records: list[dict] = []

        def visit(node: _Node, parent: int | None) -> None:
            span_id = len(records) + 1
            records.append({"type": "span", "name": node.name, "id": span_id,
                            "parent": parent, "ts": node.ts,
                            "dur_s": _dyadic_seconds(node.ns),
                            "attrs": {"calls": node.calls}})
            for child in node.children.values():
                visit(child, span_id)

        for root in self._top.values():
            visit(root, None)
        return records


# ---------------------------------------------------------------------------
# hooks


def _resolve(module_name: str, attribute: str):
    """``(owner, name)`` of ``module:attribute``, or ``None`` if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = attribute.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    return (owner, name) if hasattr(owner, name) else None


def install(recorder: SpanRecorder, hooks):
    """Install ``hooks``; returns ``(restore, missing layer names)``."""
    undo = []
    missing = []
    for layer, module_name, attribute, kind in hooks:
        target = _resolve(module_name, attribute)
        if target is None:
            missing.append(layer)
            continue
        owner, name = target
        raw = vars(owner).get(name) if isinstance(owner, type) else None
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(recorder.wrap(raw.__func__, layer, kind))
        else:
            replacement = recorder.wrap(getattr(owner, name), layer, kind)
        undo.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def restore() -> None:
        for owner, name, original in reversed(undo):
            if original is None:     # was inherited: uncover the base
                delattr(owner, name)
            else:
                setattr(owner, name, original)
    return restore, missing


def traced_measure(path: str, workload, oracle: dict, topology_path: str,
                   log_path: str, out_path: str, hooks=None,
                   verified: dict | None = None) -> dict:
    """One traced rep of ``path`` (the body of the traced child).

    ``hooks`` replaces the path's :data:`HOOKS` entry.  Sharded paths are
    followed by the in-process shard replica, whose digest must equal the
    real run's.
    """
    recorder = SpanRecorder()
    restore, missing = install(
        recorder, HOOKS[path] if hooks is None else hooks)
    try:
        result = e2e_paths.measure(path, workload, oracle, topology_path,
                                   log_path, out_path,
                                   root=recorder.span(path),
                                   verified=verified)
    finally:
        restore()
    replica = None
    if path in e2e_paths.SHARDS:
        replica = replay_shards(
            recorder, f"{path}.replica", e2e_paths.SHARDS[path],
            e2e_paths.ACK_INTERVAL, workload.governor(), topology_path,
            log_path)
        if replica is None:
            missing.extend(REPLICA_LAYERS)
        else:
            if not replica["capsules"]:
                missing.append("capsule")
            if replica["digest"] != result["digest"]:
                result["problems"].append(
                    f"replica digest {replica['digest'][:12]} != real run "
                    f"{result['digest'][:12]}")
    return {"result": result, "records": recorder.records(),
            "missing": sorted(set(missing)), "replica": replica}


# ---------------------------------------------------------------------------
# analysis


def exclusive_by_root(records: list[dict]) -> dict[str, dict]:
    """Per root span: inclusive seconds, summed self time per layer, and
    summed calls per layer.

    Raises:
        RuntimeError: when a root's exclusive times do not add up to its
            inclusive time exactly.
    """
    analysis = {}
    for root in build_span_forest(records):
        nodes = list(root.walk())
        total = sum(node.exclusive for node in nodes)
        if total != root.dur_s:
            raise RuntimeError(
                f"{root.name}: exclusive sum {total!r} != root inclusive "
                f"{root.dur_s!r}")
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for node in nodes[1:]:
            self_s[node.name] = self_s.get(node.name, 0.0) + node.exclusive
            calls[node.name] = (calls.get(node.name, 0)
                                + node.attrs.get("calls", 0))
        analysis[root.name] = {"inclusive_s": root.dur_s,
                               "other_s": root.exclusive,
                               "self_s": self_s, "calls": calls}
    return analysis


def per_layer_values(path: str, traced: dict, lines: int,
                     untraced_wall_s: float | None,
                     peak_rss: float | None) -> dict[str, float | None]:
    """The per-layer metric values of one traced rep of ``path``.

    Times are calibrated by the traced rep's own reference pass
    (``calibration.calibrate``), like the end-to-end metrics.
    ``untraced_wall_s`` is the untraced reps' median calibrated wall time,
    which ``trace_overhead_frac`` compares the traced root against.
    """
    reference_s = traced["result"]["reference_s"]

    def us_per_rec(seconds: float) -> float:
        return calibrate(seconds, reference_s) * 1e6 / lines

    analysis = exclusive_by_root(traced["records"])
    missing = set(traced["missing"])
    main = analysis[path]
    replica = analysis.get(f"{path}.replica")
    values: dict[str, float | None] = {}
    for layer in layers(path):
        source = replica if layer in REPLICA_LAYERS else main
        if layer in missing or source is None:
            values[f"{path}.{layer}.us_per_rec"] = None
        else:
            values[f"{path}.{layer}.us_per_rec"] = us_per_rec(
                source["self_s"].get(layer, 0.0))
    values[f"{path}.other.us_per_rec"] = us_per_rec(main["other_s"])
    stats = traced["result"]["stats"]
    finish_calls = main["calls"].get("finish")
    if path == "batch_object":
        values[f"{path}.phase1.candidates"] = (
            None if "phase2" in missing else main["calls"].get("phase2", 0))
        values[f"{path}.phase2.sessions"] = traced["result"]["sessions"]
    elif path in ("stream", "governed"):
        finished = stats["closed_requests"] + stats.get("evicted_requests", 0)
        values[f"{path}.mean_candidate_len"] = (
            finished / finish_calls if finish_calls else None)
        if path == "governed":
            for name in ("evictions", "evicted_requests",
                         "quarantined_users", "peak_tracked_bytes"):
                values[f"{path}.{name}"] = stats[name]
    elif path in e2e_paths.SHARDS:
        values[f"{path}.events_routed"] = stats["routed"]
        values[f"{path}.sessions_sealed"] = stats["sealed_sessions"]
        sizes = traced["replica"]["bytes"] if traced["replica"] else None
        for kind in ("capsule", "out", "evt"):
            values[f"{path}.{kind}_bytes_per_rec"] = (
                None if sizes is None or (kind == "capsule" and
                                          "capsule" in missing)
                else sizes[kind] / lines)
    values[f"{path}.peak_rss_mb"] = peak_rss
    traced_wall_s = calibrate(main["inclusive_s"], reference_s)
    values[f"{path}.trace_overhead_frac"] = (
        traced_wall_s / untraced_wall_s - 1.0 if untraced_wall_s else None)
    return values
