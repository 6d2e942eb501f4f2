"""The six measured execution paths, each from ``open(log)`` to a saved
sessions file, plus the correctness gate applied after the timer stops.

Every library call goes through the module or class attribute a caller
would resolve (``reader.iter_clf_lines``, ``SessionSet.save``, ...), so a
traced run can rebind those attributes without touching this code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
import statistics
import time
from contextlib import nullcontext

import repro.logs.reader as reader
from repro.core import SmartSRA
from repro.diffcheck import verify_sessions
from repro.sessions.model import SessionSet
from repro.streaming import streaming_smart_sra
from repro.streaming.sharded import ShardedConfig, ShardedStreamingRuntime
from repro.topology.io import load_graph

from calibration import reference_seconds
from workloads import FLUSH_INTERVAL, Workload

PATHS = ("batch_object", "batch_columnar", "stream", "governed",
         "sharded1", "sharded2")

#: events between a shard worker's capsule ACKs.
ACK_INTERVAL = 64

#: shard count of each sharded path (never above the 2 visible CPUs).
SHARDS = {"sharded1": 1, "sharded2": 2}

#: constructions timed per run; ``setup_s`` is their median, which keeps
#: first-call effects (lazy imports, cold allocator) out of the figure.
SETUP_REPEATS = 3


def setup(path: str, workload: Workload, topology_path: str):
    """``load_graph`` plus the path's reconstructor, pipeline or runtime."""
    topology = load_graph(topology_path)
    if path in ("batch_object", "batch_columnar"):
        return SmartSRA(topology)
    if path == "stream":
        return streaming_smart_sra(topology)
    if path == "governed":
        return streaming_smart_sra(topology, governor=workload.governor())
    return ShardedStreamingRuntime(
        topology, sharded=ShardedConfig(shards=SHARDS[path],
                                        ack_interval=ACK_INTERVAL),
        governor=workload.governor())


def _run_batch(reconstructor, log_path: str, out_path: str, engine: str):
    records = reader.read_clf_file(log_path)
    requests = reader.records_to_requests(records)
    sessions = reconstructor.reconstruct(requests, engine=engine)
    sessions.save(out_path)
    return None


def _run_stream(pipeline, log_path: str, out_path: str):
    # the ``repro stream --flush-every 600`` loop: a watermark flush each
    # time event time crosses the next 600 s boundary.
    sessions = []
    next_watermark = None
    with open(log_path, encoding="utf-8") as handle:
        for request in reader.iter_requests(reader.iter_clf_lines(handle)):
            if next_watermark is None:
                next_watermark = request.timestamp + FLUSH_INTERVAL
            while request.timestamp >= next_watermark:
                sessions.extend(pipeline.flush(next_watermark))
                next_watermark += FLUSH_INTERVAL
            sessions.extend(pipeline.feed(request))
    sessions.extend(pipeline.flush())
    SessionSet(sessions).save(out_path)
    return pipeline.stats()


def _run_sharded(runtime, log_path: str, out_path: str):
    with open(log_path, encoding="utf-8") as handle:
        result = runtime.run(
            reader.iter_requests(reader.iter_clf_lines(handle)),
            flush_interval=FLUSH_INTERVAL)
    result.sessions.save(out_path)
    return result.stats


def run(path: str, subject, log_path: str, out_path: str):
    """The timed region; returns the path's ledger stats (or ``None``)."""
    if path == "batch_object":
        return _run_batch(subject, log_path, out_path, "object")
    if path == "batch_columnar":
        return _run_batch(subject, log_path, out_path, "columnar")
    if path in ("stream", "governed"):
        return _run_stream(subject, log_path, out_path)
    return _run_sharded(subject, log_path, out_path)


def expected_digest(path: str, workload: Workload, oracle: dict) -> str:
    """The digest ``path`` must write: the batch oracle, or the serial
    governed reference on paths whose per-user cap evicts."""
    if (path in ("governed", "sharded1", "sharded2")
            and not workload.governed_matches_oracle):
        return oracle["governed_digest"]
    return oracle["oracle_digest"]


def gate(path: str, workload: Workload, oracle: dict, out_path: str,
         topology_path: str, stats, verified: dict | None = None) -> dict:
    """Check a finished run's output file.

    Returns the file's ``sha256``, its canonical ``digest``, its session
    count and the ``problems`` found.  The digest is taken from the file
    on disk, so a session dropped or altered anywhere between
    reconstruction and ``save`` fails the run.  ``verified`` is the gate
    result of an earlier run of the same path that passed: a file with
    the same bytes passes again without being re-parsed.
    """
    with open(out_path, "rb") as handle:
        sha256 = hashlib.sha256(handle.read()).hexdigest()
    problems = []
    if stats is not None and not stats.reconciles():
        problems.append("ledger does not reconcile")
    if verified is not None and verified["sha256"] == sha256:
        return dict(verified, problems=problems)
    saved = SessionSet.load(out_path)
    digest = saved.canonical_digest()
    expected = expected_digest(path, workload, oracle)
    if digest != expected:
        problems.append(f"digest {digest[:12]} != expected {expected[:12]}")
    if path == "governed" and not workload.governed_matches_oracle:
        violations = verify_sessions(saved, load_graph(topology_path))
        if violations:
            problems.append(f"{len(violations)} invariant violations, first: "
                            f"{violations[0].to_dict()}")
    return {"sha256": sha256, "digest": digest, "sessions": len(saved),
            "problems": problems}


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child (a shard
    worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def measure(path: str, workload: Workload, oracle: dict, topology_path: str,
            log_path: str, out_path: str, root=None,
            verified: dict | None = None) -> dict:
    """Set up, run and gate one path; the body of one child process.

    ``root`` is a context manager opened around exactly the timed region
    (the traced run passes its root span); ``verified`` is passed on to
    :func:`gate`.  The calibration reference runs right after the timed
    region (see ``calibration.py``).
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subject = setup(path, workload, topology_path)
        setups.append(time.perf_counter() - start)
    start = time.perf_counter()
    with root if root is not None else nullcontext():
        stats = run(path, subject, log_path, out_path)
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    reference = reference_seconds()
    checked = gate(path, workload, oracle, out_path, topology_path, stats,
                   verified)
    return dict(checked, path=path, wall_s=wall,
                setup_s=statistics.median(setups), rss_mb=rss,
                reference_s=reference,
                stats=dataclasses.asdict(stats) if stats is not None else {})
