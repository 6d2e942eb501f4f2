"""Extension A21 — crash-safe sharded streaming runtime.

Streams one multi-user workload through the sharded runtime at 1, 2 and
4 shards (fault-free) and reports sustained throughput per shard count,
then kills both workers of a 2-shard run mid-stream and reports the
failover recovery times.  Every configuration — including the kill run —
must seal output byte-identical (canonical digest) to the serial
governed pipeline, and every ledger must reconcile; those are asserted,
so the bench doubles as a correctness gate.

Reading the numbers: the coordinator and the N workers share the
visible cores (the results file records how many).  Where they number
more than the cores they time-slice rather than parallelize, and the
sweep point measures the *coordination overhead* of the runtime (pipes,
framing, progress acks), not a speedup.  A recovery is timed from the
failover to the respawned worker's first ACK, which it sends only once
its replay has passed the last ACK the coordinator absorbed; so it
includes re-processing everything since the worker's last capsule, cut
every half replay capacity (here: since the start of the stream).
"""

from __future__ import annotations

import os
import time

import pytest

from _bench_utils import BENCH_QUICK, BENCH_SEED, emit
from repro.faults.execution import use_execution_faults
from repro.parallel import RetryPolicy
from repro.sessions.model import Request, SessionSet
from repro.streaming import ShardedConfig, ShardedStreamingRuntime
from repro.streaming.governor import GovernorConfig
from repro.streaming.pipeline import streaming_smart_sra
from repro.topology.generators import random_site

_SHARD_COUNTS = (1, 2) if BENCH_QUICK else (1, 2, 4)
_REQUESTS = 4_000 if BENCH_QUICK else 40_000
_USERS = 60 if BENCH_QUICK else 400

#: generous budget: the byte-identity contract requires global-budget
#: eviction (shard-order dependent) to stay out of play.
_GOVERNOR = GovernorConfig(memory_budget=1 << 30, per_user_cap=128)

#: fast seeded backoff so recovery timings measure replay, not sleeps.
_RETRY = RetryPolicy(max_retries=3, deadline=120.0, backoff_base=0.01,
                     backoff_cap=0.05, seed=BENCH_SEED)


@pytest.fixture(scope="module")
def workload():
    """A steady multi-user stream wide enough to occupy every shard."""
    topology = random_site(120, 5.0, seed=BENCH_SEED)
    requests = []
    clock = 0.0
    for i in range(_REQUESTS):
        clock += 2.0
        requests.append(Request(clock, f"user{i % _USERS}",
                                f"P{i % 90}"))
    return topology, tuple(requests)


def _serial_run(topology, requests):
    pipeline = streaming_smart_sra(topology, governor=_GOVERNOR)
    start = time.perf_counter()
    sessions = pipeline.feed_many(requests)
    sessions.extend(pipeline.flush())
    elapsed = time.perf_counter() - start
    return SessionSet(sessions).canonical_digest(), elapsed


def _sharded_run(topology, requests, shards, *faults):
    runtime = ShardedStreamingRuntime(
        topology, governor=_GOVERNOR,
        sharded=ShardedConfig(shards=shards, ack_interval=64,
                              retry=_RETRY))
    start = time.perf_counter()
    if faults:
        with use_execution_faults(*faults):
            result = runtime.run(requests, flush_interval=600.0)
    else:
        result = runtime.run(requests, flush_interval=600.0)
    return result, time.perf_counter() - start


def test_sharded_scaling_and_failover(workload, results_dir,
                                      bench_metrics):
    topology, requests = workload
    expected, serial_elapsed = _serial_run(topology, requests)
    serial_krec = len(requests) / serial_elapsed / 1000.0

    lines = [
        "Extension A21 — crash-safe sharded streaming runtime",
        f"  workload:        {len(requests)} requests, {_USERS} users, "
        f"seed {BENCH_SEED}, quick={'yes' if BENCH_QUICK else 'no'}",
        f"  host cores:      {os.cpu_count() or 1} (the coordinator plus "
        f"N workers time-slice wherever they outnumber the cores)",
        f"  serial baseline: {serial_krec:7.1f} krec/s (in-process "
        f"governed pipeline)",
        "",
        "  shards    krec/s   vs-serial   failovers   sealed-sessions",
    ]
    for shards in _SHARD_COUNTS:
        result, elapsed = _sharded_run(topology, requests, shards)
        stats = result.stats
        assert stats.reconciles(), stats
        assert stats.fed == len(requests)
        assert result.sessions.canonical_digest() == expected, (
            f"{shards}-shard output diverged from serial")
        krec = stats.fed / elapsed / 1000.0
        lines.append(
            f"  {shards:>6}  {krec:8.1f}   {krec / serial_krec:8.2f}x"
            f"   {stats.failovers:>9}   {stats.sealed_sessions:>15}")
        bench_metrics.gauge(f"bench.sharded.krec_s.{shards}").set(
            round(krec, 2))

    # the failover leg: both workers of a 2-shard run die mid-stream.
    kill_at = max(50, _REQUESTS // 40)
    result, elapsed = _sharded_run(
        topology, requests, 2,
        f"kill-worker:0:{kill_at}", f"kill-worker:1:{kill_at * 2}")
    stats = result.stats
    assert stats.failovers == 2, stats
    assert stats.reconciles(), stats
    assert result.sessions.canonical_digest() == expected, (
        "output diverged after failover")
    krec = stats.fed / elapsed / 1000.0
    recoveries_ms = [seconds * 1000.0 for seconds in
                     result.recovery_seconds]
    lines += [
        "",
        "  failover run (2 shards, both workers killed mid-stream):",
        f"    throughput:      {krec:7.1f} krec/s including recovery",
        f"    events replayed: {stats.replayed} "
        f"(of {stats.fed} fed; ledger reconciles, asserted)",
        f"    recovery times:  "
        + ", ".join(f"{ms:.0f} ms" for ms in recoveries_ms)
        + " (failover to the first new ACK, incl. replay since the "
        "last capsule)",
        f"    sealed output:   byte-identical to serial "
        f"(canonical digest, asserted)",
        "",
    ]
    for index, ms in enumerate(recoveries_ms):
        bench_metrics.gauge(f"bench.sharded.recovery_ms.{index}").set(
            round(ms, 1))
    bench_metrics.gauge("bench.sharded.failover_krec_s").set(
        round(krec, 2))
    emit(results_dir, "sharded", "\n".join(lines))
