"""Integration: worker kills mid-stream must not change a single byte.

The sharded runtime's hard guarantee is exercised here end to end:
forked workers are killed (or wedged) by injected execution faults at
chosen event ordinals, failover restores each from its acked capsule
plus replay log, and the sealed :class:`SessionSet` must be
byte-identical — by canonical digest — to the single-threaded governed
run of the same stream.  Both a uniform simulated workload and the
adversarial crawler + NAT mix are held to the same digest.  Failover
also restores the worker's metrics, and stays exact under a budget
tight enough for global eviction when compared at the same shard count.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.exceptions import ConfigurationError
from repro.faults.execution import use_execution_faults
from repro.obs import Registry
from repro.sessions.model import Request, SessionSet
from repro.simulator.adversarial import adversarial_workload
from repro.streaming import (ShardedConfig, ShardedStreamingRuntime,
                             audit_sharded_config, streaming_smart_sra)
from repro.streaming.governor import GovernorConfig
from repro.parallel import RetryPolicy
from repro.topology.generators import random_site

#: generous budget: per-user caps still engage, but global-budget
#: eviction (shard-order dependent) never fires, keeping byte identity
#: in scope — see the module docstring of repro.streaming.sharded.
GOVERNOR = GovernorConfig(memory_budget=1 << 30, per_user_cap=64,
                          quarantine_after=2, quarantine_cap=256)

#: fast, seeded failover backoff so the suite doesn't sleep for real.
RETRY = RetryPolicy(max_retries=3, deadline=60.0, backoff_base=0.01,
                    backoff_cap=0.05, seed=0)


def serial_digest(topology, requests):
    pipeline = streaming_smart_sra(topology, governor=GOVERNOR,
                                   registry=Registry())
    sessions = pipeline.feed_many(requests)
    sessions.extend(pipeline.flush())
    return SessionSet(sessions).canonical_digest()


@pytest.fixture(scope="module")
def topology():
    return random_site(n_pages=80, avg_out_degree=5.0, seed=23)


@pytest.fixture(scope="module")
def uniform_stream(topology):
    requests = []
    clock = 0.0
    for i in range(900):
        clock += 3.0
        requests.append(Request(clock, f"user{i % 31}", f"P{i % 13}"))
    return tuple(requests)


@pytest.fixture(scope="module")
def adversarial_stream(topology):
    return adversarial_workload(topology, crawlers=2, crawler_requests=250,
                                crawler_interval=5.0, nat_pools=2,
                                humans_per_pool=6, normal_agents=5, seed=23)


def run_sharded(topology, requests, *faults, shards=2, lease=30.0,
                policy="failover", registry=None):
    runtime = ShardedStreamingRuntime(
        topology,
        sharded=ShardedConfig(shards=shards, ack_interval=24, lease=lease,
                              on_shard_failure=policy, retry=RETRY),
        governor=GOVERNOR,
        registry=registry if registry is not None else Registry())
    if faults:
        with use_execution_faults(*faults):
            return runtime.run(requests, flush_interval=120.0)
    return runtime.run(requests, flush_interval=120.0)


def test_two_kills_leave_uniform_output_byte_identical(topology,
                                                       uniform_stream):
    result = run_sharded(topology, uniform_stream,
                         "kill-worker:0:100", "kill-worker:1:200")
    stats = result.stats
    assert stats.failovers == 2
    assert stats.worker_deaths == 2
    assert stats.replayed > 0
    assert stats.reconciles(), stats
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, uniform_stream))
    # every recovery is timed, failover-to-first-ACK.
    assert len(result.recovery_seconds) == 2
    assert all(seconds >= 0.0 for seconds in result.recovery_seconds)


def test_repeated_kills_of_one_shard_still_converge(topology,
                                                    uniform_stream):
    # the same shard dies on incarnations 0 and 1 (attempts=2): failover
    # must survive a crash *of the respawned worker* too.
    result = run_sharded(topology, uniform_stream, "kill-worker:0:80:2")
    assert result.stats.failovers == 2
    assert result.stats.reconciles()
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, uniform_stream))


def test_two_kills_leave_adversarial_output_byte_identical(
        topology, adversarial_stream):
    # crawler + NAT skew concentrates traffic on few user ids, so one
    # shard carries most of the stream — the worst case for replay.
    result = run_sharded(topology, adversarial_stream,
                         "kill-worker:0:150", "kill-worker:1:120")
    stats = result.stats
    assert stats.failovers >= 2
    assert stats.reconciles(), stats
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, adversarial_stream))


def test_wedged_worker_is_leased_out_and_failed_over(topology,
                                                     uniform_stream):
    result = run_sharded(topology, uniform_stream, "wedge-worker:0:60:1",
                         lease=1.0)
    stats = result.stats
    assert stats.wedged == 1
    assert stats.failovers == 1
    assert stats.reconciles()
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, uniform_stream))


def test_shed_shard_policy_abandons_visibly(topology, uniform_stream):
    result = run_sharded(topology, uniform_stream, "kill-worker:1:50",
                         policy="shed-shard")
    stats = result.stats
    assert stats.shed_shards == 1
    assert stats.shed > 0
    assert stats.failovers == 0
    assert stats.reconciles()
    # the surviving shard's output is intact: sealed sessions are a
    # subset of the serial run restricted to surviving users.
    assert 0 < stats.sealed_sessions


def test_raise_policy_propagates_the_death(topology, uniform_stream):
    from repro.exceptions import ExecutionError
    with pytest.raises(ExecutionError):
        run_sharded(topology, uniform_stream, "kill-worker:0:50",
                    policy="raise")


def pipeline_series(registry):
    """The worker-pipeline counters and gauges a registry merged."""
    snapshot = registry.snapshot()
    return {kind: {series: value
                   for series, value in snapshot[kind].items()
                   if series.startswith(("stream.", "governor."))}
            for kind in ("counters", "gauges")}


def test_failover_restores_the_merged_worker_metrics(topology,
                                                     uniform_stream):
    # a respawned worker starts from an empty registry; the capsule's
    # registry snapshot must bring it back to where the ACK left it.
    stream = uniform_stream[:400]
    killed_registry, plain_registry = Registry(), Registry()
    killed = run_sharded(topology, stream, "kill-worker:0:100", shards=1,
                         registry=killed_registry)
    run_sharded(topology, stream, shards=1, registry=plain_registry)
    assert killed.stats.failovers == 1
    merged = pipeline_series(killed_registry)
    assert merged["gauges"]["stream.buffered_requests"] == 0
    assert merged["counters"]["stream.requests.fed"] == killed.stats.fed
    assert (merged["counters"]["stream.sessions.emitted"]
            == killed.stats.sealed_sessions)
    assert merged == pipeline_series(plain_registry)


def tied_stream(seed, n_requests=300):
    """Many users per timestamp, so eviction victims tie on idle time."""
    rng = random.Random(seed)
    clock = 0.0
    requests = []
    for _ in range(n_requests):
        if rng.random() < 0.3:
            clock += 10.0
        requests.append(Request(clock, f"u{rng.randrange(12)}",
                                f"P{rng.randrange(6)}"))
    return requests


def test_failover_is_exact_under_global_eviction():
    # an 800-byte budget evicts constantly; global eviction is not
    # stable across shard counts, but at a fixed count a killed run
    # must match the unkilled one event for event.
    def run(*faults):
        runtime = ShardedStreamingRuntime(
            heuristic="phase1",
            sharded=ShardedConfig(shards=2, ack_interval=16, retry=RETRY),
            governor=GovernorConfig(memory_budget=800, per_user_cap=512),
            registry=Registry())
        with use_execution_faults(*faults):
            return runtime.run(stream)

    stream = tied_stream(seed=1)
    plain = run()
    killed = run("kill-worker:0:80", "kill-worker:1:90")
    assert all(ledger["evictions"] > 0 for ledger in plain.shard_stats)
    assert killed.stats.failovers == 2
    assert killed.stats.reconciles()
    assert (killed.sessions.canonical_digest()
            == plain.sessions.canonical_digest())
    assert killed.shard_stats == plain.shard_stats
    assert ((killed.stats.fed, killed.stats.shed,
             killed.stats.sealed_sessions)
            == (plain.stats.fed, plain.stats.shed,
                plain.stats.sealed_sessions))


def paced(requests, every=6, pause=0.002):
    """``requests``, pausing now and then so workers keep up with input."""
    for index, request in enumerate(requests):
        if index and index % every == 0:
            time.sleep(pause)
        yield request


@pytest.mark.parametrize("ordinal", [37, 61])
def test_kill_inside_an_event_batch_delivers_each_event_once(
        topology, uniform_stream, ordinal):
    # the coordinator hands a shard its events an ACK span (24 here) at a
    # time; a kill mid-span, noticed while input still arrives, leaves
    # routed events unacked, framed or not.  Replaying them twice would
    # break the ledger or the digest, dropping them ``fed`` or the digest.
    plain = run_sharded(topology, uniform_stream)
    killed = run_sharded(topology, paced(uniform_stream),
                         f"kill-worker:0:{ordinal}")
    stats = killed.stats
    assert stats.failovers == 1
    assert stats.reconciles(), stats
    assert stats.fed == len(uniform_stream)
    assert (killed.sessions.canonical_digest()
            == plain.sessions.canonical_digest()
            == serial_digest(topology, uniform_stream))


def test_fewer_events_than_an_ack_span_all_seal(topology, uniform_stream):
    # no batch ever fills: EOF must still hand every event over.
    stream = uniform_stream[:10]
    result = run_sharded(topology, stream)
    assert result.stats.fed == result.stats.routed == len(stream)
    assert result.stats.reconciles()
    assert result.stats.sealed_sessions > 0
    assert (result.sessions.canonical_digest()
            == serial_digest(topology, stream))


def test_spilling_governor_is_refused_not_shed(topology, uniform_stream,
                                               tmp_path):
    # A spilled buffer lives in the worker's own spill dir, outside every
    # capsule.  Run sharded, this configuration used to leave the replay
    # log untrimmed until the lease read it as a wedge and shed the shard:
    # 0 of the serial run's sessions sealed, 892 events shed, and the
    # audit called it ok.  It is refused up front now.
    governor = GovernorConfig(memory_budget=1200, per_user_cap=64,
                              overload_policy="block",
                              spill_dir=str(tmp_path / "spill"))
    serial = streaming_smart_sra(topology, governor=governor,
                                 registry=Registry())
    sessions = serial.feed_many(uniform_stream)
    sessions.extend(serial.flush())
    assert len(sessions) == 666
    assert serial.stats().spill_writes > 0
    sharded = ShardedConfig(shards=1, ack_interval=8, replay_capacity=128,
                            lease=2.0, retry=RetryPolicy(
                                max_retries=2, backoff_base=0.01,
                                backoff_cap=0.05, seed=0))
    audit = audit_sharded_config(sharded, governor)
    assert not audit.ok
    assert any(level == "FAIL" and "block" in message
               for level, message in audit.checks)
    with pytest.raises(ConfigurationError, match="block"):
        ShardedStreamingRuntime(topology, sharded=sharded, governor=governor,
                                registry=Registry())
