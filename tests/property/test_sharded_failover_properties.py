"""Property: killing a shard worker anywhere changes nothing in the output.

Workers send a progress ACK every ``ack_interval`` events and cut a full
capsule only every half ``replay_capacity``.  A respawned worker restores
the last capsule, replays the coordinator's log, and stays quiet — no
``OUT``, no ACK — until it passes the last ACK the coordinator absorbed.
Here the capacity is small enough that every shard cuts several
capsules, and a worker is killed at drawn event ordinals: before the
first capsule, between an ACK and the next capsule, inside an event
batch, and once more after it was respawned.  Every killed run must seal
what the unkilled run seals, session for session and byte for byte, with
a reconciling ledger and the same merged worker metrics.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults.execution import use_execution_faults
from repro.obs import Registry
from repro.parallel import RetryPolicy
from repro.sessions.model import Request
from repro.streaming import ShardedConfig, ShardedStreamingRuntime, shard_for
from repro.streaming.governor import GovernorConfig
from repro.topology.generators import random_site

SHARDS = 2
ACK_INTERVAL = 8
#: a capsule every 16 events: half the capacity, in ACK spans.
REPLAY_CAPACITY = 32

RETRY = RetryPolicy(max_retries=3, deadline=60.0, backoff_base=0.0,
                    backoff_cap=0.0, seed=0)
GOVERNOR = GovernorConfig(memory_budget=1 << 30, per_user_cap=16,
                          quarantine_after=2, quarantine_cap=64)

TOPOLOGY = random_site(n_pages=40, avg_out_degree=4.0, seed=5)


def _stream() -> tuple[Request, ...]:
    # a never-idle crawler strikes the per-user cap into quarantine; the
    # others come and go, so candidates close on gaps and on watermarks.
    requests = []
    clock = 0.0
    for i in range(240):
        clock += 4.0
        user = "crawler" if i % 4 == 0 else f"user{i % 13}"
        requests.append(Request(clock, user, f"P{(i * 7) % 17}"))
    return tuple(requests)


STREAM = _stream()
#: events each shard receives: a kill at a larger ordinal never fires.
SHARD_EVENTS = [sum(shard_for(r.user_id, SHARDS) == shard for r in STREAM)
                for shard in range(SHARDS)]


def _pipeline_series(snapshot: dict) -> dict:
    """The worker-pipeline counters and gauges of a registry snapshot."""
    return {kind: {series: value
                   for series, value in snapshot[kind].items()
                   if series.startswith(("stream.", "governor."))}
            for kind in ("counters", "gauges")}


def _run(*faults: str) -> dict:
    registry = Registry()
    runtime = ShardedStreamingRuntime(
        TOPOLOGY, governor=GOVERNOR, registry=registry,
        sharded=ShardedConfig(shards=SHARDS, ack_interval=ACK_INTERVAL,
                              replay_capacity=REPLAY_CAPACITY, retry=RETRY))
    with use_execution_faults(*faults):
        result = runtime.run(STREAM, flush_interval=100.0)
    handle, path = tempfile.mkstemp(suffix=".json")
    os.close(handle)
    try:
        result.sessions.save(path)
        with open(path, "rb") as saved:
            data = saved.read()
    finally:
        os.unlink(path)
    # worker snapshots merge in shard order, so the merged gauges are
    # the last shard's, whichever worker finished last.
    return {"result": result, "saved": data,
            "merged": _pipeline_series(registry.snapshot()),
            "workers": [_pipeline_series(handle.done["snapshot"])
                        for handle in runtime._handles],
            "capsule_stamps": [log.stamp for log in runtime._logs]}


@pytest.fixture(scope="module")
def unkilled() -> dict:
    return _run()


def test_every_shard_cuts_several_capsules(unkilled):
    # a capsule every 16 events: a stamp at 32 or more took two.
    assert all(ordinal >= 2 * 16 for ordinal, _ in unkilled["capsule_stamps"])
    assert all(events > 3 * 16 for events in SHARD_EVENTS)


@settings(max_examples=8, deadline=None)
@given(first=st.integers(1, SHARD_EVENTS[0]),
       second=st.one_of(st.none(), st.integers(1, SHARD_EVENTS[1])),
       again=st.booleans())
@example(first=5, second=None, again=False)    # before the first capsule
@example(first=8, second=None, again=False)    # at the first ACK
@example(first=27, second=None, again=False)   # ACK 24, capsule 32
@example(first=33, second=21, again=False)     # just past a capsule
@example(first=45, second=None, again=True)    # kill the respawn too
def test_killed_run_seals_exactly_the_unkilled_output(unkilled, first,
                                                      second, again):
    faults = [f"kill-worker:0:{first}:{2 if again else 1}"]
    if second is not None:
        faults.append(f"kill-worker:1:{second}")
    killed = _run(*faults)
    plain, result = unkilled["result"], killed["result"]
    stats = result.stats
    assert stats.failovers == (2 if again else 1) + (second is not None)
    assert stats.reconciles(), stats
    assert stats.fed == len(STREAM)
    # sealed once each: as many as the unkilled run, and every one kept.
    assert (stats.sealed_sessions == plain.stats.sealed_sessions
            == len(result.sessions))
    assert (result.sessions.canonical_digest()
            == plain.sessions.canonical_digest())
    assert killed["saved"] == unkilled["saved"]
    assert result.shard_stats == plain.shard_stats
    assert killed["workers"] == unkilled["workers"]
    assert killed["merged"] == unkilled["merged"]
