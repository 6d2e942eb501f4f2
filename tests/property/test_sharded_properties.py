"""Property tests for the sharded runtime's pure invariants.

Three contracts are load-bearing enough to fuzz rather than spot-check:

* the shard router is a pure function of the user id — the same user
  must land on the same shard every time, for every shard count, or
  replay after failover would split a user's candidate across workers;
* the :class:`~repro.streaming.sharded.ShardLedger` reconciles exactly
  (``fed == routed + replayed + shed``) under *any* interleaving of
  routes, acks, failovers and shard sheds — the coordinator asserts
  this at the end of every run, so a schedule that breaks it would be
  a silent-loss bug;
* the sealed output is in canonical order: sessions that travel through
  the real ``OUT`` encoder, frame reader and decoders come out of the
  coordinator exactly as ``sorted(..., key=Session.canonical_key)``
  orders them, and sessions a failover discarded never come out.

None of them forks a process: the first two run on the bookkeeping
alone, the third drives the coordinator's frame handlers directly.
"""

from __future__ import annotations

import gc
import json
import math
import weakref
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.exceptions import ExecutionError
from repro.obs import Registry
from repro.parallel.supervisor import RetryPolicy
from repro.sessions.model import Request, Session
from repro.streaming import wire
from repro.streaming.sharded import (ReplayLog, ShardedConfig,
                                     ShardedStreamingRuntime, ShardLedger,
                                     _ShardHandle, shard_for)

USER_IDS = st.text(min_size=1, max_size=24)


@settings(max_examples=120, deadline=None)
@given(USER_IDS, st.integers(1, 16))
def test_router_is_stable_and_in_range(user_id, n_shards):
    first = shard_for(user_id, n_shards)
    assert 0 <= first < n_shards
    assert all(shard_for(user_id, n_shards) == first for _ in range(3))


@settings(max_examples=60, deadline=None)
@given(st.lists(USER_IDS, min_size=20, max_size=60, unique=True),
       st.integers(2, 8))
def test_router_spreads_users_across_shards(users, n_shards):
    """Sanity, not uniformity: BLAKE2b over >= 20 distinct ids should
    touch more than one shard — a constant router would pass stability
    but serialize the whole population onto one worker."""
    assert len({shard_for(user, n_shards) for user in users}) > 1


@st.composite
def kill_schedule(draw):
    """A random interleaving of ledger operations over a few shards.

    Each step is ``(op, shard)``; acks retire a random prefix of the
    shard's pending window, mirroring how a worker acks at capsule
    boundaries, and sheds may hit an already-shed shard (a no-op the
    real coordinator also performs when a respawn exhausts retries).
    """
    shards = draw(st.integers(1, 4))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(["route", "ack", "fail", "shed"]),
                  st.integers(0, shards - 1)),
        min_size=0, max_size=120))
    return shards, steps


class DequeLedger:
    """The ledger as it was first written: one replayed-flag per pending
    event.  Slow but obviously right, so it is the model the counting
    :class:`ShardLedger` is checked against."""

    def __init__(self, shards):
        self.fed = self.routed = self.replayed = self.shed = 0
        self._pending = [deque() for _ in range(shards)]
        self._shed_shards = set()

    def route(self, shard):
        self.fed += 1
        if shard in self._shed_shards:
            self.shed += 1
            return False
        self.routed += 1
        self._pending[shard].append(False)
        return True

    def ack(self, shard, count):
        pending = self._pending[shard]
        if count > len(pending):
            raise ExecutionError("overacked")
        for _ in range(count):
            pending.popleft()

    def fail(self, shard):
        pending = self._pending[shard]
        moved = pending.count(False)
        self._pending[shard] = deque([True] * len(pending))
        self.routed -= moved
        self.replayed += moved
        return moved

    def shed_shard(self, shard):
        pending = self._pending[shard]
        dropped = len(pending)
        replayed = pending.count(True)
        self.replayed -= replayed
        self.routed -= dropped - replayed
        self.shed += dropped
        pending.clear()
        self._shed_shards.add(shard)
        return dropped

    def pending(self, shard):
        return len(self._pending[shard])


@settings(max_examples=120, deadline=None)
@given(kill_schedule(), st.randoms(use_true_random=False))
def test_ledger_reconciles_under_any_schedule(schedule, rng):
    shards, steps = schedule
    ledger = ShardLedger(shards)
    model = DequeLedger(shards)
    for op, shard in steps:
        if op == "route":
            assert ledger.route(shard) == model.route(shard)
        elif op == "ack":
            count = rng.randint(0, ledger.pending(shard))
            ledger.ack(shard, count)
            model.ack(shard, count)
        elif op == "fail":
            assert ledger.fail(shard) == model.fail(shard)
        else:
            assert ledger.shed_shard(shard) == model.shed_shard(shard)
        assert ledger.reconciles(), vars(ledger)
        assert ledger.routed >= 0 and ledger.replayed >= 0
        assert ((ledger.fed, ledger.routed, ledger.replayed, ledger.shed)
                == (model.fed, model.routed, model.replayed, model.shed))
        assert ([ledger.pending(s) for s in range(shards)]
                == [model.pending(s) for s in range(shards)])
    # final dispositions cover exactly the fed events.
    assert ledger.fed == ledger.routed + ledger.replayed + ledger.shed


# ---------------------------------------------------------------------------
# canonical order of the sealed output

# user ids whose string order is not the order they are likely to first
# arrive in; timestamps, pages and flags from small pools, so equal
# requests recur across frames and decoders.
_USERS = ("u9", "u10", "b", "A", "\u00e9", "a")
_PAGES = ("/b", "/a", "/a/x", "/")


@st.composite
def session_bodies(draw):
    """One session: a user and 1-5 ``(timestamp, page, synthetic)``
    requests in non-decreasing timestamp order."""
    user = draw(st.sampled_from(_USERS))
    length = draw(st.integers(1, 5))
    stamps = sorted(draw(st.lists(st.sampled_from((0.0, 1.0, 1.5, 7.0)),
                                  min_size=length, max_size=length)))
    return user, [(stamp, draw(st.sampled_from(_PAGES)), draw(st.booleans()))
                  for stamp in stamps]


@st.composite
def out_schedule(draw):
    """Frames for a two-shard coordinator.

    Each step sends one ``OUT`` batch to a shard, then acks it (the batch
    becomes durable), holds it (a later ack or failover decides) or
    fails the shard over (the pending batches are discarded).  Besides
    fresh bodies a batch may repeat an earlier body, a proper prefix of
    one, or one with a ``synthetic`` flag flipped.
    """
    sent = []
    steps = []
    for _ in range(draw(st.integers(2, 8))):
        bodies = []
        for _ in range(draw(st.integers(1, 4))):
            how = draw(st.sampled_from(
                ("fresh", "fresh", "again", "prefix", "flip")))
            if how == "fresh" or not sent:
                bodies.append(draw(session_bodies()))
                continue
            user, requests = draw(st.sampled_from(sent))
            if how == "prefix" and len(requests) > 1:
                requests = requests[:draw(st.integers(1,
                                                      len(requests) - 1))]
            elif how == "flip":
                at = draw(st.integers(0, len(requests) - 1))
                stamp, page, synthetic = requests[at]
                requests = (requests[:at] + [(stamp, page, not synthetic)]
                            + requests[at + 1:])
            bodies.append((user, requests))
        sent.extend(bodies)
        steps.append((draw(st.integers(0, 1)), bodies,
                      draw(st.sampled_from(("ack", "ack", "hold", "fail")))))
    return steps


def _sessions(bodies):
    """Build the bodies as a worker emits them: a session reuses the
    previous session's request object where the two hold an equal request
    at the same position, so batches carry shared table entries as well
    as equal but distinct ones."""
    sessions = []
    previous: list[Request] = []
    for user, requests in bodies:
        built = []
        for at, (stamp, page, synthetic) in enumerate(requests):
            if at < len(previous) and (
                    previous[at].user_id, previous[at].timestamp,
                    previous[at].page, previous[at].synthetic) == (
                        user, stamp, page, synthetic):
                built.append(previous[at])
            else:
                built.append(Request(stamp, user, page, synthetic))
        sessions.append(Session(built))
        previous = built
    return sessions


def _bodies(batch: wire.SessionBatch) -> list[tuple[Request, ...]]:
    """A decoded batch's sessions as tuples of its own request objects."""
    bodies, start = [], 0
    for length in batch.lengths:
        bodies.append(tuple(batch.requests[i]
                            for i in batch.indices[start:start + length]))
        start += length
    return bodies


def _canonical_key(body: tuple[Request, ...]):
    return Session.from_trusted_parts(body).canonical_key()


class CoordinatorHarness:
    """A coordinator whose workers are played by the test.

    The frame handlers, ACK absorption, failover and finalization are the
    runtime's own; only spawning is replaced, by installing the fresh
    decoder and frame reader a new worker incarnation would get, so
    nothing forks.  Each worker incarnation gets a fresh encoder, as a
    forked worker does.
    """

    def __init__(self, shards: int = 2) -> None:
        runtime = ShardedStreamingRuntime(
            heuristic="phase1", registry=Registry(),
            sharded=ShardedConfig(shards=shards, retry=RetryPolicy(
                max_retries=1000, backoff_base=0.0)))
        runtime._spawn = self._spawn
        runtime._handles = [_ShardHandle(shard) for shard in range(shards)]
        runtime._logs = [ReplayLog(shard, 64) for shard in range(shards)]
        for handle in runtime._handles:
            handle.state = "running"
        self.runtime = runtime
        self.encoders = [wire.SymbolEncoder() for _ in range(shards)]

    def _spawn(self, handle, capsule, entries):
        handle.decoder = wire.SymbolDecoder()
        handle.reader = wire.FrameReader()
        handle.state = "running"
        self.encoders[handle.shard] = wire.SymbolEncoder()

    def send(self, shard: int, sessions) -> None:
        out = bytearray()
        self.encoders[shard].encode_sessions(out, sessions)
        handle = self.runtime._handles[shard]
        for kind, payload in handle.reader.feed(bytes(out)):
            self.runtime._on_frame(handle, kind, payload)

    def ack(self, shard: int) -> None:
        self.runtime._absorb_progress(self.runtime._handles[shard], 0, 0,
                                      0.0)

    def fail(self, shard: int) -> None:
        self.runtime._fail(self.runtime._handles[shard], "killed by test")

    def finish(self):
        for handle in self.runtime._handles:
            document = {"ordinal": 0, "wm_index": 0, "watermark": math.inf,
                        "snapshot": {}}
            self.runtime._on_frame(handle, wire.DONE,
                                   json.dumps(document).encode("utf-8"))
        return self.runtime._finalize()


@settings(max_examples=150, deadline=None)
@given(out_schedule())
def test_sealed_output_is_in_canonical_order(steps):
    harness = CoordinatorHarness()
    durable: list[tuple[Request, ...]] = []
    pending: list[list[tuple[Request, ...]]] = [[], []]
    discarded: list[tuple[Request, ...]] = []
    for shard, bodies, then in steps:
        # what the coordinator decodes is what it outputs, so collect the
        # decoded request objects straight from the shard's pending
        # batches.
        before = len(harness.runtime._handles[shard].pending)
        harness.send(shard, _sessions(bodies))
        [batch] = harness.runtime._handles[shard].pending[before:]
        pending[shard].extend(_bodies(batch))
        if then == "ack":
            harness.ack(shard)
            durable.extend(pending[shard])
            pending[shard].clear()
        elif then == "fail":
            harness.fail(shard)
            discarded.extend(pending[shard])
            pending[shard].clear()
    for shard in (0, 1):
        harness.ack(shard)
        durable.extend(pending[shard])
    result = harness.finish()
    expected = sorted(durable, key=_canonical_key)
    assert len(result.sessions) == len(expected)
    assert all(len(got) == len(want)
               and all(g is w for g, w in zip(got, want))
               for got, want in zip(result.sessions, expected))
    assert not ({id(r) for body in discarded for r in body}
                & {id(r) for s in result.sessions for r in s})
    assert result.stats.sealed_sessions == len(durable)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(session_bodies(), min_size=1, max_size=4),
                min_size=2, max_size=5))
def test_keys_are_equal_exactly_when_canonical_keys_are(frames):
    """Batches decoded by two decoders (odd frames on the second), so a
    table entry's symbol ids mean different strings per decoder."""
    encoders = [wire.SymbolEncoder(), wire.SymbolEncoder()]
    decoders = [wire.SymbolDecoder(), wire.SymbolDecoder()]
    readers = [wire.FrameReader(), wire.FrameReader()]
    batches = []
    for at, bodies in enumerate(frames):
        side = at % 2
        out = bytearray()
        encoders[side].encode_sessions(out, _sessions(bodies))
        for kind, payload in readers[side].feed(bytes(out)):
            if kind == wire.SYM:
                decoders[side].add_symbol(payload)
            else:
                batches.append(decoders[side].decode_batch(payload))
    bodies = [body for batch in batches for body in _bodies(batch)]
    keys = wire.canonical_keys(batches)
    assert len(keys) == len(bodies)
    for left, left_key in zip(bodies, keys):
        for right, right_key in zip(bodies, keys):
            canonical = (_canonical_key(left), _canonical_key(right))
            assert (left_key == right_key) == (canonical[0] == canonical[1])
            assert (left_key < right_key) == (canonical[0] < canonical[1])


def test_failover_releases_the_discarded_batches(monkeypatch):
    """A failover's discarded ``OUT`` batches are not retained."""

    class Tracked(wire.SessionBatch):
        pass        # no __slots__: weak-referenceable

    monkeypatch.setattr(wire, "SessionBatch", Tracked)
    harness = CoordinatorHarness()
    harness.send(0, _sessions([("a", [(1.0, "/a", False)])]))
    harness.ack(0)
    harness.send(0, _sessions([("b", [(2.0, "/b", False)])]))
    kept, dropped = (weakref.ref(batch) for batch in
                     (harness.runtime._batches[0],
                      harness.runtime._handles[0].pending[0]))
    harness.fail(0)
    gc.collect()
    assert dropped() is None and kept() is not None
    result = harness.finish()
    assert [s.user_id for s in result.sessions] == ["a"]
