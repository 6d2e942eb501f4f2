"""Unit tests for the crash-safe sharded streaming runtime.

Covers the pure pieces in isolation — the wire protocol, the replay
log, the state capsule, the ledger, the config audit — plus small
end-to-end runs of the runtime itself (fault-free, shed-shard and
raise policies).  The heavy kill/wedge failover scenarios live in
``tests/integration/test_sharded_failover.py``.
"""

from __future__ import annotations

import math
import struct
import time

import pytest

from repro.exceptions import (ConfigurationError, ExecutionError,
                              WireProtocolError)
from repro.obs import Registry
from repro.sessions.model import Request, Session, SessionSet
from repro.streaming import (ShardedConfig, ShardedStreamingRuntime,
                             audit_sharded_config, shard_for,
                             streaming_phase1, streaming_smart_sra)
from repro.streaming.governor import GovernorConfig
from repro.streaming.sharded import (REPLAY_SCHEMA, ReplayLog, ShardLedger,
                                     capsule_from, restore_capsule)
from repro.streaming import wire
from repro.topology.generators import random_site


def _batch_sessions(batch: wire.SessionBatch) -> list[Session]:
    """A decoded batch's sessions, over its own request objects."""
    sessions, start = [], 0
    for length in batch.lengths:
        sessions.append(Session.from_trusted_parts(tuple(
            batch.requests[i] for i in batch.indices[start:start + length])))
        start += length
    return sessions


class TestWireProtocol:

    def test_event_roundtrip_interns_symbols_once(self):
        encoder = wire.SymbolEncoder()
        out = bytearray()
        encoder.encode_event(out, 10.0, "alice", "/a", None, False)
        encoder.encode_event(out, 11.0, "alice", "/b", "/a", True)
        encoder.encode_event(out, 12.0, "alice", "/a", "/b", False)
        decoder = wire.SymbolDecoder()
        events = []
        reader = wire.FrameReader()
        for kind, payload in reader.feed(bytes(out)):
            if kind == wire.SYM:
                decoder.add_symbol(payload)
            else:
                assert kind == wire.EVT
                events.append(decoder.decode_event(payload))
        assert events == [(10.0, "alice", "/a", None, False),
                          (11.0, "alice", "/b", "/a", True),
                          (12.0, "alice", "/a", "/b", False)]
        # three distinct strings -> exactly three SYM definitions.
        assert len(decoder) == len(encoder) == 3

    def test_reader_reassembles_frames_split_across_chunks(self):
        payloads = [wire.json_frame(wire.ACK, {"ordinal": 7}),
                    wire.watermark_frame(42.5),
                    wire.frame(wire.EOF)]
        stream = b"".join(payloads)
        reader = wire.FrameReader()
        frames = []
        for i in range(0, len(stream), 3):     # pathological chunking
            frames.extend(reader.feed(stream[i:i + 3]))
        assert [kind for kind, _ in frames] == [wire.ACK, wire.WM, wire.EOF]
        assert wire.decode_json(frames[0][1]) == {"ordinal": 7}
        assert wire.decode_watermark(frames[1][1]) == 42.5
        assert reader.pending_bytes == 0

    def test_unknown_kind_and_bad_payloads_are_protocol_errors(self):
        with pytest.raises(WireProtocolError):
            list(wire.FrameReader().feed(wire.frame(99)))
        with pytest.raises(WireProtocolError):
            wire.decode_json(b"\xff not json")
        with pytest.raises(WireProtocolError):
            wire.decode_watermark(b"\x00" * 3)
        with pytest.raises(WireProtocolError):
            wire.SymbolDecoder().decode_event(b"\x00" * 21)

    @staticmethod
    def _received(out: bytes):
        """Decode a coordinator -> worker stream: ``(kinds, events)``."""
        decoder = wire.SymbolDecoder()
        kinds, events = [], []
        for kind, payload in wire.FrameReader().feed(out):
            kinds.append(kind)
            if kind == wire.SYM:
                decoder.add_symbol(payload)
            else:
                assert kind == wire.EVT
                events.extend(decoder.decode_events(payload))
        return kinds, events

    def test_multi_record_event_frame_roundtrip(self):
        batch = [(10.0, "alice", "/a", None, False),
                 (11.0, "bob", "/b", "/a", True),
                 (12.0, "alice", "/a", "/b", False)]
        encoder = wire.SymbolEncoder()
        out = bytearray()
        encoder.encode_events(out, batch)
        encoder.encode_events(out, batch[1:])
        encoder.encode_events(out, [])              # appends nothing
        kinds, events = self._received(bytes(out))
        # the four new symbols precede the first EVT frame; the second
        # batch defines none.
        assert kinds == [wire.SYM] * 4 + [wire.EVT, wire.EVT]
        assert events == batch + batch[1:]
        assert len(encoder) == 4

    def test_one_record_event_bytes_are_unchanged(self):
        out = bytearray()
        wire.SymbolEncoder().encode_event(out, 10.0, "alice", "/a", None,
                                          True)
        record = struct.pack("!diiiB", 10.0, 0, 1, -1, 1)
        assert bytes(out) == (
            struct.pack("!BI", wire.SYM, 5) + b"alice"
            + struct.pack("!BI", wire.SYM, 2) + b"/a"
            + struct.pack("!BI", wire.EVT, 21) + record)
        decoder = wire.SymbolDecoder()
        decoder.add_symbol(b"alice")
        decoder.add_symbol(b"/a")
        assert decoder.decode_event(record) == (10.0, "alice", "/a", None,
                                                True)
        assert decoder.decode_events(record) == [
            (10.0, "alice", "/a", None, True)]

    @pytest.mark.parametrize("field, bad", [
        (1, 2), (1, -1), (2, 7), (2, -2), (3, 2), (3, -2)])
    def test_out_of_range_symbol_in_a_middle_record_is_refused(
            self, field, bad):
        decoder = wire.SymbolDecoder()
        decoder.add_symbol(b"alice")
        decoder.add_symbol(b"/a")
        good = [1.0, 0, 1, -1, 0]
        middle = list(good)
        middle[field] = bad
        payload = b"".join(struct.pack("!diiiB", *record)
                           for record in (good, middle, good))
        # -2 must not read the table from its end; -1 means "absent"
        # only for the referrer.
        with pytest.raises(WireProtocolError, match=f"symbol id {bad} "):
            decoder.decode_events(payload)

    @pytest.mark.parametrize("size", [0, 22, 20, 43])
    def test_event_payload_of_no_whole_records_is_refused(self, size):
        decoder = wire.SymbolDecoder()
        decoder.add_symbol(b"alice")
        with pytest.raises(WireProtocolError, match="multiple of 21"):
            decoder.decode_events(b"\x00" * size)

    def test_one_record_decoder_refuses_a_batch(self):
        decoder = wire.SymbolDecoder()
        decoder.add_symbol(b"alice")
        with pytest.raises(WireProtocolError, match="want 21"):
            decoder.decode_event(struct.pack("!diiiB", 1.0, 0, 0, -1, 0) * 2)

    def test_reader_keeps_a_partial_frame_across_many_frames(self):
        stream = b"".join(wire.watermark_frame(float(i)) for i in range(50))
        reader = wire.FrameReader()
        cut = len(stream) - 4
        first = [wire.decode_watermark(payload)
                 for _, payload in reader.feed(stream[:cut])]
        assert first == [float(i) for i in range(49)]
        assert reader.pending_bytes == len(wire.watermark_frame(0.0)) - 4
        [(_, last)] = reader.feed(stream[cut:])
        assert wire.decode_watermark(last) == 49.0
        assert reader.pending_bytes == 0

    @staticmethod
    def _batch():
        a = Request(10.0, "alice", "/a")
        b = Request(11.0, "alice", "/b", synthetic=True)
        c = Request(12.0, "alice", "/c")
        d = Request(5.0, "bob", "/a")
        return [Session([a, b]), Session([a, c]), Session([a, b, c]),
                Session([d])]

    @staticmethod
    def _receive(stream: bytes, decoder, chunk: int | None = None):
        reader = wire.FrameReader()
        chunks = ([stream] if chunk is None else
                  [stream[i:i + chunk] for i in range(0, len(stream), chunk)])
        batches = []
        for piece in chunks:
            for kind, payload in reader.feed(piece):
                if kind == wire.SYM:
                    decoder.add_symbol(payload)
                else:
                    assert kind == wire.OUT
                    batches.append(_batch_sessions(
                        decoder.decode_batch(payload)))
        assert reader.pending_bytes == 0
        return batches

    def test_session_batch_roundtrip_shares_requests(self):
        sent = self._batch()
        encoder = wire.SymbolEncoder()
        out = bytearray()
        encoder.encode_sessions(out, sent)
        encoder.encode_sessions(out, sent[3:])
        encoder.encode_sessions(out, [])            # appends nothing
        decoder = wire.SymbolDecoder()
        first, second = self._receive(bytes(out), decoder)
        assert first == sent and second == sent[3:]
        assert [[r.synthetic for r in s] for s in first] \
            == [[False, True], [False, False], [False, True, False], [False]]
        # one Request object per table entry, shared across the batch...
        assert first[0][0] is first[1][0] is first[2][0]
        assert first[0][1] is first[2][1] and first[1][1] is first[2][2]
        # ...but never across batches, so memory stays bounded by one.
        assert second[0][0] is not first[3][0]
        # users and pages are interned once for the connection.
        assert len(decoder) == len(encoder) == 5

    def test_session_batch_keeps_index_lists_and_end_times(self):
        sent = self._batch()
        out = bytearray()
        wire.SymbolEncoder().encode_sessions(out, sent)
        decoder = wire.SymbolDecoder()
        batches = []
        for kind, payload in wire.FrameReader().feed(bytes(out)):
            if kind == wire.SYM:
                decoder.add_symbol(payload)
            else:
                batches.append(decoder.decode_batch(payload))
        [batch] = batches
        # four distinct requests, three sessions sharing alice's first.
        assert len(batch.requests) == 4
        assert list(batch.lengths) == [2, 2, 3, 1]
        assert list(batch.indices) == [0, 1, 0, 2, 0, 1, 2, 3]
        assert batch.end_times == [s.end_time for s in sent]

    def test_session_batch_split_across_chunks_decodes(self):
        out = bytearray()
        wire.SymbolEncoder().encode_sessions(out, self._batch())
        [batch] = self._receive(bytes(out), wire.SymbolDecoder(), chunk=3)
        assert batch == self._batch()

    def test_malformed_session_batches_are_protocol_errors(self):
        encoder = wire.SymbolEncoder()
        out = bytearray()
        encoder.encode_sessions(out, self._batch())
        decoder = wire.SymbolDecoder()
        payloads = []
        for kind, payload in wire.FrameReader().feed(bytes(out)):
            if kind == wire.SYM:
                decoder.add_symbol(payload)
            else:
                payloads.append(payload)
        [payload] = payloads
        for cut in range(len(payload)):           # every truncation
            with pytest.raises(WireProtocolError):
                decoder.decode_batch(payload[:cut])
        with pytest.raises(WireProtocolError):
            decoder.decode_batch(payload + b"\x00")
        record = struct.pack("!dIIB", 1.0, 0, 1, 0)
        out_of_range = (struct.pack("!II", 1, 1) + record
                        + struct.pack("!II", 1, 1))
        with pytest.raises(WireProtocolError, match="index 1 outside"):
            decoder.decode_batch(out_of_range)
        empty_session = (struct.pack("!II", 1, 2) + record
                         + struct.pack("!III", 1, 0, 0))
        with pytest.raises(WireProtocolError, match="empty session"):
            decoder.decode_batch(empty_session)
        unknown_symbol = (struct.pack("!II", 1, 1)
                          + struct.pack("!dIIB", 1.0, 0, 99, 0)
                          + struct.pack("!II", 1, 0))
        with pytest.raises(WireProtocolError, match="symbol id 99"):
            decoder.decode_batch(unknown_symbol)

    def test_progress_ack_is_a_fixed_binary_record(self):
        frame = wire.progress_frame(1 << 40, 7, -math.inf)
        assert len(frame) == 5 + 24
        [(kind, payload)] = wire.FrameReader().feed(frame)
        assert kind == wire.ACK
        assert wire.decode_progress(payload) == (1 << 40, 7, -math.inf)
        with pytest.raises(WireProtocolError, match="want 24"):
            wire.decode_progress(payload[:-1])

    def test_infinite_watermark_survives_the_wire(self):
        _, payload = next(iter(
            wire.FrameReader().feed(wire.watermark_frame(math.inf))))
        assert wire.decode_watermark(payload) == math.inf


class TestShardRouter:

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ConfigurationError):
            shard_for("alice", 0)

    def test_routing_is_stable_and_hashseed_independent(self):
        # pinned values: a PYTHONHASHSEED-dependent router would break
        # replay-log recovery across coordinator restarts.
        assert shard_for("alice", 2) == shard_for("alice", 2)
        assert shard_for("192.168.0.1", 4) in range(4)
        assert shard_for("anything", 1) == 0


class TestShardedConfig:

    def test_defaults_validate(self):
        config = ShardedConfig()
        assert config.shards == 2
        assert config.on_shard_failure == "failover"

    @pytest.mark.parametrize("overrides", [
        {"shards": 0},
        {"on_shard_failure": "panic"},
        {"ack_interval": 0},
        {"lease": 0.0},
        {"replay_capacity": 8, "ack_interval": 16},
        {"max_watermark_lag": 0.0},
    ])
    def test_degenerate_configs_are_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            ShardedConfig(**overrides)

    @pytest.mark.parametrize("ack_interval, replay_capacity, expected", [
        (256, 65536, 32768), (64, 65536, 32768), (24, 64, 24),
        (16, 100, 48), (16, 16, 16), (16, 40, 16), (1, 7, 3)])
    def test_checkpoint_interval_is_half_the_log_in_ack_spans(
            self, ack_interval, replay_capacity, expected):
        config = ShardedConfig(ack_interval=ack_interval,
                               replay_capacity=replay_capacity)
        assert config.checkpoint_interval == expected


class TestShardLedger:

    def test_route_ack_retires_pending(self):
        ledger = ShardLedger(2)
        for _ in range(5):
            assert ledger.route(0)
        ledger.ack(0, 3)
        assert ledger.pending(0) == 2
        assert ledger.routed == 5 and ledger.fed == 5
        assert ledger.reconciles()

    def test_fail_moves_pending_to_replayed_once(self):
        ledger = ShardLedger(1)
        for _ in range(4):
            ledger.route(0)
        assert ledger.fail(0) == 4
        # a second failover of the same pending window moves nothing new.
        assert ledger.fail(0) == 0
        assert (ledger.routed, ledger.replayed) == (0, 4)
        assert ledger.reconciles()

    def test_shed_shard_drops_pending_and_future_events(self):
        ledger = ShardLedger(2)
        ledger.route(0)
        ledger.route(1)
        ledger.fail(1)
        assert ledger.shed_shard(1) == 1
        assert not ledger.route(1)       # future events shed on arrival
        assert ledger.shed == 2
        assert ledger.reconciles()

    def test_ack_retires_replayed_events_before_fresh_ones(self):
        ledger = ShardLedger(1)
        ledger.route(0)
        ledger.fail(0)                   # the oldest event is replayed...
        ledger.route(0)                  # ...the newer one is fresh
        ledger.ack(0, 1)
        # only the fresh event is left, so a second failover moves it.
        assert ledger.fail(0) == 1
        assert (ledger.routed, ledger.replayed) == (0, 2)
        assert ledger.shed_shard(0) == 1
        assert (ledger.replayed, ledger.shed) == (1, 1)
        assert ledger.reconciles()

    def test_overacking_is_an_execution_error(self):
        ledger = ShardLedger(1)
        ledger.route(0)
        with pytest.raises(ExecutionError):
            ledger.ack(0, 2)


def _events(first: int, last: int) -> list[wire.Event]:
    return [(float(t), "u", "/p", None, False) for t in range(first, last + 1)]


def _capsule(ordinal: int, wm_index: int, state=None) -> bytes:
    """A worker's CAP payload stamped ``[ordinal, wm_index]``."""
    [(kind, payload)] = wire.FrameReader().feed(wire.capsule_frame(
        ordinal, wm_index, {"schema": REPLAY_SCHEMA, "state": state}))
    assert kind == wire.CAP
    return payload


class TestReplayLog:

    def test_append_ack_trims_to_the_boundary(self):
        log = ReplayLog(0, capacity=8)
        for event in _events(1, 3):
            assert log.append_event(event)
        log.append_watermark(3.0)
        for event in _events(4, 5):
            assert log.append_event(event)
        assert log.event_count == 5
        capsule = _capsule(3, 1)
        assert log.checkpoint(capsule) == 3
        assert log.event_count == 2
        assert log.capsule is capsule
        assert log.stamp == (3, 1)
        assert log.recover() == (capsule, _events(4, 5))
        # a capsule at an event boundary keeps a later watermark.
        log.append_watermark(6.0)
        log.append_event(_events(6, 6)[0])
        assert log.checkpoint(_capsule(5, 1)) == 2
        assert log.recover()[1] == [6.0, _events(6, 6)[0]]

    def test_recover_returns_the_capsule_bytes(self):
        log = ReplayLog(0, capacity=8)
        assert log.recover() == (None, [])
        for event in _events(1, 2):
            log.append_event(event)
        state = {"buffers": {"u": [[1.0, "/p", None, False]]}}
        capsule = _capsule(2, 0, state)
        log.checkpoint(capsule)
        log.append_event(_events(3, 3)[0])
        kept, entries = log.recover()
        assert kept == capsule and entries == _events(3, 3)
        # the coordinator hands the bytes back as they came, behind the
        # stamp of its last ACK; the worker reads both stamps back.
        [(kind, payload)] = wire.FrameReader().feed(
            wire.resume_frame((3, 0), kept))
        assert kind == wire.CAP
        assert wire.decode_resume(payload) == (
            (3, 0), (2, 0), {"schema": REPLAY_SCHEMA, "state": state})
        [(_, payload)] = wire.FrameReader().feed(
            wire.resume_frame((1, 1), None))
        assert wire.decode_resume(payload) == ((1, 1), None, None)

    def test_a_capsule_off_the_log_is_refused(self):
        log = ReplayLog(0, capacity=8)
        for event in _events(1, 4):
            log.append_event(event)
        with pytest.raises(ExecutionError, match="past the replay log"):
            log.checkpoint(_capsule(5, 0))
        with pytest.raises(ExecutionError, match="past the replay log"):
            log.checkpoint(_capsule(2, 1))
        log.checkpoint(_capsule(3, 0))
        with pytest.raises(ExecutionError, match="behind"):
            log.checkpoint(_capsule(2, 0))
        with pytest.raises(WireProtocolError, match="stamp"):
            log.checkpoint(b"\x00" * 15)

    def test_capacity_refuses_further_events(self):
        log = ReplayLog(0, capacity=2)
        first, second, third = _events(1, 3)
        assert log.append_event(first)
        assert log.append_event(second)
        assert not log.append_event(third)
        assert log.event_count == 2


class TestStateCapsule:

    def _stream(self):
        return [Request(t * 30.0, f"u{t % 3}", f"P{t % 5}")
                for t in range(40)]

    def test_restored_pipeline_continues_identically(self):
        topology = random_site(n_pages=30, avg_out_degree=4.0, seed=1)
        governor = GovernorConfig(memory_budget=1 << 30, per_user_cap=8)
        stream = self._stream()
        reference = streaming_smart_sra(topology, governor=governor,
                                        registry=Registry())
        sessions = reference.feed_many(stream)
        sessions.extend(reference.flush())

        first = streaming_smart_sra(topology, governor=governor,
                                    registry=Registry())
        half = first.feed_many(stream[:20])
        capsule = capsule_from(first)
        second = streaming_smart_sra(topology, governor=governor,
                                     registry=Registry())
        restore_capsule(second, capsule)
        resumed = half + second.feed_many(stream[20:])
        resumed.extend(second.flush())
        assert (SessionSet(resumed).canonical_digest()
                == SessionSet(sessions).canonical_digest())
        assert second.stats() == reference.stats()


class TestShardedAudit:

    def test_more_shards_than_cores_warns(self):
        audit = audit_sharded_config(ShardedConfig(shards=512))
        assert any(level == "warn" and "CPU core" in message
                   for level, message in audit.checks)
        assert audit.ok                     # warnings stay advisory

    def test_replay_log_smaller_than_governor_budget_warns(self):
        audit = audit_sharded_config(
            ShardedConfig(shards=1, replay_capacity=256),
            GovernorConfig(memory_budget=1 << 20))
        assert any(level == "warn" and "replay capacity" in message
                   and "--replay-capacity" in message
                   for level, message in audit.checks)

    def test_shed_shard_with_blocking_governor_warns(self):
        audit = audit_sharded_config(
            ShardedConfig(shards=1, on_shard_failure="shed-shard"),
            GovernorConfig(memory_budget=1 << 20, overload_policy="block",
                           spill_dir="/tmp"))
        assert any(level == "warn" and "deadlock-prone" in message
                   for level, message in audit.checks)

    def test_benign_config_is_all_ok(self):
        audit = audit_sharded_config(
            ShardedConfig(shards=1, replay_capacity=1 << 16),
            GovernorConfig(memory_budget=1 << 10))
        assert audit.ok
        assert all(level == "ok" for level, _ in audit.checks)
        assert audit.to_dict()["ok"] is True
        assert "verdict: ok" in audit.render()

    def test_sub_poll_lease_fails(self):
        audit = audit_sharded_config(ShardedConfig(lease=0.01))
        assert not audit.ok


@pytest.fixture(scope="module")
def sharded_world():
    topology = random_site(n_pages=40, avg_out_degree=4.0, seed=11)
    requests = []
    clock = 0.0
    for i in range(400):
        clock += 7.0
        requests.append(Request(clock, f"user{i % 17}", f"P{i % 11}"))
    return topology, requests


class TestShardedRuntime:

    def _serial_digest(self, topology, requests):
        pipeline = streaming_smart_sra(
            topology, governor=GovernorConfig(memory_budget=1 << 30),
            registry=Registry())
        sessions = pipeline.feed_many(requests)
        sessions.extend(pipeline.flush())
        return SessionSet(sessions).canonical_digest()

    def test_fault_free_run_matches_serial(self, sharded_world):
        topology, requests = sharded_world
        registry = Registry()
        runtime = ShardedStreamingRuntime(
            topology, sharded=ShardedConfig(shards=2, ack_interval=16),
            registry=registry)
        result = runtime.run(requests, flush_interval=300.0)
        assert result.stats.reconciles()
        assert result.stats.fed == len(requests)
        assert result.stats.failovers == 0
        assert (result.sessions.canonical_digest()
                == self._serial_digest(topology, requests))
        assert len(result.shard_stats) == 2
        counters = registry.snapshot()["counters"]
        # progress ACKs only: 24 bytes each, and no capsule is due before
        # half the default replay capacity.
        for shard in (0, 1):
            acked = counters[f"sharded.ack.bytes{{shard={shard}}}"]
            assert acked > 0 and acked % 24 == 0
            assert f"sharded.capsule.bytes{{shard={shard}}}" not in counters

    def test_small_replay_capacity_cuts_capsules_and_bounds_the_log(
            self, sharded_world):
        topology, requests = sharded_world
        registry = Registry()
        runtime = ShardedStreamingRuntime(
            topology, sharded=ShardedConfig(shards=2, ack_interval=16,
                                            replay_capacity=40),
            registry=registry)
        result = runtime.run(requests, flush_interval=300.0)
        assert result.stats.reconciles()
        assert (result.sessions.canonical_digest()
                == self._serial_digest(topology, requests))
        snapshot = registry.snapshot()
        for shard in (0, 1):
            assert snapshot["counters"][
                f"sharded.capsule.bytes{{shard={shard}}}"] > 0
        # the log keeps only what came after the last capsule: fewer
        # events than one checkpoint interval (16 here).
        for log in runtime._logs:
            assert log.stamp[0] > 0 and log.event_count < 16

    def test_single_shard_degenerates_to_serial(self, sharded_world):
        topology, requests = sharded_world
        runtime = ShardedStreamingRuntime(
            topology, sharded=ShardedConfig(shards=1, ack_interval=16),
            registry=Registry())
        result = runtime.run(requests)
        assert (result.sessions.canonical_digest()
                == self._serial_digest(topology, requests))

    @pytest.mark.parametrize("ack_interval", [1, 64])
    def test_input_pause_longer_than_the_lease_is_not_a_wedge(
            self, ack_interval):
        # bursts separated by pauses past the lease: a worker that owed
        # nothing during a pause must not be failed over when the next
        # burst (or EOF) arrives.
        def trickle():
            for burst, start in enumerate((0.0, 30.0, 5000.0)):
                if burst:
                    time.sleep(0.7)
                for step in range(3):
                    yield Request(start + step, "u", f"P{burst}{step}")
            time.sleep(0.7)

        runtime = ShardedStreamingRuntime(
            heuristic="phase1",
            sharded=ShardedConfig(shards=1, lease=0.5,
                                  ack_interval=ack_interval),
            registry=Registry())
        result = runtime.run(trickle())
        stats = result.stats
        assert (stats.wedged, stats.failovers, stats.shed_shards) == (0, 0, 0)
        assert stats.fed == stats.routed == 9
        assert stats.sealed_sessions == 2

    def test_worker_wedged_behind_a_full_log_is_leased_out(
            self, sharded_world):
        # every routed byte is in the pipe and no EOF is due yet; only
        # the full log says the coordinator is waiting on the worker.
        from repro.faults.execution import use_execution_faults
        from repro.parallel import RetryPolicy
        topology, requests = sharded_world
        runtime = ShardedStreamingRuntime(
            topology, registry=Registry(),
            sharded=ShardedConfig(shards=1, ack_interval=8,
                                  replay_capacity=16, lease=0.5,
                                  retry=RetryPolicy(backoff_base=0.0)))
        with use_execution_faults("wedge-worker:0:20"):
            result = runtime.run(requests)
        assert (result.stats.wedged, result.stats.failovers) == (1, 1)
        assert result.stats.reconciles()
        assert (result.sessions.canonical_digest()
                == self._serial_digest(topology, requests))

    def test_requires_topology_for_smart_sra(self):
        with pytest.raises(ConfigurationError):
            ShardedStreamingRuntime(None)

    def test_rejects_unknown_heuristic(self, sharded_world):
        with pytest.raises(ConfigurationError):
            ShardedStreamingRuntime(sharded_world[0], heuristic="psychic")
