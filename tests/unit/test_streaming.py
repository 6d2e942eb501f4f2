"""Unit tests for the streaming reconstruction pipeline."""

from __future__ import annotations

import pytest

from repro.core.config import SmartSRAConfig
from repro.exceptions import ExecutionError, ReconstructionError
from repro.sessions.model import Request
from repro.streaming.governor import GovernorConfig
from repro.streaming.pipeline import (
    StreamingReconstructor,
    streaming_phase1,
    streaming_smart_sra,
)
from repro.topology.graph import WebGraph

MIN = 60.0


@pytest.fixture()
def chain_site():
    return WebGraph([("A", "B"), ("B", "C")], start_pages=["A"])


class TestFeeding:
    def test_nothing_emitted_while_candidate_open(self, chain_site):
        pipeline = streaming_smart_sra(chain_site)
        assert pipeline.feed(Request(0.0, "u", "A")) == []
        assert pipeline.feed(Request(MIN, "u", "B")) == []
        assert pipeline.stats().buffered_requests == 2

    def test_gap_closes_candidate(self, chain_site):
        pipeline = streaming_smart_sra(chain_site)
        pipeline.feed(Request(0.0, "u", "A"))
        pipeline.feed(Request(MIN, "u", "B"))
        emitted = pipeline.feed(Request(30 * MIN, "u", "A"))
        assert [s.pages for s in emitted] == [("A", "B")]
        assert pipeline.stats().buffered_requests == 1

    def test_duration_closes_candidate(self, chain_site):
        config = SmartSRAConfig(max_duration=20 * MIN, max_gap=9 * MIN)
        pipeline = streaming_smart_sra(chain_site, config)
        for index in range(4):  # 0, 8, 16, 24 minutes
            emitted = pipeline.feed(
                Request(index * 8 * MIN, "u", "A" if index % 2 == 0
                        else "B"))
        assert emitted  # the 24-minute request exceeded δ from t=0

    def test_users_buffer_independently(self, chain_site):
        pipeline = streaming_smart_sra(chain_site)
        pipeline.feed(Request(0.0, "alice", "A"))
        pipeline.feed(Request(1.0, "bob", "A"))
        emitted = pipeline.feed(Request(30 * MIN, "alice", "B"))
        assert len(emitted) == 1
        assert emitted[0].user_id == "alice"
        assert pipeline.stats().active_users == 2

    def test_rejects_out_of_order_per_user(self, chain_site):
        pipeline = streaming_smart_sra(chain_site)
        pipeline.feed(Request(100.0, "u", "A"))
        with pytest.raises(ReconstructionError, match="out-of-order"):
            pipeline.feed(Request(50.0, "u", "B"))

    def test_rejects_negative_timestamp(self, chain_site):
        with pytest.raises(ReconstructionError, match="negative"):
            streaming_smart_sra(chain_site).feed(Request(-1.0, "u", "A"))


class TestFlush:
    def test_flush_none_drains_everything(self, chain_site):
        pipeline = streaming_smart_sra(chain_site)
        pipeline.feed(Request(0.0, "u", "A"))
        pipeline.feed(Request(MIN, "u", "B"))
        emitted = pipeline.flush()
        assert [s.pages for s in emitted] == [("A", "B")]
        assert pipeline.stats().buffered_requests == 0

    def test_watermark_only_closes_provably_dead(self, chain_site):
        pipeline = streaming_smart_sra(chain_site)
        pipeline.feed(Request(0.0, "old", "A"))
        pipeline.feed(Request(20 * MIN, "fresh", "A"))
        emitted = pipeline.flush(watermark=21 * MIN)
        assert [s.user_id for s in emitted] == ["old"]
        assert pipeline.stats().active_users == 1

    def test_watermark_at_boundary_keeps_candidate(self, chain_site):
        pipeline = streaming_smart_sra(chain_site)
        pipeline.feed(Request(0.0, "u", "A"))
        assert pipeline.flush(watermark=10 * MIN) == []  # exactly ρ: alive

    def test_stats_counters(self, chain_site):
        pipeline = streaming_smart_sra(chain_site)
        pipeline.feed(Request(0.0, "u", "A"))
        pipeline.feed(Request(MIN, "u", "B"))
        pipeline.flush()
        stats = pipeline.stats()
        assert stats.fed_requests == 2
        assert stats.emitted_sessions == 1
        assert stats.active_users == 0


class TestEquivalenceWithBatch:
    def test_streaming_equals_batch_smart_sra(self, small_site,
                                              small_simulation):
        from repro.core.smart_sra import SmartSRA
        batch = SmartSRA(small_site).reconstruct(
            small_simulation.log_requests)
        pipeline = streaming_smart_sra(small_site)
        streamed = pipeline.feed_many(small_simulation.log_requests)
        streamed.extend(pipeline.flush())
        batch_keys = sorted(
            (s.user_id, s.pages, s.start_time) for s in batch)
        stream_keys = sorted(
            (s.user_id, s.pages, s.start_time) for s in streamed)
        assert batch_keys == stream_keys

    def test_streaming_phase1_equals_batch_phase1(self, small_simulation):
        from repro.core.smart_sra import Phase1Only
        batch = Phase1Only().reconstruct(small_simulation.log_requests)
        pipeline = streaming_phase1()
        streamed = pipeline.feed_many(small_simulation.log_requests)
        streamed.extend(pipeline.flush())
        assert sorted((s.user_id, s.pages) for s in batch) == sorted(
            (s.user_id, s.pages) for s in streamed)


class TestReplayState:
    # the governed case's cap of 2 strikes and quarantines u before the
    # restore, so the state carries its eviction watermark and channel.
    @pytest.mark.parametrize("governor", [
        None, GovernorConfig(per_user_cap=2, quarantine_after=1),
    ], ids=["unbounded", "governed"])
    def test_restored_pipeline_continues_identically(self, chain_site,
                                                     governor):
        stream = [Request(0.0, "u", "A"), Request(MIN, "v", "A"),
                  Request(2 * MIN, "u", "B"), Request(3 * MIN, "u", "B"),
                  Request(40 * MIN, "v", "B"), Request(41 * MIN, "u", "C")]
        reference, first, second = (
            streaming_smart_sra(chain_site, governor=governor, dedup=True)
            for _ in range(3))
        head = first.feed_many(stream[:4]) + first.flush(15 * MIN)
        assert head                          # the watermark closed some
        second.restore(first.state())
        expected = (reference.feed_many(stream[:4])
                    + reference.flush(15 * MIN)
                    + reference.feed_many(stream[4:]) + reference.flush())
        assert (head + second.feed_many(stream[4:]) + second.flush()
                == expected)
        assert second.stats() == reference.stats()

    def test_state_refuses_a_non_empty_reorder_buffer(self, chain_site):
        pipeline = streaming_smart_sra(chain_site, reorder_window=MIN)
        pipeline.feed(Request(0.0, "u", "A"))
        with pytest.raises(ExecutionError, match="reorder buffer"):
            pipeline.state()
        pipeline.flush()
        assert pipeline.state()["emitted"] == 1


class TestCustomFinisher:
    def test_finisher_receives_whole_candidates(self):
        received = []

        def spy(candidate):
            received.append([r.page for r in candidate])
            return []

        pipeline = StreamingReconstructor(spy)
        pipeline.feed(Request(0.0, "u", "A"))
        pipeline.feed(Request(MIN, "u", "B"))
        pipeline.feed(Request(40 * MIN, "u", "C"))
        pipeline.flush()
        assert received == [["A", "B"], ["C"]]
