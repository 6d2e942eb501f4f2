"""The streaming resource governor: budgets, policies, spill, quarantine."""

from __future__ import annotations

import json
import os

import pytest

from repro.exceptions import (
    ConfigurationError,
    ExecutionError,
    LateEventError,
    OverloadError,
)
from repro.obs import Registry
from repro.sessions.model import Request, Session
from repro.simulator.adversarial import adversarial_workload
from repro.streaming import (
    StreamingReconstructor,
    streaming_phase1,
    streaming_smart_sra,
)
from repro.streaming.governor import (
    GovernorConfig,
    SpillStore,
    audit_overload_config,
    parse_memory_budget,
    request_cost,
)
from repro.topology.generators import random_site


def _attributes(pipeline):
    """Every attribute ``pipeline`` has set (it has slots, not a
    ``__dict__``)."""
    return {name: getattr(pipeline, name)
            for name in StreamingReconstructor.__slots__
            if hasattr(pipeline, name)}


def _signature(sessions):
    return sorted((s.user_id, s.pages, s.start_time) for s in sessions)


def _drain(pipeline, requests):
    sessions = pipeline.feed_many(requests)
    sessions.extend(pipeline.flush())
    return sessions


# -- sizes and costs ---------------------------------------------------------


class TestParseMemoryBudget:
    def test_plain_bytes(self):
        assert parse_memory_budget(65536) == 65536
        assert parse_memory_budget("4096") == 4096

    def test_binary_suffixes(self):
        assert parse_memory_budget("64k") == 64 * 1024
        assert parse_memory_budget("8M") == 8 * 1024 * 1024
        assert parse_memory_budget("2g") == 2 * 1024 ** 3
        assert parse_memory_budget("1.5k") == 1536

    @pytest.mark.parametrize("bad", ["", "abc", "12q", "k"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_memory_budget(bad)

    @pytest.mark.parametrize("bad", ["0", "-4k", 0, -1])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="positive"):
            parse_memory_budget(bad)


class TestRequestCost:
    def test_deterministic_model(self):
        plain = Request(0.0, "u1", "A")
        assert request_cost(plain) == 72 + 2 + 1
        with_referrer = Request(0.0, "u1", "A", referrer="BB")
        assert request_cost(with_referrer) == 72 + 2 + 1 + 2

    def test_cost_is_platform_independent_of_timestamp(self):
        assert (request_cost(Request(0.0, "u", "P"))
                == request_cost(Request(1e9, "u", "P")))


# -- configuration validation ------------------------------------------------


class TestGovernorConfig:
    def test_defaults_are_valid(self):
        config = GovernorConfig()
        assert config.overload_policy == "evict"

    @pytest.mark.parametrize("kwargs,match", [
        (dict(memory_budget=0), "memory_budget"),
        (dict(per_user_cap=1), "per_user_cap"),
        (dict(overload_policy="panic"), "overload_policy"),
        (dict(low_watermark=0.9, high_watermark=0.5), "watermarks"),
        (dict(low_watermark=0.0), "watermarks"),
        (dict(high_watermark=1.5), "watermarks"),
        (dict(overload_policy="block"), "requires spill_dir"),
        (dict(overload_policy="evict", spill_dir="/tmp/x"),
         "only used by"),
        (dict(quarantine_after=0), "quarantine_after"),
        (dict(quarantine_cap=1), "quarantine_cap"),
    ])
    def test_invalid_configurations_rejected(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            GovernorConfig(**kwargs)


# -- pass-through ------------------------------------------------------------


class TestPassThrough:
    def test_unpressured_governor_is_byte_identical(self):
        topology = random_site(40, 4.0, seed=5)
        requests = adversarial_workload(
            topology, crawlers=1, crawler_requests=60, nat_pools=1,
            humans_per_pool=4, normal_agents=3, seed=5)
        plain = _drain(streaming_smart_sra(topology), requests)
        governed_pipeline = streaming_smart_sra(
            topology, governor=GovernorConfig(memory_budget=1 << 30))
        governed = _drain(governed_pipeline, requests)
        assert _signature(governed) == _signature(plain)
        stats = governed_pipeline.stats()
        assert stats.reconciles()
        assert stats.evictions == 0
        assert stats.shed_requests == 0
        assert stats.peak_tracked_bytes > 0

    def test_bookkeeping_is_bounded_by_the_buffered_state(self):
        # 50 000 requests from 5 users, one second apart: every candidate
        # closes on δ long before the cap or the budget binds.
        pipeline = streaming_phase1(governor=GovernorConfig(),
                                    registry=Registry())
        for step in range(50_000):
            pipeline.feed(Request(float(step), f"u{step % 5}", "P1"))
        stats = pipeline.stats()
        assert stats.evictions == stats.cap_strikes == 0
        assert stats.closed_requests > 45_000
        bound = stats.active_users + stats.buffered_requests
        sizes = {name: len(value)
                 for name, value in _attributes(pipeline).items()
                 if isinstance(value, (list, dict))}
        assert "_buffers" in sizes and "_user_bytes" in sizes
        assert all(size <= bound for size in sizes.values()), (sizes, bound)

    def test_factory_returns_governed_variant(self):
        pipeline = streaming_phase1(governor=GovernorConfig())
        assert pipeline.governor is not None
        assert streaming_phase1().governor is None


# -- evict policy ------------------------------------------------------------


class TestEvictPolicy:
    def test_watermark_eviction_is_deterministic(self):
        # cost("uN", one-char page) = 75; budget 300: high 270, low 210.
        governor = GovernorConfig(memory_budget=300)
        pipeline = streaming_phase1(governor=governor)
        for index, user in enumerate(["u1", "u2", "u3"]):
            pipeline.feed(Request(float(index), user, "A"))
        assert pipeline.stats().evictions == 0
        sessions = pipeline.feed(Request(3.0, "u4", "A"))
        stats = pipeline.stats()
        # u1 and u2 (oldest idle) were force-finished down to the low
        # watermark; their candidates came out as sessions.
        assert stats.evictions == 2
        assert stats.evicted_requests == 2
        assert sorted(s.user_id for s in sessions) == ["u1", "u2"]
        assert stats.tracked_bytes <= 210
        assert stats.reconciles()

    def test_peak_stays_bounded_under_adversarial_load(self):
        topology = random_site(40, 4.0, seed=5)
        requests = adversarial_workload(
            topology, crawlers=2, crawler_requests=150, nat_pools=1,
            humans_per_pool=6, normal_agents=4, seed=5)
        governor = GovernorConfig(memory_budget=4096, per_user_cap=16,
                                  quarantine_after=2, quarantine_cap=32)
        pipeline = streaming_smart_sra(topology, governor=governor,
                                       late_policy="drop")
        _drain(pipeline, requests)
        stats = pipeline.stats()
        assert stats.peak_tracked_bytes <= 4096
        assert stats.evictions > 0
        assert stats.reconciles()

    def test_eviction_watermark_boundary(self):
        governor = GovernorConfig(memory_budget=300)
        pipeline = streaming_phase1(governor=governor)
        pipeline.feed(Request(0.0, "u1", "A"))
        pipeline.feed(Request(10.0, "u1", "B"))
        for index, user in enumerate(["u2", "u3", "u4"]):
            pipeline.feed(Request(11.0 + index, user, "A"))
        assert pipeline.stats().evictions > 0   # u1 went first
        # a request exactly AT the evicted tail is legal (tie rule) ...
        pipeline.feed(Request(10.0, "u1", "C"))
        # ... and one strictly before it is late.
        with pytest.raises(LateEventError, match="force-finished"):
            pipeline.feed(Request(9.0, "u1", "D"))

    def test_eviction_late_event_dropped_under_drop_policy(self):
        governor = GovernorConfig(memory_budget=300)
        pipeline = streaming_phase1(governor=governor, late_policy="drop")
        pipeline.feed(Request(0.0, "u1", "A"))
        pipeline.feed(Request(10.0, "u1", "B"))
        for index, user in enumerate(["u2", "u3", "u4"]):
            pipeline.feed(Request(11.0 + index, user, "A"))
        before = pipeline.stats().late_dropped
        assert pipeline.feed(Request(9.0, "u1", "D")) == []
        stats = pipeline.stats()
        assert stats.late_dropped == before + 1
        assert stats.reconciles()

    def test_eviction_watermarks_follow_live_users(self):
        """Soak: 20 000 users, each struck at the per-user cap (every
        1000th into quarantine), flushed every 100 users at a watermark
        trailing the stream by 60 s.  After each flush the eviction
        watermarks cover no more users than are buffered or quarantined,
        however many users were ever evicted."""
        governor = GovernorConfig(memory_budget=16384, per_user_cap=2)
        pipeline = streaming_phase1(governor=governor, late_policy="drop")
        clock, peak = 0.0, 0
        for user in range(20_000):
            for _ in range(9 if user % 1000 == 0 else 3):
                clock += 2.0
                pipeline.feed(Request(clock, f"u{user}", "A"))
                peak = max(peak, len(pipeline._evict_watermarks))
            if user % 100 == 99:
                pipeline.flush(clock - 60.0)
                live = len(pipeline._buffers) + len(pipeline._quarantine)
                assert len(pipeline._evict_watermarks) <= live, user
        stats = pipeline.stats()
        assert stats.evictions >= 20_000
        assert len(pipeline._quarantine) == 20
        assert peak < 300       # a flush interval's users, not every user
        pipeline.flush()
        assert pipeline._evict_watermarks == {}
        assert pipeline.stats().reconciles()


# -- shed / raise policies ---------------------------------------------------


class TestShedPolicy:
    def test_sheds_instead_of_growing(self):
        governor = GovernorConfig(memory_budget=300,
                                  overload_policy="shed")
        pipeline = streaming_phase1(governor=governor)
        for index in range(10):
            pipeline.feed(Request(float(index), f"u{index}", "A"))
        stats = pipeline.stats()
        assert stats.shed_requests > 0
        assert stats.fed_requests == 10      # shed requests count as fed
        assert stats.tracked_bytes <= 300
        assert stats.reconciles()

    def test_shed_never_refuses_a_natural_closure(self):
        # a request that closes its user's candidate by the gap rule
        # frees more than it costs — it must be admitted even at budget.
        governor = GovernorConfig(memory_budget=160,
                                  overload_policy="shed")
        pipeline = streaming_phase1(governor=governor)
        pipeline.feed(Request(0.0, "u1", "A"))
        pipeline.feed(Request(1.0, "u1", "B"))
        sessions = pipeline.feed(Request(5000.0, "u1", "C"))
        stats = pipeline.stats()
        assert stats.shed_requests == 0
        assert [s.pages for s in sessions] == [("A", "B")]
        assert stats.reconciles()


class TestRaisePolicy:
    def test_raises_typed_overload_error(self):
        governor = GovernorConfig(memory_budget=300,
                                  overload_policy="raise")
        pipeline = streaming_phase1(governor=governor)
        for index in range(4):
            pipeline.feed(Request(float(index), f"u{index}", "A"))
        with pytest.raises(OverloadError, match="over the 300-byte"):
            pipeline.feed(Request(9.0, "u9", "A"))
        # accepted state is untouched: the ledger still reconciles and
        # the stream keeps working after a flush makes room.
        assert pipeline.stats().reconciles()
        pipeline.flush(6000.0)
        pipeline.feed(Request(6000.0, "u9", "A"))
        assert pipeline.stats().reconciles()


# -- spill store and block policy --------------------------------------------


class TestSpillStore:
    def test_round_trip_preserves_requests(self, tmp_path):
        store = SpillStore(str(tmp_path))
        requests = (Request(1.0, "u", "A", referrer="B"),
                    Request(2.0, "u", "C", synthetic=True))
        path = store.spill("u", requests)
        assert os.path.exists(path)
        assert store.pending() == 1
        assert store.restore("u") == requests
        assert store.pending() == 0          # restore consumes the file

    def test_missing_user_restores_none(self, tmp_path):
        assert SpillStore(str(tmp_path)).restore("ghost") is None

    def test_corrupted_payload_is_rejected(self, tmp_path):
        store = SpillStore(str(tmp_path))
        path = store.spill("u", (Request(1.0, "u", "A"),))
        document = json.loads(open(path, encoding="utf-8").read())
        document["requests"][0][1] = "tampered"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert store.restore("u") is None
        assert store.pending() == 0          # damaged files are removed

    def test_foreign_schema_is_rejected(self, tmp_path):
        store = SpillStore(str(tmp_path))
        path = store.spill("u", (Request(1.0, "u", "A"),))
        document = json.loads(open(path, encoding="utf-8").read())
        document["schema"] = 999
        document["digest"] = None
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert store.restore("u") is None


class TestBlockPolicy:
    def _governor(self, tmp_path, budget=800):
        return GovernorConfig(memory_budget=budget,
                              overload_policy="block",
                              spill_dir=str(tmp_path / "spill"))

    def test_spills_cold_buffers_and_restores_them(self, tmp_path):
        pipeline = streaming_phase1(governor=self._governor(tmp_path))
        for index in range(12):
            pipeline.feed(Request(float(index), f"u{index % 5}", "A"))
        mid = pipeline.stats()
        assert mid.spill_writes > 0
        assert mid.peak_tracked_bytes <= 800
        # the spilled users come back transparently on their next request
        for index in range(12, 24):
            pipeline.feed(Request(float(index), f"u{index % 5}", "A"))
        pipeline.flush()
        stats = pipeline.stats()
        assert stats.spill_restores > 0
        assert stats.spill_lost == 0
        assert stats.spilled_requests == 0   # drained at end of stream
        assert stats.reconciles()
        assert SpillStore(str(tmp_path / "spill")).pending() == 0

    def test_spilled_requests_are_not_lost(self, tmp_path):
        pipeline = streaming_phase1(governor=self._governor(tmp_path))
        fed = [Request(float(i), f"u{i % 6}", "A") for i in range(30)]
        sessions = _drain(pipeline, fed)
        stats = pipeline.stats()
        assert stats.reconciles()
        emitted = sum(len(s.requests) for s in sessions)
        assert emitted == len(fed)           # every request reaches output

    def test_disk_corruption_is_counted_not_trusted(self, tmp_path):
        governor = self._governor(tmp_path)
        pipeline = streaming_phase1(governor=governor)
        for index in range(12):
            pipeline.feed(Request(float(index), f"u{index % 5}", "A"))
        store = SpillStore(governor.spill_dir)
        stats = pipeline.stats()
        assert stats.spill_writes > 0
        for name in os.listdir(governor.spill_dir):
            with open(os.path.join(governor.spill_dir, name), "w",
                      encoding="utf-8") as handle:
                handle.write("{not json")
        assert store.pending() > 0
        pipeline.flush()
        stats = pipeline.stats()
        assert stats.spill_lost > 0
        assert stats.reconciles()            # the loss is accounted

    def test_restore_flushes_quarantine_to_stay_in_budget(self, tmp_path):
        # two quarantined crawlers fill their side channels while "c" is
        # cold on disk; making room for c's restore must flush a channel
        # when no open candidate is left to spill or evict.
        governor = GovernorConfig(
            memory_budget=2048, per_user_cap=8, quarantine_after=2,
            quarantine_cap=16, overload_policy="block",
            spill_dir=str(tmp_path / "spill"))
        pipeline = streaming_phase1(governor=governor, registry=Registry())
        stream = [Request(0.0, "c", f"P{i}") for i in range(7)]
        for user in ("q1", "q2"):
            stream += [Request(0.0, user, f"P{i % 6}") for i in range(27)]
        stream.append(Request(0.0, "c", "P7"))
        pipeline.feed_many(stream)
        stats = pipeline.stats()
        assert stats.spill_restores == 1 and stats.quarantined_users == 2
        assert stats.quarantine_flushes >= 1
        assert stats.peak_tracked_bytes <= 2048
        assert stats.reconciles()


# -- quarantine --------------------------------------------------------------


class TestQuarantine:
    def _pipeline(self):
        governor = GovernorConfig(memory_budget=1 << 20, per_user_cap=4,
                                  quarantine_after=2, quarantine_cap=6)
        return streaming_phase1(governor=governor)

    def test_repeat_cap_offender_is_quarantined(self):
        pipeline = self._pipeline()
        for index in range(8):               # two cap strikes of 4
            pipeline.feed(Request(float(index), "bot", "A"))
        stats = pipeline.stats()
        assert stats.cap_strikes == 2
        assert stats.quarantined_users == 1
        for index in range(8, 11):
            pipeline.feed(Request(float(index), "bot", "A"))
        stats = pipeline.stats()
        assert stats.quarantine_buffered == 3
        assert stats.reconciles()

    def test_quarantine_channel_flushes_at_cap(self):
        pipeline = self._pipeline()
        sessions = []
        for index in range(8 + 6):
            sessions.extend(pipeline.feed(Request(float(index), "bot", "A")))
        stats = pipeline.stats()
        assert stats.quarantine_flushes == 1
        assert stats.quarantine_buffered == 0
        assert stats.quarantined_users == 1  # channel reopens, still jailed
        assert stats.reconciles()

    def test_flushed_chunks_respect_per_user_cap(self):
        # a quarantine flush must never hand the finisher a candidate
        # longer than per_user_cap (finisher cost is superlinear).
        seen = []
        governor = GovernorConfig(memory_budget=1 << 20, per_user_cap=4,
                                  quarantine_after=1, quarantine_cap=12)
        pipeline = StreamingReconstructor(
            lambda candidate: seen.append(len(candidate)) or [],
            governor=governor)
        for index in range(40):
            pipeline.feed(Request(float(index), "bot", "A"))
        pipeline.flush()
        assert seen and max(seen) <= 4

    def test_end_of_stream_drains_quarantine(self):
        pipeline = self._pipeline()
        for index in range(11):
            pipeline.feed(Request(float(index), "bot", "A"))
        assert pipeline.stats().quarantine_buffered > 0
        sessions = pipeline.flush()
        stats = pipeline.stats()
        assert stats.quarantine_buffered == 0
        assert stats.quarantined_users == 0
        assert stats.reconciles()
        assert sum(len(s.requests) for s in sessions) > 0

    def test_quarantined_stream_ordering_still_enforced(self):
        pipeline = self._pipeline()
        for index in range(9):
            pipeline.feed(Request(float(index), "bot", "A"))
        # t=7.5 clears the eviction watermark (7.0) but lands behind the
        # quarantine channel's tail (8.0): the channel enforces its own
        # ordering contract.
        with pytest.raises(LateEventError, match="quarantined"):
            pipeline.feed(Request(7.5, "bot", "B"))
        # behind the eviction watermark itself is late too, earlier check.
        with pytest.raises(LateEventError, match="force-finished"):
            pipeline.feed(Request(6.0, "bot", "B"))


# -- replay state ------------------------------------------------------------


class TestReplayState:
    """``state()`` must cover every attribute that events can change."""

    @staticmethod
    def _stream():
        stream = []
        for step in range(40):               # a never-idle crawler
            stream.append(Request(step * 2.0, "crawler", f"P{step % 7}"))
        for step in range(60):               # many users, tight budget
            stream.append(Request(100.0 + step, f"u{step % 15}",
                                  f"P{step % 5}"))
        stream.append(Request(200.0, "u0", "P9"))
        stream.append(Request(200.0, "u0", "P9"))      # duplicate
        stream.append(Request(199.0, "u0", "P1"))      # late for u0
        return stream

    def _drive(self, pipeline):
        for request in self._stream():
            pipeline.feed(request)

    @pytest.mark.parametrize("governor", [
        None,
        GovernorConfig(memory_budget=1500, per_user_cap=8,
                       quarantine_after=2, quarantine_cap=64),
    ], ids=["unbounded", "governed"])
    def test_every_changed_attribute_is_declared_state(self, governor):
        registry = Registry()

        def finisher(candidate):
            return [Session(candidate)]

        def build():
            return StreamingReconstructor(
                finisher, governor=governor, late_policy="drop", dedup=True,
                registry=registry)

        fresh, driven = build(), build()
        self._drive(driven)
        stats = driven.stats()
        assert stats.late_dropped and stats.duplicates_dropped
        if governor is not None:
            assert stats.quarantined_users and stats.quarantine_buffered
            assert stats.evictions > stats.cap_strikes > 0  # global eviction
        before, after = _attributes(fresh), _attributes(driven)
        assert before.keys() == after.keys()
        changed = {name for name in after if after[name] != before[name]}
        declared = {"_" + key for key in driven.state()}
        # nothing is derived: the eviction order is read from _buffers;
        # _reorder and _spilled are empty by state()'s precondition.
        assert changed - declared == set()
        assert not driven._reorder and not driven._spilled

    def test_state_shares_no_object_with_the_pipeline(self):
        pipeline = streaming_phase1(governor=GovernorConfig(),
                                    registry=Registry())
        pipeline.feed(Request(0.0, "u", "P1"))
        state = pipeline.state()
        state["buffers"]["u"][0][1] = "mutated"
        state["user_bytes"]["u"] = 99
        assert pipeline.state() != state
        restored = streaming_phase1(governor=GovernorConfig(),
                                    registry=Registry())
        restored.restore(state)
        state["buffers"]["u"].clear()
        assert restored.state()["buffers"]["u"][0][1] == "mutated"

    def test_state_refuses_spilled_users(self, tmp_path):
        pipeline = streaming_phase1(governor=GovernorConfig(
            memory_budget=600, overload_policy="block",
            spill_dir=str(tmp_path)), registry=Registry())
        for step in range(12):
            pipeline.feed(Request(float(step), f"u{step}", "P1"))
        assert pipeline.stats().spilled_requests
        with pytest.raises(ExecutionError, match="spilled"):
            pipeline.state()


# -- mem-pressure fault ------------------------------------------------------


class TestMemPressureFault:
    def test_armed_fault_shrinks_the_effective_budget(self):
        from repro.faults.execution import use_execution_faults
        requests = [Request(float(i), f"u{i}", "A") for i in range(12)]
        governor = GovernorConfig(memory_budget=600)
        with use_execution_faults("mem-pressure:0:0.5"):
            pressured = streaming_phase1(governor=governor)
            pressured.feed_many(requests)
        relaxed = streaming_phase1(governor=governor)
        relaxed.feed_many(requests)
        assert (pressured.stats().evictions
                > relaxed.stats().evictions)
        # effective budget is 300; admission may transiently overshoot
        # the high watermark by at most one request before rebalancing.
        assert (pressured.stats().peak_tracked_bytes
                <= 300 + request_cost(requests[-1]))
        assert pressured.stats().reconciles()


# -- overload selftest (repro chaos --overload-selftest) ---------------------


class TestOverloadSelftest:
    def test_selftest_is_bounded_and_reconciles(self):
        from repro.faults import run_overload_selftest
        result = run_overload_selftest(
            ["mem-pressure:500:0.5", "burst:800:96"], budget=48 * 1024,
            seed=0)
        assert result["bounded"]
        assert result["reconciled"]
        assert result["invariant_clean"]
        assert result["stats"]["peak_tracked_bytes"] <= 48 * 1024


# -- configuration audit (repro doctor) --------------------------------------


class TestOverloadAudit:
    def test_sane_configuration_passes(self):
        audit = audit_overload_config(
            GovernorConfig(memory_budget=64 * 1024, per_user_cap=64))
        assert audit.ok
        assert "verdict: ok" in audit.render()
        assert audit.to_dict()["ok"] is True

    def test_cap_swallowing_the_budget_fails(self):
        audit = audit_overload_config(
            GovernorConfig(memory_budget=4096, per_user_cap=512))
        assert not audit.ok
        assert any(level == "FAIL" and "per_user_cap" in message
                   for level, message in audit.checks)

    def test_tiny_budget_warns(self):
        audit = audit_overload_config(
            GovernorConfig(memory_budget=4096, per_user_cap=8))
        assert any(level == "warn" and "64KiB" in message
                   for level, message in audit.checks)

    def test_unwritable_spill_dir_fails(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("a file, not a directory")
        audit = audit_overload_config(GovernorConfig(
            memory_budget=1 << 20, overload_policy="block",
            spill_dir=str(blocker / "sub")))
        assert not audit.ok
        assert any("not writable" in message
                   for _, message in audit.checks)

    def test_writable_spill_dir_passes(self, tmp_path):
        audit = audit_overload_config(GovernorConfig(
            memory_budget=1 << 20, overload_policy="block",
            spill_dir=str(tmp_path / "spill")))
        assert audit.ok
