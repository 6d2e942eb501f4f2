"""Unit tests for the parallel execution engine (``repro.parallel``)."""

from __future__ import annotations

import gc

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import Registry, get_registry, use_registry
from repro.parallel import (
    CHUNKS_PER_WORKER,
    ParallelPlan,
    available_cpus,
    parallel_map,
    paused_gc,
    plan_execution,
    resolve_workers,
    shard_by_key,
    shard_by_user,
)
from repro.sessions.model import Request


def _square(x):
    """Module-level so it pickles into worker processes."""
    return x * x


def _count_and_square(x):
    """Work function that also ticks the ambient metrics registry."""
    registry = get_registry()
    registry.counter("engine.test.calls").inc()
    registry.gauge("engine.test.last").set(x)
    registry.histogram("engine.test.values", (2.0, 8.0, 32.0)).observe(x)
    return x * x


class TestResolveWorkers:
    def test_none_means_serial_and_zero_means_auto(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == available_cpus()

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_plans_do_not_depend_on_the_host(self, monkeypatch, cpus):
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert available_cpus() == cpus
        assert plan_execution(16, workers=None, probe=(_square, 1)) \
            == ParallelPlan(1, "serial", 16)
        auto = plan_execution(16, workers=0, mode="thread")
        assert auto.workers == cpus
        assert auto.mode == ("serial" if cpus == 1 else "thread")

    def test_positive_is_literal(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            resolve_workers(-1)

    def test_bool_rejected(self):
        # True is an int subclass; accepting it would hide caller bugs.
        with pytest.raises(ConfigurationError, match="integer"):
            resolve_workers(True)

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            resolve_workers(2.5)


class TestPlanExecution:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown parallel mode"):
            plan_execution(10, workers=2, mode="fibers")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            plan_execution(10, workers=2, mode="thread", chunk_size=0)

    def test_single_item_short_circuits_to_serial(self):
        assert plan_execution(1, workers=8).mode == "serial"

    def test_one_worker_short_circuits_to_serial(self):
        assert plan_execution(100, workers=1).mode == "serial"

    def test_explicit_serial_mode(self):
        plan = plan_execution(100, workers=8, mode="serial")
        assert plan == ParallelPlan(1, "serial", 100)

    def test_workers_capped_by_items(self):
        plan = plan_execution(3, workers=64, mode="thread")
        assert plan.workers == 3

    def test_auto_resolves_to_process_for_picklable_probe(self):
        plan = plan_execution(32, workers=4, mode="auto",
                              probe=(_square, 1))
        assert plan.mode == "process"

    def test_auto_falls_back_to_thread_for_unpicklable_probe(self):
        plan = plan_execution(32, workers=4, mode="auto",
                              probe=(lambda x: x, 1))
        assert plan.mode == "thread"

    def test_default_chunking_targets_chunks_per_worker(self):
        plan = plan_execution(64, workers=4, mode="thread")
        n_chunks = -(-64 // plan.chunk_size)
        assert n_chunks == 4 * CHUNKS_PER_WORKER

    def test_explicit_chunk_size_honoured(self):
        assert plan_execution(64, workers=4, mode="thread",
                              chunk_size=5).chunk_size == 5


class TestParallelMap:
    @pytest.mark.parametrize("mode", ["serial", "thread", "auto"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_comprehension(self, mode, workers):
        items = list(range(37))
        assert parallel_map(_square, items, workers=workers,
                            mode=mode) == [x * x for x in items]

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_lambda_degrades_to_threads_in_auto_mode(self):
        # the lambda cannot pickle, so auto must pick the thread pool and
        # still produce the exact serial result.
        items = list(range(20))
        assert parallel_map(lambda x: x + 1, items, workers=4,
                            mode="auto") == [x + 1 for x in items]

    def test_order_preserved_with_tiny_chunks(self):
        items = list(range(50))
        assert parallel_map(_square, items, workers=4, mode="thread",
                            chunk_size=1) == [x * x for x in items]

    def test_worker_exception_propagates(self):
        def boom(x):
            raise ValueError(f"item {x}")
        with pytest.raises(ValueError, match="item"):
            parallel_map(boom, range(8), workers=2, mode="thread")

    def test_obs_merged_back_exactly(self):
        serial, parallel = Registry(), Registry()
        items = list(range(23))
        with use_registry(serial):
            expected = [_count_and_square(x) for x in items]
        with use_registry(parallel):
            got = parallel_map(_count_and_square, items, workers=4,
                               mode="thread")
        assert got == expected
        assert parallel.snapshot() == serial.snapshot()

    def test_obs_gauge_last_write_matches_serial(self):
        # chunk snapshots merge in chunk order, so the surviving gauge
        # value is the last item's — same as the serial loop.
        registry = Registry()
        with use_registry(registry):
            parallel_map(_count_and_square, range(10), workers=3,
                         mode="thread")
        series = registry.snapshot()["gauges"]
        assert series["engine.test.last"] == 9

    def test_disabled_registry_collects_nothing(self):
        registry = Registry(enabled=False)
        with use_registry(registry):
            parallel_map(_count_and_square, range(6), workers=2,
                         mode="thread")
        assert registry.snapshot()["counters"] == {}


class TestPausedGC:
    def test_disables_then_restores(self):
        assert gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with paused_gc():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_respects_caller_disabled_gc(self):
        gc.disable()
        try:
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestSharding:
    def test_shard_by_key_first_appearance_order(self):
        items = ["b1", "a1", "b2", "c1", "a2"]
        shards = shard_by_key(items, key=lambda s: s[0])
        assert shards == [["b1", "b2"], ["a1", "a2"], ["c1"]]

    def test_concatenated_shards_reorder_by_group_only(self):
        items = list(range(20))
        shards = shard_by_key(items, key=lambda x: x % 3)
        flattened = [item for shard in shards for item in shard]
        assert sorted(flattened) == items
        for shard in shards:
            assert shard == sorted(shard)

    def test_shard_by_user(self):
        requests = [Request(0.0, "u2", "A"), Request(1.0, "u1", "B"),
                    Request(2.0, "u2", "C")]
        shards = shard_by_user(requests)
        assert [[r.user_id for r in shard] for shard in shards] == \
            [["u2", "u2"], ["u1"]]
        assert [r.page for r in shards[0]] == ["A", "C"]
