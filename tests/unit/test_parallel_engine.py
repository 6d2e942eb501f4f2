"""Unit tests for the parallel execution engine (``repro.parallel``).

:func:`~repro.parallel.supervisor.supervised_map` is the library's one
parallel map; the tests below run it on the real process pool unless
they check the in-process path.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import Registry, get_registry, use_registry
from repro.parallel import (
    CHUNKS_PER_WORKER,
    available_cpus,
    paused_gc,
    resolve_workers,
    supervised_map,
)


def _square(x):
    """Module-level so it pickles into worker processes."""
    return x * x


def _pid(_x):
    """The id of the process that ran the item."""
    return os.getpid()


def _boom(x):
    raise ValueError(f"item {x}")


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
        assert resolve_workers(0) == cpus
        # serial is one chunk, in-process, whatever the host
        assert supervised_map(_pid, range(16), workers=None).stats.chunks \
            == 1

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
    """How ``supervised_map`` shapes a run: chunks, pool, in-process."""

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            supervised_map(_square, range(10), workers=2, chunk_size=0)

    def test_single_item_short_circuits_to_serial(self):
        assert supervised_map(_pid, [0], workers=8).results \
            == [os.getpid()]

    def test_one_worker_short_circuits_to_serial(self):
        outcome = supervised_map(_pid, range(100), workers=1)
        assert outcome.results == [os.getpid()] * 100

    def test_explicit_serial_mode(self):
        # workers=None is the library's explicit request for serial: one
        # chunk, run in-process.
        outcome = supervised_map(_pid, range(100), workers=None)
        assert outcome.stats.chunks == 1
        assert outcome.results == [os.getpid()] * 100

    def test_picklable_work_runs_on_processes(self):
        pids = supervised_map(_pid, range(8), workers=2,
                              chunk_size=1).results
        assert os.getpid() not in pids

    def test_auto_falls_back_to_thread_for_unpicklable_probe(self,
                                                             monkeypatch):
        # Named for the removed thread fallback: work whose first item
        # does not pickle now falls back to the in-process loop, and no
        # process pool is ever built for it.
        import concurrent.futures

        built = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *a, **k: built.append(k))
        outcome = supervised_map(lambda x: os.getpid(), range(32),
                                 workers=4)
        assert built == []
        assert outcome.results == [os.getpid()] * 32
        assert outcome.stats.chunks == 4 * CHUNKS_PER_WORKER

    def test_workers_capped_by_items(self, monkeypatch):
        import concurrent.futures

        real = concurrent.futures.ProcessPoolExecutor
        sizes = []

        def recording(max_workers):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recording)
        assert supervised_map(_square, range(3), workers=8,
                              chunk_size=1).results == [0, 1, 4]
        assert sizes == [3]

    def test_default_chunking_targets_chunks_per_worker(self):
        outcome = supervised_map(_square, range(64), workers=2)
        assert outcome.stats.chunks == 2 * CHUNKS_PER_WORKER

    def test_explicit_chunk_size_honoured(self):
        outcome = supervised_map(_square, range(64), workers=2,
                                 chunk_size=5)
        assert outcome.stats.chunks == 13
        assert outcome.results == [x * x for x in range(64)]


class TestParallelMap:
    """``supervised_map`` as a map: output, errors and metrics."""

    @pytest.mark.parametrize("path", ["serial", "thread", "auto"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_comprehension(self, monkeypatch, path, workers):
        # The ids keep the names of the removed modes; each now covers
        # the route that takes over that mode's work: "serial" a host
        # where no process pool can be brought up, "thread" unpicklable
        # work (both in-process), "auto" picklable work on the pool.
        fn = _square
        if path == "serial":
            import concurrent.futures

            def no_pool(*args, **kwargs):
                raise OSError("no process pool on this host")

            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                                no_pool)
        elif path == "thread":
            fn = lambda x: x * x  # noqa: E731 - must not pickle
        items = list(range(37))
        assert supervised_map(fn, items, workers=workers).results \
            == [x * x for x in items]

    def test_serial_request_matches_comprehension(self):
        items = list(range(37))
        assert supervised_map(_square, items, workers=None).results \
            == [x * x for x in items]

    def test_empty_input(self):
        outcome = supervised_map(_square, [], workers=4)
        assert outcome.results == []
        assert outcome.stats.chunks == 0

    def test_lambda_degrades_to_threads_in_auto_mode(self):
        # Named for the removed thread fallback: a lambda cannot pickle,
        # so the chunks run in the parent and still produce the exact
        # serial result.
        items = list(range(20))
        outcome = supervised_map(lambda x: (os.getpid(), x + 1), items,
                                 workers=4)
        assert outcome.results == [(os.getpid(), x + 1) for x in items]

    def test_order_preserved_with_tiny_chunks(self):
        items = list(range(50))
        assert supervised_map(_square, items, workers=4,
                              chunk_size=1).results \
            == [x * x for x in items]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="item"):
            supervised_map(_boom, range(8), workers=2)

    def test_obs_merged_back_exactly(self):
        serial, parallel = Registry(), Registry()
        items = list(range(23))
        with use_registry(serial):
            expected = [_count_and_square(x) for x in items]
        with use_registry(parallel):
            got = supervised_map(_count_and_square, items,
                                 workers=4).results
        assert got == expected
        assert parallel.snapshot() == serial.snapshot()

    def test_obs_gauge_last_write_matches_serial(self):
        # chunk snapshots merge in chunk order, so the surviving gauge
        # value is the last item's — same as the serial loop.
        registry = Registry()
        with use_registry(registry):
            supervised_map(_count_and_square, range(10), workers=3)
        series = registry.snapshot()["gauges"]
        assert series["engine.test.last"] == 9

    def test_disabled_registry_collects_nothing(self):
        registry = Registry(enabled=False)
        with use_registry(registry):
            supervised_map(_count_and_square, range(6), workers=2)
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
