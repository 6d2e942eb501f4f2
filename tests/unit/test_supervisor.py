"""Unit tests for chunk-level supervision (``repro.parallel.supervisor``)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, ExecutionError
from repro.faults import use_execution_faults
from repro.obs import Registry, use_registry
from repro.parallel import RetryPolicy, supervised_map


def _double(x):
    """Module-level so it pickles into worker processes."""
    return x * 2


def _boom(x):
    if x == 5:
        raise ValueError("deterministic bug at 5")
    return x


# a small but multi-chunk workload; chunk_size=4 gives 4 chunks.
ITEMS = list(range(16))
EXPECTED = [x * 2 for x in ITEMS]


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.on_failure == "serial"

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"deadline": 0.0},
        {"deadline": -3.0},
        {"backoff_base": -0.1},
        {"backoff_cap": -1.0},
        {"jitter": 1.5},
        {"jitter": -0.1},
        {"on_failure": "explode"},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.35, jitter=0.0)
        delays = [policy.backoff_for(0, attempt) for attempt in range(4)]
        assert delays == pytest.approx([0.1, 0.2, 0.35, 0.35])

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=10.0,
                             jitter=0.5, seed=42)
        first = policy.backoff_for(3, 1)
        assert first == policy.backoff_for(3, 1)
        assert 0.2 <= first <= 0.3
        # a different chunk/attempt/seed draws a different factor
        assert first != policy.backoff_for(4, 1)
        assert first != RetryPolicy(backoff_base=0.1, backoff_cap=10.0,
                                    jitter=0.5, seed=43).backoff_for(3, 1)


class TestSupervisedMapSerial:
    """The serial plan honors the same chunk/callback contract."""

    def test_results_and_chunking(self):
        outcome = supervised_map(_double, ITEMS, workers=None, chunk_size=4)
        assert outcome.results == EXPECTED
        assert outcome.stats.chunks == 4
        assert outcome.chunk_outputs == [EXPECTED[i:i + 4]
                                         for i in range(0, 16, 4)]
        assert outcome.failures == []

    def test_explicit_chunk_size_survives_serial_plan(self):
        # plan_execution lumps a serial plan into one chunk; checkpointed
        # callers rely on the explicit size overriding that.
        outcome = supervised_map(_double, ITEMS, workers=None, chunk_size=1)
        assert outcome.stats.chunks == 16

    def test_callback_fires_per_chunk(self):
        seen = []
        supervised_map(_double, ITEMS, workers=None, chunk_size=4,
                       on_chunk_complete=lambda i, r: seen.append((i, r)))
        assert seen == [(i, EXPECTED[4 * i:4 * i + 4]) for i in range(4)]

    def test_work_fn_error_propagates(self):
        with pytest.raises(ValueError, match="deterministic bug"):
            supervised_map(_boom, ITEMS, workers=None, chunk_size=4)


class TestSupervisedMapProcess:
    def test_clean_run_matches_serial(self):
        outcome = supervised_map(_double, ITEMS, workers=2, mode="process",
                                 chunk_size=4)
        assert outcome.results == EXPECTED
        assert outcome.stats.retries == 0
        assert outcome.stats.respawns == 0

    def test_transient_crash_recovers(self):
        with use_execution_faults("crash-chunk:1"):
            outcome = supervised_map(_double, ITEMS, workers=2,
                                     mode="process", chunk_size=4,
                                     policy=RetryPolicy(max_retries=2,
                                                        backoff_base=0.01))
        assert outcome.results == EXPECTED
        assert outcome.stats.crashes >= 1
        assert outcome.stats.respawns >= 1
        assert outcome.stats.retries >= 1
        assert outcome.failures == []

    def test_hang_trips_deadline_and_recovers(self):
        with use_execution_faults("hang-chunk:2:30"):
            outcome = supervised_map(
                _double, ITEMS, workers=2, mode="process", chunk_size=4,
                policy=RetryPolicy(max_retries=2, deadline=1.0,
                                   backoff_base=0.01))
        assert outcome.results == EXPECTED
        assert outcome.stats.deadline_hits >= 1
        assert outcome.failures == []

    def test_hard_crash_degrades_serial(self):
        # attempts=5 > max_retries, so the chunk exhausts its budget and
        # the serial fallback (where worker faults cannot fire) saves it.
        # Pairing the crash with a short slow-chunk delay keeps the test
        # deterministic: chunks 0-2 (trivial work) complete before chunk 3
        # crashes, so the BrokenProcessPool dooms no innocent chunk.
        with use_execution_faults("slow-chunk:3:0.4:6", "crash-chunk:3:0:6"):
            outcome = supervised_map(
                _double, ITEMS, workers=2, mode="process", chunk_size=4,
                policy=RetryPolicy(max_retries=1, backoff_base=0.01,
                                   on_failure="serial"))
        assert outcome.results == EXPECTED
        assert outcome.stats.degraded_serial == 1
        [failure] = outcome.failures
        assert failure.chunk_index == 3
        assert failure.reason == "crash"
        assert failure.resolution == "serial"
        assert failure.attempts == 2
        assert failure.to_dict()["resolution"] == "serial"

    def test_hard_crash_skip_quarantines(self):
        with use_execution_faults("slow-chunk:3:0.4:6", "crash-chunk:3:0:6"):
            outcome = supervised_map(
                _double, ITEMS, workers=2, mode="process", chunk_size=4,
                policy=RetryPolicy(max_retries=0, backoff_base=0.01,
                                   on_failure="skip"))
        assert outcome.results == EXPECTED[:12]
        assert outcome.chunk_outputs[3] is None
        assert outcome.chunk_outputs[:3] == [EXPECTED[i:i + 4]
                                             for i in range(0, 12, 4)]
        assert outcome.stats.skipped == 1
        [failure] = outcome.failures
        assert failure.resolution == "skipped"
        assert failure.item_offset == 12
        assert failure.n_items == 4

    @pytest.mark.parametrize("on_failure", ["serial", "skip"])
    def test_crash_is_not_charged_to_a_healthy_chunk_in_flight(
            self, on_failure):
        # chunk 0 is still running (slowed) when chunk 1 kills the pool.
        # Only chunk 1 may be charged, retried and degraded; chunk 0's
        # results must survive under every failure policy.
        with use_execution_faults("slow-chunk:0:0.5:99",
                                  "crash-chunk:1:0:99"):
            outcome = supervised_map(
                _double, range(8), workers=2, mode="process", chunk_size=4,
                policy=RetryPolicy(max_retries=1, backoff_base=0.01,
                                   on_failure=on_failure))
        [failure] = outcome.failures
        assert failure.chunk_index == 1
        assert failure.reason == "crash"
        assert failure.attempts == 2
        assert outcome.chunk_outputs[0] == [0, 2, 4, 6]
        if on_failure == "serial":
            assert outcome.results == [x * 2 for x in range(8)]
        else:
            assert outcome.results == [0, 2, 4, 6]

    def test_hard_crash_raise_aborts(self):
        with use_execution_faults("crash-chunk:0:0:5"):
            with pytest.raises(ExecutionError, match="chunk"):
                supervised_map(
                    _double, ITEMS, workers=2, mode="process", chunk_size=4,
                    policy=RetryPolicy(max_retries=0, backoff_base=0.01,
                                       on_failure="raise"))

    def test_work_fn_error_propagates_not_retried(self):
        with pytest.raises(ValueError, match="deterministic bug"):
            supervised_map(_boom, ITEMS, workers=2, mode="process",
                           chunk_size=4)


class TestSupervisorObservability:
    def test_zero_fault_run_publishes_no_supervisor_series(self):
        registry = Registry()
        with use_registry(registry):
            supervised_map(_double, ITEMS, workers=None, chunk_size=4)
        names = set(registry.snapshot()["counters"])
        assert not any(name.startswith("parallel.supervisor")
                       for name in names)

    def test_faulty_run_publishes_nonzero_counters(self):
        registry = Registry()
        with use_registry(registry):
            with use_execution_faults("crash-chunk:1"):
                supervised_map(_double, ITEMS, workers=2, mode="process",
                               chunk_size=4,
                               policy=RetryPolicy(max_retries=2,
                                                  backoff_base=0.01))
        counters = registry.snapshot()["counters"]
        crashes = [value for name, value in counters.items()
                   if name.startswith("parallel.supervisor.crashes")]
        assert crashes and crashes[0] >= 1


class TestSupervisorTraceAttribution:
    def _traced_registry(self):
        from repro.obs.tracing import ListSink, Tracer
        sink = ListSink()
        return Registry(tracer=Tracer(sink)), sink

    def test_direct_execution_spans_carry_chunk_and_attempt(self):
        from repro.obs import build_span_forest
        registry, sink = self._traced_registry()
        with use_registry(registry):
            with registry.span("cli.reconstruct"):
                supervised_map(_double, ITEMS, workers=None,
                               chunk_size=4)
        roots = build_span_forest(sink.records)
        chunk_spans = [node for root in roots for node in root.walk()
                       if node.name == "parallel.chunk"]
        assert [span.attrs["chunk"] for span in chunk_spans] \
            == [0, 1, 2, 3]
        assert all(span.attrs["attempt"] == 0 for span in chunk_spans)
        assert chunk_spans[0].display_name \
            == "parallel.chunk[chunk=0,attempt=0]"

    def test_process_mode_records_lifecycle_events_parent_side(self):
        registry, sink = self._traced_registry()
        with use_registry(registry):
            with registry.span("cli.reconstruct"):
                supervised_map(_double, ITEMS, workers=2,
                               mode="process", chunk_size=4)
        events = [record for record in sink.records
                  if record["type"] == "event"
                  and record["name"] == "parallel.chunk.complete"]
        assert sorted(event["attrs"]["chunk"] for event in events) \
            == [0, 1, 2, 3]

    def test_degraded_serial_respawn_is_attributable(self):
        """A chunk that exhausts retries and degrades to serial leaves a
        parent-side span whose attempt counter distinguishes the re-run
        from the first attempt (the ISSUE's retry-attribution check)."""
        registry, sink = self._traced_registry()
        with use_registry(registry):
            with use_execution_faults("crash-chunk:1:0:99"):
                supervised_map(_double, ITEMS, workers=2,
                               mode="process", chunk_size=4,
                               policy=RetryPolicy(max_retries=1,
                                                  backoff_base=0.01,
                                                  on_failure="serial"))
        retries = [record for record in sink.records
                   if record["type"] == "event"
                   and record["name"] == "parallel.chunk.retry"]
        assert any(event["attrs"]["chunk"] == 1 for event in retries)
        degraded = [record for record in sink.records
                    if record["type"] == "span"
                    and record["name"] == "parallel.chunk"
                    and record["attrs"].get("degraded") == "serial"]
        assert len(degraded) == 1
        assert degraded[0]["attrs"]["chunk"] == 1
        assert degraded[0]["attrs"]["attempt"] >= 1
