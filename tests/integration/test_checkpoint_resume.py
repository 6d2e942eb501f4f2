"""Resumed runs must be indistinguishable from uninterrupted ones.

The contract under test: a sweep or population simulation that is killed
mid-run and resumed from its checkpoint directory produces the *same
numbers* — accuracy tables, traces, log records — and the *same metrics
snapshot* (counters and gauges exactly; histograms by observation count,
since timer sums measure wall-clock, not work) as a run that never died.
The same holds for a sweep whose points run on a process pool, with or
without a crashed worker: the sweep point is the library's one parallel
unit of work.
"""

from __future__ import annotations

import pytest

from repro.evaluation import harness
from repro.faults import use_execution_faults
from repro.obs import Registry, use_registry
from repro.parallel import CheckpointStore, RetryPolicy
from repro.simulator.population import SimulationConfig, simulate_population
from repro.topology.generators import random_site

VALUES = [0.3, 0.5, 0.7]


@pytest.fixture(scope="module")
def graph():
    return random_site(60, 8.0, seed=11)


def normalized(snapshot):
    """Counters/gauges verbatim; histograms reduced to observation counts."""
    return {
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": {name: series["count"]
                       for name, series in snapshot["histograms"].items()},
    }


def run_sweep(graph, **kwargs):
    registry = Registry()
    with use_registry(registry):
        result = harness.sweep(graph, SimulationConfig(n_agents=15, seed=4),
                               "stp", VALUES, **kwargs)
    return result, normalized(registry.snapshot())


def rows(result):
    return [(value, {name: (report.accuracy, report.precision,
                            report.captured, report.total_real)
                     for name, report in trial.reports.items()})
            for value, trial in zip(result.values, result.trials)]


class TestSweepResume:
    def test_interrupted_sweep_resumes_to_identical_numbers(self, tmp_path,
                                                            graph):
        baseline, base_obs = run_sweep(graph)

        ckpt = str(tmp_path / "ckpt")
        calls = {"n": 0}
        real = harness._run_sweep_point_captured

        def die_after_two(*args, **kwargs):
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real(*args, **kwargs)

        harness._run_sweep_point_captured = die_after_two
        try:
            with pytest.raises(KeyboardInterrupt):
                run_sweep(graph, checkpoint=ckpt)
        finally:
            harness._run_sweep_point_captured = real

        store = CheckpointStore(ckpt)
        assert store.read_manifest()["status"] == "interrupted"
        done = len(store.completed_units("sweep-point"))
        assert 0 < done < len(VALUES)

        resumed, resumed_obs = run_sweep(graph, checkpoint=ckpt, resume=True)
        assert store.read_manifest()["status"] == "complete"
        assert rows(resumed) == rows(baseline)
        assert resumed_obs == base_obs

    def test_fully_restored_sweep_matches_too(self, tmp_path, graph):
        baseline, base_obs = run_sweep(graph)
        ckpt = str(tmp_path / "ckpt")
        run_sweep(graph, checkpoint=ckpt)
        restored, restored_obs = run_sweep(graph, checkpoint=ckpt,
                                           resume=True)
        assert rows(restored) == rows(baseline)
        assert restored_obs == base_obs
        # restored trials carry no simulation object (it was not re-run)
        assert all(trial.simulation is None for trial in restored.trials)


class TestParallelSweep:
    def test_parallel_sweep_matches_serial(self, graph):
        baseline, base_obs = run_sweep(graph)
        parallel, parallel_obs = run_sweep(graph, workers=2)
        assert rows(parallel) == rows(baseline)
        assert parallel_obs == base_obs

    def test_crashed_point_is_retried_to_identical_numbers(self, graph):
        baseline, base_obs = run_sweep(graph)
        policy = RetryPolicy(max_retries=2, backoff_base=0.01)
        with use_execution_faults("crash-chunk:0"):
            recovered, recovered_obs = run_sweep(graph, workers=2,
                                                 supervision=policy)
        assert rows(recovered) == rows(baseline)
        assert recovered.failures == ()
        # the supervisor's recovery counters are the only extra series.
        counters = recovered_obs["counters"]
        supervisor = {name for name in counters
                      if name.startswith("parallel.supervisor.")}
        assert counters["parallel.supervisor.crashes"] >= 1
        assert counters["parallel.supervisor.retries"] >= 1
        recovered_obs["counters"] = {name: value
                                     for name, value in counters.items()
                                     if name not in supervisor}
        assert recovered_obs == base_obs

    def test_corrupted_point_is_recomputed_on_resume(self, tmp_path, graph,
                                                     monkeypatch):
        baseline, base_obs = run_sweep(graph)
        ckpt = str(tmp_path / "ckpt")
        with use_execution_faults("corrupt-checkpoint:0"):
            run_sweep(graph, checkpoint=ckpt)
        recomputed = []
        real = harness._run_sweep_point_captured

        def counting(value, *args, **kwargs):
            recomputed.append(value)
            return real(value, *args, **kwargs)

        monkeypatch.setattr(harness, "_run_sweep_point_captured", counting)
        resumed, resumed_obs = run_sweep(graph, checkpoint=ckpt, resume=True)
        assert recomputed == [VALUES[0]]
        assert rows(resumed) == rows(baseline)
        assert resumed_obs == base_obs


class TestSimulateResume:
    def test_interrupted_simulation_resumes_to_identical_traces(
            self, tmp_path, graph):
        config = SimulationConfig(n_agents=40, seed=9)
        baseline = simulate_population(graph, config)

        ckpt = str(tmp_path / "ckpt")
        simulate_population(graph, config, checkpoint=ckpt,
                            checkpoint_block=16)
        store = CheckpointStore(ckpt)
        units = store.completed_units("agent-block")
        assert len(units) == 3  # 40 agents in blocks of 16
        # lose one block: the resume must recompute exactly that block
        import os
        victim = sorted(
            name for name in os.listdir(ckpt)
            if name.startswith("agent-block") and name.endswith(".json"))[1]
        os.unlink(os.path.join(ckpt, victim))

        resumed = simulate_population(graph, config, checkpoint=ckpt,
                                      checkpoint_block=16, resume=True)
        assert resumed.traces == baseline.traces
        assert resumed.log_requests == baseline.log_requests
        assert ([list(s) for s in resumed.ground_truth.sessions]
                == [list(s) for s in baseline.ground_truth.sessions])

    def test_checkpointed_metrics_match_plain_run(self, tmp_path, graph):
        config = SimulationConfig(n_agents=30, seed=2)
        plain = Registry()
        with use_registry(plain):
            simulate_population(graph, config)
        checkpointed = Registry()
        with use_registry(checkpointed):
            simulate_population(graph, config,
                                checkpoint=str(tmp_path / "ckpt"),
                                checkpoint_block=8)
        assert (normalized(checkpointed.snapshot())
                == normalized(plain.snapshot()))
