"""One sweep, one execution path.

Every sweep point runs through the supervised map and comes back as its
scored reports, so a serial, a parallel and a resumed sweep return the
same result, and an in-process sweep traces the same spans with or
without a checkpoint.
"""

from __future__ import annotations

from collections import Counter

from repro.evaluation.harness import sweep
from repro.obs import Registry, use_registry
from repro.obs.tracing import ListSink, Tracer
from repro.simulator.config import SimulationConfig

VALUES = [0.2, 0.6]


def span_counts(site, **kwargs) -> Counter:
    """Span names a traced in-process sweep records, with counts."""
    sink = ListSink()
    with use_registry(Registry(tracer=Tracer(sink))):
        sweep(site, SimulationConfig(n_agents=20, seed=3), "stp", VALUES,
              **kwargs)
    return Counter(record["name"] for record in sink.records
                   if record["type"] == "span")


def test_checkpointed_serial_sweep_records_every_span(small_site, tmp_path):
    spans = span_counts(small_site, checkpoint=str(tmp_path / "ckpt"))
    assert spans["sweep.point"] == 2
    assert spans["sessions.reconstruct"] == 8  # 2 points x 4 heuristics
    assert spans == span_counts(small_site)


def test_serial_parallel_and_resumed_sweeps_are_equal(small_site, tmp_path):
    config = SimulationConfig(n_agents=20, seed=3)
    ckpt = str(tmp_path / "ckpt")
    serial = sweep(small_site, config, "stp", VALUES)
    parallel = sweep(small_site, config, "stp", VALUES, workers=2,
                     checkpoint=ckpt)
    resumed = sweep(small_site, config, "stp", VALUES, checkpoint=ckpt,
                    resume=True)
    for result in (parallel, resumed):
        assert result.values == serial.values
        assert result.rows() == serial.rows()
        assert result.rows("captured") == serial.rows("captured")
        assert result.failures == serial.failures == ()
        assert result.trials == serial.trials
    assert all(trial.simulation is None for trial in serial.trials)
