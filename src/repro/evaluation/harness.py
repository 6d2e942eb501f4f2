"""Experiment harness: simulate, reconstruct, evaluate.

The harness ties the substrates together exactly the way the paper's §5
evaluation does:

1. simulate an agent population over a topology
   (:func:`~repro.simulator.population.simulate_population`);
2. feed the resulting server log to each heuristic;
3. score every heuristic's output against the ground truth with the
   capture metric.

:func:`run_trial` performs one such experiment for one configuration;
:func:`sweep` repeats it while varying a single simulation parameter — the
shape of the paper's Figures 8-10.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.config import SmartSRAConfig
from repro.core.smart_sra import SmartSRA
from repro.evaluation.metrics import AccuracyReport, evaluate_reconstruction
from repro.exceptions import EvaluationError
from repro.obs import Registry, get_registry, use_local_registry
from repro.sessions.base import SessionReconstructor
from repro.sessions.navigation_oriented import NavigationHeuristic
from repro.sessions.time_oriented import DurationHeuristic, PageStayHeuristic
from repro.simulator.config import SimulationConfig
from repro.simulator.population import SimulationResult, simulate_population
from repro.topology.graph import WebGraph

__all__ = ["standard_heuristics", "run_trial", "sweep", "TrialResult",
           "SweepResult"]


def standard_heuristics(topology: WebGraph,
                        smart_config: SmartSRAConfig | None = None
                        ) -> dict[str, SessionReconstructor]:
    """The paper's four heuristics, keyed ``heur1`` … ``heur4``.

    Args:
        topology: the simulated site (needed by heur3 and heur4).
        smart_config: optional non-default Smart-SRA thresholds.
    """
    return {
        "heur1": DurationHeuristic(),
        "heur2": PageStayHeuristic(),
        "heur3": NavigationHeuristic(topology),
        "heur4": SmartSRA(topology, smart_config),
    }


@dataclass(frozen=True, slots=True)
class TrialResult:
    """One experiment: one simulated population, all heuristics scored.

    Attributes:
        simulation: the full simulation output (topology, ground truth,
            log, per-agent traces).  ``None`` for a trial fully restored
            from a checkpoint — the reports are intact but the raw
            simulation was deliberately not persisted (it is cheap to
            regenerate and enormous to store); rerun without ``resume``
            when the traces themselves are needed.
        reports: per-heuristic :class:`AccuracyReport`, keyed by the name
            used in the heuristics mapping.
    """

    simulation: SimulationResult | None
    reports: dict[str, AccuracyReport]

    def accuracies(self, metric: str = "matched") -> dict[str, float]:
        """Convenience view: ``{heuristic: real accuracy}``.

        Args:
            metric: ``"matched"`` (one-to-one, the headline series) or
                ``"captured"`` (any-capture).

        Raises:
            EvaluationError: for an unknown metric name.
        """
        if metric == "matched":
            return {name: report.matched_accuracy
                    for name, report in self.reports.items()}
        if metric == "captured":
            return {name: report.accuracy
                    for name, report in self.reports.items()}
        raise EvaluationError(
            f"unknown metric {metric!r}; use 'matched' or 'captured'")


def _score_heuristic(name: str, heuristic: SessionReconstructor,
                     simulation: SimulationResult,
                     engine: str = "object") -> AccuracyReport:
    """Reconstruct and score one heuristic.

    ``engine`` selects the reconstruction data plane; heuristics that do
    not declare :attr:`~repro.sessions.base.SessionReconstructor.
    supports_columnar` silently fall back to the object path (both planes
    are diffcheck-verified equivalent, so mixing them inside one trial is
    sound).
    """
    use_engine = (engine if getattr(heuristic, "supports_columnar", False)
                  else "object")
    registry = get_registry()
    with registry.span("trial.reconstruct", heuristic=name), \
            registry.timer("eval.reconstruct.seconds", heuristic=name):
        reconstructed = heuristic.reconstruct(simulation.log_requests,
                                              engine=use_engine)
    with registry.span("trial.evaluate", heuristic=name), \
            registry.timer("eval.evaluate.seconds", heuristic=name):
        return evaluate_reconstruction(
            name, simulation.ground_truth, reconstructed)


def run_trial(topology: WebGraph, config: SimulationConfig,
              heuristics: Mapping[str, SessionReconstructor] | None = None,
              cache_dir: str | None = None, *,
              engine: str = "object") -> TrialResult:
    """Simulate one population and evaluate every heuristic on its log.

    Args:
        topology: the site to simulate.
        config: simulation parameters.
        heuristics: reconstructors to score; defaults to the paper's four
            (:func:`standard_heuristics`).
        cache_dir: optional simulation disk cache
            (:func:`repro.evaluation.simcache.cached_simulation`); repeated
            trials with identical inputs skip the simulation entirely.
        engine: reconstruction data plane, ``"object"`` (default) or
            ``"columnar"``; heuristics without columnar support keep the
            object path (results are identical either way).
    """
    registry = get_registry()
    if heuristics is None:
        heuristics = standard_heuristics(topology)
    with registry.span("trial.simulate", agents=config.n_agents,
                       seed=config.seed), \
            registry.timer("eval.simulate.seconds"):
        if cache_dir is not None:
            from repro.evaluation.simcache import cached_simulation
            simulation = cached_simulation(topology, config, cache_dir)
        else:
            simulation = simulate_population(topology, config)
    reports = {name: _score_heuristic(name, heuristic, simulation,
                                      engine=engine)
               for name, heuristic in heuristics.items()}
    if registry.enabled:
        registry.counter("eval.trials").inc()
        registry.counter("eval.sessions.real").inc(
            len(simulation.ground_truth))
        for name, report in reports.items():
            registry.counter("eval.sessions.reconstructed",
                             heuristic=name).inc(report.reconstructed_count)
            registry.gauge("eval.accuracy",
                           heuristic=name).set(report.matched_accuracy)
    return TrialResult(simulation=simulation, reports=reports)


@dataclass(frozen=True, slots=True)
class SweepResult:
    """A parameter sweep: one :class:`TrialResult` per parameter value.

    Attributes:
        parameter: the swept :class:`SimulationConfig` field name.
        values: the swept values, in run order.  Points quarantined under
            a ``skip`` supervision policy are absent — :attr:`values` and
            :attr:`trials` stay aligned, and :attr:`failures` records
            what was dropped.
        trials: the corresponding trial results.
        failures: structured :class:`~repro.parallel.supervisor.
            ChunkFailure` records for points that exhausted their retry
            budget (empty without supervision).
    """

    parameter: str
    values: tuple[float, ...]
    trials: tuple[TrialResult, ...]
    failures: tuple = ()

    def series(self, metric: str = "matched") -> dict[str, list[float]]:
        """Per-heuristic accuracy series aligned with :attr:`values`.

        Args:
            metric: ``"matched"`` (default) or ``"captured"``; see
                :class:`~repro.evaluation.metrics.AccuracyReport`.
        """
        names = list(self.trials[0].reports) if self.trials else []
        return {name: [trial.accuracies(metric)[name]
                       for trial in self.trials]
                for name in names}

    def rows(self, metric: str = "matched") -> list[dict[str, float]]:
        """Row-per-value view: ``{parameter: v, heur1: a1, …}``."""
        table = []
        for value, trial in zip(self.values, self.trials):
            row: dict[str, float] = {self.parameter: value}
            row.update(trial.accuracies(metric))
            table.append(row)
        return table


def _run_sweep_point(value: float, topology: WebGraph,
                     base_config: SimulationConfig, parameter: str,
                     heuristic_factory, cache_dir: str | None,
                     engine: str = "object") -> TrialResult:
    """Run one sweep point (parallel work unit; module-level to pickle)."""
    registry = get_registry()
    config = base_config.with_(**{parameter: value})
    heuristics = (heuristic_factory() if heuristic_factory is not None
                  else None)
    with registry.span("sweep.point", parameter=parameter, value=value), \
            registry.timer("eval.sweep.point.seconds"):
        trial = run_trial(topology, config, heuristics, cache_dir=cache_dir,
                          engine=engine)
    if registry.enabled:
        registry.counter("eval.sweep.points").inc()
        for name, accuracy in trial.accuracies().items():
            registry.gauge(
                "eval.sweep.accuracy", heuristic=name,
                **{parameter: f"{value:g}"}).set(accuracy)
    return trial


def sweep(topology: WebGraph, base_config: SimulationConfig, parameter: str,
          values: Sequence[float],
          heuristic_factory=None, cache_dir: str | None = None, *,
          workers: int | None = None, engine: str = "object",
          supervision=None, checkpoint=None,
          resume: bool = False) -> SweepResult:
    """Vary one simulation parameter, evaluating all heuristics per value.

    Args:
        topology: the (fixed) site.
        base_config: configuration holding every other parameter fixed.
        parameter: name of the :class:`SimulationConfig` field to vary
            (``"stp"``, ``"lpp"`` or ``"nip"`` for the paper's figures).
        values: parameter values, run in order.
        heuristic_factory: optional ``() -> Mapping[str, reconstructor]``
            called per value; defaults to the paper's four heuristics.
            With ``workers`` it runs inside the worker processes, so it
            must pickle (a module-level function or a
            :func:`functools.partial` of one) — an unpicklable factory
            drops the pool to threads, which gain nothing under the GIL.
        cache_dir: optional simulation disk cache shared by all points.
        workers: ``None`` (default) runs the points sequentially; ``0``
            fans the points out over all usable CPUs; a positive count
            uses exactly that many processes.  Results and metric
            counters are identical either way (sweep points are
            independent trials with value-labelled gauges).  The sweep
            point is the library's only parallel unit of work.
        engine: reconstruction data plane for every point — ``"object"``
            (default) or ``"columnar"`` (heuristics without columnar
            support keep the object path; accuracies are identical).
        supervision: optional
            :class:`~repro.parallel.supervisor.RetryPolicy` — each sweep
            point becomes a supervised unit of work with crash retry,
            progress deadlines and the policy's degradation path.
        checkpoint: optional checkpoint directory (path or
            :class:`~repro.parallel.checkpoint.CheckpointStore`).  Every
            completed point is persisted (report + metrics snapshot) the
            moment it finishes, so a killed sweep loses at most the
            points in flight.
        resume: continue from an existing checkpoint, recomputing only
            the missing points.  The resumed sweep's report *and* final
            metrics snapshot equal an uninterrupted run's.  The
            checkpoint is pinned to the heuristic lineup by name, so a
            resume with a different lineup is refused.

    Raises:
        EvaluationError: for an empty value list or an unknown parameter.
        ConfigurationError: when resuming against a checkpoint written by
            a different sweep configuration.
    """
    if not values:
        raise EvaluationError("sweep requires at least one parameter value")
    if not hasattr(base_config, parameter):
        raise EvaluationError(
            f"unknown simulation parameter {parameter!r}")

    if supervision is not None or checkpoint is not None:
        return _sweep_supervised(
            topology, base_config, parameter, values, heuristic_factory,
            cache_dir, workers=workers, engine=engine,
            supervision=supervision, checkpoint=checkpoint, resume=resume)

    point = functools.partial(
        _run_sweep_point, topology=topology, base_config=base_config,
        parameter=parameter, heuristic_factory=heuristic_factory,
        cache_dir=cache_dir, engine=engine)
    if workers is None:
        trials = [point(value) for value in values]
    else:
        from repro.parallel import parallel_map

        trials = parallel_map(point, list(values), workers=workers)
    return SweepResult(parameter=parameter, values=tuple(values),
                       trials=tuple(trials))


# -- fault-tolerant execution (supervision + checkpoint/resume) ----------
#
# The supervised sweep below trades the plain path's directness for two
# properties long runs need: every completed sweep point is durable the
# moment it finishes, and each point's metrics are captured in a private
# registry snapshot that is persisted with it.  Merging the saved
# snapshots for restored points in point order is what makes a resumed
# run's final metrics equal an uninterrupted run's.


def _checkpoint_store(checkpoint):
    """Normalize the ``checkpoint`` argument (path or store or None)."""
    if checkpoint is None:
        return None
    from repro.parallel.checkpoint import CheckpointStore

    if isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(checkpoint)


def _fingerprint(document: Mapping[str, Any]) -> str:
    """Stable digest of a run configuration (pins checkpoint dirs)."""
    payload = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _passthrough_policy():
    """The no-supervision policy used when only checkpointing was asked
    for: no retries, first unrecoverable failure raises — plain-path
    failure semantics, but completed units still flush to disk."""
    from repro.parallel.supervisor import RetryPolicy

    return RetryPolicy(max_retries=0, on_failure="raise")


def _run_sweep_point_captured(value: float, topology: WebGraph,
                              base_config: SimulationConfig, parameter: str,
                              heuristic_factory, cache_dir: str | None,
                              engine: str = "object"
                              ) -> tuple[TrialResult, dict | None]:
    """Run one sweep point under a private registry; return both."""
    ambient = get_registry()
    if not ambient.enabled:
        return _run_sweep_point(value, topology, base_config, parameter,
                                heuristic_factory, cache_dir,
                                engine=engine), None
    local = Registry()
    with use_local_registry(local):
        trial = _run_sweep_point(value, topology, base_config, parameter,
                                 heuristic_factory, cache_dir,
                                 engine=engine)
    return trial, local.snapshot()


def _point_key(parameter: str, index: int, value: float) -> str:
    """The checkpoint unit key for one sweep point."""
    return f"{parameter}[{index}]={value:g}"


def _trial_payload(value: float, trial: TrialResult) -> dict[str, Any]:
    """The JSON body persisted for one completed sweep point.

    Deliberately *not* the full trial: the simulation (log, traces) is
    cheap to regenerate and enormous to store, so only the scored
    reports survive a round trip — enough for :class:`SweepResult`'s
    series, rows and accuracy views.
    """
    return {
        "value": float(value),
        "total_real": (len(trial.simulation.ground_truth)
                       if trial.simulation is not None else None),
        "reports": {name: report.to_dict()
                    for name, report in trial.reports.items()},
    }


def _trial_from_payload(payload: Mapping[str, Any]) -> TrialResult:
    """Rebuild the lite :class:`TrialResult` a checkpoint unit stores."""
    reports = {name: AccuracyReport.from_dict(data)
               for name, data in payload.get("reports", {}).items()}
    return TrialResult(simulation=None, reports=reports)


def _sweep_supervised(topology: WebGraph, base_config: SimulationConfig,
                      parameter: str, values: Sequence[float],
                      heuristic_factory, cache_dir: str | None, *,
                      workers: int | None,
                      engine: str = "object", supervision,
                      checkpoint, resume: bool) -> SweepResult:
    """:func:`sweep` with supervision and/or checkpointing active."""
    from repro.parallel.supervisor import supervised_map

    registry = get_registry()
    store = _checkpoint_store(checkpoint)
    restored: dict[int, tuple[TrialResult, dict | None]] = {}
    if store is not None:
        lineup = ("standard" if heuristic_factory is None else
                  sorted(heuristic_factory()))
        fingerprint = _fingerprint({
            "kind": "sweep",
            "parameter": parameter,
            "values": [float(value) for value in values],
            "topology": topology.fingerprint(),
            "config": dataclasses.asdict(base_config),
            "heuristics": lineup,
        })
        store.begin(fingerprint, label=f"sweep {parameter}", resume=resume)
        for index, value in enumerate(values):
            unit = store.load_unit("sweep-point",
                                   _point_key(parameter, index, value))
            if unit is not None:
                restored[index] = (_trial_from_payload(unit["payload"]),
                                   unit.get("obs"))

    todo = [(index, value) for index, value in enumerate(values)
            if index not in restored]
    point = functools.partial(
        _run_sweep_point_captured, topology=topology,
        base_config=base_config, parameter=parameter,
        heuristic_factory=heuristic_factory, cache_dir=cache_dir,
        engine=engine)

    computed: dict[int, tuple[TrialResult, dict | None]] = {}

    def record(position: int,
               result: tuple[TrialResult, dict | None]) -> None:
        index, value = todo[position]
        computed[index] = result
        if store is not None:
            store.save_unit("sweep-point",
                            _point_key(parameter, index, value),
                            _trial_payload(value, result[0]),
                            obs=result[1])

    failures: tuple = ()
    try:
        if todo:
            if workers is None:
                for position, (_, value) in enumerate(todo):
                    record(position, point(value))
            else:
                policy = (supervision if supervision is not None
                          else _passthrough_policy())
                outcome = supervised_map(
                    point, [value for _, value in todo], workers=workers,
                    chunk_size=1, policy=policy,
                    on_chunk_complete=lambda position, results:
                        record(position, results[0]))
                failures = tuple(outcome.failures)
    except BaseException:
        if store is not None:
            store.mark("interrupted")
        raise
    if store is not None:
        store.mark("complete")

    # Reassemble in point order, merging each point's metric snapshot in
    # that same order — restored or freshly computed, the ambient
    # registry ends up exactly where an uninterrupted run left it.
    kept_values: list[float] = []
    kept_trials: list[TrialResult] = []
    for index, value in enumerate(values):
        entry = restored.get(index) or computed.get(index)
        if entry is None:
            continue  # quarantined under on_failure="skip"
        trial, snapshot = entry
        if snapshot:
            registry.merge_snapshot(snapshot)
        kept_values.append(value)
        kept_trials.append(trial)
    return SweepResult(parameter=parameter, values=tuple(kept_values),
                       trials=tuple(kept_trials), failures=failures)
