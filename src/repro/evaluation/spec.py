"""Declarative experiment specifications.

A *spec* is a JSON document describing a complete experiment — topology,
simulation parameters, the heuristics to score, and optionally a parameter
sweep — so experiments are reproducible artifacts instead of shell
history.  The CLI's ``run-spec`` command executes one; programmatic users
call :func:`run_spec` directly.

Example spec::

    {
      "topology": {"family": "random", "pages": 300, "out_degree": 15,
                   "seed": 1},
      "simulation": {"n_agents": 1000, "seed": 2, "stp": 0.05,
                     "lpp": 0.3, "nip": 0.3},
      "heuristics": ["heur1", "heur2", "heur3", "heur4", "referrer"],
      "sweep": {"parameter": "lpp",
                "values": [0.0, 0.3, 0.6, 0.9]}
    }

Without ``"sweep"`` the spec runs a single trial.  Unknown keys are
rejected — a typo'd parameter name must fail loudly, not silently run the
default.
"""

from __future__ import annotations

import functools
import dataclasses
import json
from collections.abc import Mapping

from repro.core.smart_sra import Phase1Only, SmartSRA
from repro.evaluation.harness import (
    SweepResult,
    TrialResult,
    run_trial,
    sweep,
)
from repro.exceptions import EvaluationError
from repro.sessions.base import SessionReconstructor
from repro.sessions.adaptive import AdaptiveTimeoutHeuristic
from repro.sessions.maximal_paths import AllMaximalPaths
from repro.sessions.navigation_oriented import NavigationHeuristic
from repro.sessions.referrer import ReferrerHeuristic
from repro.sessions.time_oriented import DurationHeuristic, PageStayHeuristic
from repro.simulator.config import SimulationConfig
from repro.topology.generators import (
    hierarchical_site,
    power_law_site,
    random_site,
)
from repro.topology.graph import WebGraph

__all__ = ["run_spec", "load_spec", "build_topology", "build_heuristics"]

_TOPOLOGY_FAMILIES = {
    "random": (random_site, {"pages": "n_pages",
                             "out_degree": "avg_out_degree",
                             "start_fraction": "start_fraction"}),
    "hierarchical": (hierarchical_site, {"pages": "n_pages",
                                         "branching": "branching"}),
    "power-law": (power_law_site, {"pages": "n_pages",
                                   "links_per_page": "links_per_page",
                                   "start_fraction": "start_fraction"}),
}

_SPEC_KEYS = {"topology", "simulation", "heuristics", "sweep"}
_SIMULATION_FIELDS = {field.name
                      for field in dataclasses.fields(SimulationConfig)}


def load_spec(path: str) -> dict[str, object]:
    """Read a spec file; validation happens in :func:`run_spec`."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def build_topology(spec: Mapping[str, object]) -> WebGraph:
    """Materialize the ``topology`` section.

    Raises:
        EvaluationError: for an unknown family or parameter.
    """
    family = str(spec.get("family", "random"))
    entry = _TOPOLOGY_FAMILIES.get(family)
    if entry is None:
        known = ", ".join(sorted(_TOPOLOGY_FAMILIES))
        raise EvaluationError(
            f"unknown topology family {family!r}; known: {known}")
    factory, renames = entry
    kwargs: dict[str, object] = {}
    for key, value in spec.items():
        if key == "family":
            continue
        if key == "seed":
            kwargs["seed"] = value
            continue
        if key not in renames:
            raise EvaluationError(
                f"unknown topology parameter {key!r} for family {family!r}")
        kwargs[renames[key]] = value
    return factory(**kwargs)  # type: ignore[arg-type]


def build_heuristics(names: list[str], topology: WebGraph
                     ) -> dict[str, SessionReconstructor]:
    """Materialize the ``heuristics`` list.

    Raises:
        EvaluationError: for an unknown heuristic name or an empty list.
    """
    if not names:
        raise EvaluationError("spec lists no heuristics")
    constructors = {
        "heur1": lambda: DurationHeuristic(),
        "heur2": lambda: PageStayHeuristic(),
        "heur3": lambda: NavigationHeuristic(topology),
        "heur4": lambda: SmartSRA(topology),
        "phase1": lambda: Phase1Only(),
        "referrer": lambda: ReferrerHeuristic(),
        "adaptive": lambda: AdaptiveTimeoutHeuristic(),
        "amp": lambda: AllMaximalPaths(topology),
    }
    heuristics: dict[str, SessionReconstructor] = {}
    for name in names:
        constructor = constructors.get(name)
        if constructor is None:
            known = ", ".join(sorted(constructors))
            raise EvaluationError(
                f"unknown heuristic {name!r}; known: {known}")
        heuristics[name] = constructor()
    return heuristics


def run_spec(spec: Mapping[str, object]) -> TrialResult | SweepResult:
    """Execute a spec document.

    Returns:
        A :class:`SweepResult` when the spec has a ``sweep`` section, a
        single :class:`TrialResult` otherwise.

    Raises:
        EvaluationError: for unknown keys, families, parameters or
            heuristic names anywhere in the document.
    """
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise EvaluationError(
            f"unknown spec keys: {sorted(unknown)}; "
            f"allowed: {sorted(_SPEC_KEYS)}")

    topology = build_topology(spec.get("topology", {}))  # type: ignore[arg-type]

    simulation_section = spec.get("simulation", {})
    if not isinstance(simulation_section, Mapping):
        raise EvaluationError("'simulation' must be an object")
    bad_fields = set(simulation_section) - _SIMULATION_FIELDS
    if bad_fields:
        raise EvaluationError(
            f"unknown simulation parameters: {sorted(bad_fields)}")
    config = SimulationConfig(**simulation_section)  # type: ignore[arg-type]

    names = spec.get("heuristics", ["heur1", "heur2", "heur3", "heur4"])
    if not isinstance(names, list):
        raise EvaluationError("'heuristics' must be a list of names")

    sweep_section = spec.get("sweep")
    if sweep_section is None:
        return run_trial(topology, config,
                         build_heuristics(list(names), topology))
    if not isinstance(sweep_section, Mapping):
        raise EvaluationError("'sweep' must be an object")
    extra = set(sweep_section) - {"parameter", "values"}
    if extra:
        raise EvaluationError(f"unknown sweep keys: {sorted(extra)}")
    parameter = str(sweep_section.get("parameter", ""))
    values = sweep_section.get("values")
    if not isinstance(values, list) or not values:
        raise EvaluationError("'sweep.values' must be a non-empty list")
    return sweep(topology, config, parameter,
                 [float(value) for value in values],
                 heuristic_factory=functools.partial(
                     build_heuristics, list(names), topology))
