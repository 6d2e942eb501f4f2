"""Agent simulator (paper §4).

Simulates web users navigating a :class:`~repro.topology.graph.WebGraph`
according to the paper's four primitive behaviors:

1. start a (new) session at a site start page (probability NIP while
   navigating),
2. follow a hyperlink from the current page,
3. navigate back through the browser cache to an earlier page of the
   session and branch from there (probability LPP),
4. terminate the session (probability STP, evaluated per request).

The simulator knows the complete client-side navigation, so it emits both
the **ground-truth sessions** and the **server-side log** (cache-served
requests removed) — the pairing that makes exact accuracy evaluation of
reactive heuristics possible.
"""

from repro.simulator.adversarial import (
    adversarial_workload,
    simulate_crawler,
    simulate_nat_pool,
)
from repro.simulator.agent import AgentTrace, simulate_agent
from repro.simulator.cache import BrowserCache
from repro.simulator.clock import StayTimeSampler
from repro.simulator.config import PAPER_SIMULATION_DEFAULTS, SimulationConfig
from repro.simulator.pages import select_content_pages
from repro.simulator.population import SimulationResult, simulate_population

__all__ = [
    "SimulationConfig",
    "PAPER_SIMULATION_DEFAULTS",
    "StayTimeSampler",
    "BrowserCache",
    "AgentTrace",
    "simulate_agent",
    "SimulationResult",
    "simulate_population",
    "simulate_crawler",
    "simulate_nat_pool",
    "adversarial_workload",
    "select_content_pages",
]
