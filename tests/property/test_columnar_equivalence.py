"""Property tests: the columnar plane equals the object path everywhere.

Two equivalences, each over hypothesis-generated multi-user streams with
equal-timestamp ties and δ/ρ-boundary gaps:

* Phase-1 split boundaries (``Phase1Only``) are identical to the object
  path's;
* the full Smart-SRA columnar engine reconstructs the same canonical
  session set as the object engine — under the paper's bounds and with
  ρ and/or δ unbounded.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.core.config import SmartSRAConfig
from repro.core.smart_sra import Phase1Only, SmartSRA
from repro.sessions.model import Request
from repro.topology.generators import random_site

DELTA = 30.0 * 60.0
RHO = 10.0 * 60.0


@st.composite
def multi_user_stream(draw):
    """A stream engineered to sit on the interesting boundaries: gaps
    cluster around ρ and δ (exactly equal included), and timestamps
    repeat to exercise equal-time tie handling."""
    seed = draw(st.integers(0, 10_000))
    n_pages = draw(st.integers(2, 16))
    density = draw(st.floats(0.5, min(5.0, n_pages - 1)))
    graph = random_site(n_pages, density, start_fraction=0.5, seed=seed)
    pages = sorted(graph.pages)
    rng = random.Random(seed + 1)
    n_users = draw(st.integers(1, 4))
    requests = []
    for user in range(n_users):
        length = draw(st.integers(0, 16))
        clock = float(draw(st.integers(0, 3)))
        for __ in range(length):
            gap = draw(st.sampled_from(
                [0.0, 0.0, 1.0, 30.0, RHO - 1.0, RHO, RHO + 1.0,
                 DELTA - 1.0, DELTA, DELTA + 1.0]))
            clock += gap
            requests.append(Request(clock, f"user{user}",
                                    rng.choice(pages)))
    return graph, requests


def _canonical(sessions):
    return sorted(tuple((r.timestamp, r.user_id, r.page)
                        for r in session.requests)
                  for session in sessions)


def _boundaries(sessions):
    """Phase-1 split boundaries as (user, first-ts, length) triples."""
    return sorted((s.requests[0].user_id, s.requests[0].timestamp, len(s))
                  for s in sessions)


@settings(max_examples=80, deadline=None)
@given(multi_user_stream())
def test_phase1_split_boundaries_match_object_path(data):
    graph, requests = data
    object_sessions = Phase1Only().reconstruct(requests)
    columnar_sessions = Phase1Only().reconstruct(requests,
                                                 engine="columnar")
    assert _boundaries(columnar_sessions) == _boundaries(object_sessions)
    assert _canonical(columnar_sessions) == _canonical(object_sessions)


#: the paper's bounds, both unbounded, and ρ bounded under unbounded δ —
#: the unbounded cases exercise the Phase-2 window cap (ρ = ∞ must not
#: reach the candidate stride).
CONFIGS = (SmartSRAConfig(),
           SmartSRAConfig(max_gap=math.inf, max_duration=math.inf),
           SmartSRAConfig(max_gap=RHO, max_duration=math.inf))


@settings(max_examples=60, deadline=None)
@given(multi_user_stream(), st.sampled_from(CONFIGS))
def test_smart_sra_columnar_equals_object_canonically(data, config):
    graph, requests = data
    smart = SmartSRA(graph, config)
    assert (_canonical(smart.reconstruct(requests, engine="columnar"))
            == _canonical(smart.reconstruct(requests)))


@st.composite
def cyclic_walk_stream(draw):
    """Pong walks over a ring of 2-cycles: every page is revisitable, so
    one session legally holds the same page several times — the shape
    the random-site strategy almost never produces (``random_site``
    forbids self-loops and rarely closes a 2-cycle), and exactly where a
    Phase-2 implementation keying on pages instead of ordinals breaks."""
    seed = draw(st.integers(0, 5_000))
    n = draw(st.integers(2, 8))
    pages = [f"C{i}" for i in range(n)]
    edges = set()
    for i in range(n):
        edges.add((pages[i], pages[(i + 1) % n]))
        edges.add((pages[(i + 1) % n], pages[i]))
    from repro.topology.graph import WebGraph
    graph = WebGraph(sorted(edges), start_pages=pages[:1])
    rng = random.Random(seed + 1)
    requests = []
    position = 0
    clock = 0.0
    for __ in range(draw(st.integers(1, 24))):
        requests.append(Request(clock, "u", pages[position]))
        position = (position + rng.choice([-1, 1])) % n
        clock += draw(st.sampled_from([0.0, 30.0, RHO, RHO + 1.0]))
    return graph, requests


@settings(max_examples=80, deadline=None)
@given(cyclic_walk_stream())
def test_cyclic_revisits_columnar_equals_object(data):
    """Repeated pages inside one session (2-cycle pong, ring laps)
    reconstruct identically on the object and columnar Phase-2 planes."""
    graph, requests = data
    smart = SmartSRA(graph)
    object_sessions = smart.reconstruct(requests)
    columnar_sessions = smart.reconstruct(requests, engine="columnar")
    assert _canonical(columnar_sessions) == _canonical(object_sessions)
