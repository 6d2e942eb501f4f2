"""Property tests: engine equivalence and invariant compliance.

For random multi-user request streams — interleaved users, equal
timestamps, boundary-magnitude gaps — the serial, columnar and streaming
execution paths must produce canonically identical session sets, and
everything Smart-SRA emits must satisfy the paper's five output rules.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import SmartSRAConfig
from repro.core.smart_sra import SmartSRA
from repro.diffcheck import verify_sessions
from repro.sessions.model import Request, SessionSet
from repro.streaming.pipeline import streaming_smart_sra
from repro.topology.generators import random_site

RHO = 600.0
DELTA = 1800.0


@st.composite
def adversarial_stream(draw):
    """A boundary-heavy multi-user stream plus its topology."""
    seed = draw(st.integers(0, 4000))
    graph = random_site(draw(st.integers(3, 10)), 2.5, start_fraction=0.5,
                        seed=seed)
    pages = sorted(graph.pages)
    rng = random.Random(seed + 13)
    requests = []
    for user in range(draw(st.integers(1, 4))):
        clock = float(rng.choice([0, 1, 100]))
        for _ in range(draw(st.integers(0, 12))):
            requests.append(Request(clock, f"u{user}", rng.choice(pages)))
            # gaps concentrated on the thresholds and on exact ties.
            clock += rng.choice([0.0, 0.0, 1.0, 30.0, RHO, RHO,
                                 RHO + 1e-6, DELTA - RHO, 250.0])
    requests.sort()
    return graph, tuple(requests)


def _canonical(sessions):
    return SessionSet(list(sessions)).canonical_form()


@settings(max_examples=40, deadline=None)
@given(adversarial_stream())
def test_serial_columnar_streaming_agree(data):
    graph, requests = data
    config = SmartSRAConfig(max_duration=DELTA, max_gap=RHO)
    serial = SmartSRA(graph, config).reconstruct(requests)
    columnar = SmartSRA(graph, config).reconstruct(requests,
                                                   engine="columnar")
    pipeline = streaming_smart_sra(graph, config)
    streamed = pipeline.feed_many(requests)
    streamed.extend(pipeline.flush())
    assert _canonical(serial) == _canonical(columnar)
    assert _canonical(serial) == _canonical(streamed)


@settings(max_examples=40, deadline=None)
@given(adversarial_stream())
def test_smart_sra_output_satisfies_invariants(data):
    graph, requests = data
    config = SmartSRAConfig(max_duration=DELTA, max_gap=RHO)
    sessions = SmartSRA(graph, config).reconstruct(requests)
    assert verify_sessions(sessions, graph, config) == ()


@settings(max_examples=25, deadline=None)
@given(adversarial_stream(), st.integers(0, 2**20))
def test_bounded_reorder_restores_canonical_output(data, shuffle_seed):
    """A seeded, time-bounded shuffle must not change the session set."""
    graph, requests = data
    config = SmartSRAConfig(max_duration=DELTA, max_gap=RHO)
    window = RHO / 2
    rng = random.Random(shuffle_seed)
    shuffled: list[Request] = []
    block: list[Request] = []
    for request in requests:
        if block and request.timestamp - block[0].timestamp > window:
            rng.shuffle(block)
            shuffled.extend(block)
            block = []
        block.append(request)
    rng.shuffle(block)
    shuffled.extend(block)

    serial = SmartSRA(graph, config).reconstruct(requests)
    pipeline = streaming_smart_sra(graph, config, reorder_window=window)
    streamed = pipeline.feed_many(shuffled)
    streamed.extend(pipeline.flush())
    assert _canonical(streamed) == _canonical(serial)
    assert pipeline.stats().late_dropped == 0
