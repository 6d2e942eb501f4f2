"""Property tests: the governor's ledger always reconciles, its budget
always binds, an unpressured governor never changes output, and a
``state()`` -> ``restore()`` round trip never changes it either."""

from __future__ import annotations

import json
import random
import tempfile

from hypothesis import given, settings, strategies as st

from repro.exceptions import OverloadError
from repro.sessions.model import Request, SessionSet
from repro.streaming.governor import GovernorConfig, request_cost
from repro.streaming.pipeline import streaming_phase1, streaming_smart_sra
from repro.topology.generators import random_site


@st.composite
def bursty_stream(draw):
    """A time-sorted multi-user stream with adversarial density: some
    users fire far faster than ρ, so caps and watermarks engage."""
    seed = draw(st.integers(0, 5000))
    rng = random.Random(seed + 1)
    n_requests = draw(st.integers(0, 80))
    n_users = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.floats(0.0, 90.0), min_size=n_requests,
                         max_size=n_requests))
    clock = 0.0
    requests = []
    for gap in gaps:
        clock += gap
        requests.append(Request(clock, f"u{rng.randint(0, n_users - 1)}",
                                f"P{rng.randint(0, 5)}"))
    return requests


POLICY = st.sampled_from(["evict", "shed", "raise", "block"])


def _pipeline_for(policy, workdir, **overrides):
    kwargs = dict(memory_budget=2048, per_user_cap=8,
                  quarantine_after=2, quarantine_cap=16,
                  overload_policy=policy)
    kwargs.update(overrides)
    if policy == "block":
        kwargs["spill_dir"] = workdir
    return streaming_phase1(governor=GovernorConfig(**kwargs),
                            late_policy="drop")


@settings(max_examples=60, deadline=None)
@given(bursty_stream(), POLICY)
def test_ledger_reconciles_at_every_step(requests, policy):
    """fed == buffered + spilled + quarantined + closed + evicted + shed
    (+ spill_lost) after every feed and after every flush."""
    with tempfile.TemporaryDirectory(prefix="governor-prop-") as workdir:
        pipeline = _pipeline_for(policy, workdir)
        for request in requests:
            try:
                pipeline.feed(request)
            except OverloadError:
                pass                       # 'raise' refuses; state intact
            stats = pipeline.stats()
            assert stats.reconciles(), stats
        pipeline.flush()
        stats = pipeline.stats()
        assert stats.reconciles(), stats
        assert stats.fed_requests == (
            stats.buffered_requests + stats.spilled_requests
            + stats.quarantine_buffered + stats.closed_requests
            + stats.evicted_requests + stats.shed_requests
            + stats.spill_lost)


@settings(max_examples=60, deadline=None)
@given(bursty_stream(), POLICY)
def test_tracked_bytes_never_exceed_the_budget(requests, policy):
    """With one-request headroom under the high watermark (the doctor
    audit's requirement), peak tracked state stays under the budget."""
    with tempfile.TemporaryDirectory(prefix="governor-prop-") as workdir:
        pipeline = _pipeline_for(policy, workdir)
        for request in requests:
            try:
                pipeline.feed(request)
            except OverloadError:
                pass
        stats = pipeline.stats()
        assert stats.peak_tracked_bytes <= 2048, stats
        pipeline.flush()
        assert pipeline.stats().peak_tracked_bytes <= 2048


@settings(max_examples=60, deadline=None)
@given(bursty_stream(), POLICY)
def test_no_request_vanishes_without_a_counter(requests, policy):
    """Every fed request either reaches an emitted session or is named
    by a degradation counter — nothing is silently lost."""
    with tempfile.TemporaryDirectory(prefix="governor-prop-") as workdir:
        pipeline = _pipeline_for(policy, workdir)
        sessions = []
        for request in requests:
            try:
                sessions.extend(pipeline.feed(request))
            except OverloadError:
                pass
        sessions.extend(pipeline.flush())
        stats = pipeline.stats()
        emitted = sum(len(s.requests) for s in sessions)
        assert emitted == (stats.closed_requests + stats.evicted_requests
                           - stats.spill_lost) or stats.spill_lost == 0
        assert emitted + stats.shed_requests + stats.spill_lost \
            == stats.fed_requests


@settings(max_examples=40, deadline=None)
@given(bursty_stream())
def test_unpressured_governor_is_a_pure_pass_through(requests):
    """A governor whose budget is never hit must not change a byte of
    output relative to the ungoverned pipeline."""
    pages = sorted({r.page for r in requests}) or ["P0"]
    graph = random_site(max(3, len(pages)), 2.5, seed=7)
    site_pages = sorted(graph.pages)
    mapped = [Request(r.timestamp, r.user_id,
                      site_pages[int(r.page[1:]) % len(site_pages)])
              for r in requests]
    plain = streaming_smart_sra(graph)
    governed = streaming_smart_sra(
        graph, governor=GovernorConfig(memory_budget=1 << 30))
    a = plain.feed_many(mapped) + plain.flush()
    b = governed.feed_many(mapped) + governed.flush()
    key = lambda sessions: sorted(
        (s.user_id, s.pages, s.start_time) for s in sessions)
    assert key(a) == key(b)
    assert governed.stats().evictions == 0
    assert governed.stats().reconciles()


@settings(max_examples=60, deadline=None)
@given(bursty_stream())
def test_request_cost_covers_every_admitted_request(requests):
    """tracked_bytes is exactly the sum of costs of what is buffered."""
    pipeline = _pipeline_for("evict", None,
                             memory_budget=1 << 30, per_user_cap=1 << 20,
                             quarantine_cap=1 << 20)
    pipeline.feed_many(requests)
    stats = pipeline.stats()
    expected = sum(request_cost(r) for buffer
                   in pipeline._buffers.values() for r in buffer)
    assert stats.tracked_bytes == expected


@st.composite
def tied_stream(draw):
    """Several users per timestamp, so eviction victims tie on idle
    time and the tie-break decides who is force-finished."""
    rng = random.Random(draw(st.integers(0, 5000)))
    clock = 0.0
    requests = []
    for _ in range(draw(st.integers(0, 120))):
        if rng.random() < 0.3:
            clock += rng.choice((1.0, 10.0, 400.0))
        requests.append(Request(clock, f"u{rng.randrange(8)}",
                                f"P{rng.randrange(5)}"))
    return requests


@settings(max_examples=60, deadline=None)
@given(tied_stream(), st.integers(600, 1500), st.data())
def test_restore_matches_the_uninterrupted_run_under_eviction(
        requests, budget, data):
    """Capture at a random split point, restore (through JSON, as the
    sharded runtime ships it) into a fresh pipeline, and finish: output
    and ledger equal the uninterrupted run's, eviction included."""
    split = data.draw(st.integers(0, len(requests)))
    governor = GovernorConfig(memory_budget=budget, per_user_cap=16,
                              quarantine_after=2, quarantine_cap=16)

    def fresh():
        return streaming_phase1(governor=governor, late_policy="drop",
                                dedup=True)

    reference = fresh()
    expected = reference.feed_many(requests) + reference.flush()
    first = fresh()
    resumed = first.feed_many(requests[:split])
    second = fresh()
    second.restore(json.loads(json.dumps(first.state())))
    resumed += second.feed_many(requests[split:]) + second.flush()
    assert (SessionSet(resumed).canonical_digest()
            == SessionSet(expected).canonical_digest())
    assert second.stats() == reference.stats()
