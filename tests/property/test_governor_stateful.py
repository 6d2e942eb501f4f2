"""Stateful property test of the memory governor.

A hypothesis state machine drives one governed pipeline through generated
interleavings of feeds (new, equal-timestamp, late and duplicate
requests), watermark flushes, a terminal flush, ``mem-pressure`` budget
drops and ``state()`` -> ``restore()`` restarts, under ``evict`` and
``block`` with a small budget and per-user cap.  After every step:

* the ledger reconciles;
* tracked bytes equal the priced buffered and quarantined requests;
* after every feed (and so after every rebalance) tracked bytes sit at or
  below the high watermark of the effective budget, which the
  ``governor.budget_bytes`` gauge reports;
* every quarantined user holds an eviction watermark, and after a flush
  no other user holds one at or below the flushed watermark;
* the users a feed evicted or spilled are the oldest-idle ones, by
  ``(tail timestamp, user id)`` over the buffers the rebalance saw;
* after a restart, the restored pipeline emits exactly what the original
  does on every later step.

The default profile is sized for the tier-1 suite; set
``GOVERNOR_STATEFUL_PROFILE=deep`` for more and longer runs.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.faults.execution import use_execution_faults
from repro.obs import Registry
from repro.sessions.model import Request
from repro.streaming import streaming_phase1
from repro.streaming.governor import GovernorConfig, request_cost

USERS = ("a", "b", "c", "d")
PAGES = ("P1", "P2", "P3")
#: event-time steps, mostly short so candidates grow into caps and
#: budgets, some around ρ (600 s) and past δ (1800 s) so they also close
#: on both rules.
GAPS = (0.5, 1.0, 1.0, 30.0, 599.0, 601.0, 1900.0)
#: one request costs 75 B here, so these budgets hold 6 to 24 of them.
BUDGETS = (450, 900, 1800)

settings.register_profile("governor-fast", max_examples=30,
                          stateful_step_count=50, deadline=None)
settings.register_profile("governor-deep", max_examples=500,
                          stateful_step_count=100, deadline=None)
PROFILE = settings.get_profile(
    "governor-" + os.environ.get("GOVERNOR_STATEFUL_PROFILE", "fast"))


def _rows(sessions):
    return [(s.user_id, tuple((r.timestamp, r.page) for r in s))
            for s in sessions]


class GovernorMachine(RuleBasedStateMachine):
    #: parent directory of the per-pipeline spill directories.
    spill_root = ""

    @initialize(policy=st.sampled_from(["evict", "block"]),
                budget=st.sampled_from(BUDGETS))
    def start(self, policy, budget):
        self.governor = GovernorConfig(
            memory_budget=budget, per_user_cap=4, overload_policy=policy,
            quarantine_after=2, quarantine_cap=6,
            spill_dir=self.spill_root if policy == "block" else None)
        self.pressure: list[tuple[int, float]] = []
        self.ordinal = 0         # feed calls, the fault clock
        self.clock = 0.0         # newest event time fed
        self.last: dict[str, Request] = {}
        self.pipeline, self.registry = self._build()
        self.shadow = None       # the pipeline the last restart copied

    def _build(self, source=None):
        """A fresh pipeline under every armed fault, restored from
        ``source``'s state when given; each gets its own spill dir."""
        governor = self.governor
        if governor.spill_dir is not None:
            governor = dataclasses.replace(
                governor, spill_dir=tempfile.mkdtemp(dir=self.spill_root))
        registry = Registry()
        faults = [f"mem-pressure:{index}:{factor}"
                  for index, factor in self.pressure]
        with use_execution_faults(*faults):
            pipeline = streaming_phase1(governor=governor, registry=registry,
                                        late_policy="drop", dedup=True)
        if source is not None:
            pipeline.restore(source.state())
            assert pipeline.stats() == source.stats()
        return pipeline, registry

    def _budget(self) -> int:
        budget = self.governor.memory_budget
        for index, factor in self.pressure:
            if self.ordinal >= index:
                budget = min(budget, max(1, int(self.governor.memory_budget
                                                * factor)))
        return budget

    def _feed(self, request):
        user, pipeline = request.user_id, self.pipeline
        tails = {other: buffer[-1].timestamp
                 for other, buffer in pipeline._buffers.items()}
        strikes = pipeline.stats().cap_strikes
        watermark = pipeline._evict_watermarks.get(user)
        restoring = user in pipeline._spilled
        self.ordinal += 1
        emitted = pipeline.feed(request)
        if self.shadow is not None:
            assert _rows(self.shadow.feed(request)) == _rows(emitted)
        self.clock = max(self.clock, request.timestamp)
        self.last[user] = request
        # A rebalance takes buffers oldest-idle first, by (tail, user)
        # when it starts.  Nothing else takes another user's buffer; the
        # fed user's tail is its new request's unless the request was
        # dropped, closed a quarantine channel or struck the cap.  A
        # spilled user's request first rebalances without that user, to
        # make room for its restore, so the check leaves it out.
        tails.pop(user, None)
        victims = [(tail, other) for other, tail in tails.items()
                   if other not in pipeline._buffers]
        if restoring:
            pass
        elif user in pipeline._buffers:
            tails[user] = pipeline._buffers[user][-1].timestamp
        elif user in pipeline._spilled:
            tails[user] = pipeline._spilled[user][2]
            victims.append((tails[user], user))
        elif (user not in pipeline._quarantine
              and pipeline.stats().cap_strikes == strikes
              and pipeline._evict_watermarks.get(user) != watermark):
            tails[user] = pipeline._evict_watermarks[user]
            victims.append((tails[user], user))
        order = sorted((tail, other) for other, tail in tails.items())
        assert sorted(victims) == order[:len(victims)], (order, victims)
        assert (pipeline.stats().tracked_bytes
                <= self._budget() * self.governor.high_watermark)

    @rule(user=st.sampled_from(USERS), page=st.sampled_from(PAGES),
          gap=st.sampled_from(GAPS))
    def feed_new(self, user, page, gap):
        self._feed(Request(self.clock + gap, user, page))

    @rule(user=st.sampled_from(USERS), page=st.sampled_from(PAGES))
    def feed_equal_timestamp(self, user, page):
        self._feed(Request(self.clock, user, page))

    @rule(user=st.sampled_from(USERS), page=st.sampled_from(PAGES),
          back=st.sampled_from(GAPS))
    def feed_late(self, user, page, back):
        self._feed(Request(max(0.0, self.clock - back), user, page))

    @precondition(lambda self: self.last)
    @rule(data=st.data())
    def feed_duplicate(self, data):
        user = data.draw(st.sampled_from(sorted(self.last)))
        self._feed(self.last[user])

    @rule(offset=st.sampled_from((-100.0, 0.0, 300.0, 700.0)))
    def flush_watermark(self, offset):
        emitted = self.pipeline.flush(self.clock - offset)
        if self.shadow is not None:
            assert (_rows(self.shadow.flush(self.clock - offset))
                    == _rows(emitted))
        floor = self.pipeline._flush_watermark
        assert all(mark > floor or user in self.pipeline._quarantine
                   for user, mark in self.pipeline._evict_watermarks.items())

    @precondition(lambda self: self.ordinal >= 15)
    @rule()
    def flush_end_of_stream(self):
        emitted = self.pipeline.flush()
        if self.shadow is not None:
            assert _rows(self.shadow.flush()) == _rows(emitted)
        stats = self.pipeline.stats()
        assert stats.tracked_bytes == stats.buffered_requests == 0
        assert stats.spilled_requests == stats.quarantine_buffered == 0
        assert self.pipeline._evict_watermarks == {}

    @precondition(lambda self: not self.pipeline.has_spilled)
    @rule(factor=st.sampled_from((0.25, 0.5, 0.75)))
    def mem_pressure(self, factor):
        # the budget drops from the next feed on; a restart re-arms the
        # fault plan, so both pipelines restart under it.
        self.pressure.append((self.ordinal + 1, factor))
        if self.shadow is not None:
            self.shadow = self._build(self.shadow)[0]
        self.pipeline, self.registry = self._build(self.pipeline)

    @precondition(lambda self: not self.pipeline.has_spilled)
    @rule()
    def restart(self):
        self.shadow = self.pipeline
        self.pipeline, self.registry = self._build(self.pipeline)

    @invariant()
    def tracked_state_is_priced_and_reconciled(self):
        stats = self.pipeline.stats()
        assert stats.reconciles(), stats
        priced = sum(request_cost(request)
                     for held in (self.pipeline._buffers,
                                  self.pipeline._quarantine)
                     for requests in held.values()
                     for request in requests)
        assert stats.tracked_bytes == priced
        assert self.registry.value("governor.budget_bytes") == self._budget()
        if self.shadow is not None:
            assert self.shadow.stats() == stats

    @invariant()
    def quarantined_users_are_watermarked(self):
        assert (self.pipeline._quarantine.keys()
                <= self.pipeline._evict_watermarks.keys())


def test_governor_state_machine(tmp_path):
    class Machine(GovernorMachine):
        spill_root = str(tmp_path)

    run_state_machine_as_test(Machine, settings=PROFILE)
