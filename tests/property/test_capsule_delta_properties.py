"""Property tests: a shard's ACK deltas fold back into its full capsule.

A shard worker ships only ``pipeline.delta()`` in each ACK, and the
coordinator folds it into the last acked capsule.  Under random
interleavings of late, duplicate and equal-timestamp feeds, watermark
flushes, cap strikes into quarantine, global-budget eviction and spills,
the folded capsule must equal the full ``capsule_from`` cut at every ACK,
and a pipeline restored from it must finish the stream exactly as the
uninterrupted one does.
"""

from __future__ import annotations

import json
import random
import tempfile

from hypothesis import given, settings, strategies as st

from repro.sessions.model import Request, SessionSet
from repro.streaming.governor import GovernorConfig
from repro.streaming.pipeline import streaming_phase1
from repro.streaming.sharded import (capsule_from, fold_capsule,
                                     restore_capsule)


def _wire(document):
    """``document`` after a trip through the ACK frame's JSON."""
    return json.loads(json.dumps(document))


@st.composite
def interleaving(draw):
    """Feeds (some late, duplicated or tied), flushes and ACK points.

    A dense crawler phase drives cap strikes into quarantine; then the
    crawler goes quiet, so its quarantine channel and eviction watermark
    change only when other users' load moves them.
    """
    rng = random.Random(draw(st.integers(0, 10_000)))
    clock = 0.0
    last = None
    ops = []
    length = draw(st.integers(0, 200))
    crawler_until = rng.randrange(length + 1)
    for step in range(length):
        crawling = step < crawler_until
        roll = rng.random()
        if roll < 0.1:
            ops.append(("ack",))
        elif roll < 0.16:
            ops.append(("flush", clock - rng.choice((0.0, 100.0, 2000.0))))
        elif roll < 0.2 and last is not None:
            ops.append(("feed", last))                      # duplicate
        elif roll < 0.24:
            late = max(0.0, clock - rng.choice((1.0, 300.0, 5000.0)))
            ops.append(("feed", Request(late, f"u{rng.randrange(16)}",
                                        f"P{rng.randrange(5)}")))
        else:
            clock += rng.choice((0.0, 1.0, 10.0) if crawling else
                                (0.0, 1.0, 10.0, 60.0, 400.0, 2500.0))
            user = ("crawler" if crawling and rng.random() < 0.6
                    else f"u{rng.randrange(16)}")
            last = Request(clock, user, f"P{rng.randrange(5)}")
            ops.append(("feed", last))
    return ops


def _run(pipeline, ops, start=0, capsule=None):
    """Apply ``ops[start:]`` then end the stream, folding a delta into
    ``capsule`` at every ACK point not skipped for spilled users.

    Returns the emitted sessions and, per ACK, ``(op index, a copy of the
    folded capsule, sessions emitted before it)``.
    """
    emitted = []
    acks = []
    for index in range(start, len(ops)):
        op = ops[index]
        if op[0] == "feed":
            emitted += pipeline.feed(op[1])
        elif op[0] == "flush":
            emitted += pipeline.flush(op[1])
        elif not pipeline.has_spilled:
            base = (None if capsule is None
                    else [capsule["ordinal"], capsule["wm_index"]])
            delta = _wire({"base": base, "state": pipeline.delta(),
                           "metrics": {}})
            capsule = fold_capsule(capsule, delta, index, index)
            full = _wire(capsule_from(pipeline))
            assert capsule["state"] == full["state"]
            acks.append((index, _wire(capsule), len(emitted)))
    return emitted + pipeline.flush(), acks


@settings(max_examples=60, deadline=None)
@given(interleaving(), st.integers(400, 1500),
       st.sampled_from(["evict", "block"]))
def test_folded_deltas_equal_the_full_capsule_and_restore_exactly(
        ops, budget, policy):
    with tempfile.TemporaryDirectory(prefix="delta-prop-") as workdir:
        spill_dirs = iter(range(1 << 20))

        def fresh():
            governor = GovernorConfig(
                memory_budget=budget, per_user_cap=6, quarantine_after=2,
                quarantine_cap=8, overload_policy=policy,
                spill_dir=(f"{workdir}/{next(spill_dirs)}"
                           if policy == "block" else None))
            pipeline = streaming_phase1(governor=governor,
                                        late_policy="drop", dedup=True)
            pipeline.track_changes()
            return pipeline

        reference = fresh()
        emitted, acks = _run(reference, ops)
        expected = SessionSet(emitted).canonical_digest()
        for index, capsule, held in acks:
            restored = fresh()
            restore_capsule(restored, capsule)
            # the restored pipeline's own deltas fold onto that capsule.
            tail, _ = _run(restored, ops, index + 1, capsule)
            assert (SessionSet(emitted[:held] + tail).canonical_digest()
                    == expected)
            assert restored.stats() == reference.stats()
