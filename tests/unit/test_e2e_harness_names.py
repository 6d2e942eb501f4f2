"""The end-to-end benchmark reaches the library by name; keep every name.

``benchmarks/e2e`` hooks its traced layers onto library attributes named
as ``(module, attribute path)`` strings, and its in-process shard replica
looks up wire and sharding helpers the same way.  A name that stops
resolving does not fail the benchmark: the traced run reports that
layer's metrics as ``null`` and goes on.  This test fails instead, so a
rename in ``src/`` cannot silently blank a per-layer metric.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

E2E = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "benchmarks", "e2e")
if E2E not in sys.path:
    sys.path.insert(0, E2E)

import replica  # noqa: E402
import tracing  # noqa: E402


def _resolves(module_name: str, attribute: str) -> bool:
    target = importlib.import_module(module_name)
    for part in attribute.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


HOOK_TARGETS = sorted({(module, attribute)
                       for hooks in tracing.HOOKS.values()
                       for _, module, attribute, _ in hooks})


@pytest.mark.parametrize("module_name, attribute", HOOK_TARGETS)
def test_every_trace_hook_target_resolves(module_name, attribute):
    assert _resolves(module_name, attribute)


@pytest.mark.parametrize("name", replica._WIRE_NAMES)
def test_every_replica_wire_name_resolves(name):
    assert _resolves("repro.streaming.wire", name)


@pytest.mark.parametrize("module_name, attribute", [
    ("repro.streaming.sharded", "shard_for"),
    ("repro.streaming.sharded", "capsule_from"),
    ("repro.streaming.wire", "SymbolEncoder.encode_event"),
    ("repro.streaming.wire", "SymbolDecoder.decode_event"),
])
def test_replica_helpers_resolve(module_name, attribute):
    assert _resolves(module_name, attribute)


def test_a_missing_name_is_caught():
    assert not _resolves("repro.streaming.wire", "SymbolEncoder.no_such")
