"""Resource governance for the streaming pipeline.

Real traffic breaks the assumptions the incremental reconstructor makes
(Meiss et al., "What's in a Session"): crawlers never go idle, so their
Phase-1 candidate never closes; NAT and proxy IPs aggregate thousands of
humans behind one user key; session lengths are heavy-tailed.  An
unbounded :class:`~repro.streaming.pipeline.StreamingReconstructor`
therefore grows per-user buffers without bound — the failure mode is an
OOM kill, which loses *everything*.

Given a :class:`GovernorConfig` as its ``governor``, the same pipeline
bounds tracked state under an explicit byte budget with four observable
degradation modes instead:

* **eviction** — when tracked bytes cross the high watermark, the
  oldest-idle users are force-finished (their open candidates go through
  the normal finisher, so the early sessions are invariant-clean) until
  the low watermark is reached.  Evicted requests are flagged in
  :class:`~repro.streaming.pipeline.StreamingStats`, never silently
  dropped.
* **spill-to-disk** (``overload_policy="block"``) — cold user buffers are
  written to a :class:`SpillStore` (the atomic temp-file + ``os.replace``
  and SHA-256 integrity idiom of :mod:`repro.parallel.checkpoint`) and
  restored transparently on the user's next request.  A corrupt spill is
  detected, counted as lost, and never trusted.
* **quarantine** — a user whose buffer repeatedly hits ``per_user_cap``
  (the crawler signature) is routed to a bounded side channel with its
  own accounting; the channel is flushed through the finisher whenever it
  fills, so pathological users get bounded memory *and* keep their data.
* **shedding / hard failure** (``overload_policy="shed"`` / ``"raise"``)
  — admission control: a request whose acceptance would exceed the budget
  is counted and dropped, or raises a typed
  :class:`~repro.exceptions.OverloadError`; accepted state is never
  rewritten.

Every transition is threaded through :mod:`repro.obs` (the
``governor.*`` catalog) and reconciled in
:meth:`~repro.streaming.pipeline.StreamingStats.reconciles`: nothing is
ever silently lost.  When the budget is never hit, governed output is
byte-identical to the unbounded (and batch) output — enforced by the
``streaming-governed`` diffcheck engine; when it is hit, output remains
invariant-clean — enforced by ``streaming-evicting``.

This module holds the configuration, the spill store, the cost model and
the ``repro doctor`` audit; the pipeline applies them.

Example::

    governor = GovernorConfig(memory_budget=parse_memory_budget("8m"),
                              overload_policy="evict")
    pipeline = streaming_smart_sra(topology, governor=governor)
    for request in tail_the_log():
        handle(pipeline.feed(request))
    handle(pipeline.flush())
    assert pipeline.stats().reconciles()
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ConfigurationError
from repro.obs import ConfigAudit, snapshot_digest
from repro.parallel.checkpoint import atomic_write_json
from repro.sessions.model import Request

__all__ = [
    "OVERLOAD_POLICIES",
    "SPILL_SCHEMA",
    "GovernorConfig",
    "SpillStore",
    "audit_overload_config",
    "parse_memory_budget",
    "request_cost",
]

#: the recognized backpressure/shedding policies, in documentation order.
OVERLOAD_POLICIES = ("block", "evict", "shed", "raise")

#: version of the on-disk spill layout; bumped on incompatible changes so
#: stale spill files are counted lost rather than misread.
SPILL_SCHEMA = 1

#: fixed per-request overhead charged by :func:`request_cost`, bytes.
#: Approximates the CPython object + buffer-slot footprint of one
#: :class:`~repro.sessions.model.Request`, but is deliberately a model
#: constant, not ``sys.getsizeof``: budgets must mean the same thing on
#: every platform or tests and benches stop being comparable.
REQUEST_BASE_COST = 72

#: budget shrink factor a ``mem-pressure`` fault applies when its spec
#: does not carry an explicit one.
DEFAULT_PRESSURE_FACTOR = 0.5

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_memory_budget(text: str | int) -> int:
    """Parse a human-friendly byte size (``65536``, ``"64k"``, ``"8m"``).

    Suffixes ``k``/``m``/``g`` (case-insensitive) are binary multiples.

    Raises:
        ConfigurationError: for malformed or non-positive sizes.
    """
    raw = str(text).strip().lower()
    multiplier = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        multiplier = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"malformed memory budget {text!r} "
            f"(expected BYTES or a k/m/g-suffixed size)") from exc
    budget = int(value * multiplier)
    if budget <= 0:
        raise ConfigurationError(
            f"memory budget must be positive, got {text!r}")
    return budget


def request_cost(request: Request) -> int:
    """Deterministic tracked-memory cost of one buffered request, bytes.

    A platform-independent model — fixed overhead plus the variable-width
    string payloads — so identical inputs consume identical budget on
    every interpreter, keeping eviction/spill decisions (and therefore
    output) reproducible.
    """
    cost = REQUEST_BASE_COST + len(request.user_id) + len(request.page)
    if request.referrer is not None:
        cost += len(request.referrer)
    return cost


@dataclass(frozen=True, slots=True)
class GovernorConfig:
    """Resource budget and degradation policy for a governed pipeline.

    Attributes:
        memory_budget: byte budget for tracked state (open candidates
            plus quarantine channels, as priced by :func:`request_cost`).
        per_user_cap: maximum requests in one user's open candidate; at
            the cap the candidate is force-finished and the user earns a
            *strike* (see ``quarantine_after``).
        overload_policy: what happens when tracked state crosses the
            high watermark — ``"evict"`` force-finishes oldest-idle
            users; ``"block"`` spills cold buffers to ``spill_dir``
            first, evicting only if spilling cannot get back under
            budget; ``"shed"`` refuses (counts and drops) new requests
            whose admission would exceed the budget; ``"raise"`` raises
            :class:`~repro.exceptions.OverloadError` instead of
            shedding.
        high_watermark: budget fraction that triggers rebalancing.
        low_watermark: budget fraction rebalancing drains down to
            (hysteresis, so the governor does not thrash at the line).
        spill_dir: directory for the :class:`SpillStore`; required by
            (and only meaningful under) ``overload_policy="block"``.
        quarantine_after: cap strikes before a user is quarantined.
        quarantine_cap: requests held per quarantine channel before it
            is flushed through the finisher (bounds a crawler's memory
            without losing its data).

    Raises:
        ConfigurationError: for out-of-range values or an inconsistent
            policy/spill combination.
    """

    memory_budget: int = 1 << 20
    per_user_cap: int = 512
    overload_policy: str = "evict"
    high_watermark: float = 0.9
    low_watermark: float = 0.7
    spill_dir: str | None = None
    quarantine_after: int = 3
    quarantine_cap: int = 4096

    def __post_init__(self) -> None:
        if self.memory_budget <= 0:
            raise ConfigurationError(
                f"memory_budget must be positive, got {self.memory_budget}")
        if self.per_user_cap < 2:
            raise ConfigurationError(
                f"per_user_cap must be >= 2, got {self.per_user_cap}")
        if self.overload_policy not in OVERLOAD_POLICIES:
            known = ", ".join(OVERLOAD_POLICIES)
            raise ConfigurationError(
                f"unknown overload_policy {self.overload_policy!r} "
                f"(known: {known})")
        if not 0 < self.low_watermark <= self.high_watermark <= 1:
            raise ConfigurationError(
                f"watermarks must satisfy 0 < low <= high <= 1, got "
                f"low={self.low_watermark} high={self.high_watermark}")
        if self.overload_policy == "block" and self.spill_dir is None:
            raise ConfigurationError(
                "overload_policy='block' spills cold buffers to disk and "
                "requires spill_dir")
        if self.overload_policy != "block" and self.spill_dir is not None:
            raise ConfigurationError(
                f"spill_dir is only used by overload_policy='block' "
                f"(got policy {self.overload_policy!r})")
        if self.quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, "
                f"got {self.quarantine_after}")
        if self.quarantine_cap < 2:
            raise ConfigurationError(
                f"quarantine_cap must be >= 2, got {self.quarantine_cap}")


class SpillStore:
    """Atomic, integrity-checked on-disk store for cold user buffers.

    Reuses the :mod:`repro.parallel.checkpoint` durability idiom: each
    user's buffer is one JSON document written via temp-file +
    ``os.replace`` (never a half-written file), schema-versioned, and
    stamped with a SHA-256 digest over its canonical JSON.  A document
    that fails any of those checks on restore is deleted and reported
    lost — degraded, counted, and never trusted.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def path_for(self, user_id: str) -> str:
        """The spill file backing ``user_id`` (hashed: any key is safe)."""
        import hashlib
        digest = hashlib.sha256(user_id.encode("utf-8")).hexdigest()[:16]
        return os.path.join(self.directory, f"spill__{digest}.json")

    def spill(self, user_id: str, requests: Sequence[Request]) -> str:
        """Atomically persist ``requests`` as ``user_id``'s cold buffer."""
        document: dict[str, Any] = {
            "schema": SPILL_SCHEMA,
            "user": user_id,
            "requests": [[r.timestamp, r.page, r.referrer, r.synthetic]
                         for r in requests],
        }
        document["digest"] = snapshot_digest(document)
        path = self.path_for(user_id)
        atomic_write_json(path, document)
        return path

    def restore(self, user_id: str) -> tuple[Request, ...] | None:
        """Load and delete ``user_id``'s spilled buffer.

        Returns ``None`` when the file is missing, unreadable, carries a
        foreign schema, or fails its integrity digest — the caller must
        account for the loss rather than resume from damaged state.
        """
        import json
        path = self.path_for(user_id)
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            document = None
        try:
            os.unlink(path)
        except OSError:
            pass
        if not isinstance(document, dict):
            return None
        stored = document.pop("digest", None)
        if (document.get("schema") != SPILL_SCHEMA
                or document.get("user") != user_id
                or stored != snapshot_digest(document)):
            return None
        try:
            return tuple(
                Request(timestamp, user_id, page,
                        synthetic=bool(synthetic), referrer=referrer)
                for timestamp, page, referrer, synthetic
                in document["requests"])
        except (KeyError, TypeError, ValueError):
            return None

    def pending(self) -> int:
        """Spill files currently on disk."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        return sum(1 for name in names
                   if name.startswith("spill__") and name.endswith(".json"))


# -- configuration audit (repro doctor) -------------------------------------


def audit_overload_config(governor: GovernorConfig, *,
                          typical_cost: int = 96) -> ConfigAudit:
    """Audit a governor configuration for operational sanity.

    Static construction errors are :class:`ConfigurationError` at
    :class:`GovernorConfig` time; this audit catches the configurations
    that are *legal but degenerate* — a per-user cap so large one user
    owns the whole budget, watermarks with less than one request of
    headroom, an unwritable spill directory.

    Args:
        governor: the (already validated) configuration to audit.
        typical_cost: planning estimate for one request's tracked bytes.
    """
    checks: list[tuple[str, str]] = []
    budget = governor.memory_budget
    capacity = budget // typical_cost
    checks.append(("ok", f"nominal capacity ~{capacity} requests at "
                         f"{typical_cost}B each"))
    if budget < 64 * 1024:
        checks.append(("warn", f"budget {budget}B is below 64KiB; expect "
                               f"constant degradation on any real stream"))
    cap_bytes = governor.per_user_cap * typical_cost
    low_bytes = budget * governor.low_watermark
    if cap_bytes > low_bytes:
        checks.append(
            ("FAIL", f"one user at per_user_cap tracks ~{cap_bytes}B, over "
                     f"the low watermark ({int(low_bytes)}B) — rebalancing "
                     f"would chase a single user's buffer; lower "
                     f"per_user_cap or raise the budget"))
    else:
        checks.append(
            ("ok", f"per_user_cap tracks at most ~{cap_bytes}B "
                   f"({100 * cap_bytes / budget:.1f}% of budget)"))
    headroom = budget * (1 - governor.high_watermark)
    if headroom < typical_cost:
        checks.append(
            ("warn", f"high watermark leaves {int(headroom)}B of headroom "
                     f"(< one request); tracked state may briefly "
                     f"overshoot the watermark line"))
    quarantine_bytes = governor.quarantine_cap * typical_cost
    if quarantine_bytes > low_bytes:
        checks.append(
            ("warn", f"one quarantine channel may hold ~{quarantine_bytes}B "
                     f"before flushing, over the low watermark — "
                     f"rebalancing will flush channels early"))
    if governor.spill_dir is not None:
        probe = os.path.join(governor.spill_dir, ".doctor-probe")
        try:
            os.makedirs(governor.spill_dir, exist_ok=True)
            with open(probe, "w", encoding="utf-8") as handle:
                handle.write("probe")
            os.unlink(probe)
            checks.append(("ok", f"spill_dir {governor.spill_dir!r} is "
                                 f"writable"))
        except OSError as exc:
            checks.append(("FAIL", f"spill_dir {governor.spill_dir!r} is "
                                   f"not writable: {exc}"))
    return ConfigAudit(
        f"overload configuration: policy={governor.overload_policy}"
        f" budget={budget}B per-user-cap={governor.per_user_cap}",
        {"memory_budget": budget,
         "per_user_cap": governor.per_user_cap,
         "overload_policy": governor.overload_policy,
         "spill_dir": governor.spill_dir},
        checks)


def __getattr__(name: str) -> Any:
    # benchmarks/e2e/tracing.py hooks the governed path under this name.
    if name == "GovernedStreamingReconstructor":
        from repro.streaming.pipeline import StreamingReconstructor
        return StreamingReconstructor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
