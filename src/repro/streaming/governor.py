"""Resource governance for the streaming pipeline.

Real traffic breaks the assumptions the incremental reconstructor makes
(Meiss et al., "What's in a Session"): crawlers never go idle, so their
Phase-1 candidate never closes; NAT and proxy IPs aggregate thousands of
humans behind one user key; session lengths are heavy-tailed.  An
ungoverned :class:`~repro.streaming.pipeline.StreamingReconstructor`
therefore grows per-user buffers without bound — the failure mode is an
OOM kill, which loses *everything*.

:class:`GovernedStreamingReconstructor` bounds tracked state under an
explicit byte budget with four observable degradation modes instead:

* **eviction** — when tracked bytes cross the high watermark, the
  oldest-idle users are force-finished (their open candidates go through
  the normal finisher, so the early sessions are invariant-clean) until
  the low watermark is reached.  Evicted requests are flagged in
  :class:`GovernedStreamingStats`, never silently dropped.
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
:meth:`GovernedStreamingStats.reconciles`: nothing is ever silently
lost.  When the budget is never hit, governed output is byte-identical
to the ungoverned (and batch) output — enforced by the
``streaming-governed`` diffcheck engine; when it is hit, output remains
invariant-clean — enforced by ``streaming-evicting``.

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

import heapq
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.exceptions import ConfigurationError, ExecutionError, OverloadError
from repro.obs import snapshot_digest
from repro.parallel.checkpoint import atomic_write_json
from repro.sessions.model import Request, Session
from repro.streaming.pipeline import StreamingReconstructor, StreamingStats

__all__ = [
    "OVERLOAD_POLICIES",
    "SPILL_SCHEMA",
    "GovernorConfig",
    "GovernedStreamingStats",
    "GovernedStreamingReconstructor",
    "SpillStore",
    "OverloadAudit",
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


@dataclass(frozen=True, slots=True)
class GovernedStreamingStats(StreamingStats):
    """Streaming stats extended with the governor's degradation ledger.

    ``fed_requests`` counts every request *presented* to the pipeline
    (admitted or shed), so the reconciliation identity covers admission
    control too.  ``closed_requests`` counts only *naturally* closed
    requests — force-finished ones move to ``evicted_requests``.

    Attributes:
        memory_budget: the configured budget, bytes.
        tracked_bytes: current tracked state (open candidates plus
            quarantine channels), as priced by :func:`request_cost`.
        peak_tracked_bytes: high-water mark of ``tracked_bytes`` — the
            number bench A19's bounded-memory acceptance check reads.
        evicted_requests: requests force-finished early (watermark or
            cap evictions, plus quarantine-channel flushes).
        evictions: force-finish events (open-candidate evictions).
        shed_requests: requests refused by admission control
            (``overload_policy="shed"``).
        spilled_requests: requests currently cold on disk.
        spill_writes: buffers written to the spill store.
        spill_restores: buffers read back intact.
        spill_lost: requests lost to spill-integrity failures (counted,
            so reconciliation still holds under disk corruption).
        quarantined_users: users currently routed to the side channel.
        quarantine_buffered: requests currently held in side channels.
        quarantine_flushes: side-channel flushes through the finisher.
        cap_strikes: per-user-cap hits (the quarantine trigger).
    """

    memory_budget: int = 0
    tracked_bytes: int = 0
    peak_tracked_bytes: int = 0
    evicted_requests: int = 0
    evictions: int = 0
    shed_requests: int = 0
    spilled_requests: int = 0
    spill_writes: int = 0
    spill_restores: int = 0
    spill_lost: int = 0
    quarantined_users: int = 0
    quarantine_buffered: int = 0
    quarantine_flushes: int = 0
    cap_strikes: int = 0

    def reconciles(self) -> bool:
        """Whether the counters balance: nothing was silently lost.

        Every request ever presented is in exactly one bucket — still
        buffered (in memory, on disk, or in a quarantine channel),
        naturally closed, force-finished (evicted), refused up front
        (shed), or lost to a detected spill-integrity failure::

            fed == buffered + spilled + quarantine_buffered
                 + closed + evicted + shed + spill_lost

        the governed generalization of the base invariant
        ``fed == buffered + closed``.
        """
        return self.fed_requests == (
            self.buffered_requests + self.spilled_requests
            + self.quarantine_buffered + self.closed_requests
            + self.evicted_requests + self.shed_requests + self.spill_lost)


class GovernedStreamingReconstructor(StreamingReconstructor):
    """A :class:`StreamingReconstructor` under a resource governor.

    Behaves identically to the base pipeline — byte-identical output —
    until tracked state crosses the budget's high watermark or a user
    hits ``per_user_cap``; then the configured degradation mode engages
    (see :class:`GovernorConfig` and the module docstring).

    A force-finished (evicted) user gets an *eviction watermark* at its
    candidate's tail timestamp, mirroring the sealed-stream contract: a
    later request strictly older than the watermark is a late event
    under ``late_policy``; one exactly *at* it is legal and starts a
    fresh candidate (ties are legal everywhere in this pipeline).

    Construction accepts every base keyword plus ``governor``.  The
    reorder buffer is **not** charged against the byte budget: it is
    already bounded by event time (``reorder_window``), not by user
    behavior, so adversarial users cannot grow it.

    If ``mem-pressure`` execution faults are armed (see
    :mod:`repro.faults.execution`) when the pipeline is constructed, the
    effective budget shrinks by the fault's factor once the stream
    reaches the fault's feed ordinal — that is how ``repro chaos``
    exercises degradation deterministically.
    """

    #: the replay state this class adds to the base pipeline's (see
    #: :meth:`state`); spilled users must be absent.
    STATE_FIELDS: ClassVar[dict[str, str]] = {
        "quarantine": "requests",
        **dict.fromkeys(
            ("quarantine_bytes", "user_bytes", "cap_strikes",
             "evict_watermarks", "tracked", "peak_tracked", "evictions",
             "evicted_requests", "evicted_via_finish", "shed",
             "spill_writes", "spill_restores", "spill_lost",
             "quarantine_flushes", "cap_strikes_total", "feed_ordinal"),
            "plain"),
    }

    def __init__(self, finisher, config=None, *,
                 governor: GovernorConfig | None = None,
                 **options: Any) -> None:
        super().__init__(finisher, config, **options)
        self.governor = governor if governor is not None else GovernorConfig()
        self._spill_store = (SpillStore(self.governor.spill_dir)
                             if self.governor.spill_dir is not None else None)
        self._user_bytes: dict[str, int] = {}
        self._tracked = 0
        self._peak_tracked = 0
        self._evictions = 0
        self._evicted_requests = 0
        self._evicted_via_finish = 0
        self._shed = 0
        self._spilled: dict[str, tuple[int, int, float]] = {}
        self._spill_writes = 0
        self._spill_restores = 0
        self._spill_lost = 0
        self._quarantine: dict[str, list[Request]] = {}
        self._quarantine_bytes: dict[str, int] = {}
        self._quarantine_flushes = 0
        self._cap_strikes: dict[str, int] = {}
        self._cap_strikes_total = 0
        self._evict_watermarks: dict[str, float] = {}
        self._feed_ordinal = 0
        from repro.faults.execution import active_exec_faults
        self._pressure_faults = tuple(
            fault for fault in active_exec_faults()
            if fault.kind == "mem-pressure")
        reg = self._registry
        self._g_tracked = reg.gauge("governor.tracked_bytes")
        self._g_budget = reg.gauge("governor.budget_bytes")
        self._g_spilled_users = reg.gauge("governor.users.spilled")
        self._g_quarantined = reg.gauge("governor.users.quarantined")
        self._c_evictions = reg.counter("governor.evictions")
        self._c_evicted = reg.counter("governor.evicted_requests")
        self._c_sheds = reg.counter("governor.shed_requests")
        self._c_spills = reg.counter("governor.spills")
        self._c_restores = reg.counter("governor.restores")
        self._c_spill_lost = reg.counter("governor.spill_lost")
        self._c_quarantines = reg.counter("governor.quarantines")
        self._c_quarantine_flushes = reg.counter(
            "governor.quarantine_flushes")
        self._c_cap_strikes = reg.counter("governor.cap_strikes")
        self._rebalancing = self.governor.overload_policy in ("evict", "block")
        self._arm_budget()

    # -- budget ------------------------------------------------------------

    def _arm_budget(self) -> None:
        """Set the effective budget (the configured one, shrunk by every
        armed ``mem-pressure`` fault due at the current feed ordinal), its
        high-watermark line, and the ordinal at which a fault next fires.
        """
        budget = self.governor.memory_budget
        self._next_pressure = float("inf")
        for fault in self._pressure_faults:
            if self._feed_ordinal >= fault.index:
                factor = (fault.seconds if 0 < fault.seconds <= 1
                          else DEFAULT_PRESSURE_FACTOR)
                budget = min(budget,
                             max(1, int(self.governor.memory_budget
                                        * factor)))
            else:
                self._next_pressure = min(self._next_pressure, fault.index)
        self._budget = budget
        self._high = budget * self.governor.high_watermark
        self._g_budget.set(budget)

    def _closable_bytes(self, request: Request) -> int:
        """Bytes the user's candidate frees if this request closes it.

        Admission control must credit a natural closure: a request whose
        arrival triggers the gap/span rule *shrinks* tracked state even
        as it is admitted.
        """
        buffer = self._buffers.get(request.user_id)
        if not buffer or request.timestamp < buffer[-1].timestamp:
            return 0
        gap = request.timestamp - buffer[-1].timestamp
        span = request.timestamp - buffer[0].timestamp
        if gap > self.config.max_gap or span > self.config.max_duration:
            return self._user_bytes.get(request.user_id, 0)
        return 0

    # -- feeding -----------------------------------------------------------

    def feed(self, request: Request) -> list[Session]:
        """Accept one request under the governor's budget.

        Raises:
            OverloadError: under ``overload_policy="raise"``, when
                admission would exceed the effective budget.
            LateEventError: as the base pipeline, plus for requests
                predating a user's eviction watermark under
                ``late_policy="raise"``.
        """
        self._feed_ordinal += 1
        if self._feed_ordinal >= self._next_pressure:
            self._arm_budget()
        if not self._rebalancing:
            # shed and raise run admission control, and it covers
            # quarantined users too: these policies have no rebalancing
            # pass to flush side channels, so exempting them would let
            # quarantine growth break the budget the policy enforces.
            projected = (self._tracked + request_cost(request)
                         - self._closable_bytes(request))
            if projected > self._budget:
                if self.governor.overload_policy == "raise":
                    raise OverloadError(
                        f"admitting request for user "
                        f"{request.user_id!r} would put tracked state at "
                        f"{projected} bytes, over the {self._budget}-byte "
                        f"budget")
                self._fed += 1   # presented; accounted in shed_requests
                self._m_fed.inc()
                self._shed += 1
                self._c_sheds.inc()
                return []
        # the base class is named, not found through super(): this runs
        # once per request, and super() costs a lookup object per call.
        emitted = StreamingReconstructor.feed(self, request)
        if self._tracked > self._high and self._rebalancing:
            emitted.extend(self._rebalance(hot_user=request.user_id))
        self._g_tracked.set(self._tracked)
        return emitted

    def _accept(self, request: Request) -> list[Session]:
        user = request.user_id
        # one membership test for the common user: a quarantined user
        # was struck, so it holds an eviction watermark too.
        if user in self._evict_watermarks:
            watermark = self._evict_watermarks[user]
            if request.timestamp < watermark:
                return self._late(
                    request,
                    f"user {user!r} was force-finished by the resource "
                    f"governor at t={watermark}; an older request can no "
                    f"longer join")
            if user in self._quarantine:
                return self._quarantine_append(request)
        restored = None
        if self._spilled and user in self._spilled:
            # Make room *before* the cold buffer re-enters tracked state,
            # or the restore itself would spike memory over the budget.
            restored = self._rebalance(demand=self._spilled[user][1])
            self._restore_user(user)
        fed_before = self._fed
        emitted = StreamingReconstructor._accept(self, request)
        if restored:
            emitted[:0] = restored
        if self._fed == fed_before:   # late- or duplicate-dropped
            return emitted
        cost = request_cost(request)
        self._user_bytes[user] = self._user_bytes.get(user, 0) + cost
        self._tracked += cost
        if self._tracked > self._peak_tracked:
            self._peak_tracked = self._tracked
        if len(self._buffers[user]) >= self.governor.per_user_cap:
            emitted.extend(self._strike(user))
        return emitted

    # -- degradation modes -------------------------------------------------

    def _rebalance(self, *, demand: int = 0,
                   hot_user: str | None = None) -> list[Session]:
        """Bring tracked state plus ``demand`` incoming bytes (a spill
        restore) back under the watermarks.

        Crossing ``high_watermark * budget`` triggers draining down to
        the low watermark: ``block`` spills cold buffers first (never
        the hot user's — that would thrash) and force-finishes only what
        spilling cannot shed; ``evict`` force-finishes directly.  If
        open candidates alone cannot reach the floor, quarantine
        channels are flushed, largest first.  Sizing against the demand
        lets a restore land under the high watermark instead of blowing
        through it.

        Victims go oldest-idle first: the order is built from the buffers
        when the pass starts, as ``(tail timestamp, user)`` — ties break
        by user id, so it is a function of the captured state alone.
        """
        if self._tracked + demand <= self._high:
            return []
        low = self._budget * self.governor.low_watermark
        order = [(buffer[-1].timestamp, user)
                 for user, buffer in self._buffers.items()]
        heapq.heapify(order)
        emitted: list[Session] = []
        floor = low
        if self._spill_store is not None:
            while (self._tracked + demand > low and order
                   and order[0][1] != hot_user):
                self._spill_user(heapq.heappop(order)[1])
            floor = self._high   # forced eviction only if spilling fell short
        while self._tracked + demand > floor and order:
            emitted.extend(self._evict_user(heapq.heappop(order)[1]))
        for user in sorted(self._quarantine,
                           key=lambda u: (-len(self._quarantine[u]), u)):
            if self._tracked + demand <= floor:
                break
            emitted.extend(self._flush_quarantine_channel(user, reopen=True))
        return emitted

    def _evict_user(self, user: str) -> list[Session]:
        """Force-finish ``user``'s open candidate (watermark semantics)."""
        buffer = self._buffers.get(user)
        if not buffer:
            return []
        self._evict_watermarks[user] = buffer[-1].timestamp
        count = len(buffer)
        sessions = self._finish(user)
        self._evictions += 1
        self._evicted_requests += count
        self._evicted_via_finish += count
        self._c_evictions.inc()
        self._c_evicted.inc(count)
        self._g_tracked.set(self._tracked)
        return sessions

    def _strike(self, user: str) -> list[Session]:
        """Handle a per-user-cap hit: evict, count a strike, maybe
        quarantine."""
        strikes = self._cap_strikes.get(user, 0) + 1
        self._cap_strikes[user] = strikes
        self._cap_strikes_total += 1
        self._c_cap_strikes.inc()
        emitted = self._evict_user(user)
        if (strikes >= self.governor.quarantine_after
                and user not in self._quarantine):
            self._quarantine[user] = []
            self._quarantine_bytes[user] = 0
            self._c_quarantines.inc()
            self._g_quarantined.set(len(self._quarantine))
        return emitted

    def _quarantine_append(self, request: Request) -> list[Session]:
        user = request.user_id
        channel = self._quarantine[user]
        if channel and request.timestamp < channel[-1].timestamp:
            return self._late(
                request,
                f"out-of-order request for quarantined user {user!r}: "
                f"{request.timestamp} after {channel[-1].timestamp}")
        channel.append(request)
        self._fed += 1
        self._m_fed.inc()
        cost = request_cost(request)
        self._quarantine_bytes[user] = (
            self._quarantine_bytes.get(user, 0) + cost)
        self._tracked += cost
        if self._tracked > self._peak_tracked:
            self._peak_tracked = self._tracked
        if len(channel) >= self.governor.quarantine_cap:
            return self._flush_quarantine_channel(user, reopen=True)
        return []

    def _flush_quarantine_channel(self, user: str, *,
                                  reopen: bool) -> list[Session]:
        """Run a quarantine channel through the finisher and empty it.

        The channel may span arbitrary time (that is why its user is
        quarantined), so it is first re-split into legal Phase-1
        candidates — the emitted sessions stay invariant-clean.  Chunks
        are additionally capped at ``per_user_cap`` requests: finisher
        cost grows superlinearly with candidate length (a crawler's
        dense trace can explode Phase 2's maximal-path count), and the
        cap is precisely the bound the governor already promises.
        """
        channel = self._quarantine[user]
        if reopen:
            self._quarantine[user] = []
            self._quarantine_bytes[user] = 0
        else:
            del self._quarantine[user]
            self._quarantine_bytes.pop(user, None)
        self._g_quarantined.set(len(self._quarantine))
        if not channel:
            return []
        self._evict_watermarks[user] = channel[-1].timestamp
        self._tracked -= sum(request_cost(r) for r in channel)
        sessions: list[Session] = []
        chunk = [channel[0]]
        for request in channel[1:]:
            gap = request.timestamp - chunk[-1].timestamp
            span = request.timestamp - chunk[0].timestamp
            if (gap > self.config.max_gap
                    or span > self.config.max_duration
                    or len(chunk) >= self.governor.per_user_cap):
                sessions.extend(self._finisher(chunk))
                chunk = [request]
            else:
                chunk.append(request)
        sessions.extend(self._finisher(chunk))
        self._emitted += len(sessions)
        self._m_emitted.inc(len(sessions))
        self._evicted_requests += len(channel)
        self._c_evicted.inc(len(channel))
        self._quarantine_flushes += 1
        self._c_quarantine_flushes.inc()
        self._g_tracked.set(self._tracked)
        return sessions

    # -- spill / restore ---------------------------------------------------

    def _spill_user(self, user: str) -> None:
        """Move ``user``'s cold buffer to disk (no sessions emitted)."""
        buffer = self._buffers.pop(user)
        self._spill_store.spill(user, buffer)
        freed = self._user_bytes.pop(user, 0)
        self._tracked -= freed
        self._spilled[user] = (len(buffer), freed, buffer[-1].timestamp)
        self._spill_writes += 1
        self._c_spills.inc()
        self._g_spilled_users.set(len(self._spilled))
        self._g_buffered.dec(len(buffer))
        self._g_users.set(len(self._buffers))
        self._g_tracked.set(self._tracked)

    def _unspill(self, user: str) -> tuple[Request, ...] | None:
        """Take ``user``'s buffer back from the spill store; ``None`` when
        its integrity check failed: the loss is counted and the user sealed
        at its last known timestamp so ordering semantics survive."""
        count, _, last_ts = self._spilled.pop(user)
        self._g_spilled_users.set(len(self._spilled))
        requests = self._spill_store.restore(user)
        if requests is None:
            self._spill_lost += count
            self._c_spill_lost.inc(count)
            self._evict_watermarks[user] = last_ts
        else:
            self._spill_restores += 1
            self._c_restores.inc()
        return requests

    def _restore_user(self, user: str) -> None:
        """Bring ``user``'s spilled buffer back before its next request."""
        cost = self._spilled[user][1]
        requests = self._unspill(user)
        if requests is None:
            return
        self._buffers[user] = list(requests)
        self._user_bytes[user] = cost
        self._tracked += cost
        if self._tracked > self._peak_tracked:
            self._peak_tracked = self._tracked
        self._g_buffered.inc(len(requests))
        self._g_users.set(len(self._buffers))
        self._g_tracked.set(self._tracked)

    def _close_spilled(self, user: str) -> list[Session]:
        """Finish a watermark-closed spilled buffer straight from disk.

        The buffer was a live Phase-1 candidate when spilled, so it goes
        through the finisher as-is — a *natural* closure, counted in
        ``closed_requests``.  It never re-enters tracked state: draining
        cold buffers back into memory just to finish them would spike
        usage over the budget at the exact moment it claims to bound.
        """
        requests = self._unspill(user)
        if requests is None:
            return []
        sessions = self._finisher(list(requests))
        self._closed += len(requests)
        self._emitted += len(sessions)
        self._m_emitted.inc(len(sessions))
        return sessions

    # -- closing -----------------------------------------------------------

    def flush(self, watermark: float | None = None) -> list[Session]:
        """Emit closable sessions; spilled users are restored when due.

        An end-of-stream flush (``watermark=None``) additionally drains
        every quarantine channel (their requests land in
        ``evicted_requests``) and seals the stream exactly like the base
        pipeline.
        """
        emitted: list[Session] = []
        for user in sorted(self._spilled):
            _, _, last_ts = self._spilled[user]
            if (watermark is None
                    or watermark - last_ts > self.config.max_gap):
                emitted.extend(self._close_spilled(user))
        emitted.extend(super().flush(watermark))
        if watermark is None:
            for user in sorted(self._quarantine):
                emitted.extend(
                    self._flush_quarantine_channel(user, reopen=False))
        # the flushed watermark now rejects everything an eviction
        # watermark at or below it would, so those entries go; quarantined
        # users keep theirs (``_accept`` reads quarantine only through it).
        floor = self._flush_watermark
        self._evict_watermarks = {
            user: mark for user, mark in self._evict_watermarks.items()
            if mark > floor or user in self._quarantine}
        self._g_tracked.set(self._tracked)
        return emitted

    def _finish(self, user_id: str) -> list[Session]:
        freed = self._user_bytes.pop(user_id, 0)
        sessions = super()._finish(user_id)
        self._tracked -= freed
        return sessions

    # -- replay state ------------------------------------------------------

    def _require_capturable(self) -> None:
        """As the base pipeline, and no user may be spilled: cold buffers
        live outside the state."""
        super()._require_capturable()
        if self._spilled:
            raise ExecutionError("cannot capture a pipeline with spilled "
                                 "users")

    def restore(self, state: Mapping[str, Any]) -> None:
        """Replace the reconstruction state; the budget follows the
        restored feed ordinal."""
        super().restore(state)
        self._arm_budget()

    @property
    def has_spilled(self) -> bool:
        """Whether user buffers are spilled to disk right now."""
        return bool(self._spilled)

    # -- introspection -----------------------------------------------------

    def stats(self) -> GovernedStreamingStats:
        """Current counters, including the degradation ledger."""
        base = super().stats()
        return GovernedStreamingStats(
            active_users=base.active_users,
            buffered_requests=base.buffered_requests,
            emitted_sessions=base.emitted_sessions,
            fed_requests=base.fed_requests,
            late_dropped=base.late_dropped,
            duplicates_dropped=base.duplicates_dropped,
            reorder_buffered=base.reorder_buffered,
            closed_requests=base.closed_requests - self._evicted_via_finish,
            memory_budget=self.governor.memory_budget,
            tracked_bytes=self._tracked,
            peak_tracked_bytes=self._peak_tracked,
            evicted_requests=self._evicted_requests,
            evictions=self._evictions,
            shed_requests=self._shed,
            spilled_requests=sum(count for count, _, _
                                 in self._spilled.values()),
            spill_writes=self._spill_writes,
            spill_restores=self._spill_restores,
            spill_lost=self._spill_lost,
            quarantined_users=len(self._quarantine),
            quarantine_buffered=sum(len(channel) for channel
                                    in self._quarantine.values()),
            quarantine_flushes=self._quarantine_flushes,
            cap_strikes=self._cap_strikes_total,
        )


# -- configuration audit (repro doctor) -------------------------------------


@dataclass(slots=True)
class OverloadAudit:
    """Outcome of auditing an overload configuration (``repro doctor``).

    Attributes:
        governor: the audited configuration.
        checks: ``(level, message)`` conclusions; levels are ``"ok"``,
            ``"warn"`` and ``"FAIL"``.
    """

    governor: GovernorConfig
    checks: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        """True when no check failed (warnings are advisory)."""
        return all(level != "FAIL" for level, _ in self.checks)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (``repro doctor --json``)."""
        return {
            "memory_budget": self.governor.memory_budget,
            "per_user_cap": self.governor.per_user_cap,
            "overload_policy": self.governor.overload_policy,
            "spill_dir": self.governor.spill_dir,
            "checks": [{"level": level, "message": message}
                       for level, message in self.checks],
            "ok": self.ok,
        }

    def render(self) -> str:
        """Human-readable audit, one conclusion per line."""
        lines = [
            f"overload configuration: policy={self.governor.overload_policy}"
            f" budget={self.governor.memory_budget}B"
            f" per-user-cap={self.governor.per_user_cap}"]
        for level, message in self.checks:
            lines.append(f"  {level:<4}  {message}")
        lines.append(f"  verdict: {'ok' if self.ok else 'DEGRADED'}")
        return "\n".join(lines)


def audit_overload_config(governor: GovernorConfig, *,
                          typical_cost: int = 96) -> OverloadAudit:
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
    return OverloadAudit(governor=governor, checks=checks)
