"""The incremental session-reconstruction driver.

:class:`StreamingReconstructor` exploits the structure of Smart-SRA's
Phase 1: a candidate session is *closed* — no future request can legally
join it — as soon as either

* a newer request from the same user arrives more than ρ after the
  candidate's last request (page-stay rule), or
* the event-time watermark passes ρ beyond the candidate's last request
  (no same-user request can arrive earlier than the watermark).

When a candidate closes, a pluggable ``finisher`` turns it into sessions:
Smart-SRA's Phase 2 (:func:`streaming_smart_sra`) or the identity
(:func:`streaming_phase1`).  Because Phase 2 never looks across candidate
boundaries, the streamed output equals the batch output exactly.

Degraded input is handled explicitly rather than assumed away:

* a **bounded reorder buffer** (``reorder_window``) absorbs out-of-order
  arrival up to a fixed event-time bound, releasing requests in a
  deterministic total order — so the streamed output is byte-identical
  however the input interleaves within the bound;
* a **late policy** decides what happens to requests that predate the
  watermark anyway: ``"raise"`` (a typed
  :class:`~repro.exceptions.LateEventError`) or ``"drop"`` (counted in
  :attr:`StreamingStats.late_dropped`, never silently lost);
* optional **deduplication** discards the adjacent duplicates that double
  logging produces, counted in :attr:`StreamingStats.duplicates_dropped`;
* an optional **resource governor** (``governor``, a
  :class:`~repro.streaming.governor.GovernorConfig`) bounds tracked
  memory for adversarial users, with eviction, spilling, quarantine or
  admission control as the degradation (see
  :mod:`repro.streaming.governor`).  Without one the pipeline is
  unbounded and pays nothing for the governor.

Example::

    pipeline = streaming_smart_sra(topology, late_policy="drop",
                                   reorder_window=30.0, dedup=True)
    for request in tail_the_log():
        for session in pipeline.feed(request):
            handle(session)          # emitted as soon as provably complete
    for session in pipeline.flush():
        handle(session)              # end of stream
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.core.config import SmartSRAConfig
from repro.core.phase2 import maximal_sessions_fast
from repro.exceptions import (
    ConfigurationError,
    ExecutionError,
    LateEventError,
    OverloadError,
    ReconstructionError,
)
from repro.obs import Registry, get_registry
from repro.sessions.model import Request, Session
from repro.streaming.governor import (
    DEFAULT_PRESSURE_FACTOR,
    GovernorConfig,
    SpillStore,
    request_cost,
)
from repro.topology.graph import WebGraph

__all__ = [
    "StreamingReconstructor",
    "streaming_smart_sra",
    "streaming_phase1",
    "streaming_amp",
    "StreamingStats",
]

#: turns one closed Phase-1 candidate into finished sessions.
Finisher = Callable[[Sequence[Request]], list[Session]]


def _capture_fields(owner: object,
                    fields: Mapping[str, str]) -> dict[str, Any]:
    """Encode ``owner``'s declared state fields (``key`` names attribute
    ``_key``) as a JSON-ready dict sharing no mutable object with it.

    Codecs: ``"requests"`` turns per-user request lists into
    ``[timestamp, page, referrer, synthetic]`` rows; ``"plain"`` copies a
    scalar or a str-keyed dict of scalars.
    """
    state: dict[str, Any] = {}
    for key, codec in fields.items():
        value = getattr(owner, "_" + key)
        if codec == "requests":
            value = {user: [[r.timestamp, r.page, r.referrer, r.synthetic]
                            for r in requests]
                     for user, requests in value.items()}
        elif isinstance(value, dict):
            value = value.copy()
        state[key] = value
    return state


def _apply_fields(owner: object, fields: Mapping[str, str],
                  state: Mapping[str, Any]) -> None:
    """The inverse of :func:`_capture_fields`, copying as it goes."""
    for key, codec in fields.items():
        value = state[key]
        if codec == "requests":
            value = {user: [Request(float(timestamp), user, page,
                                    bool(synthetic), referrer)
                            for timestamp, page, referrer, synthetic
                            in encoded]
                     for user, encoded in value.items()}
        elif isinstance(value, dict):
            value = value.copy()
        setattr(owner, "_" + key, value)


@dataclass(frozen=True, slots=True)
class StreamingStats:
    """Point-in-time pipeline statistics, with the governor's degradation
    ledger (every governor field reads 0 on an unbounded pipeline).

    ``fed_requests`` counts every request *presented* to the pipeline
    (admitted or shed), so the reconciliation identity covers admission
    control too.  ``closed_requests`` counts only *naturally* closed
    requests — force-finished ones move to ``evicted_requests``.

    Attributes:
        active_users: users with a buffered open candidate.
        buffered_requests: total requests held in open candidates.
        emitted_sessions: sessions emitted since construction.
        fed_requests: requests accepted since construction.
        late_dropped: requests discarded by ``late_policy="drop"``.
        duplicates_dropped: adjacent duplicates discarded by ``dedup``.
        reorder_buffered: requests currently held in the reorder buffer.
        closed_requests: requests already handed to the finisher via a
            naturally closed candidate.
        memory_budget: the configured budget, bytes.
        tracked_bytes: current tracked state (open candidates plus
            quarantine channels), as priced by
            :func:`~repro.streaming.governor.request_cost`.
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

    active_users: int
    buffered_requests: int
    emitted_sessions: int
    fed_requests: int
    late_dropped: int = 0
    duplicates_dropped: int = 0
    reorder_buffered: int = 0
    closed_requests: int = 0
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

        Without a governor every term but ``buffered`` and ``closed`` is
        0, so this is ``fed == buffered + closed``.  Late and duplicate
        drops are counted *before* a request is fed, and the reorder
        buffer holds requests that are not yet fed.
        """
        return self.fed_requests == (
            self.buffered_requests + self.spilled_requests
            + self.quarantine_buffered + self.closed_requests
            + self.evicted_requests + self.shed_requests + self.spill_lost)


class StreamingReconstructor:
    """Incremental Phase-1 candidate builder with pluggable finishing,
    optionally under a resource governor.

    Args:
        finisher: maps a closed candidate (non-empty, chronological) to
            finished sessions.
        config: the δ/ρ thresholds (paper defaults when omitted).
        governor: the byte budget and degradation policy (see
            :mod:`repro.streaming.governor`); ``None`` (default) runs
            unbounded: no budget, no per-user cap, no admission control.
        late_policy: ``"raise"`` (default) raises
            :class:`~repro.exceptions.LateEventError` for a request that
            predates the watermark or its user's buffered tail;
            ``"drop"`` counts and discards it, keeping output
            deterministic.
        reorder_window: event-time bound (seconds) for out-of-order
            tolerance.  Requests are held in a bounded buffer and released
            in ``(timestamp, user_id, page)`` order once the maximum
            timestamp seen has advanced past them by the window; ``0``
            (default) disables buffering and preserves the strict
            contract.
        dedup: drop a request identical to its user's buffered tail
            (same timestamp and page) — the adjacent-duplicate artifact of
            double logging.
        registry: metrics registry updated as the stream flows (the
            ``stream.*`` catalog: fed/emitted/late/duplicate counters plus
            reorder-depth, buffered-requests and watermark-lag gauges;
            the ``governor.*`` catalog too when governed); defaults to the
            ambient :func:`repro.obs.get_registry`, a no-op unless
            collection was enabled.

    Per-user event-time must be non-decreasing *after* reorder buffering;
    an equal timestamp is legal (ties keep arrival order, or release
    order under a reorder window).  A request older than the user's
    buffered tail, or older than a watermark already flushed, is *late*
    and handled by ``late_policy``.

    A governed pipeline emits exactly what an unbounded one does until
    tracked state crosses the budget's high watermark or a user hits
    ``per_user_cap``; then the configured degradation mode engages (see
    :class:`~repro.streaming.governor.GovernorConfig`).  A force-finished
    (evicted) user gets an *eviction watermark* at its candidate's tail
    timestamp, mirroring the sealed-stream contract: a later request
    strictly older than the watermark is a late event under
    ``late_policy``; one exactly *at* it is legal and starts a fresh
    candidate.  The reorder buffer is **not** charged against the byte
    budget: it is already bounded by event time, not by user behavior.
    If ``mem-pressure`` execution faults are armed (see
    :mod:`repro.faults.execution`) when a governed pipeline is
    constructed, its effective budget shrinks by the fault's factor once
    the stream reaches the fault's feed ordinal.

    Raises:
        ConfigurationError: for an unknown ``late_policy`` or a negative
            ``reorder_window``.
    """

    #: a fixed instance layout: slot access on the per-request path stays
    #: fast however many attributes the governor adds (an instance dict
    #: past 30 keys loses CPython's shared-key fast path).
    __slots__ = (
        "config", "governor", "late_policy", "reorder_window", "dedup",
        "_finisher", "_buffers", "_reorder", "_max_seen",
        "_flush_watermark", "_emitted", "_fed", "_closed", "_late_dropped",
        "_duplicates_dropped",
        # the governor's ledger
        "_user_bytes", "_tracked", "_peak_tracked", "_evictions",
        "_evicted_requests", "_evicted_via_finish", "_shed", "_spilled",
        "_spill_writes", "_spill_restores", "_spill_lost", "_quarantine",
        "_quarantine_bytes", "_quarantine_flushes", "_cap_strikes",
        "_cap_strikes_total", "_evict_watermarks", "_feed_ordinal",
        # set only under a governor
        "_spill_store", "_pressure_faults", "_rebalancing", "_budget",
        "_high", "_next_pressure",
        # metrics
        "_registry", "_m_fed", "_m_emitted", "_m_late", "_m_duplicates",
        "_g_reorder", "_g_buffered", "_g_users", "_g_lag", "_g_tracked",
        "_g_budget", "_g_spilled_users", "_g_quarantined", "_c_evictions",
        "_c_evicted", "_c_sheds", "_c_spills", "_c_restores",
        "_c_spill_lost", "_c_quarantines", "_c_quarantine_flushes",
        "_c_cap_strikes",
    )

    #: the replay state, key -> codec (see :func:`_capture_fields`): every
    #: attribute that changes as events flow, except the reorder buffer
    #: and the spilled users, which :meth:`state` requires empty.  The
    #: governor's entries stay empty on an unbounded pipeline.
    STATE_FIELDS: ClassVar[dict[str, str]] = {
        "buffers": "requests",
        **dict.fromkeys(("max_seen", "flush_watermark", "emitted", "fed",
                         "closed", "late_dropped", "duplicates_dropped"),
                        "plain"),
        "quarantine": "requests",
        **dict.fromkeys(
            ("quarantine_bytes", "user_bytes", "cap_strikes",
             "evict_watermarks", "tracked", "peak_tracked", "evictions",
             "evicted_requests", "evicted_via_finish", "shed",
             "spill_writes", "spill_restores", "spill_lost",
             "quarantine_flushes", "cap_strikes_total", "feed_ordinal"),
            "plain"),
    }

    def __init__(self, finisher: Finisher,
                 config: SmartSRAConfig | None = None, *,
                 governor: GovernorConfig | None = None,
                 late_policy: str = "raise",
                 reorder_window: float = 0.0,
                 dedup: bool = False,
                 registry: Registry | None = None) -> None:
        if late_policy not in ("raise", "drop"):
            raise ConfigurationError(
                f"late_policy must be 'raise' or 'drop', "
                f"got {late_policy!r}")
        if reorder_window < 0:
            raise ConfigurationError(
                f"reorder_window must be >= 0, got {reorder_window}")
        self._finisher = finisher
        self.config = config if config is not None else SmartSRAConfig()
        self.governor = governor
        self.late_policy = late_policy
        self.reorder_window = reorder_window
        self.dedup = dedup
        self._buffers: dict[str, list[Request]] = {}
        self._reorder: list[Request] = []   # heap, ordered by Request order
        self._max_seen = float("-inf")
        self._flush_watermark = float("-inf")
        self._emitted = 0
        self._fed = 0
        self._closed = 0
        self._late_dropped = 0
        self._duplicates_dropped = 0
        # the governor's ledger: only a governed pipeline writes it.
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
        reg = registry if registry is not None else get_registry()
        self._registry = reg
        self._m_fed = reg.counter("stream.requests.fed")
        self._m_emitted = reg.counter("stream.sessions.emitted")
        self._m_late = reg.counter("stream.late_dropped")
        self._m_duplicates = reg.counter("stream.duplicates_dropped")
        self._g_reorder = reg.gauge("stream.reorder.depth")
        self._g_buffered = reg.gauge("stream.buffered_requests")
        self._g_users = reg.gauge("stream.active_users")
        self._g_lag = reg.gauge("stream.watermark.lag_seconds")
        if governor is None:
            return
        self._spill_store = (SpillStore(governor.spill_dir)
                             if governor.spill_dir is not None else None)
        from repro.faults.execution import active_exec_faults
        self._pressure_faults = tuple(
            fault for fault in active_exec_faults()
            if fault.kind == "mem-pressure")
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
        self._rebalancing = governor.overload_policy in ("evict", "block")
        self._arm_budget()

    # -- feeding -----------------------------------------------------------

    def feed(self, request: Request) -> list[Session]:
        """Accept one request; return any sessions it proved complete.

        Raises:
            ReconstructionError: for a negative timestamp.
            LateEventError: under ``late_policy="raise"``, for a request
                that predates the flush watermark, the reorder buffer's
                release floor, its user's buffered tail, or its user's
                eviction watermark.
            OverloadError: under ``overload_policy="raise"``, when
                admission would exceed the effective budget.
        """
        governed = self.governor is not None
        if governed and not self._admit(request):
            return []
        timestamp = request.timestamp
        if timestamp < 0:
            raise ReconstructionError(f"negative timestamp {timestamp}")
        if timestamp < self._flush_watermark:
            if self._flush_watermark == float("inf"):
                emitted = self._late(
                    request,
                    "the stream was sealed by an end-of-stream flush()")
            else:
                emitted = self._late(
                    request,
                    f"request at t={timestamp} predates the flushed "
                    f"watermark {self._flush_watermark}")
        elif self.reorder_window > 0:
            release_floor = self._max_seen - self.reorder_window
            if timestamp < release_floor:
                emitted = self._late(
                    request,
                    f"request at t={timestamp} is more than "
                    f"{self.reorder_window}s behind the stream "
                    f"(release floor {release_floor})")
            else:
                heapq.heappush(self._reorder, request)
                self._max_seen = max(self._max_seen, timestamp)
                emitted = self._release(self._max_seen - self.reorder_window)
                self._g_reorder.set(len(self._reorder))
                self._update_lag()
        else:
            if timestamp > self._max_seen:
                self._max_seen = timestamp
            self._update_lag()
            emitted = self._accept(request)
        if governed:
            if self._tracked > self._high and self._rebalancing:
                emitted.extend(self._rebalance(hot_user=request.user_id))
            self._g_tracked.set(self._tracked)
        return emitted

    def feed_many(self, requests: Iterable[Request]) -> list[Session]:
        """Feed a batch of requests; returns all sessions they completed."""
        emitted: list[Session] = []
        for request in requests:
            emitted.extend(self.feed(request))
        return emitted

    def _release(self, below: float) -> list[Session]:
        """Pop reorder-buffered requests with timestamp strictly < ``below``.

        The bound is exclusive: a request *at* the release floor (or at a
        flushed watermark) is not late yet, so an equal-timestamp peer may
        still arrive and must be allowed to sort against it.  Releasing
        ties eagerly would make the output depend on arrival interleaving.
        End-of-stream drains with ``below=float("inf")``, which releases
        everything.
        """
        emitted: list[Session] = []
        while self._reorder and self._reorder[0].timestamp < below:
            emitted.extend(self._accept(heapq.heappop(self._reorder)))
        return emitted

    def _update_lag(self) -> None:
        """Publish how far the flushed watermark trails the stream head."""
        if (self._max_seen > float("-inf")
                and self._flush_watermark > float("-inf")
                and self._flush_watermark < float("inf")):
            self._g_lag.set(self._max_seen - self._flush_watermark)

    def _late(self, request: Request, reason: str) -> list[Session]:
        if self.late_policy == "raise":
            raise LateEventError(
                f"late request for user {request.user_id!r}: {reason}")
        self._late_dropped += 1
        self._m_late.inc()
        return []

    def _accept(self, request: Request) -> list[Session]:
        user = request.user_id
        governed = self.governor is not None
        emitted: list[Session] = []
        if governed:
            # one membership test for the common user: a quarantined user
            # was struck, so it holds an eviction watermark too.
            if user in self._evict_watermarks:
                watermark = self._evict_watermarks[user]
                if request.timestamp < watermark:
                    return self._late(
                        request,
                        f"user {user!r} was force-finished by the resource "
                        f"governor at t={watermark}; an older request can "
                        f"no longer join")
                if user in self._quarantine:
                    return self._quarantine_append(request)
            if self._spilled and user in self._spilled:
                # Make room *before* the cold buffer re-enters tracked
                # state, or the restore itself would spike memory over
                # the budget.
                emitted = self._rebalance(demand=self._spilled[user][1])
                self._restore_user(user)
        buffer = self._buffers.get(user)
        if buffer is not None:
            last = buffer[-1]
            if request.timestamp < last.timestamp:
                if self.late_policy == "raise":
                    raise LateEventError(
                        f"out-of-order request for user "
                        f"{user!r}: {request.timestamp} after "
                        f"{last.timestamp}")
                self._late_dropped += 1
                self._m_late.inc()
                return emitted
            if (self.dedup and request.timestamp == last.timestamp
                    and request.page == last.page):
                self._duplicates_dropped += 1
                self._m_duplicates.inc()
                return emitted
            gap = request.timestamp - last.timestamp
            span = request.timestamp - buffer[0].timestamp
            if gap > self.config.max_gap or span > self.config.max_duration:
                emitted += self._finish(user)
                buffer = None
        if buffer is None:
            self._buffers[user] = [request]
        else:
            buffer.append(request)
        self._fed += 1
        self._m_fed.inc()
        self._g_buffered.inc()
        self._g_users.set(len(self._buffers))
        if governed:
            cost = request_cost(request)
            self._user_bytes[user] = self._user_bytes.get(user, 0) + cost
            self._tracked += cost
            if self._tracked > self._peak_tracked:
                self._peak_tracked = self._tracked
            if len(self._buffers[user]) >= self.governor.per_user_cap:
                emitted.extend(self._strike(user))
        return emitted

    # -- closing -----------------------------------------------------------

    def flush(self, watermark: float | None = None) -> list[Session]:
        """Emit sessions that can no longer grow.

        Args:
            watermark: event-time lower bound for all *future* requests.
                The reorder buffer first releases everything strictly
                before it (a request *at* the watermark may still gain an
                equal-timestamp peer, so it is held); candidates whose
                last request lies more than ρ before it are then provably
                closed and are emitted, spilled ones straight from disk.
                ``None`` closes everything, drains every quarantine
                channel (into ``evicted_requests``) and **seals the
                stream** (end of stream): any later ``feed`` is a late
                event under ``late_policy``, never a silent restart that
                would diverge from batch output.

        After ``flush(watermark)``, feeding a request strictly older than
        ``watermark`` is a *late* event (see ``late_policy``).
        """
        emitted: list[Session] = []
        for user in sorted(self._spilled):
            _, _, last_ts = self._spilled[user]
            if (watermark is None
                    or watermark - last_ts > self.config.max_gap):
                emitted.extend(self._close_spilled(user))
        if watermark is None:
            emitted.extend(self._release(float("inf")))
            self._flush_watermark = float("inf")
        else:
            emitted.extend(self._release(watermark))
            self._flush_watermark = max(self._flush_watermark, watermark)
        for user_id in list(self._buffers):
            buffer = self._buffers[user_id]
            if (watermark is None
                    or watermark - buffer[-1].timestamp > self.config.max_gap):
                emitted.extend(self._finish(user_id))
        self._g_reorder.set(len(self._reorder))
        self._update_lag()
        if self.governor is not None:
            if watermark is None:
                for user in sorted(self._quarantine):
                    emitted.extend(
                        self._flush_quarantine_channel(user, reopen=False))
            # the flushed watermark now rejects everything an eviction
            # watermark at or below it would, so those entries go;
            # quarantined users keep theirs (``_accept`` reads quarantine
            # only through it).
            floor = self._flush_watermark
            self._evict_watermarks = {
                user: mark for user, mark in self._evict_watermarks.items()
                if mark > floor or user in self._quarantine}
            self._g_tracked.set(self._tracked)
        return emitted

    def _finish(self, user_id: str) -> list[Session]:
        if self.governor is not None:
            self._tracked -= self._user_bytes.pop(user_id, 0)
        candidate = self._buffers.pop(user_id, None)
        if not candidate:
            return []
        sessions = self._finisher(candidate)
        self._closed += len(candidate)
        self._emitted += len(sessions)
        self._m_emitted.inc(len(sessions))
        self._g_buffered.dec(len(candidate))
        self._g_users.set(len(self._buffers))
        return sessions

    # -- governance ----------------------------------------------------------

    def _arm_budget(self) -> None:
        """Set the effective budget (the configured one, shrunk by every
        armed ``mem-pressure`` fault due at the current feed ordinal), its
        high-watermark line, and the ordinal at which a fault next fires.
        """
        configured = self.governor.memory_budget
        budget = configured
        self._next_pressure = float("inf")
        for fault in self._pressure_faults:
            if self._feed_ordinal >= fault.index:
                factor = (fault.seconds if 0 < fault.seconds <= 1
                          else DEFAULT_PRESSURE_FACTOR)
                budget = min(budget, max(1, int(configured * factor)))
            else:
                self._next_pressure = min(self._next_pressure, fault.index)
        self._budget = budget
        self._high = budget * self.governor.high_watermark
        self._g_budget.set(budget)

    def _admit(self, request: Request) -> bool:
        """Advance the feed ordinal and run admission control; ``False``
        when the request is shed.

        Raises:
            OverloadError: under ``overload_policy="raise"``, when
                admission would exceed the effective budget.
        """
        self._feed_ordinal += 1
        if self._feed_ordinal >= self._next_pressure:
            self._arm_budget()
        if self._rebalancing:
            return True
        # shed and raise run admission control, and it covers quarantined
        # users too: these policies have no rebalancing pass to flush side
        # channels, so exempting them would let quarantine growth break
        # the budget the policy enforces.
        projected = (self._tracked + request_cost(request)
                     - self._closable_bytes(request))
        if projected <= self._budget:
            return True
        if self.governor.overload_policy == "raise":
            raise OverloadError(
                f"admitting request for user {request.user_id!r} would "
                f"put tracked state at {projected} bytes, over the "
                f"{self._budget}-byte budget")
        self._fed += 1   # presented; accounted in shed_requests
        self._m_fed.inc()
        self._shed += 1
        self._c_sheds.inc()
        return False

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

    # -- replay state ------------------------------------------------------

    def state(self) -> dict[str, Any]:
        """The complete reconstruction state, as a JSON-ready dict.

        A pure function of the events fed so far: :meth:`restore` it into
        a fresh pipeline built with the same arguments, feed the same
        remaining events, and the output and :meth:`stats` are identical.
        Metrics are not state; the registry's owner snapshots them.

        Raises:
            ExecutionError: when the reorder buffer holds requests, or a
                user's buffer is spilled (cold buffers live outside the
                state).
        """
        if self._reorder:
            raise ExecutionError("cannot capture a pipeline with a "
                                 "non-empty reorder buffer")
        if self._spilled:
            raise ExecutionError("cannot capture a pipeline with spilled "
                                 "users")
        return _capture_fields(self, self.STATE_FIELDS)

    def restore(self, state: Mapping[str, Any]) -> None:
        """Replace this pipeline's reconstruction state with ``state``; a
        governed pipeline's budget follows the restored feed ordinal."""
        _apply_fields(self, self.STATE_FIELDS, state)
        if self.governor is not None:
            self._arm_budget()

    @property
    def max_seen(self) -> float:
        """The newest event time fed so far (``-inf`` before any)."""
        return self._max_seen

    # -- introspection -------------------------------------------------------

    def stats(self) -> StreamingStats:
        """Current counters, including the degradation ledger."""
        governor = self.governor
        return StreamingStats(
            active_users=len(self._buffers),
            buffered_requests=sum(len(buffer)
                                  for buffer in self._buffers.values()),
            emitted_sessions=self._emitted,
            fed_requests=self._fed,
            late_dropped=self._late_dropped,
            duplicates_dropped=self._duplicates_dropped,
            reorder_buffered=len(self._reorder),
            closed_requests=self._closed - self._evicted_via_finish,
            memory_budget=(governor.memory_budget
                           if governor is not None else 0),
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


def streaming_smart_sra(topology: WebGraph,
                        config: SmartSRAConfig | None = None, *,
                        governor: GovernorConfig | None = None,
                        **options: object) -> StreamingReconstructor:
    """A streaming pipeline emitting full Smart-SRA (heur4) sessions.

    ``governor`` and the keyword options (``late_policy``,
    ``reorder_window``, ``dedup``, ``registry``) pass through to
    :class:`StreamingReconstructor`.
    """
    resolved = config if config is not None else SmartSRAConfig()
    return StreamingReconstructor(
        lambda candidate: maximal_sessions_fast(candidate, topology,
                                                resolved),
        resolved, governor=governor, **options)  # type: ignore[arg-type]


def streaming_phase1(config: SmartSRAConfig | None = None, *,
                     governor: GovernorConfig | None = None,
                     **options: object) -> StreamingReconstructor:
    """A streaming pipeline emitting raw Phase-1 candidates as sessions.

    ``governor`` and the keyword options pass through to
    :class:`StreamingReconstructor`, as in :func:`streaming_smart_sra`.
    """
    return StreamingReconstructor(
        lambda candidate: [Session(candidate)], config, governor=governor,
        **options)  # type: ignore[arg-type]


def streaming_amp(topology: WebGraph,
                  config: SmartSRAConfig | None = None, *,
                  amp: object | None = None,
                  governor: GovernorConfig | None = None,
                  **options: object) -> StreamingReconstructor:
    """A streaming pipeline emitting All-Maximal-Paths sessions.

    Each time-closed Phase-1 candidate is finished with the AMP optimized
    enumerator (:func:`repro.core.amp.amp_sessions_optimized`) under the
    configured :class:`~repro.core.amp.AMPConfig` explosion guards —
    identical to the batch :class:`~repro.sessions.maximal_paths.
    AllMaximalPaths` output, because AMP (like Phase 2) never looks across
    candidate boundaries.  The symbol table is interned once and shared by
    every finisher call.

    ``governor`` and the keyword options pass through to
    :class:`StreamingReconstructor`, as in :func:`streaming_smart_sra`
    (pair a ``governor`` with ``repro doctor --path-budget`` to catch a
    path budget that undoes the memory budget).
    """
    from repro.core.amp import AMPConfig, amp_sessions_optimized
    from repro.core.columnar import SymbolTable

    resolved = config if config is not None else SmartSRAConfig()
    resolved_amp = amp if amp is not None else AMPConfig()
    symbols = SymbolTable.for_topology(topology)

    def finish(candidate: Sequence[Request]) -> list[Session]:
        return amp_sessions_optimized(
            candidate, topology, resolved, resolved_amp,
            interner=symbols).sessions

    return StreamingReconstructor(
        finish, resolved, governor=governor,
        **options)  # type: ignore[arg-type]
