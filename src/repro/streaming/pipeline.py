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
  logging produces, counted in :attr:`StreamingStats.duplicates_dropped`.

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
    ReconstructionError,
)
from repro.obs import Registry, get_registry
from repro.sessions.model import Request, Session
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
    """Point-in-time pipeline statistics.

    Attributes:
        active_users: users with a buffered open candidate.
        buffered_requests: total requests held in open candidates.
        emitted_sessions: sessions emitted since construction.
        fed_requests: requests accepted since construction.
        late_dropped: requests discarded by ``late_policy="drop"``.
        duplicates_dropped: adjacent duplicates discarded by ``dedup``.
        reorder_buffered: requests currently held in the reorder buffer.
        closed_requests: requests already handed to the finisher via a
            closed candidate.
    """

    active_users: int
    buffered_requests: int
    emitted_sessions: int
    fed_requests: int
    late_dropped: int = 0
    duplicates_dropped: int = 0
    reorder_buffered: int = 0
    closed_requests: int = 0

    def reconciles(self) -> bool:
        """Whether the counters balance: nothing was silently lost.

        Every request ever accepted is either still buffered in an open
        candidate or was closed out through the finisher, so
        ``fed_requests == buffered_requests + closed_requests`` must hold
        at every point in the stream's life (late/duplicate drops are
        counted *before* a request is fed, and the reorder buffer holds
        requests that are not yet fed).
        """
        return self.fed_requests == self.buffered_requests + self.closed_requests


class StreamingReconstructor:
    """Incremental Phase-1 candidate builder with pluggable finishing.

    Args:
        finisher: maps a closed candidate (non-empty, chronological) to
            finished sessions.
        config: the δ/ρ thresholds (paper defaults when omitted).
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
            reorder-depth, buffered-requests and watermark-lag gauges);
            defaults to the ambient :func:`repro.obs.get_registry`, a
            no-op unless collection was enabled.

    Per-user event-time must be non-decreasing *after* reorder buffering;
    an equal timestamp is legal (ties keep arrival order, or release
    order under a reorder window).  A request older than the user's
    buffered tail, or older than a watermark already flushed, is *late*
    and handled by ``late_policy``.

    Raises:
        ConfigurationError: for an unknown ``late_policy`` or a negative
            ``reorder_window``.
    """

    #: the replay state this class owns, key -> codec (see
    #: :func:`_capture_fields`): every attribute that changes as events
    #: flow, except the reorder buffer, which :meth:`state` requires empty.
    STATE_FIELDS: ClassVar[dict[str, str]] = {
        "buffers": "requests",
        **dict.fromkeys(("max_seen", "flush_watermark", "emitted", "fed",
                         "closed", "late_dropped", "duplicates_dropped"),
                        "plain"),
    }

    def __init__(self, finisher: Finisher,
                 config: SmartSRAConfig | None = None, *,
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

    # -- feeding -----------------------------------------------------------

    def feed(self, request: Request) -> list[Session]:
        """Accept one request; return any sessions it proved complete.

        Raises:
            ReconstructionError: for a negative timestamp.
            LateEventError: under ``late_policy="raise"``, for a request
                that predates the flush watermark, the reorder buffer's
                release floor, or its user's buffered tail.
        """
        if request.timestamp < 0:
            raise ReconstructionError(
                f"negative timestamp {request.timestamp}")
        if request.timestamp < self._flush_watermark:
            if self._flush_watermark == float("inf"):
                return self._late(
                    request,
                    "the stream was sealed by an end-of-stream flush()")
            return self._late(
                request,
                f"request at t={request.timestamp} predates the flushed "
                f"watermark {self._flush_watermark}")
        if self.reorder_window > 0:
            release_floor = self._max_seen - self.reorder_window
            if request.timestamp < release_floor:
                return self._late(
                    request,
                    f"request at t={request.timestamp} is more than "
                    f"{self.reorder_window}s behind the stream "
                    f"(release floor {release_floor})")
            heapq.heappush(self._reorder, request)
            self._max_seen = max(self._max_seen, request.timestamp)
            emitted = self._release(self._max_seen - self.reorder_window)
            self._g_reorder.set(len(self._reorder))
            self._update_lag()
            return emitted
        self._max_seen = max(self._max_seen, request.timestamp)
        self._update_lag()
        return self._accept(request)

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
        buffer = self._buffers.get(request.user_id)
        emitted: list[Session] = []
        if buffer is not None:
            last = buffer[-1]
            if request.timestamp < last.timestamp:
                if self.late_policy == "raise":
                    raise LateEventError(
                        f"out-of-order request for user "
                        f"{request.user_id!r}: {request.timestamp} after "
                        f"{last.timestamp}")
                self._late_dropped += 1
                self._m_late.inc()
                return []
            if (self.dedup and request.timestamp == last.timestamp
                    and request.page == last.page):
                self._duplicates_dropped += 1
                self._m_duplicates.inc()
                return []
            gap = request.timestamp - last.timestamp
            span = request.timestamp - buffer[0].timestamp
            if gap > self.config.max_gap or span > self.config.max_duration:
                emitted = self._finish(request.user_id)
        self._buffers.setdefault(request.user_id, []).append(request)
        self._fed += 1
        self._m_fed.inc()
        self._g_buffered.inc()
        self._g_users.set(len(self._buffers))
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
                closed and are emitted.  ``None`` closes everything and
                **seals the stream** (end of stream): any later ``feed``
                is a late event under ``late_policy``, never a silent
                restart that would diverge from batch output.

        After ``flush(watermark)``, feeding a request strictly older than
        ``watermark`` is a *late* event (see ``late_policy``).
        """
        emitted: list[Session] = []
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
        return emitted

    def _finish(self, user_id: str) -> list[Session]:
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

    # -- replay state ------------------------------------------------------

    @classmethod
    def replay_fields(cls) -> dict[str, str]:
        """Every ``STATE_FIELDS`` entry of this class and its bases."""
        fields: dict[str, str] = {}
        for klass in reversed(cls.__mro__):
            fields.update(vars(klass).get("STATE_FIELDS", {}))
        return fields

    def _require_capturable(self) -> None:
        """Raise unless :meth:`state` can be taken."""
        if self._reorder:
            raise ExecutionError("cannot capture a pipeline with a "
                                 "non-empty reorder buffer")

    def state(self) -> dict[str, Any]:
        """The complete reconstruction state, as a JSON-ready dict.

        A pure function of the events fed so far: :meth:`restore` it into
        a fresh pipeline built with the same arguments, feed the same
        remaining events, and the output and :meth:`stats` are identical.
        Metrics are not state; the registry's owner snapshots them.

        Raises:
            ExecutionError: when the reorder buffer holds requests.
        """
        self._require_capturable()
        return _capture_fields(self, self.replay_fields())

    def restore(self, state: Mapping[str, Any]) -> None:
        """Replace this pipeline's reconstruction state with ``state``."""
        _apply_fields(self, self.replay_fields(), state)

    @property
    def max_seen(self) -> float:
        """The newest event time fed so far (``-inf`` before any)."""
        return self._max_seen

    @property
    def has_spilled(self) -> bool:
        """Whether user buffers are spilled to disk (never, ungoverned)."""
        return False

    # -- introspection -------------------------------------------------------

    def stats(self) -> StreamingStats:
        """Current buffering/emission counters."""
        return StreamingStats(
            active_users=len(self._buffers),
            buffered_requests=sum(len(buffer)
                                  for buffer in self._buffers.values()),
            emitted_sessions=self._emitted,
            fed_requests=self._fed,
            late_dropped=self._late_dropped,
            duplicates_dropped=self._duplicates_dropped,
            reorder_buffered=len(self._reorder),
            closed_requests=self._closed,
        )


def _make_pipeline(finisher: Finisher, config: SmartSRAConfig | None,
                   governor: object, options: dict) -> StreamingReconstructor:
    if governor is None:
        return StreamingReconstructor(finisher, config,
                                      **options)  # type: ignore[arg-type]
    # imported lazily: governor depends on this module.
    from repro.streaming.governor import GovernedStreamingReconstructor
    return GovernedStreamingReconstructor(
        finisher, config, governor=governor,
        **options)  # type: ignore[arg-type]


def streaming_smart_sra(topology: WebGraph,
                        config: SmartSRAConfig | None = None, *,
                        governor: object | None = None,
                        **options: object) -> StreamingReconstructor:
    """A streaming pipeline emitting full Smart-SRA (heur4) sessions.

    Keyword options (``late_policy``, ``reorder_window``, ``dedup``) pass
    through to :class:`StreamingReconstructor`.  Passing a
    :class:`~repro.streaming.governor.GovernorConfig` as ``governor``
    returns a budgeted
    :class:`~repro.streaming.governor.GovernedStreamingReconstructor`
    instead.
    """
    resolved = config if config is not None else SmartSRAConfig()
    return _make_pipeline(
        lambda candidate: maximal_sessions_fast(candidate, topology,
                                                resolved),
        resolved, governor, dict(options))


def streaming_phase1(config: SmartSRAConfig | None = None, *,
                     governor: object | None = None,
                     **options: object) -> StreamingReconstructor:
    """A streaming pipeline emitting raw Phase-1 candidates as sessions.

    Keyword options (``late_policy``, ``reorder_window``, ``dedup``) pass
    through to :class:`StreamingReconstructor`; ``governor`` selects the
    budgeted variant exactly as in :func:`streaming_smart_sra`.
    """
    return _make_pipeline(
        lambda candidate: [Session(candidate)], config, governor,
        dict(options))


def streaming_amp(topology: WebGraph,
                  config: SmartSRAConfig | None = None, *,
                  amp: object | None = None,
                  governor: object | None = None,
                  **options: object) -> StreamingReconstructor:
    """A streaming pipeline emitting All-Maximal-Paths sessions.

    Each time-closed Phase-1 candidate is finished with the AMP optimized
    enumerator (:func:`repro.core.amp.amp_sessions_optimized`) under the
    configured :class:`~repro.core.amp.AMPConfig` explosion guards —
    identical to the batch :class:`~repro.sessions.maximal_paths.
    AllMaximalPaths` output, because AMP (like Phase 2) never looks across
    candidate boundaries.  The symbol table is interned once and shared by
    every finisher call.

    Keyword options (``late_policy``, ``reorder_window``, ``dedup``) pass
    through to :class:`StreamingReconstructor`; ``governor`` selects the
    budgeted variant exactly as in :func:`streaming_smart_sra` (pair it
    with ``repro doctor --path-budget`` to catch a path budget that
    undoes the memory budget).
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

    return _make_pipeline(finish, resolved, governor, dict(options))
