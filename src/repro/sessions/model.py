"""Value types shared by the simulator, the log substrate and the heuristics.

The paper works with three granularities of web usage data:

* a **request** — one page hit by one user at one instant (the projection of
  a Common Log Format record onto the only three fields session
  reconstruction needs: user identity, timestamp and page);
* a **session** — an ordered sequence of requests belonging to a single
  visit of a single user;
* a **session set** — all sessions of an experiment (ground truth from the
  agent simulator, or the output of one heuristic over a whole log).

All three types are immutable.  Immutability matters here because the
Smart-SRA Phase 2 algorithm *branches*: one open session may be extended by
several pages simultaneously, producing several longer sessions.  Sharing
immutable prefixes makes that cheap and safe.

Timestamps are plain ``float`` seconds (an epoch offset or a simulation
clock — the heuristics only ever take differences).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from repro._slots import slot_init
from repro.exceptions import ReconstructionError

__all__ = ["Request", "Session", "SessionSet"]


@slot_init
@dataclass(frozen=True, slots=True, order=True)
class Request:
    """One page request by one user.

    Ordering is by ``(timestamp, user_id, page)`` so that sorting a mixed
    list of requests yields a stable chronological stream.

    Attributes:
        timestamp: request time, in seconds on an arbitrary shared clock.
        user_id: stable identity of the requesting agent.  For reactive
            processing this is whatever the log partitioner decided a "user"
            is — typically the client IP (plus user agent, when available).
        page: canonical page identifier, e.g. ``"P13"`` or ``"/docs/a.html"``.
        synthetic: ``True`` for requests that never reached the server and
            were *inserted* by a heuristic (the navigation-oriented
            heuristic's backward browser movements) or observed only on the
            client side (cache hits in the simulator's ground truth).
        referrer: the page whose link the user followed, when known.
            Plain CLF does not record it (``None`` throughout the paper's
            reactive setting); the Combined Log Format does, and the
            referrer-based heuristic (:mod:`repro.sessions.referrer`)
            exploits it.  ``None`` also denotes a direct entry (typed URL).
    """

    timestamp: float
    user_id: str
    page: str
    synthetic: bool = field(default=False, compare=False)
    referrer: str | None = field(default=None, compare=False)

    def shifted(self, delta: float) -> "Request":
        """Return a copy with the timestamp moved by ``delta`` seconds."""
        return Request(self.timestamp + delta, self.user_id, self.page,
                       self.synthetic, self.referrer)

    def without_referrer(self) -> "Request":
        """Return a copy with the referrer stripped (CLF's view)."""
        return Request(self.timestamp, self.user_id, self.page,
                       self.synthetic)


class Session:
    """An immutable, chronologically ordered sequence of requests.

    A :class:`Session` behaves like a read-only sequence of
    :class:`Request` objects and additionally exposes the page-id view used
    by the capture metric (:attr:`pages`).

    Args:
        requests: the member requests, already in timestamp order.  The
            navigation-oriented heuristic legitimately repeats pages and
            reuses timestamps for its inserted backward movements, so only
            *descending* timestamps are rejected.

    Raises:
        ReconstructionError: if the requests are not in non-decreasing
            timestamp order, or if they mix user identities.
    """

    __slots__ = ("_requests", "_pages")

    def __init__(self, requests: Iterable[Request]) -> None:
        reqs = tuple(requests)
        for earlier, later in zip(reqs, reqs[1:]):
            if later.timestamp < earlier.timestamp:
                raise ReconstructionError(
                    "session requests must be in non-decreasing timestamp "
                    f"order; got {earlier.timestamp} then {later.timestamp}"
                )
            if later.user_id != earlier.user_id:
                raise ReconstructionError(
                    "a session may not mix users: "
                    f"{earlier.user_id!r} vs {later.user_id!r}"
                )
        self._requests: tuple[Request, ...] = reqs
        self._pages: tuple[str, ...] = tuple(r.page for r in reqs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pages(cls, pages: Sequence[str], *, user_id: str = "u0",
                   start: float = 0.0, gap: float = 60.0) -> "Session":
        """Build a session from bare page ids with evenly spaced timestamps.

        Convenience for tests, docs and worked examples where only the page
        order matters.

        Args:
            pages: page identifiers in visit order.
            user_id: user identity stamped on every request.
            start: timestamp of the first request, seconds.
            gap: constant inter-request gap, seconds.
        """
        return cls(Request(start + i * gap, user_id, page)
                   for i, page in enumerate(pages))

    @classmethod
    def from_trusted_parts(cls, requests: tuple[Request, ...]) -> "Session":
        """Construct from an already-validated request tuple, skipping checks.

        The columnar data plane (:mod:`repro.core.columnar`) proves the
        timestamp-ordering and single-user invariants on integer columns
        before materializing, so re-walking the tuple here would double the
        boundary cost for nothing.  Same contract as the fast path inside
        :meth:`extended`: the caller guarantees the invariants hold.

        The page view is built lazily on first :attr:`pages` access —
        consumers that stay on the request view (or on the plane's index
        output) never pay for it.
        """
        session = cls.__new__(cls)
        session._requests = requests
        session._pages = None
        return session

    def extended(self, request: Request) -> "Session":
        """Return a new session with ``request`` appended.

        The receiver is unchanged; Smart-SRA Phase 2 relies on this to
        branch one open session into several extensions.

        Only the new boundary is validated — the existing requests were
        checked when this session was built, so re-walking them would make
        growing a session O(length²) in Phase 2's hot loop.

        Raises:
            ReconstructionError: if ``request`` predates the current last
                request or belongs to a different user.
        """
        if self._requests:
            last = self._requests[-1]
            if request.timestamp < last.timestamp:
                raise ReconstructionError(
                    "session requests must be in non-decreasing timestamp "
                    f"order; got {last.timestamp} then {request.timestamp}"
                )
            if request.user_id != last.user_id:
                raise ReconstructionError(
                    "a session may not mix users: "
                    f"{last.user_id!r} vs {request.user_id!r}"
                )
        session = Session.__new__(Session)
        session._requests = self._requests + (request,)
        session._pages = self.pages + (request.page,)
        return session

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> Request:
        return self._requests[index]

    def __bool__(self) -> bool:
        return bool(self._requests)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Session):
            return NotImplemented
        return self._requests == other._requests

    def __hash__(self) -> int:
        return hash(self._requests)

    def __repr__(self) -> str:
        return f"Session({list(self.pages)!r})"

    # -- views -------------------------------------------------------------

    @property
    def requests(self) -> tuple[Request, ...]:
        """The member requests, oldest first."""
        return self._requests

    @property
    def pages(self) -> tuple[str, ...]:
        """Page ids in visit order (the view the capture metric compares).

        Sessions built by :meth:`from_trusted_parts` compute this lazily
        on first access and cache it.
        """
        pages = self._pages
        if pages is None:
            pages = self._pages = tuple(r.page for r in self._requests)
        return pages

    @property
    def user_id(self) -> str:
        """Identity of the session's user.

        Raises:
            ReconstructionError: for an empty session, which has no user.
        """
        if not self._requests:
            raise ReconstructionError("an empty session has no user")
        return self._requests[0].user_id

    @property
    def start_time(self) -> float:
        """Timestamp of the first request.

        Raises:
            ReconstructionError: for an empty session.
        """
        if not self._requests:
            raise ReconstructionError("an empty session has no start time")
        return self._requests[0].timestamp

    @property
    def end_time(self) -> float:
        """Timestamp of the last request.

        Raises:
            ReconstructionError: for an empty session.
        """
        if not self._requests:
            raise ReconstructionError("an empty session has no end time")
        return self._requests[-1].timestamp

    @property
    def duration(self) -> float:
        """Seconds between the first and last request (0 for singletons)."""
        if not self._requests:
            return 0.0
        return self.end_time - self.start_time

    def max_gap(self) -> float:
        """Largest inter-request gap in seconds (0 for length < 2)."""
        if len(self._requests) < 2:
            return 0.0
        return max(later.timestamp - earlier.timestamp
                   for earlier, later
                   in zip(self._requests, self._requests[1:]))

    def distinct_pages(self) -> frozenset[str]:
        """The set of page ids visited in this session."""
        return frozenset(self.pages)

    def canonical_key(self) -> tuple[str, tuple[tuple[float, str, bool], ...]]:
        """An engine-independent identity for differential comparison.

        Two sessions reconstructed by different execution paths (serial,
        columnar, streaming, sharded) describe the same visit iff their
        canonical keys are equal: same user, same ``(timestamp, page,
        synthetic)`` sequence.  Referrers are deliberately excluded — they
        are provenance metadata that CLF logs do not carry, and
        :class:`Request` equality already ignores them.
        """
        user = self._requests[0].user_id if self._requests else ""
        return (user, tuple((r.timestamp, r.page, r.synthetic)
                            for r in self._requests))


class SessionSet:
    """An immutable collection of sessions with per-user indexing.

    Produced both by the agent simulator (ground truth) and by every
    heuristic (reconstruction output); consumed by the evaluation metrics.
    Iteration order is the construction order.

    The per-user index is built on first use.  A set made by
    :meth:`_from_index` (the columnar plane's and the sharded
    coordinator's output) starts as a request pool plus index lists and
    builds its :class:`Session` objects on first use too; ``len``,
    ``bool``, :meth:`total_requests` and :meth:`save` never need them.
    """

    __slots__ = ("_sessions", "_by_user", "_index")

    def __init__(self, sessions: Iterable[Session]) -> None:
        self._sessions: tuple[Session, ...] | None = tuple(sessions)
        self._by_user: dict[str, tuple[Session, ...]] | None = None
        self._index: tuple | None = None

    @classmethod
    def _from_index(cls, pool: Sequence[Request], offsets: Sequence[int],
                    flat: Sequence[int],
                    order: Sequence[int] | None = None) -> "SessionSet":
        """A set in index form: session ``i`` is the requests
        ``pool[j] for j in flat[offsets[i]:offsets[i + 1]]``.

        ``offsets`` is a list of ``int``; ``flat`` may be any integer
        sequence and is kept as a numpy array, so the writer gathers by it
        in C.  ``order``, when given, is a permutation of the session
        numbers: the set's ``k``-th session is session ``order[k]``.  The
        caller guarantees what :meth:`Session.from_trusted_parts` requires
        of every session (one user, non-decreasing timestamps).  A request
        shared by several sessions is one pool entry, which :meth:`save`
        formats once.
        """
        built = cls.__new__(cls)
        built._sessions = None
        built._by_user = None
        built._index = (pool, offsets, np.asarray(flat, dtype=np.intp),
                        order)
        return built

    def _all(self) -> tuple[Session, ...]:
        sessions = self._sessions
        if sessions is None:
            pool, offsets, flat, order = self._index
            picked = tuple(map(pool.__getitem__, flat.tolist()))
            from_trusted = Session.from_trusted_parts
            built = [from_trusted(picked[lo:hi])
                     for lo, hi in zip(offsets, offsets[1:])]
            if order is not None:
                built = list(map(built.__getitem__, order))
            sessions = self._sessions = tuple(built)
        return sessions

    def _groups(self) -> dict[str, tuple[Session, ...]]:
        groups = self._by_user
        if groups is None:
            by_user: dict[str, list[Session]] = {}
            # read the request tuple directly: `Session.__bool__` and the
            # `user_id` property are Python-level calls per session.
            for session in self._all():
                requests = session._requests
                if requests:
                    by_user.setdefault(requests[0].user_id,
                                       []).append(session)
            groups = self._by_user = {
                user: tuple(group) for user, group in by_user.items()}
        return groups

    def _lengths(self) -> list[int]:
        """Every session's length, in session-number order (the output
        order only when no ``order`` permutes an index-form set)."""
        if self._index is not None:
            offsets = self._index[1]
            return [hi - lo for lo, hi in zip(offsets, offsets[1:])]
        return [len(session._requests) for session in self._sessions]

    # -- collection protocol ----------------------------------------------

    def __len__(self) -> int:
        if self._index is not None:
            return len(self._index[1]) - 1
        return len(self._sessions)

    def __iter__(self) -> Iterator[Session]:
        return iter(self._all())

    def __getitem__(self, index: int) -> Session:
        return self._all()[index]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SessionSet):
            return NotImplemented
        return self._all() == other._all()

    def __repr__(self) -> str:
        return (f"SessionSet({len(self)} sessions, "
                f"{len(self._groups())} users)")

    # -- views -------------------------------------------------------------

    @property
    def sessions(self) -> tuple[Session, ...]:
        """All member sessions, in construction order."""
        return self._all()

    def users(self) -> tuple[str, ...]:
        """Identities of all users that own at least one non-empty session."""
        return tuple(self._groups())

    def for_user(self, user_id: str) -> tuple[Session, ...]:
        """Sessions belonging to ``user_id`` (empty tuple if unknown)."""
        return self._groups().get(user_id, ())

    def page_vocabulary(self) -> frozenset[str]:
        """Every page id appearing anywhere in the set."""
        return frozenset(page for session in self._all()
                         for page in session.pages)

    def total_requests(self) -> int:
        """Sum of session lengths."""
        return sum(self._lengths())

    def mean_length(self) -> float:
        """Mean session length in requests (0.0 for an empty set)."""
        if not self:
            return 0.0
        return self.total_requests() / len(self)

    def filtered(self, min_length: int = 1) -> "SessionSet":
        """Return a new set keeping only sessions of at least ``min_length``."""
        return SessionSet(s for s in self._all() if len(s) >= min_length)

    # -- canonical form ----------------------------------------------------

    def canonical_form(self) -> dict[str, list[tuple[tuple[float, str, bool], ...]]]:
        """Order-independent normal form for cross-engine comparison.

        Maps each user to the *sorted* list of that user's canonical
        session bodies (see :meth:`Session.canonical_key`).  Engines may
        emit sessions in different orders (streaming emits as candidates
        close, columnar emits by path depth), so construction order must
        not participate in equivalence — but multiplicity must: a session
        reconstructed twice is a divergence, hence a sorted list rather
        than a set.  Empty sessions normalize under the ``""`` user.
        """
        grouped: dict[str, list[tuple[tuple[float, str, bool], ...]]] = {}
        for session in self._all():
            user, body = session.canonical_key()
            grouped.setdefault(user, []).append(body)
        return {user: sorted(bodies) for user, bodies in grouped.items()}

    def canonical_digest(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_form`.

        Stable across processes and sessions-set construction order; two
        sets digest equally iff their canonical forms are equal (floats
        serialize via ``repr``, which round-trips exactly).
        """
        form = self.canonical_form()
        payload = json.dumps(
            [[user, bodies] for user, bodies in sorted(form.items())],
            separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> list[dict[str, object]]:
        """Encode as plain JSON-serializable data (see :meth:`from_jsonable`)."""
        return [
            {
                "user": session.user_id if session else "",
                "requests": [
                    {"t": request.timestamp, "page": request.page,
                     "synthetic": request.synthetic}
                    for request in session
                ],
            }
            for session in self._all()
        ]

    @classmethod
    def from_jsonable(cls, data: Iterable[Mapping[str, object]]) -> "SessionSet":
        """Decode the structure produced by :meth:`to_jsonable`."""
        sessions = []
        for entry in data:
            user = str(entry["user"])
            requests = [
                Request(float(item["t"]), user, str(item["page"]),
                        bool(item.get("synthetic", False)))
                for item in entry["requests"]  # type: ignore[union-attr]
            ]
            sessions.append(Session(requests))
        return cls(sessions)

    def save(self, path: str) -> None:
        """Write the set to ``path`` as JSON.

        The file is byte-identical to ``json.dump(self.to_jsonable(), f)``
        (the spec), but the cost scales with *distinct* requests rather
        than request occurrences (see the writer notes at the end of this
        module).  An index-form set is written from its pool and index
        lists, without building its sessions.
        """
        rows = (_object_rows(self._sessions) if self._index is None
                else _index_rows(*self._index))
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(_iter_json(rows))

    @classmethod
    def load(cls, path: str) -> "SessionSet":
        """Read a set previously written by :meth:`save`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_jsonable(json.load(handle))


# -- the writer --------------------------------------------------------------
#
# Smart-SRA Phase 2 emits every maximal session of a candidate, so one
# logged request appears in many output sessions (dozens of times per log
# line on long candidates).  The writer formats each distinct request once
# into its ``{"t": ..., "page": ..., "synthetic": ...}`` fragment and
# sessions join the cached fragments.  It has two feeds.  An index-form
# set formats its pool entry by entry and joins fragments by index.  An
# object-backed set memoizes fragments by request ``id()`` as it walks its
# sessions; deriving the index form from the objects first was measured
# slower (docs/performance.md, "Writing sessions out").  The memo is keyed
# by ``id()``, not by :class:`Request` equality: equality ignores
# ``synthetic``, so an equality-keyed memo would write a synthetic request
# as a real one.  The ids stay valid because the sessions keep every
# request alive for the whole call.


class _Text:
    """The writer's formatting rules, with one string memo per file.

    Exact ``str`` and finite exact ``float`` values take the same routes
    the ``json`` encoder takes (``encode_basestring_ascii`` and
    ``float.__repr__``); anything else goes through ``json.dumps``, so the
    bytes never differ from ``json.dumps(to_jsonable())``.
    """

    __slots__ = ("_strings",)

    def __init__(self) -> None:
        self._strings: dict[str, str] = {}

    def text(self, value: object) -> str:
        if type(value) is not str:
            return json.dumps(value)
        encoded = self._strings.get(value)
        if encoded is None:
            encoded = self._strings[value] = encode_basestring_ascii(value)
        return encoded

    def fragment(self, request: Request) -> str:
        t = request.timestamp
        t_text = (float.__repr__(t) if type(t) is float and math.isfinite(t)
                  else json.dumps(t))
        synthetic = request.synthetic
        synthetic_text = ("true" if synthetic is True else
                          "false" if synthetic is False else
                          json.dumps(synthetic))
        return (f'{{"t": {t_text}, "page": {self.text(request.page)}, '
                f'"synthetic": {synthetic_text}}}')


def _object_rows(sessions: Iterable[Session]
                 ) -> Iterator[tuple[str, Iterable[str]]]:
    """``(user text, request fragments)`` per session, fragments memoized
    by request ``id()``."""
    formats = _Text()
    fragment = formats.fragment
    fragments: dict[int, str] = {}
    for session in sessions:
        requests = session._requests
        parts = []
        for request in requests:
            cached = fragments.get(id(request))
            if cached is None:
                cached = fragments[id(request)] = fragment(request)
            parts.append(cached)
        yield (formats.text(requests[0].user_id) if requests else '""'), parts


def _index_rows(pool: Sequence[Request], offsets: Sequence[int],
                flat: np.ndarray, order: Sequence[int] | None
                ) -> Iterator[tuple[str, Iterable[str]]]:
    """``(user text, request fragments)`` per session of an index-form set:
    every pool entry is formatted once, and one numpy gather lays the
    fragments out in ``flat`` order, so a session's are one slice."""
    formats = _Text()
    text = formats.text
    fragments = np.empty(len(pool), dtype=object)
    fragments[:] = list(map(formats.fragment, pool))
    pieces = fragments[flat].tolist()
    for number in range(len(offsets) - 1) if order is None else order:
        lo = offsets[number]
        hi = offsets[number + 1]
        if lo == hi:
            yield '""', ()
        else:
            yield text(pool[flat[lo]].user_id), pieces[lo:hi]


def _iter_json(rows: Iterable[tuple[str, Iterable[str]]]) -> Iterator[str]:
    """The text of ``json.dumps(SessionSet(...).to_jsonable())``, one chunk
    per session, from each session's ``(user text, request fragments)``."""
    separator = "["
    for user, parts in rows:
        yield (f'{separator}{{"user": {user}, "requests": '
               f'[{", ".join(parts)}]}}')
        separator = ", "
    yield "]" if separator == ", " else "[]"
