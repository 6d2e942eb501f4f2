"""Framed binary wire protocol for the sharded streaming runtime.

The coordinator feeds each shard worker over an OS pipe.  Pickling every
:class:`~repro.sessions.model.Request` would spend most of the pipe
bandwidth re-sending the same user and page strings, so this module
interns them and ships fixed-width records over a byte stream:

* every frame is ``!BI`` — one kind byte and a payload length — followed
  by the payload, so a reader never needs lookahead;
* strings are interned: a ``SYM`` frame carries the UTF-8 text and
  implicitly assigns the *next* sequential id in the receiver's table,
  so ids never appear on the wire at definition time;
* an event is a fixed 21-byte record (float64 timestamp, three int32
  symbol ids — referrer ``-1`` meaning absent — and one synthetic flag
  byte), independent of how long the user/page strings are.  One ``EVT``
  frame carries one or more consecutive records: the coordinator hands a
  shard its events in batches of up to one ACK span, so neither side
  pays a frame, a syscall and a wake-up per event;
* emitted sessions travel as one binary ``OUT`` frame per emission
  batch (the sessions one feed, flush or EOF produced): a table of the
  batch's distinct requests as fixed 17-byte records (float64
  timestamp, uint32 user and page symbol ids, synthetic flag byte),
  then each session as a list of indices into that table.  Smart-SRA
  emits every maximal session of a candidate, so one request appears
  in many sessions of a batch; it crosses the pipe once, and the
  receiver decodes one :class:`~repro.sessions.model.Request` object
  per table entry and keeps the index lists as they came
  (:class:`SessionBatch`), never a ``Session`` per row.  It also keeps
  the payload, so :func:`canonical_keys` can later rank the tables and
  turn the index lists into byte sort keys without rebuilding a key
  object per request occurrence;
* a progress ``ACK`` goes up every ``ack_interval`` events and after
  every watermark flush, so it is a fixed 24-byte record (uint64
  ordinal, uint64 watermark index, float64 watermark), never JSON;
* a state capsule (``CAP``) is a 16-byte ``[ordinal, wm_index]`` stamp
  followed by canonical JSON.  A worker cuts one only every half replay
  capacity; the coordinator keeps its bytes as they came and, to
  restore a respawned worker, sends them back behind the stamp of the
  last progress ACK it absorbed.  The coordinator reads the stamps and
  never parses the JSON.  ``WM`` is one float64; ``DONE`` (once per
  worker) is JSON.

Both directions of the pipe use the same framing and the same ``SYM``
interning (worker → coordinator for the users and pages of emitted
sessions); only the kind sets differ.  The protocol is strictly
sequential per connection — a fresh worker incarnation starts from
empty symbol tables in both directions, and the coordinator re-interns
from scratch when it replays.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterable, Sequence
from itertools import accumulate
from typing import Any, Iterator

from repro.exceptions import WireProtocolError
from repro.sessions.model import Request, Session

__all__ = [
    "SYM", "EVT", "WM", "EOF", "CAP", "OUT", "ACK", "DONE", "ERR",
    "Event", "FrameReader", "SymbolEncoder", "SymbolDecoder",
    "SessionBatch", "canonical_keys", "frame", "json_frame", "decode_json",
    "watermark_frame", "decode_watermark", "progress_frame",
    "decode_progress", "capsule_frame", "capsule_stamp", "resume_frame",
    "decode_resume",
]

# coordinator -> worker
SYM = 1   #: intern the UTF-8 payload as the next symbol id
EVT = 2   #: one or more requests, fixed-width records
WM = 3    #: flush watermark (float64)
EOF = 4   #: end of stream — flush everything and send DONE
CAP = 5   #: state capsule: cut by a worker, sent back to restore a respawn

# worker -> coordinator
OUT = 6   #: one emission batch of sessions (binary request table)
ACK = 7   #: progress acknowledgement (binary ordinal, wm_index, watermark)
DONE = 8  #: final stats + obs snapshot (JSON)
ERR = 9   #: fatal, deterministic worker error (UTF-8 traceback)

_KINDS = frozenset((SYM, EVT, WM, EOF, CAP, OUT, ACK, DONE, ERR))

_HEADER = struct.Struct("!BI")
_EVENT = struct.Struct("!diiiB")
_WM = struct.Struct("!d")
_STAMP = struct.Struct("!QQ")        # ordinal, wm_index
_PROGRESS = struct.Struct("!QQd")    # ordinal, wm_index, watermark
_BATCH = struct.Struct("!II")        # table entries, sessions
_REQUEST = struct.Struct("!dIIB")    # timestamp, user id, page id, synthetic
_INDEX = 4                           # bytes per uint32 length or index

#: sentinel symbol id for "no referrer" in an event record.
NO_SYMBOL = -1

#: one event as it crosses the wire: ``(ts, user, page, referrer, syn)``.
Event = tuple[float, str, str, str | None, bool]


def frame(kind: int, payload: bytes = b"") -> bytes:
    """Serialize one frame: kind byte, payload length, payload."""
    return _HEADER.pack(kind, len(payload)) + payload


def _canonical_json(document: Any) -> bytes:
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def json_frame(kind: int, document: Any) -> bytes:
    """Serialize ``document`` as a canonical-JSON frame of ``kind``."""
    return frame(kind, _canonical_json(document))


def decode_json(payload: bytes) -> Any:
    """Parse a JSON frame payload, typing failures as protocol errors."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireProtocolError(f"undecodable JSON payload: {exc}") from exc


def watermark_frame(watermark: float) -> bytes:
    """Serialize a WM frame carrying ``watermark``."""
    return frame(WM, _WM.pack(watermark))


def decode_watermark(payload: bytes) -> float:
    """Decode a WM frame payload."""
    if len(payload) != _WM.size:
        raise WireProtocolError(
            f"watermark payload is {len(payload)} bytes, want {_WM.size}")
    return float(_WM.unpack(payload)[0])


def progress_frame(ordinal: int, wm_index: int, watermark: float) -> bytes:
    """Serialize a progress ACK: the worker has processed every event up
    to ``ordinal`` and every watermark up to ``wm_index``, and the newest
    event time it has seen is ``watermark``."""
    return frame(ACK, _PROGRESS.pack(ordinal, wm_index, watermark))


def decode_progress(payload: bytes) -> tuple[int, int, float]:
    """Decode an ACK payload to ``(ordinal, wm_index, watermark)``."""
    if len(payload) != _PROGRESS.size:
        raise WireProtocolError(
            f"progress payload is {len(payload)} bytes, want "
            f"{_PROGRESS.size}")
    return _PROGRESS.unpack(payload)


def capsule_frame(ordinal: int, wm_index: int, document: Any) -> bytes:
    """Serialize a worker's capsule: its ``[ordinal, wm_index]`` stamp,
    then ``document`` as canonical JSON."""
    return frame(CAP, _STAMP.pack(ordinal, wm_index)
                 + _canonical_json(document))


def capsule_stamp(payload: bytes) -> tuple[int, int]:
    """The ``(ordinal, wm_index)`` stamp of a :func:`capsule_frame`
    payload, read without parsing its JSON."""
    if len(payload) < _STAMP.size:
        raise WireProtocolError(
            f"capsule payload is {len(payload)} bytes, shorter than its "
            f"{_STAMP.size}-byte stamp")
    return _STAMP.unpack_from(payload)


def resume_frame(acked: tuple[int, int], capsule: bytes | None) -> bytes:
    """The CAP frame that restores a respawned worker: the stamp of the
    last ACK the coordinator absorbed, then the last capsule payload
    exactly as the worker sent it (nothing before the first capsule)."""
    return frame(CAP, _STAMP.pack(*acked) + (capsule or b""))


def decode_resume(payload: bytes
                  ) -> tuple[tuple[int, int], tuple[int, int] | None, Any]:
    """Decode a :func:`resume_frame` payload to ``(acked stamp, capsule
    stamp, capsule document)``; the last two are ``None`` before the
    first capsule."""
    acked = capsule_stamp(payload)
    body = payload[_STAMP.size:]
    if not body:
        return acked, None, None
    return acked, capsule_stamp(body), decode_json(body[_STAMP.size:])


class FrameReader:
    """Incremental frame parser over an arbitrary chunking of the stream.

    ``feed`` accepts whatever ``os.read`` produced — frames split across
    chunks are reassembled, multiple frames per chunk are all yielded.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[tuple[int, bytes]]:
        """Absorb ``data``; yield every now-complete ``(kind, payload)``.

        Frames are walked by offset and the consumed prefix is dropped
        once, when the iterator finishes or is closed, so a chunk of many
        small frames does not shift the buffer once per frame.
        """
        buffer = self._buffer
        buffer += data
        size = len(buffer)
        offset = 0
        try:
            while size - offset >= _HEADER.size:
                kind, length = _HEADER.unpack_from(buffer, offset)
                if kind not in _KINDS:
                    raise WireProtocolError(f"unknown frame kind {kind}")
                start = offset + _HEADER.size
                end = start + length
                if end > size:
                    return
                offset = end
                yield kind, bytes(buffer[start:end])
        finally:
            del buffer[:offset]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)


class SymbolEncoder:
    """Sender-side interning table shared by users, pages and referrers.

    The first time a string is encoded, a ``SYM`` frame defining it is
    appended *before* the record that references it; the receiver's
    :class:`SymbolDecoder` assigns ids by arrival order, so the two
    tables agree without ids ever being transmitted.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def _intern(self, out: bytearray, text: str) -> int:
        symbol = self._ids.get(text)
        if symbol is None:
            symbol = len(self._ids)
            self._ids[text] = symbol
            out += frame(SYM, text.encode("utf-8"))
        return symbol

    def encode_events(self, out: bytearray, events: Iterable[Event]) -> None:
        """Append the SYM frames (if any) and one EVT frame to ``out``.

        ``events`` are ``(ts, user, page, referrer, synthetic)`` tuples;
        their records travel in order in one frame.  No events appends
        nothing.
        """
        intern = self._intern
        records = [
            _EVENT.pack(timestamp, intern(out, user), intern(out, page),
                        NO_SYMBOL if referrer is None
                        else intern(out, referrer), 1 if synthetic else 0)
            for timestamp, user, page, referrer, synthetic in events]
        if records:
            out += frame(EVT, b"".join(records))

    def encode_event(self, out: bytearray, timestamp: float, user: str,
                     page: str, referrer: str | None,
                     synthetic: bool) -> None:
        """Append the SYM frames (if any) and a one-record EVT frame."""
        self.encode_events(out, ((timestamp, user, page, referrer,
                                  synthetic),))

    def encode_sessions(self, out: bytearray,
                        sessions: Sequence[Session]) -> None:
        """Append the SYM frames (if any) and one OUT frame to ``out``.

        The request table is keyed by object identity, so a request
        shared by several sessions of the batch is sent once.  Referrers
        do not travel: emitted sessions never carried them.  An empty
        batch appends nothing.
        """
        if not sessions:
            return
        slots: dict[int, int] = {}
        table = bytearray()
        lengths: list[int] = []
        indices: list[int] = []
        for session in sessions:
            requests = session.requests
            lengths.append(len(requests))
            for request in requests:
                slot = slots.get(id(request))
                if slot is None:
                    slot = slots[id(request)] = len(slots)
                    table += _REQUEST.pack(
                        request.timestamp, self._intern(out, request.user_id),
                        self._intern(out, request.page),
                        1 if request.synthetic else 0)
                indices.append(slot)
        out += frame(OUT, b"".join((
            _BATCH.pack(len(slots), len(lengths)), table,
            struct.pack(f"!{len(lengths)}I", *lengths),
            struct.pack(f"!{len(indices)}I", *indices))))


class SymbolDecoder:
    """Receiver-side interning table mirroring :class:`SymbolEncoder`."""

    def __init__(self) -> None:
        self._table: list[str] = []

    def __len__(self) -> int:
        return len(self._table)

    def add_symbol(self, payload: bytes) -> None:
        """Define the next symbol id from a SYM frame payload."""
        try:
            self._table.append(payload.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise WireProtocolError(f"undecodable symbol: {exc}") from exc

    def _lookup(self, symbol: int) -> str:
        if not 0 <= symbol < len(self._table):
            raise WireProtocolError(
                f"symbol id {symbol} outside table of {len(self._table)}")
        return self._table[symbol]

    def decode_events(self, payload: bytes) -> list[Event]:
        """Decode an EVT payload to its ``(ts, user, page, referrer, syn)``
        records, in order.

        Raises:
            WireProtocolError: for an empty payload, one that is not a
                whole number of records, or a symbol id outside the table
                (a negative id never indexes the table from its end).
        """
        if not payload or len(payload) % _EVENT.size:
            raise WireProtocolError(
                f"event payload is {len(payload)} bytes, want a positive "
                f"multiple of {_EVENT.size}")
        lookup = self._lookup
        return [(timestamp, lookup(user_id), lookup(page_id),
                 None if ref_id == NO_SYMBOL else lookup(ref_id),
                 bool(synthetic))
                for timestamp, user_id, page_id, ref_id, synthetic
                in _EVENT.iter_unpack(payload)]

    def decode_event(self, payload: bytes) -> Event:
        """Decode a one-record EVT payload to
        ``(ts, user, page, referrer, syn)``."""
        if len(payload) != _EVENT.size:
            raise WireProtocolError(
                f"event payload is {len(payload)} bytes, want {_EVENT.size}")
        return self.decode_events(payload)[0]

    def decode_batch(self, payload: bytes) -> SessionBatch:
        """Decode an OUT payload into its request table and index lists.

        One :class:`~repro.sessions.model.Request` is built per table
        entry, so the sessions of the batch share request objects exactly
        as the sender's did; no :class:`~repro.sessions.model.Session` is
        built.  The batch keeps ``payload`` and this decoder's symbol
        table for :func:`canonical_keys`.

        Raises:
            WireProtocolError: for a payload whose size disagrees with its
                header, an empty session, an index outside the table or
                an unknown symbol id.
        """
        if len(payload) < _BATCH.size:
            raise WireProtocolError(
                f"session batch payload is {len(payload)} bytes, shorter "
                f"than its {_BATCH.size}-byte header")
        n_table, n_sessions = _BATCH.unpack_from(payload)
        table_end = _BATCH.size + n_table * _REQUEST.size
        lengths_end = table_end + n_sessions * _INDEX
        if len(payload) < lengths_end:
            raise WireProtocolError(
                f"session batch payload is {len(payload)} bytes, want at "
                f"least {lengths_end} for {n_table} requests and "
                f"{n_sessions} sessions")
        lengths = struct.unpack_from(f"!{n_sessions}I", payload, table_end)
        total = sum(lengths)
        if len(payload) != lengths_end + total * _INDEX:
            raise WireProtocolError(
                f"session batch payload is {len(payload)} bytes, want "
                f"{lengths_end + total * _INDEX} for {total} indices")
        if n_sessions and min(lengths) == 0:
            raise WireProtocolError("session batch holds an empty session")
        indices = struct.unpack_from(f"!{total}I", payload, lengths_end)
        if total and max(indices) >= n_table:
            raise WireProtocolError(
                f"request index {max(indices)} outside table of {n_table}")
        lookup = self._lookup
        requests = [
            Request(timestamp, lookup(user_id), lookup(page_id),
                    bool(synthetic))
            for timestamp, user_id, page_id, synthetic in _REQUEST.iter_unpack(
                memoryview(payload)[_BATCH.size:table_end])]
        end_times = [requests[indices[end - 1]].timestamp
                     for end in accumulate(lengths)]
        return SessionBatch(requests, lengths, indices, end_times,
                            self._table, payload)


class SessionBatch:
    """One decoded ``OUT`` frame: its request table and index lists.

    Session ``i`` of the batch is the requests ``requests[j] for j in
    indices[sum(lengths[:i]):sum(lengths[:i + 1])]``, and ``end_times[i]``
    is the timestamp of its last one.  ``payload`` is the frame as
    received and ``symbols`` the receiving decoder's symbol table, which
    only ever grows, so the table entries and index lists stay readable
    for :func:`canonical_keys` after the connection that carried them is
    gone.
    """

    __slots__ = ("requests", "lengths", "indices", "end_times", "symbols",
                 "payload")

    def __init__(self, requests: list[Request], lengths: Sequence[int],
                 indices: Sequence[int], end_times: list[float],
                 symbols: list[str], payload: bytes) -> None:
        self.requests = requests
        self.lengths = lengths
        self.indices = indices
        self.end_times = end_times
        self.symbols = symbols
        self.payload = payload


#: an ``OUT`` request-table entry as numpy reads it, packed like _REQUEST.
_REQUEST_FIELDS = [("timestamp", ">f8"), ("user", ">u4"), ("page", ">u4"),
                   ("synthetic", "u1")]


def canonical_keys(batches: Sequence[SessionBatch]) -> list[bytes]:
    """One byte sort key per session of ``batches``, in batch order.

    Sorting by these keys orders sessions exactly as sorting by
    :meth:`~repro.sessions.model.Session.canonical_key` does, and two
    keys are equal exactly when the canonical keys are.  Every table
    entry of every batch is ranked once by ``(user, timestamp, page,
    synthetic)``, equal tuples sharing a rank; a session's key is the
    ranks of its requests as big-endian ``uint32``, so keys compare like
    ``memcmp`` and a proper prefix sorts first.  The ranking runs in
    numpy: the only per-session Python work is slicing the key out.
    """
    if not batches:
        return []
    import numpy as np

    # rank every symbol string once; each decoder's ids map through it.
    decoders: dict[int, list[str]] = {}
    for batch in batches:
        decoders.setdefault(id(batch.symbols), batch.symbols)
    rank_of = {text: rank for rank, text in enumerate(
        sorted(set().union(*decoders.values())))}
    symbol_base: dict[int, int] = {}
    symbol_ranks: list[int] = []
    for key, symbols in decoders.items():
        symbol_base[key] = len(symbol_ranks)
        symbol_ranks.extend(map(rank_of.__getitem__, symbols))

    tables, lengths, indices = [], [], []
    n_table, n_indices, bases = [], [], []
    for batch in batches:
        payload = memoryview(batch.payload)
        entries, sessions = _BATCH.unpack_from(payload)
        table_end = _BATCH.size + entries * _REQUEST.size
        lengths_end = table_end + sessions * _INDEX
        tables.append(payload[_BATCH.size:table_end])
        lengths.append(payload[table_end:lengths_end])
        indices.append(payload[lengths_end:])
        n_table.append(entries)
        n_indices.append((len(payload) - lengths_end) // _INDEX)
        bases.append(symbol_base[id(batch.symbols)])
    records = np.frombuffer(b"".join(tables), dtype=np.dtype(_REQUEST_FIELDS))
    symbol_rank = np.array(symbol_ranks, dtype=np.int64)
    offsets = np.repeat(bases, n_table)
    columns = (symbol_rank[records["user"] + offsets],
               records["timestamp"].astype(np.float64),
               symbol_rank[records["page"] + offsets],
               records["synthetic"])
    # lexsort's last key is the primary one; equal neighbours share a rank.
    order = np.lexsort(columns[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in columns:
        ranked = column[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.cumsum(starts)
    # each batch's indices count from its own table's first entry.
    slots = (np.frombuffer(b"".join(indices), dtype=">u4").astype(np.int64)
             + np.repeat(np.cumsum(n_table) - n_table, n_indices))
    keys = rank[slots].astype(">u4").tobytes()
    ends = np.cumsum(np.frombuffer(b"".join(lengths), dtype=">u4"),
                     dtype=np.int64) * _INDEX
    bounds = [0, *ends.tolist()]
    return [keys[start:end] for start, end in zip(bounds, bounds[1:])]
