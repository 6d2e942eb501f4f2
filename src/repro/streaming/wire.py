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
  decoded sessions share one :class:`~repro.sessions.model.Request`
  object per table entry;
* control frames (watermarks, capsules, acks) are small and
  infrequent, so they ride as canonical JSON.

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
from typing import Any, Iterator

from repro.exceptions import WireProtocolError
from repro.sessions.model import Request, Session

__all__ = [
    "SYM", "EVT", "WM", "EOF", "CAP", "OUT", "ACK", "DONE", "ERR",
    "Event", "FrameReader", "SymbolEncoder", "SymbolDecoder",
    "frame", "json_frame", "decode_json", "watermark_frame",
    "decode_watermark",
]

# coordinator -> worker
SYM = 1   #: intern the UTF-8 payload as the next symbol id
EVT = 2   #: one or more requests, fixed-width records
WM = 3    #: flush watermark (float64)
EOF = 4   #: end of stream — flush everything and send DONE
CAP = 5   #: state capsule (JSON), sent before replaying into a respawn

# worker -> coordinator
OUT = 6   #: one emission batch of sessions (binary request table)
ACK = 7   #: progress acknowledgement + refreshed capsule (JSON)
DONE = 8  #: final stats + obs snapshot (JSON)
ERR = 9   #: fatal, deterministic worker error (UTF-8 traceback)

_KINDS = frozenset((SYM, EVT, WM, EOF, CAP, OUT, ACK, DONE, ERR))

_HEADER = struct.Struct("!BI")
_EVENT = struct.Struct("!diiiB")
_WM = struct.Struct("!d")
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


def json_frame(kind: int, document: Any) -> bytes:
    """Serialize ``document`` as a canonical-JSON frame of ``kind``."""
    payload = json.dumps(document, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return frame(kind, payload)


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

    def decode_sessions(self, payload: bytes) -> list[Session]:
        """Decode an OUT payload into its batch of sessions.

        One :class:`~repro.sessions.model.Request` is built per table
        entry, so sessions of the batch share request objects exactly as
        the sender's did.
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
        sessions = []
        start = 0
        for length in lengths:
            end = start + length
            sessions.append(Session.from_trusted_parts(
                tuple(map(requests.__getitem__, indices[start:end]))))
            start = end
        return sessions
