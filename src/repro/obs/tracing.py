"""Lightweight span tracing with a JSON-lines event log.

A :class:`Tracer` writes one JSON object per line to any ``write``-able
sink (an open file, ``sys.stderr``, an in-memory list via
:class:`ListSink`).  Two record types exist:

``span``
    Emitted when a span *closes*: name, wall-clock start (``ts``, Unix
    seconds), monotonic duration (``dur_s``), its id, its parent span's id
    (``null`` at top level) and the free-form attributes it was opened
    with.  Spans nest via a per-tracer stack, so the parent chain encodes
    the call tree; because a span is written on close, children appear
    *before* their parent in the file (leaf-first order — sort by ``id``
    to recover opening order).

``event``
    A point-in-time marker: name, ``ts``, the enclosing span's id and
    attributes.

The format is deliberately boring — ``jq`` and a text editor are the
intended consumers::

    {"type": "event", "name": "parallel.chunk.retry", "ts": ..., "span": 3}
    {"type": "span", "name": "parallel.chunk", "id": 3, "parent": 1, ...}

Spans are single-threaded per tracer (the stack is not thread-local); give
each worker its own tracer when fanning out.
"""

from __future__ import annotations

import json
import time
from typing import IO, Any

__all__ = ["Tracer", "ListSink"]


class ListSink:
    """An in-memory sink collecting each JSON line as a parsed dict."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def write(self, text: str) -> None:
        for line in text.splitlines():
            if line.strip():
                self.records.append(json.loads(line))

    def flush(self) -> None:
        pass


class _Span:
    """Context manager for one traced span (created by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent",
                 "_start", "_wall")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = -1
        self.parent: int | None = None
        self._start = 0.0
        self._wall = 0.0

    def __enter__(self) -> "_Span":
        self.span_id = self._tracer._next_id()
        self.parent = self._tracer._current()
        self._tracer._push(self.span_id)
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        duration = time.perf_counter() - self._start
        self._tracer._pop()
        record: dict[str, Any] = {
            "type": "span", "name": self.name, "id": self.span_id,
            "parent": self.parent, "ts": self._wall,
            "dur_s": duration,
        }
        if exc_type is not None:
            record["error"] = getattr(exc_type, "__name__", str(exc_type))
        if self.attrs:
            record["attrs"] = self.attrs
        self._tracer._emit(record)


class Tracer:
    """Writes span/event records to ``sink`` as JSON lines.

    Args:
        sink: anything with ``write(str)`` — an open text file,
            ``sys.stderr``, or a :class:`ListSink`.
        flush: call ``sink.flush()`` after every record (default on, so a
            crash loses at most the open spans).
    """

    def __init__(self, sink: IO[str] | ListSink, flush: bool = True) -> None:
        self._sink = sink
        self._flush = flush
        self._stack: list[int] = []
        self._ids = 0

    def span(self, name: str, **attrs: object) -> _Span:
        """Open a span; use as a context manager."""
        return _Span(self, name, dict(attrs))

    def event(self, name: str, **attrs: object) -> None:
        """Emit one point-in-time event under the current span."""
        record: dict[str, Any] = {
            "type": "event", "name": name, "ts": time.time(),
            "span": self._current(),
        }
        if attrs:
            record["attrs"] = dict(attrs)
        self._emit(record)

    # -- internals used by _Span ------------------------------------------

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    def _current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def _push(self, span_id: int) -> None:
        self._stack.append(span_id)

    def _pop(self) -> None:
        if self._stack:
            self._stack.pop()

    def _emit(self, record: dict[str, Any]) -> None:
        self._sink.write(json.dumps(record, sort_keys=True) + "\n")
        if self._flush:
            flush = getattr(self._sink, "flush", None)
            if flush is not None:
                flush()
