"""Following a growing access-log file (``tail -f`` for pipelines).

Connects the on-disk world to the streaming reconstructor: a server
appends to ``access.log``; :func:`follow_log` yields each new line's
parsed record as it lands, handling partially written lines (a record is
only emitted once its newline arrives), log rotation (both truncation in
place *and* rename-and-recreate, detected via the file's inode) and
transient read failures (bounded retry with exponential backoff).

Example — live session emission from a growing file::

    pipeline = streaming_smart_sra(topology)
    for record in follow_log("access.log", poll_interval=0.5,
                             idle_timeout=30.0):
        for request in records_to_requests([record]):
            for session in pipeline.feed(request):
                handle(session)
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.exceptions import IngestError, LogFormatError
from repro.logs.clf import CLFRecord, parse_log_line
from repro.logs.ingest import classify_fault
from repro.obs import Registry, get_registry, split_series

__all__ = ["follow_log", "FollowStats"]


@dataclass
class FollowStats:
    """Mutable accounting of one :func:`follow_log` run.

    Pass an instance in and inspect it at any time (the follower updates
    it in place as it yields).  The same counts are always published to
    the follower's metrics registry under the ``follow.*`` catalog, so a
    run's accounting is also visible to anyone holding the registry —
    :meth:`from_registry` rebuilds the aggregate view.

    Attributes:
        lines: completed lines seen (blank ones included).
        parsed: records successfully parsed and yielded.
        blank: whitespace-only lines.
        malformed: lines that failed to parse (skipped or raised).
        rotations: truncations / inode changes handled by restarting.
        retries: transient read failures that were retried.
        torn_tail_discards: partial trailing lines thrown away because
            the file rotated underneath them.
        fault_counts: malformed-line count per fault class, as
            :func:`repro.logs.ingest.classify_fault` buckets them.
    """

    lines: int = 0
    parsed: int = 0
    blank: int = 0
    malformed: int = 0
    rotations: int = 0
    retries: int = 0
    torn_tail_discards: int = 0
    fault_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_registry(cls, registry: Registry | None = None
                      ) -> "FollowStats":
        """Rebuild the aggregate stats from a registry's ``follow.*``
        counters (the sum over every follower that reported to it).

        Args:
            registry: the registry to read; defaults to the ambient one.
        """
        if registry is None:
            registry = get_registry()
        stats = cls(
            lines=int(registry.value("follow.lines.total")),
            parsed=int(registry.value("follow.lines.parsed")),
            blank=int(registry.value("follow.lines.blank")),
            malformed=int(registry.value("follow.lines.malformed")),
            rotations=int(registry.value("follow.rotations")),
            retries=int(registry.value("follow.retries")),
            torn_tail_discards=int(
                registry.value("follow.torn_tail_discards")),
        )
        for series, value in sorted(
                registry.series("follow.faults").items()):
            fault = split_series(series)[1].get("class", "unknown")
            stats.fault_counts[fault] = int(value)
        return stats


def _read_chunk(path: str, offset: int, *, max_retries: int,
                backoff_base: float, _sleep: Callable[[float], None],
                stats: FollowStats,
                registry: Registry | None = None) -> tuple[str, int]:
    """Read from ``offset`` to EOF, retrying transient failures.

    Raises:
        IngestError: when ``max_retries`` consecutive attempts fail.
    """
    if registry is None:
        registry = get_registry()
    last_error: OSError | None = None
    for attempt in range(max_retries + 1):
        try:
            with open(path, encoding="utf-8", errors="replace") as handle:
                handle.seek(offset)
                chunk = handle.read()
                return chunk, handle.tell()
        except OSError as error:
            last_error = error
            if attempt < max_retries:
                stats.retries += 1
                registry.counter("follow.retries").inc()
                registry.event("follow.retry", path=path, attempt=attempt)
                _sleep(backoff_base * (2 ** attempt))
    raise IngestError(
        f"giving up on {path!r} after {max_retries} retries: {last_error}")


def follow_log(path: str, poll_interval: float = 0.5,
               idle_timeout: float | None = None,
               skip_malformed: bool = True,
               _sleep: Callable[[float], None] = time.sleep,
               *,
               on_malformed: Callable[[LogFormatError], None] | None = None,
               max_retries: int = 5,
               backoff_base: float = 0.05,
               stats: FollowStats | None = None,
               registry: Registry | None = None,
               ) -> Iterator[CLFRecord]:
    """Yield parsed records from ``path`` as the file grows.

    Args:
        path: the log file (may not exist yet; the follower waits).
        poll_interval: seconds between size checks when no data arrives.
        idle_timeout: stop after this many seconds without new data
            (``None`` follows forever — appropriate for daemons only).
        skip_malformed: drop unparsable lines instead of raising; drops
            are always counted in ``stats`` and surfaced via
            ``on_malformed``.
        _sleep: injection point for tests; leave default in production.
        on_malformed: called with each swallowed :class:`LogFormatError`
            when ``skip_malformed`` is ``True``.
        max_retries: transient read failures tolerated per read before
            giving up (exponential backoff between attempts).
        backoff_base: first retry delay in seconds; doubles per attempt.
        stats: optional mutable :class:`FollowStats`, updated in place.
        registry: metrics registry receiving the same accounting as
            ``stats`` under the ``follow.*`` catalog; defaults to the
            ambient :func:`repro.obs.get_registry` (free when disabled).

    Yields:
        One :class:`~repro.logs.clf.CLFRecord` per completed line, in file
        order.  On truncation or rotation (the path now names a different
        inode) the follower restarts from the beginning of the new file;
        a partial line torn by the rotation is discarded and counted.

    Raises:
        LogFormatError: on a malformed line when ``skip_malformed`` is
            ``False``.
        IngestError: when a read keeps failing after ``max_retries``
            backoff retries.
    """
    if stats is None:
        stats = FollowStats()
    if registry is None:
        registry = get_registry()
    m_lines = registry.counter("follow.lines.total")
    m_parsed = registry.counter("follow.lines.parsed")
    m_blank = registry.counter("follow.lines.blank")
    m_malformed = registry.counter("follow.lines.malformed")
    m_bytes = registry.counter("follow.bytes.total")
    offset = 0
    pending = ""
    idle = 0.0
    line_number = 0
    inode: int | None = None
    while True:
        try:
            status = os.stat(path)
            size, current_inode = status.st_size, status.st_ino
        except OSError:
            size, current_inode = 0, None
        rotated = (inode is not None and current_inode is not None
                   and current_inode != inode)
        if size < offset or rotated:    # truncated or replaced: start over
            offset = 0
            line_number = 0
            if pending:
                stats.torn_tail_discards += 1
                registry.counter("follow.torn_tail_discards").inc()
            pending = ""
            stats.rotations += 1
            registry.counter("follow.rotations").inc()
            registry.event("follow.rotation", path=path,
                           kind="rename" if rotated else "truncate")
        if current_inode is not None:
            inode = current_inode
        if size > offset:
            idle = 0.0
            chunk, offset = _read_chunk(
                path, offset, max_retries=max_retries,
                backoff_base=backoff_base, _sleep=_sleep, stats=stats,
                registry=registry)
            m_bytes.inc(len(chunk))
            pending += chunk
            *complete, pending = pending.split("\n")
            for line in complete:
                line_number += 1
                stats.lines += 1
                m_lines.inc()
                if not line or line.isspace():
                    stats.blank += 1
                    m_blank.inc()
                    continue
                try:
                    yield parse_log_line(line, line_number)
                    stats.parsed += 1
                    m_parsed.inc()
                except LogFormatError as error:
                    stats.malformed += 1
                    m_malformed.inc()
                    fault = classify_fault(line, error)
                    stats.fault_counts[fault] = (
                        stats.fault_counts.get(fault, 0) + 1)
                    registry.counter("follow.faults",
                                     **{"class": fault}).inc()
                    if not skip_malformed:
                        raise
                    if on_malformed is not None:
                        on_malformed(error)
        else:
            if idle_timeout is not None and idle >= idle_timeout:
                return
            _sleep(poll_interval)
            idle += poll_interval
