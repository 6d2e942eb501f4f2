"""Parse access-log files back into records and request streams.

The reader auto-detects the line format per line: one pattern reads the
CLF body and an optional Combined Log Format tail (quoted Referer /
User-Agent fields), so a single code path ingests both kinds of files —
and mixed files, which real log rotations do produce.

These are the *convenience* entry points.  They delegate to
:mod:`repro.logs.ingest`, which adds full error policies (quarantine,
repair) and per-fault accounting; use :func:`repro.logs.ingest.ingest_lines`
directly when you need more than strict-or-skip.  Skipped lines are never
silently lost: pass ``report`` and/or ``on_malformed`` to get an exact
account of every dropped line.

``iter_requests(iter_clf_lines(lines))`` is the streaming front end.  It
is fused: one loop in :mod:`repro.logs.ingest` parses each line straight
into a request, and no record is built in between.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator

from repro.exceptions import LateEventError, LogFormatError
from repro.logs.clf import (
    CLFRecord,
    _match,
    _page_view,
    _timestamp,
    parse_log_line,
    url_to_page,
)
from repro.logs.ingest import (
    ErrorPolicy,
    IngestReport,
    _IngestStream,
    ingest_lines,
)
from repro.sessions.model import Request

__all__ = ["read_clf_file", "iter_clf_lines", "iter_requests",
           "records_to_requests"]


def iter_clf_lines(lines: Iterable[str], *,
                   skip_malformed: bool = False,
                   report: IngestReport | None = None,
                   on_malformed: Callable[[LogFormatError], None] | None
                   = None) -> Iterator[CLFRecord]:
    """Parse an iterable of log lines lazily (either format, per line).

    Blank lines are always skipped.  Iterating the result yields
    :class:`~repro.logs.clf.CLFRecord` objects; passed unstarted to
    :func:`iter_requests`, it parses each line straight into a
    :class:`~repro.sessions.model.Request` instead (see there).

    Args:
        lines: raw log lines.
        skip_malformed: when ``True``, drop lines that fail to parse (real
            logs contain garbage) — every drop is counted in ``report``
            and surfaced through ``on_malformed``, never discarded
            invisibly; when ``False`` (default), raise on the first bad
            line.
        report: optional mutable :class:`~repro.logs.ingest.IngestReport`
            filled in as the stream is consumed (drop counts, fault
            classes, sample offending lines).
        on_malformed: optional callback invoked with each swallowed
            :class:`LogFormatError` when ``skip_malformed`` is ``True``.

    Raises:
        LogFormatError: for a malformed line when ``skip_malformed`` is
            ``False``; the error carries the 1-based line number.
    """
    policy = ErrorPolicy.SKIP if skip_malformed else ErrorPolicy.STRICT
    return ingest_lines(lines, policy=policy, report=report,
                        on_malformed=on_malformed)


def read_clf_file(path: str, *,
                  skip_malformed: bool = False,
                  report: IngestReport | None = None,
                  on_malformed: Callable[[LogFormatError], None] | None
                  = None) -> list[CLFRecord]:
    """Read and parse a whole access-log file (plain CLF or combined).

    Args:
        path: log file path; a byte that is not UTF-8 decodes to U+FFFD.
        skip_malformed: see :func:`iter_clf_lines`.
        report: see :func:`iter_clf_lines`.
        on_malformed: see :func:`iter_clf_lines`.

    Raises:
        LogFormatError: as :func:`iter_clf_lines`.
    """
    with open(path, encoding="utf-8", errors="replace") as handle:
        return list(iter_clf_lines(handle, skip_malformed=skip_malformed,
                                   report=report, on_malformed=on_malformed))


def records_to_requests(records: Iterable[CLFRecord],
                        page_views_only: bool = True, *,
                        watermark: float | None = None) -> list[Request]:
    """Project log records onto the reconstruction-relevant fields.

    The inverse of :func:`repro.logs.writer.requests_to_records` up to user
    identity: the resulting ``user_id`` is the record's IP address.  A
    combined-format referrer survives as the request's ``referrer`` page.

    Args:
        records: parsed records, any order (preserved).
        page_views_only: drop records failing the page-view filter.
        watermark: optional event-time lower bound the records were
            promised to respect (e.g. the streaming pipeline's flush
            watermark).  A record strictly older than it raises
            :class:`~repro.exceptions.LateEventError`; a record exactly
            *at* the watermark is fine (ties are legal).

    Raises:
        LateEventError: when ``watermark`` is given and a record predates
            it.
    """
    return list(iter_requests(records, page_views_only,
                              watermark=watermark))


def iter_requests(records: Iterable[CLFRecord],
                  page_views_only: bool = True, *,
                  watermark: float | None = None) -> Iterator[Request]:
    """Lazy :func:`records_to_requests`: one request out per record in.

    Composes with :func:`iter_clf_lines` into a fully incremental
    file-to-request pipeline — ``repro stream`` feeds a log this way so
    a live run (a pipe, a growing file) is processed as it arrives
    instead of after a full read.  The composition is fused: given the
    not yet started result of :func:`iter_clf_lines` (or
    :func:`~repro.logs.ingest.ingest_lines`), each line is parsed straight
    into a request, with no record in between; the requests, the ingest
    accounting and the faults are the same as through records.  Any
    other iterable of records, a started one included, is projected
    record by record.

    Raises:
        LateEventError: as :func:`records_to_requests`.
    """
    # a site has few distinct URLs: map each to its page once.
    page = functools.lru_cache(maxsize=4096)(url_to_page)

    def project(timestamp: float, host: str, method: str, status: int,
                url: str, referrer: str | None) -> Request | None:
        # the one record -> request rule, over a record's fields; None
        # drops the record.
        if watermark is not None and timestamp < watermark:
            raise LateEventError(
                f"record from {host!r} at t={timestamp} "
                f"predates the watermark {watermark}")
        if page_views_only and not _page_view(method, status):
            return None
        return Request(timestamp, host, page(url), False,
                       None if referrer is None else page(referrer))

    def convert(record: CLFRecord) -> Request | None:
        return project(record.timestamp, record.host, record.method,
                       record.status, record.url, record.referrer)

    def build(line: str, line_number: int) -> Request | None:
        match = _match(line)
        if match is not None:
            (host, _, _, date, hour, minute, second, tz, method, url, _,
             status, _, referrer, _) = match.groups()
            try:
                timestamp = _timestamp(date, hour, minute, second, tz)
            except (KeyError, ValueError):
                pass    # parse_log_line raises the exact error
            else:
                return project(timestamp, host, method, int(status), url,
                               None if referrer == "-" else referrer)
        return convert(parse_log_line(line, line_number))

    if isinstance(records, _IngestStream):
        fused = records.fuse(build, convert)
        if fused is not None:
            return fused
    return filter(None, map(convert, records))
