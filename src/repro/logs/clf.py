"""Common Log Format record model, formatting and parsing.

A CLF line looks like::

    192.168.7.3 - - [04/Jul/2026:10:15:42 +0000] "GET /P13.html HTTP/1.1" 200 5120

carrying the paper's seven attributes: client IP, access date/time, request
method, URL, transfer protocol, status code and bytes transmitted.  The
timestamp is second-granular (like real CLF); simulated sub-second clock
values are floored on write, which is exactly the quantization a real
server would impose.
"""

from __future__ import annotations

import calendar
import functools
import re
from dataclasses import dataclass
from datetime import datetime, timezone

from repro._slots import slot_init
from repro.exceptions import LogFormatError

__all__ = [
    "CLFRecord",
    "format_clf_line",
    "parse_clf_line",
    "format_combined_line",
    "parse_combined_line",
    "parse_log_line",
    "page_to_url",
    "url_to_page",
]

#: month abbreviations in CLF dates, index 1-12.
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTH_NUMBER = {name: number for number, name in enumerate(_MONTHS) if name}

#: the CLF body plus an optional Combined tail: a full match takes the tail
#: exactly when the line is Combined (it ends in a quote, CLF in a size).
#: The date (``dd/Mon/yyyy``) and the zone (``±hhmm``) are one group each,
#: so :func:`_parse` can look both up in a cache keyed on the raw text.
_LINE_PATTERN = re.compile(
    r'(?P<host>\S+) (?P<ident>\S+) (?P<authuser>\S+) '
    r'\[(?P<date>\d{2}/[A-Za-z]{3}/\d{4}):'
    r'(?P<hour>\d{2}):(?P<minute>\d{2}):(?P<second>\d{2}) '
    r'(?P<tz>[+-]\d{4})\] '
    r'"(?P<method>[A-Z]+) (?P<url>\S+) (?P<protocol>[^"]+)" '
    r'(?P<status>\d{3}) (?P<bytes>\d+|-)'
    r'(?: "(?P<referrer>[^"]*)" "(?P<user_agent>[^"]*)")?')

#: ``_match(line)``: :data:`_LINE_PATTERN` matched against the whole line
#: but its trailing newlines (a line from a file keeps its ``\n``).
_match = re.compile(_LINE_PATTERN.pattern + r"\n*").fullmatch


@slot_init
@dataclass(frozen=True, slots=True)
class CLFRecord:
    """One access-log entry (the paper's seven CLF attributes).

    Attributes:
        host: client IP address.
        timestamp: access time as UTC epoch seconds.
        method: HTTP request method (``GET`` or ``POST`` in the paper).
        url: requested URL path.
        protocol: transfer protocol (``HTTP/1.0`` or ``HTTP/1.1``).
        status: HTTP status code.
        size: bytes transmitted (``None`` renders as CLF's ``-``).
        ident / authuser: the two rarely populated CLF identity fields.
        referrer: Referer header URL (Combined Log Format only; ``None``
            renders as ``"-"`` and means a direct entry).
        user_agent: User-Agent header (Combined Log Format only).
    """

    host: str
    timestamp: float
    method: str
    url: str
    protocol: str
    status: int
    size: int | None
    ident: str = "-"
    authuser: str = "-"
    referrer: str | None = None
    user_agent: str | None = None

    @property
    def is_page_view(self) -> bool:
        """Whether this record plausibly represents a user page view.

        A successful (2xx) GET is the classic page-view filter; everything
        else (POSTs, redirects, errors) is dropped during cleaning.
        """
        return _page_view(self.method, self.status)


def _page_view(method: str, status: int) -> bool:
    """The page-view filter over a record's method and status."""
    return method == "GET" and 200 <= status < 300


def format_clf_line(record: CLFRecord) -> str:
    """Render ``record`` as one CLF line (no trailing newline).

    The timestamp is floored to whole seconds and rendered in UTC.
    """
    moment = datetime.fromtimestamp(int(record.timestamp), tz=timezone.utc)
    date = (f"{moment.day:02d}/{_MONTHS[moment.month]}/{moment.year:04d}:"
            f"{moment.hour:02d}:{moment.minute:02d}:{moment.second:02d} "
            f"+0000")
    size = "-" if record.size is None else str(record.size)
    return (f"{record.host} {record.ident} {record.authuser} [{date}] "
            f'"{record.method} {record.url} {record.protocol}" '
            f"{record.status} {size}")


def parse_clf_line(line: str, line_number: int | None = None) -> CLFRecord:
    """Parse one CLF line into a :class:`CLFRecord`.

    Args:
        line: the raw log line (trailing newline tolerated).
        line_number: optional 1-based position, attached to errors.

    Raises:
        LogFormatError: if the line does not match CLF, names an impossible
            calendar date, or uses an unknown month abbreviation.
    """
    return _parse(line, line_number, combined=False)


def format_combined_line(record: CLFRecord) -> str:
    """Render ``record`` as one Combined Log Format line.

    The Combined (a.k.a. NCSA extended) format appends the quoted Referer
    and User-Agent headers after the CLF fields; absent values render as
    ``"-"``.  Embedded double quotes are not supported (real servers
    escape them inconsistently; this writer rejects them outright).

    Raises:
        LogFormatError: if the referrer or user agent contains a double
            quote.
    """
    referrer = record.referrer if record.referrer is not None else "-"
    user_agent = record.user_agent if record.user_agent is not None else "-"
    for label, value in (("referrer", referrer), ("user agent", user_agent)):
        if '"' in value:
            raise LogFormatError(
                f"{label} may not contain a double quote: {value!r}")
    return f'{format_clf_line(record)} "{referrer}" "{user_agent}"'


def parse_combined_line(line: str,
                        line_number: int | None = None) -> CLFRecord:
    """Parse one Combined Log Format line.

    Raises:
        LogFormatError: if the line does not match the combined format.
    """
    return _parse(line, line_number, combined=True)


def parse_log_line(line: str, line_number: int | None = None) -> CLFRecord:
    """Parse a line in either format, in one pass.

    Raises:
        LogFormatError: if the line matches neither format.
    """
    return _parse(line, line_number)


def _parse(line: str, line_number: int | None,
           combined: bool | None = None) -> CLFRecord:
    """Match once and build one record; ``combined`` restricts the format
    (``None``: either)."""
    match = _match(line)
    if match is None or (combined is not None and combined
                         != (match.group("referrer") is not None)):
        raise LogFormatError(
            "line does not match Combined Log Format" if combined
            else "line does not match Common Log Format",
            line_number=line_number, line=line)
    (host, ident, authuser, date, hour, minute, second, tz, method, url,
     protocol, status, size, referrer, user_agent) = match.groups()
    try:
        timestamp = _timestamp(date, hour, minute, second, tz)
    except KeyError:
        raise LogFormatError(f"unknown month abbreviation {date[3:6]!r}",
                             line_number=line_number, line=line) from None
    except ValueError as exc:
        raise LogFormatError(f"invalid date/time: {exc}",
                             line_number=line_number, line=line) from exc
    return CLFRecord(host, timestamp, method, url, protocol, int(status),
                     None if size == "-" else int(size), ident, authuser,
                     None if referrer == "-" else referrer,
                     None if user_agent == "-" else user_agent)


def _timestamp(date: str, hour: str, minute: str, second: str,
               tz: str) -> float:
    """UTC epoch seconds of a matched line's date, time and zone groups.

    Raises ``KeyError`` for an unknown month and ``ValueError``
    (datetime's message) for an impossible date or time.
    """
    hours = _HOUR_SECONDS.get(hour)
    minutes = _SIXTY.get(minute)
    seconds = _SIXTY.get(second)
    if hours is None or minutes is None or seconds is None:
        # out of range: datetime names the first bad field
        epoch = _epoch(date, int(hour), int(minute), int(second))
    else:
        epoch = _day_epoch(date) + hours + minutes * 60 + seconds
    return float(epoch + _tz_offset(tz))


#: a clock field's text to its value, for hours 00-23 (in seconds) and
#: minutes and seconds 00-59: one lookup converts and range-checks.
_HOUR_SECONDS = {f"{hour:02d}": hour * 3600 for hour in range(24)}
_SIXTY = {f"{value:02d}": value for value in range(60)}


def _epoch(date: str, hours: int = 0, minutes: int = 0,
           seconds: int = 0) -> int:
    """UTC epoch of a CLF ``dd/Mon/yyyy`` date and a time; raises
    ``KeyError`` for an unknown month and ``ValueError`` (datetime's
    message) for an impossible date or time."""
    moment = datetime(int(date[7:]), _MONTH_NUMBER[date[3:6].capitalize()],
                      int(date[:2]), hours, minutes, seconds)
    return calendar.timegm(moment.timetuple())


#: midnight of a CLF date, cached on the raw date text: a log spans few
#: days (and spells each month one way).
_day_epoch = functools.lru_cache(maxsize=1024)(_epoch)


@functools.lru_cache(maxsize=256)
def _tz_offset(tz: str) -> int:
    """Seconds to add to a local ``±hhmm`` time to get UTC."""
    offset = int(tz[1:3]) * 3600 + int(tz[3:5]) * 60
    return -offset if tz[0] == "+" else offset


def page_to_url(page: str) -> str:
    """Map a page identifier to its URL path (``"P13"`` → ``"/P13.html"``)."""
    return f"/{page}.html"


def url_to_page(url: str) -> str:
    """Inverse of :func:`page_to_url`; foreign URLs pass through unchanged.

    ``"/P13.html"`` → ``"P13"``; query strings are stripped first, so
    ``"/P13.html?ref=mail"`` also maps to ``"P13"``.  A URL that does not
    follow the convention (e.g. ``"/img/logo.png"``) is returned as-is
    (minus the query string) so cleaning filters can still reason about it.
    """
    path = url.split("?", 1)[0]
    if path.startswith("/") and path.endswith(".html"):
        return path[1:-len(".html")]
    return path
