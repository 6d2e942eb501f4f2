"""Differential property: the one-pass CLF/Combined parser against the
two-regex parser it replaced.

The oracle below is the previous implementation, kept verbatim: it
tries the Combined pattern, catches the failure and retries plain CLF,
reading fields through ``groupdict()`` and one ``datetime`` per line.  Generated lines cover random hosts, ``±hhmm`` offsets, month
names in any case, leap days and Feb 29 in non-leap years, hour 24 and
second 60, ``-`` sizes / referrers / agents, spaces inside the protocol
field, zero to two trailing newlines and truncated tails.

Valid lines must give equal records; invalid lines must raise the same
exception type with the same message, ``line_number`` and ``line``.  The
one intended difference: a Combined line with an impossible date (or an
unknown month) used to be reported as "does not match Common Log Format",
because the Combined date error was swallowed and the CLF retry then
failed on the tail.  The one-pass parser reports the date error, exactly
as the oracle's own ``parse_combined_line`` does.
"""

from __future__ import annotations

import calendar
import re
from datetime import datetime

from hypothesis import example, given, settings, strategies as st

from repro.exceptions import LogFormatError
from repro.logs.clf import (
    CLFRecord,
    parse_clf_line,
    parse_combined_line,
    parse_log_line,
)
from repro.logs.ingest import attempt_repair, classify_fault

# ---------------------------------------------------------------------------
# the oracle: the two-regex parser

_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTH_NUMBER = {name: number for number, name in enumerate(_MONTHS) if name}

_CLF_BODY = (
    r'^(?P<host>\S+) (?P<ident>\S+) (?P<authuser>\S+) '
    r'\[(?P<day>\d{2})/(?P<month>[A-Za-z]{3})/(?P<year>\d{4}):'
    r'(?P<hour>\d{2}):(?P<minute>\d{2}):(?P<second>\d{2}) '
    r'(?P<tz_sign>[+-])(?P<tz_hours>\d{2})(?P<tz_minutes>\d{2})\] '
    r'"(?P<method>[A-Z]+) (?P<url>\S+) (?P<protocol>[^"]+)" '
    r'(?P<status>\d{3}) (?P<bytes>\d+|-)')

_CLF_PATTERN = re.compile(_CLF_BODY + r'$')
_COMBINED_PATTERN = re.compile(
    _CLF_BODY + r' "(?P<referrer>[^"]*)" "(?P<user_agent>[^"]*)"$')
_CLF_PREFIX = re.compile(_CLF_BODY)


def oracle_parse_clf_line(line, line_number=None):
    match = _CLF_PATTERN.match(line.rstrip("\n"))
    if match is None:
        raise LogFormatError("line does not match Common Log Format",
                             line_number=line_number, line=line)
    return _record_from_fields(match.groupdict(), line, line_number)


def oracle_parse_combined_line(line, line_number=None):
    match = _COMBINED_PATTERN.match(line.rstrip("\n"))
    if match is None:
        raise LogFormatError(
            "line does not match Combined Log Format",
            line_number=line_number, line=line)
    fields = match.groupdict()
    referrer = fields.pop("referrer")
    user_agent = fields.pop("user_agent")
    record = _record_from_fields(fields, line, line_number)
    return CLFRecord(
        host=record.host, timestamp=record.timestamp, method=record.method,
        url=record.url, protocol=record.protocol, status=record.status,
        size=record.size, ident=record.ident, authuser=record.authuser,
        referrer=None if referrer == "-" else referrer,
        user_agent=None if user_agent == "-" else user_agent,
    )


def oracle_parse_log_line(line, line_number=None):
    try:
        return oracle_parse_combined_line(line, line_number)
    except LogFormatError:
        return oracle_parse_clf_line(line, line_number)


def _record_from_fields(fields, line, line_number):
    month = _MONTH_NUMBER.get(fields["month"].capitalize())
    if month is None:
        raise LogFormatError(
            f"unknown month abbreviation {fields['month']!r}",
            line_number=line_number, line=line)
    try:
        moment = datetime(int(fields["year"]), month, int(fields["day"]),
                          int(fields["hour"]), int(fields["minute"]),
                          int(fields["second"]))
    except ValueError as exc:
        raise LogFormatError(f"invalid date/time: {exc}",
                             line_number=line_number, line=line) from exc
    epoch = calendar.timegm(moment.timetuple())
    offset = (int(fields["tz_hours"]) * 3600 + int(fields["tz_minutes"]) * 60)
    if fields["tz_sign"] == "+":
        epoch -= offset
    else:
        epoch += offset
    size = None if fields["bytes"] == "-" else int(fields["bytes"])
    return CLFRecord(
        host=fields["host"],
        timestamp=float(epoch),
        method=fields["method"],
        url=fields["url"],
        protocol=fields["protocol"],
        status=int(fields["status"]),
        size=size,
        ident=fields["ident"],
        authuser=fields["authuser"],
    )


def oracle_attempt_repair(line, line_number=None):
    cleaned = "".join(ch for ch in line.rstrip("\n")
                      if ord(ch) >= 32 or ch == "\t")
    if cleaned != line.rstrip("\n"):
        try:
            return (oracle_parse_log_line(cleaned, line_number=line_number),
                    "strip-controls")
        except LogFormatError:
            pass
    match = _CLF_PREFIX.match(cleaned)
    if match is not None:
        try:
            return (_record_from_fields(match.groupdict(), line,
                                        line_number),
                    "clf-prefix")
        except LogFormatError:
            pass
    return None


# ---------------------------------------------------------------------------
# generated lines

def _two_digits(low, high):
    return st.integers(low, high).map(lambda value: f"{value:02d}")


_MONTH_NAMES = st.sampled_from(_MONTHS[1:]).flatmap(
    lambda name: st.sampled_from([name, name.lower(), name.upper(),
                                  name[0].lower() + name[1:]]))
_TOKENS = st.from_regex(r"\S{1,12}", fullmatch=True)
_QUOTED = (st.just("-") | st.just("")
           | st.from_regex(r'[^"\n\r]{1,20}', fullmatch=True))

#: per field, values both parsers accept ...
_VALID = {
    "host": (st.from_regex(r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}",
                           fullmatch=True) | _TOKENS),
    "ident": st.just("-") | _TOKENS,
    "date": st.sampled_from([("29", "Feb", "2000"), ("29", "Feb", "2024"),
                             ("31", "Dec", "1999"), ("01", "Jan", "1970"),
                             ("31", "Dec", "9999"), ("01", "Jan", "0001")])
    | st.tuples(_two_digits(1, 28), _MONTH_NAMES,
                st.integers(1, 9999).map(lambda year: f"{year:04d}")),
    "clock": st.tuples(_two_digits(0, 23), _two_digits(0, 59),
                       _two_digits(0, 59)),
    "offset": st.tuples(st.sampled_from("+-"), _two_digits(0, 99),
                        st.sampled_from(["00", "30", "45"])
                        | _two_digits(0, 99)),
    "method": st.sampled_from(["GET", "POST", "HEAD"]),
    "url": (st.from_regex(r"/P[0-9]{1,3}\.html(\?ref=[a-z]{1,4})?",
                          fullmatch=True) | _TOKENS),
    "protocol": st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP 1.1",
                                 "HTTP/1.1 extra words", "-"]),
    "status": st.sampled_from(["200", "204", "304", "404", "500"]),
    "size": st.just("-") | st.integers(0, 10**7).map(str),
    "tail": st.none() | st.tuples(_QUOTED, _QUOTED),
}

#: ... and values on or past an edge: impossible dates (Feb 29 in
#: non-leap years), unknown months, hour 24 and second 60, malformed
#: request and size fields, quotes inside the tail.
_EDGE = {
    "date": st.sampled_from([
        ("29", "Feb", "1900"), ("29", "Feb", "2023"), ("31", "Feb", "2000"),
        ("30", "Feb", "2024"), ("31", "Apr", "2021"), ("00", "Jan", "2000"),
        ("01", "Jan", "0000"), ("32", "Jan", "2000"), ("01", "Foo", "2000"),
        ("01", "xyz", "2000")]),
    "clock": st.tuples(st.sampled_from(["23", "24", "25", "99"]),
                       _two_digits(0, 61),
                       st.sampled_from(["59", "60", "61"])),
    "method": st.sampled_from(["get", "G3T", ""]),
    "protocol": st.sampled_from(["", 'HTTP"1.1']),
    "status": st.sampled_from(["20", "2000", "2x0"]),
    "size": st.sampled_from(["12a", "", "--"]),
    "tail": st.sampled_from([('a"b', "-"), ("-", None), ("-", 'x"')]),
}


@st.composite
def log_lines(draw):
    """A CLF or Combined line with up to two fields on or past an edge,
    sometimes truncated, ending in zero, one or two newlines."""
    edged = (draw(st.sets(st.sampled_from(sorted(_EDGE)), min_size=1,
                          max_size=2)) if draw(st.booleans()) else set())

    def field(name):
        return draw(_EDGE[name] if name in edged else _VALID[name])

    day, month, year = field("date")
    hour, minute, second = field("clock")
    sign, tz_hours, tz_minutes = field("offset")
    line = (f"{field('host')} {field('ident')} {field('ident')} "
            f"[{day}/{month}/{year}:{hour}:{minute}:{second} "
            f"{sign}{tz_hours}{tz_minutes}] "
            f'"{field("method")} {field("url")} {field("protocol")}" '
            f"{field('status')} {field('size')}")
    tail = field("tail")
    if tail is not None:
        line += "".join(f' "{value}"' for value in tail if value is not None)
    if draw(st.integers(0, 3)) == 3:
        line = line[:draw(st.integers(0, len(line)))]     # truncated
    return line + "\n" * draw(st.integers(0, 2))


def _outcome(parse, line, line_number):
    """A comparable account of one parse: the record, or the error."""
    try:
        return ("record", parse(line, line_number))
    except LogFormatError as error:
        return ("error", type(error), error.args, error.line_number,
                error.line)


def _is_bad_date(outcome):
    return outcome[0] == "error" and outcome[2][0].startswith(
        ("invalid date/time", "unknown month"))


_LINE_NUMBERS = st.none() | st.integers(1, 10**6)


# ---------------------------------------------------------------------------
# properties

_HEAD = '10.0.0.1 - - [{date}:{clock} {offset}] "GET /P1.html HTTP/1.1" 200 -'


@settings(max_examples=400, deadline=None)
@given(log_lines(), _LINE_NUMBERS)
@example(_HEAD.format(date="31/Feb/2000", clock="00:00:00", offset="+0000")
         + ' "-" "-"', 7)
@example(_HEAD.format(date="01/Foo/2000", clock="00:00:00", offset="-0130")
         + ' "/P0.html" "ua"\n', 1)
@example(_HEAD.format(date="29/Feb/2023", clock="23:59:59", offset="+0000"),
         None)
@example(_HEAD.format(date="29/feb/2024", clock="24:00:00", offset="+1400"),
         2)
@example(_HEAD.format(date="29/FEB/2000", clock="12:00:60", offset="-0000"),
         3)
@example(_HEAD.format(date="29/Feb/2000", clock="23:59:59", offset="-1230")
         + ' "-" "-"\n', 4)
@example(_HEAD.format(date="31/Dec/1999", clock="24:00:00", offset="-0545")
         + ' "/P0.html" "ua"', 5)
@example(_HEAD.format(date="04/Jul/2026", clock="10:15:42", offset="+0200")
         + "\n\n", 6)
@example(_HEAD.format(date="04/jul/2026", clock="10:15:42", offset="+0200"),
         8)
def test_parse_log_line_matches_oracle(line, line_number):
    expected = _outcome(oracle_parse_log_line, line, line_number)
    combined = _outcome(oracle_parse_combined_line, line, line_number)
    if _is_bad_date(combined):
        # the documented fix: the Combined date error is no longer
        # swallowed into "does not match Common Log Format".
        assert expected[2] == ("line does not match Common Log Format",)
        expected = combined
    assert _outcome(parse_log_line, line, line_number) == expected


def test_month_spellings_after_the_capitalised_date_match_oracle():
    # the day-epoch cache is keyed on the raw date text: once the
    # capitalised spelling is cached, every other spelling of that date
    # must still give the oracle's record (or error).
    for month in ("Mar", "mar", "MAR", "mAR", "Jul", "jul"):
        for clock in ("10:15:42", "24:00:00"):
            line = _HEAD.format(date=f"15/{month}/2031", clock=clock,
                                offset="+0130")
            assert (_outcome(parse_log_line, line, 9)
                    == _outcome(oracle_parse_log_line, line, 9))


@settings(max_examples=300, deadline=None)
@given(log_lines(), _LINE_NUMBERS)
def test_format_restricted_views_match_oracle(line, line_number):
    assert (_outcome(parse_clf_line, line, line_number)
            == _outcome(oracle_parse_clf_line, line, line_number))
    assert (_outcome(parse_combined_line, line, line_number)
            == _outcome(oracle_parse_combined_line, line, line_number))


@settings(max_examples=200, deadline=None)
@given(log_lines(), st.lists(st.tuples(st.integers(0, 200),
                                       st.sampled_from("\x00\x01\t\n\r"
                                                       "\x1b\x1f\x7f")),
                             max_size=3),
       _LINE_NUMBERS)
def test_repair_and_classification_match_oracle(line, controls, line_number):
    for position, control in controls:
        line = line[:position] + control + line[position:]
    assert (attempt_repair(line, line_number)
            == oracle_attempt_repair(line, line_number))
    has_controls = any(ord(ch) < 32 and ch not in "\t"
                       for ch in line.rstrip("\r\n"))
    assert (classify_fault(line, LogFormatError("x"))
            == "encoding") == has_controls

