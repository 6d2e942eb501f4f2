"""Differential property: the fused line → request hop against the record
projection.

``iter_requests(iter_clf_lines(lines))`` parses each line straight into a
:class:`~repro.sessions.model.Request`.  Handed an ingest iterator that is
already started, ``iter_requests`` projects the records it yields one by
one instead — the composition as it was before the fusion.  Both sides
read the same lines lazily, so a raise (a strict fault, a late record)
happens at the same line on both, and everything observable must agree:
the requests (referrer and ``synthetic`` included), the
:class:`~repro.logs.ingest.IngestReport` (samples and fault counts
included), the ``on_malformed`` calls, the quarantine bytes, the metrics
registry and the exception.  A run that does not raise must also equal
``iter_requests(list(ingest_lines(...)))``.

Generated lines mix CLF and Combined, blank and whitespace-only lines,
zero to two trailing newlines, control bytes, torn Combined tails, hour
24, 31 Feb, unknown and lowercase months, non-GET and non-2xx requests,
``-`` and query-string referrers, and cut or garbage lines.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.exceptions import LateEventError, LogFormatError
from repro.logs.ingest import ErrorPolicy, IngestReport, ingest_lines
from repro.logs.reader import iter_requests
from repro.obs import Registry

_VALID_DATES = st.sampled_from(["04/Jul/2026", "05/Jul/2026", "04/jul/2026",
                                "29/Feb/2024"])
_BAD_DATES = st.sampled_from(["31/Feb/2026", "04/Foo/2026", "04/xyz/2026",
                              "00/Jul/2026"])
_CLOCKS = st.tuples(st.integers(0, 23), st.integers(0, 59),
                    st.integers(0, 59)).map(
    lambda hms: "%02d:%02d:%02d" % hms)
_BAD_CLOCKS = st.sampled_from(["24:00:00", "23:60:00", "23:59:60"])
_TAILS = st.sampled_from([
    None, ("-", "-"), ("-", "Mozilla/5.0"), ("/P3.html", "ua"),
    ("/P4.html?ref=mail", "ua"), ("http://elsewhere.example/x", "-")])


@st.composite
def _lines(draw) -> str:
    """One input line: a valid or edge-case record, possibly mangled."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(["", " ", "\t \n", "\n", "\n\n"]))
    if kind == 1:
        return draw(st.text(st.characters(codec="utf-8",
                                          exclude_characters="\n"),
                            max_size=30))
    date = draw(_BAD_DATES if kind == 2 else _VALID_DATES)
    clock = draw(_BAD_CLOCKS if kind == 3 else _CLOCKS)
    host, zone, method, url, status, size = (
        draw(st.sampled_from(choices)) for choices in (
            ["10.0.0.1", "10.0.0.2", "h-3"], ["+0000", "-0130", "+0200"],
            ["GET", "GET", "POST", "HEAD"],
            ["/P1.html", "/P2.html?q=1", "/a.png"],
            ["200", "204", "304", "404"], ["512", "-"]))
    line = (f'{host} - - [{date}:{clock} {zone}] "{method} {url} HTTP/1.1" '
            f"{status} {size}")
    tail = draw(_TAILS)
    if tail is not None:
        body = len(line)
        line += f' "{tail[0]}" "{tail[1]}"'
        if kind == 4:                       # a torn Combined tail
            line = line[:draw(st.integers(body + 1, len(line) - 1))]
    if kind == 5:                           # control bytes
        at = draw(st.integers(0, len(line)))
        line = (line[:at] + draw(st.sampled_from(["\x00", "\x07", "\r"]))
                + line[at:])
    elif kind == 6:                         # cut anywhere
        line = line[:draw(st.integers(0, len(line)))]
    return line + "\n" * draw(st.integers(0, 2))


_POLICIES = st.sampled_from(list(ErrorPolicy))


def _run(lines: list[str], policy: ErrorPolicy, page_views_only: bool,
         watermark: float | None, records) -> dict:
    """Everything one run shows; ``records`` turns the ingest iterator
    into what ``iter_requests`` is given."""
    registry = Registry()
    report = IngestReport()
    quarantine: list[str] = []
    malformed = []
    stream = ingest_lines(
        lines, policy=policy, report=report,
        quarantine=(quarantine if policy in (ErrorPolicy.QUARANTINE,
                                             ErrorPolicy.REPAIR) else None),
        on_malformed=lambda error: malformed.append(
            (type(error), error.args, error.line_number, error.line)),
        registry=registry)
    requests = []
    raised = None
    try:
        for request in iter_requests(records(stream), page_views_only,
                                     watermark=watermark):
            requests.append((request.timestamp, request.user_id,
                             request.page, request.synthetic,
                             request.referrer))
    except (LogFormatError, LateEventError) as error:
        raised = (type(error), error.args,
                  getattr(error, "line_number", None),
                  getattr(error, "line", None))
    return {"requests": requests, "report": report, "malformed": malformed,
            "quarantine": "".join(quarantine), "registry":
            registry.snapshot(), "raised": raised}


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_lines(), max_size=25), policy=_POLICIES,
       page_views_only=st.booleans(),
       watermark=st.none() | st.sampled_from(
           [1783166400.0, 1783209600.0]))
@example(lines=['10.0.0.1 - - [04/jul/2026:10:15:42 +0000] '
                '"GET /P1.html HTTP/1.1" 200 5 "/P2.html?x=1" "ua"\n\n',
                "   \n",
                '10.0.0.1 - - [31/Feb/2026:10:15:42 +0000] '
                '"GET /P1.html HTTP/1.1" 200 5\n',
                '10.0.0.1 - - [04/Jul/2026:24:00:00 +0000] '
                '"GET /P1.html HTTP/1.1" 200 5\n',
                '10.0.0.1 - - [04/Jul/2026:10:15:42 +0000] '
                '"GET /P1.html HTTP/1.1" 200 5 "-" "u\n'],
         policy=ErrorPolicy.REPAIR, page_views_only=True, watermark=None)
def test_fused_hop_equals_record_projection(lines, policy, page_views_only,
                                            watermark):
    fused = _run(lines, policy, page_views_only, watermark,
                 lambda stream: stream)
    projected = _run(lines, policy, page_views_only, watermark, iter)
    assert fused == projected
    if projected["raised"] is None:
        assert _run(lines, policy, page_views_only, watermark,
                    list) == projected
