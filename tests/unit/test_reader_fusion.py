"""The fused front end: ``iter_requests(iter_clf_lines(lines))`` parses each
line straight into a request, and stays lazy, exact and accountable."""

from __future__ import annotations

from collections.abc import Iterator

import pytest

import repro.logs.clf as clf
from repro.exceptions import ConfigurationError
from repro.logs.clf import CLFRecord, format_clf_line
from repro.logs.ingest import IngestReport, ingest_lines, report_from_registry
from repro.logs.reader import iter_clf_lines, iter_requests
from repro.obs import Registry


def _line(second: int, host: str = "10.0.0.1", method: str = "GET") -> str:
    return format_clf_line(CLFRecord(host, 1000.0 + second, method,
                                     f"/P{second}.html", "HTTP/1.1", 200,
                                     64)) + "\n"


LINES = [_line(second) for second in range(6)]


def _guarded(lines: list[str], last: int) -> Iterator[str]:
    """``lines`` as a source that fails if read past line ``last``."""
    for number, line in enumerate(lines, start=1):
        yield line
        if number == last:
            raise AssertionError(f"read past line {last}")


@pytest.mark.parametrize("last", [1, 3, 6])
def test_request_k_comes_before_line_k_plus_1_is_read(last):
    requests = iter_requests(iter_clf_lines(_guarded(LINES, last)))
    for second in range(last):
        assert next(requests).page == f"P{second}"
    with pytest.raises(AssertionError, match=f"read past line {last}"):
        next(requests)


def test_started_stream_loses_and_double_counts_nothing():
    report = IngestReport()
    stream = iter_clf_lines(LINES, report=report)
    first = next(stream)
    rest = list(iter_requests(stream))
    assert [first.url] + [f"/{request.page}.html" for request in rest] == [
        f"/P{second}.html" for second in range(6)]
    assert (report.total_lines, report.parsed) == (6, 6)


def test_iterating_yields_records_as_before():
    stream = iter_clf_lines(LINES)
    assert isinstance(stream, Iterator)
    assert isinstance(next(stream), CLFRecord)
    assert len([record for record in stream]) == 5
    assert list(ingest_lines(LINES)) == list(iter_clf_lines(LINES))


def test_fused_hop_builds_no_record(monkeypatch):
    def refuse(*args):
        raise AssertionError("a record was built")

    monkeypatch.setattr(clf, "CLFRecord", refuse)
    assert len(list(iter_requests(iter_clf_lines(LINES)))) == 6
    with pytest.raises(AssertionError, match="a record was built"):
        list(iter_requests(list(iter_clf_lines(LINES))))


def test_handed_over_stream_yields_nothing_itself():
    stream = iter_clf_lines(LINES)
    requests = iter_requests(stream)
    assert list(stream) == []
    assert len(list(requests)) == 6


def test_eager_checks_stay_at_call_time():
    with pytest.raises(ConfigurationError, match="quarantine sink"):
        ingest_lines(LINES, policy="quarantine")
    report = IngestReport()
    iter_clf_lines(LINES, skip_malformed=True, report=report)
    assert report.policy == "skip"


def test_registry_reconciles_after_a_fused_run():
    registry = Registry()
    report = IngestReport()
    lines = LINES[:3] + ["garbage\n", "\n", _line(9, method="POST"),
                         LINES[3][:30] + "\n"]
    requests = list(iter_requests(ingest_lines(
        lines, policy="skip", report=report, registry=registry)))
    assert len(requests) == 3
    rebuilt = report_from_registry(registry)
    assert rebuilt.reconciles() and report.reconciles()
    for field in ("total_lines", "parsed", "blank", "quarantined",
                  "dropped", "repaired", "fault_counts", "policy"):
        assert getattr(rebuilt, field) == getattr(report, field)
    assert (report.total_lines, report.parsed, report.blank,
            report.dropped) == (7, 4, 1, 2)
