"""Unit tests for resilient ingestion (repro.logs.ingest)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, LogFormatError
from repro.logs.clf import CLFRecord, format_clf_line, format_combined_line
from repro.logs.ingest import (
    ErrorPolicy,
    IngestReport,
    attempt_repair,
    classify_fault,
    ingest_clf_file,
    ingest_lines,
)
from repro.logs.reader import iter_clf_lines, read_clf_file


def _line(host="10.0.0.1", t=1000.0, url="/P1.html"):
    return format_clf_line(
        CLFRecord(host, t, "GET", url, "HTTP/1.1", 200, 64))


GOOD = _line()
BAD = "utter garbage, not a log line"


class TestPolicies:
    def test_strict_raises_with_line_number(self):
        with pytest.raises(LogFormatError) as caught:
            list(ingest_lines([GOOD, BAD, GOOD], policy="strict"))
        assert caught.value.line_number == 2

    def test_skip_counts_every_drop(self):
        report = IngestReport()
        records = list(ingest_lines([GOOD, BAD, "", GOOD, BAD],
                                    policy="skip", report=report))
        assert len(records) == 2
        assert report.total_lines == 5
        assert report.parsed == 2
        assert report.blank == 1
        assert report.dropped == 2
        assert report.quarantined == 0
        assert report.reconciles()

    def test_quarantine_preserves_raw_lines(self):
        report, sink = IngestReport(), []
        records = list(ingest_lines([GOOD, BAD, GOOD],
                                    policy="quarantine",
                                    report=report, quarantine=sink))
        assert len(records) == 2
        assert report.quarantined == 1 and report.dropped == 0
        assert len(sink) == 1
        metadata, raw, trailer = sink[0].split("\n")
        assert metadata.startswith("# line 2 fault=")
        assert raw == BAD
        assert trailer == ""
        assert report.reconciles()

    def test_quarantine_requires_sink(self):
        with pytest.raises(ConfigurationError, match="sink"):
            ingest_lines([GOOD], policy="quarantine")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown error policy"):
            ingest_lines([GOOD], policy="panic")

    def test_policy_accepts_enum_and_string(self):
        assert ErrorPolicy.coerce("repair") is ErrorPolicy.REPAIR
        assert ErrorPolicy.coerce(ErrorPolicy.SKIP) is ErrorPolicy.SKIP

    def test_on_malformed_callback_surfaces_errors(self):
        seen = []
        list(ingest_lines([GOOD, BAD], policy="skip",
                          on_malformed=seen.append))
        assert len(seen) == 1
        assert isinstance(seen[0], LogFormatError)
        assert seen[0].line_number == 2


class TestRepair:
    def test_strip_controls_rescues_nul_injection(self):
        corrupted = GOOD.replace("GET", "G\x00ET")
        report = IngestReport()
        records = list(ingest_lines([corrupted], policy="repair",
                                    report=report))
        assert len(records) == 1
        assert records[0].host == "10.0.0.1"
        assert report.repaired == 1
        assert report.fault_counts.get("repaired:strip-controls") == 1
        assert report.reconciles()

    def test_clf_prefix_rescues_torn_combined_tail(self):
        combined = format_combined_line(
            CLFRecord("10.0.0.1", 1000.0, "GET", "/P1.html", "HTTP/1.1",
                      200, 64, referrer="/P0.html",
                      user_agent="Mozilla/5.0"))
        torn = combined[:len(GOOD) + 6]        # cut inside the referrer
        report = IngestReport()
        records = list(ingest_lines([torn], policy="repair",
                                    report=report))
        assert len(records) == 1
        assert records[0].url == "/P1.html"
        assert records[0].referrer is None     # the torn tail is gone
        assert report.fault_counts.get("repaired:clf-prefix") == 1

    def test_unrepairable_falls_back_to_quarantine(self):
        report, sink = IngestReport(), []
        records = list(ingest_lines([BAD], policy="repair",
                                    report=report, quarantine=sink))
        assert records == []
        assert report.quarantined == 1
        assert len(sink) == 1
        assert report.reconciles()

    def test_unrepairable_without_sink_is_counted_drop(self):
        report = IngestReport()
        list(ingest_lines([BAD], policy="repair", report=report))
        assert report.dropped == 1
        assert report.reconciles()


class TestClassification:
    def test_encoding(self):
        line = GOOD[:5] + "\x00" + GOOD[5:]
        assert classify_fault(line, LogFormatError("x")) == "encoding"

    def test_truncated_unclosed_quote(self):
        line = GOOD[:GOOD.index('"') + 5]
        assert classify_fault(line, LogFormatError("x")) == "truncated"

    def test_truncated_unclosed_date(self):
        line = GOOD[:GOOD.index("[") + 4]
        assert classify_fault(line, LogFormatError("x")) == "truncated"

    def test_bad_timestamp(self):
        line = GOOD.replace("/Jan/", "/Foo/")
        error = LogFormatError("unknown month abbreviation 'Foo'")
        assert classify_fault(line, error) == "bad-timestamp"

    def test_garbage(self):
        assert classify_fault(BAD, LogFormatError("x")) == "garbage"

    def test_trailing_newline_is_not_encoding(self):
        assert classify_fault(BAD + "\n", LogFormatError("x")) == "garbage"


class TestCombinedBadDate:
    """A Combined line with an impossible date is a ``bad-timestamp``
    fault everywhere the fault class is reported, like a CLF one."""

    LINE = format_combined_line(
        CLFRecord("10.0.0.1", 1000.0, "GET", "/P1.html", "HTTP/1.1", 200,
                  64, referrer="/P0.html", user_agent="Mozilla/5.0")
    ).replace("01/Jan/1970", "31/Feb/2000")

    def test_skip_counts_bad_timestamp(self):
        report, seen = IngestReport(), []
        records = list(ingest_lines([GOOD, self.LINE], policy="skip",
                                    report=report, on_malformed=seen.append))
        assert len(records) == 1
        assert report.fault_counts == {"bad-timestamp": 1}
        assert report.dropped == 1 and report.reconciles()
        assert seen[0].args == (
            "invalid date/time: day is out of range for month",)

    def test_quarantine_metadata_names_the_date(self):
        sink = []
        list(ingest_lines([self.LINE], policy="quarantine", quarantine=sink))
        assert sink[0].split("\n")[0] == (
            "# line 1 fault=bad-timestamp: invalid date/time: "
            "day is out of range for month")

    def test_strict_raises_the_date_error(self):
        with pytest.raises(LogFormatError) as caught:
            list(ingest_lines([GOOD, self.LINE], policy="strict"))
        assert caught.value.line_number == 2
        assert "invalid date/time" in str(caught.value)


class TestAttemptRepair:
    def test_no_strategy_returns_none(self):
        assert attempt_repair(BAD) is None

    def test_repair_keeps_line_number(self):
        corrupted = GOOD.replace("GET", "G\x00ET")
        record, strategy = attempt_repair(corrupted, line_number=7)
        assert strategy == "strip-controls"
        assert record.timestamp == 1000.0


class TestFileApi:
    def test_ingest_clf_file_with_quarantine(self, tmp_path):
        log = tmp_path / "access.log"
        log.write_text(f"{GOOD}\n{BAD}\n{GOOD}\n", encoding="utf-8")
        quarantine = tmp_path / "bad.log"
        result = ingest_clf_file(str(log), policy="quarantine",
                                 quarantine_path=str(quarantine))
        assert len(result.records) == 2
        assert result.report.quarantined == 1
        assert result.report.reconciles()
        content = quarantine.read_text(encoding="utf-8")
        assert BAD in content

    def test_quarantine_output_is_run_identical(self, tmp_path):
        log = tmp_path / "access.log"
        log.write_text(f"{BAD}\n{GOOD}\n{BAD} again\n", encoding="utf-8")
        outputs = []
        for run in range(2):
            quarantine = tmp_path / f"q{run}.log"
            ingest_clf_file(str(log), policy="quarantine",
                            quarantine_path=str(quarantine))
            outputs.append(quarantine.read_bytes())
        assert outputs[0] == outputs[1]

    def test_summary_renders(self):
        report = IngestReport()
        list(ingest_lines([GOOD, BAD], policy="skip", report=report))
        text = report.summary()
        assert "parsed:      1" in text
        assert "reconciled:  ok" in text


class TestLegacyReaderCompatibility:
    def test_iter_clf_lines_strict_unchanged(self):
        records = list(iter_clf_lines([GOOD, "", GOOD]))
        assert len(records) == 2
        with pytest.raises(LogFormatError):
            list(iter_clf_lines([BAD]))

    def test_skip_malformed_now_accounts(self):
        report = IngestReport()
        records = list(iter_clf_lines([GOOD, BAD], skip_malformed=True,
                                      report=report))
        assert len(records) == 1
        assert report.dropped == 1

    def test_read_clf_file_surfaces_drops_via_callback(self, tmp_path):
        log = tmp_path / "a.log"
        log.write_text(f"{GOOD}\n{BAD}\n", encoding="utf-8")
        seen = []
        records = read_clf_file(str(log), skip_malformed=True,
                                on_malformed=seen.append)
        assert len(records) == 1
        assert len(seen) == 1
