"""Unit tests for the Combined Log Format extension."""

from __future__ import annotations

import pytest

from repro.exceptions import LogFormatError
from repro.logs.clf import (
    CLFRecord,
    format_clf_line,
    format_combined_line,
    parse_combined_line,
    parse_log_line,
)
from repro.logs.reader import records_to_requests
from repro.logs.users import IdentityAddressMap
from repro.logs.writer import (
    USER_AGENT_POOL,
    requests_to_records,
    write_combined_file,
)
from repro.sessions.model import Request


def _record(**overrides):
    defaults = dict(host="10.0.0.1", timestamp=1_000_000.0, method="GET",
                    url="/P13.html", protocol="HTTP/1.1", status=200,
                    size=5120, referrer="/P1.html",
                    user_agent="Mozilla/5.0 (test)")
    defaults.update(overrides)
    return CLFRecord(**defaults)


class TestCombinedFormat:
    def test_format_appends_quoted_headers(self):
        line = format_combined_line(_record())
        assert line.endswith('"/P1.html" "Mozilla/5.0 (test)"')
        assert line.startswith(format_clf_line(_record()))

    def test_none_headers_render_dash(self):
        line = format_combined_line(_record(referrer=None, user_agent=None))
        assert line.endswith('"-" "-"')

    def test_roundtrip(self):
        record = _record()
        assert parse_combined_line(format_combined_line(record)) == record

    def test_dash_parses_to_none(self):
        line = format_combined_line(_record(referrer=None))
        assert parse_combined_line(line).referrer is None

    def test_rejects_embedded_quotes(self):
        with pytest.raises(LogFormatError, match="double quote"):
            format_combined_line(_record(user_agent='evil "agent"'))

    def test_rejects_plain_clf_line(self):
        with pytest.raises(LogFormatError, match="Combined"):
            parse_combined_line(format_clf_line(_record()))


class TestAutoDetection:
    def test_parse_log_line_handles_both(self):
        combined = format_combined_line(_record())
        plain = format_clf_line(_record())
        assert parse_log_line(combined).referrer == "/P1.html"
        assert parse_log_line(plain).referrer is None

    def test_rejects_garbage(self):
        with pytest.raises(LogFormatError):
            parse_log_line("garbage")


def _with_date(line, date):
    """``line`` with its ``dd/Mon/yyyy`` date replaced by ``date``."""
    start = line.index("[") + 1
    return line[:start] + date + line[line.index(":", start):]


class TestBadDates:
    """An impossible date is reported as such in either format; a
    Combined line used to fall through to "does not match Common Log
    Format"."""

    @pytest.mark.parametrize("formatter",
                             [format_clf_line, format_combined_line])
    def test_impossible_date_names_the_date(self, formatter):
        line = _with_date(formatter(_record()), "31/Feb/2000")
        with pytest.raises(LogFormatError) as caught:
            parse_log_line(line, line_number=9)
        assert caught.value.args == (
            "invalid date/time: day is out of range for month",)
        assert caught.value.line_number == 9
        assert caught.value.line == line

    @pytest.mark.parametrize("formatter",
                             [format_clf_line, format_combined_line])
    def test_unknown_month_names_the_month(self, formatter):
        line = _with_date(formatter(_record()), "01/Foo/2000")
        with pytest.raises(LogFormatError) as caught:
            parse_log_line(line)
        assert caught.value.args == ("unknown month abbreviation 'Foo'",)

    def test_combined_view_agrees(self):
        line = _with_date(format_combined_line(_record()), "29/Feb/2023")
        with pytest.raises(LogFormatError, match="invalid date/time"):
            parse_combined_line(line)

    def test_leap_day_parses(self):
        line = _with_date(format_combined_line(_record()), "29/Feb/2000")
        assert parse_log_line(line).referrer == "/P1.html"

    def test_classified_as_bad_timestamp(self):
        from repro.logs.ingest import classify_fault
        for formatter in (format_clf_line, format_combined_line):
            line = _with_date(formatter(_record()), "31/Feb/2000")
            with pytest.raises(LogFormatError) as caught:
                parse_log_line(line)
            assert classify_fault(line, caught.value) == "bad-timestamp"


class TestWriterIntegration:
    def test_requests_carry_referrers(self):
        requests = [Request(1.0, "u", "P2", referrer="P1"),
                    Request(2.0, "u", "P3")]
        records = requests_to_records(requests, IdentityAddressMap())
        assert records[0].referrer == "/P1.html"
        assert records[1].referrer is None
        assert records[0].user_agent in USER_AGENT_POOL

    def test_user_agent_stable_per_user(self):
        requests = [Request(1.0, "u", "P1"), Request(2.0, "u", "P2"),
                    Request(3.0, "other", "P1")]
        records = requests_to_records(requests, IdentityAddressMap())
        assert records[0].user_agent == records[1].user_agent

    def test_combined_file_roundtrip(self, tmp_path):
        from repro.logs.reader import read_clf_file
        requests = [Request(10.0, "alice", "P1"),
                    Request(70.0, "alice", "P2", referrer="P1")]
        records = requests_to_records(requests, IdentityAddressMap())
        path = str(tmp_path / "combined.log")
        assert write_combined_file(path, records) == 2
        back = records_to_requests(read_clf_file(path))
        assert back[1].referrer == "P1"
        assert back[0].referrer is None

    def test_clf_file_strips_referrers(self, tmp_path):
        from repro.logs.reader import read_clf_file
        from repro.logs.writer import write_clf_file
        requests = [Request(10.0, "alice", "P2", referrer="P1")]
        records = requests_to_records(requests, IdentityAddressMap())
        path = str(tmp_path / "plain.log")
        write_clf_file(path, records)
        back = records_to_requests(read_clf_file(path))
        assert back[0].referrer is None
