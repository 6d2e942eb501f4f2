"""Unit tests for the log writer, reader, and user partitioning."""

from __future__ import annotations

import pytest

from repro.exceptions import LogFormatError
from repro.logs.clf import CLFRecord
from repro.logs.reader import (
    iter_clf_lines,
    read_clf_file,
    records_to_requests,
)
from repro.logs.users import (
    IdentityAddressMap,
    UserAddressMap,
    partition_by_user,
)
from repro.logs.writer import requests_to_records, write_clf_file
from repro.sessions.model import Request


@pytest.fixture()
def sample_requests():
    return [
        Request(100.0, "alice", "P1"),
        Request(160.0, "alice", "P2"),
        Request(130.0, "bob", "P1"),
    ]


class TestUserAddressMap:
    def test_one_to_one_by_default(self):
        addresses = UserAddressMap()
        first = addresses.ip_for("alice")
        second = addresses.ip_for("bob")
        assert first != second
        assert addresses.ip_for("alice") == first  # stable

    def test_allocation_order(self):
        addresses = UserAddressMap()
        assert addresses.ip_for("a") == "10.0.0.1"
        assert addresses.ip_for("b") == "10.0.0.2"

    def test_proxy_grouping(self):
        addresses = UserAddressMap(proxy_group_size=2)
        ips = [addresses.ip_for(f"u{i}") for i in range(4)]
        assert ips[0] == ips[1]
        assert ips[2] == ips[3]
        assert ips[0] != ips[2]
        assert addresses.users_for(ips[0]) == ("u0", "u1")

    def test_rollover_across_host_byte(self):
        addresses = UserAddressMap()
        for index in range(255):
            addresses.ip_for(f"u{index}")
        assert addresses.ip_for("u254") == "10.0.1.1"

    def test_rejects_bad_group_size(self):
        with pytest.raises(LogFormatError):
            UserAddressMap(proxy_group_size=0)

    def test_identity_map(self):
        identity = IdentityAddressMap()
        assert identity.ip_for("alice") == "alice"
        assert identity.users_for("alice") == ("alice",)


class TestWriter:
    def test_records_carry_request_fields(self, sample_requests):
        records = requests_to_records(sample_requests, IdentityAddressMap())
        assert [r.host for r in records] == ["alice", "alice", "bob"]
        assert records[0].url == "/P1.html"
        assert records[0].method == "GET"
        assert records[0].status == 200

    def test_sizes_deterministic(self, sample_requests):
        first = requests_to_records(sample_requests, IdentityAddressMap())
        second = requests_to_records(sample_requests, IdentityAddressMap())
        assert [r.size for r in first] == [r.size for r in second]

    def test_write_returns_line_count(self, sample_requests, tmp_path):
        records = requests_to_records(sample_requests)
        path = str(tmp_path / "access.log")
        assert write_clf_file(path, records) == 3
        with open(path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 3


class TestReader:
    def test_file_roundtrip(self, sample_requests, tmp_path):
        records = requests_to_records(sample_requests, IdentityAddressMap())
        path = str(tmp_path / "access.log")
        write_clf_file(path, records)
        parsed = read_clf_file(path)
        assert [r.url for r in parsed] == [r.url for r in records]
        assert [r.host for r in parsed] == [r.host for r in records]

    def test_requests_roundtrip_modulo_quantization(self, sample_requests,
                                                    tmp_path):
        records = requests_to_records(sample_requests, IdentityAddressMap())
        path = str(tmp_path / "access.log")
        write_clf_file(path, records)
        back = records_to_requests(read_clf_file(path))
        assert [(r.user_id, r.page) for r in back] == [
            ("alice", "P1"), ("alice", "P2"), ("bob", "P1")]
        # CLF stores whole seconds.
        assert [r.timestamp for r in back] == [100.0, 160.0, 130.0]

    def test_skip_malformed(self, tmp_path):
        path = str(tmp_path / "dirty.log")
        good = requests_to_records([Request(1.0, "u", "P1")],
                                   IdentityAddressMap())
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage line\n")
            from repro.logs.clf import format_clf_line
            handle.write(format_clf_line(good[0]) + "\n")
        assert len(read_clf_file(path, skip_malformed=True)) == 1
        with pytest.raises(LogFormatError):
            read_clf_file(path)

    def test_blank_lines_skipped(self):
        assert list(iter_clf_lines(["", "  ", "\n"])) == []

    def test_page_view_filter(self):
        records = [
            CLFRecord("h", 1.0, "GET", "/a.html", "HTTP/1.1", 200, 1),
            CLFRecord("h", 2.0, "POST", "/a.html", "HTTP/1.1", 200, 1),
        ]
        assert len(records_to_requests(records)) == 1
        assert len(records_to_requests(records, page_views_only=False)) == 2


class TestPartitionByUser:
    def test_groups_and_sorts(self):
        records = [
            CLFRecord("ip1", 5.0, "GET", "/b.html", "HTTP/1.1", 200, 1),
            CLFRecord("ip2", 1.0, "GET", "/x.html", "HTTP/1.1", 200, 1),
            CLFRecord("ip1", 2.0, "GET", "/a.html", "HTTP/1.1", 200, 1),
        ]
        streams = partition_by_user(records)
        assert [r.page for r in streams["ip1"]] == ["a", "b"]
        assert [r.page for r in streams["ip2"]] == ["x"]

    def test_filters_non_page_views(self):
        records = [
            CLFRecord("ip1", 1.0, "GET", "/a.html", "HTTP/1.1", 404, 1),
        ]
        assert partition_by_user(records) == {}
        assert "ip1" in partition_by_user(records, page_views_only=False)

    def test_keeps_combined_referrers(self):
        # Request equality ignores the referrer, so compare it explicitly.
        records = [
            CLFRecord("ip1", 2.0, "GET", "/b.html", "HTTP/1.1", 200, 1,
                      referrer="/a.html?q=1", user_agent="ua"),
            CLFRecord("ip1", 1.0, "GET", "/a.html", "HTTP/1.1", 200, 1),
        ]
        streams = partition_by_user(records)
        assert [r.referrer for r in streams["ip1"]] == [None, "a"]
        assert ([r.referrer for r in streams["ip1"]]
                == [r.referrer for r in sorted(records_to_requests(records))])
