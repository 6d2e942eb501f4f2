"""Web server access-log substrate (Common Log Format).

The paper's data-processing pipeline starts from a server access log in
Common Log Format (CLF): one line per request with seven attributes (client
IP, date/time, method, URL, protocol, status, bytes).  Session
reconstruction needs only IP, timestamp and URL; everything else is
filtered out during cleaning.

This package provides the full round trip:

* :mod:`repro.logs.clf` — the :class:`~repro.logs.clf.CLFRecord` model and
  its line format/parse functions;
* :mod:`repro.logs.writer` — serialize simulated request streams to CLF
  files, with deterministic agent→IP assignment;
* :mod:`repro.logs.reader` — parse CLF files back into records;
* :mod:`repro.logs.ingest` — resilient ingestion: error policies
  (strict / skip / quarantine / repair), per-fault accounting and
  quarantine sinks for degraded real-world logs;
* :mod:`repro.logs.cleaning` — noise injection (embedded resources, errors,
  robots) and the filtering pipeline that removes it;
* :mod:`repro.logs.users` — partition cleaned records into per-user request
  streams ready for the heuristics.
"""

from repro.logs.clf import (
    CLFRecord,
    format_clf_line,
    format_combined_line,
    page_to_url,
    parse_clf_line,
    parse_combined_line,
    parse_log_line,
    url_to_page,
)
from repro.logs.anonymize import pseudonymize_hosts, truncate_ipv4_hosts
from repro.logs.cleaning import CleaningStats, LogCleaner, NoiseInjector
from repro.logs.ingest import (
    ErrorPolicy,
    IngestReport,
    IngestResult,
    ingest_clf_file,
    ingest_lines,
    report_from_registry,
)
from repro.logs.reader import iter_clf_lines, read_clf_file, records_to_requests
from repro.logs.users import IdentityAddressMap, UserAddressMap, partition_by_user
from repro.logs.writer import requests_to_records, write_clf_file, write_combined_file

__all__ = [
    "CLFRecord",
    "format_clf_line",
    "parse_clf_line",
    "format_combined_line",
    "parse_combined_line",
    "parse_log_line",
    "page_to_url",
    "url_to_page",
    "write_clf_file",
    "write_combined_file",
    "requests_to_records",
    "read_clf_file",
    "iter_clf_lines",
    "records_to_requests",
    "ErrorPolicy",
    "IngestReport",
    "IngestResult",
    "ingest_lines",
    "ingest_clf_file",
    "report_from_registry",
    "LogCleaner",
    "NoiseInjector",
    "CleaningStats",
    "UserAddressMap",
    "IdentityAddressMap",
    "partition_by_user",
    "pseudonymize_hosts",
    "truncate_ipv4_hosts",
]
