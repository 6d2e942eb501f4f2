"""Resilient log ingestion: error policies, accounting and quarantine.

Real access logs carry truncated lines, mojibake, duplicated entries and
rotation tears.  :func:`ingest_lines` is the hardened counterpart of
:func:`repro.logs.reader.iter_clf_lines`: every input line is accounted
for in an :class:`IngestReport` (``parsed + blank + quarantined + dropped
== total_lines``, always), and what happens to a malformed line is decided
by an explicit :class:`ErrorPolicy` rather than a silent boolean:

* ``strict``     — raise the original :class:`LogFormatError` (byte-for-
  byte the same exception, line numbers included, as the legacy reader);
* ``skip``       — drop the line, but *count* it and keep a sample;
* ``quarantine`` — write the raw line verbatim to a quarantine sink for
  later inspection or replay, and keep going;
* ``repair``     — try the repair strategies below first; lines they
  cannot save fall back to quarantine (or a counted drop).

Repair strategies, in order:

1. ``strip-controls`` — remove embedded control bytes (NUL injection from
   encoding faults) and re-parse;
2. ``clf-prefix`` — a line whose Common Log Format body is intact but
   whose combined-format tail is torn or garbled is parsed from the CLF
   prefix alone.

The quarantine format is two lines per entry: a ``#``-prefixed metadata
line (input line number, fault class, parser message) followed by the
offending raw line, verbatim.  Because every fault injector in
:mod:`repro.faults` is seed-deterministic and this module draws no
randomness at all, the same seed yields a byte-identical quarantine file
on every run.
"""

from __future__ import annotations

import contextlib
import enum
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import IO

from repro.exceptions import ConfigurationError, LogFormatError
from repro.logs.clf import (
    _LINE_PATTERN,
    CLFRecord,
    parse_clf_line,
    parse_log_line,
)
from repro.obs import Registry, get_registry, split_series

__all__ = [
    "ErrorPolicy",
    "IngestReport",
    "IngestResult",
    "ingest_lines",
    "ingest_clf_file",
    "classify_fault",
    "attempt_repair",
    "report_from_registry",
]

#: number of offending lines an :class:`IngestReport` keeps verbatim.
MAX_SAMPLES = 5

#: a quarantine sink: anything with ``write`` (file-like) or a plain list.
QuarantineSink = IO[str] | list[str]

_DATE_OPEN = re.compile(r"^\S+ \S+ \S+ \[")
#: control bytes other than tab (the ``encoding`` fault signature).
_CONTROLS = re.compile(r"[\x00-\x08\x0a-\x1f]")


class ErrorPolicy(str, enum.Enum):
    """What :func:`ingest_lines` does with a line that fails to parse."""

    STRICT = "strict"
    SKIP = "skip"
    QUARANTINE = "quarantine"
    REPAIR = "repair"

    @classmethod
    def coerce(cls, value: "ErrorPolicy | str") -> "ErrorPolicy":
        """Accept an enum member or its string value.

        Raises:
            ConfigurationError: for an unknown policy name.
        """
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError as exc:
            known = ", ".join(policy.value for policy in cls)
            raise ConfigurationError(
                f"unknown error policy {value!r} (known: {known})") from exc


@dataclass
class IngestReport:
    """Complete accounting of one ingestion run.

    The invariant every run maintains — and :meth:`reconciles` checks — is
    that the four disjoint outcomes exactly cover the input::

        parsed + blank + quarantined + dropped == total_lines

    ``repaired`` counts the subset of ``parsed`` that only parsed after a
    repair strategy rewrote the line.

    Attributes:
        policy: the error policy the run used.
        total_lines: input lines seen (including blank ones).
        parsed: lines that yielded a record (repaired ones included).
        blank: whitespace-only lines (always tolerated).
        quarantined: malformed lines written to the quarantine sink.
        dropped: malformed lines counted but not preserved.
        repaired: lines rescued by a repair strategy.
        fault_counts: malformed-line count per fault class
            (``truncated`` / ``encoding`` / ``bad-timestamp`` /
            ``garbage``), plus ``repaired:<strategy>`` success counters.
        samples: up to :data:`MAX_SAMPLES` ``(line_number, raw line)``
            pairs of offending input, for error messages and debugging.
    """

    policy: str = ErrorPolicy.STRICT.value
    total_lines: int = 0
    parsed: int = 0
    blank: int = 0
    quarantined: int = 0
    dropped: int = 0
    repaired: int = 0
    fault_counts: dict[str, int] = field(default_factory=dict)
    samples: list[tuple[int, str]] = field(default_factory=list)

    @property
    def malformed(self) -> int:
        """Lines that failed to parse as-is (quarantined + dropped +
        repaired)."""
        return self.quarantined + self.dropped + self.repaired

    def reconciles(self) -> bool:
        """Whether every input line is accounted for exactly once."""
        return (self.parsed + self.blank + self.quarantined + self.dropped
                == self.total_lines)

    def _count(self, fault_class: str) -> None:
        self.fault_counts[fault_class] = (
            self.fault_counts.get(fault_class, 0) + 1)

    def _sample(self, line_number: int, line: str) -> None:
        if len(self.samples) < MAX_SAMPLES:
            self.samples.append((line_number, line))

    def summary(self) -> str:
        """Render the report as an indented human-readable block."""
        lines = [
            f"policy:      {self.policy}",
            f"input lines: {self.total_lines}",
            f"parsed:      {self.parsed}"
            + (f" ({self.repaired} repaired)" if self.repaired else ""),
            f"blank:       {self.blank}",
            f"quarantined: {self.quarantined}",
            f"dropped:     {self.dropped}",
        ]
        if self.fault_counts:
            faults = ", ".join(f"{name}={count}" for name, count
                               in sorted(self.fault_counts.items()))
            lines.append(f"faults:      {faults}")
        status = "ok" if self.reconciles() else "MISMATCH"
        lines.append(f"reconciled:  {status}")
        return "\n".join(lines)


@dataclass(frozen=True)
class IngestResult:
    """Records plus the accounting of the run that produced them."""

    records: list[CLFRecord]
    report: IngestReport


def classify_fault(line: str, error: LogFormatError) -> str:
    """Bucket a malformed line into a coarse fault class.

    Classes: ``encoding`` (embedded control bytes), ``bad-timestamp``
    (matched the format but named an impossible date), ``truncated``
    (a well-formed head that stops mid-record: unbalanced quotes, or an
    opened-but-unclosed ``[date]``), ``garbage`` (everything else).
    """
    stripped = line.rstrip("\r\n")
    if _CONTROLS.search(stripped):
        return "encoding"
    message = str(error)
    if "invalid date/time" in message or "unknown month" in message:
        return "bad-timestamp"
    if stripped.count('"') % 2 == 1:
        return "truncated"
    if _DATE_OPEN.match(stripped) and "]" not in stripped:
        return "truncated"
    return "garbage"


def attempt_repair(line: str, line_number: int | None = None
                   ) -> tuple[CLFRecord, str] | None:
    """Try to recover a record from a malformed line.

    Returns:
        ``(record, strategy)`` on success — ``strategy`` names the repair
        that worked — or ``None`` when no strategy applies.
    """
    cleaned = _CONTROLS.sub("", line.rstrip("\n"))
    if cleaned != line.rstrip("\n"):
        try:
            return (parse_log_line(cleaned, line_number=line_number),
                    "strip-controls")
        except LogFormatError:
            pass
    match = _LINE_PATTERN.match(cleaned)
    if match is not None:       # parse the CLF body alone, tail or not
        try:
            return (parse_clf_line(cleaned[:match.end("bytes")], line_number),
                    "clf-prefix")
        except LogFormatError:
            pass
    return None


def _write_quarantine(sink: QuarantineSink, line_number: int, line: str,
                      fault_class: str, error: LogFormatError) -> None:
    """Append one entry (metadata line + verbatim raw line) to the sink."""
    message = str(error.args[0] if error.args else error).split("\n")[0]
    entry = (f"# line {line_number} fault={fault_class}: {message}\n"
             f"{line.rstrip(chr(10))}\n")
    if isinstance(sink, list):
        sink.append(entry)
    else:
        sink.write(entry)


def ingest_lines(lines: Iterable[str], *,
                 policy: ErrorPolicy | str = ErrorPolicy.STRICT,
                 report: IngestReport | None = None,
                 quarantine: QuarantineSink | None = None,
                 on_malformed: Callable[[LogFormatError], None] | None = None,
                 registry: Registry | None = None,
                 ) -> Iterator[CLFRecord]:
    """Parse log lines lazily under an explicit error policy.

    Iterating the result yields :class:`~repro.logs.clf.CLFRecord` objects.
    Handed to :func:`repro.logs.reader.iter_requests` before it is
    started, the same loop parses each line straight into a
    :class:`~repro.sessions.model.Request` instead, with the same
    accounting, faults and quarantine output.

    Args:
        lines: raw log lines (either CLF or combined, per line).
        policy: what to do with malformed lines; see :class:`ErrorPolicy`.
        report: a mutable report filled in as the stream is consumed
            (construct an empty :class:`IngestReport` and pass it in);
            ``None`` keeps counts internally and discards them.
        quarantine: sink for raw offending lines (file-like or list).
            Required by the ``quarantine`` policy; optional under
            ``repair``, where it receives unrepairable lines.
        on_malformed: called with every :class:`LogFormatError` the policy
            swallows (never under ``strict``, which raises instead), after
            the line is counted.  Repaired lines do not trigger it.
        registry: metrics registry updated line by line under the
            ``ingest.*`` catalog (see ``docs/observability.md``); defaults
            to the ambient :func:`repro.obs.get_registry`, a no-op unless
            collection was enabled.  The registry's counters and the
            ``report`` reconcile exactly
            (:func:`report_from_registry`).

    Returns:
        An iterator yielding one :class:`~repro.logs.clf.CLFRecord` per
        successfully parsed (or repaired) line, in input order.

    Raises:
        ConfigurationError: for an unknown policy, or ``quarantine``
            policy without a sink.
        LogFormatError: under ``strict``, for the first malformed line —
            the identical exception (line number, raw line) the legacy
            strict reader raises.
    """
    policy = ErrorPolicy.coerce(policy)
    if policy is ErrorPolicy.QUARANTINE and quarantine is None:
        raise ConfigurationError(
            "quarantine policy requires a quarantine sink")
    if report is None:
        report = IngestReport()
    report.policy = policy.value
    if registry is None:
        registry = get_registry()
    return _IngestStream(
        (lines, policy, report, quarantine, on_malformed, registry))


class _IngestStream:
    """What :func:`ingest_lines` returns: its loop, not yet started.

    Iterating starts the loop with the record builder; :meth:`fuse`
    starts it with another builder instead (see
    :func:`repro.logs.reader.iter_requests`).
    """

    __slots__ = ("_arguments", "_loop")

    def __init__(self, arguments: tuple) -> None:
        self._arguments = arguments
        self._loop: Iterator | None = None

    def __iter__(self) -> Iterator[CLFRecord]:
        if self._loop is None:
            self._loop = _ingest(*self._arguments, parse_log_line, None)
        return self._loop

    def __next__(self) -> CLFRecord:
        return next(iter(self))

    def fuse(self, build: Callable[[str, int], object],
             convert: Callable[[CLFRecord], object]) -> Iterator | None:
        """The loop started with ``build(line, line_number)`` per line and
        ``convert(record)`` per repaired record, or ``None`` if it has
        started.  Each returns the item to yield, or ``None`` for none;
        ``build`` raises :func:`parse_log_line`'s error for a malformed
        line.  The lines then belong to the returned iterator alone.
        """
        if self._loop is not None:
            return None
        self._loop = iter(())
        return _ingest(*self._arguments, build, convert)


def _ingest(lines: Iterable[str], policy: ErrorPolicy,
            report: IngestReport, quarantine: QuarantineSink | None,
            on_malformed: Callable[[LogFormatError], None] | None,
            registry: Registry, build: Callable[[str, int], object],
            convert: Callable[[CLFRecord], object] | None,
            ) -> Iterator:
    # Instrument handles are resolved once per run, and the per-line
    # updates sit behind one local bool so a disabled registry costs a
    # single truth test per line on the hot path.
    enabled = registry.enabled
    m_total = registry.counter("ingest.lines.total")
    m_bytes = registry.counter("ingest.bytes.total")
    m_parsed = registry.counter("ingest.lines.parsed")
    m_blank = registry.counter("ingest.lines.blank")
    m_quarantined = registry.counter("ingest.lines.quarantined")
    m_dropped = registry.counter("ingest.lines.dropped")
    m_repaired = registry.counter("ingest.lines.repaired")
    registry.counter("ingest.runs", policy=policy.value).inc()
    for line_number, line in enumerate(lines, start=1):
        report.total_lines += 1
        if enabled:
            m_total.inc()
            m_bytes.inc(len(line))
        if not line or line.isspace():
            report.blank += 1
            m_blank.inc()
            continue
        try:
            item = build(line, line_number)
        except LogFormatError as error:
            if policy is ErrorPolicy.STRICT:
                raise
            caught = error
        else:
            if item is not None:
                yield item
            report.parsed += 1
            if enabled:
                m_parsed.inc()
            continue
        if policy is ErrorPolicy.REPAIR:
            rescue = attempt_repair(line, line_number)
            if rescue is not None:
                record, strategy = rescue
                report.parsed += 1
                report.repaired += 1
                report._count(f"repaired:{strategy}")
                m_parsed.inc()
                m_repaired.inc()
                registry.counter("ingest.faults",
                                 **{"class": f"repaired:{strategy}"}).inc()
                item = record if convert is None else convert(record)
                if item is not None:
                    yield item
                continue
        fault_class = classify_fault(line, caught)
        report._count(fault_class)
        report._sample(line_number, line.rstrip("\n"))
        registry.counter("ingest.faults", **{"class": fault_class}).inc()
        if quarantine is not None and policy in (ErrorPolicy.QUARANTINE,
                                                 ErrorPolicy.REPAIR):
            _write_quarantine(quarantine, line_number, line, fault_class,
                              caught)
            report.quarantined += 1
            m_quarantined.inc()
        else:
            report.dropped += 1
            m_dropped.inc()
        if on_malformed is not None:
            on_malformed(caught)


def report_from_registry(registry: Registry | None = None) -> IngestReport:
    """Rebuild an :class:`IngestReport` from a registry's ``ingest.*``
    counters.

    The ingestion path maintains both accounting systems in lockstep, so
    for any sequence of ingestion runs collected into one registry this
    report's counts equal the field-by-field sum of the per-run reports
    (``samples`` excepted — the registry keeps no raw lines — and
    ``policy``, which is only filled in when every run used the same one).
    In particular :meth:`IngestReport.reconciles` holds whenever it held
    for each individual run.

    Args:
        registry: the registry to read; defaults to the ambient one.
    """
    if registry is None:
        registry = get_registry()
    report = IngestReport(
        total_lines=int(registry.value("ingest.lines.total")),
        parsed=int(registry.value("ingest.lines.parsed")),
        blank=int(registry.value("ingest.lines.blank")),
        quarantined=int(registry.value("ingest.lines.quarantined")),
        dropped=int(registry.value("ingest.lines.dropped")),
        repaired=int(registry.value("ingest.lines.repaired")),
    )
    for series, value in sorted(registry.series("ingest.faults").items()):
        fault_class = split_series(series)[1].get("class", "unknown")
        report.fault_counts[fault_class] = int(value)
    policies = sorted(
        split_series(series)[1].get("policy", "")
        for series in registry.series("ingest.runs"))
    report.policy = (policies[0] if len(set(policies)) == 1 and policies
                     else "mixed")
    return report


def ingest_clf_file(path: str, *,
                    policy: ErrorPolicy | str = ErrorPolicy.STRICT,
                    quarantine_path: str | None = None,
                    registry: Registry | None = None) -> IngestResult:
    """Read a whole log file under an error policy, with full accounting.

    Args:
        path: log file path.
        policy: see :class:`ErrorPolicy`.
        quarantine_path: where raw offending lines are written (created
            even when nothing is quarantined, so downstream tooling can
            rely on its existence).  Required by the ``quarantine``
            policy.
        registry: metrics registry, as :func:`ingest_lines`.

    Raises:
        ConfigurationError: ``quarantine`` policy without a path.
        LogFormatError: under ``strict``, as :func:`ingest_lines`.
    """
    policy = ErrorPolicy.coerce(policy)
    report = IngestReport()
    with open(path, encoding="utf-8", errors="replace") as handle, \
            (contextlib.nullcontext() if quarantine_path is None
             else open(quarantine_path, "w", encoding="utf-8")) as sink:
        records = list(ingest_lines(handle, policy=policy, report=report,
                                    quarantine=sink, registry=registry))
    return IngestResult(records=records, report=report)
