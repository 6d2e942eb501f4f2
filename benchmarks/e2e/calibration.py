"""Host-speed calibration for the end-to-end metrics.

On a shared host the same child process runs up to twice as slowly for
seconds to minutes at a time, which no number of rounds inside one run
averages away.  Every measured child therefore also times this fixed
reference task — access-log-like lines formatted, regex-parsed, counted
and JSON-encoded with the standard library only, so no change to the
library under test can move it — right after its timed region.  Each
child's times are then rescaled by :func:`calibrate` to what a host
running the reference in :data:`NOMINAL_S` seconds would have measured,
before the median over rounds is taken.  Calibrating each child by its
own reference, rather than a whole run by the median reference, follows
drift on the time scale of one child (about a second); bursts shorter
than that are left to the median.  Raw figures are kept beside the
calibrated ones.
"""

from __future__ import annotations

import json
import re
import time

#: reference-task seconds of an uncontended host (speed factor 1.0).
NOMINAL_S = 0.040

_LINES = 12_000
_PATTERN = re.compile(
    r'^(\S+) \S+ \S+ \[(\d\d)/(\w{3})/(\d{4}):(\d\d):(\d\d):(\d\d) [^\]]+\] '
    r'"(\S+) (\S+) ([^"]+)" (\d{3}) (\d+)')


def reference_seconds() -> float:
    """Wall seconds of one pass of the fixed reference task."""
    start = time.perf_counter()
    counts: dict[tuple[str, str], int] = {}
    documents = []
    for i in range(_LINES):
        line = (f"10.0.{i % 251}.{i % 13 + 1} - - [{i % 28 + 1:02d}/Jul/2026:"
                f"{i % 24:02d}:{i % 60:02d}:{i * 7 % 60:02d} +0000] "
                f'"GET /P{i * 31 % 300}.html HTTP/1.1" 200 {1024 + i % 4096}')
        match = _PATTERN.match(line)
        key = (match.group(1), match.group(9)[1:-5])
        counts[key] = counts.get(key, 0) + 1
        if i % 64 == 0:
            documents.append({"user": key[0],
                              "requests": [[float(i), key[1], False]]})
    json.dumps(documents)
    sorted(counts)
    return time.perf_counter() - start


def calibrate(seconds: float, reference_s: float) -> float:
    """``seconds`` measured next to a reference pass of ``reference_s``,
    rescaled to the nominal host."""
    return seconds * NOMINAL_S / reference_s
