"""Percentile selection and verdict digests shared by run.py and its tests."""

import hashlib
import math
import re
import zlib


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it (q in (0, 100])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


# A JSON-lines unit record, as api::JsonLinesSink writes it.  The describe
# string is skipped: it is a function of the fault index.
_UNIT = re.compile(
    rb'\{"type":"unit","scheme":"([^"]*)","class":"([^"]*)","fault":(\d+),'
    rb'.*?"detected_all":(true|false),"detected_any":(true|false)\}'
)


def unit_verdicts(stream):
    """(scheme, class, fault, detected_all, detected_any) of every unit
    record in a JSON-lines byte stream."""
    return [
        (s.decode(), c.decode(), int(f), a == b"true", y == b"true")
        for s, c, f, a, y in _UNIT.findall(stream)
    ]


def verdict_digest(verdicts):
    """Order-independent digest of unit verdicts: CRC-32 of the sorted
    "scheme\\tclass\\tfault\\tA\\tY" lines plus the record count.  The traced
    driver (trace_driver.cpp) computes the same string."""
    text = "".join(
        f"{s}\t{c}\t{f}\t{int(a)}\t{int(y)}\n" for s, c, f, a, y in sorted(verdicts)
    )
    return f"{zlib.crc32(text.encode()):08x}-{len(verdicts)}"


def line_digest(stream):
    """Cheap order-independent fingerprint of a stream's unit records (sorted
    raw lines).  Two runs of one binary that agree on it agree on every
    verdict, so run.py parses verdicts once and compares this afterwards."""
    lines = [ln for ln in stream.split(b"\n") if ln.startswith(b'{"type":"unit"')]
    lines.sort()
    return hashlib.sha1(b"\n".join(lines)).hexdigest() + f"-{len(lines)}"
