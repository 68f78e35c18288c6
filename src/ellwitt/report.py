"""Report objects and their canonical JSON form.

Serialization is deterministic (sorted keys, fixed separators) so cache
hits and golden files can be compared byte for byte; the timings section
is the only part allowed to vary between runs.  Every number that
represents a p-adic value is rendered as a little-endian base-p digit
string ("d0,d1,...") next to an explicit (p, N) header.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = "1"


def padic_digits(value: int, p: int, N: int) -> str:
    """Little-endian base-p digit string of a residue mod p^N."""
    value %= p ** N
    digits = []
    for _ in range(N):
        value, d = divmod(value, p)
        digits.append(str(d))
    return ",".join(digits)


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


class Report:
    """One CLI invocation's structured result: the caller sets prime,
    precision (None when the command has none), one entry of sections
    and its wall time in timings, then writes it with to_json."""

    def __init__(self):
        self.prime = None
        self.precision = None
        self.sections = {}
        self.timings = {}

    def to_json(self) -> str:
        return canonical_json({
            "schema_version": SCHEMA_VERSION,
            "prime": self.prime,
            "precision": self.precision,
            "sections": self.sections,
            "timings": self.timings,
        })
