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


def parse_padic_digits(s: str, p: int) -> int:
    value = 0
    for d in reversed(s.split(",")):
        value = value * p + int(d)
    return value


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


class Report:
    """One CLI invocation's structured result."""

    def __init__(self, prime: int | None = None,
                 precision: int | None = None, sections: dict | None = None,
                 timings: dict | None = None,
                 schema_version: str = SCHEMA_VERSION):
        self.prime = prime
        self.precision = precision
        self.sections = {} if sections is None else sections
        self.timings = {} if timings is None else timings
        self.schema_version = schema_version

    def __eq__(self, other):
        if not isinstance(other, Report):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "prime": self.prime,
            "precision": self.precision,
            "sections": self.sections,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        return cls(prime=d.get("prime"), precision=d.get("precision"),
                   sections=d.get("sections", {}),
                   timings=d.get("timings", {}),
                   schema_version=d.get("schema_version", SCHEMA_VERSION))

    @classmethod
    def from_json(cls, s: str) -> "Report":
        return cls.from_dict(json.loads(s))
