"""Report objects and their canonical JSON form.

Serialization is deterministic (sorted keys, fixed separators) so cache
hits and golden files can be compared byte for byte; the timings section
is the only part allowed to vary between runs.  Every number that
represents a p-adic value is rendered as a little-endian base-p digit
string ("d0,d1,...") next to an explicit (p, N) header.
`canonical_json` writes it all without loading `json` and must equal
`json.dumps(data, sort_keys=True, indent=2, separators=(",", ": "))`
plus a newline, byte for byte, as tests/test_stdlib_stand_ins.py::
test_canonical_json_equals_json_dumps checks.
"""

from __future__ import annotations

from math import isfinite

SCHEMA_VERSION = "1"


def padic_digits(value: int, p: int, N: int) -> str:
    """Little-endian base-p digit string of a residue mod p^N."""
    value %= p ** N
    digits = []
    for _ in range(N):
        value, d = divmod(value, p)
        digits.append(str(d))
    return ",".join(digits)


def _dumps(value, indent: str) -> str:
    """`value` as JSON nested at `indent`, a newline and two spaces a
    level.  A string that needs escaping, NaN, an infinity or another
    type goes to `json.dumps`, which no report reaches."""
    if isinstance(value, str):
        if (value.isascii() and value.isprintable() and '"' not in value
                and "\\" not in value):
            return f'"{value}"'
    elif value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    elif isinstance(value, float):
        if isfinite(value):
            return float.__repr__(value)
    elif isinstance(value, (list, tuple, dict)):
        inner = indent + "  "
        if isinstance(value, dict):
            if not all(isinstance(key, str) for key in value):
                raise TypeError("keys must be str")
            items = [f"{_dumps(key, inner)}: {_dumps(value[key], inner)}"
                     for key in sorted(value)]
            ends = "{}"
        elif set(map(type, value)) == {int}:   # exact ints: no bool
            sep = "," + inner
            return f"[{inner}{sep.join(map(int.__repr__, value))}{indent}]"
        else:
            items = [_dumps(item, inner) for item in value]
            ends = "[]"
        if not items:
            return ends
        return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]
    import json
    return json.dumps(value)


def canonical_json(data) -> str:
    return _dumps(data, "\n") + "\n"


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
