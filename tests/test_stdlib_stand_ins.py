"""The code that keeps `json` and `re` off a fresh process's start-up,
held to the standard-library call it stands in for: the JSON writer
`report.canonical_json` against `json.dumps`, and `cli._negative_number`
against the regex that argparse reads a negative number with."""

import contextlib
import io
import json
import random
import re
from itertools import product
from pathlib import Path

import pytest

from ellwitt import cache, cli, report
from test_command_sweep import SWEEP

GOLDEN = Path(__file__).parent / "golden"


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


#: Characters a string is drawn from: printable ASCII, the two that
#: JSON escapes, control characters, DEL and some beyond ASCII.
_CHARS = ("az09 ~{}:,-", '"\\', "\t\n\r\x00\x1f\x7f",
          "\u00e9\u2014\U0001f600\u2028")
_FLOATS = (0.0, -0.0, 1.5, -2.25, 1e300, 1e-300, 0.1,
           float("nan"), float("inf"), float("-inf"))


def _value(rng: random.Random, depth: int):
    """A seeded random value of each class that canonical_json writes
    itself or hands to json.dumps."""
    kind = rng.randrange(7 if depth else 4)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.choice((0, -1, 7, 10 ** 30, -(10 ** 30) + 1,
                           rng.randrange(-10 ** 31, 10 ** 31)))
    if kind == 2:
        return rng.choice(_FLOATS + (rng.uniform(-1e6, 1e6),))
    if kind == 3:
        pool = "".join(rng.sample(_CHARS, rng.randrange(1, 5)))
        return "".join(rng.choice(pool) for _ in range(rng.randrange(6)))
    size = rng.randrange(4)
    if kind == 4:
        return [_value(rng, depth - 1) for _ in range(size)]
    if kind == 5:
        return tuple(_value(rng, depth - 1) for _ in range(size))
    return {_key(rng): _value(rng, depth - 1) for _ in range(size)}


def _key(rng: random.Random) -> str:
    pool = rng.choice(_CHARS[:2] + ("".join(_CHARS),))
    return "".join(rng.choice(pool) for _ in range(rng.randrange(4)))


def test_canonical_json_equals_json_dumps(tmp_path, monkeypatch):
    rng = random.Random(20261020)
    for _ in range(20000):
        value = _value(rng, 3)
        assert report.canonical_json(value) == _dumps(value), value

    # every report and cache entry that the sweep's leaves write, cold
    # and then warm, as the objects the commands build
    written, write = [], report.canonical_json

    def spy(data):
        written.append(data)
        return write(data)
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.setattr(report, "canonical_json", spy)
    monkeypatch.setattr(cache, "canonical_json", spy)
    for words, flags in SWEEP.items():
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*words, *flags.split(), "--json"]) == 0
    monkeypatch.undo()
    assert len(written) > 2 * len(SWEEP)
    for data in written:
        assert report.canonical_json(data) == _dumps(data)

    goldens = sorted(GOLDEN.glob("*.json"))
    assert len(goldens) == 5
    for path in goldens:
        text = path.read_text()
        assert report.canonical_json(json.loads(text)) == text == \
            _dumps(json.loads(text))

    with pytest.raises(TypeError):
        report.canonical_json({"a": {1: 2}})
    for leaf in ({1, 2}, b"x", 1j):
        with pytest.raises(TypeError) as want:
            _dumps({"a": [leaf]})
        with pytest.raises(TypeError) as got:
            report.canonical_json({"a": [leaf]})
        assert str(got.value) == str(want.value)


#: The regex argparse reads a negative number with, which cli used.
_ARGPARSE_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def test_negative_number_matches_the_argparse_regex():
    # "٣" is ARABIC-INDIC DIGIT THREE, a decimal digit beyond ASCII
    alphabet = ("-", ".", "1", "0", "٣", "\n", " ", "a", "x")
    count = 0
    for size in range(7):
        for chars in product(alphabet, repeat=size):
            token = "".join(chars)
            count += 1
            assert cli._negative_number(token) == \
                bool(_ARGPARSE_NEGATIVE.match(token)), repr(token)
    assert count == (9 ** 7 - 1) // 8
