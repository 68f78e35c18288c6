"""The code that keeps `json` and `re` off a fresh process, held to the
standard-library call it stands in for: the JSON writer
`report.canonical_json` against `json.dumps`, the cache's reader
`cache._parse` against `json.loads`, and `cli._negative_number` against
the regex that argparse reads a negative number with."""

import contextlib
import io
import json
import random
import re
from itertools import product
from pathlib import Path

import pytest

from ellwitt import cache, cli, report
from conftest import fresh_python
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
    # int lists, written in one join: negatives, ints past 2^64, a bool
    # among ints (still true/false), empty, and int pairs
    for value in ([3, -7, 0], [2 ** 64 + 1, -(2 ** 70), 5], (9, -2 ** 65),
                  [1, True, 0, False], [], [[1, -2], [-3, 4]], [[], [0]]):
        assert report.canonical_json(value) == _dumps(value), value
        assert report.canonical_json({"k": [value]}) == \
            _dumps({"k": [value]}), value

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


def _read(parse, text: str):
    """repr of what parse reads from text, which tells -0.0 from 0.0
    and an int from a float and shows NaN, or the class of the error
    it raises: ValueError for a subclass such as JSONDecodeError."""
    try:
        return repr(parse(text))
    except ValueError:
        return ValueError
    except RecursionError:
        return RecursionError


def _sweep_texts(tmp_path, monkeypatch) -> list:
    """Every report that the sweep's leaves print with --json, cold and
    then warm, and every cache entry they write."""
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path))
    texts = []
    for words, flags in SWEEP.items():
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main([*words, *flags.split(), "--json"]) == 0
            texts.append(out.getvalue())
    entries = [path.read_text() for path in sorted(tmp_path.glob("*.json"))]
    assert len(entries) == 2
    return texts + entries


#: The whitespace that JSON allows between tokens.
_SPACE = " \t\n\r"


def test_cache_reader_equals_json_loads(tmp_path, monkeypatch):
    rng = random.Random(20261021)

    def pad():
        return "".join(rng.choice(_SPACE) for _ in range(rng.randrange(4)))
    for _ in range(20000):
        value = _value(rng, 3)
        spaced = pad() + json.dumps(
            value, indent=rng.choice((None, 0, 2, "\t", " \r\n")),
            separators=rng.choice(((",", ":"), (" ,\t", "\n: ")))) + pad()
        for text in (report.canonical_json(value), spaced):
            want = _read(json.loads, text)
            assert want not in (ValueError, RecursionError), text
            assert _read(cache._parse, text) == want, text
    for text in _sweep_texts(tmp_path, monkeypatch):
        assert cache._parse(text) == json.loads(text)


def test_cache_reader_rejects_what_json_loads_rejects(tmp_path,
                                                     monkeypatch):
    # an entry with a BOM, truncated anywhere or followed by more data,
    # raw control characters, and what json.loads rejects beside
    entry = _sweep_texts(tmp_path, monkeypatch)[-1].rstrip()
    rejected = ["", " \n", "\ufeff" + entry, entry + " x", entry + entry,
                "1 2", '{"a": "\x01"}', '["a\tb"]', "[1,]", "{'a': 1}",
                "nan", "[01]"] + [entry[:k] for k in range(len(entry))]
    for text in rejected:
        want = _read(json.loads, text)
        assert want is ValueError, text
        assert _read(cache._parse, text) is ValueError, text
    deep = "[" * 200000 + "]" * 200000
    assert _read(json.loads, deep) is _read(cache._parse, deep) \
        is RecursionError


def test_a_warm_hit_reads_through_json_loads_without_the_scanner(tmp_path):
    # a build without _json: cache._parse falls back to json.loads, and
    # the warm report equals the _json reader's byte for byte, timings
    # aside, with no warning and no entry rewritten
    code = ("import sys\n"
            "if sys.argv[1] == 'fallback':\n"
            "    sys.modules['_json'] = None\n"
            "from ellwitt.cli import main\n"
            "code = main(['ss', '--prime', '13', '--json'])\n"
            "assert ('json' in sys.modules) == (sys.argv[1] == 'fallback')\n"
            "sys.exit(code)\n")

    def run(mode):
        proc = fresh_python(code, mode, site=False,
                            **{cache.ENV_CACHE_DIR: str(tmp_path)})
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        return proc.stdout.partition('"timings"')[0]

    cold = run("scanner")
    [path] = tmp_path.glob("*.json")
    stat = path.stat()
    assert run("scanner") == cold == run("fallback")
    assert (path.stat().st_mtime_ns, path.stat().st_ino) == \
        (stat.st_mtime_ns, stat.st_ino)


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
