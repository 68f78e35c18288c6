"""The output ledger: a fixed list of command lines, each with the exit
code, stdout and stderr that `ellwitt` gives for it, kept as hashes in
tests/ledger.txt.

A line of the file is the command line, its exit code, the sha256 of
its stdout and the sha256 of its stderr, separated by tabs.  stdout is
hashed as printed, except that a JSON report is cut before its timings
section, the one part of a report that changes from run to run.

LINES covers `ss` at every prime <= 97, `lift` at 18 (p, N), `split` at
15, `hasse` at every prime below 1000, both scans, the `verify` suites,
`formal` and `forms`, every leaf command of cli.COMMANDS with the flags
of the command sweep, each bound's first refused value and the sweep's
help and usage lines, each as text and as --json.  Every command runs
in-process through cli.main with its own empty cache dir; `ss` and
`lift` run twice, cold and then from the cache, and both runs must
print the same.

tests/test_ledger.py replays the file.  After a change that alters an
output on purpose, regenerate it with

    PYTHONPATH=src python tests/ledger.py --write

and name each changed line, with its reason, in CHANGES.md.
"""

import contextlib
import gc
import io
import os
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

from ellwitt import cli
from ellwitt.arith import is_prime
from test_command_sweep import SWEEP, TAIL

LEDGER = Path(__file__).resolve().parent / "ledger.txt"

#: The commands whose reports go through the disk cache.
CACHED = ("ss", "lift")

_TIMINGS = ',\n  "timings": '


def _primes(lo: int, hi: int) -> list:
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def refused_bounds() -> list:
    """For each bound of each leaf command, the command line with the
    first value past that bound and the sweep's values for the other
    flags."""
    out = []
    for words, flags in SWEEP.items():
        base = dict(zip(*[iter(flags.split())] * 2))
        for name, flag in cli.COMMANDS[words].flags.items():
            for bad in ([flag.lo - 1] if flag.lo is not None else []) + \
                    ([flag.hi + 1] if flag.hi is not None else []):
                argv = {**base, f"--{name}": str(bad)}
                out.append(" ".join(
                    [*words, *(w for kv in argv.items() for w in kv)]))
    return out


def _lines() -> list:
    commands = (
        [f"ss --prime {p}" for p in _primes(5, 97)]
        + [f"lift --prime {p} --precision {n}"
           for p in (5, 13, 29, 37, 61, 97) for n in (1, 5, 64)]
        + [f"split --prime {p} --precision {n}"
           for p in (5, 13, 23, 37, 47) for n in (1, 4, 32)]
        + [f"hasse --prime {p}" for p in _primes(5, 999)]
        + ["scan ogg --max 148", "scan ogg --max 1000",
           "scan sqrt3 --max 10000", "verify all"]
        + [f"verify {suite} --prime {p}"
           for suite in ("deligne", "gross-landweber") for p in (5, 7, 11, 13)]
        + ["formal --prime 11 --a4 2 --a6 1", "forms --weight 12 --prec 10"]
        + [f"{' '.join(words)} {flags}" for words, flags in SWEEP.items()]
        + refused_bounds() + ["lift --prime 97 --precision 65"]
        + [line for line, _ in TAIL])
    return [line + json for line in dict.fromkeys(commands)
            for json in ("", " --json")]


#: Every command line of the ledger, in its order.
LINES = _lines()


def digest(text: str) -> str:
    """sha256 of a command's output, a JSON report cut before its
    timings section."""
    if text.startswith("{"):
        text = text[:text.rindex(_TIMINGS)]
    return sha256(text.encode()).hexdigest()


def run(line: str, cache_dir: str) -> tuple:
    """(exit code, stdout digest, stderr digest) of one command line,
    run in-process with the given cache dir."""
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.get("ELLWITT_CACHE_DIR")
    os.environ["ELLWITT_CACHE_DIR"] = cache_dir
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(line.split())
    finally:
        gc.unfreeze()   # cli.main froze the heap, as for a process of its own
        if old is None:
            del os.environ["ELLWITT_CACHE_DIR"]
        else:
            os.environ["ELLWITT_CACHE_DIR"] = old
    return code, digest(out.getvalue()), digest(err.getvalue())


def replay(line: str, root: str) -> list:
    """The results of a line, each in a fresh cache dir under root: one
    run, or for a cached command a cold run and then a warm one, which
    must find the entry the cold run stored."""
    cache_dir = tempfile.mkdtemp(dir=root)
    runs = [run(line, cache_dir)]
    argv = line.split()
    if argv[0] in CACHED and "--help" not in argv and runs[0][0] == 0:
        if not os.listdir(cache_dir):
            raise AssertionError(f"{line}: the cold run stored nothing")
        runs.append(run(line, cache_dir))
    return runs


def read() -> dict:
    """The ledger file as {command line: (code, stdout, stderr)}."""
    out = {}
    for row in LEDGER.read_text().splitlines():
        line, code, stdout, stderr = row.split("\t")
        out[line] = (int(code), stdout, stderr)
    return out


def write() -> None:
    rows = []
    with tempfile.TemporaryDirectory() as root:
        for line in LINES:
            first, *rest = replay(line, root)
            if any(r != first for r in rest):
                raise SystemExit(f"{line}: the warm run differs from the "
                                 f"cold one")
            rows.append("\t".join([line, str(first[0]), *first[1:]]))
    LEDGER.write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/ledger.py "
                         "--write")
    write()
    print(f"wrote {len(LINES)} lines to {LEDGER}")
