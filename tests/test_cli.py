"""CLI surface: output shapes, exit codes, JSON schema stability,
determinism, the cache round-trip, what a request imports, a property
test over arbitrary argument vectors, and the command table against the
argparse tree it replaced."""

import argparse
import io
import json
import os
import re
import stat
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ellwitt.cli
from ellwitt.arith import fq2_context, is_prime
from ellwitt.cli import (
    DEFAULT_PRECISION, MAX_FORMS_PREC, MAX_SQRT3_SCAN, _poly_str)
from ellwitt.formalgroup import MAX_FORMAL_PRIME
from ellwitt.modforms import MAX_EISENSTEIN_PRIME
from ellwitt.padicwitt import (
    MAX_LIFT_PRECISION, MAX_SPLIT_PRECISION, MAX_SPLIT_PRIME)
from ellwitt.polyseries import Poly
from ellwitt.report import canonical_json, padic_digits
from ellwitt.sslocus import (
    MAX_DEURING_PRIME, MAX_OGG_SCAN, cross_validate, hasse_polynomial)
from conftest import fresh_python
from oracles import pretty

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, cache_dir, check=True, stdout=subprocess.PIPE):
    proc = subprocess.run(
        [sys.executable, "-m", "ellwitt.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True,
        env={"PATH": "/usr/bin:/bin", "ELLWITT_CACHE_DIR": str(cache_dir),
             "PYTHONPATH": ":".join(sys.path)},
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_padic_digit_strings():
    assert padic_digits(7, 5, 2) == "2,1"
    assert padic_digits(0, 5, 3) == "0,0,0"
    for v in (0, 1, 1958, 13 ** 3 - 1):
        digits = padic_digits(v, 13, 3).split(",")
        assert sum(int(d) * 13 ** i for i, d in enumerate(digits)) == \
            v % 13 ** 3


def test_poly_str_examples():
    assert _poly_str([]) == "0"
    assert _poly_str([7]) == "7"
    assert _poly_str([1]) == "1"
    assert _poly_str([8, 1]) == "X + 8"
    assert _poly_str([0, 10, 1]) == "X^2 + 10*X"
    assert _poly_str([3, 0, 5]) == "5*X^2 + 3"
    assert _poly_str([1, 4, 1], "L") == "L^2 + 4*L + 1"


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_poly_str_is_the_old_poly_printer(p):
    for f in (cross_validate(p).ss_poly, hasse_polynomial(p)):
        for var in ("X", "L"):
            assert _poly_str(f, var) == pretty(Poly(fq2_context(p), f), var)


def test_ss_table_output(tmp_path):
    out = run_cli(["ss", "--prime", "13"], tmp_path).stdout
    assert "sigma = 1" in out
    assert "supersingular j-values: 5" in out
    assert "X + 8" in out


def test_verify_deligne_output(tmp_path):
    out = run_cli(["verify", "deligne", "--prime", "11"], tmp_path).stdout
    assert "110 curves" in out
    assert "3-way agreement" in out


def test_scan_ogg_json(tmp_path):
    out = run_cli(["scan", "ogg", "--max", "71", "--json"], tmp_path).stdout
    d = json.loads(out)
    assert d["sections"]["ogg"]["primes"] == \
        [5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71]
    assert d["sections"]["ogg"]["match"] is True


def test_scan_sqrt3(tmp_path):
    out = run_cli(["scan", "sqrt3", "--max", "500", "--json"],
                  tmp_path).stdout
    d = json.loads(out)
    assert d["sections"]["sqrt3"]["all_match_mod_12_rule"] is True


def test_forms_output(tmp_path):
    out = run_cli(["forms", "--weight", "6", "--prec", "3", "--json"],
                  tmp_path).stdout
    d = json.loads(out)
    assert d["sections"]["forms"]["eisenstein_q"] == ["1", "-504", "-16632"]


def test_formal_output(tmp_path):
    out = run_cli(["formal", "--prime", "5", "--a4", "0", "--a6", "1",
                   "--json"], tmp_path).stdout
    d = json.loads(out)["sections"]["formal"]
    assert d["v1"] == 0 and d["v2"] == 4 and d["supersingular"] is True
    assert d["series_mod_p"][25] == 4
    assert all(c == 0 for c in d["series_mod_p"][:25])
    assert d["series_rational"][1] == "5"


def test_exit_codes(tmp_path):
    assert run_cli(["ss", "--prime", "101"], tmp_path,
                   check=False).returncode == 1
    assert run_cli(["ss", "--prime", "12"], tmp_path,
                   check=False).returncode == 1
    assert run_cli(["--bogus"], tmp_path, check=False).returncode == 1
    proc = run_cli(["formal", "--prime", "17", "--a4", "1", "--a6", "1"],
                   tmp_path, check=False)
    assert proc.returncode == 1
    assert "13" in proc.stderr  # names the enforced bound
    assert run_cli(["lift", "--prime", "13", "--precision", "100"],
                   tmp_path, check=False).returncode == 1


@pytest.mark.parametrize("p", [5, 11, 13])
def test_golden_reports(tmp_path, p):
    out = run_cli(["ss", "--prime", str(p), "--json"], tmp_path).stdout
    got = json.loads(out)
    got["timings"] = {}
    want = json.loads((GOLDEN / f"ss_p{p}.json").read_text())
    assert got == want


@pytest.mark.parametrize("argv, name", [
    (["lift", "--prime", "37", "--precision", "5"], "lift_p37_n5"),
    (["split", "--prime", "37", "--precision", "4"], "split_p37_n4"),
])
def test_golden_lift_and_split_beyond_fp(tmp_path, argv, name):
    # at p = 37 two of the three j lie outside F_p, so the lift and the
    # idempotents have nonzero b digits over W(F_{p^2})
    got = json.loads(run_cli(argv + ["--json"], tmp_path).stdout)
    got["timings"] = {}
    assert canonical_json(got) == (GOLDEN / f"{name}.json").read_text()


def test_determinism_modulo_timings(tmp_path):
    a = run_cli(["ss", "--prime", "11", "--json"], tmp_path / "a").stdout
    b = run_cli(["ss", "--prime", "11", "--json"], tmp_path / "b").stdout
    da, db = json.loads(a), json.loads(b)
    da["timings"] = db["timings"] = {}
    assert canonical_json(da) == canonical_json(db)


def test_cache_roundtrip_and_poisoning(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = run_cli(["lift", "--prime", "11", "--precision", "4", "--json"],
                   cache_dir).stdout
    entries = list(cache_dir.glob("lift_*.json"))
    assert len(entries) == 1
    warm = run_cli(["lift", "--prime", "11", "--precision", "4", "--json"],
                   cache_dir).stdout
    ca, cb = json.loads(cold), json.loads(warm)
    ca["timings"] = cb["timings"] = {}
    assert ca == cb

    # poison one digit: the entry is discarded with a warning, recomputed,
    # and the output is unchanged
    entry = entries[0]
    data = json.loads(entry.read_text())
    good_digits = data["payload"]["coeffs"][0]["a"]
    bad = ("1" if good_digits[0] != "1" else "2") + good_digits[1:]
    data["payload"]["coeffs"][0]["a"] = bad
    entry.write_text(json.dumps(data))
    proc = run_cli(["lift", "--prime", "11", "--precision", "4", "--json"],
                   cache_dir)
    assert "discarding corrupt cache entry" in proc.stderr
    cc = json.loads(proc.stdout)
    cc["timings"] = {}
    assert cc == ca
    # and the rewritten entry is valid again
    assert json.loads(entry.read_text())["payload"]["coeffs"][0]["a"] == \
        good_digits


def test_validation_failure_exits_2(tmp_path, monkeypatch, capsys):
    # a method disagreement surfaces as exit code 2 with a counterexample
    import ellwitt.cli as climod
    import ellwitt.formalgroup as formalgroup
    from ellwitt.errors import ValidationError

    def boom(p):
        raise ValidationError(
            f"Deligne disagreement at p={p}, (A,B)=(1,2): formal v1=3, "
            f"classical=4, eisenstein=5")

    monkeypatch.setattr(formalgroup, "verify_deligne", boom)
    rc = climod.main(["verify", "deligne", "--prime", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "VALIDATION FAILURE" in err and "(A,B)=(1,2)" in err


def test_cache_hit_is_byte_identical_to_recomputation(tmp_path):
    import ellwitt.cache as cachemod
    import ellwitt.cli as climod
    monkey_dir = tmp_path / "c1"
    old = dict(__import__("os").environ)
    import os
    os.environ["ELLWITT_CACHE_DIR"] = str(monkey_dir)
    try:
        first = climod.ss_section(13)
        stored = cachemod.load("ss", {"p": 13})
        assert stored == first
        assert canonical_json(stored) == canonical_json(climod.ss_section(13))
    finally:
        os.environ.clear()
        os.environ.update(old)


def test_verify_all_max_below_five_is_usage_error(tmp_path):
    # and the two scans: a vacuous range is refused, not reported
    for command in (["verify", "all"], ["scan", "ogg"], ["scan", "sqrt3"]):
        for bound in ("3", "-1", "-7"):
            proc = run_cli(command + ["--max", bound], tmp_path,
                           check=False)
            assert proc.returncode == 1
            assert "max >= 5" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""


def test_forms_prec_below_one_is_usage_error(tmp_path):
    for prec in ("-3", "0"):
        proc = run_cli(["forms", "--weight", "6", "--prec", prec],
                       tmp_path, check=False)
        assert proc.returncode == 1
        assert "prec >= 1" in proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize("argv, bound", [
    (["forms", "--weight", "6", "--prec", "1001"], "prec <= 1000"),
    (["scan", "sqrt3", "--max", "1000001"], "max <= 1000000"),
])
def test_argument_above_upper_bound_is_usage_error(argv, bound, tmp_path):
    proc = run_cli(argv, tmp_path, check=False)
    assert proc.returncode == 1
    assert bound in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_prime_above_its_bound_is_refused_before_primality(
        monkeypatch, capsys):
    import ellwitt.arith
    import ellwitt.cli
    from ellwitt.cli import main

    def no_primality_test(n):
        raise AssertionError("is_prime ran on an out-of-bound p")

    monkeypatch.setattr(ellwitt.cli, "is_prime", no_primality_test)
    monkeypatch.setattr(ellwitt.arith, "is_prime", no_primality_test)
    big = 2 ** 3217 - 1   # a Mersenne prime of 969 digits
    for command, bound in (("ss", 97), ("hasse", 1000), ("split", 47)):
        assert main([command, "--prime", str(big)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"ellwitt: error: {command}: enforced bound is "
                       f"p <= {bound}, got {big}\n")


def test_main_freezes_the_heap(tmp_path):
    # the frozen start-up heap is what spares each command the teardown
    # at exit; the report bytes must not change with it
    code = ("import gc, sys\n"
            "from ellwitt.cli import main\n"
            "before = gc.get_freeze_count()\n"
            "rc = main(['ss', '--prime', '13', '--json'])\n"
            "sys.stderr.write('%d %d' % (before, gc.get_freeze_count()))\n"
            "sys.exit(rc)\n")
    proc = fresh_python(code, ELLWITT_CACHE_DIR=str(tmp_path))
    _ss13_against_golden(proc)
    before, after = map(int, proc.stderr.split())
    assert before == 0 and after > 0


def test_scan_ogg_above_its_bound_is_usage_error(tmp_path):
    from ellwitt.sslocus import MAX_OGG_SCAN
    proc = run_cli(["scan", "ogg", "--max", str(MAX_OGG_SCAN + 1)],
                   tmp_path, check=False)
    assert proc.returncode == 1
    assert f"max <= {MAX_OGG_SCAN}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _bound_cases() -> list:
    """(words, flag, value, message) just outside every bound of every
    COMMANDS row; for --prime also 3, 9 and the next prime above it."""
    from ellwitt.arith import is_prime
    cases = []
    for words, row in ellwitt.cli.COMMANDS.items():
        for name, flag in (row.flags or {}).items():
            shown = "p" if name == "prime" else name
            low = f"enforced bound is {shown} >= {flag.lo}"
            high = f"enforced bound is {shown} <= {flag.hi}"
            bad = []
            if flag.lo is not None:
                bad.append((flag.lo - 1, low))
            if flag.hi is not None:
                bad.append((flag.hi + 1, high))
            if name == "prime":
                above = next(n for n in range(flag.hi + 1, 2 * flag.hi + 3)
                             if is_prime(n))
                bad += [(3, low), (9, "--prime must be a prime"),
                        (above, high)]
            cases += [pytest.param(words, name, value, message,
                                   id=f"{'-'.join(words)}-{name}={value}")
                      for value, message in bad]
    return cases


def _in_bounds(flag) -> int:
    if flag.default is not None:
        return flag.default
    return 1 if flag.lo is None else flag.lo


@pytest.mark.parametrize("words, name, value, message", _bound_cases())
def test_every_bound_in_the_table_is_enforced(monkeypatch, capsys, words,
                                              name, value, message):
    import ellwitt.cli as climod
    row = climod.COMMANDS[words]

    def never(*args):
        raise AssertionError(f"{words} built with {name} = {value}")

    monkeypatch.setitem(climod.COMMANDS, words, climod.Command(
        row.help, row.flags, row.section, never, row.show))
    argv = list(words)
    for n, flag in row.flags.items():
        argv += [f"--{n}", str(value if n == name else _in_bounds(flag))]
    assert climod.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"ellwitt: error: {' '.join(words)}: {message}, "
                   f"got {value}\n")


def test_formal_bad_reduction_is_usage_error(capsys):
    from ellwitt.cli import main
    # 4*3^3 + 27*4^2 = 540 = 0 mod 5, and a4 = a6 = 0 is singular over Q
    for a4, a6 in (("-2", "-1"), ("0", "5")):
        assert main(["formal", "--prime", "5", "--a4", a4,
                     "--a6", a6]) == 1
        assert "bad reduction at 5" in capsys.readouterr().err


def test_forms_odd_weight_is_usage_error(capsys):
    from ellwitt.cli import main
    for weight in ("5", "199"):
        assert main(["forms", "--weight", weight]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (f"ellwitt: error: forms: --weight "
                                     f"must be even, got {weight}\n")


def test_internal_value_error_exits_2(monkeypatch, capsys):
    # a ValueError escaping a section builder is a bug, not a usage error
    import ellwitt.cli as climod
    import ellwitt.sslocus as sslocus

    def broken(p):
        raise ValueError("an internal invariant broke")

    monkeypatch.setattr(sslocus, "hasse_polynomial", broken)
    assert climod.main(["hasse", "--prime", "7", "--json"]) == 2
    captured = capsys.readouterr()
    assert "an internal invariant broke" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _truncated_heights(monkeypatch):
    import ellwitt.formalgroup as formalgroup
    real = formalgroup.heights_from_series
    monkeypatch.setattr(formalgroup, "heights_from_series",
                        lambda a, p, series: real(a, p, series[:p - 4]))


def _zero_divisor(monkeypatch):
    import ellwitt.padicwitt as padicwitt
    monkeypatch.setattr(
        padicwitt, "splitting_idempotents",
        lambda p, N: Poly(fq2_context(p), [1]).divrem(
            Poly(fq2_context(p), [])))


@pytest.mark.parametrize("argv, fault, message", [
    ("formal --prime 7 --a4 1 --a6 1", _truncated_heights,
     "coefficient of t^7 beyond precision O(t^4)"),
    ("split --prime 13 --precision 4", _zero_divisor,
     "polynomial division by zero"),
], ids=["precision", "zero-divisor"])
def test_series_and_division_bugs_exit_2(argv, fault, message, monkeypatch,
                                         capsys):
    # a coefficient read past a series' precision (PrecisionError) and a
    # polynomial divided by zero are bugs like any internal ValueError:
    # one line on stderr, no traceback
    import ellwitt.cli as climod
    fault(monkeypatch)
    for tail in ([], ["--json"]):
        assert climod.main(argv.split() + tail) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"ellwitt: internal error: {message}\n"


def test_non_unit_inverse_in_fq2_exits_2(monkeypatch, capsys):
    # inverting zero in F_{p^2} is a bug like any internal ValueError:
    # one line on stderr, no traceback
    import ellwitt.cli as climod
    import ellwitt.sslocus as sslocus
    monkeypatch.setattr(sslocus, "legendre_to_j",
                        lambda lam: lam.ring.zero().inverse())
    sslocus.hasse_roots.cache_clear()  # an earlier test may have cached 13
    for argv in (["hasse", "--prime", "13"],
                 ["hasse", "--prime", "13", "--json"]):
        assert climod.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("ellwitt: internal error: 0 (in F_13^2) is not a "
                       "unit\n")


def test_hasse_root_shortfall_exits_2(monkeypatch, capsys):
    import ellwitt.cli as climod
    import ellwitt.sslocus as sslocus
    real = sslocus.roots_in_field
    monkeypatch.setattr(sslocus, "roots_in_field",
                        lambda f, field: set(list(real(f, field))[1:]))
    sslocus.hasse_roots.cache_clear()  # an earlier test may have cached 23
    assert climod.main(["hasse", "--prime", "23"]) == 2
    err = capsys.readouterr().err
    # the one root j of the S3 quotient, dropped, loses its orbit of six
    # lambda; the orbits of j = 0 and 1728 (2 + 3 lambda) remain
    assert "VALIDATION FAILURE" in err and "only 5 of 11" in err


def test_gross_landweber_mismatch_exits_2(monkeypatch, capsys):
    # v2 off from the prediction by the same power of 12 at every curve
    # is a failure, not a normalization to report
    import ellwitt.cli as climod
    import ellwitt.formalgroup as formalgroup
    real = formalgroup.v_invariants

    def scaled(a, p):
        v1, v2 = real(a, p)
        return v1, None if v2 is None else v2 * 12 % p

    monkeypatch.setattr(formalgroup, "v_invariants", scaled)
    for argv, p in ((["verify", "gross-landweber", "--prime", "13"], 13),
                    (["verify", "all", "--max", "5"], 5)):
        assert climod.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"VALIDATION FAILURE: Gross-Landweber fails "
                              f"at p={p}, j=")
        assert "v2=" in err and "predicted" in err


def test_gross_landweber_ordinary_reading_exits_2(monkeypatch, capsys):
    # an ordinary (v1, v2) at a supersingular j is an invariant failure,
    # exit 2, even where assert statements are stripped (python -O)
    import ellwitt.cli as climod
    import ellwitt.formalgroup as formalgroup
    monkeypatch.setattr(formalgroup, "v_invariants",
                        lambda a, p: (1, None))
    assert climod.main(["verify", "gross-landweber", "--prime", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("VALIDATION FAILURE: Gross-Landweber at p=7, "
                          "j=6: ")
    assert "v1=1, v2=None" in err


def test_verify_all_checks_the_scan_count_against_deuring(monkeypatch):
    import ellwitt.cli as climod
    import ellwitt.sslocus as sslocus
    from ellwitt.errors import ValidationError
    monkeypatch.setattr(sslocus, "rational_ss_count", lambda p: 0)
    with pytest.raises(ValidationError,
                       match="p=5: 1 F_p-rational .* 0 by the Ogg scan"):
        climod.verify_all_section(5)


@pytest.mark.parametrize("argv, counted, spots", [
    (["--max", "5"], "5", "-      "),
    (["--max", "11"], "11", "7/11   "),
    (["--max", "20"], "19", "7/11/13"),
    ([], "31", "7/11/13"),
])
def test_verify_all_text_names_only_the_checks_that_ran(
        monkeypatch, capsys, tmp_path, argv, counted, spots):
    import ellwitt.cli as climod
    monkeypatch.setenv("ELLWITT_CACHE_DIR", str(tmp_path))
    assert climod.main(["verify", "all", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[1:3] == [
        f"three-method j-sets   OK  (point count through p <= {counted})",
        f"spot loci {spots}     OK"]


@pytest.mark.parametrize("p, methods", [
    (13, "closed form = eisenstein = deuring quotient = deuring = "
         "point-count"),
    (37, "closed form = eisenstein = deuring quotient = deuring"),
])
def test_ss_text_names_every_route_that_ran(monkeypatch, capsys, tmp_path,
                                            p, methods):
    import ellwitt.cli as climod
    monkeypatch.setenv("ELLWITT_CACHE_DIR", str(tmp_path))
    for _ in range(2):  # computed, then served from the cache
        assert climod.main(["ss", "--prime", str(p)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"methods agree: {methods}"


def _run_reporting(argv, cache_dir, *modules):
    # main(argv) in a fresh interpreter; stderr ends with whether each
    # module (numpy if none is named) was imported
    code = ("import sys\n"
            "from ellwitt.cli import main\n"
            f"rc = main({argv!r})\n"
            f"for m in {list(modules or ['numpy'])!r}:\n"
            "    sys.stderr.write('%s loaded: %s\\n'"
            " % (m, m in sys.modules))\n"
            "sys.exit(rc)\n")
    proc = fresh_python(code, ELLWITT_CACHE_DIR=str(cache_dir))
    assert proc.returncode == 0, proc.stderr
    return proc


def test_hasse_does_not_import_numpy(tmp_path):
    proc = _run_reporting(["hasse", "--prime", "397", "--json"], tmp_path)
    assert json.loads(proc.stdout)["sections"]["hasse"]["degree"] == 198
    assert "numpy loaded: False" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["ss", "--prime", "31"],
    ["lift", "--prime", "17", "--precision", "3"],
    ["split", "--prime", "5", "--precision", "2"],
    ["verify", "gross-landweber", "--prime", "7"],
])
def test_commands_do_not_import_numpy(argv, tmp_path):
    proc = _run_reporting(argv + ["--json"], tmp_path)
    assert json.loads(proc.stdout)["sections"]
    assert "numpy loaded: False" in proc.stderr


def test_unversioned_cache_entry_is_a_miss(tmp_path, monkeypatch):
    # entries written without an algorithm version, at the old file name
    # and at the current one, are never served: the locus is recomputed
    import ellwitt.cache as cachemod
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    monkeypatch.setenv("ELLWITT_CACHE_DIR", str(cache_dir))
    want = json.loads((GOLDEN / "ss_p13.json").read_text())
    payload = dict(want["sections"]["ss_locus"], j_values=[[7, 0]])
    entry = {"schema_version": "1", "key": {"p": 13},
             "sha256": cachemod._checksum(payload), "payload": payload}
    (cache_dir / "ss_p13.json").write_text(json.dumps(entry))
    assert cachemod.load("ss", {"p": 13}) is None
    current = Path(cachemod._entry_path(
        "ss", cachemod._versioned("ss", {"p": 13})))
    assert current.name != "ss_p13.json"
    current.write_text(json.dumps(entry))
    assert cachemod.load("ss", {"p": 13}) is None
    assert not current.exists()
    out = run_cli(["ss", "--prime", "13", "--json"], cache_dir).stdout
    got = json.loads(out)
    got["timings"] = {}
    assert got == want
    assert cachemod.load("ss", {"p": 13}) == want["sections"]["ss_locus"]


def _ss13_against_golden(proc) -> None:
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    got = json.loads(proc.stdout)
    got["timings"] = {}
    assert canonical_json(got) == (GOLDEN / "ss_p13.json").read_text()


def _ss13_entry(payload) -> str:
    """An ss entry at p = 13 whose key and checksum match, around any
    payload."""
    import ellwitt.cache as cachemod
    from ellwitt.report import SCHEMA_VERSION
    return canonical_json({
        "schema_version": SCHEMA_VERSION,
        "key": cachemod._versioned("ss", {"p": 13}),
        "sha256": cachemod._checksum(payload), "payload": payload})


_SS13 = json.loads((GOLDEN / "ss_p13.json").read_text())["sections"][
    "ss_locus"]
#: Entries that pass the checksum but hold no payload a cold run writes:
#: the wrong keys, or a value of the wrong type at a right key.
_WRONG_PAYLOADS = [
    pytest.param(_ss13_entry([]), id="payload-list"),
    pytest.param(_ss13_entry({"prime": 13}), id="payload-missing-keys"),
    pytest.param(_ss13_entry({**_SS13, "extra": 1}), id="payload-extra-key"),
    pytest.param(_ss13_entry({**_SS13, "j_values": 5}), id="j-values-int"),
    pytest.param(_ss13_entry({**_SS13, "prime": "13"}), id="prime-str"),
    pytest.param(_ss13_entry({**_SS13, "ss_poly": ["1"]}),
                 id="ss-poly-str-coefficient"),
    pytest.param(_ss13_entry({**_SS13, "sigma": True}), id="sigma-bool"),
]


@pytest.mark.parametrize("text", [
    "[]", "null", '"x"',
    pytest.param(b"\xff\xfe{", id="not-utf8"),
    pytest.param("[" * 200_000 + "]" * 200_000, id="too-deep-for-json"),
    # syntax errors, which the C scanner reports through json.decoder,
    # a module that a fresh process has not imported
    pytest.param('{"key": {"p": 13', id="truncated"),
    pytest.param('["\\x"]', id="bad-escape"),
    pytest.param('["a\x01"]', id="raw-control-character"),
    pytest.param('{"key" 13}', id="missing-colon"),
    pytest.param("{} {}", id="trailing-data"),
    *_WRONG_PAYLOADS,
])
def test_cache_entry_of_another_json_shape_is_discarded(tmp_path, text):
    run_cli(["ss", "--prime", "13"], tmp_path)
    [entry] = tmp_path.glob("ss_*.json")
    if isinstance(text, bytes):
        entry.write_bytes(text)
    else:
        entry.write_text(text)
    proc = run_cli(["ss", "--prime", "13", "--json"], tmp_path, check=False)
    _ss13_against_golden(proc)
    assert proc.stderr == \
        f"warning: discarding corrupt cache entry {entry}\n"
    payload = json.loads(entry.read_text())["payload"]  # rewritten
    assert payload == json.loads((GOLDEN / "ss_p13.json").read_text()
                                 )["sections"]["ss_locus"]


@pytest.mark.parametrize("text", _WRONG_PAYLOADS)
def test_cache_payload_of_another_shape_is_discarded_in_text_mode(
        tmp_path, text):
    cold = run_cli(["ss", "--prime", "13"], tmp_path)
    [entry] = tmp_path.glob("ss_*.json")
    entry.write_text(text)
    proc = run_cli(["ss", "--prime", "13"], tmp_path, check=False)
    assert proc.returncode == 0
    assert proc.stdout == cold.stdout
    assert proc.stderr == \
        f"warning: discarding corrupt cache entry {entry}\n"
    assert json.loads(entry.read_text())["payload"] == _SS13


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_lift_cache_coefficient_of_the_wrong_type_is_discarded(
        tmp_path, json_flag):
    # a checksummed lift entry whose first digit string is an int
    import ellwitt.cache as cachemod
    argv = ["lift", "--prime", "13", "--precision", "3"] + json_flag
    cold = run_cli(argv, tmp_path)
    [entry] = tmp_path.glob("lift_*.json")
    data = json.loads(entry.read_text())
    good = data["payload"]
    bad = {**good, "coeffs": [{**good["coeffs"][0], "a": 5},
                              *good["coeffs"][1:]]}
    entry.write_text(canonical_json(
        {**data, "sha256": cachemod._checksum(bad), "payload": bad}))
    proc = run_cli(argv, tmp_path, check=False)
    assert proc.returncode == 0
    if json_flag:
        got, want = json.loads(proc.stdout), json.loads(cold.stdout)
        got["timings"] = want["timings"] = {}
        assert got == want
    else:
        assert proc.stdout == cold.stdout
    assert proc.stderr == \
        f"warning: discarding corrupt cache entry {entry}\n"
    assert json.loads(entry.read_text())["payload"] == good


def test_cold_payloads_hold_exactly_their_kinds_keys(tmp_path, monkeypatch):
    # keys, and the type of every value down to the list elements
    import ellwitt.cache as cachemod
    import ellwitt.cli as climod
    monkeypatch.setenv("ELLWITT_CACHE_DIR", str(tmp_path))
    shapes = cachemod.PAYLOAD_SHAPES
    assert cachemod._fits(climod.ss_section(13), shapes["ss"])
    assert cachemod._fits(climod.ss_section(37), shapes["ss"])
    assert cachemod._fits(climod.lift_section(13, 2), shapes["lift"])
    assert shapes.keys() == cachemod.ALGORITHM_VERSIONS.keys()
    # bool is not an int, nor an int a bool
    assert not cachemod._fits(True, int) and not cachemod._fits(1, bool)


@pytest.mark.parametrize("argv", [
    ["hasse", "--prime", "997"],
    ["hasse", "--prime", "997", "--json"],
    ["forms", "--weight", "4", "--prec", "3"],
    ["--help"],
    ["ss", "--help"],
    ["verify", "-h"],
])
def test_report_into_a_closed_pipe_exits_2_quietly(tmp_path, argv):
    # `ellwitt hasse --prime 997 | head -c 10`, with the reader gone
    # before the first write; help is written as a report is
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli(argv, tmp_path, check=False, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["forms", "--weight", "4", "--prec", "3"],
    ["forms", "--weight", "4", "--prec", "3", "--json"],
    ["ss", "--prime", "13", "--json"],
    ["--help"],
    ["ss", "--help"],
    ["verify", "-h"],
])
def test_report_onto_a_full_device_exits_2_with_one_line(tmp_path, argv):
    with open("/dev/full", "w") as full:
        proc = run_cli(argv, tmp_path, check=False, stdout=full)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("ellwitt: cannot write the report: ")


def test_cache_dir_that_is_a_file_costs_one_warning(tmp_path):
    cache_file = tmp_path / "not_a_dir"
    cache_file.write_text("keep me")
    proc = run_cli(["ss", "--prime", "13", "--json"], cache_file,
                   check=False)
    _ss13_against_golden(proc)
    [line] = proc.stderr.splitlines()
    assert line.startswith("warning: ")
    assert cache_file.read_text() == "keep me"


def test_cache_entry_that_is_a_directory_costs_one_warning(tmp_path):
    run_cli(["ss", "--prime", "13"], tmp_path)
    [entry] = tmp_path.glob("ss_*.json")
    entry.unlink()
    entry.mkdir()
    proc = run_cli(["ss", "--prime", "13", "--json"], tmp_path, check=False)
    _ss13_against_golden(proc)
    [line] = proc.stderr.splitlines()
    assert line.startswith("warning: ")
    assert entry.is_dir() and not list(tmp_path.glob("*.tmp"))
    # the text form prints its result too
    proc = run_cli(["ss", "--prime", "13"], tmp_path, check=False)
    assert proc.returncode == 0 and "sigma = 1" in proc.stdout
    assert len(proc.stderr.splitlines()) == 1


# --- start-up: what one request imports ---

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def test_import_loads_only_what_a_request_needs():
    # -S keeps site's own imports out of the comparison
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import ellwitt.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = fresh_python(code, site=False)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    heavy = {"dataclasses", "inspect", "ast", "dis", "hashlib", "typing",
             "numpy", "argparse", "gettext", "pathlib", "tempfile",
             "shutil"}
    assert not added & heavy
    # every annotation evaluates at run time on Python >= 3.10
    assert "__future__" not in added
    # the bench tracer resolves every span owner right after this import
    traced = set(re.findall(r'"(ellwitt\.\w+)"', TRACER.read_text()))
    assert traced and traced <= added


def test_uncached_command_does_not_import_hashlib(tmp_path):
    proc = _run_reporting(["forms", "--weight", "4", "--prec", "20",
                           "--json"], tmp_path, "hashlib")
    assert json.loads(proc.stdout)["sections"]["forms"]["prec"] == 20
    assert "hashlib loaded: False" in proc.stderr


#: The interpreter's own SHA-256 module, which the cache checksums with.
BUILTIN_SHA = "_sha2" if sys.version_info >= (3, 12) else "_sha256"


def test_ss_cold_then_warm_checks_the_cache_checksum(tmp_path):
    want = (GOLDEN / "ss_p5.json").read_text()
    for _ in ("cold", "warm"):
        proc = _run_reporting(["ss", "--prime", "5", "--json"], tmp_path,
                              BUILTIN_SHA, "_hashlib")
        got = json.loads(proc.stdout)
        got["timings"] = {}
        assert canonical_json(got) == want
        assert f"{BUILTIN_SHA} loaded: True" in proc.stderr
        assert "_hashlib loaded: False" in proc.stderr
        assert "discarding" not in proc.stderr
    assert len(list(tmp_path.glob("ss_*.json"))) == 1


@pytest.mark.parametrize("argv", [
    ["ss", "--prime", "31"],
    ["lift", "--prime", "17", "--precision", "3"],
    ["split", "--prime", "5", "--precision", "2"],
])
def test_cached_commands_do_not_load_openssl(argv, tmp_path):
    for _ in ("cold", "warm"):
        proc = _run_reporting(argv + ["--json"], tmp_path, "_hashlib")
        assert json.loads(proc.stdout)["sections"]
        assert "_hashlib loaded: False" in proc.stderr
        assert "discarding" not in proc.stderr


def _hashlib_sha256(payload) -> str:
    # the digest as hashlib (OpenSSL) takes it, which older entries carry
    import hashlib
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def test_checksum_equals_hashlib_sha256(tmp_path):
    import ellwitt.cache as cachemod
    payloads = [json.loads((GOLDEN / f"ss_p{p}.json").read_text())
                ["sections"]["ss_locus"] for p in (5, 11, 13)]
    run_cli(["lift", "--prime", "11", "--precision", "4"], tmp_path)
    [entry] = tmp_path.glob("lift_*.json")
    payloads.append(json.loads(entry.read_text())["payload"])
    for payload in payloads:
        assert cachemod._checksum(payload) == _hashlib_sha256(payload)


def test_checksum_does_not_fall_back_to_hashlib(monkeypatch):
    # with hashlib unimportable, a fallback raises instead of passing
    import ellwitt.cache as cachemod
    payload = {"p": 5, "j_values": [[0, 0]]}
    want = _hashlib_sha256(payload)
    monkeypatch.setitem(sys.modules, "hashlib", None)
    assert cachemod._checksum(payload) == want
    assert BUILTIN_SHA in sys.modules


def test_entry_checksummed_by_hashlib_is_served_warm(tmp_path):
    # an entry as older code wrote it is a hit: no discard, no rewrite
    import ellwitt.cache as cachemod
    from ellwitt.report import SCHEMA_VERSION
    want = (GOLDEN / "ss_p11.json").read_text()
    payload = json.loads(want)["sections"]["ss_locus"]
    key = cachemod._versioned("ss", {"p": 11})
    entry = {"schema_version": SCHEMA_VERSION, "key": key,
             "sha256": _hashlib_sha256(payload), "payload": payload}
    path = tmp_path / Path(cachemod._entry_path("ss", key)).name
    path.write_text(canonical_json(entry))
    inode = path.stat().st_ino
    proc = run_cli(["ss", "--prime", "11", "--json"], tmp_path)
    got = json.loads(proc.stdout)
    got["timings"] = {}
    assert canonical_json(got) == want
    assert "discarding" not in proc.stderr
    assert path.stat().st_ino == inode


def test_entry_keeps_its_name_bytes_and_mode_and_is_read_untouched(
        tmp_path):
    # the entry format of earlier releases: the same file name, canonical
    # bytes and mode 0600; a warm run reads it and writes nothing
    import ellwitt.cache as cachemod
    from ellwitt.report import SCHEMA_VERSION
    algo = cachemod.ALGORITHM_VERSIONS["ss"]
    payload = json.loads((GOLDEN / "ss_p13.json").read_text()
                         )["sections"]["ss_locus"]
    entry = {"schema_version": SCHEMA_VERSION,
             "key": {"algo": algo, "p": 13},
             "sha256": _hashlib_sha256(payload), "payload": payload}
    run_cli(["ss", "--prime", "13"], tmp_path)
    path = tmp_path / f"ss_algo{algo}_p13.json"
    assert os.listdir(tmp_path) == [path.name]
    assert path.read_text() == canonical_json(entry)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    os.utime(path, ns=(10 ** 18, 10 ** 18))
    before = path.stat()
    proc = run_cli(["ss", "--prime", "13", "--json"], tmp_path)
    _ss13_against_golden(proc)
    assert proc.stderr == ""
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == \
        (before.st_ino, before.st_mtime_ns)
    assert os.listdir(tmp_path) == [path.name]


# --- property: no argument vector gives a traceback ---

_COMMANDS = {
    ("ss",): ("--prime",),
    ("hasse",): ("--prime",),
    ("lift",): ("--prime", "--precision"),
    ("split",): ("--prime", "--precision"),
    ("formal",): ("--prime", "--a4", "--a6"),
    ("verify", "deligne"): ("--prime",),
    ("verify", "gross-landweber"): ("--prime",),
    ("verify", "all"): ("--max",),
    ("scan", "ogg"): ("--max",),
    ("scan", "sqrt3"): ("--max",),
    ("forms",): ("--weight", "--prec"),
    ("verify",): (),
    ("scan",): (),
    (): (),
}
_FLAGS = sorted({f for fs in _COMMANDS.values() for f in fs}
                | {"--json", "--help", "--bogus"})


def _near_bounds() -> list:
    from ellwitt.arith import is_prime
    from ellwitt.cli import MAX_FORMS_PREC, MAX_SQRT3_SCAN
    from ellwitt.formalgroup import MAX_FORMAL_PRIME
    from ellwitt.modforms import MAX_EISENSTEIN_PRIME, MAX_EISENSTEIN_WEIGHT
    from ellwitt.padicwitt import (
        MAX_LIFT_PRECISION, MAX_SPLIT_PRECISION, MAX_SPLIT_PRIME)
    from ellwitt.sslocus import (
        MAX_DEURING_PRIME, MAX_OGG_SCAN, MAX_POINT_COUNT_PRIME)
    bounds = (0, 1, 3, 4, 5, MAX_FORMAL_PRIME, MAX_POINT_COUNT_PRIME,
              MAX_SPLIT_PRIME, MAX_SPLIT_PRECISION, MAX_LIFT_PRECISION,
              MAX_EISENSTEIN_PRIME, MAX_EISENSTEIN_WEIGHT, MAX_DEURING_PRIME,
              MAX_OGG_SCAN, MAX_FORMS_PREC, MAX_SQRT3_SCAN)
    out = set()
    for b in bounds:
        above = next(n for n in range(b + 1, 2 * b + 3) if is_prime(n))
        out |= {b - 1, b, b + 1, above, -b}
    return sorted(out)


#: Tokens that the flag syntax reads in more than one way: help, its
#: prefixes and repeats, values glued to flags, the end-of-options
#: marker, prefixes that are unique in one command and ambiguous in
#: another, and strays.
_STRAYS = ["-h", "--h", "--he", "-hh", "-h=h", "-hx", "-h=", "--help=",
           "--json=1", "--js", "--", "--=5", "---", "-x", "-", "x", "7",
           "-7", "--p", "--pr", "--pre", "--m", "--a", "--w", "- 7",
           "--prime 7", "ss", "all"]

_VALUES = st.one_of(
    st.sampled_from(_near_bounds()).map(str),
    st.integers(-20, 120).map(str),
    st.sampled_from(["", "1.5", "1e3", "0x1f", "five", "-", "--prime",
                     " 7", "7 ", "٧", "9" * 40, "-1.5", "-.5", "-1e3",
                     "-7\n", "+5", "1_000", "-٧", "--", "-h"]),
    st.text(max_size=4),
)


def _values_in_bounds(command, flag):
    """Values of the flag inside its own Flag(lo, hi) in cli.COMMANDS,
    primes for --prime: the 201 values from lo up, where requests are
    quick, seven values spread across the whole range, and the greatest
    value.  A spread --prime is the least prime from its point up.  A
    missing bound is taken as -99 or 99."""
    from ellwitt.arith import is_prime
    from ellwitt.cli import COMMANDS
    bound = COMMANDS[command].flags[flag[2:]]
    lo = -99 if bound.lo is None else bound.lo
    hi = 99 if bound.hi is None else bound.hi
    spread = [lo + (hi - lo) * k // 8 for k in range(1, 8)]
    if flag == "--prime":
        spread = [next(n for n in range(s, hi + 1) if is_prime(n))
                  for s in spread]
    values = [*range(lo, min(hi, lo + 200) + 1), *spread, hi]
    if flag == "--prime":
        values = [n for n in values if is_prime(n)]
    return st.sampled_from(values).map(str)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = list(command)
    # half the argvs take every flag value within the flag's bounds, no
    # stray flag or token and only the edits that keep their meaning,
    # so that the library sees accepted requests
    in_bounds = draw(st.booleans())
    for flag in _COMMANDS[command]:
        if draw(st.integers(0, 9)):
            argv += [flag, draw(_values_in_bounds(command, flag)
                                if in_bounds else _VALUES)]
    for _ in range(0 if in_bounds else draw(st.integers(0, 2))):
        argv += draw(st.sampled_from([[f] for f in _FLAGS]
                                     + [[f, "7"] for f in _FLAGS]))
    if draw(st.booleans()):
        argv.append("--json")
    # the corners of the flag syntax: a flag cut to a prefix, glued to
    # its value with "=" or given twice, and stray tokens anywhere
    edits = ["prefix", "glue"]
    if not in_bounds:
        edits += ["repeat", "stray"]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(edits))
        flag = i < len(argv) and argv[i].startswith("--")
        if edit == "prefix" and flag:
            argv[i] = argv[i][:draw(st.integers(2, len(argv[i])))]
        elif edit == "glue" and flag and i + 1 < len(argv):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif edit == "repeat" and flag:
            argv += [argv[i], draw(_VALUES)]
        elif edit == "stray":
            argv.insert(i, draw(st.one_of(st.sampled_from(_STRAYS),
                                          _VALUES)))
    return argv


def _too_slow(argv) -> bool:
    # valid requests whose work the other tests cover: verify all,
    # verify deligne and gross-landweber above p = 7, and the scans and
    # lifts near their upper bounds
    from ellwitt.cli import UsageError, parse_args
    try:
        with redirect_stdout(io.StringIO()):
            args = parse_args(argv)
    except UsageError:
        return False
    if isinstance(args, str):   # the help text
        return False
    if args.command == "verify":
        return args.verify_what == "all" or args.prime > 7
    if args.command == "scan":
        return args.max > (200 if args.scan_what == "ogg" else 10 ** 5)
    if args.command == "hasse":
        return args.prime > 400
    if args.command in ("lift", "split"):
        return args.prime > 200 or args.precision > 16
    return False


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example(["forms", "--weight", "5"])  # an odd weight the library rejects
def test_any_argument_vector_exits_cleanly(tmp_path_factory, argv):
    assume(not _too_slow(argv))
    from ellwitt.cli import main
    cache_dir = tmp_path_factory.getbasetemp() / "property-cache"
    old = os.environ.get("ELLWITT_CACHE_DIR")
    os.environ["ELLWITT_CACHE_DIR"] = str(cache_dir)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if old is None:
            del os.environ["ELLWITT_CACHE_DIR"]
        else:
            os.environ["ELLWITT_CACHE_DIR"] = old
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code, text)
    assert "Traceback" not in text
    # exit 2 is a failed invariant, never a usage error the library met
    assert "ellwitt: internal error" not in text, (argv, text)
    assert code != 2 or "VALIDATION FAILURE" in text, (argv, text)


# --- the command table against the argparse tree it replaced ---

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="ellwitt", description=ellwitt.cli.__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true",
                        help="emit the JSON report instead of a table")
        return sp

    sp = add("ss", f"supersingular locus (cross-validated; "
                   f"p <= {MAX_EISENSTEIN_PRIME})")
    sp.add_argument("--prime", type=int, required=True)

    sp = add("hasse", f"Deuring lambda-polynomial and its roots "
                      f"(p <= {MAX_DEURING_PRIME})")
    sp.add_argument("--prime", type=int, required=True)

    sp = add("lift", f"Teichmuller-lifted supersingular polynomial "
                     f"(p <= {MAX_EISENSTEIN_PRIME}, "
                     f"N <= {MAX_LIFT_PRECISION})")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION)

    sp = add("split", f"idempotent splitting mod (p^N, S_p-hat) "
                      f"(p <= {MAX_SPLIT_PRIME}, "
                      f"N <= {MAX_SPLIT_PRECISION})")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--precision", type=int, default=DEFAULT_PRECISION)

    sp = add("formal", f"[p]-series and v1/v2 of one curve "
                       f"(p <= {MAX_FORMAL_PRIME})")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--a4", type=int, required=True)
    sp.add_argument("--a6", type=int, required=True)

    ver = sub.add_parser("verify", help="verification suites")
    vsub = ver.add_subparsers(dest="verify_what", required=True)
    for name in ("deligne", "gross-landweber"):
        sp = vsub.add_parser(name)
        sp.add_argument("--prime", type=int, required=True,
                        help="one of 5, 7, 11, 13")
        sp.add_argument("--json", action="store_true")
    sp = vsub.add_parser("all")
    sp.add_argument("--max", type=int, default=MAX_EISENSTEIN_PRIME)
    sp.add_argument("--json", action="store_true")

    scan = sub.add_parser("scan", help="per-prime scans")
    ssub = scan.add_subparsers(dest="scan_what", required=True)
    sp = ssub.add_parser("ogg")
    sp.add_argument("--max", type=int, required=True,
                    help=f"upper bound (<= {MAX_OGG_SCAN})")
    sp.add_argument("--json", action="store_true")
    sp = ssub.add_parser("sqrt3")
    sp.add_argument("--max", type=int, required=True,
                    help=f"upper bound (<= {MAX_SQRT3_SCAN})")
    sp.add_argument("--json", action="store_true")

    sp = add("forms", "exact Eisenstein q-expansion")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--prec", type=int, default=10,
                    help=f"q-precision (1 <= prec <= {MAX_FORMS_PREC})")
    return top


_INT_FLAGS = ("prime", "precision", "a4", "a6", "max", "weight", "prec")


def _oracle(argv):
    """'help', 'error' or the parsed attributes, as argparse read argv.

    argparse drops "--" from the value of --prime=--, stores [] and let
    _dispatch raise TypeError; parse_args refuses that value where it
    stands, as argparse refuses any other non-integer, so the oracle
    reads it as one."""
    argv = [t[:-2] + "x" if t.partition("=")[2] == "--" else t
            for t in argv]
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return "help" if exc.code == 0 else "error"
    assert all(isinstance(getattr(args, f, 0), int) for f in _INT_FLAGS)
    return vars(args)


def _parsed(argv):
    """'help', 'error' or the parsed attributes, as parse_args reads argv."""
    from ellwitt.cli import UsageError, parse_args
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            args = parse_args(argv)
    except UsageError as exc:
        assert out.getvalue() == ""
        assert exc.usage.startswith("usage: ellwitt")
        return "error"
    assert out.getvalue() == ""
    if isinstance(args, str):
        assert args.startswith("usage: ellwitt")
        return "help"
    return vars(args)


@settings(max_examples=600, deadline=None)
@given(_argvs())
def test_parse_args_agrees_with_argparse(argv):
    from ellwitt.cli import main
    # the table reads -hx, -h=h and "-h 5" as argparse did up to Python
    # 3.12; 3.13's argparse reads them otherwise
    assume(sys.version_info < (3, 13)
           or not any(t[:2] == "-h" and len(t) > 2 for t in argv))
    want = _oracle(argv)
    assert _parsed(argv) == want, argv
    if want not in ("help", "error"):
        return
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if want == "help":
        assert (code, err.getvalue()) == (0, ""), argv
        assert out.getvalue().startswith("usage: ellwitt")
    else:
        usage, _, error = err.getvalue().partition("\n")
        assert code == 1 and out.getvalue() == "", argv
        assert usage.startswith("usage: ellwitt")
        assert error.startswith("ellwitt: error: ") and error.endswith("\n")


@pytest.mark.parametrize("argv, want", [
    (["lift", "--prime", "5", "--prec", "3"],
     {"command": "lift", "prime": 5, "precision": 3, "json": False}),
    (["lift", "--pr", "5"], "error"),
    (["ss", "--prime=5"], {"command": "ss", "prime": 5, "json": False}),
    (["scan", "ogg", "--max", "-7"],
     {"command": "scan", "scan_what": "ogg", "max": -7, "json": False}),
    (["forms", "--weight", "4", "--prec", "2", "--prec", "3", "--json"],
     {"command": "forms", "weight": 4, "prec": 3, "json": True}),
    (["verify", "all", "--json"],
     {"command": "verify", "verify_what": "all", "max": 97, "json": True}),
    (["lift", "-h", "--prime", "x"], "help"),
    (["lift", "--prime", "x", "-h"], "error"),
    (["--json", "ss", "--prime", "5"], "error"),
])
def test_parse_args_fixed_cases(argv, want):
    assert _parsed(argv) == want
    assert _oracle(argv) == want


@pytest.mark.parametrize("argv, want", [
    (["ss", "-hh"], "help"),
    (["ss", "-h=h"], "help"),
    (["ss", "-hx"], "error"),
    (["ss", "-h="], "error"),
    (["ss", "-h 5"], "error"),
    (["-hx"], "error"),
])
def test_help_clusters_read_as_up_to_python_3_12(argv, want):
    # -hh is -h twice and -hx is -h with a stray value; 3.13's argparse
    # reads these otherwise, the table keeps one reading
    assert _parsed(argv) == want
    if sys.version_info < (3, 13):
        assert _oracle(argv) == want


def test_value_that_is_the_end_marker_is_a_usage_error(capsys):
    # argparse stored --prime=-- as [] and main died in _dispatch
    from ellwitt.cli import main
    assert vars(build_parser().parse_args(["ss", "--prime=--"]))["prime"] \
        == []
    assert main(["ss", "--prime=--"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "usage: ellwitt ss [-h] [--json] --prime PRIME\n"
        "ellwitt: error: argument --prime: invalid int value: '--'\n")


def test_every_command_has_help(capsys):
    from ellwitt.cli import COMMANDS, main
    assert main(["--help"]) == 0
    top, err = capsys.readouterr()
    assert err == ""
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    for choice in sub._choices_actions:   # the old top-level help lines
        assert f"  {choice.dest} " in top and choice.help in top
    for words, row in COMMANDS.items():
        text = row.help.format_map(row.flags or {})
        assert f"  {' '.join(words):<24}{text}\n" in top
        assert main([*words, "--help"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(f"usage: ellwitt {' '.join(words)} [-h] ")
        for name, flag in (row.flags or {}).items():
            [line] = [ln for ln in out.splitlines()
                      if ln.startswith(f"  --{name} {name.upper()} ")]
            # the bounds the table enforces, shown next to the flag
            if flag.lo is not None:
                assert f"{flag.lo} <= {name.upper()}" in line
            if flag.hi is not None:
                assert f"{name.upper()} <= {flag.hi}" in line


def test_help_exits_0_from_a_fresh_process(tmp_path):
    proc = run_cli(["--help"], tmp_path)
    assert proc.stdout.startswith("usage: ellwitt [-h] {ss,")
    assert proc.stderr == ""


def test_readme_cli_lines_parse():
    import shlex
    from ellwitt.cli import parse_args
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = [line.split("#")[0] for line in block.splitlines()
             if line.startswith("    ellwitt ")]
    assert len(lines) >= 11
    for line in lines:
        with redirect_stdout(io.StringIO()) as out:
            args = parse_args(shlex.split(line)[1:])
        assert not isinstance(args, str) and out.getvalue() == "", line


def _readme_bounds() -> tuple:
    """{(command words, flag): (least, greatest)} from the rows of the
    README's "Enforced bounds" tables that name a CLI flag, and
    {route name: greatest p, None for every p} from those that name a
    row of sslocus.ROUTES."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## Enforced bounds\n", 1)[1].split("\n## ")[0]
    flags, routes = {}, {}
    for line in block.splitlines():
        cells = line.split("|")
        if len(cells) <= 2:
            continue
        route = re.match(r"\s*route `([a-z -]+)`", cells[1])
        if route is not None:
            hi = re.search(r"p <= (\d+)", cells[2])
            routes[route[1]] = hi and int(hi[1])
        command = re.match(r"\s*`([a-z][a-z0-9 -]*?) --", cells[1])
        if command is None:
            continue
        lo = (re.search(r"(-?\d+) <= [a-zA-Z]", cells[2])
              or re.search(r"[a-zA-Z] >= (-?\d+)", cells[2]))
        hi = re.search(r"[a-zA-Z] <= (-?\d+)", cells[2])
        for flag in re.findall(r"--([a-z0-9]+)", cells[1]):
            flags[tuple(command[1].split()), flag] = tuple(
                m and int(m[1]) for m in (lo, hi))
    return flags, routes


def test_formal_coefficients_stop_at_pythons_int_digit_limit(tmp_path):
    # the README's formal --a4/--a6 row: 4,300 digits parse, 4,301 are a
    # usage error from int() with one usage line and no traceback
    ok = run_cli(["formal", "--prime", "5", "--a4", "1" + "0" * 4299,
                  "--a6", "1"], tmp_path)
    assert ok.stderr == ""
    proc = run_cli(["formal", "--prime", "5", "--a4", "1" + "0" * 4300,
                    "--a6", "1"], tmp_path, check=False)
    assert proc.returncode == 1 and proc.stdout == ""
    usage, error = proc.stderr.splitlines()
    assert usage == "usage: ellwitt formal [-h] [--json] --prime PRIME " \
        "--a4 A4 --a6 A6"
    assert error.startswith(
        "ellwitt: error: argument --a4: invalid int value: '1000")
    assert "4,300 digits" in [
        line for line in (Path(__file__).parent.parent / "README.md")
        .read_text().splitlines() if line.startswith("| `formal --a4`")][0]


def test_readme_bounds_match_the_table():
    from ellwitt.cli import COMMANDS
    from ellwitt.sslocus import ROUTES
    documented, routes = _readme_bounds()
    assert routes == {r.name: r.max_p for r in ROUTES}
    for (words, name), bounds in documented.items():
        flag = COMMANDS[words].flags[name]
        assert (flag.lo, flag.hi) == bounds, (words, name)
    bounded = {(words, name) for words, row in COMMANDS.items()
               for name, flag in (row.flags or {}).items()
               if (flag.lo, flag.hi) != (None, None)}
    assert bounded <= documented.keys()
