"""The command-sweep ledger: every function compiled from src/ellwitt is
entered by some command, or the allowlist says why not.

The sweep runs in one fresh interpreter under -S with an empty cache
dir.  Under sys.setprofile it imports ellwitt.cli and runs every leaf
command of cli.COMMANDS as text and then as --json, so `ss` and `lift`
each run cold and then from the cache; then --help at the top, on a
group and on a leaf, one usage error and one out-of-bound value.  The
universe is every def compiled from src/ellwitt/*.py: functions,
methods, properties and nested defs, but not lambdas, comprehensions or
class bodies, keyed as "<module>.<qualname>".

A function that no command enters must be on ALLOWED, with a reason of
one of four kinds:

- "ROADMAP 1c": bench/tracer.py spans it by name, or only the test
  oracles use it, until ROADMAP item 1c moves it to tests/oracles.py;
- "error path: <test id>": only a failing check reaches it, through
  its message or the report of a failed assertion, and the named test
  shows what it prints;
- "acceptance: <criterion>": an acceptance test reads it;
- "test API: <test id>": the equality of two F_p objects, and the
  `_replace` and repr of the result records, as the named test uses
  them.

An entry that names no function, or a function the sweep enters, is
stale and fails the ledger as well."""

import inspect
import json
import os
import re
import sys
import types
from importlib import util
from pathlib import Path

from ellwitt import cli
from conftest import fresh_python

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(cli.__file__).resolve().parent

#: The flags each leaf command runs with: small, so the sweep stays fast.
SWEEP = {
    ("ss",): "--prime 37",
    ("hasse",): "--prime 47",
    ("lift",): "--prime 37 --precision 5",
    ("split",): "--prime 13 --precision 4",
    ("formal",): "--prime 7 --a4 1 --a6 1",
    ("verify", "deligne"): "--prime 5",
    ("verify", "gross-landweber"): "--prime 7",
    ("verify", "all"): "--max 5",
    ("scan", "ogg"): "--max 100",
    ("scan", "sqrt3"): "--max 100",
    ("forms",): "--weight 12 --prec 5",
}

#: Command lines after the leaves, with the exit code each must give.
TAIL = (("--help", 0), ("verify --help", 0), ("ss --help", 0),
        ("ss", 1), ("ss --prime 101", 1))

_REPRS = "error path: tests/test_rings.py::test_reprs_follow_the_precision"

#: Functions no command enters, with the reason each stays.
ALLOWED = {
    "arith.power": "ROADMAP 1c",
    "formalgroup.formal_expansion": "ROADMAP 1c",
    "polyseries.Poly.gcd": "ROADMAP 1c",
    "polyseries._inv_list": "ROADMAP 1c",
    "polyseries._compose_bk": "ROADMAP 1c",
    **{f"polyseries.QSeries.{name}": "ROADMAP 1c" for name in (
        "__init__", "abs_prec", "is_zero", "coeff", "coeff_list", "_same",
        "__add__", "__add__.<locals>.at", "__sub__", "__neg__", "__mul__",
        "scale", "shift", "truncate", "__pow__", "inverse", "derivative",
        "compose", "revert", "__eq__", "__repr__")},
    "sslocus._diff_msg":
        "error path: tests/test_sslocus.py::test_every_route_mutant_is_named",
    "formalgroup._curve_str": "error path: tests/test_pseries_integral.py"
                              "::test_a_series_that_does_not_factor_names"
                              "_the_curve",
    "arith.Zmod.__repr__": _REPRS,
    "arith.ZmodElem.__repr__": _REPRS,
    "arith.Quad.__repr__": _REPRS,
    "arith.QuadElem.__repr__": _REPRS,
    "polyseries.Poly.__repr__": _REPRS,
    "arith.QuadElem.to_fp": "acceptance: criterion 6, the Witt layer",
    **{f"arith.{name}": "acceptance: criterion 6, the Witt layer"
       for name in ("Zmod.__init__", "Zmod.elem", "ZmodElem.__init__")},
    "arith.ZmodElem.__mul__": "ROADMAP 1c",
    "arith.ZmodElem._same": "ROADMAP 1c",
    "arith.QuadElem.reduce_precision":
        "acceptance: criterion 6, the Witt layer",
    "arith.Zmod.__eq__": "test API: tests/test_rings.py"
                         "::test_precision_one_is_the_field",
    "arith.record.<locals>._replace":
        "test API: tests/test_records.py"
        "::test_every_record_behaves_like_its_namedtuple",
    "arith.record.<locals>.__repr__":
        "test API: tests/test_records.py"
        "::test_every_record_behaves_like_its_namedtuple",
}

REASON = re.compile(r"ROADMAP 1c|acceptance: \S.*"
                    r"|(?:error path|test API): (?P<test>\S+)")


def universe(source: str, filename: str) -> set:
    """The qualified name of every def compiled from source: functions,
    methods, properties and nested defs, but not lambdas, comprehensions
    or class bodies (which have no fresh locals)."""
    out = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                if (const.co_flags & inspect.CO_NEWLOCALS
                        and not const.co_name.startswith("<")):
                    out.add(const.co_qualname)
    return out


def entered(run, root: str) -> set:
    """"<module>.<qualname>" of every function in a file under the
    directory root that run() enters, from the call events of
    sys.setprofile.  The one recorder of the sweep and its self-test."""
    # the sweep runs this function's source alone, before ellwitt loads
    import sys
    from pathlib import Path
    codes = {}

    def hook(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {f"{Path(c.co_filename).stem}.{c.co_qualname}"
            for c in codes.values() if c.co_filename.startswith(root)}


def ledger(names: set, seen: set, allowed: dict) -> tuple:
    """(the names never seen and not allowed, the stale allowed names:
    those that name no function or a function that was seen)."""
    missing = sorted(names - seen - allowed.keys())
    stale = sorted(k for k in allowed if k not in names or k in seen)
    return missing, stale


def _src_universe() -> set:
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1, SRC
    return {f"{path.stem}.{name}" for path in paths
            for name in universe(path.read_text(), str(path))}


_DRIVER = """
import contextlib, io, json, os
LINES = {lines!r}
codes = []

def run():
    from ellwitt import cli
    for line in LINES:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(line.split()))

seen = entered(run, {root!r})
print(json.dumps({{"codes": codes, "entered": sorted(seen),
                  "cache": sorted(os.listdir({cache!r}))}}))
"""


def _sweep(cache: Path) -> dict:
    """Run the sweep in a fresh interpreter under -S."""
    lines = [f"{' '.join(w)} {flags}{json}" for w, flags in SWEEP.items()
             for json in ("", " --json")] + [line for line, _ in TAIL]
    code = inspect.getsource(entered) + _DRIVER.format(
        lines=lines, root=str(SRC) + os.sep, cache=str(cache))
    proc = fresh_python(code, site=False, ELLWITT_CACHE_DIR=str(cache))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_sweep_runs_every_leaf_command():
    leaves = {w for w, row in cli.COMMANDS.items() if row.flags is not None}
    assert set(SWEEP) == leaves


def test_every_src_function_is_entered_or_allowed(tmp_path):
    out = _sweep(tmp_path)
    assert out["codes"] == [0] * 2 * len(SWEEP) + [c for _, c in TAIL]
    assert [name.split("_")[0] for name in out["cache"]] == ["lift", "ss"]
    missing, stale = ledger(_src_universe(), set(out["entered"]), ALLOWED)
    assert not missing, "never entered by a command:\n" + "\n".join(missing)
    assert not stale, "stale allowlist entries:\n" + "\n".join(stale)


def test_every_allowance_has_one_reason_of_the_four_kinds():
    for name, reason in ALLOWED.items():
        m = REASON.fullmatch(reason)
        assert m, (name, reason)
        if m["test"]:
            path, _, test = m["test"].partition("::")
            assert f"\ndef {test}(" in (ROOT / path).read_text(), \
                (name, reason)


SAMPLE = '''
def called():
    return [x for x in range(2)], (lambda: 0)


def uncalled():
    return {k: 1 for k in "ab"}


class Box:
    def method(self):
        def inner():
            return 1
        return inner

    @property
    def size(self):
        return 3

    def used(self):
        return 4


def outer():
    def nested():
        return 5
    return 6
'''


def test_the_ledger_finds_what_no_call_enters(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    spec = util.spec_from_file_location("sample", path)
    mod = util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(mod)
        mod.called()
        mod.Box().used()
        mod.outer()

    names = {f"sample.{n}" for n in universe(SAMPLE, str(path))}
    assert names == {"sample.called", "sample.uncalled", "sample.Box.method",
                     "sample.Box.method.<locals>.inner", "sample.Box.size",
                     "sample.Box.used", "sample.outer",
                     "sample.outer.<locals>.nested"}
    seen = entered(run, str(tmp_path) + os.sep)
    allowed = {"sample.uncalled": "ROADMAP 1c",
               "sample.gone": "ROADMAP 1c",
               "sample.called": "ROADMAP 1c"}
    missing, stale = ledger(names, seen, allowed)
    assert missing == ["sample.Box.method",
                       "sample.Box.method.<locals>.inner",
                       "sample.Box.size", "sample.outer.<locals>.nested"]
    assert stale == ["sample.called", "sample.gone"]
