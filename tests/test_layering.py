"""The package's import graph: every module imports the others at its
top, the supersingular locus loads without the formal-group layer that
reads it, no module imports or loads a rational module (`fractions`,
`decimal`, `numbers`), no command loads `json` or `re` and only a cache
hit loads `_json`, each class and function is bound under its own name
alone, every name a module exports in `__all__` is bound, F_p stays out
of the coefficient rings, and no command builds an F_p element."""

import ast
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import ellwitt
from ellwitt.arith import Zmod, ZmodElem
from conftest import fresh_python
from test_command_sweep import SWEEP

SRC = Path(__file__).resolve().parent.parent / "src" / "ellwitt"


def _imports_in_functions(tree) -> list:
    """(line, text) of every import of the package made inside a
    function body."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0]
                    == "ellwitt"):
                out.append((node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "ellwitt" for a in node.names):
                out.append((node.lineno, ast.unparse(node)))
    return out


def test_no_module_imports_the_package_inside_a_function():
    found = {}
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1, SRC
    for path in paths:
        hits = _imports_in_functions(ast.parse(path.read_text()))
        if hits:
            found[path.name] = hits
    assert not found, "\n".join(found)


def test_the_finder_sees_a_local_import():
    tree = ast.parse("def f():\n    from . import sslocus\n"
                     "def g():\n    import ellwitt.cli\n")
    assert [line for line, _ in _imports_in_functions(tree)] == [2, 4]


def _fresh(code: str, **env):
    """What `code` prints as JSON, run in a fresh interpreter under -S."""
    proc = fresh_python(code, site=False, **env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_sslocus_loads_without_formalgroup():
    code = ("import json, sys\n"
            "import ellwitt.sslocus\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('ellwitt'))))\n")
    loaded = set(_fresh(code))
    assert "ellwitt.sslocus" in loaded
    assert "ellwitt.formalgroup" not in loaded


RATIONALS = ("fractions", "decimal", "numbers")


def _rational_imports(tree) -> list:
    """(line, text) of every import of a rational module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if not node.level else []
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.split(".")[0] in RATIONALS for n in names):
            out.append((node.lineno, ast.unparse(node)))
    return out


def test_no_module_imports_a_rational_module():
    found = {}
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1, SRC
    for path in paths:
        hits = _rational_imports(ast.parse(path.read_text()))
        if hits:
            found[path.name] = hits
    assert not found, "\n".join(f"{k}: {v}" for k, v in found.items())


def test_the_rational_finder_sees_every_import_form():
    tree = ast.parse("import fractions\nfrom decimal import Decimal\n"
                     "def f():\n    import numbers as n, json\n"
                     "from . import fractions_of\nimport fractional\n")
    assert [line for line, _ in _rational_imports(tree)] == [1, 2, 4]


def test_no_command_loads_a_rational_module(tmp_path):
    # every command stays in Z and the residue rings, cold or served
    # from the cache, so fractions, decimal and numbers never load
    run = ("import contextlib, io, json, sys\n"
           "from ellwitt import cli\n"
           "RATIONALS = ('fractions', 'decimal', '_decimal', 'numbers')\n"
           "def loaded():\n"
           "    return sorted(m for m in RATIONALS if m in sys.modules)\n"
           "def run(line):\n"
           "    with contextlib.redirect_stdout(io.StringIO()):\n"
           "        assert cli.main(line.split()) == 0, line\n"
           "    return loaded()\n")
    hits = ["ss --prime 13 --json", "lift --prime 13 --precision 5"]
    _fresh(run + f"print(json.dumps([run(a) for a in {hits}]))\n",
           ELLWITT_CACHE_DIR=str(tmp_path))
    lines = ["hasse --prime 263 --json", "scan ogg --max 147 --json",
             "formal --prime 13 --a4 0 --a6 3 --json"] + hits
    out = _fresh(run + f"out = [loaded()] + [run(a) for a in {lines}]\n"
                 "print(json.dumps(out))\n",
                 ELLWITT_CACHE_DIR=str(tmp_path))
    assert out == [[]] * (1 + len(lines))
    assert len(list(tmp_path.glob("*.json"))) == 2
    cold = ["ss --prime 61", "lift --prime 23 --precision 5",
            "split --prime 43 --precision 5", "verify deligne --prime 7",
            "verify gross-landweber --prime 13",
            "forms --weight 12 --prec 10", "verify all --max 13"]
    for i, line in enumerate(cold):
        got = _fresh(run + f"print(json.dumps(run({line!r})))\n",
                     ELLWITT_CACHE_DIR=str(tmp_path / f"cold{i}"))
        assert got == [], line


#: The `json` package, `re` (which `json.decoder` needs) and the C
#: scanner `_json`, which alone a cache hit loads.
_JSON_AND_RE = ("json", "json.decoder", "json.encoder", "_json", "re")


def test_start_up_loads_neither_json_nor_re(tmp_path):
    # report writes the canonical JSON itself, cli reads negative
    # numbers without a regex and cache reads an entry with the C
    # scanner of json.loads, so only a cache hit loads _json
    leaves = [f"{' '.join(w)} {flags} --json" for w, flags in SWEEP.items()]
    code = ("import contextlib, io, sys\n"
            "import ellwitt.cli\n"
            f"NAMES = {_JSON_AND_RE!r}\n"
            "def loaded():\n"
            "    return [m for m in NAMES if m in sys.modules]\n"
            "def run(line):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert ellwitt.cli.main(line.split()) == 0, line\n"
            "    return loaded()\n"
            f"out = [loaded()] + [run(a) for a in {leaves!r}]\n"
            "out += [run('ss --prime 13 --json') for _ in range(2)]\n"
            "import json\n"
            "print(json.dumps(out))\n")
    out = _fresh(code, ELLWITT_CACHE_DIR=str(tmp_path))
    # ss and lift ran cold, then ss --prime 13 once cold and once warm
    assert sorted(p.name.split("_")[0] for p in tmp_path.glob("*.json")) \
        == ["lift", "ss", "ss"]
    assert out[:-1] == [[]] * (2 + len(leaves))
    assert out[-1] == ["_json"]


def _modules() -> list:
    return [importlib.import_module(f"ellwitt.{m.name}")
            for m in pkgutil.iter_modules(ellwitt.__path__)]


def test_every_name_in_all_is_bound():
    # a name deleted from a module but left in its __all__ breaks
    # `from ellwitt.<module> import *`
    exporting = [m for m in _modules() if hasattr(m, "__all__")]
    assert len(exporting) > 1, exporting
    stale = [f"{m.__name__}.{key}" for m in exporting
             for key in m.__all__ if not hasattr(m, key)]
    assert not stale, stale


#: The second names that bench/tracer.py still wraps (ROADMAP item 1).
ALIASES = {"ellwitt.arith.FpElem", "ellwitt.arith.Fq2Elem"}


def test_every_class_and_function_has_one_name():
    # a class or function of the package bound under another name is an
    # alias or a forwarder; a reflected operator bound to its operator
    # (__radd__ = __add__) is protocol, not a second name
    modules = _modules()
    classes = {c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("ellwitt")}
    found = []
    for ns in modules + sorted(classes, key=repr):
        where = (ns.__name__ if ns in modules
                 else f"{ns.__module__}.{ns.__qualname__}")
        for key, obj in vars(ns).items():
            name = getattr(obj, "__name__", None)
            if (str(getattr(obj, "__module__", "")).startswith("ellwitt")
                    and isinstance(name, str) and name != key
                    and f"{where}.{key}" not in ALIASES
                    and key != "__r" + name[2:]):
                found.append(f"{where}.{key} is {name}")
    assert not found, "\n".join(found)


def _defines(cls) -> tuple:
    """(the names cls binds itself other than dunders, the dunders it
    binds to a callable)."""
    own = vars(cls)
    dunders = {n for n in own if n.startswith("__") and n.endswith("__")}
    return set(own) - dunders, {n for n in dunders if callable(own[n])}


def test_f_p_is_no_coefficient_ring():
    # Zmod is the field that QuadElem.to_fp returns into: no ring
    # protocol (zero, one, from_int, coerce, is_unit, inv), and elements
    # that carry a value and multiply (the product bench/tracer.py
    # counts), but neither add, subtract, negate, power, invert nor
    # compare
    assert _defines(Zmod) == ({"p", "elem"},
                              {"__init__", "__eq__", "__repr__"})
    assert Zmod.__hash__ is None
    assert _defines(ZmodElem) == (
        {"value", "ring", "_same"},
        {"__init__", "__mul__", "__rmul__", "__repr__"})
    assert ZmodElem.__hash__ is object.__hash__


#: Commands that find, lift and split roots, and scan residues.
F_P_AS_INTS = ("hasse --prime 397", "ss --prime 97",
               "lift --prime 29 --precision 5", "scan sqrt3 --max 1000",
               "verify all --max 13")


@pytest.mark.parametrize("line", F_P_AS_INTS)
def test_no_command_builds_an_f_p_element(tmp_path, line):
    # F_p residues are ints: square roots in F_p are taken as scalars of
    # F_{p^2}, and the Euler test reads an int; each command runs cold
    code = ("import sys\n"
            "from ellwitt import arith\n"
            "from ellwitt.cli import main\n"
            "def built(self, *args):\n"
            "    raise AssertionError(f'built a {type(self).__name__}')\n"
            "arith.Zmod.__init__ = arith.ZmodElem.__init__ = built\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = fresh_python(code, *line.split(), ELLWITT_CACHE_DIR=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
