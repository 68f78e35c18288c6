"""The package's import graph: every module imports the others at its
top, the supersingular locus loads without the formal-group layer that
reads it, `fractions` loads only with the first use of QQ, and each
class and function is bound under its own name alone."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import ellwitt

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
    for path in sorted(SRC.glob("*.py")):
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
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ":".join(sys.path),
             **env})
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


def test_rationals_load_only_with_qq(tmp_path):
    # fractions (with decimal and numbers) is QQ's alone: the commands
    # that stay in Z and F_p, and cache hits, never load it; the first
    # rational does
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
    integral = ["hasse --prime 263 --json", "scan ogg --max 147 --json",
                "formal --prime 13 --a4 0 --a6 3 --json"] + hits
    out = _fresh(run + f"out = [loaded()] + [run(a) for a in {integral}]\n"
                 "out.append(run('forms --weight 12 --prec 10 --json'))\n"
                 "print(json.dumps(out))\n",
                 ELLWITT_CACHE_DIR=str(tmp_path))
    assert out[:-1] == [[]] * (1 + len(integral))
    assert "fractions" in out[-1]
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_qq_takes_a_fraction_made_before_its_first_use():
    code = ("import json\n"
            "from fractions import Fraction\n"
            "from ellwitt.polyseries import QQ\n"
            "x = Fraction(1, 3)\n"
            "print(json.dumps([QQ.coerce(x) is x, str(QQ.inv(x)), "
            "str(QQ.coerce(2) / 6)]))\n")
    assert _fresh(code) == [True, "3", "1/3"]


#: The second names that bench/tracer.py still wraps (ROADMAP item 1).
ALIASES = {"ellwitt.arith.FpElem", "ellwitt.arith.Fq2Elem"}


def test_every_class_and_function_has_one_name():
    # a class or function of the package bound under another name is an
    # alias or a forwarder; a reflected operator bound to its operator
    # (__radd__ = __add__) is protocol, not a second name
    modules = [importlib.import_module(f"ellwitt.{m.name}")
               for m in pkgutil.iter_modules(ellwitt.__path__)]
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
