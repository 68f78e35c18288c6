"""The package's import graph: every module imports the others at its
top, and the supersingular locus loads without the formal-group layer
that reads it."""

import ast
import json
import subprocess
import sys
from pathlib import Path

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
    assert not found


def test_the_finder_sees_a_local_import():
    tree = ast.parse("def f():\n    from . import sslocus\n"
                     "def g():\n    import ellwitt.cli\n")
    assert [line for line, _ in _imports_in_functions(tree)] == [2, 4]


def test_sslocus_loads_without_formalgroup():
    code = ("import json, sys\n"
            "import ellwitt.sslocus\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('ellwitt'))))\n")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ":".join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "ellwitt.sslocus" in loaded
    assert "ellwitt.formalgroup" not in loaded
