"""The names that bench/tracer.py wraps must exist where it looks for
them.

The tracer patches each (module, attribute) of its SPANS and COUNTS in
that namespace's own ``vars()``, so a boundary that only resolves by
inheritance, or a name that a refactor removed, would break every traced
run.  The tracer is read as source (its tables are literals) and never
imported or executed here.
"""

import ast
import importlib
from pathlib import Path

import ellwitt.cli  # noqa: F401  (loads every layer, as the tracer does)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tables() -> dict:
    tree = ast.parse(TRACER.read_text())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("SPANS", "COUNTS")}


def test_every_traced_boundary_is_in_its_own_namespace():
    tables = _tables()
    rows = tables["SPANS"] + tables["COUNTS"]
    assert len(tables["COUNTS"]) >= 2 and len(rows) > 20
    seen = {}
    for name, module, attr in rows:
        owner = importlib.import_module(module)
        *cls, key = attr.split(".")
        if cls:
            assert cls[0] in vars(owner), f"{name}: {module}.{cls[0]}"
            owner = vars(owner)[cls[0]]
        assert key in vars(owner), f"{name}: {key} not in {owner!r}"
        fn = vars(owner)[key]
        # one function per boundary: a shared one would be wrapped twice
        assert id(fn) not in seen, f"{name} is {seen.get(id(fn))}"
        seen[id(fn)] = name
