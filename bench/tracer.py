"""Spans and call counts at ellwitt's layer boundaries, installed from
outside the program.

``install()`` replaces each wrapped function or method with a wrapper
that records a span (name, start, end, parent) in memory.  It replaces
every binding in every ``ellwitt`` module and class namespace, so names
imported with ``from .x import f`` and aliases such as ``__rmul__ =
__mul__`` are covered too; it fails if any reference to an original is
left behind, since a missed namespace would silently read zero.
``self_times`` turns the spans into per-boundary call counts and self
time.
"""

from __future__ import annotations

import functools
import os
import sys
import time

#: (span name, module, attribute) of every timed boundary.  A dotted
#: attribute is a method, patched on its class.
SPANS = (
    ("cli.dispatch", "ellwitt.cli", "_dispatch"),
    ("report.to_json", "ellwitt.report", "Report.to_json"),
    ("formalgroup.formal_expansion", "ellwitt.formalgroup",
     "formal_expansion"),
    ("formalgroup.classical_hasse", "ellwitt.formalgroup",
     "classical_hasse"),
    ("formalgroup.pseries", "ellwitt.formalgroup", "mult_by_p_series"),
    ("polyseries.revert", "ellwitt.polyseries", "QSeries.revert"),
    ("polyseries.compose", "ellwitt.polyseries", "QSeries.compose"),
    ("polyseries.inverse", "ellwitt.polyseries", "QSeries.inverse"),
    ("polyseries.series_mul", "ellwitt.polyseries", "QSeries.__mul__"),
    ("polyseries.roots_in_field", "ellwitt.polyseries", "roots_in_field"),
    ("polyseries.poly_gcd", "ellwitt.polyseries", "Poly.gcd"),
    ("sslocus.ss_j_deuring", "ellwitt.sslocus", "ss_j_deuring"),
    ("sslocus.legendre_to_j", "ellwitt.sslocus", "legendre_to_j"),
    ("sslocus.cross_validate", "ellwitt.sslocus", "cross_validate"),
    ("sslocus.ss_j_point_count", "ellwitt.sslocus", "ss_j_point_count"),
    ("modforms.ss_poly_eisenstein", "ellwitt.modforms",
     "ss_poly_eisenstein"),
    ("modforms.hasse_form", "ellwitt.modforms", "hasse_form"),
    ("modforms.eisenstein_q", "ellwitt.modforms", "eisenstein_q"),
    ("padicwitt.lift_context", "ellwitt.padicwitt", "lift_context"),
    ("padicwitt.teichmuller", "ellwitt.padicwitt", "teichmuller"),
    ("padicwitt.hensel_root", "ellwitt.padicwitt", "hensel_root"),
    ("padicwitt.lift_ss_poly", "ellwitt.padicwitt", "lift_ss_poly"),
    ("padicwitt.splitting_idempotents", "ellwitt.padicwitt",
     "splitting_idempotents"),
    ("cache.load", "ellwitt.cache", "load"),
    ("cache.store", "ellwitt.cache", "store"),
)

#: Boundaries that are counted but not timed (too hot for a span each).
COUNTS = (
    ("arith.fp_mul", "ellwitt.arith", "FpElem.__mul__"),
    ("arith.fq2_mul", "ellwitt.arith", "Fq2Elem.__mul__"),
)

#: Span names as reported; mult_by_p_series is split by precision into
#: the p+1 head (v1) and the full p^2+1 series.
SPAN_NAMES = ("cli.setup",) + tuple(
    n for s, _, _ in SPANS
    for n in ((("formalgroup.pseries_head", "formalgroup.pseries_full")
               if s == "formalgroup.pseries" else (s,))))


class Recorder:
    """Spans of one child process: rows of [name, start, end, parent]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {name: 0 for name, _, _ in COUNTS}
        self.counts.update({"cache.hits": 0, "cache.misses": 0,
                            "cache.store.bytes": 0})

    def timed(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "formalgroup.pseries":
                label = _pseries_label(args, kwargs)
            row = [label, clock(), None, stack[-1] if stack else -1]
            spans.append(row)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = clock()
            if name == "cache.load":
                key = "cache.hits" if result is not None else "cache.misses"
                self.counts[key] += 1
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def store_bytes(self, fn):
        """Around cache.store: bytes the call added to the cache dir."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = _dir_bytes()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts["cache.store.bytes"] += _dir_bytes() - before
        return wrapper


def _pseries_label(args, kwargs) -> str:
    p = args[1] if len(args) > 1 else kwargs.get("p")
    prec = args[2] if len(args) > 2 else kwargs.get("prec")
    if prec is not None and prec < p * p + 1:
        return "formalgroup.pseries_head"
    return "formalgroup.pseries_full"


def _dir_bytes() -> int:
    path = os.environ.get("ELLWITT_CACHE_DIR", "")
    try:
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    except FileNotFoundError:
        return 0


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    return owner, name


def install(rec: Recorder) -> None:
    """Wrap every boundary; raise if an original stays reachable."""
    import ellwitt.cli  # noqa: F401  (loads every layer)
    modules = [m for n, m in sys.modules.items()
               if n == "ellwitt" or n.startswith("ellwitt.")]
    classes = list({id(c): c for m in modules for c in vars(m).values()
                    if isinstance(c, type)
                    and c.__module__.startswith("ellwitt")}.values())
    namespaces = modules + classes
    plan = [(n, m, a, rec.timed) for n, m, a in SPANS]
    plan += [(n, m, a, rec.counted) for n, m, a in COUNTS]
    originals = []
    for name, module, attr, make in plan:
        owner, key = _resolve(module, attr)
        fn = vars(owner)[key]
        wrapped = make(name, fn)
        if name == "cache.store":
            wrapped = rec.store_bytes(wrapped)
        originals.append(fn)
        # Every binding: `from .x import f` names, and method aliases
        # such as `__rmul__ = __mul__`.
        for ns in namespaces:
            for k, v in list(vars(ns).items()):
                if v is fn:
                    setattr(ns, k, wrapped)
    left = [f"{getattr(ns, '__module__', '')}.{ns.__name__}.{k}"
            for ns in namespaces for k, v in vars(ns).items()
            if any(v is fn for fn in originals)]
    if left:
        raise RuntimeError(f"unwrapped references to traced functions: "
                           f"{left}")


def self_times(spans: list) -> dict:
    """{name: [calls, self seconds]} from rows [name, start, end, parent].

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children count once).
    """
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        agg = out.setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += (end - start) - covered
    return out
