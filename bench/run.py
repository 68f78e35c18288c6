"""The ellwitt benchmark.

    python3 bench/run.py --workload formal --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each request of the seeded workload
(see workloads.py) runs as ``ellwitt <argv> --json`` in a fresh child
process, one at a time (a closed loop with one client).  Every answer
is checked against values the benchmark computes itself (checks.py).
A run repeats the list in rounds, and the end-to-end metrics scale
every reading to the reference speed (see ``scale``).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The exit code is 0 when every answer checks,
1 when one does not and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

#: A run stops starting rounds after this many seconds and kills a child
#: still running at the hard limit, so that it ends within 180 s.
ROUND_CUTOFF_S = 110
HARD_LIMIT_S = 165

DISCARD_WARNING = "warning: discarding corrupt cache entry"


class Request:
    """One child process: what it ran, how long it took, what it said."""

    def __init__(self, argv, phase):
        self.argv = argv
        self.phase = phase          # "cold" or "warm" (witt-cache), else ""
        self.problems = []
        self.report = None
        self.trace = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def run_child(argv, phase, env, tmp: Path, deadline: float,
              trace: bool) -> Request:
    req = Request(argv, phase)
    ready_file = tmp / "ready"
    trace_file = tmp / "trace.json"
    for f in (ready_file, trace_file):
        f.unlink(missing_ok=True)
    env = dict(env, BENCH_READY_FILE=str(ready_file))
    if trace:
        env["BENCH_TRACE_FILE"] = str(trace_file)
    with open(tmp / "out", "w+b") as out, open(tmp / "err", "w+b") as err:
        reaped = {}
        done = threading.Event()
        req.spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *argv, "--json"],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env,
            cwd=tmp)

        def reap():
            try:
                reaped["status"] = os.wait4(proc.pid, 0)
                reaped["exit"] = time.monotonic()
            finally:
                done.set()

        threading.Thread(target=reap).start()
        try:
            done.wait(max(0.0, deadline - time.monotonic()))
        finally:
            # Also on SIGTERM or Ctrl-C: no child outlives the run.
            if not done.is_set():
                os.kill(proc.pid, signal.SIGKILL)
                done.wait()
                req.problems.append("killed at the run's time limit")
        _, status, usage = reaped["status"]
        proc.returncode = os.waitstatus_to_exitcode(status)
        req.exit = reaped["exit"]
        req.cpu = usage.ru_utime + usage.ru_stime
        req.maxrss_mb = usage.ru_maxrss / 1024
        out.seek(0)
        err.seek(0)
        req.stdout = out.read().decode()
        req.stderr = err.read().decode()
    req.ready, req.ref, ref_cpu = \
        map(float, ready_file.read_text().split()) \
        if ready_file.exists() else (None, 0.0, 0.0)
    # The reference work ran first in the child; it is not the program's.
    req.start = req.spawn + req.ref
    req.latency = req.exit - req.start
    req.cpu -= ref_cpu
    # A child that died before the CLI was ready spent all its time there.
    req.setup = (req.ready or req.exit) - req.start
    if proc.returncode != 0:
        req.problems.append(f"exit code {proc.returncode}: "
                            f"{req.stderr.strip()[-300:]}")
    if trace and trace_file.exists():
        req.trace = json.loads(trace_file.read_text())
    return req


def _cache_entries(cache: Path) -> dict:
    if not cache.exists():
        return {}
    return {f.name: f.read_bytes() for f in cache.iterdir()}


def run_sequence(workload, reqs, env, tmp, deadline, trace) -> tuple:
    """Run one round's requests against one fresh cache dir; check every
    answer as it arrives.  Returns (requests, wall seconds)."""
    cache = Path(tempfile.mkdtemp(dir=tmp, prefix="cache-")) / "ellwitt"
    home = Path(tempfile.mkdtemp(dir=tmp, prefix="home-"))
    work = Path(tempfile.mkdtemp(dir=tmp, prefix="work-"))
    env = dict(env, ELLWITT_CACHE_DIR=str(cache), HOME=str(home),
               TMPDIR=str(work))
    passes = [("cold", reqs), ("warm", reqs)] \
        if workload == "witt-cache" else [("", reqs)]
    done = []
    cold_sections = {}
    entries = {}
    start = None
    for phase, plist in passes:
        for argv in plist:
            req = run_child(argv, phase, env, work, deadline, trace)
            start = req.spawn if start is None else start
            _check(req)
            key = tuple(argv)
            if req.report is not None and phase == "cold":
                cold_sections[key] = checks.canonical(req.report["sections"])
            elif req.report is not None and phase == "warm" and \
                    checks.canonical(req.report["sections"]) != \
                    cold_sections.get(key):
                req.problems.append("warm-pass sections differ from the "
                                    "cold pass")
            now = _cache_entries(cache)
            for name, data in entries.items():
                if now.get(name) != data:
                    req.problems.append(f"cache entry {name} changed or "
                                        f"vanished")
            new = sorted(set(now) - set(entries))
            if phase == "warm" and new:
                req.problems.append(f"warm pass wrote cache entries {new}")
            if any(n.endswith(".tmp") for n in now):
                req.problems.append("a temporary cache file was left")
            entries = now
            req.verdict = time.monotonic()
            done.append(req)
            if time.monotonic() > deadline:
                req.problems.append("round cut short at the run's time limit")
                return done, req.verdict - start
    if (home / ".cache").exists():
        done[-1].problems.append("the program wrote under HOME/.cache "
                                 "instead of ELLWITT_CACHE_DIR")
    return done, done[-1].verdict - start


def _check(req: Request) -> None:
    if req.problems:
        return
    try:
        req.report = json.loads(req.stdout)
    except ValueError:
        req.problems.append("stdout is not JSON")
        return
    try:
        req.problems += checks.check(req.argv, req.report, GOLDEN)
    except (KeyError, TypeError, ValueError, IndexError,
            ZeroDivisionError) as exc:
        req.problems.append(f"malformed report: {exc!r}")


def tail(values: list) -> tuple:
    """(value, percentile, n): the latency at the highest percentile that
    still has at least ten samples beyond it, i.e. the (n-10)-th
    smallest.  With ten or fewer samples it is the largest."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def scale(req: Request) -> float:
    """The factor that brings a request's times to the reference speed:
    reference.NOMINAL_S over the reference time its child measured just
    before the request (1 if the child died before it wrote one).

    The host is shared: the same request runs up to twice as slow from
    one second to the next, and over minutes the whole host drifts by a
    third or more.  The reference work runs in the same fresh process
    right before the request, so it meets the same load.
    """
    return reference.NOMINAL_S / req.ref if req.ref else 1.0


def end_to_end(rounds: list, scaled: bool = True) -> tuple:
    """The end-to-end metrics of the untraced rounds, every time scaled to
    the reference speed (unless ``scaled`` is false).  wall_s and cpu_s
    are medians over the rounds of a round's summed latency and CPU time;
    the latency quantiles and setup_s are taken over every request."""
    def f(r):
        return scale(r) if scaled else 1.0
    reqs = [r for rs, _ in rounds for r in rs]
    lat = [r.latency * f(r) for r in reqs]
    tail_s, pct, n = tail(lat)
    metrics = {
        "wall_s": (statistics.median(sum(r.latency * f(r) for r in rs)
                                     for rs, _ in rounds), "s"),
        "request_p50_s": (statistics.median(lat), "s"),
        "request_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(r.setup * f(r) for r in reqs), "s"),
        "cpu_s": (statistics.median(sum(r.cpu * f(r) for r in rs)
                                    for rs, _ in rounds), "s"),
        "peak_rss_mb": (max(r.maxrss_mb for r in reqs), "MB"),
    }
    refs = [r.ref for r in reqs if r.ref] or [0.0]
    notes = [f"request_tail_s is the p{pct:.1f} latency of n={n} requests",
             f"wall_s and cpu_s are medians over {len(rounds)} round(s)",
             f"times are scaled to the reference speed: the reference work "
             f"took {statistics.median(refs):.4f} s (median) against "
             f"{reference.NOMINAL_S} s nominal"]
    return metrics, notes


def per_layer(plain: list, traced: list) -> tuple:
    spans_total = {name: [0, 0.0] for name in tracer.SPAN_NAMES}
    counts = {}
    discards = 0
    for rs, _ in traced:
        for r in rs:
            discards += r.stderr.count(DISCARD_WARNING)
            if r.trace is None or r.ready is None:
                continue
            # Appended, so the child's parent indices stay valid.
            spans = r.trace["spans"] + [["cli.setup", r.start, r.ready, -1]]
            for name, (calls, self_s) in tracer.self_times(spans).items():
                agg = spans_total.setdefault(name, [0, 0.0])
                agg[0] += calls
                agg[1] += self_s
            for k, v in r.trace["counts"].items():
                counts[k] = counts.get(k, 0) + v
    metrics = {}
    for name, (calls, self_s) in spans_total.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1000, "ms")
    for name, _, _ in tracer.COUNTS:
        metrics[f"{name}.calls"] = (counts.get(name, 0), "count")
    loads = spans_total["cache.load"][0]
    hits = counts.get("cache.hits", 0)
    metrics["cache.hits"] = (hits, "count")
    metrics["cache.misses"] = (counts.get("cache.misses", 0), "count")
    metrics["cache.discards"] = (discards, "count")
    metrics["cache.hit_ratio"] = (hits / loads if loads else 0.0, "ratio")
    metrics["cache.store.bytes"] = (counts.get("cache.store.bytes", 0),
                                    "bytes")
    plain_wall = sum(r.latency for rs, _ in plain for r in rs)
    traced_wall = sum(r.latency for rs, _ in traced for r in rs)
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall - 1,
                                       "ratio")
    return metrics, []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Unwind on SIGTERM too, so that the child is killed and reaped and
    # the temporary files are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    goldens = [GOLDEN / f"ss_p{p}.json" for p in workloads.GOLDEN_SS_PRIMES]
    if not (SRC / "ellwitt" / "cli.py").exists() or \
            not all(g.exists() for g in goldens):
        print(f"error: no ellwitt checkout at {ROOT} (src/ellwitt and "
              f"tests/golden/ss_p*.json are needed)", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S
    runs_dir = ROOT / ".bench_tmp"
    runs_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=runs_dir, prefix="run-"))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and not k.startswith("BENCH_")}
    env["PYTHONPATH"] = str(SRC)
    try:
        # Not timed: compiles the bytecode once, as an install would.
        run_sequence("", [["forms", "--weight", "4", "--prec", "2"]],
                     env, tmp, deadline, False)
        plain, traced = [], []
        reqs = workloads.draw(args.workload, args.seed)
        for rnd in range(workloads.rounds_for(args.seconds)):
            if rnd and time.monotonic() - t0 > ROUND_CUTOFF_S:
                break
            plain.append(run_sequence(args.workload, reqs, env, tmp,
                                      deadline, False))
            if args.trace:
                traced.append(run_sequence(args.workload, reqs, env, tmp,
                                           deadline, True))
        if args.trace:
            for (prs, _), (trs, _) in zip(plain, traced):
                for p, t in zip(prs, trs):
                    if p.report is not None and t.report is not None and \
                            checks.verdict_bytes(p.report) != \
                            checks.verdict_bytes(t.report):
                        t.problems.append("traced verdict differs from "
                                          "the untraced one")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            runs_dir.rmdir()
        except OSError:
            pass

    everything = [r for rs, _ in plain + traced for r in rs]
    failed = [r for r in everything if r.problems]
    for r in failed[:20]:
        print(f"FAILED {r.phase} {r.label}: {'; '.join(r.problems)}")
    if args.trace:
        metrics, notes = per_layer(plain, traced)
    else:
        metrics, notes = end_to_end(plain)
        unscaled, _ = end_to_end(plain, scaled=False)
        notes.append("as timed, unscaled: " + ", ".join(
            f"{k} {v:.6g}" for k, (v, _) in unscaled.items()))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(everything)} requests in {len(plain)} round(s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<40} {len(failed) / len(everything):>14.6g} "
          f"ratio")
    for note in notes:
        print(f"  ({note})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
