"""Self-tests of the benchmark: python3 -m pytest -q bench

The last test runs every workload traced (about two minutes on two
cores); the others take seconds.
"""

from __future__ import annotations

import copy
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import reference
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
GOLDEN = HERE.parent / "tests" / "golden"
RECORD = json.loads((HERE / "record.json").read_text())


def ellwitt(*argv) -> dict:
    """The program's JSON report, run in-process."""
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        from ellwitt.cli import main
    finally:
        sys.path.pop(0)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([*argv, "--json"]) == 0
    return json.loads(out.getvalue())


# --- seeded draws ---


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_list_other_seed_other_draw(workload):
    assert workloads.draw(workload, 7) == workloads.draw(workload, 7)
    assert workloads.draw(workload, 7) != workloads.draw(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_draws_the_same_kinds_of_request(workload):
    def shape(reqs):
        return sorted((r[0], r[1] if r[0] in ("verify", "scan") else "",
                       r[2] if r[0] == "formal" else "") for r in reqs)
    first = workloads.draw(workload, 1)
    for seed in range(2, 12):
        assert shape(workloads.draw(workload, seed)) == shape(first)


def test_formal_draw_mixes_curve_classes():
    reqs = workloads.draw("formal", 3)
    curves = [(int(r[2]), int(r[4]), int(r[6])) for r in reqs
              if r[0] == "formal"]
    from oracle import hasse_coeff
    assert any(hasse_coeff(*c) == 0 for c in curves)
    assert any(hasse_coeff(*c) != 0 for c in curves)
    assert any(a4 == 0 or a6 == 0 for _, a4, a6 in curves)
    assert {p for p, _, _ in curves} == {7, 11, 13}
    assert any(a4 and a6 for _, a4, a6 in curves)


def test_locus_primes_straddle_the_numpy_threshold():
    primes = [int(r[2]) for r in workloads.draw("locus", 5)
              if r[0] == "hasse"]
    assert any(p < 40 for p in primes)
    assert sum(p > 97 for p in primes) > len(primes) / 2


# --- statistics ---


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 100)
    value, pct, n = run.tail([float(x) for x in range(1, 12)])
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _req(argv, phase, spawn, latency, cpu, ref):
    r = run.Request(argv, phase)
    r.spawn, r.latency, r.setup, r.cpu, r.ref = spawn, latency, 0.1, cpu, ref
    r.maxrss_mb = 30.0
    return r


def test_scale_brings_a_reading_to_the_reference_speed():
    nominal = reference.NOMINAL_S
    assert run.scale(_req(["x"], "", 0.0, 1.0, 1.0, nominal)) == 1.0
    assert run.scale(_req(["x"], "", 0.0, 1.0, 1.0, 2 * nominal)) == 0.5
    # A child that died before it wrote its reference time.
    assert run.scale(_req(["x"], "", 0.0, 1.0, 1.0, 0.0)) == 1.0


def test_end_to_end_times_are_at_the_reference_speed():
    nominal = reference.NOMINAL_S
    a, b = ["formal", "--prime", "7"], ["ss", "--prime", "5"]
    rounds = [([_req(a, "", 0.0, 2.0, 1.5, nominal),
                _req(b, "cold", 1.0, 1.0, 0.9, nominal)], 0.0),
              ([_req(a, "", 2.0, 1.5, 1.6, nominal),
                # Timed while the host ran at half speed: 2.4 s is 1.2 s.
                _req(b, "cold", 3.0, 2.4, 2.0, 2 * nominal)], 0.0),
              ([_req(a, "", 4.0, 1.0, 1.0, nominal),
                _req(b, "cold", 5.0, 1.0, 1.0, nominal)], 0.0)]
    metrics, _ = run.end_to_end(rounds)
    assert metrics["wall_s"][0] == pytest.approx(2.7)
    assert metrics["cpu_s"][0] == pytest.approx(2.4)
    assert metrics["request_p50_s"][0] == pytest.approx(1.1)
    assert metrics["setup_s"][0] == pytest.approx(0.1)
    unscaled, _ = run.end_to_end(rounds, scaled=False)
    assert unscaled["wall_s"][0] == pytest.approx(3.0)
    assert unscaled["request_p50_s"][0] == pytest.approx(1.25)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],      # overlaps a: the union is [1, 6]
        ["a.child", 2.0, 3.0, 1],
        ["b", 7.0, 12.0, 0],     # runs past its parent: clipped to 10
        ["other", 20.0, 21.0, -1],
    ]
    got = tracer.self_times(spans)
    assert got["root"] == [1, pytest.approx(10 - 5 - 3)]
    assert got["a"] == [1, pytest.approx(2.0)]
    assert got["b"] == [2, pytest.approx(3.0 + 5.0)]
    assert got["a.child"] == [1, pytest.approx(1.0)]
    assert got["other"] == [1, pytest.approx(1.0)]


# --- answer checks ---


@pytest.mark.parametrize("p", workloads.GOLDEN_SS_PRIMES)
def test_golden_ss_reports_pass(p):
    report = json.loads((GOLDEN / f"ss_p{p}.json").read_text())
    assert checks.check(["ss", "--prime", str(p)], report, GOLDEN) == []


def test_checker_rejects_a_flipped_j_value():
    report = json.loads((GOLDEN / "ss_p11.json").read_text())
    bad = copy.deepcopy(report)
    bad["sections"]["ss_locus"]["j_values"][0][0] += 1
    assert checks.check(["ss", "--prime", "11"], bad, None)


def test_checker_rejects_a_wrong_v1_and_a_flipped_verdict():
    argv = ["formal", "--prime", "7", "--a4", "1", "--a6", "3"]
    report = ellwitt(*argv)
    assert checks.check(argv, report) == []
    bad = copy.deepcopy(report)
    bad["sections"]["formal"]["v1"] = (bad["sections"]["formal"]["v1"]
                                       + 1) % 7
    assert checks.check(argv, bad)
    bad = copy.deepcopy(report)
    bad["sections"]["formal"]["supersingular"] = True
    assert checks.check(argv, bad)


@pytest.mark.parametrize("argv, path, delta", [
    (["hasse", "--prime", "13"], ("hasse", "j_images", 0, 0), 1),
    (["hasse", "--prime", "13"], ("hasse", "lambda_roots", 0, 1), 1),
    (["verify", "deligne", "--prime", "5"],
     ("deligne", "curves_checked"), 1),
    (["verify", "deligne", "--prime", "5"],
     ("deligne", "supersingular_curves"), -1),
    (["scan", "ogg", "--max", "30"], ("ogg", "primes", 0), 2),
    (["split", "--prime", "13", "--precision", "3"],
     ("split", "count"), 1),
    (["forms", "--weight", "4", "--prec", "5"],
     ("forms", "eisenstein_q", 2), "1"),
])
def test_checker_rejects_a_tampered_number(argv, path, delta):
    report = ellwitt(*argv)
    assert checks.check(argv, report) == []
    bad = copy.deepcopy(report)
    node = bad["sections"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    assert checks.check(argv, bad)


def test_checker_rejects_a_lift_that_does_not_reduce_to_ss_p():
    argv = ["lift", "--prime", "13", "--precision", "3"]
    report = ellwitt(*argv)
    assert checks.check(argv, report) == []
    bad = copy.deepcopy(report)
    bad["sections"]["lift"]["coeffs"][0]["a"] = "0,7,11"
    assert checks.check(argv, bad)


# --- the traced run ---


def _home_layers():
    for row in RECORD["layer_table"]:
        for metric in row["calls_on_home"]:
            yield row["home"], metric
    for workload in workloads.WORKLOADS:
        for metric in RECORD["calls_on_every_workload"]:
            yield workload, metric


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_covers_every_home_layer(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # Also fails when a traced verdict differs from the untraced one.
    assert proc.returncode == 0 and result["correct"], proc.stdout
    metrics = result["metrics"]
    names = {f"{n}.calls" for n in tracer.SPAN_NAMES}
    names |= {f"{n}.self_ms" for n in tracer.SPAN_NAMES}
    names |= {m["name"] for m in RECORD["per_layer_counts"]}
    assert set(metrics) == names
    for home, metric in _home_layers():
        if home == workload:
            assert metrics[metric]["value"] > 0, metric
