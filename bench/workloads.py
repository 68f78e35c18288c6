"""Seeded request lists for the benchmark workloads.

A request is the argv a user would pass to ``ellwitt`` (``--json`` is
appended by the runner).  The list of seed ``s`` is drawn from
``random.Random(f"{workload}:{s}")``, so the same seed gives the same
requests and another seed another draw.  A run repeats the list in
rounds; repeating it, rather than drawing more, gives each latency
quantile several near-equal samples to sit on.

Each round is stratified: it always holds the same number of requests of
each cost class (prime band, sparse or general curve, supersingular or
ordinary), and only the members of each class are drawn.  That keeps the
work of a round nearly constant across seeds, so that run-to-run spread
comes from the program and the machine rather than from the draw.
"""

from __future__ import annotations

import random

from oracle import hasse_coeff, is_singular, primes_in

WORKLOADS = ("formal", "locus", "witt-cache")

#: Nominal wall time of one round on the reference machine; a run of
#: ``--seconds S`` makes max(1, round(S / ROUND_SECONDS)) rounds, so the
#: work of a run is fixed by S and does not depend on the program's speed.
ROUND_SECONDS = 7.5

#: The ss reports that have golden files in tests/golden.
GOLDEN_SS_PRIMES = (5, 11, 13)


def rounds_for(seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def draw(workload: str, seed: int) -> list:
    """The request list of one round, in the order it is run."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = {"formal": _formal, "locus": _locus,
            "witt-cache": _witt_cache}[workload](rng)
    rng.shuffle(reqs)
    if len({tuple(r) for r in reqs}) != len(reqs):
        raise AssertionError(f"{workload} drew a request twice")
    return reqs


def _curve_classes(p: int) -> dict:
    """Nonsingular short curves over F_p, by (shape, reduction type);
    shape is 'j0' (a4 = 0), 'j1728' (a6 = 0) or 'general'."""
    out = {}
    for a4 in range(p):
        for a6 in range(p):
            if is_singular(p, a4, a6):
                continue
            shape = "j0" if a4 == 0 else "j1728" if a6 == 0 else "general"
            kind = "ss" if hasse_coeff(p, a4, a6) == 0 else "ord"
            out.setdefault((shape, kind), []).append((a4, a6))
    return out


#: (p, shape, reduction type, count) of the formal workload's curves.
#: Sparse and general, supersingular and ordinary curves at p = 7, 11, 13.
#: The full [p]-series runs inside verify gross-landweber.  Every
#: request costs under 1.5 s, so that a run can repeat each of them
#: four times.  The counts put the median latency among four
#: requests of about the same cost (the sparse p = 11 and p = 13 curves
#: and the two verify requests) and the tail (the 34th of 44 latencies
#: at four rounds) in the middle of the 16 latencies of the four general
#: p = 11 curves, the dearest class.
FORMAL_STRATA = (
    (13, "j0", "ord", 1),
    (11, "general", "ord", 4), (11, "j0", "ss", 1),
    (7, "general", "ord", 2), (7, "j1728", "ss", 1),
)


def _formal(rng) -> list:
    reqs = [["verify", "deligne", "--prime", "7"],
            ["verify", "gross-landweber", "--prime", "7"]]
    classes = {p: _curve_classes(p) for p in (7, 11, 13)}
    for p, shape, kind, count in FORMAL_STRATA:
        for a4, a6 in rng.sample(classes[p][(shape, kind)], count):
            reqs.append(["formal", "--prime", str(p),
                         "--a4", str(a4), "--a6", str(a6)])
    return reqs


#: Primes of the locus workload's Deuring requests, as (low, high, how
#: many): one prime from each of ``how many`` consecutive groups of the
#: primes in (low, high].  Below 40 the root scan is pure Python, above it
#: numpy.  The median latency falls among the (250, 300] band and the
#: tail (the 34th of 44 at four rounds) among the (360, 400] band: bands
#: narrow enough that their members cost about the same, and dear enough
#: that the scan, not process start-up, sets their latency.
LOCUS_BANDS = ((4, 40, 3), (97, 150, 1), (250, 300, 3), (360, 400, 3))
#: Ogg scans draw their bound from this window: it holds no prime, so
#: every bound in it scans the same primes at the same cost.
OGG_MAX_RANGE = (140, 148)


def _groups(items: list, k: int) -> list:
    n = len(items)
    return [items[i * n // k:(i + 1) * n // k] for i in range(k)]


def _locus(rng) -> list:
    reqs = [["scan", "ogg", "--max", str(rng.randint(*OGG_MAX_RANGE))]]
    for lo, hi, k in LOCUS_BANDS:
        for group in _groups(primes_in(lo + 1, hi), k):
            reqs.append(["hasse", "--prime", str(rng.choice(group))])
    return reqs


#: Point counting (p <= 31) makes a cold ss or lift at 17 <= p <= 31 the
#: dearest request, so those primes are drawn as a class of their own; it
#: holds the tail.  The many cheap forms requests hold the median.
WITT_SMALL = primes_in(17, 31)
WITT_LARGE = primes_in(37, 97)


def _witt_cache(rng) -> list:
    """One pass; the runner runs it twice against one cache dir."""
    ss = rng.sample(GOLDEN_SS_PRIMES, 1) + rng.sample(WITT_SMALL, 2) \
        + rng.sample(WITT_LARGE, 1)
    reqs = [["ss", "--prime", str(p)] for p in ss]
    lift_p = rng.sample(WITT_SMALL, 2) + rng.sample(WITT_LARGE, 2)
    reqs += [["lift", "--prime", str(p), "--precision",
              str(rng.randint(2, 64))] for p in lift_p]
    for p in rng.sample(primes_in(5, 47), 2):
        reqs.append(["split", "--prime", str(p), "--precision",
                     str(rng.randint(2, 32))])
    for k in rng.sample(range(4, 50, 2), 4):
        reqs.append(["forms", "--weight", str(k), "--prec",
                     str(rng.randint(20, 120))])
    return reqs
