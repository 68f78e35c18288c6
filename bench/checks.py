"""Answer checks: each report is compared with values the benchmark
computes itself (see oracle.py), never with values the program supplies.

``check(argv, report)`` returns a list of problems; an empty list is a
pass.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle


def canonical(data) -> str:
    """The report's byte format: sorted keys, two-space indent."""
    return json.dumps(data, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def verdict_bytes(report: dict) -> str:
    """A report without its timings section, which alone may vary."""
    return canonical(dict(report, timings={}))


def _opts(argv: list) -> dict:
    return {argv[i][2:]: int(argv[i + 1])
            for i in range(len(argv) - 1) if argv[i].startswith("--")}


def check(argv: list, report: dict, golden_dir=None) -> list:
    sections = report.get("sections", {})
    if len(sections) != 1:
        return [f"expected one section, got {sorted(sections)}"]
    section = next(iter(sections.values()))
    opts = _opts(argv)
    if argv[0] == "verify":
        kind = f"verify-{argv[1]}"
    elif argv[0] == "scan":
        kind = f"scan-{argv[1]}"
    else:
        kind = argv[0]
    problems = _CHECKS[kind](section, opts)
    if kind == "ss" and golden_dir is not None:
        golden = golden_dir / f"ss_p{opts['prime']}.json"
        if golden.exists() and verdict_bytes(report) != golden.read_text():
            problems.append(f"differs from {golden.name}")
    return problems


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _formal(s: dict, o: dict) -> list:
    p, a4, a6 = o["prime"], o["a4"] % o["prime"], o["a6"] % o["prime"]
    out = []
    _expect(out, "curve", (s["prime"], s["a4"], s["a6"]), (p, a4, a6))
    h = oracle.hasse_coeff(p, a4, a6)
    _expect(out, "v1 (classical Hasse invariant)", s["v1"], h)
    _expect(out, "supersingular", s["supersingular"], h == 0)
    series = s["series_mod_p"]
    _expect(out, "series length", len(series), p * p + 1)
    if len(series) == p * p + 1:
        # [p](t) mod p starts at v1 t^p (ordinary) or v2 t^(p^2).
        lead = p if h else p * p
        if any(series[:lead]):
            out.append(f"[p](t) mod p has a term below t^{lead}")
        if h:
            _expect(out, "t^p coefficient", series[p], h)
            _expect(out, "v2 of an ordinary curve", s["v2"], None)
        elif not s["v2"] or series[p * p] != s["v2"]:
            out.append(f"v2 {s['v2']!r} is not the unit t^(p^2) "
                       f"coefficient {series[p * p]!r}")
    rational = [Fraction(c) for c in s["series_rational"]]
    _expect(out, "t coefficient over Q", rational[1:2], [p])
    reduced = [c.numerator * pow(c.denominator, -1, p) % p
               for c in rational]
    _expect(out, "series_rational mod p", reduced, series)
    return out


def _deligne(s: dict, o: dict) -> list:
    p = o["prime"]
    curves = [(a, b) for a in range(p) for b in range(p)
              if not oracle.is_singular(p, a, b)]
    ss = sum(1 for a, b in curves if oracle.hasse_coeff(p, a, b) == 0)
    out = []
    _expect(out, "prime", s["prime"], p)
    _expect(out, "curves_checked", s["curves_checked"], len(curves))
    _expect(out, "supersingular_curves", s["supersingular_curves"], ss)
    _expect(out, "three_way_agreement", s["three_way_agreement"], True)
    return out


def _gross_landweber(s: dict, o: dict) -> list:
    p = o["prime"]
    out = []
    _expect(out, "prime", s["prime"], p)
    _expect(out, "sign", s["sign"], (-1) ** ((p - 1) // 2))
    _expect(out, "exponent", s["exponent"], (p * p - 1) // 12)
    _expect(out, "all_match", s["all_match"], True)
    want_j = sorted({oracle.j_of_curve(p, a, b)
                     for a in range(p) for b in range(p)
                     if not oracle.is_singular(p, a, b)
                     and oracle.hasse_coeff(p, a, b) == 0})
    _expect(out, "supersingular j in F_p", sorted(c["j"] for c in
                                                  s["curves"]), want_j)
    for c in s["curves"]:
        if (oracle.is_singular(p, c["a4"], c["a6"])
                or oracle.hasse_coeff(p, c["a4"], c["a6"]) != 0
                or oracle.j_of_curve(p, c["a4"], c["a6"]) != c["j"]
                or not c["match"]):
            out.append(f"curve entry {c} is not a matching supersingular "
                       f"curve with that j")
    return out


def _hasse(s: dict, o: dict) -> list:
    p = o["prime"]
    m = (p - 1) // 2
    F = oracle.Fq2(p)
    H = oracle.hasse_poly(p)
    out = []
    _expect(out, "prime", s["prime"], p)
    _expect(out, "degree", s["degree"], m)
    _expect(out, "hasse_poly", s["hasse_poly"], H)
    lams = [tuple(z) for z in s["lambda_roots"]]
    _expect(out, "lambda-root count", len(set(lams)), m)
    if any(F.evaluate(H, z) != (0, 0) for z in lams):
        out.append("a reported lambda-root is not a root of H")
    _expect(out, "j-image count", len(s["j_images"]), oracle.sigma(p))
    if lams and len(set(lams)) == m and (0, 0) not in lams \
            and (1, 0) not in lams:
        js = sorted({F.legendre_to_j(z) for z in lams})
        _expect(out, "j_images", [tuple(z) for z in s["j_images"]], js)
    return out


def _ogg(s: dict, o: dict) -> list:
    want = [q for q in oracle.MONSTER_PRIMES if 3 < q <= o["max"]]
    out = []
    _expect(out, "max", s["max"], o["max"])
    _expect(out, "primes", s["primes"], want)
    _expect(out, "monster_primes_in_range", s["monster_primes_in_range"],
            want)
    _expect(out, "match", s["match"], True)
    return out


def _ss(s: dict, o: dict) -> list:
    p = o["prime"]
    poly = oracle.ss_poly(p)
    sig = oracle.sigma(p)
    F = oracle.Fq2(p)
    js = [tuple(z) for z in s["j_values"]]
    out = []
    _expect(out, "prime", s["prime"], p)
    _expect(out, "ss_poly", s["ss_poly"], poly)
    _expect(out, "sigma", s["sigma"], sig)
    _expect(out, "j-value count", len(set(js)), sig)
    _expect(out, "j_values sorted", js, sorted(js))
    if any(F.evaluate(poly, z) != (0, 0) for z in js):
        out.append("a reported j-value is not a root of ss_p")
    _expect(out, "all_rational", s["all_rational"],
            all(b == 0 for _, b in js))
    _expect(out, "point_count_checked", s["point_count_checked"], p <= 31)
    return out


def _lift(s: dict, o: dict) -> list:
    p, n = o["prime"], o["precision"]
    poly = oracle.ss_poly(p)
    out = []
    _expect(out, "prime, precision", (s["prime"], s["precision"]), (p, n))
    coeffs = s["coeffs"]
    _expect(out, "coefficients mod p",
            [oracle.padic_value(c["a"], p) % p for c in coeffs], poly)
    if any(oracle.padic_value(c["b"], p) for c in coeffs):
        out.append("a coefficient is not Frobenius-fixed (b != 0)")
    if any(len(c["a"].split(",")) != n for c in coeffs):
        out.append(f"a coefficient does not have {n} digits")
    _expect(out, "leading coefficient",
            oracle.padic_value(coeffs[-1]["a"], p) if coeffs else None, 1)
    return out


def _split(s: dict, o: dict) -> list:
    p, n = o["prime"], o["precision"]
    sig = oracle.sigma(p)
    out = []
    _expect(out, "prime, precision", (s["prime"], s["precision"]), (p, n))
    _expect(out, "count", s["count"], sig)
    _expect(out, "idempotent count", len(s["idempotents"]), sig)
    # Addition in W/p^N [X] is coefficientwise, so the sum of the
    # idempotents must be the constant 1.
    width = max((len(e) for e in s["idempotents"]), default=0)
    total = [[0, 0] for _ in range(width)]
    for e in s["idempotents"]:
        for i, c in enumerate(e):
            total[i][0] += oracle.padic_value(c["a"], p)
            total[i][1] += oracle.padic_value(c["b"], p)
    total = [[a % p ** n, b % p ** n] for a, b in total]
    _expect(out, "sum of idempotents", total,
            [[1, 0]] + [[0, 0]] * (width - 1))
    return out


def _forms(s: dict, o: dict) -> list:
    k, prec = o["weight"], o["prec"]
    out = []
    _expect(out, "weight, prec", (s["weight"], s["prec"]), (k, prec))
    _expect(out, "eisenstein_q", s["eisenstein_q"],
            [str(c) for c in oracle.eisenstein(k, prec)])
    return out


_CHECKS = {
    "formal": _formal,
    "verify-deligne": _deligne,
    "verify-gross-landweber": _gross_landweber,
    "hasse": _hasse,
    "scan-ogg": _ogg,
    "ss": _ss,
    "lift": _lift,
    "split": _split,
    "forms": _forms,
}
