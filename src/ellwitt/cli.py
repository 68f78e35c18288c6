"""The ellwitt command line: one addressable subcommand per verifiable
claim, JSON reports, and the one-shot verification suite.

Exit codes: 0 success, 1 usage error (including out-of-range arguments),
2 validation failure (two methods disagree — the printed counterexample
names the prime, the curve and the methods involved) or an internal
error.
"""

from __future__ import annotations

import gc
import re
import sys
import time
from types import SimpleNamespace

from . import cache, formalgroup, modforms, padicwitt, sslocus
from .arith import PrimeField, has_sqrt3, is_prime
from .errors import ValidationError
from .formalgroup import _VERIFY_PRIMES, MAX_FORMAL_PRIME, WCurve
from .modforms import MAX_EISENSTEIN_PRIME
from .padicwitt import (
    MAX_LIFT_PRECISION,
    MAX_SPLIT_PRECISION,
    MAX_SPLIT_PRIME,
)
from .polyseries import QQ
from .report import Report, padic_digits
from .sslocus import (
    MAX_DEURING_PRIME,
    MAX_OGG_SCAN,
    MAX_POINT_COUNT_PRIME,
    MONSTER_PRIMES,
    _sorted_j,
)

DEFAULT_PRECISION = 10
MAX_FORMS_PREC = 1000
MAX_SQRT3_SCAN = 10 ** 6


class UsageError(Exception):
    """A bad argument.  `usage` is the command's usage line, printed
    above the error when the command line itself did not parse."""

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


def _require_prime(p: int, bound: int, what: str) -> None:
    # the bound first: Miller-Rabin on a huge p takes seconds
    if p > bound:
        raise UsageError(f"{what}: enforced bound is p <= {bound}, got {p}")
    if not is_prime(p) or p <= 3:
        raise UsageError(f"{what}: --prime must be a prime > 3, got {p}")


# --- section builders (all deterministic) ---


def ss_section(p: int) -> dict:
    key = {"p": p}
    hit = cache.load("ss", key)
    if hit is not None:
        return hit
    locus = sslocus.cross_validate(p)
    payload = {
        "prime": p,
        "sigma": locus.sigma,
        "all_rational": locus.all_rational,
        "j_values": [[z.a, z.b] for z in _sorted_j(locus.j_values)],
        "ss_poly": [c.value for c in locus.ss_poly.coeffs],
        "ss_poly_str": locus.ss_poly.pretty(),
        "point_count_checked": p <= MAX_POINT_COUNT_PRIME,
    }
    cache.store("ss", key, payload)
    return payload


def hasse_section(p: int) -> dict:
    H = sslocus.hasse_polynomial(p)
    return {
        "prime": p,
        "degree": H.degree,
        "hasse_poly": [c.value for c in H.coeffs],
        "lambda_roots": [[z.a, z.b]
                         for z in _sorted_j(sslocus.hasse_roots(p))],
        "j_images": [[z.a, z.b]
                     for z in _sorted_j(sslocus.ss_j_deuring(p))],
    }


def lift_section(p: int, N: int) -> dict:
    key = {"n": N, "p": p}
    hit = cache.load("lift", key)
    if hit is not None:
        return hit
    shat = padicwitt.lift_ss_poly(p, N)
    wctx = shat.ring
    payload = {
        "prime": p,
        "precision": N,
        "digit_order": "little-endian base-p",
        # G = X^2 + g0 has no X term; the schema keeps its digits
        "modulus_g1": padic_digits(0, p, N),
        "modulus_g0": padic_digits(wctx.g0, p, N),
        "coeffs": [{"a": padic_digits(c.a, p, N),
                    "b": padic_digits(c.b, p, N)} for c in shat.coeffs],
        "frobenius_fixed": True,
        "reduces_to_ss_poly": True,
    }
    cache.store("lift", key, payload)
    return payload


def split_section(p: int, N: int) -> dict:
    idems = padicwitt.splitting_idempotents(p, N)
    return {
        "prime": p,
        "precision": N,
        "digit_order": "little-endian base-p",
        "count": len(idems),
        "idempotents": [[{"a": padic_digits(c.a, p, N),
                          "b": padic_digits(c.b, p, N)}
                         for c in e.coeffs] for e in idems],
        "orthogonal": True,
        "sum_to_one": True,
    }


def formal_section(p: int, a4: int, a6: int) -> dict:
    field = PrimeField(p)
    E = WCurve.short(field, a4, a6)
    lift = WCurve.short(QQ, E.a4.value, E.a6.value)
    ps = formalgroup.mult_by_p_series(lift, p)
    v1, v2 = formalgroup.heights_from_series(E, p, ps.series_mod_p)
    return {
        "prime": p,
        "a4": E.a4.value,
        "a6": E.a6.value,
        "v1": v1.value,
        "v2": None if v2 is None else v2.value,
        "supersingular": v2 is not None,
        "series_mod_p": [ps.series_mod_p.coeff(k).value
                         for k in range(p * p + 1)],
        "series_rational": [str(ps.series.coeff(k))
                            for k in range(p * p + 1)],
    }


def deligne_section(p: int) -> dict:
    r = formalgroup.verify_deligne(p)
    return {
        "prime": p,
        "curves_checked": r.curves_checked,
        "supersingular_curves": r.supersingular_curves,
        "three_way_agreement": True,
    }


def gl_section(p: int) -> dict:
    r = formalgroup.verify_gross_landweber(p)
    return {
        "prime": p,
        "sign": r.sign,
        "exponent": (p * p - 1) // 12,
        "curves": [{"j": e.j, "a4": e.a4, "a6": e.a6, "v2": e.v2,
                    "predicted": e.predicted, "match": e.match,
                    "ratio": e.ratio,
                    "ratio_pow_of_12": e.ratio_pow_of_12}
                   for e in r.entries],
        "all_match": r.all_match,
        "common_power_of_12": r.common_power_of_12,
    }


def ogg_section(p_max: int) -> dict:
    primes = sslocus.ogg_scan(p_max)
    monster = [q for q in MONSTER_PRIMES if 3 < q <= p_max]
    return {
        "max": p_max,
        "primes": primes,
        "monster_primes_in_range": monster,
        "match": primes == monster,
    }


def sqrt3_section(p_max: int) -> dict:
    primes = sslocus._primes_in(5, p_max)
    exceptions = [p for p in primes if has_sqrt3(p) != (p % 12 in (1, 11))]
    if exceptions:
        raise ValidationError(
            f"sqrt(3) rule fails at primes {exceptions}")
    return {
        "max": p_max,
        "primes_checked": len(primes),
        "all_match_mod_12_rule": True,
        "exceptions": [],
    }


def forms_section(k: int, prec: int) -> dict:
    e = modforms.eisenstein_q(k, prec)
    return {
        "weight": k,
        "prec": prec,
        "eisenstein_q": [str(e.coeff(n)) for n in range(prec)],
    }


def _q_identities_section() -> dict:
    prec = 200
    e4, e6 = (modforms.eisenstein_q(k, prec).coeff_list(0, prec)
              for k in (4, 6))
    if any(c.denominator != 1 for c in e4 + e6):
        raise ValidationError("E4 or E6 has a non-integral q-coefficient")
    e4, e6 = [int(c) for c in e4], [int(c) for c in e6]
    mul = formalgroup._mul
    lhs = [a - b for a, b in zip(mul(mul(e4, e4, prec), e4, prec),
                                 mul(e6, e6, prec))]
    rhs = [1728 * c for c in modforms.eta24_q(prec).coeff_list(0, prec)]
    if lhs != rhs:
        raise ValidationError(
            "E4^3 - E6^2 != 1728 * eta^24 at q-precision 200")
    j = modforms.j_q(4)
    if (j.coeff(-1), j.coeff(0), j.coeff(1)) != (1, 744, 196884):
        raise ValidationError("j-expansion leading terms are wrong")
    return {"eta24_prec": prec, "delta_identity": True,
            "j_leading_terms": [1, 744, 196884]}


def verify_all_section(p_max: int) -> dict:
    out = {}
    eis_max = min(p_max, MAX_EISENSTEIN_PRIME)
    primes = sslocus._primes_in(5, eis_max)
    for p in primes:
        locus = sslocus.cross_validate(p)   # raises on any disagreement
        if locus.ss_poly.degree != sslocus.sigma(p):
            raise ValidationError(f"degree formula fails at p={p}")
        deu = sum(z.in_prime_field for z in locus.j_values)
        scan = sslocus.rational_ss_count(p)
        if deu != scan:
            raise ValidationError(
                f"p={p}: {deu} F_p-rational supersingular j by Deuring, "
                f"{scan} by the Ogg scan count")
    out["degree_formula"] = {"primes": primes, "ok": True}
    out["three_method_agreement"] = {
        "primes": primes,
        "point_count_primes": [p for p in primes
                               if p <= MAX_POINT_COUNT_PRIME],
        "ok": True,
    }
    spot = {7: [[6, 0]], 11: [[0, 0], [1, 0]], 13: [[5, 0]]}
    for p, want in spot.items():
        if p > eis_max:
            continue
        got = [[z.a, z.b]
               for z in _sorted_j(sslocus.cross_validate(p).j_values)]
        if got != want:
            raise ValidationError(f"spot locus at p={p}: {got} != {want}")
    out["spot_values"] = {"ok": True}
    formal_primes = [p for p in _VERIFY_PRIMES if p <= p_max]
    out["deligne"] = {str(p): deligne_section(p) for p in formal_primes}
    gl = {str(p): gl_section(p) for p in formal_primes}
    powers = {s["common_power_of_12"] for s in gl.values()}
    if len(powers) != 1 or None in powers:
        raise ValidationError(
            f"Gross-Landweber normalization inconsistent: powers {powers}")
    out["gross_landweber"] = gl
    out["gross_landweber_power_of_12"] = powers.pop()
    witt = {"primes": primes, "precisions": [1, 5, 10], "ok": True}
    for p in primes:
        for N in (1, 5, 10):
            padicwitt.lift_ss_poly(p, N)   # raises on any broken assertion
    out["witt_layer"] = witt
    split_primes = [p for p in primes if p <= MAX_SPLIT_PRIME]
    for p in split_primes:
        padicwitt.splitting_idempotents(p, DEFAULT_PRECISION)
    out["splitting"] = {"primes": split_primes,
                        "precision": DEFAULT_PRECISION, "ok": True}
    ogg = ogg_section(min(p_max, 71))
    if not ogg["match"]:
        raise ValidationError(
            f"Ogg scan mismatch: {ogg['primes']} != "
            f"{ogg['monster_primes_in_range']}")
    out["ogg"] = ogg
    out["sqrt3"] = sqrt3_section(10 ** 4)
    out["q_identities"] = _q_identities_section()
    return out


# --- human-readable rendering ---


def _print_ss(s: dict) -> None:
    print(f"p = {s['prime']}   sigma = {s['sigma']}   "
          f"all j in F_p: {'yes' if s['all_rational'] else 'no'}")
    js = ", ".join(f"{a}" if b == 0 else f"{a}+{b}x"
                   for a, b in s["j_values"])
    print(f"supersingular j-values: {js}")
    print(f"ss polynomial: {s['ss_poly_str']}")
    methods = "eisenstein = deuring"
    if s["point_count_checked"]:
        methods += " = point-count"
    print(f"methods agree: {methods}")


def _print_hasse(s: dict) -> None:
    from .polyseries import Poly
    print(f"p = {s['prime']}   degree {s['degree']}")
    field = PrimeField(s["prime"])
    print("hasse polynomial:",
          Poly(field, s["hasse_poly"]).pretty("L"))
    lams = ", ".join(f"{a}" if b == 0 else f"{a}+{b}x"
                     for a, b in s["lambda_roots"])
    js = ", ".join(f"{a}" if b == 0 else f"{a}+{b}x"
                   for a, b in s["j_images"])
    print(f"lambda roots in F_p^2: {lams}")
    print(f"j images: {js}")


def _print_lift(s: dict) -> None:
    print(f"p = {s['prime']}   precision N = {s['precision']}   "
          f"(digits little-endian base p)")
    print(f"W-modulus: X^2 + [{s['modulus_g1']}]*X + [{s['modulus_g0']}]")
    for i, c in enumerate(s["coeffs"]):
        print(f"  X^{i}: a = {c['a']}   b = {c['b']}")
    print("frobenius-fixed: yes   reduces to ss polynomial: yes")


def _print_split(s: dict) -> None:
    print(f"p = {s['prime']}   precision N = {s['precision']}   "
          f"{s['count']} idempotents (digits little-endian base p)")
    for k, e in enumerate(s["idempotents"]):
        print(f"idempotent e_{k}:")
        for i, c in enumerate(e):
            print(f"  X^{i}: a = {c['a']}   b = {c['b']}")
    print("orthogonal: yes   sum to one: yes")


def _print_formal(s: dict) -> None:
    p = s["prime"]
    print(f"p = {p}   curve y^2 = x^3 + {s['a4']}x + {s['a6']} over F_{p}")
    kind = "supersingular" if s["supersingular"] else "ordinary"
    v2 = "-" if s["v2"] is None else s["v2"]
    print(f"v1 = {s['v1']}   v2 = {v2}   ({kind})")
    nz = [(k, c) for k, c in enumerate(s["series_mod_p"]) if c]
    terms = " + ".join(f"{c}*t^{k}" for k, c in nz)
    print(f"[p](t) mod {p} = {terms}")
    head = ", ".join(s["series_rational"][1:min(8, len(s['series_rational']))])
    print(f"[p](t) over Q starts: t-coefficients {head}, ...")


def _print_deligne(s: dict) -> None:
    print(f"OK: {s['curves_checked']} curves, 3-way agreement "
          f"(formal v1 = classical Hasse = E_(p-1) form at (c4,-c6)) "
          f"at p = {s['prime']}; {s['supersingular_curves']} supersingular")


def _print_gl(s: dict) -> None:
    print(f"p = {s['prime']}   sign (-1)^((p-1)/2) = {s['sign']:+d}   "
          f"exponent (p^2-1)/12 = {s['exponent']}")
    for c in s["curves"]:
        mark = "OK " if c["match"] else "OFF"
        print(f"  {mark} j={c['j']}: v2={c['v2']} predicted={c['predicted']}"
              f" ratio={c['ratio']} (12^{c['ratio_pow_of_12']})")
    print(f"all match: {'yes' if s['all_match'] else 'no'}   "
          f"common power of 12: {s['common_power_of_12']}")


def _print_ogg(s: dict) -> None:
    print(f"primes p <= {s['max']} with all supersingular j in F_p:")
    print(" ", " ".join(str(p) for p in s["primes"]))
    verdict = "matches" if s["match"] else "DOES NOT match"
    print(f"{verdict} the Monster primes in range: "
          + " ".join(str(p) for p in s["monster_primes_in_range"]))


def _print_sqrt3(s: dict) -> None:
    print(f"checked {s['primes_checked']} primes 3 < p <= {s['max']}: "
          f"sqrt(3) exists mod p iff p = +-1 mod 12 "
          f"({'no exceptions' if not s['exceptions'] else s['exceptions']})")


def _print_forms(s: dict) -> None:
    print(f"E_{s['weight']} to q-precision {s['prec']}:")
    for n, c in enumerate(s["eisenstein_q"]):
        print(f"  q^{n}: {c}")


def _print_verify_all(s: dict) -> None:
    print("degree formula        OK  primes",
          f"5..{s['degree_formula']['primes'][-1]}")
    print("three-method j-sets   OK  (point count through p <= 31)")
    print("spot loci 7/11/13     OK")
    for p, d in s["deligne"].items():
        print(f"deligne p={p:<3}         OK  {d['curves_checked']} curves")
    print(f"gross-landweber       OK  power-of-12 offset "
          f"{s['gross_landweber_power_of_12']}")
    print("witt layer            OK  N in {1,5,10}")
    sp = s["splitting"]["primes"]
    print(f"splitting             OK  primes 5..{sp[-1] if sp else '-'}, "
          f"N = {s['splitting']['precision']}")
    print("ogg scan              OK ", " ".join(map(str, s["ogg"]["primes"])))
    print(f"sqrt3 exercise        OK  {s['sqrt3']['primes_checked']} primes")
    print("q-identities          OK  eta24 at prec 200, j leading terms")


# --- argument parsing and dispatch ---


#: Every command by its words: its one-line help and its flags, each
#: mapped to its default (None: the flag is required).  Every command
#: also takes --json and -h/--help; "verify" and "scan" (flags None)
#: only group the commands under them.
COMMANDS = {
    ("ss",): (f"supersingular locus (cross-validated; "
              f"p <= {MAX_EISENSTEIN_PRIME})", {"prime": None}),
    ("hasse",): (f"Deuring lambda-polynomial and its roots "
                 f"(p <= {MAX_DEURING_PRIME})", {"prime": None}),
    ("lift",): (f"Teichmuller-lifted supersingular polynomial "
                f"(p <= {MAX_EISENSTEIN_PRIME}, N <= {MAX_LIFT_PRECISION})",
                {"prime": None, "precision": DEFAULT_PRECISION}),
    ("split",): (f"idempotent splitting mod (p^N, S_p-hat) "
                 f"(p <= {MAX_SPLIT_PRIME}, N <= {MAX_SPLIT_PRECISION})",
                 {"prime": None, "precision": DEFAULT_PRECISION}),
    ("formal",): (f"[p]-series and v1/v2 of one curve "
                  f"(p <= {MAX_FORMAL_PRIME})",
                  {"prime": None, "a4": None, "a6": None}),
    ("verify",): ("verification suites", None),
    ("verify", "deligne"): (f"v1 three ways on every curve (p in "
                            f"{', '.join(map(str, _VERIFY_PRIMES))})",
                            {"prime": None}),
    ("verify", "gross-landweber"): (
        f"v2 at every supersingular j (p in "
        f"{', '.join(map(str, _VERIFY_PRIMES))})", {"prime": None}),
    ("verify", "all"): ("the full verification suite (max >= 5)",
                        {"max": MAX_EISENSTEIN_PRIME}),
    ("scan",): ("per-prime scans", None),
    ("scan", "ogg"): (f"Ogg primes against the Monster primes "
                      f"(5 <= max <= {MAX_OGG_SCAN})", {"max": None}),
    ("scan", "sqrt3"): (f"sqrt(3) mod p against the mod-12 rule "
                        f"(5 <= max <= {MAX_SQRT3_SCAN})", {"max": None}),
    ("forms",): (f"exact Eisenstein q-expansion (even weight "
                 f"4..{modforms.MAX_BERNOULLI}, prec 1..{MAX_FORMS_PREC})",
                 {"weight": None, "prec": 10}),
}

_HELP_FLAGS = ("-h", "--help")
#: A token that looks like a negative number is a value, not a flag
#: ("$" also matches before a final newline, so "-7\n" is a value too).
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(words: tuple) -> str:
    flags = COMMANDS.get(words, ("", None))[1]
    if flags is None:
        tail = "{" + ",".join(w[-1] for w in COMMANDS
                              if w[:-1] == words) + "} ..."
    else:
        tail = "[--json]" + "".join(
            f" --{n} {n.upper()}" if d is None else f" [--{n} {n.upper()}]"
            for n, d in flags.items())
    return f"usage: {' '.join(('ellwitt',) + words)} [-h] {tail}\n"


def _help(words: tuple) -> str:
    text, flags = COMMANDS.get(words, (__doc__, None))
    if flags is None:
        title = "commands:"
        rows = [(" ".join(w), COMMANDS[w][0]) for w in COMMANDS
                if w[:len(words)] == words and w != words]
    else:
        title = "flags:"
        rows = [(f"--{n} {n.upper()}",
                 "required" if d is None else f"default {d}")
                for n, d in flags.items()]
        rows.append(("--json", "emit the JSON report instead of a table"))
    rows.append(("-h, --help", "show this help and exit"))
    out = [_usage(words), text.strip(), "", title]
    out += [f"  {n:<24}{h}" for n, h in rows]
    out += ["", "A flag takes its value as --flag V or --flag=V, and a "
            "unique prefix\nof its name will do."]
    return "\n".join(out) + "\n"


def _option(token: str, options: tuple):
    """Read `token` as argparse did: None for a value, else (the option
    it names, or None for an unknown one; the value after "=" or None).
    A unique prefix of a long option names it."""
    if not token.startswith("-") or token == "-":
        return None
    if token in options:
        return token, None
    prefix, eq, value = token.partition("=")
    if eq and prefix in options:
        return prefix, value
    if token[1] == "-":
        hits = [o for o in options if o.startswith(prefix)]
        explicit = value if eq else None
    else:   # -hx reads as -h with the value x
        hits = ["-h"] if token[:2] == "-h" else []
        explicit = token[2:]
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {token} could match "
                         f"{', '.join(hits)}")
    if hits:
        return hits[0], explicit
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def parse_args(argv=None):
    """The namespace `_dispatch` reads from a command line, or None once
    help is printed on stdout.  Raises UsageError, carrying the usage
    line, for a command line that does not parse."""
    rest = list(sys.argv[1:] if argv is None else argv)
    words, values, extras = (), {}, []
    try:
        while True:     # once per command word, then for the flags
            flags = COMMANDS.get(words, ("", None))[1]
            options = _HELP_FLAGS
            if flags is not None:
                options += ("--json",) + tuple("--" + n for n in flags)
                values.update(flags, json=False)
            end = rest.index("--") if "--" in rest else len(rest)
            kinds = [_option(token, options) for token in rest[:end]]
            j = 0
            # a command word ends the options of the level above it
            while j < end and (flags is not None or kinds[j] is not None):
                token, opt = rest[j], kinds[j]
                j += 1
                if opt is None or opt[0] is None:
                    extras.append(token)
                    continue
                name, explicit = opt
                # -hh and -h=hh are -h twice; any other value after -h
                # or --help is an error
                if name in _HELP_FLAGS and (explicit is None or (
                        name == "-h" and explicit
                        and not explicit.strip("h"))):
                    sys.stdout.write(_help(words))
                    return None
                if name in _HELP_FLAGS or name == "--json":
                    if explicit is not None:
                        raise UsageError(f"argument {name}: ignored "
                                         f"explicit argument {explicit!r}")
                    values["json"] = True
                    continue
                if explicit is None:
                    if j == end or kinds[j] is not None:
                        raise UsageError(f"argument {name}: expected one "
                                         f"argument")
                    explicit = rest[j]
                    j += 1
                try:
                    values[name[2:]] = int(explicit)
                except ValueError:
                    raise UsageError(f"argument {name}: invalid int value: "
                                     f"{explicit!r}") from None
            if flags is not None:
                break
            dest = f"{words[0]}_what" if words else "command"
            if j == len(rest):
                raise UsageError(
                    f"the following arguments are required: {dest}")
            if words + (rest[j],) not in COMMANDS:
                raise UsageError(f"argument {dest}: invalid choice: "
                                 f"{rest[j]!r}")
            values[dest] = rest[j]
            words += (rest[j],)
            rest = rest[j + 1:]
        extras += rest[end:]
        missing = [f"--{n}" for n in flags if values[n] is None]
        if missing:
            raise UsageError(f"the following arguments are required: "
                             f"{', '.join(missing)}")
        if extras:
            raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    except UsageError as exc:
        raise UsageError(str(exc), _usage(words)) from None
    return SimpleNamespace(**values)


def _dispatch(args):
    report = Report()
    t0 = time.perf_counter()
    if args.command == "ss":
        _require_prime(args.prime, MAX_EISENSTEIN_PRIME, "ss")
        report.prime = args.prime
        report.sections["ss_locus"] = ss_section(args.prime)
        printer = _print_ss
    elif args.command == "hasse":
        _require_prime(args.prime, MAX_DEURING_PRIME, "hasse")
        report.prime = args.prime
        report.sections["hasse"] = hasse_section(args.prime)
        printer = _print_hasse
    elif args.command == "lift":
        _require_prime(args.prime, MAX_EISENSTEIN_PRIME, "lift")
        if not 1 <= args.precision <= MAX_LIFT_PRECISION:
            raise UsageError(
                f"lift: enforced bound is 1 <= N <= {MAX_LIFT_PRECISION}")
        report.prime, report.precision = args.prime, args.precision
        report.sections["lift"] = lift_section(args.prime, args.precision)
        printer = _print_lift
    elif args.command == "split":
        _require_prime(args.prime, MAX_SPLIT_PRIME, "split")
        if not 1 <= args.precision <= MAX_SPLIT_PRECISION:
            raise UsageError(
                f"split: enforced bound is 1 <= N <= {MAX_SPLIT_PRECISION}")
        report.prime, report.precision = args.prime, args.precision
        report.sections["split"] = split_section(args.prime, args.precision)
        printer = _print_split
    elif args.command == "formal":
        _require_prime(args.prime, MAX_FORMAL_PRIME, "formal")
        if formalgroup.has_bad_reduction(
                WCurve.short(QQ, args.a4, args.a6), args.prime):
            raise UsageError(
                f"formal: curve has bad reduction at {args.prime}")
        report.prime = args.prime
        report.sections["formal"] = formal_section(
            args.prime, args.a4, args.a6)
        printer = _print_formal
    elif args.command == "verify" and args.verify_what == "deligne":
        if args.prime not in _VERIFY_PRIMES:
            raise UsageError(
                f"verify deligne: enforced range is p in {_VERIFY_PRIMES}")
        report.prime = args.prime
        report.sections["deligne"] = deligne_section(args.prime)
        printer = _print_deligne
    elif args.command == "verify" and args.verify_what == "gross-landweber":
        if args.prime not in _VERIFY_PRIMES:
            raise UsageError(f"verify gross-landweber: enforced range is "
                             f"p in {_VERIFY_PRIMES}")
        report.prime = args.prime
        report.sections["gross_landweber"] = gl_section(args.prime)
        printer = _print_gl
    elif args.command == "verify" and args.verify_what == "all":
        if args.max < 5:
            raise UsageError(
                f"verify all: enforced bound is max >= 5, got {args.max}")
        report.sections["verify_all"] = verify_all_section(args.max)
        printer = _print_verify_all
    elif args.command == "scan" and args.scan_what == "ogg":
        if args.max < 5:
            raise UsageError(
                f"scan ogg: enforced bound is max >= 5, got {args.max}")
        if args.max > MAX_OGG_SCAN:
            raise UsageError(f"scan ogg: enforced bound is max <= "
                             f"{MAX_OGG_SCAN}, got {args.max}")
        report.sections["ogg"] = ogg_section(args.max)
        printer = _print_ogg
    elif args.command == "scan" and args.scan_what == "sqrt3":
        if args.max < 5:
            raise UsageError(
                f"scan sqrt3: enforced bound is max >= 5, got {args.max}")
        if args.max > MAX_SQRT3_SCAN:
            raise UsageError(f"scan sqrt3: enforced bound is max <= "
                             f"{MAX_SQRT3_SCAN}, got {args.max}")
        report.sections["sqrt3"] = sqrt3_section(args.max)
        printer = _print_sqrt3
    elif args.command == "forms":
        if args.weight < 4 or args.weight % 2:
            raise UsageError("forms: --weight must be even and >= 4")
        if args.weight > modforms.MAX_BERNOULLI:
            raise UsageError(f"forms: enforced bound is weight <= "
                             f"{modforms.MAX_BERNOULLI}")
        if args.prec < 1:
            raise UsageError(
                f"forms: enforced bound is prec >= 1, got {args.prec}")
        if args.prec > MAX_FORMS_PREC:
            raise UsageError(f"forms: enforced bound is prec <= "
                             f"{MAX_FORMS_PREC}, got {args.prec}")
        report.sections["forms"] = forms_section(args.weight, args.prec)
        printer = _print_forms
    else:  # pragma: no cover - parse_args prevents this
        raise UsageError(f"unknown command {args.command}")
    section_name = next(iter(report.sections))
    report.timings[section_name] = round(
        (time.perf_counter() - t0) * 1000, 3)
    return report, printer


def main(argv=None) -> int:
    """Process entry point: run one command and return its exit code.

    It first freezes the heap (`gc.freeze`), so neither this run's
    collections nor the interpreter's teardown at exit walk or free the
    start-up objects the OS reclaims anyway.
    """
    gc.freeze()
    try:
        args = parse_args(argv)
        if args is None:    # help was printed
            return 0
        report, printer = _dispatch(args)
    except UsageError as exc:
        print(f"{exc.usage}ellwitt: error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"VALIDATION FAILURE: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # arguments are checked above as UsageError; this is a bug
        print(f"ellwitt: internal error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        printer(next(iter(report.sections.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
