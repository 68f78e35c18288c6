"""The ellwitt command line: one addressable subcommand per verifiable
claim, JSON reports, and the one-shot verification suite.

Exit codes: 0 success, 1 usage error (including out-of-range arguments),
2 validation failure (two methods disagree — the printed counterexample
names the prime, the curve and the methods involved), an internal error
or a report that cannot be written (a closed pipe, a full disk).
"""

import gc
import os
import sys
import time
from math import gcd
from types import SimpleNamespace

from . import cache, formalgroup, modforms, padicwitt, sslocus
from .arith import has_sqrt3, is_prime, record
from .errors import ValidationError
from .formalgroup import MAX_FORMAL_PRIME
from .padicwitt import (
    MAX_LIFT_PRECISION,
    MAX_SPLIT_PRECISION,
    MAX_SPLIT_PRIME,
)
from .polyseries import _mul
from .report import Report, padic_digits
from .sslocus import (
    MAX_CROSS_VALIDATE_PRIME,
    MAX_DEURING_PRIME,
    MAX_OGG_SCAN,
    MONSTER_PRIMES,
)

DEFAULT_PRECISION = 10
MAX_FORMS_PREC = 1000
MAX_SQRT3_SCAN = 10 ** 6
_SPOT_LOCI = {7: [[6, 0]], 11: [[0, 0], [1, 0]], 13: [[5, 0]]}


class UsageError(Exception):
    """A bad argument.  `usage` is the command's usage line, printed
    above the error when the command line itself did not parse."""

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


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
        "j_values": [[z.a, z.b] for z in locus.j_values],
        "ss_poly": locus.ss_poly,
        "ss_poly_str": _poly_str(locus.ss_poly),
        "point_count_checked": "point-count" in locus.routes,
    }
    cache.store("ss", key, payload)
    return payload


def hasse_section(p: int) -> dict:
    H = sslocus.hasse_polynomial(p)
    return {
        "prime": p,
        "degree": len(H) - 1,
        "hasse_poly": H,
        "lambda_roots": [[z.a, z.b] for z in
                         sslocus.sorted_j(sslocus.hasse_roots(p).lambdas)],
        "j_images": [[z.a, z.b]
                     for z in sslocus.sorted_j(sslocus.ss_j_deuring(p))],
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
    if formalgroup.has_bad_reduction((a4, a6), p):
        raise UsageError(f"formal: curve has bad reduction at {p}")
    a = (a4 % p, a6 % p)
    ps = formalgroup.mult_by_p_series(a, p)
    v1, v2 = formalgroup.heights_from_series(a, p, ps)
    return {
        "prime": p,
        "a4": a[0],
        "a6": a[1],
        "v1": v1,
        "v2": v2,
        "supersingular": v2 is not None,
        "series_mod_p": [0] + [c % p for c in ps[:p * p]],
        "series_rational": ["0"] + [str(c) for c in ps[:p * p]],
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
        # verify_gross_landweber raises on a mismatch
        "curves": [{"j": e.j, "a4": e.a4, "a6": e.a6, "v2": e.v2,
                    "predicted": e.predicted, "match": True}
                   for e in r.entries],
        "all_match": True,
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
    if k % 2:
        raise UsageError(f"forms: --weight must be even, got {k}")
    den, nums = modforms.eisenstein_q(k, prec)
    return {
        "weight": k,
        "prec": prec,
        "eisenstein_q": [_ratio(a, den) for a in nums],
    }


def _ratio(a: int, b: int) -> str:
    """a/b, b > 0, in lowest terms: "a" when b divides a, else "a/b"."""
    g = gcd(a, b)
    return str(a // g) if g == b else f"{a // g}/{b // g}"


def _q_identities_section() -> dict:
    prec = 200
    (d4, e4), (d6, e6) = (modforms.eisenstein_q(k, prec) for k in (4, 6))
    if (d4, d6) != (1, 1):
        raise ValidationError("E4 or E6 has a non-integral q-coefficient")
    lhs = [a - b for a, b in zip(_mul(_mul(e4, e4, prec), e4, prec),
                                 _mul(e6, e6, prec))]
    rhs = [1728 * c for c in modforms.eta24_q(prec)]
    if lhs != rhs:
        raise ValidationError(
            "E4^3 - E6^2 != 1728 * eta^24 at q-precision 200")
    if modforms.j_q(4)[:3] != [1, 744, 196884]:
        raise ValidationError("j-expansion leading terms are wrong")
    return {"eta24_prec": prec, "delta_identity": True,
            "j_leading_terms": [1, 744, 196884]}


def verify_all_section(p_max: int) -> dict:
    out = {}
    cv_max = min(p_max, MAX_CROSS_VALIDATE_PRIME)
    primes = sslocus._primes_in(5, cv_max)
    point_count_primes = []
    for p in primes:
        locus = sslocus.cross_validate(p)   # raises on any disagreement
        if "point-count" in locus.routes:
            point_count_primes.append(p)
        deu = sum(z.in_prime_field for z in locus.j_values)
        scan = sslocus.rational_ss_count(p)
        if deu != scan:
            raise ValidationError(
                f"p={p}: {deu} F_p-rational supersingular j by Deuring, "
                f"{scan} by the Ogg scan count")
    out["degree_formula"] = {"primes": primes, "ok": True}
    out["three_method_agreement"] = {
        "primes": primes,
        "point_count_primes": point_count_primes,
        "ok": True,
    }
    for p, want in _SPOT_LOCI.items():
        if p > cv_max:
            continue
        got = [[z.a, z.b] for z in sslocus.cross_validate(p).j_values]
        if got != want:
            raise ValidationError(f"spot locus at p={p}: {got} != {want}")
    out["spot_values"] = {"ok": True}
    formal_primes = sslocus._primes_in(5, min(p_max, MAX_FORMAL_PRIME))
    out["deligne"] = {str(p): deligne_section(p) for p in formal_primes}
    out["gross_landweber"] = {str(p): gl_section(p) for p in formal_primes}
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


def _poly_str(f: list, var: str = "X") -> str:
    """An ascending int list as a polynomial in var, highest degree
    first, zero terms left out and a coefficient 1 not written."""
    terms = [(c, "" if i == 0 else var if i == 1 else f"{var}^{i}")
             for i, c in enumerate(f) if c]
    return " + ".join(f"{c}" if not x else x if c == 1 else f"{c}*{x}"
                      for c, x in reversed(terms)) or "0"


def _fq2_list(pairs) -> str:
    return ", ".join(f"{a}" if b == 0 else f"{a}+{b}x" for a, b in pairs)


def _print_ss(s: dict) -> None:
    print(f"p = {s['prime']}   sigma = {s['sigma']}   "
          f"all j in F_p: {'yes' if s['all_rational'] else 'no'}")
    print(f"supersingular j-values: {_fq2_list(s['j_values'])}")
    print(f"ss polynomial: {s['ss_poly_str']}")
    methods = " = ".join(r.name for r in sslocus.admitted_routes(s["prime"]))
    print(f"methods agree: {methods}")


def _print_hasse(s: dict) -> None:
    print(f"p = {s['prime']}   degree {s['degree']}")
    print("hasse polynomial:", _poly_str(s["hasse_poly"], "L"))
    print(f"lambda roots in F_p^2: {_fq2_list(s['lambda_roots'])}")
    print(f"j images: {_fq2_list(s['j_images'])}")


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
        print(f"  OK  j={c['j']}: v2={c['v2']} predicted={c['predicted']}")
    print("all match: yes")


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
    pc = s["three_method_agreement"]["point_count_primes"]
    print(f"three-method j-sets   OK  (point count through p <= {pc[-1]})")
    spots = [str(p) for p in _SPOT_LOCI if p in s["degree_formula"]["primes"]]
    print(f"{'spot loci ' + ('/'.join(spots) or '-'):<22}OK")
    for p, d in s["deligne"].items():
        print(f"deligne p={p:<3}         OK  {d['curves_checked']} curves")
    print("gross-landweber       OK  p =",
          ", ".join(s["gross_landweber"]))
    print("witt layer            OK  N in {1,5,10}")
    sp = s["splitting"]["primes"]
    print(f"splitting             OK  primes 5..{sp[-1] if sp else '-'}, "
          f"N = {s['splitting']['precision']}")
    print("ogg scan              OK ", " ".join(map(str, s["ogg"]["primes"])))
    print(f"sqrt3 exercise        OK  {s['sqrt3']['primes_checked']} primes")
    print("q-identities          OK  eta24 at prec 200, j leading terms")


# --- argument parsing and dispatch ---


#: One integer flag: its default (None: the flag is required) and its
#: least and greatest values (None: no bound on that side).
Flag = record("Flag", "default lo hi")

#: One command: its one-line help, which may show its flags' bounds
#: ("{prime.hi}"); its flags by name; the report section it fills, the
#: builder called with the flag values in order and the section's
#: printer.  A group ("verify", "scan") has only its help.
Command = record("Command", "help flags section build show",
                 defaults=(None,) * 4)

#: Every command by its words.  Every command also takes --json and
#: -h/--help.
COMMANDS = {
    ("ss",): Command(
        "supersingular locus (cross-validated; p <= {prime.hi})",
        {"prime": Flag(None, 5, MAX_CROSS_VALIDATE_PRIME)},
        "ss_locus", ss_section, _print_ss),
    ("hasse",): Command(
        "Deuring lambda-polynomial and its roots (p <= {prime.hi})",
        {"prime": Flag(None, 5, MAX_DEURING_PRIME)},
        "hasse", hasse_section, _print_hasse),
    ("lift",): Command(
        "Teichmuller-lifted supersingular polynomial "
        "(p <= {prime.hi}, N <= {precision.hi})",
        {"prime": Flag(None, 5, MAX_CROSS_VALIDATE_PRIME),
         "precision": Flag(DEFAULT_PRECISION, 1, MAX_LIFT_PRECISION)},
        "lift", lift_section, _print_lift),
    ("split",): Command(
        "idempotent splitting mod (p^N, S_p-hat) "
        "(p <= {prime.hi}, N <= {precision.hi})",
        {"prime": Flag(None, 5, MAX_SPLIT_PRIME),
         "precision": Flag(DEFAULT_PRECISION, 1, MAX_SPLIT_PRECISION)},
        "split", split_section, _print_split),
    ("formal",): Command(
        "[p]-series and v1/v2 of one curve (p <= {prime.hi})",
        {"prime": Flag(None, 5, MAX_FORMAL_PRIME),
         "a4": Flag(None, None, None), "a6": Flag(None, None, None)},
        "formal", formal_section, _print_formal),
    ("verify",): Command("verification suites"),
    ("verify", "deligne"): Command(
        "v1 three ways on every curve (p <= {prime.hi})",
        {"prime": Flag(None, 5, MAX_FORMAL_PRIME)},
        "deligne", deligne_section, _print_deligne),
    ("verify", "gross-landweber"): Command(
        "v2 at every supersingular j (p <= {prime.hi})",
        {"prime": Flag(None, 5, MAX_FORMAL_PRIME)},
        "gross_landweber", gl_section, _print_gl),
    ("verify", "all"): Command(
        "the full verification suite (max >= {max.lo})",
        {"max": Flag(MAX_CROSS_VALIDATE_PRIME, 5, None)},
        "verify_all", verify_all_section, _print_verify_all),
    ("scan",): Command("per-prime scans"),
    ("scan", "ogg"): Command(
        "Ogg primes against the Monster primes "
        "({max.lo} <= max <= {max.hi})",
        {"max": Flag(None, 5, MAX_OGG_SCAN)},
        "ogg", ogg_section, _print_ogg),
    ("scan", "sqrt3"): Command(
        "sqrt(3) mod p against the mod-12 rule "
        "({max.lo} <= max <= {max.hi})",
        {"max": Flag(None, 5, MAX_SQRT3_SCAN)},
        "sqrt3", sqrt3_section, _print_sqrt3),
    ("forms",): Command(
        "exact Eisenstein q-expansion (even weight "
        "{weight.lo}..{weight.hi}, prec {prec.lo}..{prec.hi})",
        {"weight": Flag(None, 4, modforms.MAX_EISENSTEIN_WEIGHT),
         "prec": Flag(10, 1, MAX_FORMS_PREC)},
        "forms", forms_section, _print_forms),
}

_HELP_FLAGS = ("-h", "--help")


def _summary(row: Command) -> str:
    """The row's one-line help with its flags' bounds filled in."""
    return row.help if row.flags is None else row.help.format_map(row.flags)


def _usage(words: tuple) -> str:
    flags = COMMANDS.get(words, Command("")).flags
    if flags is None:
        tail = "{" + ",".join(w[-1] for w in COMMANDS
                              if w[:-1] == words) + "} ..."
    else:
        tail = "[--json]" + "".join(
            f" --{n} {n.upper()}" if f.default is None
            else f" [--{n} {n.upper()}]" for n, f in flags.items())
    return f"usage: {' '.join(('ellwitt',) + words)} [-h] {tail}\n"


def _help(words: tuple) -> str:
    row = COMMANDS.get(words, Command(__doc__))
    if row.flags is None:
        title = "commands:"
        rows = [(" ".join(w), _summary(c)) for w, c in COMMANDS.items()
                if w[:len(words)] == words and w != words]
    else:
        title, rows = "flags:", []
        for n, f in row.flags.items():
            text = "required" if f.default is None else f"default {f.default}"
            if f.lo is not None or f.hi is not None:
                lo = "" if f.lo is None else f"{f.lo} <= "
                hi = "" if f.hi is None else f" <= {f.hi}"
                text += f", {lo}{n.upper()}{hi}"
            rows.append((f"--{n} {n.upper()}", text))
        rows.append(("--json", "emit the JSON report instead of a table"))
    rows.append(("-h, --help", "show this help and exit"))
    out = [_usage(words), _summary(row).strip(), "", title]
    out += [f"  {n:<24}{h}" for n, h in rows]
    out += ["", "A flag takes its value as --flag V or --flag=V, and a "
            "unique prefix\nof its name will do."]
    return "\n".join(out) + "\n"


def _negative_number(token: str) -> bool:
    r"""Whether argparse's ^-\d+$|^-\d*\.\d+$ matches `token`: a token
    that looks like a negative number is a value, not a flag."""
    # "$" also matches before a final newline, so "-7\n" is a value too;
    # \d is a Unicode decimal digit, which is what str.isdecimal tests
    number = token.removesuffix("\n")
    return (number[:1] == "-" and not number.endswith(".")
            and number[1:].replace(".", "0", 1).isdecimal())


def _option(token: str, options: tuple):
    """Read `token` as argparse did: None for a value, else (the option
    it names, or None for an unknown one; the value after "=" or None).
    A unique prefix of a long option names it."""
    if not token.startswith("-") or token == "-" or _negative_number(token):
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
    if " " in token:
        return None
    return None, None


def parse_args(argv=None):
    """The namespace `_dispatch` reads from a command line, or the help
    text for -h or --help.  Raises UsageError, carrying the usage line,
    for a command line that does not parse."""
    rest = list(sys.argv[1:] if argv is None else argv)
    words, values, extras = (), {}, []
    try:
        while True:     # once per command word, then for the flags
            flags = COMMANDS.get(words, Command("")).flags
            options = _HELP_FLAGS
            if flags is not None:
                options += ("--json",) + tuple("--" + n for n in flags)
                values.update({n: f.default for n, f in flags.items()},
                              json=False)
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
                    return _help(words)
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


def _require(what: str, name: str, value: int, flag: Flag) -> None:
    """Raise UsageError unless `value` is within the flag's bounds and,
    for --prime, a prime.  The bounds come first: Miller-Rabin on a huge
    p takes seconds."""
    shown = "p" if name == "prime" else name
    if flag.lo is not None and value < flag.lo:
        raise UsageError(
            f"{what}: enforced bound is {shown} >= {flag.lo}, got {value}")
    if flag.hi is not None and value > flag.hi:
        raise UsageError(
            f"{what}: enforced bound is {shown} <= {flag.hi}, got {value}")
    if name == "prime" and not is_prime(value):
        raise UsageError(f"{what}: --prime must be a prime, got {value}")


def _dispatch(args):
    sub = getattr(args, f"{args.command}_what", None)
    words = (args.command,) if sub is None else (args.command, sub)
    row = COMMANDS[words]
    values = [getattr(args, n) for n in row.flags]
    for (name, flag), value in zip(row.flags.items(), values):
        _require(" ".join(words), name, value, flag)
    report = Report()
    report.prime = getattr(args, "prime", None)
    report.precision = getattr(args, "precision", None)
    t0 = time.perf_counter()
    report.sections[row.section] = row.build(*values)
    report.timings[row.section] = round(
        (time.perf_counter() - t0) * 1000, 3)
    return report, row.show


def main(argv=None) -> int:
    """Process entry point: run one command and return its exit code.

    It first freezes the heap (`gc.freeze`), so neither this run's
    collections nor the interpreter's teardown at exit walk or free the
    start-up objects the OS reclaims anyway.
    """
    gc.freeze()
    try:
        args = parse_args(argv)
        if not isinstance(args, str):   # a str is the help text
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
    try:
        if isinstance(args, str):
            sys.stdout.write(args)
        elif args.json:
            sys.stdout.write(report.to_json())
        else:
            printer(next(iter(report.sections.values())))
        sys.stdout.flush()
    except OSError as exc:  # stdout to devnull: the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"ellwitt: cannot write the report: {exc.strerror}",
                  file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
