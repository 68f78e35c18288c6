"""Formal group of a short Weierstrass curve y^2 = x^3 + a4 x + a6 in
the parameter t = -x/y: the multiplication-by-p series, extraction of
the height invariants v1/v2, and the exhaustive Deligne and
Gross-Landweber verifications.  Curves are short because p > 3: 6 is
then a unit, and every curve has such a model (Silverman, AEC III.1).

The formal group law of an integral model has integral coefficients, so
[p](t) is computed in Z[[t]] on plain int lists, from the model as the
int pair (a4, a6) to the series as a tuple of ints: the point (t, w(t))
is multiplied by p with tangent doublings and chord additions, and every
series division must be exact, which certifies integrality.  The
formal group is weighted-homogeneous (a4 of weight 4, a6 of weight 6,
t of weight -1: Silverman, AEC IV.1), so z(t) lies in t*Z[[t^g]] and
w(t) in t^3*Z[[t^g]] for g the gcd of the weights of the nonzero
coefficients: 2 when a4 a6 != 0, 4 at j = 1728 (a6 = 0), 6 at j = 0
(a4 = 0).  The chain carries the class: each of its series is a pair
(r, c) of a class r and the dense list c of the coefficients on
r + g*Z, which the int-list kernels of polyseries multiply and divide,
so no kernel reads a class off a list.  The formal log/exp route,
[p](t) = exp(p * log(t)) over exact rationals, computes the same series
and is kept as the test oracle in tests/oracles.py; formal_expansion is
its first step.
v1 needs only precision p+1; the full p^2+1 window is expanded
only when v1 = 0 (the supersingular case, where the height-2 assertions
and v2 live).

A curve over F_p is an int pair (a4, a6) as well, read mod p: v1 and
v2, the classical Hasse coefficient and the Deligne and Gross-Landweber
checks all run on ints mod p and build no ring object.
"""

from itertools import compress
from math import comb, gcd
from operator import add, mul

from .arith import record, require_prime
from .errors import PrecisionError, ValidationError
from .polyseries import QSeries, _div, _mul
from . import modforms, sslocus

MAX_FORMAL_PRIME = 13
MAX_EXPANSION_PREC = 200


def _c4_c6_disc(a4, a6) -> tuple:
    """c4, c6 and the discriminant of y^2 = x^3 + a4 x + a6, for
    coefficients of any ring whose elements multiply with ints, plain
    ints included."""
    return -48 * a4, -864 * a6, -16 * (4 * a4 * a4 * a4 + 27 * a6 * a6)


def _curve_str(a, p: int) -> str:
    """The curve y^2 = x^3 + a4 x + a6 over F_p, for ints a = (a4, a6),
    as the error messages print it."""
    a4, a6 = (c % p for c in a)
    return f"y^2 = x^3 + {a4} (mod {p})*x + {a6} (mod {p})"


def curve_from_j(j: int, p: int) -> tuple:
    """(a4, a6) in [0, p) of a short Weierstrass model over F_p with
    j-invariant j mod p: y^2 = x^3 + 3k x + 2k with k = j/(1728 - j)
    away from j in {0, 1728}; y^2 = x^3 + 1 at j = 0 and y^2 = x^3 + x
    at j = 1728."""
    j %= p
    if j == 0:
        return 0, 1
    if j == 1728 % p:
        return 1, 0
    k = j * pow(1728 - j, -1, p)
    return 3 * k % p, 2 * k % p


def _w_coeffs(coeffs, P: int, zero, one) -> list:
    """The first P coefficients of w(t) = t^3 + ..., the solution of
    w = t^3 + a4 t w^2 + a6 w^3 by its fixed-point recurrence, for
    coeffs = (a4, a6).  Works over any coefficient ring whose zero and
    one are given, plain ints included.

    The t^n coefficient of w is a polynomial of weight n - 3 in a4 and
    a6 (of weights 4 and 6), so it vanishes unless g divides n - 3,
    where g is 2, 4 or 6, the gcd of the weights of the nonzero
    coefficients; those of w^2 and w^3 sit at 6 and 9 mod g.  Only
    those classes are computed, and w^2 at half the products, as in
    polyseries._mul."""
    a4, a6 = coeffs
    w = [zero] * P
    w2 = [zero] * P
    w3 = [zero] * P
    g = gcd(*compress((4, 6), coeffs)) or P
    if P > 3:
        w[3] = one
    for n in range(3 + g, P, g):
        # the one index of w^2's class in (n - g, n], the sum over the
        # terms w[i] w[m - i] of w's class, each pair i < m - i once
        m = n - (-3 % g)
        ws = w[3:m - 2:g]
        h = len(ws) // 2
        s = sum(map(mul, ws[:h], ws[::-1]), zero)
        w2[m] = s + s + ws[h] * ws[h] if len(ws) % 2 else s + s
        if a6:
            w3[n] = sum(map(mul, w[3:n - 5:g], w2[n - 3:5:-g]), zero)
        acc = zero
        if a4:
            acc = acc + a4 * w2[n - 1]
        if a6:
            acc = acc + a6 * w3[n]
        w[n] = acc
    return w


def formal_expansion(E, prec: int):
    """(x(t), y(t), omega(t)) as Laurent/power series in t = -x/y, for
    a curve E with coefficients E.a4, E.a6 in the ring E.ring.

    w(t) = t^3 + ... solves the defining fixed-point equation; then
    x = t/w, y = -1/w and omega = x'/(2y), normalized to 1 + O(t).
    omega carries abs precision prec; x and y slightly less.
    """
    if prec > MAX_EXPANSION_PREC:
        raise ValueError(f"expansion precision capped at "
                         f"{MAX_EXPANSION_PREC}, got {prec}")
    ring = E.ring
    P = prec + 3
    w = _w_coeffs((E.a4, E.a6), P, ring.zero(), ring.one())
    winv = QSeries(ring, 3, w[3:]).inverse()
    x = winv.shift(1)
    y = -winv
    omega = x.derivative() * (ring.from_int(2) * y).inverse()
    return x, y, omega


# The chain below runs in Z[[t]] at a precision n that each addition
# lowers by one, on one stride g, the gcd of the weights (see the module
# docstring).  A chain series is a pair (r, c) for sum c[k] t^(r + g*k),
# c holding its terms of t-degree below n as a dense list that
# polyseries._mul and _div take: products add classes and a combination
# aligns its terms on the least class.  t = (1, [1]) and the constant
# _ONE are exact one-term pairs, so a product with one is a scaled copy.

_ONE = (0, [1])


def _lin(g: int, n: int, *terms) -> tuple:
    """sum(c * s) over the (c, s) terms with c != 0, aligned on their
    least class; a term with c = 0 is not read, so its s may be None.
    Classes that differ mod g are an algebra bug."""
    terms = [t for t in terms if t[0]]
    r0 = min(r for _, (r, _) in terms)
    out = [0] * len(range(r0, n, g))
    for c, (r, s) in terms:
        d, off = divmod(r - r0, g)
        if off:
            raise ValidationError(
                f"chain series of classes {r0} and {r} differ mod {g}")
        cs = [c * x for x in s[:len(out) - d]]
        out[d:d + len(cs)] = map(add, out[d:], cs)
    return r0, out


def _prod(g: int, n: int, x: tuple, y: tuple) -> tuple:
    """x * y to precision n; a square when y is x."""
    (rx, a), (ry, b) = x, y
    r = rx + ry
    m = len(range(r, n, g))
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        out = [a[0] * v for v in b[:m]]
        return r, out + [0] * (m - len(out))
    return r, _mul(a, b, m)


def _over(g: int, x: tuple, d: tuple) -> tuple:
    """x / d for a divisor d of class 0: the quotient keeps x's class."""
    r, a = x
    return r, _div(a, d[1], r, g)


def _third_point(a, g, n, z1, w1, z2, lam, with_w=True):
    """P1 + P2 for points P1 = (z1, w1), P2 = (z2, .) on the line
    w = lam*z + nu: the line meets the curve again at P3, and
    P1 + P2 = -P3, with w None unless with_w."""
    a4, a6 = a
    nu = _lin(g, n, (1, w1), (-1, _prod(g, n, lam, z1)))
    l2 = _prod(g, n, lam, lam)
    l3 = _prod(g, n, lam, l2) if a6 else None
    # num = nu (2 a4 lam + 3 a6 lam^2) and den = 1 + a4 lam^2 + a6
    # lam^3: the z^2 and z^3 coefficients of the curve's equation
    # w = z^3 + a4 z w^2 + a6 w^3 restricted to the line
    num = _prod(g, n, nu, _lin(g, n, (2 * a4, lam), (3 * a6, l2)))
    den = _lin(g, n, (1, _ONE), (a4, l2), (a6, l3))
    # on a short curve, -(z, w) = (-z, -w)
    z = _lin(g, n, (1, z1), (1, z2), (1, _over(g, num, den)))
    if not with_w:
        return z, None
    return z, _lin(g, n, (-1, nu), (1, _prod(g, n, lam, z)))


def _double(a, g, n, z, w):
    """2P by the tangent at P = (z, w); the slope's denominator has
    constant term 1."""
    a4, a6 = a
    zz, ww = _prod(g, n, z, z), _prod(g, n, w, w)
    zw = _prod(g, n, z, w) if a4 else None
    num = _lin(g, n, (3, zz), (a4, ww))
    den = _lin(g, n, (1, _ONE), (-2 * a4, zw), (-3 * a6, ww))
    return _third_point(a, g, n, z, w, z, _over(g, num, den))


def _add(a, g, n, z1, w1, z2, w2, with_w):
    """P1 + P2 by the chord, for P1 = (t, w(t)) and P2 = [m]P1 with
    m > 1, from precision n + 1 to n: both slope terms are divided by t
    first, which shifts their classes 1 -> 0 and 3 -> 2, and the
    denominator then starts with 1 - m."""
    (rz, dz), (rw, dw) = (_lin(g, n + 1, (1, u), (-1, v))
                          for u, v in ((z1, z2), (w1, w2)))
    lam = _over(g, (rw - 1, dw), (rz - 1, dz))
    return _third_point(a, g, n, z1, w1, z2, lam, with_w)


def _mult_by_p_integral(a, p: int, prec: int) -> list:
    """Coefficients of t^0 .. t^prec of [p](t) in Z[[t]] for the
    integral coefficients a = (a4, a6) of y^2 = x^3 + a4 x + a6: an
    addition chain on the bits of p applied to the point (t, w(t)).
    p is odd, so the chain ends in an addition, whose w nothing reads."""
    bits = bin(p)[3:]
    n = prec + 1 + bits.count("1")
    g = gcd(*compress((4, 6), a))
    t, w = (1, [1]), (3, _w_coeffs(a, n, 0, 1)[3::g])
    z, wz = t, w
    for i, bit in enumerate(bits, 1):
        z, wz = _double(a, g, n, z, wz)
        if bit == "1":
            n -= 1
            z, wz = _add(a, g, n, t, w, z, wz, i < len(bits))
    if n < prec + 1:
        raise ValidationError(
            f"[p]-series kept {n} coefficients, {prec + 1} needed")
    out = [0] * n
    out[z[0]::g] = z[1]
    return out


def has_bad_reduction(a, p: int) -> bool:
    """Whether y^2 = x^3 + a4 x + a6, for ints a = (a4, a6), fails to
    have good reduction at p: its discriminant is 0 mod p (0 included)."""
    return _c4_c6_disc(*a)[2] % p == 0


def mult_by_p_series(a, p: int, prec: int | None = None) -> tuple:
    """[p](t) through t^prec, computed in Z[[t]], of y^2 = x^3 + a4 x + a6
    for any ints a = (a4, a6), as the tuple of the ints at t^1 .. t^prec.

    The formal group law of an integral model has integral coefficients,
    so [p](t) is built from the point (t, w(t)) by tangent doublings and
    chord additions on plain int series, every division exact (a
    remainder raises ValidationError).  The log/exp route over exact
    rationals in tests/oracles.py computes the same series and is the
    test oracle.  Default (and maximum) precision is p^2 + 1; p is
    capped at 13.
    """
    require_prime(p, "mult_by_p_series", MAX_FORMAL_PRIME)
    full = p * p + 1
    if prec is None:
        prec = full
    if not 2 <= prec <= full:
        raise ValueError(f"prec must be in [2, p^2+1] = [2, {full}]")
    if has_bad_reduction(a, p):
        raise ValueError(f"curve has bad reduction at {p}")
    coeffs = _mult_by_p_integral(a, p, prec)[1:]
    if coeffs[0] != p:
        raise ValidationError("[p]-series does not start with p*t")
    return tuple(coeffs)


def v_invariants(a, p: int) -> tuple:
    """(v1, v2) in [0, p) of y^2 = x^3 + a4 x + a6 over F_p, for ints
    a = (a4, a6), from the [p]-series of that integral model.

    v1 is read from the series at precision p+1; only when v1 = 0 (the
    supersingular case) is the full p^2+1 window computed for v2.  See
    ``heights_from_series`` for the assertions.
    """
    head = mult_by_p_series(a, p, prec=p + 1)
    if not head[p - 1] % p:
        head = mult_by_p_series(a, p)
    return heights_from_series(a, p, head)


def heights_from_series(a, p: int, series) -> tuple:
    """(v1, v2) in [0, p) of y^2 = x^3 + a4 x + a6 over F_p, for ints
    a = (a4, a6), read off [p](t) mod p, for series the ints at t^1,
    t^2, ... (mult_by_p_series).

    v1 is the t^p coefficient.  When v1 != 0 the coefficients below t^p
    are asserted to vanish and v2 is absent (None).  When v1 = 0 the
    series must reach t^(p^2): every coefficient below it is asserted
    to vanish mod p, and the unit v2 is returned.  Reading past the end
    of series raises PrecisionError.
    """
    def coeff(k):
        if k > len(series):
            raise PrecisionError(f"coefficient of t^{k} beyond precision "
                                 f"O(t^{len(series) + 1})")
        return series[k - 1] % p

    v1 = coeff(p)
    if v1:
        for k in range(2, p):
            if coeff(k):
                raise ValidationError(
                    f"ordinary curve {_curve_str(a, p)}: t^{k} coefficient "
                    f"nonzero mod {p} — [p] does not factor through "
                    f"Frobenius")
        return v1, None
    for k in range(1, p * p):
        if coeff(k):
            raise ValidationError(
                f"supersingular curve {_curve_str(a, p)}: t^{k} "
                f"coefficient nonzero mod {p} — [p] does not factor "
                f"through Frobenius^2")
    v2 = coeff(p * p)
    if not v2:
        raise ValidationError(
            f"supersingular curve {_curve_str(a, p)}: v2 is not a unit")
    return 0, v2


def classical_hasse(a, p: int) -> int:
    """Coefficient of x^(p-1) in (x^3 + a4 x + a6)^((p-1)/2) mod p, for
    ints a = (a4, a6): the classical Hasse-invariant criterion,
    independent of the formal group.  With m = (p-1)/2, the multinomial
    term x^(3i) (a4 x)^j a6^k (i + j + k = m) lands on x^(2m) exactly
    when j = 2m - 3i, and then k = 2i - m."""
    a4, a6 = a
    m = (p - 1) // 2
    return sum(comb(m, i) * comb(m - i, 2 * i - m)
               * pow(a4, 2 * m - 3 * i, p) * pow(a6, 2 * i - m, p)
               for i in range((m + 1) // 2, 2 * m // 3 + 1)) % p


def _hasse_form_value(hf: dict, c4: int, c6: int, disc: int,
                      p: int) -> int:
    """hasse_form's int coefficients evaluated at (E4, E6, Delta) =
    (c4, -c6, disc), mod p."""
    return sum(c * pow(c4, a, p) * pow(-c6, b, p) * pow(disc, i, p)
               for (a, b, i), c in hf.items()) % p


DeligneReport = record(
    "DeligneReport", "curves_checked supersingular_curves")


def verify_deligne(p: int) -> DeligneReport:
    """Exhaustive three-way check over all nonsingular y^2 = x^3+Ax+B
    over F_p: formal-group v1 = classical x^(p-1) coefficient =
    hasse_form at (c4, -c6, disc).  Any disagreement raises ValidationError
    naming the curve and all three values."""
    require_prime(p, "verify_deligne", MAX_FORMAL_PRIME)
    hf = modforms.hasse_form(p)
    checked = 0
    ss_count = 0
    for A in range(p):
        for B in range(p):
            if has_bad_reduction((A, B), p):
                continue
            v1, _ = v_invariants((A, B), p)
            ch = classical_hasse((A, B), p)
            ev = _hasse_form_value(hf, *_c4_c6_disc(A, B), p)
            if not (v1 == ch == ev):
                raise ValidationError(
                    f"Deligne disagreement at p={p}, (A,B)=({A},{B}): "
                    f"formal v1={v1}, classical={ch}, eisenstein={ev}")
            checked += 1
            if not v1:
                ss_count += 1
    return DeligneReport(curves_checked=checked,
                         supersingular_curves=ss_count)


#: One supersingular curve's v2 and the prediction it equals.
GLCurveResult = record("GLCurveResult", "j a4 a6 v2 predicted")

#: entries is a tuple of GLCurveResult.
GLReport = record("GLReport", "sign entries")


def verify_gross_landweber(p: int) -> GLReport:
    """For every supersingular j over F_p (all of them are F_p-rational
    for p <= 13): v2 of the standard model must equal
    (-1)^((p-1)/2) * Delta^((p^2-1)/12) exactly.  A mismatch raises
    ValidationError naming p, j, v2 and the prediction."""
    require_prime(p, "verify_gross_landweber", MAX_FORMAL_PRIME)
    locus = sslocus.cross_validate(p)
    sign = (-1) ** ((p - 1) // 2)
    exponent = (p * p - 1) // 12
    entries = []
    for jval in locus.j_values:
        if not jval.in_prime_field:
            continue
        a = curve_from_j(jval.a, p)
        v1, v2 = v_invariants(a, p)
        if v1 or v2 is None:
            raise ValidationError(
                f"Gross-Landweber at p={p}, j={jval.a}: the supersingular "
                f"curve {_curve_str(a, p)} reads v1={v1}, v2={v2}")
        pred = sign * pow(_c4_c6_disc(*a)[2], exponent, p) % p
        if v2 != pred:
            raise ValidationError(
                f"Gross-Landweber fails at p={p}, j={jval.a}: "
                f"v2={v2}, predicted {pred}")
        entries.append(GLCurveResult(j=jval.a, a4=a[0], a6=a[1], v2=v2,
                                     predicted=pred))
    return GLReport(sign=sign, entries=tuple(entries))
