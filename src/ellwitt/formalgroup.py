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
(a4 = 0).  The int-list kernels read each operand's support class from
the list and multiply and divide on that class alone.  The formal
log/exp route, [p](t) = exp(p * log(t)) over exact rationals, computes
the same series and is kept as the test oracle in tests/oracles.py.
v1 needs only precision p+1; the full p^2+1 window is expanded
only when v1 = 0 (the supersingular case, where the height-2 assertions
and v2 live).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import gcd
from operator import mul, sub

from .arith import Zmod, ZmodElem, require_prime
from .errors import ValidationError
from .polyseries import Poly, QSeries
from . import modforms, sslocus

__all__ = [
    "WCurve", "curve_from_j", "PSeries", "formal_expansion",
    "mult_by_p_series", "v_invariants", "heights_from_series",
    "classical_hasse", "has_bad_reduction",
    "verify_deligne", "verify_gross_landweber",
    "DeligneReport", "GLReport", "MAX_FORMAL_PRIME",
]

MAX_FORMAL_PRIME = 13
MAX_EXPANSION_PREC = 200


def _c4_c6_disc(a4, a6) -> tuple:
    """c4, c6 and the discriminant of y^2 = x^3 + a4 x + a6, for
    coefficients of any ring whose elements multiply with ints, plain
    ints included."""
    return -48 * a4, -864 * a6, -16 * (4 * a4 * a4 * a4 + 27 * a6 * a6)


class WCurve:
    """Short Weierstrass curve y^2 = x^3 + a4 x + a6 over a coefficient
    ring."""

    __slots__ = ("ring", "a4", "a6")

    def __init__(self, ring, a4, a6):
        self.ring = ring
        self.a4 = ring.coerce(a4)
        self.a6 = ring.coerce(a6)

    def invariants(self):
        """(c4, c6, discriminant, j); raises on singular curves."""
        r = self.ring
        c4, c6, disc = _c4_c6_disc(self.a4, self.a6)
        if not r.is_unit(disc):
            raise ValueError("singular curve: discriminant is not a unit")
        j = c4 * c4 * c4 * r.inv(disc)
        return c4, c6, disc, j

    def __repr__(self):
        return f"y^2 = x^3 + {self.a4!r}*x + {self.a6!r}"


def curve_from_j(j) -> WCurve:
    """A short Weierstrass model with the given j-invariant:
    y^2 = x^3 + 3k x + 2k with k = j/(1728 - j) away from j in
    {0, 1728}; y^2 = x^3 + 1 at j = 0 and y^2 = x^3 + x at j = 1728."""
    ring = j.ring
    if j == ring.zero():
        return WCurve(ring, ring.zero(), ring.one())
    if j == ring.from_int(1728):
        return WCurve(ring, ring.one(), ring.zero())
    k = j * (ring.from_int(1728) - j).inverse()
    return WCurve(ring, ring.from_int(3) * k, ring.from_int(2) * k)


def _w_coeffs(coeffs, P: int, zero, one) -> list:
    """The first P coefficients of w(t) = t^3 + ..., the solution of
    w = t^3 + a4 t w^2 + a6 w^3 by its fixed-point recurrence, for
    coeffs = (a4, a6).  Works over any coefficient ring whose zero and
    one are given, plain ints included.

    The t^n coefficient of w is a polynomial of weight n - 3 in a4 and
    a6 (of weights 4 and 6), so it vanishes unless g divides n - 3,
    where g is 2, 4 or 6, the gcd of the weights of the nonzero
    coefficients; those of w^2 and w^3 sit at 6 and 9 mod g.  Only
    those classes are computed."""
    a4, a6 = coeffs
    w = [zero] * P
    w2 = [zero] * P
    w3 = [zero] * P
    g = gcd(*compress((4, 6), coeffs)) or P
    if P > 3:
        w[3] = one
    for n in range(3 + g, P, g):
        # the one index of w^2's class in (n - g, n]
        m = n - (-3 % g)
        w2[m] = sum(map(mul, w[3:m - 2:g], w[m - 3:2:-g]), zero)
        if a6:
            w3[n] = sum(map(mul, w[3:n - 5:g], w2[n - 3:5:-g]), zero)
        acc = zero
        if a4:
            acc = acc + a4 * w2[n - 1]
        if a6:
            acc = acc + a6 * w3[n]
        w[n] = acc
    return w


# Only the log/exp oracle in tests/oracles.py calls formal_expansion; it
# stays here while bench/tracer.py spans it by name (ROADMAP item 1).
def formal_expansion(E: WCurve, prec: int):
    """(x(t), y(t), omega(t)) as Laurent/power series in t = -x/y.

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


#: [p]-series of an integral curve: p, curve (the ints (a4, a6)), series
#: (the ints at t^1 .. t^prec) and series_mod_p (a QSeries over F_p).
PSeries = namedtuple("PSeries", "p curve series series_mod_p")


# Series in Z[[t]] below are plain int lists holding the coefficients of
# t^0 .. t^(n-1); a list's length is its absolute precision.  The
# nonzero coefficients of each sit on one class r mod g (see the module
# docstring), which _support reads off the list.

def _support(a: list, n: int):
    """(r, g) such that every nonzero a[i], i < n, has i = r + g*k: r
    is the first nonzero index and g the gcd of the gaps (0 for a single
    term).  None when a[:n] is zero."""
    idx = list(compress(range(n), a))
    if not idx:
        return None
    return idx[0], gcd(*map(sub, idx[1:], idx))


def _mul(a: list, b: list, n: int) -> list:
    """The first n coefficients of a*b, which both must carry: the
    classes of a's and b's supports convolve into one class of out."""
    if n > min(len(a), len(b)):
        raise ValueError(f"product to {n} coefficients of series with "
                         f"{len(a)} and {len(b)}")
    out = [0] * n
    sa, sb = _support(a, n), _support(b, n)
    if sa is None or sb is None:
        return out
    (ra, ga), (rb, gb) = sa, sb
    g = gcd(ga, gb) or n
    m = len(range(ra + rb, n, g))
    x = a[ra:ra + g * m:g]
    y = b[rb:rb + g * m:g][::-1]
    out[ra + rb::g] = [sum(map(mul, x, y[m - 1 - k:])) for k in range(m)]
    return out


def _lin(n: int, *terms) -> list:
    """sum(c * s) over the (c, s) terms, to n coefficients."""
    out = [0] * n
    for c, s in terms:
        if c:
            for i in range(n):
                out[i] += c * s[i]
    return out


def _div(a: list, b: list) -> list:
    """The quotient a/b in Z[[t]], b[0] != 0.  Every coefficient must
    divide exactly by b[0]: a remainder means the quotient is not
    integral, which the formal group law rules out.  The quotient lives
    on the class of a's support modulo the step of b's, where the
    division runs; off that class every remainder is zero."""
    n = min(len(a), len(b))
    q = [0] * n
    sa = _support(a, n)
    if sa is None:
        return q
    r, g = sa
    g = gcd(g, *compress(range(n), b)) or n
    b0 = b[0]
    x = a[r:n:g]
    m = len(x)
    y = b[:g * m:g][::-1]
    c = []
    for k in range(m):
        ck, rem = divmod(x[k] - sum(map(mul, c, y[m - 1 - k:])), b0)
        if rem:
            raise ValidationError(
                f"series division by {b0} + ... leaves a remainder at "
                f"t^{r + g * k}: the quotient is not integral (precision "
                f"or algebra bug)")
        c.append(ck)
    q[r::g] = c
    return q


def _third_point(a, z1, w1, z2, lam):
    """P1 + P2 for points P1 = (z1, w1), P2 = (z2, .) on the line
    w = lam*z + nu: the line meets the curve again at P3, and
    P1 + P2 = -P3.  All series carry len(lam) coefficients."""
    a4, a6 = a
    n = len(lam)
    nu = _lin(n, (1, w1), (-1, _mul(lam, z1, n)))
    l2 = _mul(lam, lam, n)
    # num = nu (2 a4 lam + 3 a6 lam^2) and den = 1 + lam (a4 lam + a6
    # lam^2): the z^2 and z^3 coefficients of the curve's equation
    # w = z^3 + a4 z w^2 + a6 w^3 restricted to the line
    num = _mul(nu, _lin(n, (2 * a4, lam), (3 * a6, l2)), n)
    den = _mul(lam, _lin(n, (a4, lam), (a6, l2)), n)
    den[0] += 1
    z3 = _lin(n, (-1, z1), (-1, z2), (-1, _div(num, den)))
    w3 = _lin(n, (1, nu), (1, _mul(lam, z3, n)))
    # on a short curve, -(z, w) = (-z, -w)
    return [-c for c in z3], [-c for c in w3]


def _double(a, z, w):
    """2P by the tangent at P = (z, w); the slope's denominator has
    constant term 1."""
    a4, a6 = a
    n = len(z)
    zz, zw, ww = _mul(z, z, n), _mul(z, w, n), _mul(w, w, n)
    num = _lin(n, (3, zz), (a4, ww))
    den = _lin(n, (-2 * a4, zw), (-3 * a6, ww))
    den[0] += 1
    return _third_point(a, z, w, z, _div(num, den))


def _add(a, z1, w1, z2, w2):
    """P1 + P2 by the chord, for P1 = (t, w(t)) and P2 = [n]P1 with
    n > 1.  Both slope terms are divided by t first, which costs one
    coefficient; the denominator then starts with 1 - n."""
    L = len(z2) - 1
    dz = [u - v for u, v in zip(z1[1:], z2[1:])]
    dw = [u - v for u, v in zip(w1[1:], w2[1:])]
    return _third_point(a, z1[:L], w1[:L], z2[:L], _div(dw, dz))


def _mult_by_p_integral(a, p: int, prec: int) -> list:
    """Coefficients of t^0 .. t^prec of [p](t) in Z[[t]] for the
    integral coefficients a = (a4, a6) of y^2 = x^3 + a4 x + a6: an
    addition chain on the bits of p applied to the point (t, w(t))."""
    bits = bin(p)[3:]
    P = prec + 1 + bits.count("1")
    w = _w_coeffs(a, P, 0, 1)
    t = [0, 1] + [0] * (P - 2)
    z, wz = t, w
    for bit in bits:
        z, wz = _double(a, z, wz)
        if bit == "1":
            z, wz = _add(a, t, w, z, wz)
    if len(z) < prec + 1:
        raise ValidationError(
            f"[p]-series kept {len(z)} coefficients, {prec + 1} needed")
    return z[:prec + 1]


def has_bad_reduction(a, p: int) -> bool:
    """Whether y^2 = x^3 + a4 x + a6, for ints a = (a4, a6), fails to
    have good reduction at p: its discriminant is 0 mod p (0 included)."""
    return _c4_c6_disc(*a)[2] % p == 0


def mult_by_p_series(a, p: int, prec: int | None = None) -> PSeries:
    """[p](t) through t^prec, computed in Z[[t]], of y^2 = x^3 + a4 x + a6
    for any ints a = (a4, a6).

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
    return PSeries(p=p, curve=a, series=tuple(coeffs),
                   series_mod_p=QSeries(Zmod(p), 1, coeffs))


def v_invariants(E: WCurve, p: int):
    """(v1, v2) of a curve over F_p, from the [p]-series of its
    integral lift, the coefficients taken in [0, p) as ints.

    v1 is read from the series at precision p+1; only when v1 = 0 (the
    supersingular case) is the full p^2+1 window computed for v2.  See
    ``heights_from_series`` for the assertions.
    """
    if E.ring != Zmod(p):
        raise ValueError("v_invariants wants a curve over F_p")
    lift = (E.a4.value, E.a6.value)
    head = mult_by_p_series(lift, p, prec=p + 1).series_mod_p
    if not head.coeff(p):
        head = mult_by_p_series(lift, p).series_mod_p
    return heights_from_series(E, p, head)


def heights_from_series(E: WCurve, p: int, series_mod_p: QSeries):
    """(v1, v2) of E over F_p read off [p](t) mod p.

    v1 is the t^p coefficient.  When v1 != 0 the coefficients below t^p
    are asserted to vanish and v2 is absent (None).  When v1 = 0 the
    series must reach t^(p^2): every coefficient below it is asserted
    to vanish mod p, and the unit v2 is returned.
    """
    field = E.ring
    v1 = series_mod_p.coeff(p)
    if v1:
        for k in range(2, p):
            if series_mod_p.coeff(k):
                raise ValidationError(
                    f"ordinary curve {E!r}: t^{k} coefficient nonzero mod "
                    f"{p} — [p] does not factor through Frobenius")
        return v1, None
    for k in range(1, p * p):
        if series_mod_p.coeff(k):
            raise ValidationError(
                f"supersingular curve {E!r}: t^{k} coefficient nonzero "
                f"mod {p} — [p] does not factor through Frobenius^2")
    v2 = series_mod_p.coeff(p * p)
    if not v2:
        raise ValidationError(
            f"supersingular curve {E!r}: v2 is not a unit")
    return field.zero(), v2


def classical_hasse(E: WCurve, p: int) -> ZmodElem:
    """Coefficient of x^(p-1) in (x^3 + Ax + B)^((p-1)/2): the classical
    Hasse-invariant criterion, independent of the formal group."""
    if E.ring != Zmod(p):
        raise ValueError("classical_hasse wants a curve over F_p")
    field = E.ring
    f = Poly(field, [E.a6, E.a4, field.zero(), field.one()])
    return (f ** ((p - 1) // 2)).coeff(p - 1)


def _hasse_form_value(hf: dict, c4: ZmodElem, c6: ZmodElem) -> ZmodElem:
    """hasse_form evaluated at (E4, E6) = (c4, -c6)."""
    field = c4.ring
    acc = field.zero()
    for (a, b), c in hf.items():
        acc = acc + c * c4 ** a * (-c6) ** b
    return acc


DeligneReport = namedtuple(
    "DeligneReport", "prime curves_checked supersingular_curves")


def verify_deligne(p: int) -> DeligneReport:
    """Exhaustive three-way check over all nonsingular y^2 = x^3+Ax+B
    over F_p: formal-group v1 = classical x^(p-1) coefficient =
    hasse_form at (c4, -c6).  Any disagreement raises ValidationError
    naming the curve and all three values."""
    require_prime(p, "verify_deligne", MAX_FORMAL_PRIME)
    field = Zmod(p)
    hf = modforms.hasse_form(p)
    checked = 0
    ss_count = 0
    for A in range(p):
        for B in range(p):
            if has_bad_reduction((A, B), p):
                continue
            E = WCurve(field, A, B)
            v1, _ = v_invariants(E, p)
            ch = classical_hasse(E, p)
            c4, c6, _, _ = E.invariants()
            ev = _hasse_form_value(hf, c4, c6)
            if not (v1 == ch == ev):
                raise ValidationError(
                    f"Deligne disagreement at p={p}, (A,B)=({A},{B}): "
                    f"formal v1={v1.value}, classical={ch.value}, "
                    f"eisenstein={ev.value}")
            checked += 1
            if not v1:
                ss_count += 1
    return DeligneReport(prime=p, curves_checked=checked,
                         supersingular_curves=ss_count)


#: One supersingular curve's v2 and the prediction it equals.
GLCurveResult = namedtuple("GLCurveResult", "j a4 a6 v2 predicted")

#: entries is a tuple of GLCurveResult.
GLReport = namedtuple("GLReport", "prime sign entries")


def verify_gross_landweber(p: int) -> GLReport:
    """For every supersingular j over F_p (all of them are F_p-rational
    for p <= 13): v2 of the standard model must equal
    (-1)^((p-1)/2) * Delta^((p^2-1)/12) exactly.  A mismatch raises
    ValidationError naming p, j, v2 and the prediction."""
    require_prime(p, "verify_gross_landweber", MAX_FORMAL_PRIME)
    field = Zmod(p)
    locus = sslocus.cross_validate(p)
    sign = (-1) ** ((p - 1) // 2)
    exponent = (p * p - 1) // 12
    entries = []
    for jval in locus.j_values:
        if not jval.in_prime_field:
            continue
        E = curve_from_j(jval.to_fp())
        v1, v2 = v_invariants(E, p)
        if v1 or v2 is None:
            raise ValidationError(
                f"Gross-Landweber at p={p}, j={jval.a}: the supersingular "
                f"curve {E!r} reads v1={v1.value}, "
                f"v2={None if v2 is None else v2.value}")
        _, _, disc, _ = E.invariants()
        pred = field.from_int(sign) * disc ** exponent
        if v2 != pred:
            raise ValidationError(
                f"Gross-Landweber fails at p={p}, j={jval.a}: "
                f"v2={v2.value}, predicted {pred.value}")
        entries.append(GLCurveResult(j=jval.a, a4=E.a4.value,
                                     a6=E.a6.value, v2=v2.value,
                                     predicted=pred.value))
    return GLReport(prime=p, sign=sign, entries=tuple(entries))
