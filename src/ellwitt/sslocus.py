"""The supersingular locus mod p by four independent routes, their
cross-validation, and the Ogg scan.

ROUTES holds one row per route, named as below:
- "deuring": Deuring's criterion.  The roots in F_{p^2} of the degree-
  (p-1)/2 Legendre polynomial come in S3 orbits of six, one per
  supersingular j.  z = (1 + lambda)/(1 - lambda) turns it into the
  parity-symmetric Legendre polynomial P_m, a polynomial Q of degree
  floor(m/2) in w = z^2, where the Legendre map is j = 64(w + 3)^3/
  (w - 1)^2.  So Q is a form in R(j) of degree about p/12, peeled off
  exactly ("deuring quotient" is R times X^delta (X - 1728)^eps) and
  certified squarefree, off 0 and 1728.  The roots of R are found, and
  one j of each Frobenius pair gives one w by Cardano, lambda by one
  square root, and its orbit and the conjugate one.  One cached pass,
  hasse_roots, yields the lambda-set, the j-set and the "deuring
  quotient" row's ss_p.
- "eisenstein" (modforms): E_{p-1} mod p in the E4/E6 basis.
- "point-count": character-sum point counts over F_{p^2}, one big-int
  correlation for a twist family y^2 = x^3 + cx + c at every c at once;
  a curve is supersingular exactly when its trace vanishes mod p.
- "closed form": Kaneko and Zagier's hypergeometric sum, O(p) int work.

cross_validate requires every row that admits p to yield the closed
form's ss_p over F_p, a j-set through prod (X - j).  A disagreement
raises ValidationError naming the two routes and the first differing
coefficient, or the j-sets' symmetric difference; agreement is
consolidated into an SSLocus, which every other layer reads the locus
from: its j-set comes in sorted_j order.  frobenius_descent builds
prod (X - r) for the j-set rows and for the lift alike.  A polynomial
over F_p is an ascending int list mod p, from every route to the report.

The Ogg scan finds no roots: it counts the F_p-rational roots of the
closed form as deg gcd(ss_p, X^p - X) and checks that count against
the class numbers of the orders Z[sqrt(-p)] and Z[(1 + sqrt(-p))/2]
(Delfs and Galbraith).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, isqrt

from .arith import fq2_context, is_prime, record, require_prime, rth_root
from .errors import ValidationError
from .polyseries import (
    _FpX, count_roots_in_fp, is_squarefree, roots_in_field)
from . import modforms

__all__ = [
    "sigma", "hasse_polynomial", "hasse_roots", "DeuringPass",
    "legendre_to_j", "ss_j_deuring", "ss_j_point_count", "ss_poly_closed",
    "class_number", "rational_ss_count", "sorted_j", "frobenius_descent",
    "cross_validate", "ogg_scan", "SSLocus", "ROUTES", "admitted_routes",
    "MONSTER_PRIMES", "MAX_CROSS_VALIDATE_PRIME", "MAX_DEURING_PRIME",
    "MAX_POINT_COUNT_PRIME", "MAX_OGG_SCAN",
]

MAX_DEURING_PRIME = 1000
#: ogg_scan(3000) takes about 1.5 s and ogg_scan(10^4) 45 s in one
#: process (2-core shared host, Python 3.11), almost all of it in the
#: schoolbook gcd per prime: the cost grows like p_max^2.8 between those
#: two points.
MAX_OGG_SCAN = 3000
MAX_POINT_COUNT_PRIME = 31
#: The greatest p that cross_validate, and so the lift, admits.
MAX_CROSS_VALIDATE_PRIME = 97

#: Primes dividing the order of the Monster (Ogg's observation); 2 and 3
#: sit outside this artifact's p > 3 scope.
MONSTER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71)


def sigma(p: int) -> int:
    """Count of supersingular j-invariants: 1 - eps(p) + floor(p/12),
    eps(p) = +-1 for p = +-1 mod 12 and 0 otherwise."""
    require_prime(p, "sigma")
    eps = {1: 1, 11: -1}.get(p % 12, 0)
    return 1 - eps + p // 12


def hasse_polynomial(p: int) -> list:
    """sum C((p-1)/2, k)^2 lambda^k mod p, degree (p-1)/2.  C(m, k) comes
    mod p from C(m, k+1) = C(m, k)(m-k)/(k+1), every factor in (0, p)."""
    require_prime(p, "hasse_polynomial")
    m = (p - 1) // 2
    c = [1]
    for k in range(m):
        c.append(c[-1] * (m - k) * pow(k + 1, -1, p) % p)
    return [x * x % p for x in c]


def legendre_to_j(lam):
    """j = 256 (lambda^2 - lambda + 1)^3 / (lambda^2 (lambda - 1)^2).

    (Cubed numerator: the exponent that sends the harmonic lambda = 2
    to 1728; hasse_roots checks that each lambda it finds maps to its j.)
    """
    ring = lam.ring
    one = ring.one()
    if lam == ring.zero() or lam == one:
        raise ValueError("lambda in {0, 1} is a degenerate Legendre curve")
    num = ring.from_int(256) * (lam * lam - lam + one) ** 3
    den = (lam * lam) * (lam - one) ** 2
    return num * den.inverse()


def _legendre_half(p: int) -> list:
    """Q(w) = sum_k (-1)^k C(m,k) C(2m-2k,m) w^(h-k) over F_p, with
    m = (p-1)/2 and h = floor(m/2): 2^m P_m(z) = z^(m mod 2) Q(z^2) for
    the Legendre polynomial P_m.  The coefficients come from the ratio
    q_(k+1)/q_k = -(m-k)(m-2k)(m-2k-1) / ((k+1)(2m-2k)(2m-2k-1)), whose
    denominator factors all lie in (0, p): O(m) int work."""
    m = (p - 1) // 2
    h = m // 2
    q = [comb(2 * m, m) % p]
    for k in range(h):
        num = -(m - k) * (m - 2 * k) * (m - 2 * k - 1)
        den = (k + 1) * (2 * m - 2 * k) * (2 * m - 2 * k - 1)
        q.append(q[-1] * num * pow(den, -1, p) % p)
    return q[::-1]


def _divide_linear(f: list, c: int, p: int) -> list:
    """f / (w - c) for an ascending int list f, by Horner.  A remainder
    f(c) != 0 mod p means Q is not S3-symmetric (ValidationError).  At
    c = 1 Horner is a running sum, left unreduced."""
    step = None if c == 1 else (lambda q, x: (q * c + x) % p)
    acc = list(accumulate(reversed(f), step))
    if acc[-1] % p:
        raise ValidationError(f"Q is not S3-symmetric at p={p}")
    return acc[-2::-1]


def _s3_quotient(Q: list, p: int) -> list:
    """R(j) = sum_a r_a j^a over F_p with

        Q(w) = (w + 3)^delta (w - 9)^eps sum_{a<=s} r_a A^a B^(s-a),

    A = 64(w + 3)^3, B = (w - 1)^2, delta = [p = 2 mod 3],
    eps = [p = 3 mod 4] and s = sigma(p) - delta - eps.
    Under w = z^2, z = (1 + lambda)/(1 - lambda), the Legendre map reads
    j = A/B, so the roots of R are the supersingular j other than 0 and
    1728 (w = -3 and w = 9).  The two factors are divided out exactly;
    then, from the top, r_a is the coefficient of w^(3a) over 64^a,
    r_a A^a is subtracted and B divided out exactly.  A remainder, or a
    degree other than 3s, raises ValidationError: Q is not
    S3-symmetric."""
    s, delta, eps = modforms.hasse_decomposition(p)
    f = Q
    for root in [-3] * delta + [9] * eps:
        f = _divide_linear(f, root, p)
    if len(f) != 3 * s + 1:
        raise ValidationError(f"Q is not S3-symmetric at p={p}")
    cubes = [[1]]  # (w + 3)^(3a) = A^a / 64^a
    for _ in range(s):
        g = cubes[-1] + [0, 0, 0]
        cubes.append([(27 * (a + b) + 9 * c + d) % p for a, b, c, d in
                      zip(g, g[-1:] + g[:-1], g[-2:] + g[:-2],
                          g[-3:] + g[:-3])])
    i64 = pow(64, -1, p)
    r = [0] * (s + 1)
    for a in range(s, -1, -1):
        top = f[3 * a] % p
        r[a] = top * pow(i64, a, p) % p
        f = [(x - top * y) % p for x, y in zip(f[:3 * a], cubes[a])]
        if a:
            f = _divide_linear(_divide_linear(f, 1, p), 1, p)
    return r


def _w_root(j):
    """One root w in F_{p^2} of 64(w + 3)^3 = j (w - 1)^2, by Cardano.

    w = 1 + 4/(y - 1) turns the equation into y^3 - k y + k = 0 with
    k = j/256, whose root is y = C + k/(3C) for a cube root C of
    -k/2 +- sqrt(k^2/4 - k^3/27), the sign taken so that C != 0 (y = 0
    when both vanish, at j = 0).  y = 1 never solves it.  A square or
    cube root outside F_{p^2} raises ValueError."""
    ring = j.ring
    p = ring.p
    k = j * pow(256, -1, p)
    half = k * pow(2, -1, p)
    root = rth_root(half * half - k * k * k * pow(27, -1, p), 2)
    c3 = (root - half) or (-root - half)
    y = ring.zero()
    if c3:
        C = rth_root(c3, 3)
        y = C + k * pow(3, -1, p) * C.inverse()
    return ring.one() + ring.from_int(4) * (y - ring.one()).inverse()


def _s3_orbit(lam) -> set:
    """{lambda, 1/lambda, 1 - lambda, 1/(1 - lambda), lambda/(lambda - 1),
    (lambda - 1)/lambda}: the Legendre parameters of one j."""
    inv, rest = lam.inverse(), 1 - lam
    inv_rest = rest.inverse()
    return {lam, inv, rest, inv_rest, 1 - inv_rest, 1 - inv}


#: The Deuring pass at p: the lambda-roots in F_{p^2} of the Hasse
#: polynomial (frozenset), the supersingular j they lie over (frozenset)
#: and the "deuring quotient" row's ss_p (ascending int list mod p).
DeuringPass = record("DeuringPass", "lambdas j_set ss_poly")


@lru_cache(maxsize=None)
def hasse_roots(p: int) -> DeuringPass:
    """The Deuring pass at p: the lambda-roots in F_{p^2} of the Hasse
    polynomial, their j-set, and R made monic times
    X^delta (X - 1728)^eps, the "deuring quotient" row's ss_p.

    Deuring's criterion needs the polynomial squarefree with all (p-1)/2
    roots in F_{p^2}; a shortfall falsifies the rationality claim and
    raises, and so does a surplus.

    The roots are found on the supersingular j, one S3 orbit of six
    lambda each.  With m = (p-1)/2, H_p(lambda) = (1 - lambda)^m P_m(z),
    z = (1 + lambda)/(1 - lambda), for the Legendre polynomial P_m
    (Igusa 1958), and P_m has parity: 2^m P_m(z) = z^(m mod 2) Q(z^2)
    with Q of degree floor(m/2) (_legendre_half).  In w = z^2 the
    Legendre map is j = A/B, A = 64(w + 3)^3, B = (w - 1)^2, so Q is
    R(j), of degree about p/12, written in w (_s3_quotient), and the
    roots of R come from roots_in_field.  j = 0 (when p = 2 mod 3) sits
    at w = -3, and j = 1728 (when p = 3 mod 4) at w = 9, which carries
    lambda = -1, the root z = 0 of odd m.  For every other j, Cardano
    gives one w (_w_root), checked by substitution; then z = sqrt(w),
    lambda = (z - 1)/(z + 1), legendre_to_j(lambda) = j is checked, and
    lambda brings its orbit, and j joins the j-set.  That runs once per
    Frobenius orbit of j: R and the Legendre map have coefficients in
    F_p, so conj(j) is a root of R too, with the conjugate lambdas, and
    joins the sets with j.  A j whose w or z escapes F_{p^2} loses its
    orbit, and its conjugate's, which the count check reports.

    The squarefree check runs on R.  H is squarefree iff Q is and
    Q(0) != 0: lambda -> z keeps multiplicities and loses no root, as
    H(1) = C(2m, m) and P_m(-1) = (-1)^m are nonzero; +-sqrt(w) are
    distinct for w != 0 in characteristic != 2, and a root w = 0 would
    make z = 0 a double root of P_m.  That holds iff R is squarefree and
    R(0) R(1728) != 0.  Write Q = (w + 3)^delta (w - 9)^eps F, where
    F = sum_a r_a A^a B^(s-a) is r_s prod (A - rho B) over the s roots
    rho of R.  As A'B - AB' = 64(w + 3)^2 (w - 1)(w - 9), w -> A/B branches
    only over j = 0 (w = -3), 1728 (w = 9) and infinity (w = 1): for rho
    off 0 and 1728, A - rho B has three simple roots, shared with no
    other rho.  So F is squarefree iff R is and R(0) R(1728) != 0, since
    A = 64(w + 3)^3 and A - 1728 B = 64 w (w - 9)^2.  And from A(-3) = 0,
    B(-3) = 16, A(9) = 64 * 1728, B(9) = 64, A(0) = 1728, B(0) = 1:
    F(-3) = 16^s R(0), F(9) = 64^s R(1728) and F(0) = R(1728), so the
    linear factors of Q are simple and prime to F, and Q(0) != 0."""
    require_prime(p, "hasse_roots", MAX_DEURING_PRIME)
    R = _s3_quotient(_legendre_half(p), p)
    if (not R[0] or not sum(c * pow(1728, i, p) for i, c in enumerate(R)) % p
            or not is_squarefree(R, p)):
        raise ValidationError(
            f"Hasse polynomial at p={p} is not squarefree")
    m = (p - 1) // 2
    ctx = fq2_context(p)
    one = ctx.one()
    _, delta, eps = modforms.hasse_decomposition(p)
    fixed = {}
    if delta:
        fixed[ctx.zero()] = ctx.from_int(-3)
    if eps:
        fixed[ctx.from_int(1728)] = ctx.from_int(9)
    lams, js = set(), set()
    for j in [*fixed, *roots_in_field(R, ctx)]:
        if j in js:  # the conjugate of a j already solved
            continue
        try:
            w = fixed[j] if j in fixed else _w_root(j)
        except ValueError:
            continue
        if w == 0 or w == 1:
            raise ValidationError(
                f"p={p}: w={w!r} lies over j={j!r}, so z = sqrt(w) "
                f"gives no simple lambda")
        if 64 * (w + 3) ** 3 != j * (w - 1) ** 2:
            raise ValidationError(
                f"p={p}: w={w!r} does not solve 64(w+3)^3 = j(w-1)^2 "
                f"at j={j!r}")
        try:
            z = rth_root(w, 2)
        except ValueError:
            continue
        if z * z != w:
            raise ValidationError(f"p={p}: rth_root({w!r}, 2) = {z!r} "
                                  f"does not square back")
        lam = (z - one) * (z + one).inverse()
        if legendre_to_j(lam) != j:
            raise ValidationError(f"p={p}: lambda={lam!r} from w={w!r} "
                                  f"does not map to j={j!r}")
        orbit = _s3_orbit(lam)
        lams.update(orbit, (x.conj() for x in orbit))
        js.update((j, j.conj()))
    if len(lams) < m:
        raise ValidationError(
            f"only {len(lams)} of {m} lambda-roots lie in "
            f"F_{p}^2 at p={p}: a root escapes the quadratic extension")
    if len(lams) > m:
        raise ValidationError(
            f"{len(lams)} lambda-roots of a degree-{m} Hasse polynomial "
            f"at p={p}: a j-root is spurious")
    ss = modforms.times_fixed_factors(_FpX(p, len(R)).monic(R), p)
    return DeuringPass(frozenset(lams), frozenset(js), ss)


def ss_j_deuring(p: int) -> frozenset:
    """Supersingular j-invariants in F_{p^2} via Deuring's criterion:
    the j-set of the pass hasse_roots(p)."""
    return hasse_roots(p).j_set


def ss_j_point_count(p: int) -> frozenset:
    """Point-count oracle: j in F_q, q = p^2, is supersingular iff the
    trace of a curve with that j-invariant over F_q vanishes mod p.

    For j not in {0, 1728} the curve is y^2 = x^3 + cx + c with
    c = 27j / (4(1728 - j)), a quadratic twist over F_q of
    formalgroup.curve_from_j(j) (a twist keeps "trace = 0 mod p"), and
    j = 6912c / (4c + 27).  Since chi(-1) = 1 in F_q and
    x^3 + c(x + 1) = (x + 1)(g(x) + c) with g(x) = x^3 / (x + 1),
    its character sum is S(c) = 1 + sum_v H(v) chi(v + c), where
    H(v) = sum of chi(x + 1) over x != -1 with g(x) = v.  That is one
    correlation over the additive group (Z/p)^2 for every c at once,
    computed mod p as one Kronecker product (_FpX.mul) of two p x p
    grids folded mod p in both coordinates: O(p^2) work plus one
    product.
    j = 0 and 1728 are direct sums.  The p <= 31 bound is enforced."""
    require_prime(p, "ss_j_point_count", MAX_POINT_COUNT_PRIME)
    ctx = fq2_context(p)
    g0 = ctx.g0
    q = p * p
    # element a + b*xbar of F_q sits at index a + p*b
    elems = [(a, b) for b in range(p) for a in range(p)]

    def mul(u, v):
        return ((u[0] * v[0] - g0 * u[1] * v[1]) % p,
                (u[0] * v[1] + u[1] * v[0]) % p)

    chi = [-1] * q
    for z in elems:
        a, b = mul(z, z)
        chi[a + p * b] = 1
    chi[0] = 0
    cubes = [mul(mul(z, z), z) for z in elems]
    out = set()
    for j in (0, 1728):
        # y^2 = x^3 + 1 at j = 0 and y^2 = x^3 + x at j = 1728
        s = 0
        for (a, b), (ca, cb) in zip(elems, cubes):
            ca, cb = (ca + a, cb + b) if j else (ca + 1, cb)
            s += chi[ca % p + p * (cb % p)]
        if s % p == 0:
            out.add(ctx.from_int(j))
    h = [0] * q
    for (a, b), cube in zip(elems, cubes):
        a = (a + 1) % p  # y = x + 1
        if a == b == 0:
            continue
        n = pow((a * a + g0 * b * b) % p, -1, p)
        va, vb = mul(cube, (a * n, -b * n))  # x^3 / y
        h[va + p * vb] += chi[a + p * b]
    # sum_u (h(-u) + 3)(chi(c - u) + 1) mod p for every c: both grids
    # hold their p x p values in rows of 2p slots, so the linear product
    # (rows 2p - 1 wide) never reaches into the next row
    hgrid = [0] * (2 * q)
    cgrid = [0] * (2 * q)
    for i, (a, b) in enumerate(elems):
        hgrid[a + 2 * p * b] = (h[(-a) % p + p * ((-b) % p)] + 3) % p
        cgrid[a + 2 * p * b] = chi[i] + 1
    lin = _FpX(p, 2 * q).mul(hgrid, cgrid)
    lin += [0] * (4 * q - len(lin))
    off = sum(h) + 3 * sum(chi) + 3 * q
    r = 2 * q  # fold rows b + p and columns a + p onto (a, b)
    for i, (a, b) in enumerate(elems):
        k = a + 2 * p * b
        s = 1 + lin[k] + lin[k + p] + lin[k + r] + lin[k + r + p] - off
        if i and s % p == 0:
            c = ctx.elem(a, b)
            den = ctx.from_int(4) * c + ctx.from_int(27)
            if den:  # c = -27/4 gives a singular curve
                out.add(ctx.from_int(6912) * c * den.inverse())
    return frozenset(out)


def ss_poly_closed(p: int) -> list:
    """ss_p over F_p from Kaneko and Zagier's closed form: with
    p - 1 = 12m + 4 delta + 6 eps,

        ss_p(X) = X^delta (X - 1728)^eps
                  sum_{k <= m} (a)_k (b)_k / (k!)^2 1728^k X^(m-k),

    (a, b) = (1/12, 5/12) if eps = 0 and (7/12, 11/12) if eps = 1.  O(m)
    int work mod p, and no denominator vanishes since k <= m < p.  The
    degree must be sigma(p)."""
    require_prime(p, "ss_poly_closed")
    m, _, eps = modforms.hasse_decomposition(p)
    i12 = pow(12, -1, p)
    a, b = (7 * i12, 11 * i12) if eps else (i12, 5 * i12)
    s = [1] * (m + 1)  # s[m - k] multiplies X^(m-k)
    for k in range(1, m + 1):
        s[m - k] = (s[m - k + 1] * (a + k - 1) * (b + k - 1) * 1728
                    * pow(k * k, -1, p) % p)
    s = modforms.times_fixed_factors(s, p)
    if len(s) - 1 != sigma(p):
        raise ValidationError(
            f"p={p}: closed form has degree {len(s) - 1}, "
            f"sigma={sigma(p)}")
    return s


def class_number(D: int) -> int:
    """h(D) for a discriminant D < 0: the number of primitive reduced
    forms ax^2 + bxy + cy^2 with b^2 - 4ac = D, |b| <= a <= c, and
    b >= 0 when |b| = a or a = c."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"not a negative discriminant: {D}")
    h = 0
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        ac = (b * b - D) // 4
        for a in range(max(b, 1), isqrt(ac) + 1):
            if ac % a == 0 and gcd(a, b, ac // a) == 1:
                h += 1 if b in (0, a) or a * a == ac else 2
    return h


def rational_ss_count(p: int) -> int:
    """The number of supersingular j in F_p, deg gcd(ss_p, X^p - X) on
    the closed form, which must equal the count of F_p-rational
    supersingular curves from class numbers (Delfs and Galbraith, 2016):
    h(-4p)/2 for p = 1 mod 4, h(-p) for p = 7 mod 8, 2h(-p) for
    p = 3 mod 8."""
    count = count_roots_in_fp(ss_poly_closed(p), p)
    if p % 4 == 1:
        by_h = class_number(-4 * p) // 2
    else:
        by_h = class_number(-p) * (1 if p % 8 == 7 else 2)
    if count != by_h:
        raise ValidationError(
            f"p={p}: {count} F_p-rational supersingular j by "
            f"gcd(ss_p, X^p - X), {by_h} by class numbers")
    return count


#: One row per route: its name, the greatest p it admits (None: every
#: p), whether it yields a j-set (else ss_p) and how it runs.  A row
#: calls its function by its module-level name, so rebinding it reaches
#: the row.  cross_validate compares every row with the first's ss_p.
Route = record("Route", "name max_p jset run")
ROUTES = (
    Route("closed form", None, False, lambda p: ss_poly_closed(p)),
    Route("eisenstein", modforms.MAX_EISENSTEIN_PRIME, False,
          lambda p: modforms.ss_poly_eisenstein(p)),
    Route("deuring quotient", MAX_DEURING_PRIME, False,
          lambda p: hasse_roots(p).ss_poly),
    Route("deuring", MAX_DEURING_PRIME, True, lambda p: ss_j_deuring(p)),
    Route("point-count", MAX_POINT_COUNT_PRIME, True,
          lambda p: ss_j_point_count(p)),
)


def admitted_routes(p: int) -> list:
    """The rows of ROUTES that admit p, in table order."""
    return [r for r in ROUTES if r.max_p is None or p <= r.max_p]


#: Consolidated supersingular locus at p, validated across methods:
#: j_values (tuple of F_{p^2} elements in sorted_j order), ss_poly
#: (ascending int list mod p), sigma (its degree), all_rational and
#: routes (the rows that ran).
SSLocus = record("SSLocus", "j_values ss_poly sigma all_rational routes")


def sorted_j(js) -> list:
    """F_{p^2} elements a + b*xbar in (a, b) order, as reported."""
    return sorted(js, key=lambda z: (z.a, z.b))


def _diff_msg(name_a: str, set_a, name_b: str, set_b) -> str:
    extra_a = sorted_j(set_a - set_b)
    extra_b = sorted_j(set_b - set_a)
    return (f"{name_a} vs {name_b} disagree: only-{name_a}={extra_a}, "
            f"only-{name_b}={extra_b}")


def frobenius_descent(roots, ring, failure: str) -> list:
    """prod (X - r) over a Quad ring (F_{p^2} or W(F_{p^2})/p^N), as
    ascending ints mod p^N.  A coefficient that Frobenius (conjugation)
    moves raises ValidationError(failure): the product does not descend."""
    c = [ring.one()]
    for r in roots:
        c = [b - r * a for a, b in zip(c + [ring.zero()], [ring.zero()] + c)]
    if not all(z.in_prime_field for z in c):
        raise ValidationError(failure)
    return [z.a for z in c]


@lru_cache(maxsize=None)
def cross_validate(p: int) -> SSLocus:
    """Require every row of ROUTES that admits p to yield the first
    row's ss_p, a j-set through prod (X - j).  Equal to ss_p, a j-set is
    exactly its root set: squarefree, split and sigma(p) in number.
    Then check the classical 0/1728 membership criteria; consolidate."""
    require_prime(p, "cross_validate", MAX_CROSS_VALIDATE_PRIME)
    ctx = fq2_context(p)
    ran = admitted_routes(p)
    first, ss = ran[0].name, ran[0].run(p)
    for route in ran[1:]:
        got = out = route.run(p)
        if route.jset:
            js, got = out, frobenius_descent(
                out, ctx, f"p={p}: {route.name} j-set is not Galois stable")
        if got != ss and route.jset:
            raise ValidationError(f"p={p}: " + _diff_msg(
                first, frozenset(roots_in_field(ss, ctx)), route.name, out))
        if got != ss:
            k, u, v = next((k, u, v) for k, (u, v) in enumerate(zip(
                ss + [0] * len(got), got + [0] * len(ss))) if u != v)
            raise ValidationError(
                f"p={p}: {first} vs {route.name} disagree at the "
                f"coefficient of X^{k}: {u} != {v}")
    if (ctx.zero() in js) != (p % 3 == 2):
        raise ValidationError(f"p={p}: j=0 membership contradicts p mod 3")
    if (ctx.from_int(1728) in js) != (p % 4 == 3):
        raise ValidationError(f"p={p}: j=1728 membership contradicts "
                              f"p mod 4")
    return SSLocus(j_values=tuple(sorted_j(js)), ss_poly=ss,
                   sigma=len(ss) - 1, routes=tuple(r.name for r in ran),
                   all_rational=all(z.in_prime_field for z in js))


def _primes_in(lo: int, hi: int) -> list:
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def ogg_scan(p_max: int) -> list:
    """Primes 3 < p <= p_max whose supersingular j-invariants all lie in
    the prime field: those with rational_ss_count(p) = sigma(p).  No
    roots are found (p_max <= MAX_OGG_SCAN)."""
    if p_max > MAX_OGG_SCAN:
        raise ValueError(f"ogg_scan capped at p <= {MAX_OGG_SCAN}")
    return [p for p in _primes_in(5, p_max)
            if rational_ss_count(p) == sigma(p)]
