"""Exact routes that faster code in ellwitt replaced, kept as test
oracles.

WCurve is a short Weierstrass curve over a coefficient ring, as the
formal layer held one before it moved to int pairs mod p; curve_from_j
and classical_hasse are its routes over a field ring, the references
for formalgroup.curve_from_j and formalgroup.classical_hasse, and the
latter is the power of a Poly over F_p.  F_p is not a coefficient ring
of the program: a polynomial, series or curve over F_p here has
scalars of fq2_context(p) as its coefficients.  elements lists a Quad
in a fixed order.

mult_by_m is the formal log/exp route over exact rationals: log(t) is
the integral of the invariant differential of formal_expansion, and
[m](t) = exp(m * log(t)).  The integral [p]-series of
formalgroup.mult_by_p_series must equal it coefficient by coefficient.

QQ is the exact rationals as a coefficient ring, which the program no
longer has: every series it builds stays in Z or a residue ring.
eisenstein_series is E_k over QQ from the Bernoulli number B_k, the
route that modforms.eisenstein_q's integer numerators over one
denominator replaced.  reduce_mod reduces a rational series mod p.  The
q-expansions over QQ reduced by it are the reference for the series
ellwitt builds over F_p and for hasse_form's integer certificate that
E_{p-1} = 1 mod p.

express_in_e4e6 and solve_exact are the E4^a E6^b solve over any field
ring, on QSeries and ring elements, by Gaussian elimination on the
monomials of weight_basis: run over QQ and reduced mod p, they are the
reference for modforms.express_in_e4e6, which solves on int lists mod p
in the basis E4^a E6^b Delta^i.

eta24_q is q prod (1 - q^n)^24 expanded factor by factor, 24 passes
per n, the reference for modforms.eta24_q, which squares Euler's
pentagonal series.

pretty is the printer of a Poly that the reports used before F_p
polynomials became int lists: the reference for cli._poly_str.
"""

from fractions import Fraction

from ellwitt.arith import QuadElem, power
from ellwitt.errors import ValidationError
from ellwitt.formalgroup import _c4_c6_disc, formal_expansion
from ellwitt.modforms import (
    _GUARD,
    MAX_EISENSTEIN_WEIGHT,
    _dim_mk,
    _e4_e6,
    _sigma,
    _tangent_numbers,
)
from ellwitt.polyseries import Poly, QSeries


class RationalField:
    """Exact rationals as a coefficient ring; elements are Fraction."""

    __slots__ = ()

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def coerce(self, c):
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise TypeError(f"cannot coerce {type(c).__name__} into QQ")

    def is_unit(self, a) -> bool:
        return a != 0

    def inv(self, a):
        return 1 / a

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def elements(ring) -> list:
    """Every element of a Quad as a + b*xbar, a outer and b inner."""
    m = ring.modulus
    return [QuadElem(a, b, ring) for a in range(m) for b in range(m)]


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
    """A short Weierstrass model with the given j-invariant, an element
    of a field ring: y^2 = x^3 + 3k x + 2k with k = j/(1728 - j) away
    from j in {0, 1728}; y^2 = x^3 + 1 at j = 0 and y^2 = x^3 + x at
    j = 1728."""
    ring = j.ring
    if j == ring.zero():
        return WCurve(ring, ring.zero(), ring.one())
    if j == ring.from_int(1728):
        return WCurve(ring, ring.one(), ring.zero())
    k = j * (ring.from_int(1728) - j).inverse()
    return WCurve(ring, ring.from_int(3) * k, ring.from_int(2) * k)


def classical_hasse(E: WCurve, p: int):
    """Coefficient of x^(p-1) in (x^3 + Ax + B)^((p-1)/2), for E over
    F_p (scalars of fq2_context(p)), by powering the Poly."""
    field = E.ring
    f = Poly(field, [E.a6, E.a4, field.zero(), field.one()])
    return power(f, (p - 1) // 2).coeff(p - 1)


def bernoulli(k: int) -> Fraction:
    """B_k for even 2 <= k <= 200: with h = k/2,
    B_k = (-1)^(h-1) k T_h / (4^h (4^h - 1))."""
    if k < 2 or k % 2 or k > MAX_EISENSTEIN_WEIGHT:
        raise ValueError(
            f"bernoulli wants even 2 <= k <= {MAX_EISENSTEIN_WEIGHT}")
    h = k // 2
    return Fraction((-1) ** (h - 1) * k * _tangent_numbers(h)[h],
                    4 ** h * (4 ** h - 1))


def eisenstein_series(k: int, prec: int) -> QSeries:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n over QQ, through
    q^(prec-1)."""
    if k < 4 or k % 2:
        raise ValueError("Eisenstein weight must be even and >= 4")
    factor = Fraction(-2 * k) / bernoulli(k)
    return QSeries(QQ, 0, [1] + [factor * _sigma(n, k - 1)
                                 for n in range(1, prec)])


def integrate(s: QSeries) -> QSeries:
    """Termwise antiderivative with zero constant; every exponent+1
    must be invertible in the ring."""
    ring = s.ring
    out = []
    for i, c in enumerate(s.coeffs):
        n = s.offset + i + 1
        nf = ring.from_int(n)
        if not ring.is_unit(nf):
            raise ValueError(f"cannot divide by {n} in {ring}")
        out.append(c * ring.inv(nf))
    return QSeries(ring, s.offset + 1, out)


def mult_by_m(E: WCurve, m: int, prec: int):
    """exp(m * log(t)) and its intermediates; the multiplication-by-m
    series of the formal group.  log(t) = integral of omega must be
    t + O(t^2) with each denominator dividing its index."""
    x, y, omega = formal_expansion(E, prec)
    log = integrate(omega)
    if log.coeff(1) != 1:
        raise ValidationError("formal log is not t + O(t^2)")
    for i, c in enumerate(log.coeffs):
        n = log.offset + i
        if (c * n).denominator != 1:
            raise ValidationError(
                f"log coefficient at t^{n} has denominator not dividing {n}")
    exp = log.revert()
    return x, y, omega, log, exp.compose(log.scale(m))


def reduce_mod(series: QSeries, field) -> QSeries:
    """A rational series reduced mod p; raises ValidationError when any
    denominator is divisible by p."""
    def red(c):
        if c.denominator % field.p == 0:
            raise ValidationError(
                f"denominator {c.denominator} divisible by {field.p}")
        return field.elem(c.numerator * pow(c.denominator, -1, field.p))
    return QSeries(field, series.offset, [red(c) for c in series.coeffs])


def solve_exact(rows, rhs, ring):
    """Gaussian elimination over the field ring; a singular or
    inconsistent system raises ValidationError."""
    n = len(rows[0])
    m = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            raise ValidationError("singular linear system (precision bug?)")
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = ring.inv(aug[r][col])
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            raise ValidationError("inconsistent linear system")
    return [aug[i][n] for i in range(n)]


def eta24_q(prec: int) -> list:
    """q * prod_{n>=1} (1 - q^n)^24 as an int list through q^(prec-1),
    expanded directly from the product."""
    c = [0, 1] + [0] * (prec - 2)
    for n in range(1, prec - 1):
        for _ in range(24):
            for i in range(prec - 1, n, -1):
                c[i] -= c[i - n]
    return c


def weight_basis(k: int) -> tuple:
    """The monomials E4^a E6^b spanning M_k, as (a, b) pairs with b
    ascending."""
    mons = []
    b = 0
    while 6 * b <= k:
        if (k - 6 * b) % 4 == 0:
            mons.append(((k - 6 * b) // 4, b))
        b += 1
    if len(mons) != _dim_mk(k):
        raise ValidationError(
            f"monomial count {len(mons)} != dim M_{k} = {_dim_mk(k)}")
    return tuple(mons)


def express_in_e4e6(s: QSeries, k: int) -> dict:
    """Coefficients c_ab with sum c_ab E4^a E6^b = s, for s a modular
    form of weight k over the field s.ring, solved from the first
    dim M_k q-coefficients and verified on 4 guard coefficients."""
    basis = weight_basis(k)
    d = len(basis)
    if not d:
        raise ValueError(f"M_{k} = 0: no nonzero modular form of weight {k}")
    need = d + _GUARD
    if s.abs_prec < need:
        raise ValueError(
            f"need abs precision >= {need} for weight {k}, "
            f"got {s.abs_prec}")
    ring = s.ring
    e4, e6 = (QSeries(ring, 0, e) for e in _e4_e6(need))
    a, b = basis[0]
    mono = e4 ** a * e6 ** b
    step = e6 ** 2 * (e4 ** 3).inverse()  # b ascends by 2, a falls by 3
    cols = [mono.coeff_list(0, need)]
    for _ in range(d - 1):
        mono = mono * step
        cols.append(mono.coeff_list(0, need))
    rows = list(zip(*cols))  # rows[i][j]: q^i coefficient of monomial j
    sol = solve_exact(rows[:d], [s.coeff(i) for i in range(d)], ring)
    for i in range(d, need):
        got = sum(c * x for c, x in zip(sol, rows[i]))
        if got != s.coeff(i):
            raise ValidationError(
                f"guard coefficient q^{i} mismatch: input is not a "
                f"modular form of weight {k}")
    if sum(sol) != s.coeff(0):
        raise ValidationError(
            f"weight {k}: the E4^a E6^b coefficients sum to {sum(sol)}, "
            f"the constant term is {s.coeff(0)}")
    return {mon: c for mon, c in zip(basis, sol)}


def pretty(f: Poly, var: str = "X") -> str:
    """Human form of a Poly over F_p (scalars of an F_{p^2} model), each
    coefficient as its residue, highest degree first."""
    if f.is_zero():
        return "0"
    parts = []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(f"{c.a}")
        else:
            xi = var if i == 1 else f"{var}^{i}"
            parts.append(xi if c == f.ring.one()
                         else f"{c.a}*{xi}")
    return " + ".join(parts)
