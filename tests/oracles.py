"""Exact routes that faster code in ellwitt replaced, kept as test
oracles.

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
"""

from fractions import Fraction

from ellwitt.errors import ValidationError
from ellwitt.formalgroup import WCurve, formal_expansion
from ellwitt.modforms import MAX_EISENSTEIN_WEIGHT, _sigma, _tangent_numbers
from ellwitt.polyseries import QSeries


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
