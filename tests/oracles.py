"""Exact routes that faster code in ellwitt replaced, kept as test
oracles.

mult_by_m is the formal log/exp route over exact rationals: log(t) is
the integral of the invariant differential of formal_expansion, and
[m](t) = exp(m * log(t)).  The integral [p]-series of
formalgroup.mult_by_p_series must equal it coefficient by coefficient.
"""

from ellwitt.errors import ValidationError
from ellwitt.formalgroup import WCurve, formal_expansion
from ellwitt.polyseries import QSeries


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
