"""Exact q-expansions of level-1 modular forms and the supersingular
polynomial extracted from the weight-(p-1) Eisenstein series.

Conventions (standard, not the paper-facsimile ones): Delta = eta^24 =
(E4^3 - E6^2)/1728 and j = E4^3/Delta = q^-1 + 744 + ...  Everything is
exact: rational q-expansions use Fraction coefficients, reductions mod p
happen only after p-integrality has been certified, and series with
integer coefficients (E4, E6) may be built mod p directly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .arith import PrimeField, require_prime
from .errors import ValidationError
from .polyseries import QQ, Poly, QSeries

__all__ = [
    "bernoulli", "eisenstein_q", "delta_q", "eta24_q", "j_q",
    "WeightBasis", "weight_basis", "express_in_e4e6",
    "HasseDecomposition", "hasse_decomposition", "hasse_form",
    "ss_poly_eisenstein", "MAX_EISENSTEIN_PRIME",
]

MAX_BERNOULLI = 200
MAX_EISENSTEIN_PRIME = 97


@lru_cache(maxsize=None)
def _bernoulli_list(top: int) -> tuple:
    """B_0 .. B_top from the integer tangent numbers T_1, T_2, ... =
    1, 2, 16, 272, ... (Brent and Harvey's in-place recurrence, O(top^2)
    small-int steps): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), and
    B_1 = -1/2 is the only nonzero odd one."""
    n = top // 2
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for i in range(k, n + 1):
            t[i] = (i - k) * t[i - 1] + (i - k + 2) * t[i]
    bs = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (top - 1)
    for k in range(1, n + 1):
        bs[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k],
                             4 ** k * (4 ** k - 1))
    return tuple(bs[:top + 1])


def bernoulli(k: int) -> Fraction:
    """B_k for even 2 <= k <= 200, from the tangent numbers to T_(k/2)."""
    if k < 2 or k % 2 or k > MAX_BERNOULLI:
        raise ValueError(f"bernoulli wants even 2 <= k <= {MAX_BERNOULLI}")
    return _bernoulli_list(k)[k]


def _sigma(n: int, e: int) -> int:
    return sum(d ** e for d in range(1, n + 1) if n % d == 0)


def eisenstein_q(k: int, prec: int) -> QSeries:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, exact."""
    if k < 4 or k % 2:
        raise ValueError("Eisenstein weight must be even and >= 4")
    factor = -Fraction(2 * k) / bernoulli(k)
    coeffs = [Fraction(1)]
    coeffs += [factor * _sigma(n, k - 1) for n in range(1, prec)]
    return QSeries(QQ, 0, coeffs)


def _level_one_forms(ring, prec: int) -> tuple:
    """E4, E6, Delta and j over ring (QQ, or F_p with p > 3) through
    absolute precision prec.  E4 = 1 + 240 sum sigma_3(n) q^n and
    E6 = 1 - 504 sum sigma_5(n) q^n come from integer divisor sums, then
    Delta = (E4^3 - E6^2)/1728 and j = E4^3/Delta.  Everything is built
    3 terms further and truncated, which j's inversion of Delta needs."""
    pad = prec + 3
    e4, e6 = (QSeries(ring, 0, [1] + [c * _sigma(n, k - 1)
                                      for n in range(1, pad)])
              for k, c in ((4, 240), (6, -504)))
    e4_3 = e4 ** 3
    dlt = (e4_3 - e6 ** 2).scale(ring.inv(ring.from_int(1728)))
    j = (e4_3 * dlt.inverse()).truncate(prec)
    return e4.truncate(prec), e6.truncate(prec), dlt.truncate(prec), j


def delta_q(prec: int) -> QSeries:
    """Delta = (E4^3 - E6^2)/1728 = q - 24q^2 + 252q^3 - ..."""
    if prec < 2:
        raise ValueError("prec must be >= 2")
    return _level_one_forms(QQ, prec)[2]


def eta24_q(prec: int) -> QSeries:
    """q * prod_{n>=1} (1 - q^n)^24, expanded directly from the product.

    Serves as the second engine for the Delta identity.
    """
    if prec < 2:
        raise ValueError("prec must be >= 2")
    L = prec - 1  # product coefficients needed through q^(L-1)
    c = [0] * L
    c[0] = 1
    for n in range(1, L):
        for _ in range(24):
            for i in range(L - 1, n - 1, -1):
                c[i] -= c[i - n]
    return QSeries(QQ, 1, c)


def j_q(prec: int) -> QSeries:
    """j = E4^3 / Delta = q^-1 + 744 + 196884q + ..., abs precision prec."""
    return _level_one_forms(QQ, prec)[3]


#: Monomials E4^a E6^b spanning M_k, listed with b ascending.
WeightBasis = namedtuple("WeightBasis", "k monomials")


def _dim_mk(k: int) -> int:
    if k < 0 or k % 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def weight_basis(k: int) -> WeightBasis:
    mons = []
    b = 0
    while 6 * b <= k:
        if (k - 6 * b) % 4 == 0:
            mons.append(((k - 6 * b) // 4, b))
        b += 1
    if len(mons) != _dim_mk(k):
        raise ValidationError(
            f"monomial count {len(mons)} != dim M_{k} = {_dim_mk(k)}")
    return WeightBasis(k, tuple(mons))


def _solve_exact(rows, rhs):
    """Gaussian elimination over Fraction; a singular or inconsistent
    system raises ValidationError."""
    n = len(rows[0])
    m = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    piv_rows = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            raise ValidationError("singular linear system (precision bug?)")
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_rows.append(r)
        r += 1
    # remaining rows must have zero rhs (consistency)
    for i in range(r, m):
        if aug[i][n] != 0:
            raise ValidationError("inconsistent linear system")
    return [aug[i][n] for i in range(n)]


_GUARD = 4


def express_in_e4e6(s: QSeries, k: int) -> dict:
    """Coefficients c_ab with sum c_ab E4^a E6^b = s, for s a modular
    form of weight k, solved from the first dim M_k q-coefficients and
    verified on 4 guard coefficients.

    s must have abs precision >= dim M_k + 4.
    """
    basis = weight_basis(k)
    d = len(basis.monomials)
    if not d:
        raise ValueError(f"M_{k} = 0: no nonzero modular form of weight {k}")
    need = d + _GUARD
    if s.abs_prec < need:
        raise ValueError(
            f"need abs precision >= {need} for weight {k}, "
            f"got {s.abs_prec}")
    e4 = eisenstein_q(4, need)
    e6 = eisenstein_q(6, need)
    one = QSeries(QQ, 0, [1] + [0] * (need - 1))
    cols = []
    for a, b in basis.monomials:
        mono = e4 ** a if a else one
        if b:
            mono = mono * e6 ** b
        cols.append(mono.coeff_list(0, need))
    rows = [[cols[j][i] for j in range(d)] for i in range(d)]
    rhs = [s.coeff(i) for i in range(d)]
    sol = _solve_exact(rows, rhs)
    for i in range(d, need):
        got = sum(sol[j] * cols[j][i] for j in range(d))
        if got != s.coeff(i):
            raise ValidationError(
                f"guard coefficient q^{i} mismatch: input is not a "
                f"modular form of weight {k}")
    assert sum(sol) == s.coeff(0)
    return {mon: c for mon, c in zip(basis.monomials, sol)}


#: p - 1 = 12m + 4*delta + 6*eps with delta, eps in {0, 1}.
HasseDecomposition = namedtuple("HasseDecomposition", "p m delta eps")


def hasse_decomposition(p: int) -> HasseDecomposition:
    require_prime(p, "hasse_decomposition")
    delta, eps = {1: (0, 0), 5: (1, 0), 7: (0, 1), 11: (1, 1)}[p % 12]
    m = (p - 1 - 4 * delta - 6 * eps) // 12
    return HasseDecomposition(p, m, delta, eps)


@lru_cache(maxsize=None)
def hasse_form(p: int) -> dict:
    """E_{p-1} written in the E4^a E6^b basis, reduced mod p.

    The exact rational solve must be p-integral (it is, by von Staudt-
    Clausen), and the reduced combination is the Hasse invariant: its
    q-expansion is 1 mod p, which is asserted at solve precision.
    """
    require_prime(p, "hasse_form", MAX_EISENSTEIN_PRIME)
    d = _dim_mk(p - 1)
    need = d + _GUARD
    exact = express_in_e4e6(eisenstein_q(p - 1, need), p - 1)
    field = PrimeField(p)
    out = {}
    for mon, c in exact.items():
        if c.denominator % p == 0:
            raise ValidationError(
                f"hasse_form coefficient {c} for {mon} is not {p}-integral")
        out[mon] = field.elem(c.numerator * pow(c.denominator, -1, p))
    # The combination reduces to the constant series 1 mod p.
    e4 = eisenstein_q(4, need).reduce_mod(field)
    e6 = eisenstein_q(6, need).reduce_mod(field)
    one = QSeries(field, 0, [1] + [0] * (need - 1))
    acc = QSeries(field, need, [])
    for (a, b), c in out.items():
        mono = e4 ** a if a else one
        if b:
            mono = mono * e6 ** b
        acc = acc + mono.scale(c)
    if acc.coeff_list(0, acc.abs_prec) != \
            [field.one()] + [field.zero()] * (acc.abs_prec - 1):
        raise ValidationError(f"hasse_form({p}) does not reduce to 1 mod p")
    if sum(v.value for v in out.values()) % p != 1:
        raise ValidationError(f"hasse_form({p}) constant term is not 1")
    return out


@lru_cache(maxsize=None)
def ss_poly_eisenstein(p: int) -> Poly:
    """The supersingular polynomial over F_p, by Laurent-peeling the
    weight-0 series Ebar_{p-1} * E4^-delta * E6^-eps * Delta^-m into a
    polynomial in j.

    Returns X^delta (X - 1728)^eps phi(X): monic, degree m + delta + eps,
    squarefree, with 1728 reduced mod p.  E_{p-1} is reduced from its
    exact rational series; E4, E6, Delta and j are built over F_p.
    """
    require_prime(p, "ss_poly_eisenstein", MAX_EISENSTEIN_PRIME)
    dec = hasse_decomposition(p)
    m, delta, eps = dec.m, dec.delta, dec.eps
    field = PrimeField(p)
    prec0 = m + 8
    ep1 = eisenstein_q(p - 1, prec0).reduce_mod(field)
    if not (ep1 - QSeries(field, 0, [1] + [0] * (prec0 - 1))).is_zero():
        raise ValidationError(f"E_{p-1} mod {p} is not the constant 1")
    e4, e6, dlt, jbar = _level_one_forms(field, prec0)
    F = ep1
    if delta:
        F = F * e4.inverse()
    if eps:
        F = F * e6.inverse()
    if m:
        F = F * dlt.inverse() ** m
    span = max(1, F.prec)
    jpow = [QSeries(field, 0, [1] + [0] * (span - 1))]
    for _ in range(m):
        jpow.append(jpow[-1] * jbar)
    phi = [field.zero()] * (m + 1)
    resid = F
    for i in range(m, -1, -1):
        ci = resid.coeff(-i)
        phi[i] = ci
        if ci:
            resid = resid - jpow[i].scale(ci)
    # the zero check must cover real guard coefficients beyond q^0
    if resid.abs_prec < 4:
        raise ValidationError(
            f"ss_poly_eisenstein({p}): residual precision "
            f"{resid.abs_prec} leaves no guard coefficients")
    if not resid.is_zero():
        raise ValidationError(
            f"ss_poly_eisenstein({p}): residual {resid!r} does not vanish "
            f"(normalization or precision bug)")
    if phi[m] != field.one():
        raise ValidationError(f"ss_poly_eisenstein({p}): phi is not monic")
    phi_poly = Poly(field, phi)
    if not phi_poly.evaluate(field.zero()):
        raise ValidationError(f"phi(0) = 0 at p={p}: contradicts simple roots")
    if not phi_poly.evaluate(field.from_int(1728)):
        raise ValidationError(
            f"phi(1728) = 0 at p={p}: contradicts simple roots")
    ss = phi_poly
    if delta:
        ss = ss * Poly(field, [0, 1])
    if eps:
        ss = ss * Poly(field, [-1728, 1])
    if ss.degree != m + delta + eps or ss.leading() != field.one():
        raise ValidationError(f"ss polynomial degree/monicity broke at p={p}")
    if ss.gcd(ss.derivative()).degree != 0:
        raise ValidationError(f"ss polynomial at p={p} is not squarefree")
    return ss
