"""Exact q-expansions of level-1 modular forms and the supersingular
polynomial read off the weight-(p-1) Eisenstein series.

Conventions (standard, not the paper-facsimile ones): Delta = eta^24 =
(E4^3 - E6^2)/1728 and j = E4^3/Delta = q^-1 + 744 + ...  Everything is
exact: rational q-expansions have coefficients in QQ, reductions mod p
happen only after p-integrality has been certified, and series with
integer coefficients (E4, E6) may be built mod p directly.

Locus route 2 is E_{p-1} mod p in the E4/E6 basis (hasse_form), then
j = E4^3/Delta (ss_poly_eisenstein).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .arith import Zmod, require_prime
from .errors import ValidationError
from .polyseries import QQ, Poly, QSeries

__all__ = [
    "bernoulli", "eisenstein_q", "delta_q", "eta24_q", "j_q",
    "WeightBasis", "weight_basis", "express_in_e4e6",
    "HasseDecomposition", "hasse_decomposition", "times_fixed_factors",
    "hasse_form", "ss_poly_eisenstein", "MAX_EISENSTEIN_PRIME",
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
    one = QQ.one()
    bs = [one, -one / 2] + [QQ.zero()] * (top - 1)
    for k in range(1, n + 1):
        bs[2 * k] = (QQ.from_int((-1) ** (k - 1) * 2 * k * t[k])
                     / (4 ** k * (4 ** k - 1)))
    return tuple(bs[:top + 1])


def bernoulli(k: int):
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
    factor = QQ.from_int(-2 * k) / bernoulli(k)
    coeffs = [QQ.one()]
    coeffs += [factor * _sigma(n, k - 1) for n in range(1, prec)]
    return QSeries(QQ, 0, coeffs)


def _e4_e6(ring, prec: int) -> tuple:
    """E4 = 1 + 240 sum sigma_3(n) q^n and E6 = 1 - 504 sum sigma_5(n) q^n
    over ring (QQ, or F_p with p > 3) through absolute precision prec,
    from integer divisor sums."""
    return tuple(QSeries(ring, 0, [1] + [c * _sigma(n, k - 1)
                                         for n in range(1, prec)])
                 for k, c in ((4, 240), (6, -504)))


def _level_one_forms(prec: int) -> tuple:
    """E4, E6, Delta and j over QQ through absolute precision prec:
    Delta = (E4^3 - E6^2)/1728 and j = E4^3/Delta.  Everything is built
    3 terms further and truncated, which j's inversion of Delta needs."""
    e4, e6 = _e4_e6(QQ, prec + 3)
    e4_3 = e4 ** 3
    dlt = (e4_3 - e6 ** 2).scale(QQ.inv(QQ.from_int(1728)))
    j = (e4_3 * dlt.inverse()).truncate(prec)
    return e4.truncate(prec), e6.truncate(prec), dlt.truncate(prec), j


def delta_q(prec: int) -> QSeries:
    """Delta = (E4^3 - E6^2)/1728 = q - 24q^2 + 252q^3 - ..."""
    if prec < 2:
        raise ValueError("prec must be >= 2")
    return _level_one_forms(prec)[2]


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
    return _level_one_forms(prec)[3]


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


def _solve_exact(rows, rhs, ring=QQ):
    """Gaussian elimination over a field ring (QQ or F_p); a singular or
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
    # remaining rows must have zero rhs (consistency)
    for i in range(r, m):
        if aug[i][n] != 0:
            raise ValidationError("inconsistent linear system")
    return [aug[i][n] for i in range(n)]


_GUARD = 4


def express_in_e4e6(s: QSeries, k: int) -> dict:
    """Coefficients c_ab with sum c_ab E4^a E6^b = s, for s a modular
    form of weight k over s.ring (QQ or F_p), solved from the first
    dim M_k q-coefficients and verified on 4 guard coefficients.

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
    ring = s.ring
    e4, e6 = _e4_e6(ring, need)
    a, b = basis.monomials[0]
    mono = e4 ** a * e6 ** b
    step = e6 ** 2 * (e4 ** 3).inverse()  # b ascends by 2, a falls by 3
    cols = [mono.coeff_list(0, need)]
    for _ in range(d - 1):
        mono = mono * step
        cols.append(mono.coeff_list(0, need))
    rows = list(zip(*cols))  # rows[i][j]: q^i coefficient of monomial j
    sol = _solve_exact(rows[:d], [s.coeff(i) for i in range(d)], ring)
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
    return {mon: c for mon, c in zip(basis.monomials, sol)}


#: p - 1 = 12m + 4*delta + 6*eps with delta, eps in {0, 1}.
HasseDecomposition = namedtuple("HasseDecomposition", "p m delta eps")


def hasse_decomposition(p: int) -> HasseDecomposition:
    require_prime(p, "hasse_decomposition")
    delta, eps = {1: (0, 0), 5: (1, 0), 7: (0, 1), 11: (1, 1)}[p % 12]
    m = (p - 1 - 4 * delta - 6 * eps) // 12
    return HasseDecomposition(p, m, delta, eps)


def times_fixed_factors(s: list, p: int) -> list:
    """X^delta (X - 1728)^eps s, for s an ascending int list mod p: the
    factors X of ss_p, present when p = 2 mod 3, and X - 1728, present
    when p = 3 mod 4 (hasse_decomposition)."""
    _, _, delta, eps = hasse_decomposition(p)
    s = [0] * delta + s
    return _times_x_minus_1728(s, p) if eps else s


@lru_cache(maxsize=None)
def hasse_form(p: int) -> dict:
    """E_{p-1} reduced mod p, written in the E4^a E6^b basis over F_p.

    E_{p-1} is p-integral and 1 mod p (von Staudt-Clausen), which is
    asserted at solve precision, so the combination is the Hasse
    invariant and its coefficients sum to 1.
    """
    require_prime(p, "hasse_form", MAX_EISENSTEIN_PRIME)
    need = _dim_mk(p - 1) + _GUARD
    ep1 = eisenstein_q(p - 1, need).reduce_mod(Zmod(p))
    if ep1.coeff_list(0, need) != [1] + [0] * (need - 1):
        raise ValidationError(f"E_{p-1} mod {p} is not the constant 1")
    out = express_in_e4e6(ep1, p - 1)
    if sum(v.value for v in out.values()) % p != 1:
        raise ValidationError(f"hasse_form({p}) constant term is not 1")
    return out


def _times_x_minus_1728(s: list, p: int) -> list:
    """(X - 1728) s mod p, for s an int coefficient list (s[i] is the
    coefficient of X^i)."""
    return [(lo - 1728 * hi) % p for lo, hi in zip([0] + s, s + [0])]


def ss_poly_eisenstein(p: int) -> Poly:
    """The supersingular polynomial over F_p, read off hasse_form(p).

    With p - 1 = 12m + 4 delta + 6 eps, a = delta + 3i, b = eps + 2k and
    i + k = m, E4^3 = j Delta and E6^2 = (j - 1728) Delta give
    E4^a E6^b = E4^delta E6^eps Delta^m j^i (j - 1728)^k (Kaneko and
    Zagier, 1998, section 2).  So phi(X) = sum c_ab X^i (X - 1728)^k,
    built by Horner in X - 1728, and ss_p = X^delta (X - 1728)^eps phi:
    monic, degree m + delta + eps, squarefree, phi(0), phi(1728) != 0.
    """
    require_prime(p, "ss_poly_eisenstein", MAX_EISENSTEIN_PRIME)
    _, m, delta, eps = hasse_decomposition(p)
    field = Zmod(p)
    hf = hasse_form(p)
    c = [hf[delta + 3 * (m - k), eps + 2 * k].value for k in range(m + 1)]
    phi = [c[m]]
    for k in range(m - 1, -1, -1):  # phi has degree m - k after this step
        phi = _times_x_minus_1728(phi, p)
        phi[m - k] = (phi[m - k] + c[k]) % p
    phi_poly = Poly(field, phi)
    if not phi_poly.evaluate(field.zero()):
        raise ValidationError(f"phi(0) = 0 at p={p}: contradicts simple roots")
    if not phi_poly.evaluate(field.from_int(1728)):
        raise ValidationError(
            f"phi(1728) = 0 at p={p}: contradicts simple roots")
    ss = Poly(field, times_fixed_factors(phi, p))
    if ss.degree != m + delta + eps or ss.leading() != field.one():
        raise ValidationError(f"ss polynomial degree/monicity broke at p={p}")
    if ss.gcd(ss.derivative()).degree != 0:
        raise ValidationError(f"ss polynomial at p={p} is not squarefree")
    return ss
