"""Exact q-expansions of level-1 modular forms and the supersingular
polynomial read off the weight-(p-1) Eisenstein series.

Conventions (standard, not the paper-facsimile ones): Delta = eta^24 =
(E4^3 - E6^2)/1728 and j = E4^3/Delta = q^-1 + 744 + ...  Everything is
exact and stays in Z and F_p: a q-expansion is an int list (E_k is
integer numerators over one denominator), multiplied and divided
exactly by the Z[[q]] kernels of polyseries; a series over F_p is the
same int list reduced mod p, never reduced from rationals; and the
Eisenstein factor -2k/B_k is read off the integer tangent numbers,
which also certify E_{p-1} = 1 mod p.

The Eisenstein locus route writes E_{p-1} mod p in the basis
E4^a E6^b Delta^i, whose forms lead with q^i, by one back-substitution
on int lists mod p (hasse_form); through E4^3 = j Delta, ss_p is that
coefficient list read backwards times the fixed factors
(ss_poly_eisenstein), an int list mod p as well.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd

from .arith import record, require_prime
from .errors import ValidationError
from .polyseries import _div, _mul, is_squarefree

__all__ = [
    "eisenstein_q", "eta24_q", "j_q",
    "express_in_e4e6",
    "HasseDecomposition", "hasse_decomposition", "times_fixed_factors",
    "hasse_form", "ss_poly_eisenstein",
    "MAX_EISENSTEIN_WEIGHT", "MAX_EISENSTEIN_PRIME",
]

MAX_EISENSTEIN_WEIGHT = 200
MAX_EISENSTEIN_PRIME = 97


@lru_cache(maxsize=None)
def _tangent_numbers(n: int) -> tuple:
    """The tangent numbers T_0 .. T_n = 0, 1, 2, 16, 272, ..., by Brent
    and Harvey's in-place recurrence (O(n^2) small-int steps)."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for i in range(k, n + 1):
            t[i] = (i - k) * t[i - 1] + (i - k + 2) * t[i]
    return tuple(t[:n + 1])


def _eisenstein_factor(h: int) -> tuple:
    """c = -2k/B_k for k = 2h, the factor of E_k - 1, as (num, den) in
    lowest terms with den > 0: c = (-1)^h 2 4^h (4^h - 1)/T_h."""
    num = (-1) ** h * 2 * 4 ** h * (4 ** h - 1)
    t = _tangent_numbers(h)[h]
    g = gcd(num, t)
    return num // g, t // g


def _sigma(n: int, e: int) -> int:
    return sum(d ** e for d in range(1, n + 1) if n % d == 0)


def eisenstein_q(k: int, prec: int) -> tuple:
    """E_k through q^(prec-1) as the int pair (den, nums), E_k =
    sum nums[n] q^n / den: E_k = 1 + c sum sigma_{k-1}(n) q^n, and c in
    lowest terms gives den and nums[n] = num(c) sigma_{k-1}(n)."""
    if k < 4 or k % 2 or k > MAX_EISENSTEIN_WEIGHT or prec < 1:
        raise ValueError(
            f"eisenstein_q wants even 4 <= k <= MAX_EISENSTEIN_WEIGHT = "
            f"{MAX_EISENSTEIN_WEIGHT} and prec >= 1, got k={k}, "
            f"prec={prec}")
    num, den = _eisenstein_factor(k // 2)
    return den, [den] + [num * _sigma(n, k - 1) for n in range(1, prec)]


def _e4_e6(prec: int) -> tuple:
    """E4 = 1 + 240 sum sigma_3(n) q^n and E6 = 1 - 504 sum sigma_5(n) q^n
    as int lists through q^(prec-1)."""
    return tuple([1] + [c * _sigma(n, k - 1) for n in range(1, prec)]
                 for k, c in ((4, 240), (6, -504)))


def _level_one_forms(prec: int) -> tuple:
    """E4, E6, Delta and j as int lists through q^(prec-1), j from q^-1
    (j[i] is the coefficient of q^(i-1)): Delta = (E4^3 - E6^2)/1728
    and j = E4^3/Delta, both divisions exact in Z.  E4 and E6 are built
    2 terms further, which the quotient by Delta/q needs."""
    n = prec + 2
    e4, e6 = _e4_e6(n)
    e4_3 = _mul(_mul(e4, e4, n), e4, n)
    dlt = [a - b for a, b in zip(e4_3, _mul(e6, e6, n))]
    if any(c % 1728 for c in dlt):
        raise ValidationError("E4^3 - E6^2 is not divisible by 1728")
    dlt = [c // 1728 for c in dlt]
    return e4[:prec], e6[:prec], dlt[:prec], _div(e4_3, dlt[1:])


def eta24_q(prec: int) -> list:
    """q * prod_{n>=1} (1 - q^n)^24 as an int list through q^(prec-1),
    expanded directly from the product.

    Serves as the second engine for the Delta identity.
    """
    if prec < 2:
        raise ValueError("prec must be >= 2")
    c = [0, 1] + [0] * (prec - 2)
    for n in range(1, prec - 1):
        for _ in range(24):
            for i in range(prec - 1, n, -1):
                c[i] -= c[i - n]
    return c


def j_q(prec: int) -> list:
    """j = E4^3 / Delta = q^-1 + 744 + 196884q + ... through q^(prec-1),
    as an int list from q^-1."""
    return _level_one_forms(prec)[3]


def _dim_mk(k: int) -> int:
    if k < 0 or k % 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


_GUARD = 4


def express_in_e4e6(s: list, k: int, p: int) -> dict:
    """Coefficients c_i in [0, p) with sum c_i E4^a E6^b Delta^i = s mod
    p, as {(a, b, i): c_i}, for s the int list of q-coefficients of a
    modular form of weight k.  With d = dim M_k, i runs over 0..d-1, a =
    alpha + 3(d - 1 - i) and b = beta, 4 alpha + 6 beta = k - 12(d - 1).

    Each basis form is 1*q^i + ..., the one before it times Delta/E4^3,
    which is exact in Z as E4^3 has constant term 1; so c_i is what is
    left at q^i once the forms before it are taken off.  What is left
    must vanish on every coefficient read: the first d, which the solve
    reads, and 4 guard coefficients, so s must carry d + 4."""
    require_prime(p, "express_in_e4e6")
    d = _dim_mk(k)
    if not d:
        raise ValueError(f"M_{k} = 0: no nonzero modular form of weight {k}")
    need = d + _GUARD
    if len(s) < need:
        raise ValueError(
            f"need abs precision >= {need} for weight {k}, got {len(s)}")

    def times(x, y):
        return [c % p for c in _mul(x, y, need)]

    e4, e6 = ([c % p for c in f] for f in _e4_e6(need))
    beta = k % 4 // 2
    alpha = (k - 12 * (d - 1) - 6 * beta) // 4
    form = reduce(times, [e4] * (alpha + 3 * (d - 1)) + [e6] * beta)
    if d > 1:   # Delta/E4^3, with Delta = (E4^3 - E6^2)/1728
        e4_3 = times(times(e4, e4), e4)
        u = pow(1728, -1, p)
        step = [c * u % p for c in _div(
            [a - b for a, b in zip(e4_3, times(e6, e6))], e4_3)]
    out, left = {}, [c % p for c in s[:need]]
    for i in range(d):
        if i:
            form = times(form, step)
        c = out[alpha + 3 * (d - 1 - i), beta, i] = left[i]
        left = [(x - c * y) % p for x, y in zip(left, form)]
    if any(left):
        raise ValidationError(
            f"q^{next(n for n, x in enumerate(left) if x)} coefficient "
            f"mismatch: input is not a modular form of weight {k}")
    return out


#: p - 1 = 12m + 4*delta + 6*eps with delta, eps in {0, 1}.
HasseDecomposition = record("HasseDecomposition", "m delta eps")


def hasse_decomposition(p: int) -> HasseDecomposition:
    require_prime(p, "hasse_decomposition")
    delta, eps = {1: (0, 0), 5: (1, 0), 7: (0, 1), 11: (1, 1)}[p % 12]
    m = (p - 1 - 4 * delta - 6 * eps) // 12
    return HasseDecomposition(m, delta, eps)


def times_fixed_factors(s: list, p: int) -> list:
    """X^delta (X - 1728)^eps s, for s an ascending int list mod p: the
    factors X of ss_p, present when p = 2 mod 3, and X - 1728, present
    when p = 3 mod 4 (hasse_decomposition)."""
    _, delta, eps = hasse_decomposition(p)
    s = [0] * delta + s
    if eps:
        s = [(lo - 1728 * hi) % p for lo, hi in zip([0] + s, s + [0])]
    return s


@lru_cache(maxsize=None)
def hasse_form(p: int) -> dict:
    """E_{p-1} reduced mod p, written in the basis E4^a E6^eps Delta^i
    over F_p (express_in_e4e6), as {(delta + 3(m - i), eps, i): c_i}
    for i = 0..m with each c_i an int in [0, p) (hasse_decomposition).

    E_{p-1} - 1 = c sum sigma_{p-2}(n) q^n, with c = -2(p-1)/B_{p-1}
    read off T_h for h = (p-1)/2 (_eisenstein_factor), is 0 mod p at
    every precision exactly when p divides the numerator of c (von
    Staudt-Clausen), which is certified on the integers.  The constant
    1 over F_p is then solved: the combination is the Hasse invariant
    and its Delta^0 coefficient is 1.
    """
    require_prime(p, "hasse_form", MAX_EISENSTEIN_PRIME)
    if _eisenstein_factor((p - 1) // 2)[0] % p:
        raise ValidationError(f"E_{p-1} mod {p} is not the constant 1")
    m, delta, eps = hasse_decomposition(p)
    out = express_in_e4e6([1] + [0] * (m + _GUARD), p - 1, p)
    if out[delta + 3 * m, eps, 0] != 1:
        raise ValidationError(f"hasse_form({p}) constant term is not 1")
    return out


def ss_poly_eisenstein(p: int) -> list:
    """The supersingular polynomial over F_p, read off hasse_form(p).

    With p - 1 = 12m + 4 delta + 6 eps, E4^3 = j Delta turns
    E_{p-1} = sum c_i E4^(delta + 3(m - i)) E6^eps Delta^i into
    E4^delta E6^eps Delta^m sum c_i j^(m - i) (Kaneko and Zagier, 1998,
    section 2).  So phi(X) = sum c_i X^(m - i), the c_i read backwards,
    and ss_p = X^delta (X - 1728)^eps phi: monic, degree
    m + delta + eps, squarefree, phi(0), phi(1728) != 0.
    """
    require_prime(p, "ss_poly_eisenstein", MAX_EISENSTEIN_PRIME)
    m, delta, eps = hasse_decomposition(p)
    hf = hasse_form(p)
    phi = [hf[delta + 3 * e, eps, m - e] for e in range(m + 1)]
    if not phi[0]:
        raise ValidationError(f"phi(0) = 0 at p={p}: contradicts simple roots")
    if not sum(x * pow(1728, i, p) for i, x in enumerate(phi)) % p:
        raise ValidationError(
            f"phi(1728) = 0 at p={p}: contradicts simple roots")
    ss = times_fixed_factors(phi, p)
    if len(ss) - 1 != m + delta + eps or ss[-1] != 1:
        raise ValidationError(f"ss polynomial degree/monicity broke at p={p}")
    if not is_squarefree(ss, p):
        raise ValidationError(f"ss polynomial at p={p} is not squarefree")
    return ss
