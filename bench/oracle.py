"""Plain-integer reference values for the benchmark's answer checks.

Nothing here imports ellwitt: every value is recomputed from its
textbook formula so that a wrong answer from the program cannot also
make the check pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

MONSTER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_in(lo: int, hi: int) -> list:
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def sigma(p: int) -> int:
    """Number of supersingular j-invariants: 1 - eps(p) + floor(p/12)."""
    eps = {1: 1, 11: -1}.get(p % 12, 0)
    return 1 - eps + p // 12


def hasse_coeff(p: int, a4: int, a6: int) -> int:
    """Coefficient of x^(p-1) in (x^3 + a4 x + a6)^((p-1)/2) mod p.

    Multinomial expansion: a term x^(3i) (a4 x)^j a6^k with i+j+k = m
    has degree 3i + j.
    """
    m = (p - 1) // 2
    total = 0
    for i in range(m + 1):
        j = p - 1 - 3 * i
        k = m - i - j
        if j < 0 or k < 0:
            continue
        total += comb(m, i) * comb(m - i, j) * pow(a4, j, p) * pow(a6, k, p)
    return total % p


def is_singular(p: int, a4: int, a6: int) -> bool:
    return (4 * a4 ** 3 + 27 * a6 ** 2) % p == 0


def j_of_curve(p: int, a4: int, a6: int) -> int:
    """j = 1728 * 4 a4^3 / (4 a4^3 + 27 a6^2) mod p."""
    num = 1728 * 4 * a4 ** 3
    den = (4 * a4 ** 3 + 27 * a6 ** 2) % p
    return num * pow(den, -1, p) % p


def ss_poly(p: int) -> list:
    """Supersingular polynomial mod p, low degree first, from the
    Kaneko-Zagier / Atkin closed form.

    p - 1 = 12m + 4 delta + 6 eps and
    ss_p(j) = j^delta (j - 1728)^eps sum_k (a)_k (b)_k / (k!)^2 1728^k j^(m-k)
    with (a, b) = (1/12, 5/12) if eps = 0 and (7/12, 11/12) if eps = 1.
    """
    delta, eps = {1: (0, 0), 5: (1, 0), 7: (0, 1), 11: (1, 1)}[p % 12]
    m = (p - 1 - 4 * delta - 6 * eps) // 12
    inv12 = pow(12, -1, p)
    a, b = ((1, 5) if eps == 0 else (7, 11))
    a, b = a * inv12 % p, b * inv12 % p
    phi = [0] * (m + 1)      # phi[d] = coefficient of j^d
    term = 1                 # (a)_k (b)_k / (k!)^2 * 1728^k
    for k in range(m + 1):
        phi[m - k] = term
        term = term * (a + k) * (b + k) * 1728 % p
        term = term * pow((k + 1) * (k + 1), -1, p) % p
    poly = phi
    if delta:
        poly = [0] + poly
    if eps:
        poly = poly_mul(poly, [-1728 % p, 1], p)
    return poly


def poly_mul(f: list, g: list, p: int) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for k, b in enumerate(g):
                out[i + k] = (out[i + k] + a * b) % p
    return out


def hasse_poly(p: int) -> list:
    """sum C((p-1)/2, k)^2 lambda^k mod p, low degree first."""
    m = (p - 1) // 2
    return [comb(m, k) ** 2 % p for k in range(m + 1)]


class Fq2:
    """F_{p^2} = F_p[x]/(x^2 + g0) in the model the reports use: g0 = 1
    when p = 3 mod 4, else g0 = -n for the least non-residue n.  An
    element is a pair (a, b) meaning a + b x."""

    def __init__(self, p: int):
        self.p = p
        if p % 4 == 3:
            self.g0 = 1
        else:
            n = 2
            while pow(n, (p - 1) // 2, p) != p - 1:
                n += 1
            self.g0 = -n % p

    def mul(self, u, v):
        p = self.p
        return ((u[0] * v[0] - self.g0 * u[1] * v[1]) % p,
                (u[0] * v[1] + u[1] * v[0]) % p)

    def inv(self, u):
        p = self.p
        norm = (u[0] * u[0] + self.g0 * u[1] * u[1]) % p
        ni = pow(norm, -1, p)
        return (u[0] * ni % p, -u[1] * ni % p)

    def evaluate(self, coeffs: list, z):
        """coeffs (ints mod p, low degree first) at z."""
        acc = (0, 0)
        for c in reversed(coeffs):
            acc = self.mul(acc, z)
            acc = ((acc[0] + c) % self.p, acc[1])
        return acc

    def legendre_to_j(self, lam):
        """256 (l^2 - l + 1)^3 / (l^2 (l - 1)^2)."""
        p = self.p
        l2 = self.mul(lam, lam)
        s = ((l2[0] - lam[0] + 1) % p, (l2[1] - lam[1]) % p)
        num = self.mul(self.mul(s, s), s)
        num = (256 * num[0] % p, 256 * num[1] % p)
        lm1 = ((lam[0] - 1) % p, lam[1])
        den = self.mul(l2, self.mul(lm1, lm1))
        return self.mul(num, self.inv(den))


def bernoulli(k: int) -> Fraction:
    """B_k with B_1 = -1/2, from sum_{j<=n} C(n+1, j) B_j = 0."""
    B = [Fraction(1)]
    for n in range(1, k + 1):
        B.append(-sum(comb(n + 1, j) * B[j] for j in range(n))
                 / Fraction(n + 1))
    return B[k]


def eisenstein(k: int, prec: int) -> list:
    """E_k = 1 - (2k / B_k) sum sigma_{k-1}(n) q^n, as Fractions."""
    c = Fraction(-2 * k) / bernoulli(k)
    out = [Fraction(1)]
    for n in range(1, prec):
        s = sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        out.append(c * s)
    return out[:prec]


def padic_value(digits: str, p: int) -> int:
    """Little-endian base-p digit string to its integer."""
    value = 0
    for d in reversed(digits.split(",")):
        value = value * p + int(d)
    return value
