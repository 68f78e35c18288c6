"""The Deuring route on the half-degree Legendre polynomial against the
route it replaced.

hasse_roots solves Q(w), the parity form of the Legendre polynomial P_m
(m = (p-1)/2), and recovers each pair {lambda, 1/lambda} from a square
root in F_{p^2}.  The replaced route solves the degree-m Hasse
polynomial H directly, ``roots_in_field(H, fq2_context(p))``; it is kept
below as the oracle, and both routes must give the same lambda-set and
the same j-set.  So is the replaced squarefree check gcd(H, H') = 1,
which hasse_roots now makes on Q.  The polynomial identity behind the reduction,

    sum_k q_k (1 + lambda)^(m-2k) (1 - lambda)^(2k) = 2^m H(lambda),
    q_k = (-1)^k C(m,k) C(2m-2k,m),

is checked coefficient by coefficient over Z and, with the coefficients
hasse_roots uses, mod p.

    PYTHONPATH=src python tests/test_deuring.py

runs both checks at every prime up to 1000, which the test suite samples
up to 199.
"""

from math import comb

import pytest

from ellwitt import sslocus
from ellwitt.arith import fq2_context, is_prime
from ellwitt.errors import ValidationError
from ellwitt.polyseries import Poly, roots_in_field
from ellwitt.sslocus import (
    MAX_DEURING_PRIME,
    _legendre_half,
    hasse_polynomial,
    hasse_roots,
    legendre_to_j,
    ss_j_deuring,
)

PRIMES = [p for p in range(5, 200) if is_prime(p)]


def oracle_lambdas(p: int) -> frozenset:
    """The replaced route: every root of H in F_{p^2}."""
    return frozenset(roots_in_field(hasse_polynomial(p), fq2_context(p)))


def parity_side(q: list, m: int, mod: int = 0) -> list:
    """sum_k q[k] (1 + lambda)^(m-2k) (1 - lambda)^(2k), ascending
    coefficients, by Horner in U = (1 + lambda)^2 with V = (1 - lambda)^2
    carried along; reduced mod `mod` when it is nonzero."""

    def times(a, s):  # a * (1 + s*lambda)
        return [x + s * y for x, y in zip(a + [0], [0] + a)]

    acc, vk = [q[0]], [1]
    for qk in q[1:]:  # acc and vk both have degree 2k at step k
        vk = times(times(vk, -1), -1)
        acc = [x + qk * y for x, y in zip(times(times(acc, 1), 1), vk)]
    if m % 2:
        acc = times(acc, 1)
    return [x % mod for x in acc] if mod else acc


def exact_q(m: int) -> list:
    return [(-1) ** k * comb(m, k) * comb(2 * m - 2 * k, m)
            for k in range(m // 2 + 1)]


def check_prime(p: int) -> None:
    m = (p - 1) // 2
    # over Z
    assert parity_side(exact_q(m), m) == \
        [2 ** m * comb(m, k) ** 2 for k in range(m + 1)]
    # mod p, with the coefficients hasse_roots solves (Q's list is
    # ascending in w, q_k multiplies w^(h-k))
    q = [c.value for c in _legendre_half(p).coeffs][::-1]
    assert q == [c % p for c in exact_q(m)]
    assert parity_side(q, m, p) == \
        [2 ** m * c.value % p for c in hasse_polynomial(p).coeffs]
    # both routes, and both squarefree checks
    H = hasse_polynomial(p)
    assert H.gcd(H.derivative()).degree == 0
    old = oracle_lambdas(p)
    assert hasse_roots(p) == old
    assert ss_j_deuring(p) == frozenset(legendre_to_j(lam) for lam in old)


@pytest.mark.parametrize("p", PRIMES)
def test_half_degree_route_matches_the_full_hasse_route(p):
    check_prime(p)


def test_parity_side_sees_a_wrong_coefficient():
    # the identity check is not vacuous: one flipped sign breaks it
    m = 7
    q = exact_q(m)
    q[1] = -q[1]
    assert parity_side(q, m) != \
        [2 ** m * comb(m, k) ** 2 for k in range(m + 1)]


def test_lambda_pairs_and_minus_one():
    # lambda -> 1/lambda preserves the set; -1 is a root exactly when m
    # is odd (p = 3 mod 4)
    for p in (11, 13, 97, 101):
        lams = hasse_roots(p)
        assert {lam.inverse() for lam in lams} == lams
        assert (-fq2_context(p).one() in lams) == (p % 4 == 3)


@pytest.fixture
def fresh_cache():
    hasse_roots.cache_clear()
    yield
    hasse_roots.cache_clear()


def test_a_root_w_of_one_raises(monkeypatch, fresh_cache):
    real = sslocus.roots_in_field
    monkeypatch.setattr(sslocus, "roots_in_field",
                        lambda f, field: real(f, field) | {field.one()})
    with pytest.raises(ValidationError, match="w=1 .* no simple lambda"):
        hasse_roots(13)


@pytest.mark.parametrize("factor", [[9, -6, 1], [0, 1]])  # (X - 3)^2, X
def test_a_repeated_or_zero_root_of_q_is_not_squarefree(
        factor, monkeypatch, fresh_cache):
    q = _legendre_half(13)
    bad = q * Poly(q.ring, factor)
    monkeypatch.setattr(sslocus, "_legendre_half", lambda p: bad)
    with pytest.raises(ValidationError, match="not squarefree"):
        hasse_roots(13)


def test_a_wrong_square_root_raises(monkeypatch, fresh_cache):
    monkeypatch.setattr(sslocus, "sqrt_fq2", lambda w: w)
    with pytest.raises(ValidationError, match="does not square back"):
        hasse_roots(13)


def test_a_square_root_outside_the_field_is_a_shortfall(
        monkeypatch, fresh_cache):
    def no_root(w):
        raise ValueError("not a square")

    monkeypatch.setattr(sslocus, "sqrt_fq2", no_root)
    with pytest.raises(ValidationError, match="only 1 of 5"):
        hasse_roots(11)  # lambda = -1 alone survives


def sweep() -> int:
    primes = [p for p in range(5, MAX_DEURING_PRIME + 1) if is_prime(p)]
    for p in primes:
        check_prime(p)
    return len(primes)


if __name__ == "__main__":
    import time
    t0 = time.perf_counter()
    n = sweep()
    print(f"{n} primes agree ({time.perf_counter() - t0:.1f} s)")
