"""Poly.gcd over F_p (Euclid on _FpX int lists) against the generic
Euclid loop on field elements that it replaced.

The oracle below is that loop, kept verbatim; both must return the same
monic gcd, with gcd(0, 0) = 0.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwitt.arith import Zmod, is_prime
from ellwitt.polyseries import Poly
from ellwitt.sslocus import hasse_polynomial

DRAW_PRIMES = (5, 7, 11, 13, 101)


def euclid_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by Euclid on ring elements; gcd(0, 0) = 0."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a.divrem(b)[1]
    if a.is_zero():
        return a
    return a * f.ring.inv(a.leading())


def agree(f: Poly, g: Poly) -> Poly:
    got = f.gcd(g)
    assert got == euclid_gcd(f, g)
    assert got == g.gcd(f)
    return got


@pytest.mark.parametrize("p", [p for p in range(5, 201) if is_prime(p)])
def test_hasse_with_derivative_matches_euclid(p):
    H = hasse_polynomial(p)
    dH = H.derivative()
    assert agree(H, dH) == Poly(H.ring, [1])   # H is squarefree
    H2 = H * H
    assert agree(H2, H2.derivative()) == H.monic()


def polys(p: int, max_degree: int):
    return st.lists(st.integers(0, p - 1), max_size=max_degree + 1).map(
        lambda cs: Poly(Zmod(p), cs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DRAW_PRIMES).flatmap(
    lambda p: st.tuples(polys(p, 4), polys(p, 6), polys(p, 6))))
def test_planted_common_factor_matches_euclid(draw):
    c, u, v = draw
    f, g = c * u, c * v
    got = agree(f, g)
    if not got.is_zero():
        assert got.leading() == got.ring.one()
        assert f.divrem(got)[1].is_zero() and g.divrem(got)[1].is_zero()
    if not c.is_zero():
        assert got.divrem(c)[1].is_zero()


@st.composite
def long_over_short(draw):
    """(a, b) with deg a - deg b >= 3 for nonzero b, which may be a
    constant or zero: several quotient coefficients per Euclid step."""
    p = draw(st.sampled_from(DRAW_PRIMES))
    F = Zmod(p)
    b = draw(polys(p, 4))
    u = Poly(F, draw(st.lists(st.integers(0, p - 1), min_size=3,
                              max_size=9)) + [draw(st.integers(1, p - 1))])
    r = draw(polys(p, 3))
    a = b * u + (r.divrem(b)[1] if not b.is_zero() else r)
    assert b.is_zero() or a.degree - b.degree >= 3
    return a, b


@settings(max_examples=80, deadline=None)
@given(long_over_short())
def test_long_quotients_match_euclid(draw):
    a, b = draw
    F = a.ring
    agree(a, b)
    agree(a, Poly(F, []))                   # zero operand
    agree(a, Poly(F, [F.p - 1]))            # constant divisor
    agree(a * b, b)


def test_edge_cases():
    F = Zmod(13)
    zero = Poly(F, [])
    f = Poly(F, [3, 0, 5])            # 5X^2 + 3, not monic
    assert agree(zero, zero).is_zero()
    assert agree(f, zero) == f.monic()
    assert agree(zero, f) == f.monic()
    assert agree(Poly(F, [7]), f) == Poly(F, [1])
    short = Poly(F, [2, 4])           # shorter first argument
    assert agree(short, short * f) == short.monic()
    big = Zmod(2 ** 61 - 1)
    x1, x2 = Poly(big, [-1, 1]), Poly(big, [-2, 1])
    assert agree(x1 * x2 * 3, x1 * x1 * 5) == x1
