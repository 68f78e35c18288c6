"""Poly.gcd over F_p (Euclid on _FpX int lists) against the generic
Euclid loop on field elements that it replaced.

The oracle below is that loop, kept verbatim; both must return the same
monic gcd, with gcd(0, 0) = 0.  F_p is not a coefficient ring: the
polynomials are over the scalars of fq2_context(p), the one input
Poly.gcd takes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwitt.arith import fq2_context, is_prime
from ellwitt.padicwitt import lift_context
from ellwitt.polyseries import Poly, _FpX, _trim
from ellwitt.sslocus import hasse_polynomial

DRAW_PRIMES = (5, 7, 11, 13, 101)


def monic(f: Poly) -> Poly:
    return f if f.is_zero() else f * f.ring.inv(f.leading())


def euclid_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by Euclid on ring elements; gcd(0, 0) = 0."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a.divrem(b)[1]
    return monic(a)


def agree(f: Poly, g: Poly) -> Poly:
    got = f.gcd(g)
    assert got == euclid_gcd(f, g)
    assert got == g.gcd(f)
    return got


@pytest.mark.parametrize("p", [p for p in range(5, 201) if is_prime(p)])
def test_hasse_with_derivative_matches_euclid(p):
    H = Poly(fq2_context(p), hasse_polynomial(p))
    dH = H.derivative()
    assert agree(H, dH) == Poly(H.ring, [1])   # H is squarefree
    H2 = H * H
    assert agree(H2, H2.derivative()) == monic(H)


def polys(p: int, max_degree: int):
    return st.lists(st.integers(0, p - 1), max_size=max_degree + 1).map(
        lambda cs: Poly(fq2_context(p), cs))


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
    F = fq2_context(p)
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
    F = fq2_context(13)
    zero = Poly(F, [])
    f = Poly(F, [3, 0, 5])            # 5X^2 + 3, not monic
    assert agree(zero, zero).is_zero()
    assert agree(f, zero) == monic(f)
    assert agree(zero, f) == monic(f)
    assert agree(Poly(F, [7]), f) == Poly(F, [1])
    short = Poly(F, [2, 4])           # shorter first argument
    assert agree(short, short * f) == monic(short)
    big = fq2_context(2 ** 61 - 1)
    x1, x2 = Poly(big, [-1, 1]), Poly(big, [-2, 1])
    assert agree(x1 * x2 * 3, x1 * x1 * 5) == x1


def ints(f: Poly) -> list:
    """f over F_p, scalars of F_{p^2}, as an ascending int list."""
    assert all(c.in_prime_field for c in f.coeffs), f
    return [c.a for c in f.coeffs]


@pytest.mark.parametrize("p", [p for p in range(5, 48) if is_prime(p)])
def test_gcd_of_scalars_is_the_int_list_gcd(p):
    # Poly.gcd against _FpX.gcd on the int lists of the same
    # polynomials: the zero, constant and non-monic cases of
    # test_edge_cases, then seeded pairs with a planted common factor
    F, rng = fq2_context(p), random.Random(p)

    def rand(n):
        return [rng.randrange(p) for _ in range(n)]
    cases = [([], []), ([3, 0, 5], []), ([], [3, 0, 5]), ([7], [3, 0, 5]),
             ([2, 4], [6, 12, 10, 20])]
    for _ in range(30):
        c = Poly(F, rand(rng.randrange(4)))
        cases += [(ints(c * Poly(F, rand(rng.randrange(7)))),
                   ints(c * Poly(F, rand(rng.randrange(7)))))]
    for a, b in cases:
        got = Poly(F, a).gcd(Poly(F, b))
        a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
        assert ints(got) == _FpX(p, max(len(a), len(b))).gcd(a, b), (a, b)


def test_gcd_refuses_all_but_scalars_of_f_p2():
    W = lift_context(fq2_context(5), 2)
    with pytest.raises(ValueError, match="over W\\(F_5\\^2\\)/5\\^2"):
        Poly(W, [-1, 0, 1]).gcd(Poly(W, [-1, 1]))
    F = fq2_context(5)
    off = Poly(F, [1, F.elem(2, 3)])    # a coefficient with b != 0
    for f, g in ((off, Poly(F, [-1, 1])), (Poly(F, [-1, 1]), off),
                 (off, Poly(F, []))):
        with pytest.raises(ValueError, match="Poly.gcd wants polynomials "
                                             "over F_p"):
            f.gcd(g)
