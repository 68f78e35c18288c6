"""_FpX.split (trace splitting with a two-factor finisher) and _FpX.gcd
(schoolbook Euclid) against the kernels they replaced.

OldFpX below keeps the replaced split (Cantor-Zassenhaus with a random a
of degree < deg g and the exponent (p^d - 1)/2) and gcd (Euclid with a
Newton inverse and Kronecker products per step) verbatim.  Both must
return the same factor sets, and roots_in_field must return the same
roots whichever kernels it runs on.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwitt import polyseries
from ellwitt.arith import fq2_context, is_prime
from ellwitt.polyseries import _FpX, _trim, roots_in_field
from ellwitt.sslocus import hasse_polynomial

SMALL_PRIMES = (5, 7, 11, 13)


class OldFpX(_FpX):
    """_FpX with the split and gcd it replaced (the oracles); split takes
    and ignores frob so that roots_in_field can run on this class."""

    __slots__ = ()

    def gcd(self, a, b) -> list:
        """Monic gcd (Euclid); gcd(a, 0) = monic(a)."""
        while b:
            b = self.monic(b)
            binv = self.inv_rev(b, len(a) - len(b) + 1)
            a, b = b, self.divrem(a, b, binv)[1]
        return self.monic(a) if a else a

    def split(self, g, d: int, rng, frob=None) -> list:
        """Monic factors of g, a product of distinct monic irreducibles of
        degree d (Cantor-Zassenhaus equal-degree splitting)."""
        n = len(g) - 1
        if n <= d:
            return [g] if n > 0 else []
        ginv = self.inv_rev(g, n)
        e = (self.p ** d - 1) // 2
        while True:
            a = _trim([rng.randrange(self.p) for _ in range(n)])
            h = self.gcd(g, self.add(self.powmod(a, e, g, ginv), [1], -1))
            if 0 < len(h) - 1 < n:
                break
        rest = self.divrem(g, h, self.inv_rev(h, n))[0]
        return self.split(h, d, rng) + self.split(rest, d, rng)


class NoTrial:
    """An rng for nodes that must not draw: any draw fails the test."""

    def randrange(self, n):
        raise AssertionError("a two-factor node drew a random trial")


def frobenius(fx, g) -> list:
    """X^p mod g."""
    return fx.powmod([0, 1], fx.p, g, fx.inv_rev(g, len(g) - 1))


def product(fx, factors) -> list:
    out = [1]
    for f in factors:
        out = fx.mul(out, f)
    return out


def hasse_parts(fx, p):
    """(X^p mod h, linear part, quadratic part) of the monic Hasse
    polynomial h at p, the way roots_in_field splits it."""
    h = fx.monic(hasse_polynomial(p))
    hinv = fx.inv_rev(h, len(h) - 1)
    xp, lin = fx.linear_part(h, hinv)
    xq = fx.powmod(xp, p, h, hinv)
    g = fx.gcd(h, fx.add(xq, [0, 1], -1))
    return xp, lin, fx.divrem(g, lin, fx.inv_rev(lin, len(g)))[0]


def roots_on(kernels, f, field, monkeypatch) -> set:
    with monkeypatch.context() as m:
        m.setattr(polyseries, "_FpX", kernels)
        return roots_in_field(f, field)


# --- the Hasse polynomial, every prime 5..199 ---


@pytest.mark.parametrize("p", [p for p in range(5, 200) if is_prime(p)])
def test_hasse_factors_and_roots_match_old_kernels(p, monkeypatch):
    n = (p + 1) // 2
    new, old = _FpX(p, n), OldFpX(p, n)
    xp, lin, quad = hasse_parts(new, p)
    assert (xp, lin, quad) == hasse_parts(old, p)
    for g, d, frob in ((lin, 1, None), (quad, 2, xp)):
        got = new.split(g, d, random.Random(0), frob)
        assert sorted(got) == sorted(old.split(g, d, random.Random(0)))
        assert all(len(f) == d + 1 for f in got)
    H = hasse_polynomial(p)
    ctx = fq2_context(p)
    assert roots_in_field(H, ctx) == roots_on(OldFpX, H, ctx, monkeypatch)


# --- the two-factor finisher ---


def test_equal_trace_pair_uses_the_norm():
    # X^2 + 1 and X^2 + 2 are irreducible over F_7 with trace 0: V = X + F
    # is the constant 0, and U = X^2 + F^2 = -2N separates them.  F comes
    # from g itself or, as a child node receives it, from a multiple of g.
    assert {(1, 0, 1), (2, 0, 1)} <= set(irreducible_quadratics(7)[0])
    fx = _FpX(7, 12)
    g = product(fx, [[1, 0, 1], [2, 0, 1]])
    assert len(fx.add(frobenius(fx, g), [0, 1])) <= 1
    for frob in (frobenius(fx, g), frobenius(fx, fx.mul(g, [3, 1, 1]))):
        assert sorted(fx.split(g, 2, NoTrial(), frob)) == \
            [[1, 0, 1], [2, 0, 1]]


def test_distinct_trace_pair():
    # X^2 + X + 1 and X^2 + 2X + 3 over F_5: traces 4 and 3
    fx = _FpX(5, 8)
    pair = [[1, 1, 1], [3, 2, 1]]
    assert (1, 1, 1) in irreducible_quadratics(5)[1]
    assert (3, 2, 1) in irreducible_quadratics(5)[2]
    g = product(fx, pair)
    assert sorted(fx.split(g, 2, NoTrial(), frobenius(fx, g))) == pair


def test_degree_two_node_for_linear_factors():
    fx = _FpX(7, 4)
    g = product(fx, [[6, 1], [4, 1]])        # (X - 1)(X - 3)
    assert sorted(fx.split(g, 1, NoTrial(), None)) == [[4, 1], [6, 1]]
    g = product(fx, [[0, 1], [1, 1]])        # X (X + 1)
    assert sorted(fx.split(g, 1, NoTrial(), None)) == [[0, 1], [1, 1]]


def irreducible_quadratics(p: int) -> dict:
    """Monic irreducible X^2 + bX + c over F_p, as (c, b, 1), by b."""
    out = {}
    for b in range(p):
        for c in range(p):
            disc = (b * b - 4 * c) % p
            if disc and pow(disc, (p - 1) // 2, p) == p - 1:
                out.setdefault(b, []).append((c, b, 1))
    return out


@st.composite
def shared_trace_products(draw):
    """(p, factors): two or more distinct irreducible quadratics with
    one trace, plus up to three more of any trace."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    by_trace = irreducible_quadratics(p)
    b = draw(st.sampled_from(sorted(by_trace)))
    shared = draw(st.lists(st.sampled_from(by_trace[b]), min_size=2,
                           max_size=4, unique=True))
    every = sorted(q for qs in by_trace.values() for q in qs)
    more = draw(st.lists(st.sampled_from(every), max_size=3, unique=True))
    return p, sorted(set(shared + more))


@settings(max_examples=150, deadline=None)
@given(shared_trace_products(), st.integers(0, 2 ** 32),
       st.booleans())
def test_shared_trace_products_split(draw, seed, from_multiple):
    p, factors = draw
    want = [list(q) for q in factors]
    fx = _FpX(p, 2 * len(want) + 3)
    g = product(fx, want)
    frob = frobenius(fx, fx.mul(g, [1, 1]) if from_multiple else g)
    got = fx.split(g, 2, random.Random(seed), frob)
    assert sorted(got) == want
    assert sorted(OldFpX(p, len(g)).split(g, 2, random.Random(seed))) == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1),
                                             min_size=1, unique=True))),
    st.integers(0, 2 ** 32))
def test_distinct_linear_products_split(draw, seed):
    p, roots = draw
    want = sorted([-r % p, 1] for r in roots)
    fx = _FpX(p, len(roots) + 1)
    got = fx.split(product(fx, want), 1, random.Random(seed), None)
    assert sorted(got) == want
