"""The one ring shape, Quad(p, g0, N), the one coefficient ring
(F_{p^2} at N = 1, W(F_{p^2})/p^N over the Teichmuller modulus), at
every precision; F_p residues are ints, and QuadElem.to_fp returns one.
The F_p-only kernels must never serve N > 1, and no element crosses
into another ring."""

import random
from fractions import Fraction

import pytest

from ellwitt import arith, polyseries
from ellwitt.arith import (
    QuadElem,
    fq2_context,
    power,
    rth_root,
)
from ellwitt.padicwitt import lift_context
from ellwitt.polyseries import Poly, roots_in_field
from oracles import elements

W25 = lift_context(fq2_context(5), 2)


@pytest.mark.parametrize("ring", [W25, fq2_context(5)], ids=repr)
def test_unit_exactly_when_inverse_exists(ring):
    for z in elements(ring):
        if ring.is_unit(z):
            assert z * z.inverse() == 1
            assert z * ring.inv(z) == 1
        else:
            with pytest.raises(ValueError, match="not a unit|not invertible"):
                z.inverse()


def test_reduce_precision_is_a_ring_hom():
    rng = random.Random(5)
    for _ in range(2000):
        x = W25.elem(rng.randrange(25), rng.randrange(25))
        y = W25.elem(rng.randrange(25), rng.randrange(25))
        assert (x + y).reduce_precision(1) == x.reduce_precision(1) + y.reduce_precision(1)
        assert (x * y).reduce_precision(1) == x.reduce_precision(1) * y.reduce_precision(1)
    with pytest.raises(ValueError):
        W25.one().reduce_precision(3)


def test_precision_one_is_the_field():
    for p in (5, 7, 11, 13, 97):
        ctx = fq2_context(p)
        assert lift_context(ctx, 1) == ctx
        assert lift_context(ctx, 3).at(1) == ctx


def test_reprs_follow_the_precision():
    c7, w = fq2_context(7), lift_context(fq2_context(7), 3)
    assert repr(c7) == "F_7^2[x^2+1]"
    assert repr(c7.elem(2, 3)) == "2+3x (in F_7^2)"
    assert repr(w) == "W(F_7^2)/7^3"
    assert repr(w.elem(2, 3)) == "2+3w (in W/7^3)"
    assert repr(w.elem(2)) == "2 (in W/7^3)"
    # what a failed comparison of polynomials prints
    assert repr(Poly(c7, [3, 0, 1])) == \
        "Poly([3 (in F_7^2), 0 (in F_7^2), 1 (in F_7^2)])"
    assert repr(Poly(w, [3, w.elem(0, 2)])) == \
        "Poly([3 (in W/7^3), 0+2w (in W/7^3)])"


def test_precisions_never_mix():
    f25, w125 = fq2_context(5), lift_context(fq2_context(5), 3)
    with pytest.raises(ValueError, match="mixed contexts"):
        f25.one() * W25.one()
    with pytest.raises(ValueError, match="mixed contexts"):
        W25.one() - w125.one()
    with pytest.raises(ValueError, match="used in"):
        W25.coerce(f25.one())
    with pytest.raises(ValueError, match="different rings"):
        Poly(W25, [1]).divrem(Poly(w125, [1]))


def test_elements_never_cross_rings():
    # a value of another type is no scalar of F_{p^2} or W(F_{p^2})/p^N:
    # it is neither coerced nor combined, and it compares unequal
    three = Fraction(3)
    for ring in (fq2_context(5), W25):
        with pytest.raises(TypeError, match="cannot coerce Fraction"):
            ring.coerce(three)
        with pytest.raises(TypeError, match="cannot coerce Fraction"):
            ring.lift(three)
        with pytest.raises(TypeError):
            ring.one() + three
        with pytest.raises(TypeError):
            three * ring.one()
        assert (ring.from_int(3) == three) is False
        assert (three == ring.from_int(3)) is False
        assert three not in [ring.from_int(3)]
    # to_fp is the one way from F_{p^2} to F_p; W/p^N has none
    with pytest.raises(ValueError, match="not in the prime field"):
        W25.from_int(3).to_fp()
    with pytest.raises(ValueError, match="not in the prime field"):
        fq2_context(5).elem(3, 1).to_fp()


def test_to_fp_returns_the_residue_as_an_int():
    # F_p residues are ints: a scalar of F_{p^2} reads back as its
    # residue in [0, p), the int it equals
    three = fq2_context(5).from_int(3).to_fp()
    assert type(three) is int and three == 3
    for p in (5, 7, 13):
        ctx = fq2_context(p)
        for v in range(-p, 2 * p):
            assert ctx.from_int(v).to_fp() == v % p


def test_equality_with_another_ring_is_false():
    f25 = fq2_context(5)
    for other in (Fraction(1), object()):
        assert (f25.one() == other) is False
        assert (other == f25.one()) is False
        assert other not in [f25.one()]
    assert (f25.one() == W25.one()) is False
    # an int still compares by value
    assert f25.from_int(3) == 8 and f25.elem(3, 1) != 3
    assert W25.from_int(3) == 28 and W25.from_int(3) != 8


def test_fp_kernels_never_serve_precision_two(monkeypatch):
    def no_fpx(*args):
        raise AssertionError("the F_p kernel ran for W/p^2")
    monkeypatch.setattr(polyseries, "_FpX", no_fpx)
    f = Poly(W25, [-1, 0, 1])
    with pytest.raises(ValueError, match="wants polynomials over F_p"):
        f.gcd(Poly(W25, [-1, 1]))
    with pytest.raises(ValueError, match="roots_in_field wants F_p\\^2"):
        roots_in_field([-1, 0, 1], W25)
    with pytest.raises(ValueError, match="wants F_p\\^2"):
        rth_root(W25.elem(4), 2)


def test_powers_square_only_below_the_top_bit(monkeypatch):
    # arith.power, the object loop that QSeries powers run: x**2 is one
    # product and x**3 two, and every power up to 40 equals repeated
    # multiplication, at N = 1 and N > 1.  QuadElem powers run the same
    # loop on int pairs and multiply no QuadElem at all.
    c13 = fq2_context(13)
    for x, one in ((c13.elem(3, 5), c13.one()), (W25.elem(7, 11), W25.one())):
        acc = one
        for e in range(41):
            assert x ** e == acc
            if e:
                assert power(x, e) == acc
            acc = acc * x
        real, products = QuadElem.__mul__, []

        def counted(a, b):
            products.append(1)
            return real(a, b)

        monkeypatch.setattr(QuadElem, "__mul__", counted)
        for e, want in ((2, 1), (3, 2)):
            products.clear()
            power(x, e)
            assert len(products) == want, (x, e)
        products.clear()
        for e in range(-3, 41):
            x ** e
        assert products == [], x
        monkeypatch.undo()
    z = c13.elem(3, 5)
    assert z ** -3 == z.inverse() ** 3 and z ** 0 == c13.one()


#: The first 16 primes from 5: the fields of the r-th-root agreement.
FIELD_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

#: 16 rings: F_{p^2} at six primes, and W/p^2 and W/p^5 at five.
POWER_RINGS = ([fq2_context(p) for p in FIELD_PRIMES[:6]]
               + [lift_context(fq2_context(p), N)
                  for p in FIELD_PRIMES[:5] for N in (2, 5)])
assert len(POWER_RINGS) == 16


def object_power(x, e: int):
    """x^e by arith.power on QuadElem objects, as QuadElem.__pow__ ran
    before it squared on int pairs."""
    if e < 0:
        return object_power(x.inverse(), -e)
    return power(x, e) if e else x.ring.one()


@pytest.mark.parametrize("ring", POWER_RINGS, ids=repr)
def test_int_pair_power_is_the_object_loop(ring):
    # every exponent up to 2p^2 + 2, and down to its negative on units,
    # at zero, one, a scalar, seeded units and, for N > 1, non-units
    p, m, rng = ring.p, ring.modulus, random.Random(ring.modulus)
    xs = [ring.zero(), ring.one(), ring.elem(2)]
    xs += [ring.elem(rng.randrange(m), rng.randrange(1, m)) for _ in range(3)]
    if ring.N > 1:
        xs += [ring.elem(p * rng.randrange(m), p * rng.randrange(m))]
    top = 2 * p * p + 2
    for x in xs:
        low = -top if ring.is_unit(x) else 0
        for e in range(low, top + 1):
            assert x ** e == object_power(x, e), (x, e)


@pytest.mark.parametrize("p", FIELD_PRIMES)
def test_rth_root_is_the_object_loop_rth_root(p, monkeypatch):
    # every element of F_{p^2}, square and cube roots: the same root, or
    # the same refusal, as rth_root on QuadElem.__pow__ by arith.power
    ring = fq2_context(p)

    def roots():
        arith._sylow.cache_clear()
        out = []
        for z in elements(ring):
            for r in (2, 3):
                try:
                    out.append(rth_root(z, r))
                except ValueError:
                    out.append(None)
        return out
    monkeypatch.setattr(QuadElem, "__pow__", object_power)
    want = roots()
    monkeypatch.undo()
    assert roots() == want
    # half the units are not squares and, as 3 divides p^2 - 1, two
    # thirds are not cubes
    assert want.count(None) == (p * p - 1) // 2 + 2 * (p * p - 1) // 3
