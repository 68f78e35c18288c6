"""The two ring shapes at every precision: Zmod(p, N) (F_p at N = 1) and
Quad(p, g0, N) (F_{p^2} at N = 1, W(F_{p^2})/p^N over the
Teichmuller modulus).  The F_p-only kernels must never serve N > 1."""

import random

import pytest

from ellwitt import polyseries
from ellwitt.arith import (
    QuadElem,
    Zmod,
    fq2_context,
    is_quadratic_residue,
    rth_root,
)
from ellwitt.padicwitt import lift_context
from ellwitt.polyseries import Poly, roots_in_field
from oracles import elements

Z25 = Zmod(5, 2)
W25 = lift_context(fq2_context(5), 2)


@pytest.mark.parametrize("ring", [Z25, W25, Zmod(5), fq2_context(5)],
                         ids=repr)
def test_unit_exactly_when_inverse_exists(ring):
    for z in elements(ring):
        if ring.is_unit(z):
            assert z * z.inverse() == ring.one()
            assert z * ring.inv(z) == ring.one()
        else:
            with pytest.raises((ValueError, ZeroDivisionError)):
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
        assert Zmod(p, 1) == Zmod(p)
        assert Zmod(p, 2) != Zmod(p)
        ctx = fq2_context(p)
        assert lift_context(ctx, 1) == ctx
        assert lift_context(ctx, 3).at(1) == ctx


def test_reprs_follow_the_precision():
    F7, R = Zmod(7), Zmod(7, 3)
    assert (repr(F7), repr(F7.elem(3))) == ("F_7", "3 (mod 7)")
    assert (repr(R), repr(R.elem(3))) == ("Z/7^3", "3 (mod 7^3)")
    c7, w = fq2_context(7), lift_context(fq2_context(7), 3)
    assert repr(c7) == "F_7^2[x^2+1]"
    assert repr(c7.elem(2, 3)) == "2+3x (in F_7^2)"
    assert repr(w) == "W(F_7^2)/7^3"
    assert repr(w.elem(2, 3)) == "2+3w (in W/7^3)"
    assert repr(w.elem(2)) == "2 (in W/7^3)"
    # what a failed comparison of polynomials prints
    assert repr(Poly(F7, [3, 0, 1])) == \
        "Poly([3 (mod 7), 0 (mod 7), 1 (mod 7)])"


def test_precisions_never_mix():
    with pytest.raises(ValueError):
        Zmod(5).one() + Z25.one()
    with pytest.raises(ValueError):
        fq2_context(5).one() * W25.one()
    with pytest.raises(ValueError):
        W25.coerce(Zmod(5).one())


def test_equality_with_another_ring_is_false():
    f25 = fq2_context(5)
    assert (f25.one() == Zmod(7).one()) is False
    assert (f25.one() == Zmod(5, 2).one()) is False
    assert Zmod(7).one() not in [f25.one()]
    # a scalar of the same F_p, and an int, still compare by value
    assert f25.from_int(3) == Zmod(5).elem(3) == f25.from_int(3)
    assert f25.from_int(3) == 8 and f25.elem(3, 1) != 3


def test_fp_kernels_never_serve_precision_two(monkeypatch):
    def no_fpx(*args):
        raise AssertionError("the F_p kernel ran for Z/p^2")
    monkeypatch.setattr(polyseries, "_FpX", no_fpx)
    f = Poly(Z25, [-1, 0, 1])
    with pytest.raises(ValueError):
        f.gcd(Poly(Z25, [-1, 1]))
    with pytest.raises(ValueError):
        roots_in_field([-1, 0, 1], Z25)
    with pytest.raises(ValueError):
        roots_in_field([-1, 0, 1], W25)
    with pytest.raises(ValueError):
        rth_root(Z25.elem(4), 2)
    with pytest.raises(ValueError):
        is_quadratic_residue(Z25.elem(5))


def test_powers_square_only_below_the_top_bit(monkeypatch):
    # x**2 is one product and x**3 two; every power up to 40 equals
    # repeated multiplication, at N = 1 and N > 1
    c13 = fq2_context(13)
    cases = [(QuadElem, c13.elem(3, 5), c13.one()),
             (QuadElem, W25.elem(7, 11), W25.one())]
    for cls, x, one in cases:
        acc = one
        for e in range(41):
            assert x ** e == acc
            acc = acc * x
        real, products = cls.__mul__, []

        def counted(a, b):
            products.append(1)
            return real(a, b)

        monkeypatch.setattr(cls, "__mul__", counted)
        for e, want in ((2, 1), (3, 2)):
            products.clear()
            x ** e
            assert len(products) == want, (x, e)
        monkeypatch.undo()
    z = c13.elem(3, 5)
    assert z ** -3 == z.inverse() ** 3 and z ** 0 == c13.one()
