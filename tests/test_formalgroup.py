"""Formal group layer: invariants, expansions, the [p]-series, and the
Deligne / Gross-Landweber verifications.

Curves of the formal layer are int pairs (a4, a6) mod p.  The object
routes they replaced, curve_from_j and the Poly power behind
classical_hasse over F_p, are kept in tests/oracles.py as the
reference; they run on the scalars of fq2_context(p)."""

import random
from fractions import Fraction

import pytest

import oracles
from ellwitt import formalgroup, polyseries
from ellwitt.arith import (
    Quad,
    QuadElem,
    fq2_context,
    is_prime,
)
from ellwitt.formalgroup import (
    classical_hasse,
    curve_from_j,
    formal_expansion,
    has_bad_reduction,
    heights_from_series,
    mult_by_p_series,
    v_invariants,
    verify_deligne,
    verify_gross_landweber,
)
from ellwitt.formalgroup import _c4_c6_disc
from ellwitt.polyseries import Poly, QSeries
from ellwitt.sslocus import ss_j_point_count
from oracles import QQ, WCurve, mult_by_m


def test_curve_invariants_examples():
    F5 = fq2_context(5)
    c4, c6, disc, j = WCurve(F5, 0, 1).invariants()
    assert (c4, c6, disc, j) == (0, 1, 3, 0)
    assert all(x.in_prime_field for x in (c4, c6, disc, j))
    _, _, _, j = WCurve(QQ, 1, 0).invariants()
    assert j == 1728
    with pytest.raises(ValueError):
        WCurve(QQ, 0, 0).invariants()


def _tate_c4_c6_disc(a1, a2, a3, a4, a6) -> tuple:
    """Tate's c4, c6 and discriminant of [a1, a2, a3, a4, a6], for
    coefficients of any ring whose elements multiply with ints, plain
    ints included."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
          - a4 * a4)
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
    disc = (-(b2 * b2) * b8 - 8 * (b4 ** 3) - 27 * (b6 * b6)
            + 9 * b2 * b4 * b6)
    return c4, c6, disc


def test_short_invariants_match_tate_formulas():
    # Tate's formulas, the replaced code, fed (0, 0, 0, a4, a6) on ints,
    # Fractions and F_7 elements (scalars of F_{7^2})
    rng = random.Random(23)
    ints = [(a4, a6) for a4 in range(-7, 8) for a6 in range(-7, 8)]
    ints += [(rng.randrange(-10 ** 9, 10 ** 9),
              rng.randrange(-10 ** 9, 10 ** 9)) for _ in range(50)]
    fracs = [(Fraction(a4, rng.randrange(1, 50)),
              Fraction(a6, rng.randrange(1, 50))) for a4, a6 in ints]
    F7 = fq2_context(7)
    fp = [(F7.elem(a4), F7.elem(a6)) for a4 in range(7) for a6 in range(7)]
    for a4, a6 in ints + fracs + fp:
        got = _c4_c6_disc(a4, a6)
        assert got == _tate_c4_c6_disc(0, 0, 0, a4, a6), (a4, a6)
        assert all(type(x) is type(a4) for x in got)


def test_curve_relations_random():
    rng = random.Random(20)
    for _ in range(20):
        E = WCurve(QQ, rng.randrange(-9, 10), rng.randrange(-9, 10))
        try:
            c4, c6, disc, _ = E.invariants()
        except ValueError:
            continue
        assert c4 == -48 * E.a4
        assert c6 == -864 * E.a6
        assert disc == -16 * (4 * E.a4 ** 3 + 27 * E.a6 ** 2)
        assert 1728 * disc == c4 ** 3 - c6 ** 2


def test_formal_expansion_leading_terms():
    E = WCurve(QQ, 3, 5)
    x, y, omega = formal_expansion(E, 14)
    assert x.offset == -2 and x.coeff(-2) == 1
    assert omega.coeff(0) == 1
    # w = t/x = t^3 + a4 t^7 + a6 t^9 + ...
    w = x.inverse().shift(1)
    assert w.coeff_list(3, 10) == [1, 0, 0, 0, 3, 0, 5]
    # the defining equation y^2 = x^3 + a4 x + a6 holds as a series
    a6s = QSeries(QQ, 0, [5] + [0] * 13)
    resid = y * y - (x ** 3 + x.scale(Fraction(3)) + a6s)
    assert resid.is_zero()


def test_formal_log_properties():
    E = WCurve(QQ, 0, 1)
    log = mult_by_m(E, 1, 20)[3]
    assert log.coeff(1) == 1
    assert log.coeff(2) == 0  # no t^2 term for y^2 = x^3 + 1
    _, _, omega = formal_expansion(E, 20)
    assert (log.derivative() - omega).is_zero()
    for i, c in enumerate(log.coeffs):
        assert (c * (log.offset + i)).denominator == 1


def test_mult_by_one_is_identity():
    E = WCurve(QQ, 2, 3)
    *_, m1 = mult_by_m(E, 1, 12)
    assert m1.coeff_list(1, 12) == [Fraction(1)] + [Fraction(0)] * 10


def test_mult_by_p_series_examples():
    ps = mult_by_p_series((1, 0), 5)
    assert ps[0] == 5
    assert ps[4] % 5 == 2  # v1 = -48 = 2 mod 5
    # integrality of every coefficient
    assert len(ps) == 26 and type(ps) is tuple
    assert all(type(c) is int for c in ps)
    with pytest.raises(ValueError):
        mult_by_p_series((1, 0), 17)
    with pytest.raises(ValueError, match="bad reduction at 5"):
        mult_by_p_series((0, 5), 5)
    with pytest.raises(ValueError, match="bad reduction at 7"):
        mult_by_p_series((-3, 9), 7)  # a model outside [0, 7)


@pytest.mark.parametrize("a4, a6, p, bad", [
    (0, 1, 5, False), (1, 0, 7, False),
    (0, 5, 5, True),    # 27 a6^2 = 0 mod 5
    (-3, 2, 7, True),   # discriminant 0 over Q
    (1, 1, 31, True),   # 4 a4^3 + 27 a6^2 = 31
    (1, 1, 29, False),
])
def test_has_bad_reduction(a4, a6, p, bad):
    assert has_bad_reduction((a4, a6), p) is bad


def bad_reduction_by_fractions(E, p):
    """The replaced route: the discriminant from WCurve.invariants()."""
    try:
        disc = E.invariants()[2]
    except ValueError:  # discriminant 0
        return True
    return disc.denominator != 1 or disc.numerator % p == 0


def test_has_bad_reduction_int_route_matches_fractions():
    # every short curve at 5 and 7 (singular ones included), on models
    # in [-p, 2p)
    cases = [((a4, a6), p) for p in (5, 7)
             for a4 in range(-p, 2 * p) for a6 in range(-p, 2 * p)]
    assert {bad_reduction_by_fractions(WCurve(QQ, *a), p)
            for a, p in cases} == {True, False}
    for a, p in cases:
        assert has_bad_reduction(a, p) is \
            bad_reduction_by_fractions(WCurve(QQ, *a), p)


def test_v_invariants_examples():
    assert v_invariants((0, 1), 5) == (0, 4)
    assert v_invariants((1, 0), 5) == (2, None)


def test_height_dichotomy_vs_point_count():
    # v1 = 0 exactly on the supersingular locus (exhaustive, p = 5, 7,
    # with the full v2 extraction exercised)
    for p in (5, 7):
        field = fq2_context(p)
        ss_js = ss_j_point_count(p)
        ctx = next(iter(ss_js)).ring
        for A in range(p):
            for B in range(p):
                if (4 * A ** 3 + 27 * B ** 2) % p == 0:
                    continue
                v1, v2 = v_invariants((A, B), p)
                j = WCurve(field, A, B).invariants()[3]
                is_ss = ctx.from_int(j.a) in ss_js
                assert (v1 == 0) == is_ss
                assert (v2 is not None) == is_ss


def test_height_dichotomy_vs_point_count_11_13():
    # same dichotomy at p = 11, 13, reading v1 from the cheap head of the
    # [p]-series so the sweep stays fast
    for p in (11, 13):
        field = fq2_context(p)
        ss_js = ss_j_point_count(p)
        ctx = next(iter(ss_js)).ring
        for A in range(p):
            for B in range(p):
                if (4 * A ** 3 + 27 * B ** 2) % p == 0:
                    continue
                head = mult_by_p_series((A, B), p, prec=p + 1)
                j = WCurve(field, A, B).invariants()[3]
                is_ss = ctx.from_int(j.a) in ss_js
                assert (head[p - 1] % p == 0) == is_ss


def test_classical_hasse_formulas():
    # p=5: coefficient is 2A; p=11: 20AB = 9AB
    for A in range(5):
        for B in range(5):
            assert classical_hasse((A, B), 5) == (2 * A) % 5
    rng = random.Random(21)
    for _ in range(20):
        A, B = rng.randrange(11), rng.randrange(11)
        assert classical_hasse((A, B), 11) == (9 * A * B) % 11
    # j = 0 is ordinary at p = 7 (7 = 1 mod 3): nonzero coefficient 3B
    assert classical_hasse((0, 1), 7) == 3


@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
def test_classical_hasse_matches_the_poly_power(p):
    # the replaced route: (x^3 + a4 x + a6)^((p-1)/2) as a Poly over
    # F_p, the scalars of F_{p^2}, at every nonsingular curve
    F = fq2_context(p)
    for a4 in range(p):
        for a6 in range(p):
            if has_bad_reduction((a4, a6), p):
                continue
            got = classical_hasse((a4, a6), p)
            assert type(got) is int and 0 <= got < p
            assert got == oracles.classical_hasse(
                WCurve(F, a4, a6), p), (p, a4, a6)


def test_curve_from_j_matches_the_object_route():
    for p in [p for p in range(5, 98) if is_prime(p)]:
        F = fq2_context(p)
        for j in range(p):
            E = oracles.curve_from_j(F.elem(j))
            assert curve_from_j(j, p) == (E.a4, E.a6), (p, j)


def test_the_formal_layer_builds_no_ring_object(monkeypatch):
    # curves are int pairs mod p from v_invariants to verify_deligne
    def built(self, *args):
        raise AssertionError(f"the formal layer built a "
                             f"{type(self).__name__}")
    for cls in (Quad, QuadElem, Poly):
        monkeypatch.setattr(cls, "__init__", built)
    for p in (5, 7, 11, 13):
        for j in range(p):
            a = curve_from_j(j, p)
            assert all(type(c) is int and 0 <= c < p for c in a)
            v = v_invariants(a, p)
            assert all(type(c) is int for c in v if c is not None)
            full = mult_by_p_series(a, p)
            assert heights_from_series(a, p, full) == v
        assert verify_deligne(p).curves_checked == p * (p - 1)
    # the classical route is independent: no kernel of the [p]-series

    def shared(*args):
        raise AssertionError("classical_hasse ran a [p]-series kernel")
    for module, name in ((polyseries, "_FpX"), (formalgroup, "_mul"),
                         (formalgroup, "_div")):
        monkeypatch.setattr(module, name, shared)
    for p in (5, 7, 11, 13):
        for A in range(p):
            for B in range(p):
                assert 0 <= classical_hasse((A, B), p) < p


def test_weight_scaling_of_v1_v2():
    # (A, B) -> (u^4 A, u^6 B) scales v1 by u^(p-1) and v2 by u^(p^2-1)
    rng = random.Random(22)
    for p, A, B in ((5, 1, 1), (7, 2, 3)):
        if has_bad_reduction((A, B), p):
            continue
        v1, v2 = v_invariants((A, B), p)
        for _ in range(3):
            u = rng.randrange(1, p)
            w1, w2 = v_invariants((u ** 4 * A % p, u ** 6 * B % p), p)
            assert w1 == v1 * u ** (p - 1) % p
            if v2 is not None:
                assert w2 == v2 * u ** (p * p - 1) % p


def test_verify_deligne_small():
    r5 = verify_deligne(5)
    assert r5.curves_checked == 20 and r5.supersingular_curves == 4
    r7 = verify_deligne(7)
    assert r7.curves_checked == 42
    with pytest.raises(ValueError):
        verify_deligne(17)


def test_verify_gross_landweber_p5():
    r = verify_gross_landweber(5)
    assert r.sign == 1
    assert all(e.v2 == e.predicted for e in r.entries)
    assert len(r.entries) == 1
    e = r.entries[0]
    assert e.j == 0 and e.v2 == 4 and e.predicted == 4


def test_verify_gross_landweber_p7():
    r = verify_gross_landweber(7)
    assert r.sign == -1
    assert all(e.v2 == e.predicted for e in r.entries)
    assert [e.j for e in r.entries] == [6]
