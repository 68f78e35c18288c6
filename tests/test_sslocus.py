"""Supersingular locus: Deuring criterion, point-count oracle, the
Kaneko-Zagier closed form, the cross-validation over the route table,
and the Ogg scan with its class-number check."""

import re
from math import comb

import pytest

import ellwitt.modforms as modforms
import ellwitt.sslocus as sslocus
from ellwitt.arith import Zmod, fq2_context, is_prime
from ellwitt.errors import ValidationError
from ellwitt.formalgroup import curve_from_j
from ellwitt.modforms import MAX_EISENSTEIN_PRIME, ss_poly_eisenstein
from ellwitt.polyseries import Poly, count_roots_in_fp
from ellwitt.sslocus import (
    MONSTER_PRIMES,
    class_number,
    cross_validate,
    hasse_polynomial,
    legendre_to_j,
    ogg_scan,
    rational_ss_count,
    sigma,
    ss_j_deuring,
    ss_j_point_count,
    ss_poly_closed,
)


def test_sigma_values():
    assert sigma(13) == 1
    assert sigma(11) == 2
    assert sigma(23) == 3
    assert sigma(97) == 8
    with pytest.raises(ValueError):
        sigma(9)


def test_hasse_polynomial_values():
    assert [c.value for c in hasse_polynomial(5).coeffs] == [1, 4, 1]
    assert [c.value for c in hasse_polynomial(7).coeffs] == [1, 2, 2, 1]
    h11 = hasse_polynomial(11)
    assert h11.degree == 5 and h11.coeff(0).value == 1
    # the ratio recurrence mod p against the squared big-int binomials
    for p in range(5, 1001):
        if is_prime(p):
            m = (p - 1) // 2
            assert [c.value for c in hasse_polynomial(p).coeffs] == \
                [comb(m, k) ** 2 % p for k in range(m + 1)], p


def test_legendre_to_j_examples():
    # harmonic lambda = 2 gives j = 1728 in any characteristic
    for p in (7, 13, 1009):
        F = Zmod(p)
        assert legendre_to_j(F.elem(2)) == F.from_int(1728)
    # lambda with lambda^2 - lambda + 1 = 0 gives j = 0: such lambda
    # exists mod 13 (discriminant -3 is a square mod 13)
    F13 = Zmod(13)
    lam = next(F13.elem(v) for v in range(2, 13)
               if (v * v - v + 1) % 13 == 0)
    assert legendre_to_j(lam) == F13.zero()
    F7 = Zmod(7)
    assert legendre_to_j(F7.elem(6)).value == 6
    with pytest.raises(ValueError):
        legendre_to_j(F7.elem(1))


def test_legendre_six_orbit_single_j():
    # the anharmonic orbit of every Hasse root maps to one j
    for p in (11, 13, 23, 31):
        ctx = fq2_context(p)
        from ellwitt.polyseries import roots_in_field
        one = ctx.one()
        for lam in roots_in_field(hasse_polynomial(p), ctx):
            j = legendre_to_j(lam)
            orbit = [lam, one - lam, lam.inverse(),
                     (one - lam).inverse(),
                     lam * (lam - one).inverse(),
                     (lam - one) * lam.inverse()]
            assert all(legendre_to_j(mu) == j for mu in orbit)


def test_ss_j_deuring_spot_values():
    assert {(z.a, z.b) for z in ss_j_deuring(5)} == {(0, 0)}
    assert {(z.a, z.b) for z in ss_j_deuring(7)} == {(6, 0)}
    assert {(z.a, z.b) for z in ss_j_deuring(11)} == {(0, 0), (1, 0)}
    with pytest.raises(ValueError):
        ss_j_deuring(1013)


def test_curve_from_j_branches_and_roundtrip():
    F13 = Zmod(13)
    E0 = curve_from_j(F13.zero())
    assert (E0.a4.value, E0.a6.value) == (0, 1)
    E1728 = curve_from_j(F13.from_int(1728))
    assert (E1728.a4.value, E1728.a6.value) == (1, 0)
    for v in range(13):
        E = curve_from_j(F13.elem(v))
        assert E.invariants()[3] == F13.elem(v)
    # and over the quadratic extension
    ctx = fq2_context(11)
    for z in ctx.elements():
        E = curve_from_j(z)
        assert E.invariants()[3] == z


def test_point_count_hand_check_p5():
    # y^2 = x^3 + 1 over F_5 has the 6 points (0,+-1),(2,+-2),(4,0),inf;
    # t = 0 over F_5 forces t = -10 over F_25, i.e. 36 points.
    F5 = Zmod(5)
    pts = {(x, y) for x in range(5) for y in range(5)
           if (y * y - x ** 3 - 1) % 5 == 0}
    assert len(pts) + 1 == 6
    ss = ss_j_point_count(5)
    assert {(z.a, z.b) for z in ss} == {(0, 0)}


def test_point_count_spot_values():
    assert {(z.a, z.b) for z in ss_j_point_count(13)} == {(5, 0)}
    # j = 1728 ordinary at p = 5 (5 = 1 mod 4): not in the locus
    ctx5 = fq2_context(5)
    assert ctx5.from_int(1728) not in ss_j_point_count(5)
    with pytest.raises(ValueError):
        ss_j_point_count(37)


def _point_count_numpy(p):
    # the replaced kernel, kept as the oracle: the trace of
    # curve_from_j(j) over F_{p^2} for every j, one numpy sum each
    import numpy as np
    ctx = fq2_context(p)
    g0 = ctx.g0
    q = p * p
    xa = np.repeat(np.arange(p, dtype=np.int64), p)
    xb = np.tile(np.arange(p, dtype=np.int64), p)

    def vmul(ua, ub, va, vb):
        return (ua * va - g0 * ub * vb) % p, (ua * vb + ub * va) % p

    sqa, sqb = vmul(xa, xb, xa, xb)
    chi = np.full(q, -1, dtype=np.int64)
    chi[sqa * p + sqb] = 1
    chi[0] = 0
    cba, cbb = vmul(sqa, sqb, xa, xb)  # x^3
    out = set()
    for j in ctx.elements():
        E = curve_from_j(j)
        A, B = E.a4, E.a6
        bd = A.b * xb
        ua = (cba + A.a * xa - g0 * bd + B.a) % p
        ub = (cbb + A.a * xb + A.b * xa + B.b) % p
        if int(chi[ua * p + ub].sum()) % p == 0:
            out.add(j)
    return frozenset(out)


@pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
def test_point_count_matches_numpy_oracle_and_deuring(p):
    got = ss_j_point_count(p)
    assert got == _point_count_numpy(p)
    assert got == ss_j_deuring(p)


def test_cross_validate_spot_loci():
    L7 = cross_validate(7)
    assert (L7.sigma, L7.all_rational) == (1, True)
    assert {(z.a, z.b) for z in L7.j_values} == {(6, 0)}
    L11 = cross_validate(11)
    assert (L11.sigma, L11.all_rational) == (2, True)
    assert {(z.a, z.b) for z in L11.j_values} == {(0, 0), (1, 0)}
    L13 = cross_validate(13)
    assert (L13.sigma, L13.all_rational) == (1, True)
    assert {(z.a, z.b) for z in L13.j_values} == {(5, 0)}


def test_cross_validate_j_values_are_a_tuple_in_ab_order():
    for p in range(5, sslocus.MAX_CROSS_VALIDATE_PRIME + 1):
        if is_prime(p):
            js = cross_validate(p).j_values
            assert isinstance(js, tuple), p
            assert [(z.a, z.b) for z in js] == \
                sorted((z.a, z.b) for z in js), p


def test_cross_validate_full_range_invariants():
    for p in range(5, 98):
        if not is_prime(p):
            continue
        L = cross_validate(p)
        assert len(L.j_values) == L.sigma == sigma(p) == L.ss_poly.degree
        ctx = fq2_context(p)
        assert {z.conj() for z in L.j_values} == set(L.j_values)
        assert (ctx.zero() in L.j_values) == (p % 3 == 2)
        assert (ctx.from_int(1728) in L.j_values) == (p % 4 == 3)
        # non-rational values occur in conjugate pairs
        irrational = [z for z in L.j_values if not z.in_prime_field]
        assert len(irrational) % 2 == 0


def test_ogg_scan():
    assert ogg_scan(13) == [5, 7, 11, 13]
    assert 37 not in ogg_scan(37)
    assert ogg_scan(71) == [p for p in MONSTER_PRIMES if p > 3]


# --- the closed form, the rational count, and the Ogg scan ---


@pytest.mark.parametrize(
    "p", [p for p in range(5, MAX_EISENSTEIN_PRIME + 1) if is_prime(p)])
def test_closed_form_equals_eisenstein(p):
    got = ss_poly_closed(p)
    assert [c.value for c in got.coeffs] == \
        [c.value for c in ss_poly_eisenstein(p).coeffs]
    assert got.degree == sigma(p)


def test_class_number_examples():
    # h(-12) = 1: 2x^2 + 2xy + 2y^2 is reduced but not primitive
    want = {-3: 1, -4: 1, -12: 1, -20: 2, -23: 3, -47: 5, -56: 4,
            -71: 7, -84: 4, -308: 8}
    assert {D: class_number(D) for D in want} == want
    for D in (0, 5, -6):
        with pytest.raises(ValueError):
            class_number(D)


def _class_number_count(p):
    # Delfs and Galbraith: the F_p-rational supersingular curves
    if p % 4 == 1:
        return class_number(-4 * p) // 2
    return class_number(-p) * (1 if p % 8 == 7 else 2)


def _deuring_rational_count(p):
    return sum(z.in_prime_field for z in ss_j_deuring(p))


@pytest.mark.parametrize("p", [p for p in range(5, 301) if is_prime(p)])
def test_rational_counts_agree(p):
    gcd_count = count_roots_in_fp(ss_poly_closed(p))
    assert gcd_count == _class_number_count(p) == \
        _deuring_rational_count(p) == rational_ss_count(p)


def test_ogg_scan_equals_deuring_oracle():
    oracle = [p for p in range(5, 301) if is_prime(p)
              and all(z.in_prime_field for z in ss_j_deuring(p))]
    assert ogg_scan(300) == oracle == [p for p in MONSTER_PRIMES if p > 3]


@pytest.mark.parametrize("p, root", [(5, 0), (7, 6), (13, 5)])
def test_degree_one_primes(p, root):
    # ss_p = X - root: the count is read off, not taken from a powmod
    assert [c.value for c in ss_poly_closed(p).coeffs] == [-root % p, 1]
    assert rational_ss_count(p) == 1 == sigma(p)
    assert {(z.a, z.b) for z in ss_j_deuring(p)} == {(root, 0)}
    assert p in ogg_scan(p)


def test_ogg_scan_bound():
    with pytest.raises(ValueError):
        ogg_scan(sslocus.MAX_OGG_SCAN + 1)


def test_closed_form_disagreement_names_the_coefficient(monkeypatch):
    real = ss_poly_closed(13)
    bad = Poly(real.ring, [real.coeffs[0] + real.ring.one(), 1])
    monkeypatch.setattr(sslocus, "ss_poly_closed", lambda p: bad)
    with pytest.raises(ValidationError, match=r"p=13: closed form vs "
                       r"eisenstein disagree at the coefficient of X\^0: "
                       r"9 != 8"):
        cross_validate.__wrapped__(13)


def test_class_number_disagreement_names_both_counts(monkeypatch):
    monkeypatch.setattr(sslocus, "class_number", lambda D: 2)
    with pytest.raises(ValidationError,
                       match=r"p=11: 2 F_p-rational .* 4 by class numbers"):
        rational_ss_count(11)


# --- the route table ---


#: The function each row of sslocus.ROUTES calls, by its module name.
#: The "deuring quotient" row reads the ss_p of the Deuring pass,
#: hasse_roots, whose j-set the "deuring" row reads through ss_j_deuring.
_ROUTE_FUNCTIONS = {
    "closed form": (sslocus, "ss_poly_closed"),
    "eisenstein": (modforms, "ss_poly_eisenstein"),
    "deuring quotient": (sslocus, "hasse_roots"),
    "deuring": (sslocus, "ss_j_deuring"),
    "point-count": (sslocus, "ss_j_point_count"),
}


def _mutant(real, edit):
    """real with one coefficient of ss_p moved, or one j of its j-set
    (at p = 23: 0, 3 = 1728 and 19) dropped or swapped for the
    non-root 1.  Of a Deuring pass only ss_p moves."""
    def wrong(p):
        out = real(p)
        if isinstance(out, sslocus.DeuringPass):
            return out._replace(
                ss_poly=_mutant(lambda p: out.ss_poly, edit)(p))
        if edit == "coefficient":
            coeffs = [c.value for c in out.coeffs]
            return Poly(Zmod(p), [(coeffs[0] + 1) % p] + coeffs[1:])
        j = fq2_context(p).from_int(19)
        rest = out - {j}
        return rest if edit == "drop" else rest | {j - 18}
    return wrong


@pytest.mark.parametrize("name, edit", [
    (r.name, edit) for r in sslocus.ROUTES
    for edit in (("drop", "swap") if r.jset else ("coefficient",))])
def test_every_route_mutant_is_named(monkeypatch, name, edit):
    owner, attr = _ROUTE_FUNCTIONS[name]
    monkeypatch.setattr(owner, attr, _mutant(getattr(owner, attr), edit))
    with pytest.raises(ValidationError, match=rf"p=23: (.+ vs )?"
                       rf"{re.escape(name)}( vs .+)? disagree"):
        cross_validate.__wrapped__(23)


def test_galois_unstable_j_set_is_refused(monkeypatch):
    real = ss_j_deuring(37)
    j = next(z for z in real if z.b)
    assert j.conj() in real and len(real) == 3
    monkeypatch.setattr(sslocus, "ss_j_deuring", lambda p: real - {j})
    with pytest.raises(ValidationError, match=r"p=37: deuring j-set is "
                       r"not Galois stable"):
        cross_validate.__wrapped__(37)


def test_non_squarefree_ss_poly_is_refused(monkeypatch):
    # X^2 (X - 1728) at p = 23 in place of X (X - 1728) (X - 19): degree
    # sigma(23) = 3, and every polynomial route agrees on it
    bad = [0, 0, -1728 % 23, 1]
    assert len(bad) - 1 == sigma(23)
    F = Zmod(23)
    real = sslocus.hasse_roots
    monkeypatch.setattr(sslocus, "ss_poly_closed", lambda p: Poly(F, bad))
    monkeypatch.setattr(modforms, "ss_poly_eisenstein",
                        lambda p: Poly(F, bad))
    monkeypatch.setattr(sslocus, "hasse_roots",
                        lambda p: real(p)._replace(ss_poly=Poly(F, bad)))
    with pytest.raises(ValidationError,
                       match=r"p=23: .* vs deuring disagree"):
        cross_validate.__wrapped__(23)


def test_every_admitted_prime_runs_two_routes_and_a_j_set():
    assert set(_ROUTE_FUNCTIONS) == {r.name for r in sslocus.ROUTES}
    for p in range(5, sslocus.MAX_CROSS_VALIDATE_PRIME + 1):
        if not is_prime(p):
            continue
        ran = [r for r in sslocus.ROUTES if r.max_p is None or p <= r.max_p]
        # the first row is the polynomial the others are compared with
        assert len(ran) >= 2 and not ran[0].jset, p
        assert any(r.jset for r in ran), p
        assert cross_validate(p).routes == tuple(r.name for r in ran), p
