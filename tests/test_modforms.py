"""q-expansions, the E4/E6 basis, and the Eisenstein route to the
supersingular polynomial."""

from fractions import Fraction
from functools import cache
from math import comb, gcd

import pytest

from ellwitt import arith, polyseries
from ellwitt.arith import fq2_context, is_prime
from ellwitt.cli import forms_section
from ellwitt.errors import ValidationError
from ellwitt import modforms
from ellwitt.modforms import (
    MAX_EISENSTEIN_WEIGHT,
    _level_one_forms,
    _tangent_numbers,
    eisenstein_q,
    eta24_q,
    express_in_e4e6,
    hasse_decomposition,
    hasse_form,
    j_q,
    ss_poly_eisenstein,
    times_fixed_factors,
)
from ellwitt.polyseries import Poly, QSeries, _mul
from ellwitt.sslocus import sigma
from oracles import QQ, bernoulli, eisenstein_series, reduce_mod, weight_basis
from oracles import eta24_q as product_eta24
from oracles import express_in_e4e6 as rational_express

PRIMES = [p for p in range(5, 98) if is_prime(p)]


def test_bernoulli_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(96).denominator % 97 == 0  # von Staudt-Clausen at 97
    with pytest.raises(ValueError):
        bernoulli(3)


@cache
def _bernoulli_recurrence(top):
    # the replaced kernel, kept as the oracle:
    # sum_{i=0}^{m} C(m+1, i) B_i = 0 over Fraction
    bs = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, top + 1):
        acc = Fraction(0)
        for i in range(m):
            acc += comb(m + 1, i) * bs[i]
        bs.append(-acc / (m + 1))
    return tuple(bs)


def test_bernoulli_tangent_numbers_match_recurrence():
    want = _bernoulli_recurrence(MAX_EISENSTEIN_WEIGHT)
    for k in range(2, MAX_EISENSTEIN_WEIGHT + 1, 2):
        got = bernoulli(k)
        assert type(got) is Fraction and got == want[k], k
    top = _tangent_numbers(MAX_EISENSTEIN_WEIGHT // 2)
    assert top[:5] == (0, 1, 2, 16, 272)
    assert all(type(t) is int for t in top)
    for n in range(12):
        assert _tangent_numbers(n) == top[:n + 1]


def test_eisenstein_builds_bernoulli_numbers_only_up_to_its_weight():
    _tangent_numbers.cache_clear()
    eisenstein_q(16, 10)
    info = _tangent_numbers.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    _tangent_numbers(8)
    assert _tangent_numbers.cache_info().hits == info.hits + 1


@pytest.mark.parametrize("p", [p for p in range(5, 200) if is_prime(p)])
def test_the_eisenstein_factor_from_the_tangent_numbers(p):
    # c = -2k/B_k at k = p - 1, the factor hasse_form certifies, read off
    # T_h; the von Staudt-Clausen congruence is v_p(c) = 1
    h = (p - 1) // 2
    c = Fraction((-1) ** h * 2 * 4 ** h * (4 ** h - 1),
                 _tangent_numbers(h)[h])
    assert c == -2 * (p - 1) / bernoulli(p - 1)
    assert modforms._eisenstein_factor(h) == (c.numerator, c.denominator)
    assert c.numerator % p == 0 and c.numerator % (p * p)
    assert c.denominator % p


def test_hasse_form_raises_when_the_certificate_fails(monkeypatch):
    # T_h times p leaves c a p-adic unit: E_{p-1} would not be 1 mod p
    for p in PRIMES:
        true = _tangent_numbers(p // 2)
        monkeypatch.setattr(modforms, "_tangent_numbers",
                            lambda n: tuple(t * p for t in true[:n + 1]))
        with pytest.raises(ValidationError,
                           match=rf"E_{p - 1} mod {p} is not the constant 1"):
            hasse_form.__wrapped__(p)


def test_hasse_form_reads_no_rational_series(monkeypatch):
    def rational(*args):
        raise AssertionError("hasse_form reached a rational route")
    monkeypatch.setattr(modforms, "eisenstein_q", rational)
    for p in PRIMES:
        assert hasse_form.__wrapped__(p) == hasse_form(p)


def test_hasse_form_builds_no_ring_element_or_series(monkeypatch):
    # the solve runs on int lists mod p: no Quad, QuadElem or QSeries
    def built(self, *args):
        raise AssertionError(f"hasse_form built a {type(self).__name__}")
    for cls in (arith.Quad, arith.QuadElem, polyseries.QSeries):
        monkeypatch.setattr(cls, "__init__", built)
    for p in PRIMES:
        got = hasse_form.__wrapped__(p)
        assert all(type(c) is int and 0 <= c < p for c in got.values())


def test_eisenstein_expansions():
    assert eisenstein_q(4, 3) == (1, [1, 240, 2160])
    assert eisenstein_q(6, 3) == (1, [1, -504, -16632])
    assert eisenstein_q(12, 2) == (691, [691, 65520])
    # one-dimensional weight-10 space
    (_, e4), (_, e6) = eisenstein_q(4, 20), eisenstein_q(6, 20)
    assert eisenstein_q(10, 20) == (1, _mul(e4, e6, 20))


@pytest.mark.parametrize("k, prec", [(5, 10), (2, 10), (0, 10), (-4, 10),
                                     (202, 10), (4, 0), (4, -1)])
def test_eisenstein_q_bounds(k, prec):
    with pytest.raises(ValueError, match="MAX_EISENSTEIN_WEIGHT = 200"):
        eisenstein_q(k, prec)


def test_eisenstein_numerators_match_the_bernoulli_route():
    # the replaced route: E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n over
    # Fraction, with B_k from the recurrence; forms printed str() of each
    bs = _bernoulli_recurrence(MAX_EISENSTEIN_WEIGHT)
    for k in range(4, MAX_EISENSTEIN_WEIGHT + 1, 2):
        want = [Fraction(1)] + [
            -2 * k / bs[k] * sum(d ** (k - 1) for d in range(1, n + 1)
                                 if n % d == 0)
            for n in range(1, 30)]
        den, nums = eisenstein_q(k, 30)
        assert all(type(c) is int for c in [den] + nums), k
        assert den > 0 and gcd(den, nums[1]) == 1, k
        assert [Fraction(a, den) for a in nums] == want, k
        assert forms_section(k, 30)["eisenstein_q"] == \
            [str(c) for c in want], k


def test_delta_and_eta24():
    d = _level_one_forms(5)[2]
    assert d == [0, 1, -24, 252, -1472]
    assert eta24_q(5) == d
    assert _level_one_forms(50)[2] == eta24_q(50)


def test_eta24_is_the_product_expansion():
    # the pentagonal route is the product expanded factor by factor at
    # every precision 2..200 (the range of `verify all`); a coefficient
    # does not depend on the precision, so one expansion serves all
    want = product_eta24(200)
    for prec in range(2, 201):
        assert eta24_q(prec) == want[:prec], prec
    with pytest.raises(ValueError, match="prec must be >= 2"):
        eta24_q(1)


def test_j_expansion():
    j = j_q(3)
    assert j == [1, 744, 196884, 21493760]   # from q^-1
    # j * Delta = (q j)(Delta / q) = E4^3 to precision 51
    j, dlt = j_q(52), _level_one_forms(52)[2]
    e4 = eisenstein_q(4, 51)[1]
    assert _mul(j, dlt[1:], 51) == _mul(_mul(e4, e4, 51), e4, 51)


def test_weight_basis_dimensions():
    for k, dim in ((4, 1), (6, 1), (10, 1), (12, 2), (14, 1), (24, 3),
                   (26, 2), (96, 9)):
        assert len(weight_basis(k)) == dim


def _mod_p(exact: dict, p: int) -> dict:
    """A solve over QQ reduced mod p."""
    return {mon: c.numerator * pow(c.denominator, -1, p) % p
            for mon, c in exact.items()}


def _on_e4e6(solve: dict, p: int) -> dict:
    """A solve on the basis E4^a E6^b Delta^i moved onto the monomials
    E4^a E6^b mod p, b ascending: Delta^i = 1728^-i (E4^3 - E6^2)^i,
    expanded binomially."""
    out = {}
    for (a, b, i), c in solve.items():
        scale = c * pow(-1728, -i, p)
        for j in range(i + 1):
            mon = (a + 3 * j, b + 2 * (i - j))
            out[mon] = (out.get(mon, 0)
                        + scale * (-1) ** j * comb(i, j)) % p
    return dict(sorted(out.items(), key=lambda kv: kv[0][1]))


def test_express_examples():
    dlt = _level_one_forms(8)[2]
    exact = {"E10": rational_express(eisenstein_series(10, 8), 10),
             "E12": rational_express(eisenstein_series(12, 8), 12),
             "Delta": rational_express(QSeries(QQ, 0, dlt), 12)}
    assert exact["E10"] == {(1, 1): Fraction(1)}
    assert exact["Delta"] == {
        (3, 0): Fraction(1, 1728), (0, 2): Fraction(-1, 1728)}
    # the int solve mod p, moved onto E4^a E6^b, is the exact solve,
    # reduced mod p
    for p in (11, 13, 97):
        for form, k, (den, nums) in (("E10", 10, eisenstein_q(10, 8)),
                                     ("E12", 12, eisenstein_q(12, 8)),
                                     ("Delta", 12, (1, dlt))):
            ints = [c * pow(den, -1, p) % p for c in nums]
            got = express_in_e4e6(ints, k, p)
            assert _on_e4e6(got, p) == _mod_p(exact[form], p), (form, p)
            assert all(type(c) is int and 0 <= c < p for c in got.values())
        assert express_in_e4e6(dlt, 12, p) == {(3, 0, 0): 0, (0, 0, 1): 1}
        assert express_in_e4e6(eisenstein_q(10, 8)[1], 10, p) == \
            {(1, 1, 0): 1}
    # E12 = 6 E4^3 + 8 E6^2 = E4^3 + 8 Delta mod 13, as E6^2 = E4^3 -
    # 1728 Delta
    e12 = express_in_e4e6([c * pow(691, -1, 13) for c in
                           eisenstein_q(12, 8)[1]], 12, 13)
    assert e12 == {(3, 0, 0): 1, (0, 0, 1): 8}
    assert _on_e4e6(e12, 13) == {(3, 0): 6, (0, 2): 8}
    assert (6 + 8) % 13 == 1


@pytest.mark.parametrize("p", [13, 97, 101, 1009])
def test_express_every_weight_expands_back_to_e_k(p):
    # E_k mod p at every even weight 4..200 at which it is p-integral:
    # the solve, moved onto E4^a E6^b and multiplied out with E4 and E6
    # from eisenstein_q, is E_k mod p.  Two forms of weight k mod p that
    # agree on the first dim M_k coefficients are equal, so this pins
    # every coefficient of the solve; it is checked to q^20 at every k.
    top = MAX_EISENSTEIN_WEIGHT
    need = modforms._dim_mk(top) + modforms._GUARD

    def powers(f, n):
        out = [[1] + [0] * (need - 1)]
        for _ in range(n):
            out.append([c % p for c in _mul(out[-1], f, need)])
        return out

    e4 = powers(eisenstein_q(4, need)[1], top // 4)
    e6 = powers(eisenstein_q(6, need)[1], top // 6)
    skipped = []
    for k in range(4, top + 1, 2):
        den, nums = eisenstein_q(k, need)
        if not den % p:
            skipped.append(k)
            continue
        s = [c * pow(den, -1, p) % p for c in nums]
        got = express_in_e4e6(s, k, p)
        assert len(got) == modforms._dim_mk(k), k
        back = [0] * need
        for (a, b), c in _on_e4e6(got, p).items():
            for n, x in enumerate(_mul(e4[a], e6[b], need)):
                back[n] += c * x
        assert [x % p for x in back] == s, k
    # 101 divides the numerator of B_68, and so, by Kummer's congruence,
    # that of B_168/168: E_68 and E_168 are not 101-integral
    assert skipped == ([68, 168] if p == 101 else [])


def test_express_rejects_non_modular_input():
    fake = [1, 1, 1, 1, 1, 1, 1, 1]
    with pytest.raises((ValidationError, ValueError)):
        express_in_e4e6(fake, 12, 97)
    for k in (-4, 2, 5):  # M_k = 0
        with pytest.raises(ValueError, match=f"M_{k} = 0"):
            express_in_e4e6(eisenstein_q(4, 8)[1], k, 97)


def test_express_refuses_coefficients_that_miss_the_constant_term(
        monkeypatch):
    # with E4's constant term moved to 2, the input 2 + 240q + ... is
    # that E4 itself, but the solve reads its coefficient off q^0 as if
    # the form led with 1, and leaves 2 - 2*2 at q^0
    real = modforms._e4_e6

    def shifted(prec):
        e4, e6 = real(prec)
        return [e4[0] + 1] + e4[1:], e6

    monkeypatch.setattr(modforms, "_e4_e6", shifted)
    with pytest.raises(ValidationError, match=r"q\^0 coefficient mismatch: "
                       r"input is not a modular form of weight 4"):
        express_in_e4e6(shifted(8)[0], 4, 97)


def test_hasse_form_frozen_values():
    assert hasse_form(5) == {(1, 0, 0): 1}
    assert hasse_form(11) == {(1, 1, 0): 1}
    # 6 E4^3 + 8 E6^2, as E6^2 = E4^3 - 1728 Delta
    assert hasse_form(13) == {(3, 0, 0): 1, (0, 0, 1): 8}


def test_hasse_form_reduces_to_one_mod_p():
    # hasse_form solves the constant 1 at solve precision; recheck the
    # combination against E4 and E6 reduced mod p out to precision 30.
    for p in range(5, 98):
        if not is_prime(p):
            continue
        hf = hasse_form(p)
        m, delta, eps = hasse_decomposition(p)
        assert hf[delta + 3 * m, eps, 0] == 1
        hf = _on_e4e6(hf, p)
        field = fq2_context(p)
        e4 = reduce_mod(eisenstein_series(4, 30), field)
        e6 = reduce_mod(eisenstein_series(6, 30), field)
        acc = QSeries(field, 30, [])
        one = QSeries(field, 0, [1] + [0] * 29)
        for (a, b), c in hf.items():
            mono = e4 ** a if a else one
            if b:
                mono = mono * e6 ** b
            acc = acc + mono.scale(c)
        want = [field.one()] + [field.zero()] * (acc.abs_prec - 1)
        assert acc.coeff_list(0, acc.abs_prec) == want
        assert sum(hf.values()) % p == 1


def test_hasse_decomposition():
    assert (lambda d: (d.m, d.delta, d.eps))(hasse_decomposition(13)) == \
        (1, 0, 0)
    assert (lambda d: (d.m, d.delta, d.eps))(hasse_decomposition(11)) == \
        (0, 1, 1)
    assert (lambda d: (d.m, d.delta, d.eps))(hasse_decomposition(23)) == \
        (1, 1, 1)
    for p in range(5, 98):
        if is_prime(p):
            d = hasse_decomposition(p)
            assert p - 1 == 12 * d.m + 4 * d.delta + 6 * d.eps
            assert d.delta in (0, 1) and d.eps in (0, 1)
            assert d.m + d.delta + d.eps == sigma(p)


@pytest.mark.parametrize("p, fixed", [
    (13, [1]),                    # p = 1 mod 12: neither factor
    (5, [0, 1]),                  # p = 2 mod 3: X
    (7, [-1728 % 7, 1]),          # p = 3 mod 4: X - 1728
    (11, [0, -1728 % 11, 1]),     # both: X (X - 1728)
])
def test_times_fixed_factors(p, fixed):
    assert times_fixed_factors([1], p) == fixed
    # s = 2 + X: the product with the fixed factors, mod p
    F = fq2_context(p)
    want = Poly(F, fixed) * Poly(F, [2, 1])
    assert times_fixed_factors([2, 1], p) == [c.a for c in want.coeffs]


def test_ss_poly_spot_values():
    assert ss_poly_eisenstein(7) == [1, 1]        # X - 6
    assert ss_poly_eisenstein(11) == [0, 10, 1]   # X^2 - X
    assert ss_poly_eisenstein(13) == [8, 1]       # X - 5


def test_ss_poly_degree_and_squarefree_range():
    for p in range(5, 98):
        if not is_prime(p):
            continue
        sp = Poly(fq2_context(p), ss_poly_eisenstein(p))
        assert sp.degree == sigma(p)
        assert sp.leading() == 1
        assert sp.gcd(sp.derivative()).degree == 0


def fraction_forms(prec):
    """The replaced route: E4, E6, Delta and j as Fraction series from
    eisenstein_series, with Delta at prec and j built at prec + 3."""
    e4, e6 = eisenstein_series(4, prec + 3), eisenstein_series(6, prec + 3)
    dlt = (e4 ** 3 - e6 ** 2).scale(Fraction(1, 1728))
    j = (e4 ** 3 * dlt.inverse()).truncate(prec)
    return e4.truncate(prec), e6.truncate(prec), dlt.truncate(prec), j


def fraction_series_mod_p(field, prec):
    return tuple(reduce_mod(s, field) for s in fraction_forms(prec))


@pytest.mark.parametrize("prec", [2, 3, 5, 20, 52])
def test_delta_and_j_match_the_fraction_route(prec):
    want = fraction_forms(prec)
    assert [w.abs_prec for w in want] == [prec] * 4
    got = _level_one_forms(prec)
    assert list(got[:3]) == [w.coeff_list(0, prec) for w in want[:3]]
    assert got[3] == want[3].coeff_list(-1, prec)
    assert j_q(prec) == got[3]
    assert all(type(c) is int for s in got for c in s)


def laurent_peeling(p):
    """The replaced route to ss_p: F = E_{p-1} E4^-delta E6^-eps Delta^-m
    mod p is a polynomial phi in j, peeled from its q^-m term down, with
    E4, E6, Delta and j reduced from their Fraction series."""
    m, delta, eps = hasse_decomposition(p)
    field = fq2_context(p)
    prec = m + 8
    e4, e6, dlt, j = fraction_series_mod_p(field, prec)
    F = reduce_mod(eisenstein_series(p - 1, prec), field)
    if delta:
        F = F * e4.inverse()
    if eps:
        F = F * e6.inverse()
    if m:
        F = F * dlt.inverse() ** m
    jpow = [QSeries(field, 0, [1] + [0] * (max(1, len(F.coeffs)) - 1))]
    for _ in range(m):
        jpow.append(jpow[-1] * j)
    phi = [field.zero()] * (m + 1)
    for i in range(m, -1, -1):
        phi[i] = F.coeff(-i)
        F = F - jpow[i].scale(phi[i])
    assert F.abs_prec >= 4 and F.is_zero()  # guard coefficients vanish
    ss = Poly(field, phi)
    if delta:
        ss = ss * Poly(field, [0, 1])
    if eps:
        ss = ss * Poly(field, [-1728, 1])
    return ss


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_ss_poly_over_fp_matches_the_fraction_route(p):
    assert ss_poly_eisenstein(p) == \
        [c.a for c in laurent_peeling(p).coeffs]


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_hasse_form_matches_the_rational_solve(p):
    # the replaced route: the exact solve over QQ, reduced mod p
    need = modforms._dim_mk(p - 1) + modforms._GUARD
    exact = rational_express(eisenstein_series(p - 1, need), p - 1)
    assert all(type(c) is Fraction for c in exact.values())
    want = _mod_p(exact, p)
    got = hasse_form.__wrapped__(p)
    m, delta, eps = hasse_decomposition(p)
    assert list(got) == [(delta + 3 * (m - i), eps, i) for i in range(m + 1)]
    assert list(_on_e4e6(got, p)) == list(want)
    assert _on_e4e6(got, p) == want
    assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("change, match", [
    ({(0, 0, 3): 0}, r"phi\(0\) = 0"),      # c_3 is phi(0)
    ({(0, 0, 3): 9}, r"phi\(1728\) = 0"),   # phi(1728) - phi(0) = -9
    ({(9, 0, 0): 3}, "degree/monicity"),     # c_0 leads phi
])
def test_ss_poly_checks_see_a_wrong_hasse_form(change, match, monkeypatch):
    hf = dict(hasse_form(37))                  # m = 3, delta = eps = 0
    # phi = X^3 + 23 X^2 + 5 X + 11, and phi(1728) = 2 mod 37
    assert [hf[3 * e, 0, 3 - e] for e in range(4)] == [11, 5, 23, 1]
    hf.update(change)
    monkeypatch.setattr(modforms, "hasse_form", lambda p: hf)
    with pytest.raises(ValidationError, match=match):
        ss_poly_eisenstein(37)


def test_ss_poly_bounds():
    with pytest.raises(ValueError):
        ss_poly_eisenstein(101)
    with pytest.raises(ValueError):
        ss_poly_eisenstein(9)
