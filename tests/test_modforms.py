"""q-expansions, the E4/E6 basis, and the Eisenstein route to the
supersingular polynomial."""

from fractions import Fraction
from math import comb

import pytest

from ellwitt.arith import Zmod, is_prime
from ellwitt.errors import ValidationError
from ellwitt import modforms
from ellwitt.modforms import (
    MAX_BERNOULLI,
    _bernoulli_list,
    _level_one_forms,
    _solve_exact,
    bernoulli,
    delta_q,
    eisenstein_q,
    eta24_q,
    express_in_e4e6,
    hasse_decomposition,
    hasse_form,
    j_q,
    ss_poly_eisenstein,
    times_fixed_factors,
    weight_basis,
)
from ellwitt.polyseries import QQ, Poly, QSeries
from ellwitt.sslocus import sigma


def test_bernoulli_values():
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(96).denominator % 97 == 0  # von Staudt-Clausen at 97
    with pytest.raises(ValueError):
        bernoulli(3)


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
    want = _bernoulli_recurrence(MAX_BERNOULLI)
    got = _bernoulli_list(MAX_BERNOULLI)
    assert len(got) == len(want) == MAX_BERNOULLI + 1
    for k, (g, w) in enumerate(zip(got, want)):
        assert type(g) is Fraction and g == w, k
    for top in range(12):
        assert _bernoulli_list(top) == want[:top + 1]
    for k in range(2, MAX_BERNOULLI + 1, 2):
        assert bernoulli(k) == got[k], k


def test_eisenstein_builds_bernoulli_numbers_only_up_to_its_weight():
    _bernoulli_list.cache_clear()
    eisenstein_q(16, 10)
    info = _bernoulli_list.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    _bernoulli_list(16)
    assert _bernoulli_list.cache_info().hits == info.hits + 1


def test_solve_exact_invariant_failures_are_validation_errors():
    assert _solve_exact([[2, 0], [0, 3]], [4, 9]) == [2, 3]
    with pytest.raises(ValidationError, match="singular"):
        _solve_exact([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(ValidationError, match="inconsistent"):
        _solve_exact([[1], [2]], [1, 3])


def test_eisenstein_expansions():
    e4 = eisenstein_q(4, 3)
    assert e4.coeff_list(0, 3) == [1, 240, 2160]
    e6 = eisenstein_q(6, 3)
    assert e6.coeff_list(0, 3) == [1, -504, -16632]
    # one-dimensional weight-10 space
    assert (eisenstein_q(10, 20)
            - eisenstein_q(4, 20) * eisenstein_q(6, 20)).is_zero()


def test_delta_and_eta24():
    d = delta_q(5)
    assert d.coeff_list(1, 5) == [1, -24, 252, -1472]
    eta = eta24_q(5)
    assert eta.coeff(1) == 1
    assert (delta_q(50) - eta24_q(50)).is_zero()


def test_j_expansion():
    j = j_q(3)
    assert j.offset == -1
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 196884
    # j * Delta = E4^3 to precision 50
    lhs = j_q(52) * delta_q(52)
    rhs = eisenstein_q(4, 52) ** 3
    assert (lhs - rhs).is_zero()


def test_weight_basis_dimensions():
    for k, dim in ((4, 1), (6, 1), (10, 1), (12, 2), (14, 1), (24, 3),
                   (26, 2), (96, 9)):
        assert len(weight_basis(k).monomials) == dim


def test_express_examples():
    assert express_in_e4e6(eisenstein_q(10, 8), 10) == {(1, 1): Fraction(1)}
    assert express_in_e4e6(delta_q(8), 12) == {
        (3, 0): Fraction(1, 1728), (0, 2): Fraction(-1, 1728)}
    # E12 exactly, then reduced mod 13
    sol = express_in_e4e6(eisenstein_q(12, 8), 12)
    red = {mon: (c.numerator * pow(c.denominator, -1, 13)) % 13
           for mon, c in sol.items()}
    assert red == {(3, 0): 6, (0, 2): 8}
    assert (6 + 8) % 13 == 1


def test_express_rejects_non_modular_input():
    fake = QSeries(QQ, 0, [1, 1, 1, 1, 1, 1, 1, 1])
    with pytest.raises((ValidationError, ValueError)):
        express_in_e4e6(fake, 12)
    for k in (-4, 2, 5):  # M_k = 0
        with pytest.raises(ValueError, match=f"M_{k} = 0"):
            express_in_e4e6(eisenstein_q(4, 8), k)


def test_express_refuses_coefficients_that_miss_the_constant_term(
        monkeypatch):
    # with E4's constant term moved to 2, the input 2 + 240q + ... solves
    # and passes every guard coefficient, but as E4^1 with coefficient 1
    real = modforms._e4_e6

    def shifted(ring, prec):
        e4, e6 = real(ring, prec)
        return e4 + QSeries(ring, 0, [1] + [0] * (prec - 1)), e6

    monkeypatch.setattr(modforms, "_e4_e6", shifted)
    s = shifted(QQ, 8)[0]
    with pytest.raises(ValidationError, match=r"weight 4: the E4\^a E6\^b "
                       r"coefficients sum to 1, the constant term is 2"):
        express_in_e4e6(s, 4)


def test_hasse_form_frozen_values():
    assert {k: v.value for k, v in hasse_form(5).items()} == {(1, 0): 1}
    assert {k: v.value for k, v in hasse_form(11).items()} == {(1, 1): 1}
    assert {k: v.value for k, v in hasse_form(13).items()} == \
        {(3, 0): 6, (0, 2): 8}


def test_hasse_form_reduces_to_one_mod_p():
    # hasse_form itself asserts the q-expansion is 1 mod p at solve
    # precision; recheck every prime in range out to precision 30.
    for p in range(5, 98):
        if not is_prime(p):
            continue
        hf = hasse_form(p)
        field = Zmod(p)
        e4 = eisenstein_q(4, 30).reduce_mod(field)
        e6 = eisenstein_q(6, 30).reduce_mod(field)
        acc = QSeries(field, 30, [])
        one = QSeries(field, 0, [1] + [0] * 29)
        for (a, b), c in hf.items():
            mono = e4 ** a if a else one
            if b:
                mono = mono * e6 ** b
            acc = acc + mono.scale(c)
        want = [field.one()] + [field.zero()] * (acc.abs_prec - 1)
        assert acc.coeff_list(0, acc.abs_prec) == want
        assert sum(v.value for v in hf.values()) % p == 1


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
    want = Poly(Zmod(p), fixed) * Poly(Zmod(p), [2, 1])
    assert times_fixed_factors([2, 1], p) == [c.value for c in want.coeffs]


def test_ss_poly_spot_values():
    p7 = ss_poly_eisenstein(7)
    assert [c.value for c in p7.coeffs] == [1, 1]        # X - 6
    p11 = ss_poly_eisenstein(11)
    assert [c.value for c in p11.coeffs] == [0, 10, 1]   # X^2 - X
    p13 = ss_poly_eisenstein(13)
    assert [c.value for c in p13.coeffs] == [8, 1]       # X - 5


def test_ss_poly_degree_and_squarefree_range():
    for p in range(5, 98):
        if not is_prime(p):
            continue
        sp = ss_poly_eisenstein(p)
        assert sp.degree == sigma(p)
        assert sp.leading().value == 1
        assert sp.gcd(sp.derivative()).degree == 0


def fraction_forms(prec):
    """The replaced route: E4, E6, Delta and j as Fraction series from
    eisenstein_q, with Delta at prec and j built at prec + 3."""
    e4, e6 = eisenstein_q(4, prec + 3), eisenstein_q(6, prec + 3)
    dlt = (e4 ** 3 - e6 ** 2).scale(Fraction(1, 1728))
    j = (e4 ** 3 * dlt.inverse()).truncate(prec)
    return e4.truncate(prec), e6.truncate(prec), dlt.truncate(prec), j


def fraction_series_mod_p(field, prec):
    return tuple(s.reduce_mod(field) for s in fraction_forms(prec))


def same_series(got, want):
    for g, w in zip(got, want, strict=True):
        assert (g, g.abs_prec) == (w, w.abs_prec)


@pytest.mark.parametrize("prec", [2, 3, 5, 20, 52])
def test_delta_and_j_match_the_fraction_route(prec):
    want = fraction_forms(prec)
    same_series(_level_one_forms(prec), want)
    same_series((delta_q(prec), j_q(prec)), want[2:])
    assert all(type(c) is Fraction for c in delta_q(prec).coeffs)


def laurent_peeling(p):
    """The replaced route to ss_p: F = E_{p-1} E4^-delta E6^-eps Delta^-m
    mod p is a polynomial phi in j, peeled from its q^-m term down, with
    E4, E6, Delta and j reduced from their Fraction series."""
    _, m, delta, eps = hasse_decomposition(p)
    field = Zmod(p)
    prec = m + 8
    e4, e6, dlt, j = fraction_series_mod_p(field, prec)
    F = eisenstein_q(p - 1, prec).reduce_mod(field)
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
    assert ss_poly_eisenstein(p).coeffs == laurent_peeling(p).coeffs


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_hasse_form_matches_the_rational_solve(p):
    # the replaced route: the exact solve over QQ, reduced mod p
    need = modforms._dim_mk(p - 1) + modforms._GUARD
    exact = express_in_e4e6(eisenstein_q(p - 1, need), p - 1)
    assert all(type(c) is Fraction for c in exact.values())
    want = {mon: c.numerator * pow(c.denominator, -1, p) % p
            for mon, c in exact.items()}
    got = hasse_form.__wrapped__(p)
    assert list(got) == list(want)
    assert {mon: c.value for mon, c in got.items()} == want


@pytest.mark.parametrize("change, match", [
    ({(0, 6): 0}, r"phi\(0\) = 0"),        # c_ab at k = m
    ({(9, 0): 0}, r"phi\(1728\) = 0"),     # c_ab at k = 0
    ({(9, 0): 3}, "degree/monicity"),       # sum c_ab = 2
])
def test_ss_poly_checks_see_a_wrong_hasse_form(change, match, monkeypatch):
    hf = dict(hasse_form(37))                  # m = 3, delta = eps = 0
    field = Zmod(37)
    hf.update((mon, field.elem(v)) for mon, v in change.items())
    monkeypatch.setattr(modforms, "hasse_form", lambda p: hf)
    with pytest.raises(ValidationError, match=match):
        ss_poly_eisenstein(37)


def test_ss_poly_bounds():
    with pytest.raises(ValueError):
        ss_poly_eisenstein(101)
    with pytest.raises(ValueError):
        ss_poly_eisenstein(9)
