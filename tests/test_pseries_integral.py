"""The integral [p]-series (chord-tangent law in Z[[t]]) against the
log/exp oracle over exact rationals, at full precision p^2 + 1."""

import random
import re

import pytest

from ellwitt.arith import fq2_context
from ellwitt.errors import PrecisionError, ValidationError
from ellwitt.formalgroup import (
    heights_from_series,
    mult_by_p_series,
    v_invariants,
)
from ellwitt.polyseries import _div
from oracles import QQ, WCurve, mult_by_m, reduce_mod


def _short_curves(p):
    return [(a, b) for a in range(p) for b in range(p)
            if (4 * a ** 3 + 27 * b * b) % p]


def _assert_agrees(a, p):
    """mult_by_p_series on the int pair a against the oracle on the
    curve over QQ."""
    ps = mult_by_p_series(a, p)
    oracle = mult_by_m(WCurve(QQ, *a), p, p * p + 1)[-1]
    assert all(type(c) is int for c in ps.series), (a, p)
    assert len(ps.series) == p * p + 1
    assert (oracle.offset, oracle.abs_prec) == (1, p * p + 2)
    assert list(ps.series) == oracle.coeffs, (a, p)
    assert [c % p for c in ps.series] == reduce_mod(
        oracle, fq2_context(p)).coeff_list(1, p * p + 2), (a, p)
    return ps


@pytest.mark.parametrize("p", [5, 7])
def test_agrees_with_log_exp_every_short_curve(p):
    for a, b in _short_curves(p):
        _assert_agrees((a, b), p)


@pytest.mark.parametrize("p", [5, 7])
def test_agrees_with_log_exp_models_outside_the_residues(p):
    # any integral model, not only the one with a4, a6 in [0, p); its
    # reduction mod p is the series of the reduced model
    rng = random.Random(p)
    models = [(a4, a6) for a4, a6 in sorted(
        {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(12)})
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p]
    assert any(min(a) < 0 for a in models)
    assert any(max(a) >= p for a in models)
    for a4, a6 in models:
        ps = _assert_agrees((a4, a6), p)
        reduced = mult_by_p_series((a4 % p, a6 % p), p)
        assert [c % p for c in ps.series] == \
            [c % p for c in reduced.series]
        assert ps.p == p and ps.curve == (a4, a6)
        assert heights_from_series((a4, a6), p, ps.series) == \
            v_invariants((a4, a6), p) == v_invariants((a4 % p, a6 % p), p)


def test_agrees_with_log_exp_seeded_sample_p11():
    # one supersingular curve and one with a4 * a6 != 0
    p = 11
    rng = random.Random(11)
    curves = _short_curves(p)
    ss = [c for c in curves if v_invariants(c, p)[1] is not None]
    general = [(a, b) for a, b in curves if a * b]
    for a, b in rng.sample(ss, 1) + rng.sample(general, 1):
        ps = _assert_agrees((a, b), p)
        v1, v2 = heights_from_series((a, b), p, ps.series)
        assert (v2 is not None) == ((a, b) in ss)


def test_agrees_with_log_exp_supersingular_p13():
    ps = _assert_agrees((1, 4), 13)
    assert not ps.series[12] % 13
    assert ps.series[168] % 13


def test_head_is_truncation_of_full_series():
    cases = [(a, p) for p in (5, 7) for a in _short_curves(p)]
    cases += [((1, 4), 13)]
    for a, p in cases:
        full = mult_by_p_series(a, p)
        head = mult_by_p_series(a, p, prec=p + 1)
        assert head.series == full.series[:p + 1]


def test_heights_from_full_series_match_v_invariants():
    for p in (5, 7):
        for a, b in _short_curves(p):
            full = mult_by_p_series((a, b), p)
            assert heights_from_series((a, b), p, full.series) == \
                v_invariants((a, b), p)


def test_heights_from_a_short_series_raise_precision_error():
    # (1, 0) is ordinary and (1, 4) supersingular at 13: v1 needs t^p,
    # v2 needs t^(p^2)
    ordinary = mult_by_p_series((1, 0), 13, prec=14).series
    assert heights_from_series((1, 0), 13, ordinary)[1] is None
    with pytest.raises(PrecisionError, match="t\\^13"):
        heights_from_series((1, 0), 13, ordinary[:12])
    head = mult_by_p_series((1, 4), 13, prec=14).series
    with pytest.raises(PrecisionError, match="t\\^15 "):
        heights_from_series((1, 4), 13, head)


def test_a_series_that_does_not_factor_names_the_curve():
    # the curve is printed reduced mod p, each coefficient as "c (mod p)"
    ordinary = list(mult_by_p_series((1, 0), 13, prec=14).series)
    ordinary[2] += 1   # t^3
    with pytest.raises(ValidationError, match=re.escape(
            "ordinary curve y^2 = x^3 + 1 (mod 13)*x + 0 (mod 13): t^3 "
            "coefficient nonzero mod 13 — [p] does not factor through "
            "Frobenius")):
        heights_from_series((14, -13), 13, ordinary)
    full = list(mult_by_p_series((1, 4), 13).series)
    bad = full[:20] + [full[20] + 1] + full[21:]   # t^21
    with pytest.raises(ValidationError, match=re.escape(
            "supersingular curve y^2 = x^3 + 1 (mod 13)*x + 4 (mod 13): "
            "t^21 coefficient nonzero mod 13 — [p] does not factor "
            "through Frobenius^2")):
        heights_from_series((1, 4), 13, bad)
    full[168] -= full[168] % 13   # v2 = 0 mod 13
    with pytest.raises(ValidationError, match=re.escape(
            "supersingular curve y^2 = x^3 + 1 (mod 13)*x + 4 (mod 13): "
            "v2 is not a unit")):
        heights_from_series((1, 4), 13, full)


def test_series_division_is_exact_or_raises():
    # (2 + t)(1 + t) = 2 + 3t + t^2
    assert _div([2, 3, 1], [2, 1, 0]) == [1, 1, 0]
    assert _div([2, 3, 1, 5], [2, 1]) == [1, 1]
    with pytest.raises(ValidationError, match="remainder"):
        _div([2, 3, 2], [2, 1, 0])
    with pytest.raises(ValidationError, match="t\\^0"):
        _div([1, 0], [2, 1])
