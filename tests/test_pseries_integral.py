"""The integral [p]-series (chord-tangent law in Z[[t]]) against the
log/exp oracle over exact rationals, at full precision p^2 + 1."""

import random

import pytest

from ellwitt.arith import PrimeField
from ellwitt.errors import ValidationError
from ellwitt.formalgroup import (
    WCurve,
    heights_from_series,
    mult_by_p_series,
    v_invariants,
)
from ellwitt.formalgroup import _div, _mult_by_m
from ellwitt.polyseries import QQ


def _short_curves(p):
    return [(a, b) for a in range(p) for b in range(p)
            if (4 * a ** 3 + 27 * b * b) % p]


def _assert_agrees(E, p):
    ps = mult_by_p_series(E, p)
    oracle = _mult_by_m(E, p, p * p + 1)[-1]
    assert ps.series == oracle, (E, p)
    assert ps.series.abs_prec == p * p + 2
    assert ps.series_mod_p == oracle.reduce_mod(PrimeField(p)), (E, p)
    return ps


@pytest.mark.parametrize("p", [5, 7])
def test_agrees_with_log_exp_every_short_curve(p):
    for a, b in _short_curves(p):
        _assert_agrees(WCurve(QQ, a, b), p)


def test_agrees_with_log_exp_seeded_sample_p11():
    # one supersingular curve and one with a4 * a6 != 0
    p = 11
    rng = random.Random(11)
    curves = _short_curves(p)
    field = PrimeField(p)
    ss = [c for c in curves
          if v_invariants(WCurve(field, *c), p)[1] is not None]
    general = [(a, b) for a, b in curves if a * b]
    for a, b in rng.sample(ss, 1) + rng.sample(general, 1):
        ps = _assert_agrees(WCurve(QQ, a, b), p)
        v1, v2 = heights_from_series(WCurve(field, a, b), p,
                                     ps.series_mod_p)
        assert (v2 is not None) == ((a, b) in ss)


def test_agrees_with_log_exp_supersingular_p13():
    ps = _assert_agrees(WCurve(QQ, 1, 4), 13)
    assert not ps.series_mod_p.coeff(13)
    assert ps.series_mod_p.coeff(169)


def test_head_is_truncation_of_full_series():
    cases = [(WCurve(QQ, a, b), p)
             for p in (5, 7) for a, b in _short_curves(p)]
    cases += [(WCurve(QQ, 1, 4), 13)]
    for E, p in cases:
        full = mult_by_p_series(E, p)
        head = mult_by_p_series(E, p, prec=p + 1)
        assert head.series == full.series.truncate(p + 2)
        assert head.series_mod_p == full.series_mod_p.truncate(p + 2)


def test_heights_from_full_series_match_v_invariants():
    for p in (5, 7):
        field = PrimeField(p)
        for a, b in _short_curves(p):
            E = WCurve(field, a, b)
            full = mult_by_p_series(WCurve(QQ, a, b), p)
            assert heights_from_series(E, p, full.series_mod_p) == \
                v_invariants(E, p)


def test_series_division_is_exact_or_raises():
    # (2 + t)(1 + t) = 2 + 3t + t^2
    assert _div([2, 3, 1], [2, 1, 0]) == [1, 1, 0]
    assert _div([2, 3, 1, 5], [2, 1]) == [1, 1]
    with pytest.raises(ValidationError, match="remainder"):
        _div([2, 3, 2], [2, 1, 0])
    with pytest.raises(ValidationError, match="t\\^0"):
        _div([1, 0], [2, 1])
