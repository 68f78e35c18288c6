"""The integral [p]-series (chord-tangent law in Z[[t]]) against the
log/exp oracle over exact rationals, at full precision p^2 + 1."""

import random

import pytest

from ellwitt.arith import Zmod
from ellwitt.errors import ValidationError
from ellwitt.formalgroup import (
    WCurve,
    heights_from_series,
    mult_by_p_series,
    v_invariants,
)
from ellwitt.formalgroup import _div
from ellwitt.polyseries import QQ
from oracles import mult_by_m


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
    assert ps.series_mod_p == oracle.reduce_mod(Zmod(p)), (a, p)
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
    field = Zmod(p)
    models = [(a4, a6) for a4, a6 in sorted(
        {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(12)})
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p]
    assert any(min(a) < 0 for a in models)
    assert any(max(a) >= p for a in models)
    for a4, a6 in models:
        ps = _assert_agrees((a4, a6), p)
        reduced = mult_by_p_series((a4 % p, a6 % p), p)
        assert ps.series_mod_p == reduced.series_mod_p
        assert ps.p == p and ps.curve == (a4, a6)
        E = WCurve(field, a4, a6)
        assert heights_from_series(E, p, ps.series_mod_p) == \
            v_invariants(E, p)


def test_agrees_with_log_exp_seeded_sample_p11():
    # one supersingular curve and one with a4 * a6 != 0
    p = 11
    rng = random.Random(11)
    curves = _short_curves(p)
    field = Zmod(p)
    ss = [c for c in curves
          if v_invariants(WCurve(field, *c), p)[1] is not None]
    general = [(a, b) for a, b in curves if a * b]
    for a, b in rng.sample(ss, 1) + rng.sample(general, 1):
        ps = _assert_agrees((a, b), p)
        v1, v2 = heights_from_series(WCurve(field, a, b), p,
                                     ps.series_mod_p)
        assert (v2 is not None) == ((a, b) in ss)


def test_agrees_with_log_exp_supersingular_p13():
    ps = _assert_agrees((1, 4), 13)
    assert not ps.series_mod_p.coeff(13)
    assert ps.series_mod_p.coeff(169)


def test_head_is_truncation_of_full_series():
    cases = [(a, p) for p in (5, 7) for a in _short_curves(p)]
    cases += [((1, 4), 13)]
    for a, p in cases:
        full = mult_by_p_series(a, p)
        head = mult_by_p_series(a, p, prec=p + 1)
        assert head.series == full.series[:p + 1]
        assert head.series_mod_p == full.series_mod_p.truncate(p + 2)


def test_heights_from_full_series_match_v_invariants():
    for p in (5, 7):
        field = Zmod(p)
        for a, b in _short_curves(p):
            E = WCurve(field, a, b)
            full = mult_by_p_series((a, b), p)
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
