"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime.  Run with `pytest -s tests/test_acceptance.py`
(or `ellwitt verify all` for the CLI equivalent).

Every tolerance here is exact — the claims under test are theorems, so
acceptance is oracle equivalence at desk scale, not approximation.
"""

import random
import time
from fractions import Fraction

from ellwitt.arith import (
    Zmod,
    fq2_context,
    has_sqrt3,
    is_prime,
)
from ellwitt import formalgroup, modforms, padicwitt, sslocus


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def _report(name, started, budget=None):
    elapsed = time.time() - started
    print(f"PASS {name} [{elapsed:.1f}s]")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s budget"


def test_criterion_01_degree_formula_and_squarefree():
    t0 = time.time()
    try:
        for p in _primes(5, 97):
            sp = modforms.ss_poly_eisenstein(p)
            assert sp.degree == sslocus.sigma(p)
            assert sp.leading().value == 1
            assert sp.gcd(sp.derivative()).degree == 0
    except BaseException:
        print("FAIL criterion 1: degree formula")
        raise
    _report("criterion 1: deg ss_p = sigma(p), squarefree, 5 <= p <= 97",
            t0, budget=60)


def test_criterion_02_three_method_agreement():
    t0 = time.time()
    try:
        for p in _primes(5, 97):
            locus = sslocus.cross_validate(p)  # raises on any mismatch
            eis = set(locus.j_values)
            deu = set(sslocus.ss_j_deuring(p))
            assert eis == deu
            if p <= 31:
                assert deu == set(sslocus.ss_j_point_count(p))
    except BaseException:
        print("FAIL criterion 2: three-method agreement")
        raise
    _report("criterion 2: eisenstein = deuring (5..97) = point-count "
            "(5..31), exact set equality", t0, budget=180)


def test_criterion_03_spot_values():
    t0 = time.time()
    try:
        spots = {7: {(6, 0)}, 11: {(0, 0), (1, 0)}, 13: {(5, 0)}}
        for p, want in spots.items():
            got = {(z.a, z.b) for z in sslocus.cross_validate(p).j_values}
            assert got == want, (p, got, want)
    except BaseException:
        print("FAIL criterion 3: spot loci")
        raise
    _report("criterion 3: ss locus {6}@7, {0,1}@11, {5}@13", t0)


def test_criterion_04_deligne_three_way_exhaustive():
    t0 = time.time()
    try:
        counts = {}
        for p in (5, 7, 11, 13):
            r = formalgroup.verify_deligne(p)  # raises on any exception
            counts[p] = r.curves_checked
        assert counts == {5: 20, 7: 42, 11: 110, 13: 156}
    except BaseException:
        print("FAIL criterion 4: Deligne three-way equality")
        raise
    _report("criterion 4: v1 = classical Hasse = E_(p-1)(c4,-c6), "
            "exhaustive p in {5,7,11,13}, zero exceptions", t0, budget=300)


def test_criterion_05_gross_landweber():
    t0 = time.time()
    try:
        for p in (5, 7, 11, 13):
            assert (p * p - 1) % 12 == 0
            r = formalgroup.verify_gross_landweber(p)
            assert r.sign == (-1) ** ((p - 1) // 2)
            assert len(r.entries) == sslocus.sigma(p)
            for e in r.entries:
                # v2 is a unit; intermediate vanishing is asserted inside
                # v_invariants, which verify_gross_landweber routes through
                assert e.v2 % p != 0
                # exact: verify_gross_landweber raises on a mismatch, and
                # the prediction is the formula on y^2 = x^3 + a4 x + a6
                disc = -16 * (4 * e.a4 ** 3 + 27 * e.a6 ** 2)
                assert e.v2 == e.predicted == \
                    r.sign * pow(disc, (p * p - 1) // 12, p) % p
            if p == 5:
                spot = [e for e in r.entries if e.j == 0]
                assert spot and spot[0].v2 == 4  # y^2 = x^3 + 1
    except BaseException:
        print("FAIL criterion 5: Gross-Landweber")
        raise
    _report("criterion 5: v2 = (-1)^((p-1)/2) Delta^((p^2-1)/12) at every "
            "supersingular curve, p in {5,7,11,13}", t0)


def test_criterion_06_witt_layer():
    t0 = time.time()
    try:
        rng = random.Random(2020)
        # Teichmuller multiplicativity and the defining equation at N = 20
        for p in (5, 13, 29):
            ctx = fq2_context(p)
            for _ in range(8):
                x = ctx.elem(rng.randrange(p), rng.randrange(p))
                y = ctx.elem(rng.randrange(p), rng.randrange(p))
                tx = padicwitt.teichmuller(x, 20)
                ty = padicwitt.teichmuller(y, 20)
                assert padicwitt.teichmuller(x * y, 20) == tx * ty
                assert tx ** (p * p) == tx
                assert tx.reduce_precision(1) == x
        for p in _primes(5, 97):
            lifts = {N: padicwitt.lift_ss_poly(p, N) for N in (1, 5, 10)}
            for N, sp in lifts.items():
                for c in sp.coeffs:
                    assert c.conj() == c
            # reduction compatibility across precisions
            for M in (1, 5):
                assert [c.reduce_precision(M)
                        for c in lifts[10].coeffs] == list(lifts[M].coeffs)
            # reduction mod p is the supersingular polynomial
            red = lifts[10].map_coeffs(
                lambda c: c.reduce_precision(1).to_fp(), Zmod(p))
            assert red == modforms.ss_poly_eisenstein(p)
            # Hensel lifts of mod-p roots reproduce the Teichmuller lifts
            shat = lifts[10]
            for jbar in sorted(sslocus.cross_validate(p).j_values,
                               key=lambda z: (z.a, z.b)):
                assert padicwitt.hensel_root(shat, jbar) == \
                    padicwitt.teichmuller(jbar, 10)
    except BaseException:
        print("FAIL criterion 6: Witt layer")
        raise
    _report("criterion 6: Teichmuller defining/multiplicative laws at "
            "N=20; S_p-hat Frobenius-fixed, precision-compatible, "
            "Hensel = Teichmuller, 5 <= p <= 97", t0)


def test_criterion_07_splitting_idempotents():
    t0 = time.time()
    try:
        for p in _primes(5, 47):
            idems = padicwitt.splitting_idempotents(p, 10)
            assert len(idems) == sslocus.sigma(p)
            # orthogonality, idempotency and completeness are asserted
            # inside splitting_idempotents; recheck completeness here
            shat = padicwitt.lift_ss_poly(p, 10)
            total = idems[0]
            for e in idems[1:]:
                total = total + e
            wctx = shat.ring
            from ellwitt.polyseries import Poly
            assert total == Poly(wctx, [wctx.one()])
    except BaseException:
        print("FAIL criterion 7: splitting")
        raise
    _report("criterion 7: sigma(p) orthogonal idempotents summing to 1 "
            "mod (p^10, S_p-hat), 5 <= p <= 47", t0, budget=120)


def test_criterion_08_ogg_scan():
    t0 = time.time()
    try:
        got = sslocus.ogg_scan(71)
        assert got == [5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71]
    except BaseException:
        print("FAIL criterion 8: Ogg scan")
        raise
    _report("criterion 8: rational-locus primes <= 71 are exactly the "
            "Monster primes", t0)


def test_criterion_09_sqrt3_exercise():
    t0 = time.time()
    try:
        for p in _primes(5, 10 ** 4):
            assert has_sqrt3(p) == (p % 12 in (1, 11)), p
    except BaseException:
        print("FAIL criterion 9: sqrt(3) mod p rule")
        raise
    _report("criterion 9: sqrt(3) exists mod p iff p = +-1 mod 12, "
            "3 < p <= 10^4", t0, budget=10)


def test_criterion_10_q_identities():
    t0 = time.time()
    try:
        prec = 200
        e4 = modforms.eisenstein_q(4, prec)
        e6 = modforms.eisenstein_q(6, prec)
        lhs = e4 ** 3 - e6 ** 2
        rhs = modforms.eta24_q(prec).scale(Fraction(1728))
        diff = lhs - rhs
        assert diff.is_zero() and diff.abs_prec >= prec
        j = modforms.j_q(4)
        assert (j.coeff(-1), j.coeff(0), j.coeff(1)) == (1, 744, 196884)
    except BaseException:
        print("FAIL criterion 10: q-expansion identities")
        raise
    _report("criterion 10: E4^3 - E6^2 = 1728 eta^24 to q^200; "
            "j = q^-1 + 744 + 196884q + O(q^2)", t0)
