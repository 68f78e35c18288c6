"""Every library entry point that takes a prime rejects a non-prime, a
prime <= 3 and a prime above its enforced bound with one ValueError
that names the entry point."""

import re

import pytest

from ellwitt.arith import Quad, fq2_context, has_sqrt3
from ellwitt.formalgroup import (
    mult_by_p_series,
    verify_deligne,
    verify_gross_landweber,
)
from ellwitt.modforms import (
    express_in_e4e6,
    hasse_decomposition,
    hasse_form,
    ss_poly_eisenstein,
)
from ellwitt.padicwitt import lift_ss_poly, splitting_idempotents
from ellwitt.sslocus import (
    cross_validate,
    hasse_polynomial,
    hasse_roots,
    sigma,
    ss_j_point_count,
    ss_poly_closed,
)

_CURVE = (1, 1)

#: (entry point, call with p, (bound, next prime above it) or None)
ENTRY_POINTS = (
    ("Quad", lambda p: Quad(p, 1), None),
    ("has_sqrt3", has_sqrt3, None),
    ("fq2_context", fq2_context, None),
    ("mult_by_p_series", lambda p: mult_by_p_series(_CURVE, p), (13, 17)),
    ("verify_deligne", verify_deligne, (13, 17)),
    ("verify_gross_landweber", verify_gross_landweber, (13, 17)),
    ("hasse_decomposition", hasse_decomposition, None),
    ("express_in_e4e6", lambda p: express_in_e4e6([1] * 5, 4, p), None),
    ("hasse_form", hasse_form, (97, 101)),
    ("ss_poly_eisenstein", ss_poly_eisenstein, (97, 101)),
    ("lift_ss_poly", lambda p: lift_ss_poly(p, 1), (97, 101)),
    ("splitting_idempotents", lambda p: splitting_idempotents(p, 1),
     (47, 53)),
    ("sigma", sigma, None),
    ("hasse_polynomial", hasse_polynomial, None),
    ("hasse_roots", hasse_roots, (1000, 1009)),
    ("ss_j_point_count", ss_j_point_count, (31, 37)),
    ("ss_poly_closed", ss_poly_closed, None),
    ("cross_validate", cross_validate, (97, 101)),
)

CASES = [pytest.param(name, fn, bound, p, id=f"{name}-{p}")
         for name, fn, bound in ENTRY_POINTS
         for p in (3, 4, 9) + ((bound[1],) if bound else ())]


@pytest.mark.parametrize("name, fn, bound, p", CASES)
def test_bad_prime_raises_naming_the_entry_point(name, fn, bound, p):
    top = f" <= {bound[0]}" if bound else ""
    want = f"{name} wants a prime 3 < p{top}, got {p}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        fn(p)


@pytest.mark.parametrize(
    "name, fn, bound",
    [pytest.param(name, fn, bound, id=name)
     for name, fn, bound in ENTRY_POINTS if bound])
def test_bound_is_checked_before_primality(monkeypatch, name, fn, bound):
    # Miller-Rabin on a huge p takes seconds; the bound answers first
    import ellwitt.arith

    def no_primality_test(n):
        raise AssertionError("is_prime ran on an out-of-bound p")

    monkeypatch.setattr(ellwitt.arith, "is_prime", no_primality_test)
    p = 2 ** 3217 - 1   # a Mersenne prime of 969 digits
    want = f"{name} wants a prime 3 < p <= {bound[0]}, got {p}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        fn(p)
