"""roots_in_field and count_roots_in_fp against an exhaustive plain-int
scan of the field.

The scan visits every element of F_p or F_{p^2} and evaluates f there by
Horner's rule on bare integers; it is the oracle the Cantor-Zassenhaus
root finder has to agree with, element for element.  The roots in F_p
are the roots in F_{p^2} that are scalars.  The polynomials are over
F_p, built as Poly over the scalars of fq2_context(p) and passed as the
int lists the root finder reads; a root set in F_{p^2} is drawn closed
under conjugation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwitt.arith import Quad, fq2_context, is_prime
from ellwitt.modforms import ss_poly_eisenstein
from ellwitt.polyseries import Poly, count_roots_in_fp, roots_in_field
from ellwitt.sslocus import hasse_polynomial

SMALL_PRIMES = (5, 7, 11, 13)
#: "fp" finds the roots in F_p, the scalars of fq2_context(p)
MODELS = ("fp", "fq2", "fq2-twisted")


def ints(f: Poly) -> list:
    """f over F_p, held as scalars of an F_{p^2} model, as the ascending
    int list the root finder reads."""
    assert all(c.in_prime_field for c in f.coeffs), f
    return [c.a for c in f.coeffs]


def scan_roots(f: list, field, rational=False) -> set:
    """Every element of the F_{p^2} model field, or every scalar of it
    when rational, at which the int list f vanishes mod p, by exhaustive
    scan."""
    p, g0 = field.p, field.g0
    cs = [c % p for c in reversed(f)]
    out = set()
    for xa in range(p):
        for xb in range(1 if rational else p):
            aa = ab = 0
            for c in cs:
                aa, ab = ((aa * xa - g0 * ab * xb + c) % p,
                          (aa * xb + ab * xa) % p)
            if not aa and not ab:
                out.add(field.elem(xa, xb))
    return out


def found_roots(f: list, field, rational=False) -> set:
    """roots_in_field(f, field), or its scalars, the roots in F_p, when
    rational."""
    roots = roots_in_field(f, field)
    return {z for z in roots if z.in_prime_field} if rational else roots


def twisted_context(p: int) -> Quad:
    """F_{p^2} as F_p[x]/(x^2 - n') for the largest non-residue n' that
    fq2_context(p) does not use: a second model of the same field."""
    n = next(n for n in range(p - 1, 1, -1)
             if pow(n, (p - 1) // 2, p) == p - 1
             and Quad(p, -n) != fq2_context(p))
    return Quad(p, -n)


def field_of(p: int, model: str) -> Quad:
    return twisted_context(p) if model == "fq2-twisted" else fq2_context(p)


def product(ring, factors) -> Poly:
    f = Poly(ring, [ring.one()])
    for g in factors:
        f = f * g
    return f


def rootless(ring, degree: int, coeffs: list, over) -> Poly:
    """The first monic polynomial of the given degree with no root in
    `over`, searching upward from the drawn coefficients."""
    p = ring.p
    for shift in range(p ** degree):
        cs = [(c + shift // p ** i) % p for i, c in enumerate(coeffs)]
        f = Poly(ring, cs + [1])
        if not scan_roots(ints(f), over):
            return f
    raise AssertionError("no rootless polynomial found")


primes = st.sampled_from(SMALL_PRIMES)
models = st.sampled_from(MODELS)


@st.composite
def elements(draw, field, rational=False):
    """An element of the F_{p^2} model field, a scalar when rational."""
    a = draw(st.integers(0, field.p - 1))
    if rational:
        return field.elem(a)
    return field.elem(a, draw(st.integers(0, field.p - 1)))


def conjugate_closed(g: Poly, rational=False) -> Poly:
    """g * g^sigma for g over F_{p^2}, as a polynomial over F_p (scalars
    of fq2_context(p)): its roots are those of g and their conjugates.
    g itself when rational, its coefficients scalars."""
    ring = g.ring
    gs = g if rational else g * Poly(ring, [c.conj() for c in g.coeffs])
    return Poly(fq2_context(ring.p), ints(gs))


@st.composite
def linear_factors(draw, field, rational=False, max_size=5):
    """(X - r)^m over F_p for drawn roots r and multiplicities m in
    1..3: r in F_p when rational, else r in F_{p^2} and each factor
    (X - r)(X - r^p)."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        r = draw(elements(field, rational))
        lin = conjugate_closed(Poly(field, [-r, field.one()]), rational)
        out += [lin] * draw(st.integers(1, 3))
    return out


# --- the locus polynomials, every prime 5..97 ---


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_deuring_and_eisenstein_polynomials_match_scan(p):
    ctx = fq2_context(p)
    for f in (hasse_polynomial(p), ss_poly_eisenstein(p)):
        assert roots_in_field(f, ctx) == scan_roots(f, ctx)
        assert found_roots(f, ctx, True) == scan_roots(f, ctx, True)


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_rational_root_count_of_locus_polynomials_matches_scan(p):
    F = fq2_context(p)
    for f in (hasse_polynomial(p), ss_poly_eisenstein(p)):
        assert count_roots_in_fp(f, p) == len(scan_roots(f, F, True))


# --- drawn polynomials at p in {5, 7, 11, 13} ---


@settings(max_examples=150, deadline=None)
@given(st.data(), primes, models)
def test_repeated_roots(data, p, model):
    field, rational = field_of(p, model), model == "fp"
    f = ints(product(fq2_context(p),
                     data.draw(linear_factors(field, rational))))
    assert found_roots(f, field, rational) == scan_roots(f, field, rational)


@settings(max_examples=150, deadline=None)
@given(st.data(), primes, models, st.sampled_from((3, 4)))
def test_irreducible_cubic_and_quartic_factors(data, p, model, degree):
    # an F_p polynomial whose roots all lie in F_p: linear factors times
    # an irreducible cubic or quartic, which has no root in F_{p^2}
    F = fq2_context(p)
    field, rational = field_of(p, model), model == "fp"
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=degree,
                                max_size=degree))
    irr = rootless(F, degree, coeffs, F)
    f = ints(product(F, data.draw(linear_factors(F, True, max_size=3))
                     + [irr]))
    got = found_roots(f, field, rational)
    assert got == scan_roots(f, field, rational)
    assert len(got) <= len(f) - 1 - degree
    assert all(z.in_prime_field for z in got)


@settings(max_examples=200, deadline=None)
@given(st.data(), primes, models)
def test_arbitrary_coefficients(data, p, model):
    # over F_{p^2}: the norm g * g^sigma of drawn coefficients, and the
    # polynomial of their F_p parts
    field, rational = field_of(p, model), model == "fp"
    cs = data.draw(st.lists(elements(field, rational), min_size=1,
                            max_size=12))
    f = ints(conjugate_closed(Poly(field, cs), rational))
    if not f:
        with pytest.raises(ValueError):
            roots_in_field(f, field)
        return
    assert found_roots(f, field, rational) == scan_roots(f, field, rational)
    if not rational:
        fp = [c.a for c in cs]
        if any(fp):
            assert roots_in_field(fp, field) == scan_roots(fp, field)


@settings(max_examples=200, deadline=None)
@given(st.data(), primes)
def test_count_roots_in_fp_matches_scan(data, p):
    # repeated linear factors times arbitrary coefficients, degree 0 and
    # 1 included: the count is of distinct roots
    F = fq2_context(p)
    cs = data.draw(st.lists(elements(F, True), min_size=1, max_size=6))
    f = ints(product(F, data.draw(linear_factors(F, True)) + [Poly(F, cs)]))
    if not f:
        with pytest.raises(ValueError):
            count_roots_in_fp(f, p)
        return
    assert count_roots_in_fp(f, p) == len(scan_roots(f, F, True))


def test_count_roots_in_fp_degree_zero_and_one():
    assert count_roots_in_fp([5], 13) == 0
    assert count_roots_in_fp([0, 1], 13) == 1
    assert count_roots_in_fp([8, 3], 13) == 1
    # the list is read mod p: a multiple of p is the zero polynomial
    with pytest.raises(ValueError):
        count_roots_in_fp([0, 13], 13)


@pytest.mark.parametrize("p", [1_000_003, 2 ** 61 - 1])
def test_large_primes(p):
    # fields far too large to scan; the wider prime needs Kronecker slots
    # of more than eight bytes
    ctx = fq2_context(p)
    n = next(n for n in range(2, 100) if pow(n, (p - 1) // 2, p) == p - 1)
    rational = {ctx.elem(0), ctx.elem(7), ctx.elem(p - 12345)}
    f = ints(product(ctx, [Poly(ctx, [-r, 1]) for r in rational]
                     + [Poly(ctx, [-n, 0, 1])]))
    assert found_roots(f, ctx, True) == rational
    s = next(z for z in roots_in_field(f, ctx) if not z.in_prime_field)
    assert s * s == ctx.from_int(n)
    assert roots_in_field(f, ctx) == rational | {s, -s}
    assert count_roots_in_fp(f, p) == len(rational)
