"""roots_in_field and count_roots_in_fp against an exhaustive plain-int
scan of the field.

The scan visits every element of F_p or F_{p^2} and evaluates f there by
Horner's rule on bare integers; it is the oracle the Cantor-Zassenhaus
root finder has to agree with, element for element.  The polynomials
are over F_p; a root set in F_{p^2} is drawn closed under conjugation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwitt.arith import Quad, Zmod, fq2_context, is_prime
from ellwitt.modforms import ss_poly_eisenstein
from ellwitt.polyseries import Poly, count_roots_in_fp, roots_in_field
from ellwitt.sslocus import hasse_polynomial

SMALL_PRIMES = (5, 7, 11, 13)
MODELS = ("fp", "fq2", "fq2-twisted")


def scan_roots(f: Poly, field) -> set:
    """Every element of field at which f vanishes, by exhaustive scan."""
    p = field.p
    if isinstance(field, Zmod):
        cs = [c.value for c in reversed(f.coeffs)]
        out = set()
        for x in range(p):
            acc = 0
            for c in cs:
                acc = (acc * x + c) % p
            if not acc:
                out.add(field.elem(x))
        return out
    g0 = field.g0
    cs = [c.value for c in reversed(f.coeffs)]
    out = set()
    for xa in range(p):
        for xb in range(p):
            aa = ab = 0
            for c in cs:
                aa, ab = ((aa * xa - g0 * ab * xb + c) % p,
                          (aa * xb + ab * xa) % p)
            if not aa and not ab:
                out.add(field.elem(xa, xb))
    return out


def twisted_context(p: int) -> Quad:
    """F_{p^2} as F_p[x]/(x^2 - n') for the largest non-residue n' that
    fq2_context(p) does not use: a second model of the same field."""
    n = next(n for n in range(p - 1, 1, -1)
             if pow(n, (p - 1) // 2, p) == p - 1
             and Quad(p, -n) != fq2_context(p))
    return Quad(p, -n)


def field_of(p: int, model: str):
    if model == "fp":
        return Zmod(p)
    return fq2_context(p) if model == "fq2" else twisted_context(p)


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
        if not scan_roots(f, over):
            return f
    raise AssertionError("no rootless polynomial found")


primes = st.sampled_from(SMALL_PRIMES)
models = st.sampled_from(MODELS)


@st.composite
def elements(draw, field):
    a = draw(st.integers(0, field.p - 1))
    if isinstance(field, Zmod):
        return field.elem(a)
    return field.elem(a, draw(st.integers(0, field.p - 1)))


def conjugate_closed(g: Poly) -> Poly:
    """g * g^sigma for g over F_{p^2}, as a polynomial over F_p: its roots
    are those of g and their conjugates."""
    ring = g.ring
    if isinstance(ring, Zmod):
        return g
    gs = g * g.map_coeffs(lambda c: c.conj(), ring)
    return gs.map_coeffs(lambda c: c.to_fp(), ring.field)


@st.composite
def linear_factors(draw, field, max_size=5):
    """(X - r)^m over F_p for drawn roots r and multiplicities m in
    1..3; over F_{p^2} each factor is (X - r)(X - r^p)."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        r = draw(elements(field))
        lin = conjugate_closed(Poly(field, [-r, field.one()]))
        out += [lin] * draw(st.integers(1, 3))
    return out


# --- the locus polynomials, every prime 5..97 ---


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_deuring_and_eisenstein_polynomials_match_scan(p):
    ctx = fq2_context(p)
    for f in (hasse_polynomial(p), ss_poly_eisenstein(p)):
        want = scan_roots(f, ctx)
        assert roots_in_field(f, ctx) == want
        assert roots_in_field(f, ctx.field) == \
            {ctx.field.elem(z.a) for z in want if z.in_prime_field}


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_rational_root_count_of_locus_polynomials_matches_scan(p):
    F = Zmod(p)
    for f in (hasse_polynomial(p), ss_poly_eisenstein(p)):
        assert count_roots_in_fp(f) == len(scan_roots(f, F))


# --- drawn polynomials at p in {5, 7, 11, 13} ---


@settings(max_examples=150, deadline=None)
@given(st.data(), primes, models)
def test_repeated_roots(data, p, model):
    field = field_of(p, model)
    F = Zmod(p)
    f = product(F, data.draw(linear_factors(field)))
    assert roots_in_field(f, field) == scan_roots(f, field)


@settings(max_examples=150, deadline=None)
@given(st.data(), primes, models, st.sampled_from((3, 4)))
def test_irreducible_cubic_and_quartic_factors(data, p, model, degree):
    # an F_p polynomial whose roots all lie in F_p: linear factors times
    # an irreducible cubic or quartic, which has no root in F_{p^2}
    F = Zmod(p)
    field = field_of(p, model)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=degree,
                                max_size=degree))
    irr = rootless(F, degree, coeffs, fq2_context(p))
    f = product(F, data.draw(linear_factors(F, max_size=3)) + [irr])
    got = roots_in_field(f, field)
    assert got == scan_roots(f, field)
    assert len(got) <= f.degree - degree
    if not isinstance(field, Zmod):
        assert all(z.in_prime_field for z in got)


@settings(max_examples=200, deadline=None)
@given(st.data(), primes, models)
def test_arbitrary_coefficients(data, p, model):
    # over F_{p^2}: the norm g * g^sigma of drawn coefficients, and the
    # polynomial of their F_p parts
    field = field_of(p, model)
    cs = data.draw(st.lists(elements(field), min_size=1, max_size=12))
    f = conjugate_closed(Poly(field, cs))
    if f.is_zero():
        with pytest.raises(ValueError):
            roots_in_field(f, field)
        return
    assert roots_in_field(f, field) == scan_roots(f, field)
    if not isinstance(field, Zmod):
        fp = Poly(field.field, [c.a for c in cs])
        if not fp.is_zero():
            assert roots_in_field(fp, field) == scan_roots(fp, field)


@settings(max_examples=200, deadline=None)
@given(st.data(), primes)
def test_count_roots_in_fp_matches_scan(data, p):
    # repeated linear factors times arbitrary coefficients, degree 0 and
    # 1 included: the count is of distinct roots
    F = Zmod(p)
    cs = data.draw(st.lists(elements(F), min_size=1, max_size=6))
    f = product(F, data.draw(linear_factors(F)) + [Poly(F, cs)])
    if f.is_zero():
        with pytest.raises(ValueError):
            count_roots_in_fp(f)
        return
    assert count_roots_in_fp(f) == len(scan_roots(f, F))


def test_count_roots_in_fp_degree_zero_and_one():
    F = Zmod(13)
    assert count_roots_in_fp(Poly(F, [5])) == 0
    assert count_roots_in_fp(Poly(F, [0, 1])) == 1
    assert count_roots_in_fp(Poly(F, [8, 3])) == 1
    with pytest.raises(ValueError):
        count_roots_in_fp(Poly(fq2_context(13), [0, 1]))


@pytest.mark.parametrize("p", [1_000_003, 2 ** 61 - 1])
def test_large_primes(p):
    # fields far too large to scan; the wider prime needs Kronecker slots
    # of more than eight bytes
    ctx = fq2_context(p)
    F = ctx.field
    n = next(n for n in range(2, 100) if pow(n, (p - 1) // 2, p) == p - 1)
    rational = [F.elem(0), F.elem(7), F.elem(p - 12345)]
    f = product(F, [Poly(F, [-r, 1]) for r in rational]
                + [Poly(F, [-n, 0, 1])])
    assert roots_in_field(f, F) == set(rational)
    s = next(z for z in roots_in_field(f, ctx) if not z.in_prime_field)
    assert s * s == ctx.from_int(n)
    assert roots_in_field(f, ctx) == {ctx.coerce(r) for r in rational} \
        | {s, -s}
    assert count_roots_in_fp(f) == len(rational)
