"""The Deuring route through the S3 quotient against the routes it
replaced.

hasse_roots finds the supersingular j as the roots of R, the S3
quotient of Q(w), the parity form of the Legendre polynomial P_m
(m = (p-1)/2), and takes one S3 orbit of six lambda from a Cardano root
w for one j of each Frobenius pair, and the conjugate orbit for the
other.  Three replaced routes are kept below as oracles: the per-j
pass, which solved every j and certified Q squarefree
(``oracle_per_j``, ``q_is_squarefree``); the half-degree route, every
root w of Q and one square root in F_{p^2} per pair {lambda, 1/lambda}
(``oracle_half``); and the full route, every root of the degree-m Hasse
polynomial H, ``roots_in_field(H, fq2_context(p))``.  All must give the
same lambda-set and the same j-set.  So is the squarefree check
gcd(H, H') = 1, which hasse_roots makes on R, and the replaced one on Q
must reject every mutant that it rejects.  The polynomial identity
behind the half-degree form,

    sum_k q_k (1 + lambda)^(m-2k) (1 - lambda)^(2k) = 2^m H(lambda),
    q_k = (-1)^k C(m,k) C(2m-2k,m),

is checked coefficient by coefficient over Z and, with the coefficients
hasse_roots uses, mod p.  R made monic, the ss_p of the pass's
"deuring quotient" row, must equal the Kaneko-Zagier closed form over
X^delta (X - 1728)^eps at every prime up to 1000.  The pass runs once
per prime: cross_validate builds the S3 quotient once, and hasse calls
legendre_to_j once per Frobenius orbit of supersingular j.

    PYTHONPATH=src python tests/test_deuring.py

runs the route comparison at every prime up to 1000, which the test
suite samples up to 199.
"""

from math import comb

import pytest

from ellwitt import arith, modforms, sslocus
from ellwitt.arith import fq2_context, is_prime, rth_root
from ellwitt.cli import hasse_section
from ellwitt.errors import ValidationError
from ellwitt.polyseries import Poly, is_squarefree, roots_in_field
from ellwitt.sslocus import (
    MAX_DEURING_PRIME,
    _legendre_half,
    _s3_orbit,
    _s3_quotient,
    _w_root,
    cross_validate,
    hasse_polynomial,
    hasse_roots,
    legendre_to_j,
    rational_ss_count,
    sigma,
    ss_j_deuring,
    ss_poly_closed,
)

PRIMES = [p for p in range(5, 200) if is_prime(p)]
ALL_PRIMES = [p for p in range(5, MAX_DEURING_PRIME + 1) if is_prime(p)]


def oracle_lambdas(p: int) -> frozenset:
    """The full route: every root of H in F_{p^2}."""
    return frozenset(roots_in_field(hasse_polynomial(p), fq2_context(p)))


def oracle_half(p: int) -> frozenset:
    """The half-degree route: each root w of Q in F_{p^2} gives
    z = sqrt(w) and the pair lambda = (z - 1)/(z + 1), 1/lambda; odd m
    adds lambda = -1 (z = 0)."""
    ctx = fq2_context(p)
    one = ctx.one()
    lams = {-one} if (p - 1) // 2 % 2 else set()
    for w in roots_in_field(_legendre_half(p), ctx):
        assert w != 0 and w != 1
        z = rth_root(w, 2)
        assert z * z == w
        lam = (z - one) * (z + one).inverse()
        lams.update((lam, lam.inverse()))
    return frozenset(lams)


def q_is_squarefree(Q: list, p: int) -> bool:
    """The replaced certificate: Q(0) != 0 and gcd(Q, Q') = 1."""
    return bool(Q[0] % p) and is_squarefree(Q, p)


def ints(f: Poly) -> list:
    """A Poly over F_p, the scalars of F_{p^2}, as the ascending int list
    the routes hold."""
    assert all(c.in_prime_field for c in f.coeffs), f
    return [c.a for c in f.coeffs]


def oracle_per_j(p: int) -> tuple:
    """The replaced pass: Q certified squarefree, then for every root j
    of R, conjugates included, Cardano's w, z = sqrt(w), the three
    checks and the S3 orbit.  (lambda-set, j-set)."""
    Q = _legendre_half(p)
    assert q_is_squarefree(Q, p)
    ctx = fq2_context(p)
    one = ctx.one()
    fixed = {}
    if p % 3 == 2:
        fixed[ctx.zero()] = ctx.from_int(-3)
    if p % 4 == 3:
        fixed[ctx.from_int(1728)] = ctx.from_int(9)
    lams, js = set(), set()
    for j in [*fixed, *roots_in_field(_s3_quotient(Q, p), ctx)]:
        w = fixed[j] if j in fixed else _w_root(j)
        assert 64 * (w + 3) ** 3 == j * (w - 1) ** 2
        z = rth_root(w, 2)
        assert z * z == w
        lam = (z - one) * (z + one).inverse()
        assert legendre_to_j(lam) == j
        lams |= _s3_orbit(lam)
        js.add(j)
    return frozenset(lams), frozenset(js)


def parity_side(q: list, m: int, mod: int = 0) -> list:
    """sum_k q[k] (1 + lambda)^(m-2k) (1 - lambda)^(2k), ascending
    coefficients, by Horner in U = (1 + lambda)^2 with V = (1 - lambda)^2
    carried along; reduced mod `mod` when it is nonzero."""

    def times(a, s):  # a * (1 + s*lambda)
        return [x + s * y for x, y in zip(a + [0], [0] + a)]

    acc, vk = [q[0]], [1]
    for qk in q[1:]:  # acc and vk both have degree 2k at step k
        vk = times(times(vk, -1), -1)
        acc = [x + qk * y for x, y in zip(times(times(acc, 1), 1), vk)]
    if m % 2:
        acc = times(acc, 1)
    return [x % mod for x in acc] if mod else acc


def exact_q(m: int) -> list:
    return [(-1) ** k * comb(m, k) * comb(2 * m - 2 * k, m)
            for k in range(m // 2 + 1)]


def check_prime(p: int) -> None:
    m = (p - 1) // 2
    # over Z
    assert parity_side(exact_q(m), m) == \
        [2 ** m * comb(m, k) ** 2 for k in range(m + 1)]
    # mod p, with the coefficients hasse_roots solves (Q's list is
    # ascending in w, q_k multiplies w^(h-k))
    q = _legendre_half(p)[::-1]
    assert q == [c % p for c in exact_q(m)]
    assert parity_side(q, m, p) == \
        [2 ** m * c % p for c in hasse_polynomial(p)]
    # the half-degree and full routes, and both squarefree checks
    assert is_squarefree(hasse_polynomial(p), p)
    assert oracle_half(p) == oracle_lambdas(p)


def check_s3_route(p: int) -> None:
    half = oracle_half(p)
    assert hasse_roots(p).lambdas == half
    assert ss_j_deuring(p) == frozenset(legendre_to_j(lam) for lam in half)


@pytest.mark.parametrize("p", PRIMES)
def test_half_degree_route_matches_the_full_hasse_route(p):
    check_prime(p)


@pytest.mark.parametrize("p", PRIMES)
def test_s3_route_matches_the_half_degree_route(p):
    check_s3_route(p)


def test_the_orbit_pass_is_the_per_j_pass():
    # one solve per Frobenius orbit of j gives every lambda and j that
    # solving each j gave, and the R certificate passes where Q's did
    for p in [p for p in ALL_PRIMES if p <= 400] + [997]:
        got = hasse_roots(p)
        assert (got.lambdas, got.j_set) == oracle_per_j(p), p


@pytest.mark.parametrize("p", ALL_PRIMES)
def test_s3_quotient_is_the_closed_form(p):
    # R monic, times X^delta (X - 1728)^eps, is ss_p coefficient by
    # coefficient: the roots of R are the supersingular j off 0 and 1728
    assert hasse_roots(p).ss_poly == ss_poly_closed(p)


def test_parity_side_sees_a_wrong_coefficient():
    # the identity check is not vacuous: one flipped sign breaks it
    m = 7
    q = exact_q(m)
    q[1] = -q[1]
    assert parity_side(q, m) != \
        [2 ** m * comb(m, k) ** 2 for k in range(m + 1)]


def test_lambda_pairs_and_minus_one():
    # lambda -> 1/lambda and lambda -> 1 - lambda preserve the set; -1
    # is a root exactly when m is odd (p = 3 mod 4)
    for p in (11, 13, 97, 101):
        lams = hasse_roots(p).lambdas
        assert {lam.inverse() for lam in lams} == lams
        assert {1 - lam for lam in lams} == lams
        assert (-fq2_context(p).one() in lams) == (p % 4 == 3)


@pytest.fixture
def fresh_cache():
    hasse_roots.cache_clear()
    yield
    hasse_roots.cache_clear()


def test_a_root_w_of_one_raises(monkeypatch, fresh_cache):
    monkeypatch.setattr(sslocus, "_w_root", lambda j: j.ring.one())
    with pytest.raises(ValidationError, match="w=1 .* no simple lambda"):
        hasse_roots(13)


def test_a_cardano_root_that_does_not_solve_raises(monkeypatch,
                                                   fresh_cache):
    real = sslocus._w_root
    monkeypatch.setattr(sslocus, "_w_root", lambda j: real(j) + 2)
    with pytest.raises(ValidationError, match="does not solve"):
        hasse_roots(13)


# (c, k): Q (A - cB)^k puts (X - c)^k into R; a double root off 0 and
# 1728, then R(0) = 0 and R(1728) = 0
@pytest.mark.parametrize("factor", [(1, 2), (0, 1), (1728, 1)])
def test_a_repeated_or_zero_root_of_q_is_not_squarefree(
        factor, monkeypatch, fresh_cache):
    # S3-symmetric mutants at p = 97 (delta = eps = 0), of S3 degree
    # s + k: the pass is told to expect that degree, so the mutant passes
    # the S3 quotient and only the squarefree certificate can refuse it
    p, (c, k) = 97, factor
    F = fq2_context(p)
    q = Poly(F, _legendre_half(p))
    A = Poly(F, [64 * 27, 64 * 27, 64 * 9, 64])  # 64 (w + 3)^3
    B = Poly(F, [1, -2, 1])  # (w - 1)^2
    bad = ints(q * arith.power(A + B * c * -1, k))
    assert not q_is_squarefree(bad, p)
    R = Poly(F, _s3_quotient(ints(q), p))
    real = modforms.hasse_decomposition(p)
    monkeypatch.setattr(modforms, "hasse_decomposition",
                        lambda p: real._replace(m=real.m + k))
    assert _s3_quotient(bad, p) == \
        ints(R * arith.power(Poly(F, [-c, 1]), k))
    monkeypatch.setattr(sslocus, "_legendre_half", lambda p: bad)
    with pytest.raises(ValidationError, match="not squarefree"):
        hasse_roots(p)


@pytest.mark.parametrize("change", ["factor", "coefficient"])
def test_a_squarefree_q_that_is_not_s3_symmetric_raises(
        change, monkeypatch, fresh_cache):
    F = fq2_context(97)
    q = Poly(F, _legendre_half(97))
    if change == "factor":  # degree 3s + 1
        bad = ints(q * Poly(F, [-5, 1]))
    else:  # degree kept, w^7 coefficient moved
        bad = ints(q + Poly(F, [0] * 7 + [1]))
    assert q_is_squarefree(bad, 97)
    monkeypatch.setattr(sslocus, "_legendre_half", lambda p: bad)
    with pytest.raises(ValidationError, match="Q is not S3-symmetric"):
        hasse_roots(97)


def patch_root(monkeypatch, r, root):
    """Replace sslocus.rth_root at this r by root(x); roots of the other
    degree are left to the real routine."""
    real = sslocus.rth_root
    monkeypatch.setattr(sslocus, "rth_root", lambda x, d: (
        root(x) if d == r else real(x, d)))


def test_a_wrong_square_root_raises(monkeypatch, fresh_cache):
    # p = 11 has only the orbits of j = 0 and 1728, at w = -3 and 9
    patch_root(monkeypatch, 2, lambda w: w)
    with pytest.raises(ValidationError, match="does not square back"):
        hasse_roots(11)


def test_a_square_root_outside_the_field_is_a_shortfall(
        monkeypatch, fresh_cache):
    def no_root(w):
        raise ValueError("not a square")

    patch_root(monkeypatch, 2, no_root)
    with pytest.raises(ValidationError, match="only 0 of 5"):
        hasse_roots(11)


def test_a_cube_root_outside_the_field_is_a_shortfall(
        monkeypatch, fresh_cache):
    def no_root(w):
        raise ValueError("not a cube")

    patch_root(monkeypatch, 3, no_root)
    # p = 23: the orbits of 0 and 1728 (2 + 3 lambda) need no Cardano;
    # the third j loses its six
    with pytest.raises(ValidationError, match="only 5 of 11"):
        hasse_roots(23)


@pytest.mark.parametrize("p", [379, 397])
def test_each_square_root_decides_residuosity_once(monkeypatch, fresh_cache,
                                                   p):
    # with fq2_context's model built afresh, each square root decides
    # residuosity once, inside rth_root (b^(2^(e-1)) = 1), and makes no
    # Euler test: the pass makes one per step of the least-non-residue
    # scan and one for Quad's irreducibility check, 1 at 379, 2 at 397.
    # A square root that ran its own Euler test would add one per call.
    calls = {"euler": 0, "sqrt": 0}
    real = arith.is_quadratic_residue

    def euler(a, mod):
        calls["euler"] += 1
        return real(a, mod)

    def square_root(w):
        calls["sqrt"] += 1
        return rth_root(w, 2)

    monkeypatch.setattr(arith, "is_quadratic_residue", euler)
    patch_root(monkeypatch, 2, square_root)
    fq2_context.cache_clear()
    hasse_roots(p)
    scan = 0 if p % 4 == 3 else next(
        n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1) - 1
    assert calls["sqrt"] > 0
    assert calls["euler"] == scan + 1


def test_a_spurious_j_is_a_surplus(monkeypatch, fresh_cache):
    # lambda = 3 lies over j = 11, not supersingular at 13; its orbit of
    # six lies in F_13
    ctx = fq2_context(13)
    spurious = legendre_to_j(ctx.from_int(3))
    assert spurious not in ss_j_deuring(13)
    hasse_roots.cache_clear()  # ss_j_deuring ran the pass
    real = sslocus.roots_in_field
    monkeypatch.setattr(sslocus, "roots_in_field",
                        lambda f, field: real(f, field) | {spurious})
    with pytest.raises(ValidationError, match="12 lambda-roots .* spurious"):
        hasse_roots(13)


def test_a_lambda_off_its_j_raises(monkeypatch, fresh_cache):
    real = sslocus.legendre_to_j
    monkeypatch.setattr(sslocus, "legendre_to_j", lambda lam: real(lam) + 1)
    with pytest.raises(ValidationError, match="does not map to j"):
        hasse_roots(13)


# --- one pass per prime ---


def clear_sslocus_caches():
    for f in vars(sslocus).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def counted(monkeypatch, name) -> list:
    """Wrap sslocus.<name> so each call appends to the returned list."""
    calls, real = [], getattr(sslocus, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sslocus, name, wrapper)
    return calls


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23, 37, 97])
def test_cross_validate_builds_the_s3_quotient_once(monkeypatch, p):
    # the "deuring quotient" and "deuring" rows read one pass
    clear_sslocus_caches()
    calls = counted(monkeypatch, "_s3_quotient")
    cross_validate(p)
    assert len(calls) == 1


def test_hasse_maps_one_lambda_per_supersingular_j(monkeypatch):
    # legendre_to_j checks one lambda per Frobenius orbit of j: each j in
    # F_p, and one of each conjugate pair; the j-set is the pass's
    clear_sslocus_caches()
    rational = rational_ss_count(397)
    calls = counted(monkeypatch, "legendre_to_j")
    section = hasse_section(397)
    assert sigma(397) == len(section["j_images"]) == 33
    assert len(calls) == rational + (33 - rational) // 2 < 33


def sweep() -> int:
    for p in ALL_PRIMES:
        check_prime(p)
        check_s3_route(p)
    return len(ALL_PRIMES)


if __name__ == "__main__":
    import time
    t0 = time.perf_counter()
    n = sweep()
    print(f"{n} primes agree ({time.perf_counter() - t0:.1f} s)")
