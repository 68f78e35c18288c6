"""W(F_{p^2})/p^N: Teichmuller lifts, Hensel lifting, the lifted
supersingular polynomial and its idempotent splitting.

teichmuller and hensel_root take F_{p^2} and W(F_{p^2})/p^N alone; an
element of F_p is lifted as a scalar of F_{p^2}.  The Z/p^N route
lift_context and teichmuller once took, the fixed point of t -> t^p,
runs on ints as the reference for omega(n) and for those scalars."""

import random

import pytest

from ellwitt import padicwitt, sslocus
from ellwitt.arith import Quad, Zmod, fq2_context, is_prime
from ellwitt.errors import ValidationError
from ellwitt.padicwitt import (
    hensel_root,
    lift_context,
    lift_ss_poly,
    splitting_idempotents,
    teichmuller,
)
from ellwitt.polyseries import Poly
from ellwitt.sslocus import sigma
from oracles import QQ


def test_padic_ring_basics():
    R = lift_context(fq2_context(5), 3)
    a = R.elem(7)
    assert a + R.elem(120) == R.elem(2)   # 127 mod 125
    assert a * a.inverse() == R.one()
    assert not R.is_unit(R.elem(10))
    z = R.elem(7, 3)
    assert type(z.norm()) is int and z * z.conj() == z.norm()
    with pytest.raises(ValueError):
        R.elem(1) + lift_context(fq2_context(5), 4).elem(1)
    with pytest.raises(ValueError):
        R.elem(1) + lift_context(fq2_context(7), 3).elem(1)


def test_lift_context_n1_is_base():
    ctx = fq2_context(5)
    w = lift_context(ctx, 1)
    assert w == ctx


def test_lift_context_p5_n2():
    ctx = fq2_context(5)  # x^2 - 2
    w = lift_context(ctx, 2)
    assert (w.g0 - ctx.g0) % 5 == 0
    assert w.g0 == 18  # X^2 - 7 mod 25
    om = w.elem(0, 1)
    assert om ** 24 == w.one()


def _lift_modulus_fixed_point(ctx, N: int):
    """The replaced lift_context, kept as the oracle: in (Z/p^N)[x]/(g),
    the class of x is iterated through t -> t^(p^2) until fixed (one
    p-adic digit per step); the fixed point omega and its Frobenius
    conjugate omega^p are the Teichmuller roots, and
    G = (X - omega)(X - omega^p) has scalar coefficients.  Returns
    (G1, G0) with G = X^2 + G1*X + G0."""
    p = ctx.p
    x = Quad(p, ctx.g0, N).elem(0, 1)  # the class of x
    t = padicwitt._fixed_point(x, p * p, N)
    c = t ** p  # the conjugate root
    s, pr = t + c, t * c
    if s.b or pr.b:
        raise ValidationError(
            "Teichmuller modulus G has non-scalar coefficients")
    if s.a % p or (pr.a - ctx.g0) % p:
        raise ValidationError("lifted modulus G does not reduce to g")
    return -s.a % t.ring.modulus, pr.a


def _omega(n: int, p: int, N: int) -> int:
    """The replaced Z/p^N route, kept as the oracle on ints: iterate
    t -> t^p mod p^N from n until t is fixed (one p-adic digit per
    step)."""
    m = p ** N
    t = n % m
    for _ in range(N + 2):
        nt = pow(t, p, m)
        if nt == t:
            return t
        t = nt
    raise AssertionError(f"no fixed point from {n} mod {p}^{N}")


#: The precisions at which lift_context and teichmuller meet the oracle.
ORACLE_PRECISIONS = (1, 2, 3, 5, 10, 32, 64)


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_lift_context_matches_the_fixed_point_oracle(p):
    ctx = fq2_context(p)
    for N in ORACLE_PRECISIONS:
        w = lift_context(ctx, N)
        assert _lift_modulus_fixed_point(ctx, N) == (0, w.g0), (p, N)
        assert w.g0 == -_omega(-ctx.g0, p, N) % p ** N, (p, N)


def test_lift_context_discriminant_is_unit():
    for p, N in ((7, 4), (13, 6), (29, 3)):
        w = lift_context(fq2_context(p), N)
        disc = -4 * w.g0 % w.modulus
        assert disc % p != 0


def test_teichmuller_examples():
    # scalars of F_25: their lifts are scalars of W(F_25)/5^N
    F25 = fq2_context(5)
    assert teichmuller(F25.from_int(0), 4) == 0
    assert teichmuller(F25.from_int(1), 4) == 1
    t = teichmuller(F25.from_int(2), 2)
    assert (t.a, t.b) == (7, 0)
    # defining property at N = 20
    W = lift_context(F25, 20)
    for v in range(1, 5):
        t = teichmuller(F25.from_int(v), 20)
        assert t ** (5 - 1) == W.one()
        assert t ** 5 == t
        assert t.b == 0 and t.a % 5 == v


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)])
def test_teichmuller_of_fp_is_the_replaced_zmod_route(p):
    # the lift of v in F_p as a scalar of F_{p^2} is the fixed point of
    # t -> t^p mod p^N, the route teichmuller took on F_p input
    ctx = fq2_context(p)
    for N in ORACLE_PRECISIONS:
        for v in range(p):
            t = teichmuller(ctx.from_int(v), N)
            assert (t.a, t.b) == (_omega(v, p, N), 0), (p, N, v)


def test_teichmuller_and_hensel_refuse_zmod():
    for x in (Zmod(5).elem(2), 2):
        with pytest.raises(TypeError):
            teichmuller(x, 3)
    with pytest.raises(TypeError):   # F_p builds no Poly: another ring
        hensel_root(Poly(QQ, [-2, 0, 1]), 3)


def test_teichmuller_fq2_defining_property():
    rng = random.Random(7)
    for p in (5, 7, 13):
        ctx = fq2_context(p)
        w = lift_context(ctx, 20)
        for _ in range(10):
            x = ctx.elem(rng.randrange(p), rng.randrange(p))
            t = teichmuller(x, 20)
            assert t ** (p * p) == t
            assert t.reduce_precision(1) == x
            if x:
                assert t ** (p * p - 1) == w.one()


def test_teichmuller_multiplicative():
    rng = random.Random(8)
    for p in (5, 11):
        ctx = fq2_context(p)
        for _ in range(15):
            x = ctx.elem(rng.randrange(p), rng.randrange(p))
            y = ctx.elem(rng.randrange(p), rng.randrange(p))
            assert teichmuller(x * y, 20) == \
                teichmuller(x, 20) * teichmuller(y, 20)
            u = ctx.from_int(rng.randrange(p))
            v = ctx.from_int(rng.randrange(p))
            assert teichmuller(u * v, 20) == \
                teichmuller(u, 20) * teichmuller(v, 20)


def test_witt_frobenius_properties():
    rng = random.Random(9)
    for p in (5, 13):
        ctx = fq2_context(p)
        w = lift_context(ctx, 10)
        for _ in range(25):
            z = w.elem(rng.randrange(w.modulus), rng.randrange(w.modulus))
            zz = w.elem(rng.randrange(w.modulus), rng.randrange(w.modulus))
            assert z.conj().conj() == z
            assert (z + zz).conj() == z.conj() + zz.conj()
            assert (z * zz).conj() == z.conj() * zz.conj()
            assert z.conj().reduce_precision(1) == z.reduce_precision(1).conj()
        s = w.elem(rng.randrange(w.modulus), 0)
        assert s.conj() == s
        # frobenius commutes with the Teichmuller lift
        x = ctx.elem(rng.randrange(p), rng.randrange(p))
        assert teichmuller(x, 10).conj() == teichmuller(x.conj(), 10)


def test_hensel_examples():
    # on scalars of F_{p^2} and W(F_{p^2})/p^N
    F49, F121 = fq2_context(7), fq2_context(11)
    W49 = lift_context(F49, 2)
    r = hensel_root(Poly(W49, [-2, 0, 1]), F49.from_int(3))
    assert (r.a, r.b) == (10, 0)
    R = lift_context(F121, 9)
    assert hensel_root(Poly(R, [0, -1, 1]), F121.from_int(1)) == R.one()
    with pytest.raises(ValidationError):
        hensel_root(Poly(R, [0, 0, 1]), F121.from_int(0))


def test_hensel_non_root_is_validation_error():
    R = lift_context(fq2_context(7), 4)
    with pytest.raises(ValidationError, match="not a root"):
        hensel_root(Poly(R, [-2, 0, 1]), fq2_context(7).from_int(2))
    w = lift_context(fq2_context(7), 3)
    with pytest.raises(ValidationError, match="not simple"):
        hensel_root(Poly(w, [0, 0, 1]), fq2_context(7).zero())


def test_hensel_rejects_a_residue_of_another_ring():
    R = lift_context(fq2_context(7), 4)
    with pytest.raises(ValueError):
        hensel_root(Poly(R, [-2, 0, 1]), fq2_context(11).from_int(3))
    with pytest.raises(ValueError):
        hensel_root(Poly(R, [-2, 0, 1]),
                    lift_context(fq2_context(7), 2).from_int(3))
    with pytest.raises(TypeError):   # F_p is not the model's scalars
        hensel_root(Poly(R, [-2, 0, 1]), Zmod(7).elem(3))
    # the same F_49, but another model of it: x is not the model's x
    w = lift_context(fq2_context(7), 3)
    with pytest.raises(ValueError):
        hensel_root(Poly(w, [1, 0, 1]), Quad(7, 4).elem(0, 1))
    assert hensel_root(Poly(w, [1, 0, 1]), fq2_context(7).elem(0, 1)) == \
        w.elem(0, 1)


def test_hensel_independent_of_starting_lift():
    R = lift_context(fq2_context(7), 8)
    f = Poly(R, [-2, 0, 1])
    a = hensel_root(f, R.from_int(3))
    b = hensel_root(f, R.from_int(3 + 7 * 123))
    assert a == b
    assert a * a == R.from_int(2)


def test_lift_ss_poly_spot_values():
    for N in (1, 5, 10):
        sp = lift_ss_poly(11, N)
        M = 11 ** N
        assert [(c.a, c.b) for c in sp.coeffs] == [(0, 0), (M - 1, 0), (1, 0)]
    assert [(c.a, c.b) for c in lift_ss_poly(13, 1).coeffs] == \
        [(8, 0), (1, 0)]
    # p=7, N=3: monic linear X - t with t = 6 mod 7 and t^48 = 1
    sp = lift_ss_poly(7, 3)
    assert sp.degree == 1
    t = -sp.coeffs[0]
    assert t.a % 7 == 6 and t.b == 0
    assert t ** 48 == lift_context(fq2_context(7), 3).one()


def test_lift_ss_poly_frobenius_fixed_and_compatible():
    for p in (5, 7, 11, 13, 37, 53):
        s10 = lift_ss_poly(p, 10)
        for c in s10.coeffs:
            assert c.conj() == c
        red = [c.reduce_precision(1).to_fp().value for c in s10.coeffs]
        from ellwitt.modforms import ss_poly_eisenstein
        assert red == ss_poly_eisenstein(p)
        for M in (1, 5):
            sM = lift_ss_poly(p, M)
            assert [c.reduce_precision(M) for c in s10.coeffs] == \
                list(sM.coeffs)


def _reduce(f: list, g: list, M: int) -> list:
    """f mod (M, g), g monic of degree n, as n ints in [0, M)."""
    f = [c % M for c in f]
    n = len(g) - 1
    for i in range(len(f) - 1, n - 1, -1):
        c = f[i]
        for j in range(n + 1):
            f[i - n + j] = (f[i - n + j] - c * g[j]) % M
    return (f + [0] * n)[:n]


def _x_power(e: int, g: list, M: int) -> list:
    """X^e mod (M, g), by repeated squaring."""
    out, sq = _reduce([1], g, M), _reduce([0, 1], g, M)
    while e:
        if e & 1:
            out = _reduce(_times(out, sq), g, M)
        sq = _reduce(_times(sq, sq), g, M)
        e >>= 1
    return out


def _times(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_lift_is_certified_by_one_power():
    # ss_p is squarefree and divides X^(p^2) - X mod p, so by Hensel the
    # monic divisor of X^(p^2) - X over Z/p^N that reduces to ss_p is
    # unique: X^(p^2) = X mod (p^N, S_p-hat) pins S_p-hat, and it shares
    # no code with the roots it was built from
    primes = [p for p in range(5, 98) if is_prime(p)]
    certified = refused = 0
    for p in primes:
        for N in (1, 2, 8, 64):
            M = p ** N
            shat = lift_ss_poly(p, N).coeffs
            assert all(c.b == 0 for c in shat) and shat[-1].a == 1
            g = [c.a for c in shat]
            certified += _x_power(p * p, g, M) == _reduce([0, 1], g, M)
            if N > 1:
                g[0] = (g[0] + p ** (N - 1)) % M
                refused += _x_power(p * p, g, M) != _reduce([0, 1], g, M)
    assert (certified, refused) == (92, 69)
    assert len(primes) == 23


def test_lift_ss_poly_refuses_roots_that_do_not_descend(monkeypatch):
    # p = 37: j-set {8} and one conjugate pair; moving one root of the
    # pair keeps the trace a scalar but not the product
    locus, wctx, roots = padicwitt._teich_roots(37, 10)
    i = next(i for i, r in enumerate(roots) if r.b)
    moved = list(roots)
    moved[i] = roots[i] + 1
    monkeypatch.setattr(padicwitt, "_teich_roots",
                        lambda p, N: (locus, wctx, moved))
    with pytest.raises(ValidationError,
                       match=r"lift_ss_poly\(37,10\): .*Frobenius-fixed"):
        lift_ss_poly.__wrapped__(37, 10)


def test_lift_ss_poly_refuses_a_wrong_reduction(monkeypatch):
    # p = 23: j-set {0, 1728 = 3, 19}; the lift of 19 swapped for that
    # of 1, which is not supersingular, still descends to Z/p^N
    locus, wctx, roots = padicwitt._teich_roots(23, 10)
    ctx = fq2_context(23)
    one = teichmuller(ctx.one(), 10)
    swapped = [one if r.reduce_precision(1) == ctx.from_int(19) else r
               for r in roots]
    assert swapped != list(roots) and all(not r.b for r in swapped)
    monkeypatch.setattr(padicwitt, "_teich_roots",
                        lambda p, N: (locus, wctx, swapped))
    with pytest.raises(ValidationError, match=r"lift_ss_poly\(23,10\): "
                       r"reduction mod p differs"):
        lift_ss_poly.__wrapped__(23, 10)


def test_split_reuses_the_roots_the_lift_lifted(monkeypatch):
    calls = []
    real = padicwitt.teichmuller
    monkeypatch.setattr(padicwitt, "teichmuller",
                        lambda x, N: calls.append(x) or real(x, N))
    for cached in (padicwitt._teich_roots, lift_ss_poly):
        cached.cache_clear()
    lift_ss_poly(47, 32)
    splitting_idempotents(47, 32)
    assert len(calls) == sigma(47) == 5


def test_one_descent_serves_the_locus_and_the_lift(monkeypatch):
    sslocus.cross_validate(23)
    padicwitt._teich_roots(23, 5)
    real = sslocus.frobenius_descent

    def shifted(roots, ring, failure):
        c = real(roots, ring, failure)
        return [(c[0] + 1) % ring.modulus] + c[1:]

    monkeypatch.setattr(sslocus, "frobenius_descent", shifted)
    with pytest.raises(ValidationError, match=r"p=23: closed form vs "
                       r"deuring disagree"):
        sslocus.cross_validate.__wrapped__(23)
    with pytest.raises(ValidationError, match=r"lift_ss_poly\(23,5\): "
                       r"reduction mod p differs"):
        lift_ss_poly.__wrapped__(23, 5)


def test_splitting_idempotents_spot():
    es = splitting_idempotents(11, 10)
    w = lift_context(fq2_context(11), 10)
    # Lagrange idempotents for roots {0, 1} of X^2 - X: 1 - X and X
    assert sorted(tuple((c.a, c.b) for c in e.coeffs) for e in es) == \
        sorted([((0, 0), (1, 0)), ((1, 0), (w.modulus - 1, 0))])
    assert len(splitting_idempotents(13, 10)) == 1
    assert len(splitting_idempotents(23, 10)) == 3


def lagrange_idempotents(p: int, N: int) -> tuple:
    """The replaced construction, kept verbatim as the oracle: each e_i
    as prod_{k != i} (X - r_k) / (r_i - r_k), reduced mod S_p-hat."""
    shat = lift_ss_poly(p, N)
    _, wctx, roots = padicwitt._teich_roots(p, N)
    idems = []
    for i, ri in enumerate(roots):
        num = Poly(wctx, [wctx.one()])
        den = wctx.one()
        for k, rk in enumerate(roots):
            if k == i:
                continue
            num = num * Poly(wctx, [-rk, wctx.one()])
            d = ri - rk
            if not wctx.is_unit(d):
                raise ValidationError(
                    f"splitting_idempotents({p},{N}): root difference "
                    f"{d!r} is not a unit")
            den = den * d
        idems.append((num * den.inverse()).divrem(shat)[1])
    return tuple(idems)


@pytest.mark.parametrize("p", [p for p in range(5, 48) if is_prime(p)])
def test_splitting_idempotents_match_lagrange(p):
    for N in (1, 2, 5, 10, 32):
        assert splitting_idempotents(p, N) == lagrange_idempotents(p, N)


def test_splitting_idempotents_invariant_failures(monkeypatch):
    locus, wctx, (r0, r1) = padicwitt._teich_roots(11, 10)
    monkeypatch.setattr(padicwitt, "_teich_roots",
                        lambda p, N: (locus, wctx, [r0, r1 + 1]))
    with pytest.raises(ValidationError, match="does not divide"):
        splitting_idempotents(11, 10)
    # a root of S_p-hat that is not simple mod p
    twins = [r0, r0 + 11]
    monkeypatch.setattr(padicwitt, "_teich_roots",
                        lambda p, N: (locus, wctx, twins))
    monkeypatch.setattr(padicwitt, "lift_ss_poly", lambda p, N: (
        Poly(wctx, [-twins[0], 1]) * Poly(wctx, [-twins[1], 1])))
    with pytest.raises(ValidationError, match="is not a unit"):
        splitting_idempotents(11, 10)


def test_splitting_bounds():
    with pytest.raises(ValueError):
        splitting_idempotents(53, 10)
    with pytest.raises(ValueError):
        splitting_idempotents(11, 64)
    with pytest.raises(ValueError):
        lift_ss_poly(11, 100)
