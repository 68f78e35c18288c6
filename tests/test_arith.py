"""Field layer: quadratic residues, square and cube roots, F_{p^2}
contexts.

rth_root is the one root routine.  It replaced a Tonelli-Shanks on ints
for square roots in F_p and one for cube roots in F_{p^2}, kept below as
oracles (``oracle_sqrt_mod``, ``oracle_cbrt_fq2``): it must return the
oracle's cube root, and its square root up to sign, at every input of a
field whose Sylow subgroup makes the loop run, and refuse what they
refuse.  It also replaced the square root in F_{p^2} through the norm
(``oracle_sqrt_fq2``), which it must match up to sign.  No caller needs
a canonical root, and rth_root returns none.

Every quadratic-residue test now goes through is_quadratic_residue.  The
code that ran its own Euler criterion, or ran it again before each root,
is kept as oracles too: the square roots above, Quad's irreducibility
check and fq2_context's scan for the least non-residue."""

import random

import pytest

from ellwitt.arith import (
    Quad,
    Zmod,
    fq2_context,
    has_sqrt3,
    is_prime,
    is_quadratic_residue,
    rth_root,
)
from ellwitt.padicwitt import lift_context
from oracles import elements


def primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = b"\x00" * len(sieve[i * i::i])
    return [i for i in range(2, n + 1) if sieve[i]]


def test_is_prime_small():
    ps = primes_up_to(200)
    for n in range(200):
        assert is_prime(n) == (n in ps)


def test_field_rejects_nonprime_and_small():
    for bad in (0, 1, 2, 3, 4, 9, 15, 91):
        with pytest.raises(ValueError):
            Zmod(bad)


def test_mixed_moduli_is_hard_error():
    a = Zmod(5).elem(2)
    b = Zmod(7).elem(2)
    with pytest.raises(ValueError, match="mixed moduli"):
        a * b


def test_set_membership_agrees_with_list_membership():
    # Equal elements hash equal: a scalar of F_{p^2} or of
    # W(F_{p^2})/p^N and the canonical int it equals land in the same
    # set bucket.  A non-canonical int (8 == F_5(3)) compares equal but
    # is outside this rule; an element of F_p is not hashable at all.
    for p in (5, 7, 13):
        K = fq2_context(p)
        pool = (list(range(p))
                + [K.elem(a, b) for a in range(p) for b in range(2)])
        for x in pool:
            for y in pool:
                assert (x in {y}) == (x in [y]), (x, y)
                assert (x in {y: 0}) == (x == y)
    W = lift_context(fq2_context(5), 3)
    for v in range(125):
        assert v in {W.elem(v)} and W.elem(v) in {v}
    assert 8 in [Zmod(5).elem(3)] and 8 in [fq2_context(5).elem(3)]
    with pytest.raises(TypeError, match="unhashable"):
        {Zmod(5).elem(3)}


def test_fermat_and_inverse():
    rng = random.Random(1)
    for p in (5, 13, 101):
        F = Zmod(p)
        for _ in range(50):
            a = F.elem(rng.randrange(p))
            assert a ** p == a
            if a:
                assert a * a.inverse() == 1


def test_quadratic_residue_examples():
    assert is_quadratic_residue(Zmod(7).elem(1))
    assert is_quadratic_residue(Zmod(11).elem(3))      # 5^2 = 25 = 3
    assert not is_quadratic_residue(Zmod(5).elem(3))   # squares: {1,4}
    with pytest.raises(ValueError):
        is_quadratic_residue(Zmod(7).elem(0))


def test_residue_xor_nonresidue_shift():
    rng = random.Random(2)
    for p in (11, 13, 97):
        F = Zmod(p)
        n = next(F.elem(v) for v in range(2, p)
                 if not is_quadratic_residue(F.elem(v)))
        for _ in range(40):
            a = F.elem(rng.randrange(1, p))
            assert is_quadratic_residue(a) != is_quadratic_residue(n * a)


def test_sqrt_mod_examples():
    # square roots in F_p by rth_root at r = 2, either sign
    assert rth_root(Zmod(7).elem(4), 2).value in (2, 5)
    assert rth_root(Zmod(11).elem(3), 2).value in (5, 6)
    assert rth_root(Zmod(7).elem(2), 2).value in (3, 4)
    assert rth_root(Zmod(13).elem(0), 2).value == 0
    with pytest.raises(ValueError, match="not an r-th power, r = 2"):
        rth_root(Zmod(5).elem(3), 2)


def test_sqrt_mod_randomized_all_residues():
    for p in (13, 17, 101, 193):  # includes p = 1 mod 4 (Tonelli branch)
        F = Zmod(p)
        for v in range(1, p):
            a = F.elem(v)
            if is_quadratic_residue(a):
                r = rth_root(a, 2)
                assert r.ring == F and r * r == a
            else:
                with pytest.raises(ValueError, match="r = 2"):
                    rth_root(a, 2)


def test_has_sqrt3_examples():
    assert has_sqrt3(11) is True
    assert has_sqrt3(13) is True
    assert has_sqrt3(5) is False
    with pytest.raises(ValueError):
        has_sqrt3(3)


def test_has_sqrt3_matches_mod12_rule_small():
    for p in primes_up_to(500):
        if p > 3:
            assert has_sqrt3(p) == (p % 12 in (1, 11))


def test_fq2_context_examples():
    assert fq2_context(7).g0 == 1              # x^2 + 1
    assert fq2_context(13).g0 == (-2) % 13     # x^2 - 2
    assert fq2_context(5).g0 == (-2) % 5       # x^2 - 2


def test_fq2_context_rejects_reducible():
    with pytest.raises(ValueError):
        Quad(7, 7 - 1)  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ValueError):
        Quad(13, 0)  # x^2
    with pytest.raises(ValueError):
        Quad(13, 1)  # x^2 + 1 = (x-5)(x+5)


def test_frobenius_examples():
    c7 = fq2_context(7)
    xbar = c7.elem(0, 1)
    assert xbar.conj() == -xbar    # i^7 = -i
    a = c7.coerce(4)
    assert a.conj() == a           # prime field fixed
    z = c7.elem(3, 5)
    assert z.conj().conj() == z    # involution
    assert z.conj() == z ** 7      # it really is x -> x^p


def test_frobenius_is_ring_hom_and_fixes_exactly_fp():
    rng = random.Random(3)
    for p in (5, 7, 13, 29):
        ctx = fq2_context(p)
        for _ in range(30):
            x = ctx.elem(rng.randrange(p), rng.randrange(p))
            y = ctx.elem(rng.randrange(p), rng.randrange(p))
            assert (x + y).conj() == x.conj() + y.conj()
            assert (x * y).conj() == x.conj() * y.conj()
        fixed = {z for z in elements(ctx) if z.conj() == z}
        assert fixed == {ctx.coerce(v) for v in range(p)}


def test_fq2_multiplicative_group_order():
    rng = random.Random(4)
    for p in (5, 7, 13):
        ctx = fq2_context(p)
        one = ctx.one()
        for _ in range(25):
            z = ctx.elem(rng.randrange(p), rng.randrange(p))
            if z:
                assert z ** (p * p - 1) == one
            assert z ** (p * p) == z


def test_fq2_inverse_and_norm():
    for p in (5, 7, 13):
        ctx = fq2_context(p)
        for z in elements(ctx):
            if z:
                assert z * z.inverse() == ctx.one()
                assert z * z.conj() == z.norm()


def fq2_models(p):
    """x^2 + 1 (g0 = 1, a field model when p = 3 mod 4) and x^2 - n for
    the smallest non-residue n."""
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    models = [Quad(p, -n)]
    if p % 4 == 3:
        models.append(Quad(p, 1))
    return models


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_sqrt_fq2_every_square_round_trips(p):
    # square roots in F_{p^2} by rth_root at r = 2, on both models
    for ctx in fq2_models(p):
        squares = {z * z for z in elements(ctx)}
        assert len(squares) == (p * p + 1) // 2
        for w in squares:
            r = rth_root(w, 2)
            assert r.ring == ctx and r * r == w
        assert rth_root(ctx.zero(), 2) == ctx.zero()
        for w in set(elements(ctx)) - squares:
            with pytest.raises(ValueError, match="not an r-th power, r = 2"):
                rth_root(w, 2)


def test_sqrt_fq2_rejects_other_rings():
    for ring in (Quad(7, 1, 2), Quad(7, 1, 5)):  # W(F_49)/7^2 and /7^5
        with pytest.raises(ValueError, match="wants F_p or F_p\\^2"):
            rth_root(ring.from_int(4), 2)


def check_cube_roots(ctx):
    """Every cube of ctx has a cube root that cubes back, and every
    non-cube raises."""
    p = ctx.p
    cubes = {z * z * z for z in elements(ctx)}
    assert len(cubes) == (p * p - 1) // 3 + 1
    for w in cubes:
        r = rth_root(w, 3)
        assert r.ring == ctx and r * r * r == w
    for w in set(elements(ctx)) - cubes:
        with pytest.raises(ValueError, match="not an r-th power, r = 3"):
            rth_root(w, 3)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_cbrt_fq2_every_cube_round_trips(p):
    for ctx in fq2_models(p):
        check_cube_roots(ctx)


@pytest.mark.parametrize("p", [17, 19, 37, 53, 5, 7, 11, 23])
def test_cbrt_fq2_both_tonelli_branches(p):
    # 9 | p^2 - 1 for 17, 19, 37, 53: the 3-Sylow subgroup has order at
    # least 9 and the Tonelli loop runs; otherwise z^u is the root
    assert ((p * p - 1) % 9 == 0) == (p in (17, 19, 37, 53))
    check_cube_roots(fq2_context(p))


def test_cbrt_fq2_rejects_other_rings():
    for ring in (Quad(7, 1, 2), Quad(7, 1, 5)):  # W(F_49)/7^2 and /7^5
        with pytest.raises(ValueError, match="wants F_p or F_p\\^2"):
            rth_root(ring.one(), 3)


# --- rth_root against the two routines it replaced ---


def oracle_sqrt_mod(a) -> int:
    """The replaced square root: Tonelli-Shanks on ints, with the
    p = 3 mod 4 shortcut, canonical root min(r, p - r), as an int."""
    p = a.ring.p
    if a.value == 0:
        return 0
    if not is_quadratic_residue(a):
        raise ValueError(f"{a.value} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        r = pow(a.value, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c = s, pow(z, q, p)
        t, r = pow(a.value, q, p), pow(a.value, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    return min(r, p - r)


def oracle_cube_sylow(ring):
    """(e, t, c): p^2 - 1 = 3^e t and c = g^t for the first non-cube g
    with b != 0 (b = 1, 2, ..., a = 0..p-1)."""
    p, order = ring.p, ring.size - 1
    e, t = 0, order
    while t % 3 == 0:
        t //= 3
        e += 1
    n = p
    while ring.elem(n % p, n // p) ** (order // 3) == 1:
        n += 1
    return e, t, ring.elem(n % p, n // p) ** t


def oracle_cbrt_fq2(z):
    """The replaced cube root: Tonelli-Shanks for cubes in F_{p^2}."""
    ring = z.ring
    if not z:
        return z
    e, t, c = oracle_cube_sylow(ring)
    r = z ** pow(3, -1, t)
    b = r * r * r * z.inverse()
    zeta = c ** (3 ** (e - 1))
    while b != 1:
        i, root = 1, b
        while root ** 3 != 1:
            root = root ** 3
            i += 1
        if i == e:
            raise ValueError(f"{z!r} is not a cube in {ring}")
        ci = c ** (3 ** (e - i - 1))
        if root == zeta:
            ci = ci * ci
        r, b = r * ci, b * ci ** 3
    return r


def two_adic_valuation(n):
    return (n & -n).bit_length() - 1


@pytest.mark.parametrize("p", [7, 13, 41, 17, 97, 193, 641, 257])
def test_sqrt_mod_is_the_replaced_tonelli_shanks(p):
    # p - 1 has 2-adic valuation 1, 2, ..., 8 in the order listed, so
    # the 2-Sylow loop runs up to seven rounds; 17 and 257 have t = 1
    assert two_adic_valuation(p - 1) == \
        [7, 13, 41, 17, 97, 193, 641, 257].index(p) + 1
    F = Zmod(p)
    for v in range(p):
        a = F.elem(v)
        try:
            want = oracle_sqrt_mod(a)
        except ValueError:
            with pytest.raises(ValueError, match="not an r-th power, r = 2"):
                rth_root(a, 2)
            continue
        assert rth_root(a, 2).value in (want, -want % p)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 37, 53])
def test_cube_root_is_the_replaced_tonelli_shanks(p):
    # from 17 on 9 divides p^2 - 1, and at 53 27 does: the 3-Sylow loop
    # runs, once or twice, and must pick the oracle's power of c_i
    e, n = 0, p * p - 1
    while n % 3 == 0:
        n //= 3
        e += 1
    assert (e >= 2) == (p >= 17) and (e == 3) == (p == 53)
    cubes = 0
    for z in elements(fq2_context(p)):
        try:
            want = oracle_cbrt_fq2(z)
        except ValueError:
            with pytest.raises(ValueError, match="not an r-th power, r = 3"):
                rth_root(z, 3)
            continue
        cubes += 1
        assert rth_root(z, 3) == want
    assert cubes == (p * p - 1) // 3 + 1


# --- one Euler criterion, against the code that repeated it ---


def oracle_quad_is_field(p, g0):
    """The replaced irreducibility check of Quad: its own Euler
    criterion on -g0."""
    return pow(-g0 % p, (p - 1) // 2, p) == p - 1


def oracle_fq2_g0(p):
    """The replaced model scan of fq2_context: x^2 + 1 when p = 3 mod 4,
    else x^2 - n for the least n with n^((p-1)/2) = -1."""
    if p % 4 == 3:
        return 1
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    return -n % p


def oracle_sqrt_fq2(z):
    """The replaced square root in F_{p^2}: an Euler test on the norm or
    the scalar, and on the half-trace, each repeated by oracle_sqrt_mod."""
    ring = z.ring
    p, g0, field = ring.p, ring.g0, Zmod(ring.p)
    A, B = z.a, z.b
    if B == 0:
        if A == 0 or is_quadratic_residue(field.elem(A)):
            return ring.from_int(oracle_sqrt_mod(field.elem(A)))
        return ring.elem(0, oracle_sqrt_mod(field.elem(-A * pow(g0, -1, p))))
    norm = field.elem(A * A + g0 * B * B)
    if not is_quadratic_residue(norm):
        raise ValueError(f"{z!r} is not a square in {ring}")
    n = oracle_sqrt_mod(norm)
    inv2 = (p + 1) // 2
    t = field.elem((A + n) * inv2)
    if not is_quadratic_residue(t):
        t = field.elem((A - n) * inv2)
    a = oracle_sqrt_mod(t)
    return ring.elem(a, B * pow(2 * a, -1, p))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 37, 41, 97])
def test_sqrt_fq2_is_the_replaced_square_root(p):
    for ctx in fq2_models(p):
        for z in elements(ctx):
            try:
                want = oracle_sqrt_fq2(z)
            except ValueError:
                with pytest.raises(ValueError, match="r = 2"):
                    rth_root(z, 2)
                continue
            assert rth_root(z, 2) in (want, -want)


def test_fq2_context_is_the_replaced_scan():
    for p in primes_up_to(1000)[2:]:
        assert fq2_context(p).g0 == oracle_fq2_g0(p)


def test_quad_is_a_field_exactly_where_the_replaced_check_says():
    for p in primes_up_to(50)[2:]:
        for g0 in range(p):
            # N = 2 reads -g0 mod p^2, as lift_context's moduli do
            for N in (1, 2):
                if oracle_quad_is_field(p, g0):
                    assert Quad(p, g0 + p, N).g0 == (g0 + p) % p ** N
                else:
                    with pytest.raises(ValueError, match="is reducible"):
                        Quad(p, g0 + p, N)
