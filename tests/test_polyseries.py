"""Polynomial and series engine: division, gcd, root scans, inversion,
composition, reversion, and honest precision tracking."""

import random
from fractions import Fraction

import pytest

from ellwitt.arith import Zmod, fq2_context
from ellwitt.errors import PrecisionError, ValidationError
from ellwitt.padicwitt import lift_context
from ellwitt.polyseries import (
    Poly,
    QSeries,
    _compose_bk,
    _mul_lists,
    count_roots_in_fp,
    is_squarefree,
    roots_in_field,
)
from oracles import QQ, integrate, reduce_mod

#: F_7 and F_11, as the scalars of their F_{p^2} models
F7 = fq2_context(7)
F11 = fq2_context(11)


# --- polynomials ---


def test_divrem_examples():
    q, r = Poly(QQ, [-1, 0, 1]).divrem(Poly(QQ, [-1, 1]))
    assert q == Poly(QQ, [1, 1]) and r.is_zero()

    # Hasse polynomial at p=7 divided by (x+1)
    q, r = Poly(F7, [1, 2, 2, 1]).divrem(Poly(F7, [1, 1]))
    assert q == Poly(F7, [1, 1, 1]) and r.is_zero()

    f = Poly(F11, [3, 1, 4, 1, 5])
    q, r = f.divrem(f)
    assert q == Poly(F11, [1]) and r.is_zero()


def test_divrem_roundtrip_random():
    rng = random.Random(10)
    for ring in (F7, QQ):
        for _ in range(40):
            f = Poly(ring, [rng.randrange(-6, 7) for _ in range(rng.randrange(0, 9))])
            g = Poly(ring, [rng.randrange(-6, 7) for _ in range(rng.randrange(1, 6))])
            if g.is_zero():
                continue
            q, r = f.divrem(g)
            assert q * g + r == f
            assert r.degree < g.degree


def test_divrem_nonunit_leading_coefficient():
    R = lift_context(fq2_context(5), 3)
    f = Poly(R, [1, 0, 1])
    # leading coefficients divisible by p: a scalar, and one off F_p
    for lead in (5, R.elem(5, 10)):
        with pytest.raises(ValueError, match="is not a unit"):
            f.divrem(Poly(R, [1, lead]))
    q, r = f.divrem(Poly(R, [1, R.elem(5, 1)]))
    assert q * Poly(R, [1, R.elem(5, 1)]) + r == f and r.degree < 1


def test_gcd_examples():
    with pytest.raises(ValueError):
        Poly(QQ, [-1, 0, 1]).gcd(Poly(QQ, [-1, 1]))
    f = Poly(F11, [0, -1, 1])  # x(x-1)
    assert f.gcd(f.derivative()) == Poly(F11, [1])
    assert Poly(F7, [0, 0, 1]).gcd(Poly(F7, [0, 1])) == Poly(F7, [0, 1])
    assert Poly(F7, []).gcd(Poly(F7, [])).is_zero()


def test_roots_in_field_examples():
    # the roots in F_p are the roots in F_{p^2} that are scalars
    roots = roots_in_field([1, 4, 1], fq2_context(5))
    assert len(roots) == 2 and not any(r.in_prime_field for r in roots)

    roots = roots_in_field([1, 2, 2, 1], F7)
    assert all(r.in_prime_field for r in roots)
    assert {r.a for r in roots} == {2, 4, 6}

    roots = roots_in_field([0, -1, 1], F11)
    assert {r.a for r in roots} == {0, 1}


def test_fp_polynomials_are_int_lists_read_mod_p():
    # negative, unreduced and trailing multiples of p are read mod p
    assert roots_in_field([-6, 1, 0, 11], F11) == {F11.elem(6)}
    assert count_roots_in_fp([-6, 12, 22], 11) == 1
    for zero in ([], [0], [11, -22]):
        with pytest.raises(ValueError, match="zero polynomial"):
            roots_in_field(zero, F11)
        with pytest.raises(ValueError, match="nonzero f over F_p"):
            count_roots_in_fp(zero, 11)
    for ring in (lift_context(fq2_context(11), 2), Zmod(11)):
        with pytest.raises(ValueError, match="roots_in_field wants F_p\\^2"):
            roots_in_field([-1, 1], ring)


def test_is_squarefree_examples():
    assert is_squarefree([0, -1, 1], 11)           # x(x - 1)
    assert is_squarefree([5], 11)                  # a unit
    assert not is_squarefree([1, 2, 1], 11)        # (x + 1)^2
    assert not is_squarefree([0, 0, 1, 11], 11)    # x^2, read mod 11
    assert not is_squarefree([-1] + [0] * 6 + [1], 7)  # x^7 - 1, f' = 0
    assert not is_squarefree([], 7) and not is_squarefree([7], 7)


def with_roots(ctx, pts) -> list:
    """The monic polynomial over F_p with the given roots in F_{p^2}, a
    set closed under conjugation, as an ascending int list."""
    f = Poly(ctx, [ctx.one()])
    for r in pts:
        f = f * Poly(ctx, [-r, ctx.one()])
    return [c.to_fp().value for c in f.coeffs]


def test_roots_in_field_known_conjugate_and_rational_roots():
    # a conjugate pair and a rational root over F_{53^2}, and a conjugate
    # pair alone over F_{13^2}
    p = 53
    ctx = fq2_context(p)
    pts = [ctx.elem(3, 1), ctx.elem(3, p - 1), ctx.elem(17, 0)]
    assert roots_in_field(with_roots(ctx, pts), ctx) == set(pts)
    q = 13
    ctxq = fq2_context(q)
    pts = [ctxq.elem(3, 1), ctxq.elem(3, q - 1)]
    assert roots_in_field(with_roots(ctxq, pts), ctxq) == set(pts)


def test_roots_in_field_beyond_a_million_elements():
    # F_{1009^2} has 1018081 elements; the roots of a product of linear
    # factors are found without visiting them
    ctx = fq2_context(1009)
    pairs = {ctx.elem(5, 7), ctx.elem(123, 456), ctx.elem(1000, 1)}
    pts = {ctx.elem(0, 0), ctx.elem(1008, 0)} | pairs \
        | {z.conj() for z in pairs}
    assert roots_in_field(with_roots(ctx, pts), ctx) == pts
    assert roots_in_field(with_roots(ctx, [*pts, *pts]), ctx) == pts
    assert roots_in_field([1, 1], ctx) == {ctx.elem(1008)}


# --- series ---


def qs(coeffs, offset=0, ring=QQ):
    return QSeries(ring, offset, coeffs)


def test_series_inverse_examples():
    s = qs([1, -1] + [0] * 8)          # 1 - q
    inv = s.inverse()
    assert inv.coeff_list(0, 10) == [Fraction(1)] * 10

    s = qs([1, 1] + [0] * 6, offset=1)  # q(1 + q)
    inv = s.inverse()
    assert inv.offset == -1
    assert inv.coeff_list(-1, 5) == [Fraction(x) for x in (1, -1, 1, -1, 1, -1)]

    one = qs([1, 0, 0, 0])
    assert one.inverse().coeff_list(0, 4) == [1, 0, 0, 0]

    with pytest.raises(ValueError):
        qs([], offset=3).inverse()  # zero to precision


def test_series_mul_precision_rule():
    # (q + O(q^4)) * (1 + O(q^2)) is only known through q^2
    a = qs([1, 1, 1], offset=1)   # abs_prec 4
    b = qs([1, 5], offset=0)      # abs_prec 2
    c = a * b
    assert c.abs_prec == 3        # min(1+2, 0+4)
    assert c.coeff_list(1, 3) == [1, 6]
    with pytest.raises(PrecisionError):
        c.coeff(3)


W25 = lift_context(fq2_context(5), 2)

#: Each ring of the product tests, with a random element of it.
_RINGS = {
    "F_7": (F7, lambda rng: F7.elem(rng.randrange(7))),
    "QQ": (QQ, lambda rng: Fraction(rng.randrange(-9, 10),
                                    rng.randrange(1, 5))),
    "W25": (W25, lambda rng: W25.elem(rng.randrange(25), rng.randrange(25))),
}


def _double_loop(ring, a, b):
    out = [ring.zero()] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _operands(name):
    """Coefficient-list pairs: empty, all-zero and random operands."""
    (ring, elem), rng = _RINGS[name], random.Random(8)
    zero = ring.zero()

    def rand(n):  # zero one time in three
        return [zero if rng.randrange(3) == 0 else elem(rng)
                for _ in range(n)]
    pairs = [([], []), ([], rand(3)), (rand(4), []), ([zero] * 3, rand(5)),
             (rand(2), [zero] * 4)]
    pairs += [(rand(rng.randrange(1, 9)), rand(rng.randrange(1, 9)))
              for _ in range(30)]
    return ring, pairs


@pytest.mark.parametrize("name", sorted(_RINGS))
def test_poly_product_matches_a_double_loop(name):
    ring, pairs = _operands(name)
    for a, b in pairs:
        assert Poly(ring, a) * Poly(ring, b) == \
            Poly(ring, _double_loop(ring, a, b))


@pytest.mark.parametrize("name", sorted(_RINGS))
def test_series_product_matches_a_double_loop(name):
    # nonzero offsets and unequal precisions: the product is known to
    # min(x.offset + y.abs_prec, y.offset + x.abs_prec)
    ring, pairs = _operands(name)
    rng = random.Random(9)
    for a, b in pairs:
        x = QSeries(ring, rng.randrange(-3, 4), a)
        y = QSeries(ring, rng.randrange(-3, 4), b)
        lo = x.offset + y.offset
        P = min(x.offset + y.abs_prec, y.offset + x.abs_prec)
        for c in (x * y, y * x):
            assert c.abs_prec == P
            assert c.coeff_list(lo, P) == \
                _double_loop(ring, x.coeffs, y.coeffs)[:P - lo]


def test_series_compose_examples():
    f = qs([0, 0, 1, 0, 0, 0])             # t^2, prec 6
    g = qs([1, 0, 1, 0, 0], offset=1)      # t + t^3
    h = f.compose(g)
    assert h.coeff_list(0, 6) == [0, 0, 1, 0, 2, 0]

    f = qs([3, 1, 4, 1, 5])
    t = qs([1, 0, 0, 0, 0], offset=1)
    assert f.compose(t).coeff_list(0, 5) == [3, 1, 4, 1, 5]

    geom = qs([1] * 6)                      # 1/(1-t)
    g = qs([1, 1, 0, 0, 0], offset=1)       # t + t^2
    h = geom.compose(g)
    assert h.coeff_list(0, 5) == [1, 1, 2, 3, 5]   # Fibonacci

    with pytest.raises(ValueError):
        f.compose(qs([1, 1, 1]))            # constant term


def _compose_horner(ring, fl, gl, P):
    zero = ring.zero()
    acc = [zero] * P
    for c in reversed(fl):
        acc = _mul_lists(ring, acc, gl, P)
        acc[0] = acc[0] + c
    return acc


@pytest.mark.parametrize("ring", [QQ, fq2_context(13)], ids=["QQ", "F13"])
def test_compose_blocks_match_horner_at_every_length(ring):
    # Brent-Kung composition against the Horner composition it replaced,
    # at every length of f from 1 to 64 (so every block size and every
    # short last block), for g of valuation 1 and 2 with up to three terms
    rng = random.Random(14)
    for n in range(1, 65):
        for v in (1, 2):
            P = n + v
            fl = [ring.coerce(rng.randrange(-3, 4)) for _ in range(n)]
            gl = [ring.zero()] * P
            for k in [v] + [rng.randrange(v, P) for _ in range(2)]:
                gl[k] = ring.coerce(rng.choice((-1, 1)))
            assert _compose_bk(ring, fl, gl, P) == \
                _compose_horner(ring, fl, gl, P), (n, v)


def test_series_revert_examples():
    t = qs([1, 0, 0, 0, 0], offset=1)
    assert t.revert().coeff_list(1, 5) == [1, 0, 0, 0]

    f = qs([1, 1, 0, 0], offset=1)          # t + t^2, abs_prec 5
    g = f.revert()
    assert g.coeff_list(1, 5) == [1, -1, 2, -5]   # signed Catalan


def lagrange_revert(f: QSeries, P: int) -> list:
    """Independent oracle: g_n = [t^(n-1)] (t/f)^n / n (exact rationals)."""
    u = QSeries(QQ, 0, f.coeff_list(1, P))   # f/t
    uinv = u.inverse()                        # (t/f) shifted to exponent 0
    out = [Fraction(0)] * P
    power = QSeries(QQ, 0, [1] + [0] * (P - 1))
    for n in range(1, P):
        power = power * uinv
        out[n] = power.coeff(n - 1) / n
    return out


def test_revert_against_lagrange_oracle():
    rng = random.Random(11)
    for _ in range(10):
        P = 12
        coeffs = [1] + [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                        for _ in range(P - 2)]
        f = qs(coeffs, offset=1)
        got = f.revert().coeff_list(1, P)
        want = lagrange_revert(f, P)[1:]
        assert got == want


def test_revert_roundtrip_50_random_prec_40():
    rng = random.Random(12)
    F13 = fq2_context(13)
    for i in range(50):
        # rationals blow up at this precision unless coefficients stay
        # small; the finite-field cases keep the full coefficient range
        if i % 5 == 0:
            ring = QQ
            coeffs = [1] + [rng.randrange(-2, 3) for _ in range(38)]
        else:
            ring = F13
            coeffs = [rng.randrange(1, 13)] + \
                [rng.randrange(-20, 21) for _ in range(38)]
        f = QSeries(ring, 1, coeffs)
        g = f.revert()
        assert f.compose(g).coeff_list(1, 40) == \
            [ring.coerce(1)] + [ring.zero()] * 38
        assert g.compose(f).coeff_list(1, 40) == \
            [ring.coerce(1)] + [ring.zero()] * 38
        assert g.revert().coeff_list(1, 40) == f.coeff_list(1, 40)


def test_ring_laws_random_series():
    rng = random.Random(13)
    F7l = fq2_context(7)
    for _ in range(25):
        a = QSeries(F7l, rng.randrange(-2, 2),
                    [rng.randrange(7) for _ in range(8)])
        b = QSeries(F7l, rng.randrange(-2, 2),
                    [rng.randrange(7) for _ in range(8)])
        c = QSeries(F7l, rng.randrange(-2, 2),
                    [rng.randrange(7) for _ in range(8)])
        lhs = (a + b) * c
        rhs = a * c + b * c
        P = min(lhs.abs_prec, rhs.abs_prec)
        lo = min(lhs.offset, rhs.offset, P)
        assert lhs.coeff_list(lo, P) == rhs.coeff_list(lo, P)
        assert (a * b).coeff_list(*_common(a * b, b * a)) == \
            (b * a).coeff_list(*_common(a * b, b * a))


def _common(x, y):
    P = min(x.abs_prec, y.abs_prec)
    return min(x.offset, y.offset, P), P


def test_precision_honesty_perturbation():
    # Perturbing inputs beyond their advertised precision never changes
    # any output coefficient: whatever the ops report as known really is.
    rng = random.Random(14)
    for _ in range(15):
        n = 8
        base_c = [rng.randrange(-5, 6) for _ in range(n)]
        arg_c = [1] + [rng.randrange(-5, 6) for _ in range(n - 2)]
        base = qs(base_c)
        basep = qs(base_c + [rng.randrange(1, 9)]).truncate(n)
        arg = qs(arg_c, offset=1)
        argp = qs(arg_c + [rng.randrange(1, 9)], offset=1).truncate(n)
        pairs = [
            (base * arg, basep * argp),
            (base + arg.truncate(base.abs_prec),
             basep + argp.truncate(basep.abs_prec)),
            (base.compose(arg), basep.compose(argp)),
            (arg.revert(), argp.revert()),
        ]
        if base_c[0] != 0:
            pairs.append((base.inverse(), basep.inverse()))
        for x, y in pairs:
            assert x.abs_prec == y.abs_prec
            assert x.coeff_list(min(x.offset, y.offset), x.abs_prec) == \
                y.coeff_list(min(x.offset, y.offset), y.abs_prec)


def test_derivative_integrate_roundtrip():
    s = qs([5, 1, 7, 2], offset=1)
    assert integrate(s.derivative()).coeff_list(1, 5) == s.coeff_list(1, 5)
    laurent = qs([3, 1], offset=-1)
    with pytest.raises(ValueError):
        integrate(laurent)  # would divide by zero exponent


def test_reduce_mod_p_in_denominator_is_validation_error():
    s = QSeries(QQ, 0, [Fraction(1, 2), Fraction(3, 4)])
    assert reduce_mod(s, fq2_context(5)).coeff_list(0, 2) == [3, 2]
    with pytest.raises(ValidationError, match="divisible by 7"):
        reduce_mod(QSeries(QQ, 0, [1, Fraction(1, 14)]), F7)
