"""The [p]-series kernels (``_mul``, ``_div``, ``_w_coeffs`` and the
class-pair chain of ``formalgroup``) against the dense kernels they
replaced.

The dense kernels below are the replaced code, kept verbatim as the
oracle, with the replaced ``_lin`` they use.  The new ``_mul`` and
``_div`` are dense as well, with a square path (b is a) at half the
products; the chain hands them the coefficients of one class r mod g of
each series, so on every input, strided ones included, both sets must
give the same coefficients, the same quotient and the same remainder
error (the same t^k).  At curve level the chord-tangent chain of the
short curve (a4, a6) runs on the class pairs, and the replaced chain of
the general Weierstrass curve [a1, a2, a3, a4, a6] runs on the dense
kernels, fed (0, 0, 0, a4, a6).

    python tests/test_pseries_kernel.py

runs the full sweep, every nonsingular short curve at p = 5, 7, 11 and
13, which the test suite samples.
"""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellwitt.arith import fq2_context
from ellwitt.errors import ValidationError
from ellwitt import formalgroup
from ellwitt.formalgroup import _mult_by_p_integral, _w_coeffs
from ellwitt.polyseries import _div, _mul
from oracles import QQ

STRIDES = (1, 2, 3, 4, 6)


# -- the dense kernels, verbatim --------------------------------------------

def _lin(n: int, *terms) -> list:
    """sum(c * s) over the (c, s) terms, to n coefficients."""
    out = [0] * n
    for c, s in terms:
        if c:
            for i in range(n):
                out[i] += c * s[i]
    return out


def _mul_dense(a: list, b: list, n: int) -> list:
    """The first n coefficients of a*b."""
    return [sum(map(mul, a[:k + 1], b[k::-1])) for k in range(n)]


def _div_dense(a: list, b: list) -> list:
    """The quotient a/b in Z[[t]], b[0] != 0.  Every coefficient must
    divide exactly by b[0]: a remainder means the quotient is not
    integral, which the formal group law rules out."""
    b0 = b[0]
    q = []
    for k in range(min(len(a), len(b))):
        c, r = divmod(a[k] - sum(map(mul, q, b[k:0:-1])), b0)
        if r:
            raise ValidationError(
                f"series division by {b0} + ... leaves a remainder at "
                f"t^{k}: the quotient is not integral (precision or "
                f"algebra bug)")
        q.append(c)
    return q


def _w_coeffs_dense(coeffs, P: int, zero, one) -> list:
    """The first P coefficients of w(t) = t^3 + ..., the solution of
    w = t^3 + a1 t w + a2 t^2 w + a3 w^2 + a4 t w^2 + a6 w^3 by its
    fixed-point recurrence.  Works over any coefficient ring whose
    zero and one are given, plain ints included."""
    a1, a2, a3, a4, a6 = coeffs
    w = [zero] * P
    w2 = [zero] * P
    w3 = [zero] * P
    if P > 3:
        w[3] = one
    for n in range(4, P):
        if n >= 6:
            s = None
            for i in range(3, n - 2):
                if w[i] and w[n - i]:
                    term = w[i] * w[n - i]
                    s = term if s is None else s + term
            if s is not None:
                w2[n] = s
        if n >= 9:
            s = None
            for i in range(3, n - 5):
                if w[i] and w2[n - i]:
                    term = w[i] * w2[n - i]
                    s = term if s is None else s + term
            if s is not None:
                w3[n] = s
        acc = zero
        if a1 and w[n - 1]:
            acc = acc + a1 * w[n - 1]
        if a2 and w[n - 2]:
            acc = acc + a2 * w[n - 2]
        if a3 and w2[n]:
            acc = acc + a3 * w2[n]
        if a4 and w2[n - 1]:
            acc = acc + a4 * w2[n - 1]
        if a6 and w3[n]:
            acc = acc + a6 * w3[n]
        w[n] = acc
    return w


# -- the general Weierstrass chain on the dense kernels, verbatim ---------

def _third_point_dense(a, z1, w1, z2, lam):
    """P1 + P2 for points P1 = (z1, w1), P2 = (z2, .) on the line
    w = lam*z + nu: the line meets the curve again at P3, and
    P1 + P2 = -P3.  All series carry len(lam) coefficients."""
    a1, a2, a3, a4, a6 = a
    n = len(lam)
    nu = _lin(n, (1, w1), (-1, _mul_dense(lam, z1, n)))
    l2 = _mul_dense(lam, lam, n)
    # num = a1 lam + a3 lam^2 + nu (a2 + 2 a4 lam + 3 a6 lam^2) and
    # den = 1 + lam (a2 + a4 lam + a6 lam^2): the z^2 and z^3
    # coefficients of the curve's equation restricted to the line
    u = _lin(n, (2 * a4, lam), (3 * a6, l2))
    v = _lin(n, (a4, lam), (a6, l2))
    u[0] += a2
    v[0] += a2
    num = _lin(n, (a1, lam), (a3, l2), (1, _mul_dense(nu, u, n)))
    den = _mul_dense(lam, v, n)
    den[0] += 1
    z3 = _lin(n, (-1, z1), (-1, z2), (-1, _div_dense(num, den)))
    w3 = _lin(n, (1, nu), (1, _mul_dense(lam, z3, n)))
    # -(z, w) = (-z, -w) / (1 - a1 z - a3 w)
    zn, wn = [-c for c in z3], [-c for c in w3]
    if a1 or a3:
        d = _lin(n, (-a1, z3), (-a3, w3))
        d[0] += 1
        zn, wn = _div_dense(zn, d), _div_dense(wn, d)
    return zn, wn


def _double_dense(a, z, w):
    """2P by the tangent at P = (z, w); the slope's denominator has
    constant term 1."""
    a1, a2, a3, a4, a6 = a
    n = len(z)
    zz, zw, ww = (_mul_dense(z, z, n), _mul_dense(z, w, n),
                  _mul_dense(w, w, n))
    num = _lin(n, (3, zz), (a1, w), (2 * a2, zw), (a4, ww))
    den = _lin(n, (-a1, z), (-a2, zz), (-2 * a3, w), (-2 * a4, zw),
               (-3 * a6, ww))
    den[0] += 1
    return _third_point_dense(a, z, w, z, _div_dense(num, den))


def _add_dense(a, z1, w1, z2, w2):
    """P1 + P2 by the chord, for P1 = (t, w(t)) and P2 = [n]P1 with
    n > 1.  Both slope terms are divided by t first, which costs one
    coefficient; the denominator then starts with 1 - n."""
    L = len(z2) - 1
    dz = [u - v for u, v in zip(z1[1:], z2[1:])]
    dw = [u - v for u, v in zip(w1[1:], w2[1:])]
    return _third_point_dense(a, z1[:L], w1[:L], z2[:L], _div_dense(dw, dz))


def _dense_pseries(a, p: int, prec: int) -> list:
    """Coefficients of t^0 .. t^prec of [p](t) in Z[[t]] for the
    integral Weierstrass coefficients a = (a1, a2, a3, a4, a6): an
    addition chain on the bits of p applied to the point (t, w(t))."""
    bits = bin(p)[3:]
    P = prec + 1 + bits.count("1")
    w = _w_coeffs_dense(a, P, 0, 1)
    t = [0, 1] + [0] * (P - 2)
    z, wz = t, w
    for bit in bits:
        z, wz = _double_dense(a, z, wz)
        if bit == "1":
            z, wz = _add_dense(a, t, w, z, wz)
    if len(z) < prec + 1:
        raise ValidationError(
            f"[p]-series kept {len(z)} coefficients, {prec + 1} needed")
    return z[:prec + 1]


# -- series on one coefficient class ----------------------------------------

def _strided(rng, length, r, g, density=1.0, bound=10 ** 6):
    """A series of the given length whose support lies in r + g*Z."""
    out = [0] * length
    for i in range(r, length, g):
        if rng.random() < density:
            out[i] = rng.randint(-bound, bound)
    return out


@st.composite
def strided_series(draw, length, r=None, head=None):
    g = draw(st.sampled_from(STRIDES))
    if r is None:
        r = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(("dense", "sparse", "zero", "single")))
    out = [0] * length
    if kind == "single":
        if r < length:
            out[r] = draw(st.integers(-50, 50).filter(bool))
    elif kind != "zero":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        out = _strided(rng, length, r, g,
                       density=1.0 if kind == "dense" else 0.4)
    if head is not None:
        out[0] = head
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(0, 6).flatmap(lambda e: strided_series(n + e)),
    st.integers(0, 6).flatmap(lambda e: strided_series(n + e)))))
def test_mul_matches_dense(case):
    n, a, b = case
    assert _mul(a, b, n) == _mul_dense(a, b, n)
    assert _mul(b, a, n) == _mul_dense(a, b, n)


def test_mul_strides_and_offsets_seeded():
    rng = random.Random(1)
    for ga in STRIDES:
        for gb in STRIDES:
            for ra in range(3):
                for rb in range(3):
                    n = rng.randint(20, 60)
                    a = _strided(rng, n + rng.randint(0, 5), ra, ga)
                    b = _strided(rng, n + rng.randint(0, 5), rb, gb)
                    assert _mul(a, b, n) == _mul_dense(a, b, n)


def test_mul_edge_operands():
    assert _mul([0, 0, 0], [1, 2, 3], 3) == [0, 0, 0]
    assert _mul([0, 0, 5], [0, 7, 0], 3) == [0, 0, 0]
    assert _mul([0, 0, 5, 0], [0, 7, 0, 0], 4) == [0, 0, 0, 35]
    assert _mul([3], [4], 1) == [12]
    assert _mul([1, 2], [3, 4], 0) == []


def test_mul_needs_both_operands_to_carry_n_coefficients():
    # a list's length is its absolute precision: t * 1 is known to O(t)
    # only, so a product to two coefficients is refused
    assert _mul([0, 1], [1, 0], 2) == [0, 1]
    with pytest.raises(ValueError):
        _mul([0, 1], [1], 2)
    with pytest.raises(ValueError):
        _mul([1], [0, 1], 2)


#: Coefficients for the square path: signed small and big ints, with
#: runs of zeros.
_SQUARE_ITEMS = st.lists(
    st.one_of(st.integers(-10 ** 6, 10 ** 6),
              st.integers(-2 ** 200, 2 ** 200),
              st.integers(1, 8).map(lambda k: [0] * k)),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(_SQUARE_ITEMS.map(lambda xs: [y for x in xs
                                     for y in (x if isinstance(x, list)
                                               else [x])]))
def test_square_path_matches_dense_and_the_general_path(a):
    # the dense oracle's coefficient k does not depend on n
    full = _mul_dense(a, list(a), len(a))
    for n in range(len(a) + 1):
        assert _mul(a, a, n) == full[:n] == _mul(a, list(a), n)


def _div_outcome(kernel, a, b):
    try:
        return kernel(a, b)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.integers(0, 4).flatmap(lambda e: strided_series(n + e)),
    st.sampled_from((1, -1, -2, -4, -6, -12)).flatmap(
        lambda b0: st.integers(0, 4).flatmap(
            lambda e: strided_series(n + e, r=0, head=b0))))))
def test_div_matches_dense(case):
    # b0 is +-1 or 1 - n, the constant terms the chain divides by
    a, b = case
    assert _div_outcome(_div, a, b) == _div_outcome(_div_dense, a, b)


def test_div_exact_quotients_and_remainders_seeded():
    rng = random.Random(2)
    for gq in STRIDES:
        for gb in STRIDES:
            for r in range(3):
                for b0 in (1, -1, -2, -4, -6, -12):
                    n = rng.randint(15, 50)
                    q = _strided(rng, n, r, gq)
                    b = _strided(rng, n + rng.randint(0, 3), 0, gb)
                    b[0] = b0
                    a = _mul_dense(q, b, n)
                    assert _div(a, b) == _div_dense(a, b) == q
                    if b0 in (1, -1):
                        continue
                    # one on-class coefficient off by one leaves a
                    # remainder at the same t^k on both kernels
                    k = rng.randrange(r, n, gq)
                    a[k] += 1
                    got = _div_outcome(_div, a, b)
                    assert isinstance(got, str) and f"t^{k}:" in got
                    assert got == _div_outcome(_div_dense, a, b)


# -- the class pairs of the chain ------------------------------------------

def test_a_combination_of_classes_that_differ_mod_g_raises():
    lin = formalgroup._lin
    assert lin(2, 8, (1, (1, [1, 2, 3, 4])), (3, (3, [5, 6, 7]))) == \
        (1, [1, 17, 21, 25])
    for g, x, y in ((2, (1, [1, 2, 3, 4]), (2, [5, 6, 7])),
                    (4, (3, [1, 2]), (1, [5, 6])),
                    (6, (0, [1, 2]), (2, [3, 4]))):
        lo, hi = sorted((x[0], y[0]))
        with pytest.raises(ValidationError, match=(
                f"classes {lo} and {hi} differ mod {g}")):
            lin(g, 8, (1, x), (-1, y))
    # a term with coefficient 0 is not read, whatever its class
    assert lin(6, 8, (1, (1, [1, 2])), (0, (6, [3]))) == (1, [1, 2])


@pytest.mark.parametrize("g", [2, 6])
def test_a_class_pair_remainder_names_its_true_exponent(g):
    rng = random.Random(g)
    for r in (1, 3, 5):
        for b0 in (-4, 6):
            m = 12
            q = [rng.randint(-99, 99) for _ in range(m)]
            b = [b0] + [rng.randint(-99, 99) for _ in range(m - 1)]
            a = _mul_dense(q, b, m)
            assert formalgroup._over(g, (r, a), (0, b)) == (r, q)
            k = rng.randrange(1, m)
            a[k] += 1
            with pytest.raises(ValidationError,
                               match=rf"remainder at t\^{r + g * k}:"):
                formalgroup._over(g, (r, a), (0, b))


# -- w(t) at its stride -----------------------------------------------------

#: Short curve coefficients (a4, a6) by the gcd g of the weights (4 and
#: 6) of the nonzero ones.
W_PATTERNS = {
    2: [(2, 5)],
    4: [(3, 0), (-1, 0)],
    6: [(0, 5), (0, -2)],
}
#: Fixed case ids, so that a case keeps its name when patterns change.
_W_IDS = ["2-coeffs5", "4-coeffs9", "4-coeffs10", "6-coeffs11", "6-coeffs12"]


@pytest.mark.parametrize("g, coeffs",
                         [(g, c) for g, cs in W_PATTERNS.items() for c in cs],
                         ids=_W_IDS)
def test_w_coeffs_on_its_class(g, coeffs):
    P = 60
    w = _w_coeffs(coeffs, P, 0, 1)
    assert w == _w_coeffs_dense((0, 0, 0) + coeffs, P, 0, 1)
    assert all(c == 0 for n, c in enumerate(w) if (n - 3) % g)
    assert w[3] == 1
    wq = _w_coeffs(tuple(Fraction(c) for c in coeffs), P,
                   QQ.zero(), QQ.one())
    assert wq == w and all(isinstance(c, Fraction) for c in wq)
    for p in (5, 7, 13):
        field = fq2_context(p)   # F_p, as the scalars of F_{p^2}
        wp = _w_coeffs(tuple(field.coerce(c) for c in coeffs), P,
                       field.zero(), field.one())
        assert wp == [c % p for c in w]


def test_w_coeffs_of_the_zero_curve_and_short_windows():
    assert _w_coeffs((0, 0), 12, 0, 1) == [0, 0, 0, 1] + [0] * 8
    for P in range(0, 12):
        for cs in W_PATTERNS.values():
            assert _w_coeffs(cs[0], P, 0, 1) == \
                _w_coeffs_dense((0, 0, 0) + cs[0], P, 0, 1)


# -- the [p]-series on either kernel set ------------------------------------

def _short_curves(p):
    return [(a, b) for a in range(p) for b in range(p)
            if (4 * a ** 3 + 27 * b * b) % p]


def _assert_same_pseries(a4, a6, p):
    prec = p * p + 1
    got = _mult_by_p_integral((a4, a6), p, prec)
    assert got == _dense_pseries((0, 0, 0, a4, a6), p, prec), (a4, a6, p)
    assert got[1] == p


@pytest.mark.parametrize("p", [5, 7])
def test_pseries_every_short_curve(p):
    for a4, a6 in _short_curves(p):
        _assert_same_pseries(a4, a6, p)


@pytest.mark.parametrize("p", [11, 13])
def test_pseries_sparse_curves_and_a_general_sample(p):
    curves = _short_curves(p)
    sparse = [c for c in curves if not (c[0] and c[1])]
    general = random.Random(p).sample([c for c in curves if c[0] and c[1]],
                                      3)
    for a4, a6 in sparse + general:
        _assert_same_pseries(a4, a6, p)


def sweep(primes=(5, 7, 11, 13)) -> int:
    """Every nonsingular short curve at each prime on both chains;
    returns the number of curves compared."""
    count = 0
    for p in primes:
        for a4, a6 in _short_curves(p):
            _assert_same_pseries(a4, a6, p)
            count += 1
    return count


if __name__ == "__main__":
    import time
    t0 = time.perf_counter()
    n = sweep()
    print(f"{n} short curves agree ({time.perf_counter() - t0:.1f} s)")
