"""Dense univariate polynomials and truncated power/Laurent series
over pluggable coefficient rings, and the int-list kernels of Z[[t]].

A coefficient ring is any context object providing zero(), one(),
from_int(n), coerce(c), is_unit(a) and inv(a); element arithmetic goes
through the usual operators.  In the program that ring is Quad (F_{p^2}
and W(F_{p^2})/p^N) from arith; F_p is not one.  A polynomial over F_p
is an ascending int list read mod p, which the int-list kernels (_FpX)
take, over F_p only, never a ring with N > 1: roots_in_field,
count_roots_in_fp and is_squarefree run on them, and the root finder
takes its square roots of F_p squares as scalars of F_{p^2}.

Poly: coeffs[i] is the degree-i coefficient; the leading stored
coefficient is nonzero ([] is the zero polynomial).  The program builds
it only over W(F_{p^2})/p^N, for the lifted supersingular polynomial
and its idempotents, which need sums, products, division, the
derivative and evaluation alone.

QSeries: sum of coeffs[i] * q^(offset+i); exactly zero below offset and
unknown at offset+len(coeffs) =: abs_prec and beyond.  Every operation
propagates the honest precision of its result — nothing is ever
extrapolated, and reading a coefficient at or past abs_prec raises
PrecisionError.

Series in Z[[t]] are plain int lists holding the coefficients of
t^0 .. t^(n-1); a list's length is its absolute precision.  _mul and
_div multiply and divide them exactly by dense convolution, a square at
half the products: the integer q-expansions in modforms and cli, and
the [p]-series in formalgroup, whose chain hands them the coefficients
of one class r mod g as a dense list of its own.
"""

from __future__ import annotations

import math
import random
import struct
from operator import mul

from .arith import Quad, fq2_context, power, rth_root
from .errors import PrecisionError, ValidationError

__all__ = [
    "Poly", "QSeries", "roots_in_field", "count_roots_in_fp",
    "is_squarefree",
]


class Poly:
    """Dense univariate polynomial; immutable by convention."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        cs = [ring.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.ring = ring
        self.coeffs = cs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero()

    def _same(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("polynomials over different rings")
            return other
        return Poly(self.ring, [other])

    def __add__(self, other):
        o = self._same(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.ring,
                    [self.coeff(i) + o.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = self.ring.coerce(other)
            return Poly(self.ring, [a * c for a in self.coeffs])
        a, b = self.coeffs, self._same(other).coeffs
        return Poly(self.ring,
                    _mul_lists(self.ring, a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def divrem(self, g: "Poly") -> tuple["Poly", "Poly"]:
        """f = q*g + r with deg r < deg g; needs an invertible leading
        coefficient of g: over W(F_{p^2})/p^N, one not divisible by p."""
        g = self._same(g)
        if g.is_zero():
            raise ValueError("polynomial division by zero")
        if not self.ring.is_unit(g.leading()):
            raise ValueError("leading coefficient of divisor is not a unit")
        lead_inv = self.ring.inv(g.leading())
        rem = list(self.coeffs)
        dg = g.degree
        if len(rem) - 1 < dg:
            return Poly(self.ring, []), Poly(self.ring, rem)
        quot = [self.ring.zero()] * (len(rem) - dg)
        for i in range(len(rem) - 1, dg - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c * lead_inv
            quot[i - dg] = q
            for j, b in enumerate(g.coeffs):
                rem[i - dg + j] = rem[i - dg + j] - q * b
        return Poly(self.ring, quot), Poly(self.ring, rem)

    def gcd(self, g: "Poly") -> "Poly":
        """Monic gcd of polynomials over F_p, held as scalars of an
        F_{p^2} model, by Euclid on int lists (_FpX); gcd(0, 0) = 0 by
        convention.  Any other ring, or a coefficient outside F_p,
        raises ValueError."""
        ring, g = self.ring, self._same(g)
        if (not isinstance(ring, Quad) or ring.N != 1
                or any(c.b for c in self.coeffs + g.coeffs)):
            raise ValueError(f"Poly.gcd wants polynomials over F_p in an "
                             f"F_p^2 model, not over {ring}")
        a, b = [c.a for c in self.coeffs], [c.a for c in g.coeffs]
        return Poly(ring, _FpX(ring.p, max(len(a), len(b))).gcd(a, b))

    def derivative(self) -> "Poly":
        return Poly(self.ring,
                    [self.coeffs[i] * self.ring.from_int(i)
                     for i in range(1, len(self.coeffs))])

    def evaluate(self, x):
        """Horner evaluation at an element of the coefficient ring."""
        x = self.ring.coerce(x)
        acc = self.ring.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return other.ring == self.ring and other.coeffs == self.coeffs

    def __repr__(self):
        return f"Poly({self.coeffs!r})"


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


class _FpX:
    """Polynomials over F_p as int lists (low degree first, no trailing
    zeros), for polynomials of length at most n.

    Every product is one big-int multiply by Kronecker substitution: each
    operand is packed into an int with one w-byte slot per coefficient,
    and the slot is wide enough for any coefficient of a product of two
    such polynomials, so nothing carries between slots.  A reduction mod
    a monic f is two more products against the reversed inverse of f.
    Only gcd divides by schoolbook passes instead.
    """

    __slots__ = ("p", "w", "code")

    def __init__(self, p: int, n: int):
        self.p = p
        need = (2 * (p - 1).bit_length() + n.bit_length() + 7) // 8
        self.w = 4 if need <= 4 else 8 if need <= 8 else need
        self.code = {4: "I", 8: "Q"}.get(self.w)

    def _pack(self, a) -> int:
        if self.code:
            raw = struct.pack(f"<{len(a)}{self.code}", *a)
        else:
            raw = b"".join(c.to_bytes(self.w, "little") for c in a)
        return int.from_bytes(raw, "little")

    def _unpack(self, x: int, m: int) -> list:
        w, p = self.w, self.p
        raw = x.to_bytes(w * m, "little")
        if self.code:
            vals = struct.unpack(f"<{m}{self.code}", raw)
        else:
            vals = [int.from_bytes(raw[i:i + w], "little")
                    for i in range(0, w * m, w)]
        return _trim([c % p for c in vals])

    def mul(self, a, b) -> list:
        if not a or not b:
            return []
        x = self._pack(a)
        y = x if b is a else self._pack(b)
        return self._unpack(x * y, len(a) + len(b) - 1)

    def add(self, a, b, s=1) -> list:
        """a + s*b."""
        p = self.p
        if len(a) < len(b):
            a = a + [0] * (len(b) - len(a))
        return _trim([(x + s * y) % p for x, y in zip(a, b)]
                     + a[len(b):])

    def monic(self, a) -> list:
        p = self.p
        inv = pow(a[-1], -1, p)
        return [c * inv % p for c in a]

    def inv_rev(self, f, k: int) -> list:
        """1 / rev(f) mod X^k for monic f, by Newton iteration."""
        r = f[::-1]
        g, prec = [1], 1
        while prec < k:
            prec = min(2 * prec, k)
            e = self.add([2], self.mul(r[:prec], g)[:prec], -1)
            g = self.mul(g, e)[:prec]
        return g

    def divrem(self, a, f, finv) -> tuple:
        """(q, r) with a = q*f + r for monic f; finv = inv_rev(f, k) with
        k > deg a - deg f."""
        n = len(f) - 1
        k = len(a) - n
        if k <= 0:
            return [], a
        qr = self.mul(a[n:][::-1], finv[:k])[:k]
        q = [0] * (k - len(qr)) + qr[::-1]
        return q, self.add(a[:n], self.mul(q, f)[:n], -1)

    def powmod(self, a, e: int, f, finv) -> list:
        """a^e mod f (left-to-right binary); finv = inv_rev(f, deg f)."""
        out = [1]
        for bit in bin(e)[2:]:
            out = self.divrem(self.mul(out, out), f, finv)[1]
            if bit == "1":
                out = self.divrem(self.mul(out, a), f, finv)[1]
        return out

    def gcd(self, a, b) -> list:
        """Monic gcd by schoolbook Euclid; gcd(a, 0) = monic(a).

        Each remainder is one in-place pass over b per quotient
        coefficient: nearly every quotient in a Euclid run is linear, and
        two O(deg b) passes cost less than a Kronecker division."""
        p = self.p
        while b:
            m = len(b) - 1
            inv = pow(b[-1], -1, p)
            r = list(a)
            for i in range(len(r) - 1, m - 1, -1):
                q = r[i] * inv % p
                if q:
                    r[i - m:i] = [(x - q * y) % p
                                  for x, y in zip(r[i - m:i], b)]
            a, b = b, _trim(r[:m])
        return self.monic(a) if a else a

    def linear_part(self, h, hinv) -> tuple:
        """(X^p mod h, gcd(h, X^p - X)) for monic h of any degree; the
        gcd is the product of the distinct linear factors of h, so its
        degree counts the roots of h in F_p."""
        xp = self.powmod([0, 1], self.p, h, hinv)
        return xp, self.gcd(h, self.add(xp, [0, 1], -1))

    def split(self, g, d: int, rng, frob) -> list:
        """Monic factors of g, a product of distinct monic irreducibles of
        degree d in {1, 2}; frob is X^p mod a multiple of g (d = 2 only).

        Trace splitting: a below takes a value in F_p on every factor, so
        gcd(g, a^((p-1)/2) - 1) splits g for a random a.  For d = 1,
        a = X + c; for d = 2, a = U + c1*V + c0, where V = X + F and
        U = X^2 + F^2 (F = X^p) are the traces of X and X^2.  A node of
        degree 2d holds two factors and needs no trial: Y = X for d = 1,
        else V, or U when V is constant (equal traces force distinct
        norms), takes distinct values y1, y2 on them;
        Y^2 = s*Y - P mod g gives s = y1 + y2 and P = y1*y2, and
        gcd(g, Y - y1) is one factor, y1 - y2 = +-sqrt(s^2 - 4P) taken
        in fq2_context(p).  One inverse per node serves the
        reductions of F and F^2 and the powmod."""
        n = len(g) - 1
        if n <= d:
            return [g] if n > 0 else []
        p = self.p
        if d == 1:
            ginv = self.inv_rev(g, n)
            V = [0, 1]
        else:
            ginv = self.inv_rev(g, max(n, len(frob) - n))
            frob = self.divrem(frob, g, ginv)[1]
            V = self.add(frob, [0, 1])
            U = self.add(self.divrem(self.mul(frob, frob), g, ginv)[1],
                         [0, 0, 1])
        if n == 2 * d:
            Y = V if len(V) > 1 else U
            Y2 = self.divrem(self.mul(Y, Y), g, ginv)[1] + [0] * n
            t = len(Y) - 1
            s = Y2[t] * pow(Y[t], -1, p) % p
            P = s * Y[0] - Y2[0]
            r = rth_root(fq2_context(p).elem(s * s - 4 * P), 2).a
            h = self.gcd(g, self.add(Y, [(s + r) * pow(2, -1, p)], -1))
        else:
            while True:
                c = rng.randrange(p)
                a = [c, 1] if d == 1 else self.add(
                    self.add(U, V, rng.randrange(p)), [c])
                h = self.gcd(g, self.add(
                    self.powmod(a, (p - 1) // 2, g, ginv), [1], -1))
                if 0 < len(h) - 1 < n:
                    break
        rest = self.divrem(g, h, self.inv_rev(h, n - len(h) + 2))[0]
        return self.split(h, d, rng, frob) + self.split(rest, d, rng, frob)


def _fp_list(f, p: int) -> list:
    """The int list f reduced mod p, without trailing zeros."""
    return _trim([c % p for c in f])


def roots_in_field(f: list, field) -> set:
    """All roots in the F_{p^2} model field of a nonzero f over F_p, an
    ascending int list read mod p, each once; the roots in F_p are the
    ones in_prime_field.

    Distinct-degree then equal-degree factorization over F_p:
    gcd(f, X^p - X) collects the F_p-rational roots, g = gcd(f, X^q - X)
    the roots in the field of size q, and g over the first is a product
    of irreducible quadratics whose conjugate roots come from one square
    root each.  _FpX.split separates the factors by traces (X^p mod f
    serves the quadratics) with exponent (p-1)/2, and finishes each
    two-factor node from one square root; the gcds are schoolbook
    Euclid.  Multiplicity is not reported.
    """
    if not isinstance(field, Quad) or field.N != 1:
        raise ValueError(f"roots_in_field wants F_p^2, not {field}")
    p = field.p
    h = _fp_list(f, p)
    if not h:
        raise ValueError("roots_in_field of the zero polynomial")
    fx = _FpX(p, len(h))
    h = fx.monic(h)
    if len(h) < 2:
        return set()
    hinv = fx.inv_rev(h, len(h) - 1)
    xp, lin = fx.linear_part(h, hinv)
    rng = random.Random(0)
    out = {field.elem(-r[0]) for r in fx.split(lin, 1, rng, None)}
    # X^q mod h, q = field.size: X^(p^2) = (X^p)^p; lin divides g
    xq = fx.powmod(xp, p, h, hinv)
    g = fx.gcd(h, fx.add(xq, [0, 1], -1))
    rest = fx.divrem(g, lin, fx.inv_rev(lin, len(g)))[0]
    inv2 = pow(2, -1, p)
    dinv = pow(-4 * field.g0, -1, p)
    for c0, c1, _ in fx.split(rest, 2, rng, xp):
        # X^2 + c1 X + c0 has the roots -c1/2 +- s*xbar, where
        # c1^2 - 4 c0 = (2 s xbar)^2 = -4 g0 s^2
        s = rth_root(field.elem((c1 * c1 - 4 * c0) * dinv), 2).a
        out.add(field.elem(-c1 * inv2, s))
        out.add(field.elem(-c1 * inv2, -s))
    return out


def count_roots_in_fp(f: list, p: int) -> int:
    """The number of distinct roots in F_p of a nonzero f over F_p (an
    int list read mod p), deg gcd(f, X^p - X): one Frobenius powmod and
    one gcd, no root finding."""
    h = _fp_list(f, p)
    if not h:
        raise ValueError("count_roots_in_fp wants a nonzero f over F_p")
    fx = _FpX(p, len(h))
    h = fx.monic(h)
    return len(fx.linear_part(h, fx.inv_rev(h, len(h) - 1))[1]) - 1


def is_squarefree(f: list, p: int) -> bool:
    """Whether f over F_p (an int list read mod p) is squarefree:
    gcd(f, f') = 1.  The zero polynomial is not."""
    h = _fp_list(f, p)
    dh = _fp_list([i * c for i, c in enumerate(h)][1:], p)
    return _FpX(p, len(h)).gcd(h, dh) == [1]


# ---------------------------------------------------------------------------
# Truncated power / Laurent series


class QSeries:
    """Truncated series sum(coeffs[i] q^(offset+i)) + O(q^abs_prec)."""

    __slots__ = ("ring", "offset", "coeffs")

    def __init__(self, ring, offset: int, coeffs):
        cs = [ring.coerce(c) for c in coeffs]
        while cs and not cs[0]:
            cs.pop(0)
            offset += 1
        self.ring = ring
        self.offset = offset
        self.coeffs = cs

    @property
    def abs_prec(self) -> int:
        """Exponent at which knowledge stops."""
        return self.offset + len(self.coeffs)

    def is_zero(self) -> bool:
        """Zero up to the known precision."""
        return not self.coeffs

    def coeff(self, n: int):
        if n >= self.abs_prec:
            raise PrecisionError(
                f"coefficient of q^{n} beyond precision O(q^{self.abs_prec})")
        if n < self.offset:
            return self.ring.zero()
        return self.coeffs[n - self.offset]

    def coeff_list(self, lo: int, hi: int) -> list:
        """Coefficients for exponents lo..hi-1."""
        return [self.coeff(n) for n in range(lo, hi)]

    def _same(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            raise TypeError("expected a QSeries")
        if other.ring != self.ring:
            raise ValueError("series over different rings")
        return other

    def __add__(self, other):
        o = self._same(other)
        P = min(self.abs_prec, o.abs_prec)
        lo = min(self.offset, o.offset, P)
        zero = self.ring.zero()

        def at(s, n):
            if n < s.offset or n >= s.abs_prec:
                return zero
            return s.coeffs[n - s.offset]

        return QSeries(self.ring, lo,
                       [at(self, n) + at(o, n) for n in range(lo, P)])

    def __sub__(self, other):
        return self + (-self._same(other))

    def __neg__(self):
        return QSeries(self.ring, self.offset, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        o = self._same(other)
        # known to abs_prec min(a.offset + b.abs_prec, b.offset + a.abs_prec)
        n_out = min(len(self.coeffs), len(o.coeffs))
        return QSeries(self.ring, self.offset + o.offset,
                       _mul_lists(self.ring, self.coeffs, o.coeffs, n_out))

    __rmul__ = __mul__

    def scale(self, c) -> "QSeries":
        c = self.ring.coerce(c)
        return QSeries(self.ring, self.offset, [a * c for a in self.coeffs])

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k (exact)."""
        return QSeries(self.ring, self.offset + k, self.coeffs)

    def truncate(self, new_abs_prec: int) -> "QSeries":
        if new_abs_prec >= self.abs_prec:
            return self
        keep = max(0, new_abs_prec - self.offset)
        return QSeries(self.ring, min(self.offset, new_abs_prec),
                       self.coeffs[:keep])

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            n = max(1, len(self.coeffs))
            return QSeries(self.ring, 0,
                           [self.ring.one()] + [self.ring.zero()] * (n - 1))
        return power(self, e)

    def inverse(self) -> "QSeries":
        """Reciprocal; the coefficient at the valuation must be a unit.
        Result has offset -valuation and abs_prec reduced by 2*valuation."""
        if not self.coeffs:
            raise ValueError("cannot invert a series that is 0 to precision")
        if not self.ring.is_unit(self.coeffs[0]):
            raise ValueError("leading series coefficient is not a unit")
        out = _inv_list(self.ring, self.coeffs, len(self.coeffs))
        return QSeries(self.ring, -self.offset, out)

    def derivative(self) -> "QSeries":
        out = []
        for i, c in enumerate(self.coeffs):
            n = self.offset + i
            out.append(c * self.ring.from_int(n))
        return QSeries(self.ring, self.offset - 1, out)

    def compose(self, g: "QSeries") -> "QSeries":
        """self(g); g must have no constant term, self no negative powers."""
        g = self._same(g)
        if self.offset < 0:
            raise ValueError("composition base has negative exponents")
        if g.coeffs and g.offset < 1:
            raise ValueError("composition argument has a constant term")
        vg = g.offset if g.coeffs else max(1, g.abs_prec)
        P = min(vg * self.abs_prec, g.abs_prec)
        if P <= 0:
            return QSeries(self.ring, 0, [])
        zero = self.ring.zero()
        fl = [self.coeff(n) for n in range(min(self.abs_prec, P))]
        gl = [zero] * P
        for i, c in enumerate(g.coeffs):
            n = g.offset + i
            if 0 <= n < P:
                gl[n] = c
        out = _compose_bk(self.ring, fl, gl, P)
        return QSeries(self.ring, 0, out)

    def revert(self) -> "QSeries":
        """Compositional inverse of a series t*(unit) + ..., offset exactly 1.

        Newton iteration with precision doubling; abs_prec is preserved.
        """
        if not self.coeffs or self.offset != 1:
            raise ValueError("reversion needs valuation exactly 1")
        if not self.ring.is_unit(self.coeffs[0]):
            raise ValueError("linear coefficient is not a unit")
        ring = self.ring
        P = self.abs_prec
        zero, one = ring.zero(), ring.one()
        fl = [zero] + list(self.coeffs)
        fl = fl[:P] + [zero] * (P - len(fl))
        fp = [fl[k + 1] * ring.from_int(k + 1) for k in range(P - 1)]
        g = [zero, ring.inv(self.coeffs[0])] + [zero] * (P - 2)
        prec = 2
        while prec < P:
            prec = min(2 * prec, P)
            fg = _compose_bk(ring, fl[:prec], g[:prec], prec)
            fg[1] = fg[1] - one
            fpg = _compose_bk(ring, fp[:prec], g[:prec], prec)
            corr = _mul_lists(ring, fg, _inv_list(ring, fpg, prec), prec)
            g = [g[i] - corr[i] for i in range(prec)] + \
                [zero] * (P - prec)
        return QSeries(ring, 1, g[1:P])

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (other.ring == self.ring and other.offset == self.offset
                and other.coeffs == self.coeffs)

    def __repr__(self):
        parts = []
        shown = 0
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            n = self.offset + i
            if n == 0:
                parts.append(str(c))
            else:
                e = "q" if n == 1 else f"q^{n}"
                parts.append(e if c == self.ring.one() else f"{c}*{e}")
            shown += 1
            if shown >= 8:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.abs_prec})"


# --- raw list kernels (exponents 0..P-1, fixed working precision P) ---


def _mul_lists(ring, a, b, P):
    """The first P coefficients of a*b, skipping zero operands."""
    zero = ring.zero()
    out = [zero] * P
    for i, ai in enumerate(a):
        if not ai or i >= P:
            continue
        top = min(P - i, len(b))
        for j in range(top):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def _inv_list(ring, u, P):
    inv0 = ring.inv(u[0])
    zero = ring.zero()
    out = [inv0] + [zero] * (P - 1)
    for n in range(1, P):
        s = None
        top = min(n, len(u) - 1)
        for k in range(1, top + 1):
            if u[k]:
                term = u[k] * out[n - k]
                s = term if s is None else s + term
        if s is not None:
            out[n] = -(inv0 * s)
    return out


def _compose_bk(ring, fl, gl, P):
    # f(g) to P coefficients by Brent-Kung blocks:
    # f = sum_i (sum_{k<r} f[ir+k] g^k) (g^r)^i with r ~ sqrt(len(f))
    zero = ring.zero()
    r = max(2, math.isqrt(len(fl)) + 1)
    pows = [[ring.one()] + [zero] * (P - 1), list(gl) + [zero] * (P - len(gl))]
    for _ in range(r - 2):
        pows.append(_mul_lists(ring, pows[-1], gl, P))
    gr = _mul_lists(ring, pows[-1], gl, P)
    acc = [zero] * P
    nblocks = (len(fl) + r - 1) // r
    for bi in range(nblocks - 1, -1, -1):
        acc = _mul_lists(ring, acc, gr, P)
        for k in range(r):
            idx = bi * r + k
            if idx < len(fl) and fl[idx]:
                c = fl[idx]
                pk = pows[k]
                for m in range(P):
                    if pk[m]:
                        acc[m] = acc[m] + c * pk[m]
    return acc


# --- Z[[t]] kernels on dense int lists (see the module docstring) ---


def _mul(a: list, b: list, n: int) -> list:
    """The first n coefficients of a*b, which both must carry.  A square
    (b is a) sums each pair i < j once, doubled, plus the diagonal."""
    if n > min(len(a), len(b)):
        raise ValueError(f"product to {n} coefficients of series with "
                         f"{len(a)} and {len(b)}")
    if a is not b:
        return [sum(map(mul, a, b[k::-1])) for k in range(n)]
    out = [2 * sum(map(mul, a[:(k + 1) // 2], a[k:k // 2:-1]))
           for k in range(n)]
    out[::2] = [c + x * x for c, x in zip(out[::2], a)]
    return out


def _div(a: list, b: list, r: int = 0, g: int = 1) -> list:
    """The quotient a/b in Z[[t]], b[0] != 0, to min(len(a), len(b))
    coefficients.  Every coefficient must divide exactly by b[0]: a
    remainder means the quotient is not integral, which the caller's
    algebra rules out.  The error names the remainder's term k as
    t^(r + g*k), its true exponent when a and b hold the terms of
    series on one class r and 0 mod a stride g."""
    b0 = b[0]
    q = []
    for k in range(min(len(a), len(b))):
        c, rem = divmod(a[k] - sum(map(mul, q, b[k:0:-1])), b0)
        if rem:
            raise ValidationError(
                f"series division by {b0} + ... leaves a remainder at "
                f"t^{r + g * k}: the quotient is not integral (precision "
                f"or algebra bug)")
        q.append(c)
    return q
