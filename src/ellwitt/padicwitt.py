"""Fixed-precision Z/p^N and W(F_{p^2})/p^N arithmetic, Teichmuller and
Hensel lifts, the lifted supersingular polynomial, and its finite-level
idempotent splitting.

W(F_{p^2})/p^N is modeled as (Z/p^N)[x]/(G) where G is the monic
quadratic whose roots are the Teichmuller lifts of the roots of the
chosen F_{p^2} modulus g: ring operations are plain quadratic
arithmetic, Frobenius is root conjugation, and no Witt addition
polynomials are ever needed.  Contexts are constructed once per (p, N)
and shared; all values are immutable.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import Fq2Ctx, Fq2Elem, FpElem, PrimeField, fq2_context, is_prime
from .errors import ValidationError
from .modforms import MAX_EISENSTEIN_PRIME
from .polyseries import Poly
from . import sslocus

__all__ = [
    "PadicRing", "PadicInt", "WittCtx", "WittQuad",
    "lift_context", "teichmuller", "witt_frobenius", "hensel_root",
    "lift_ss_poly", "splitting_idempotents",
    "MAX_LIFT_PRECISION", "MAX_SPLIT_PRIME", "MAX_SPLIT_PRECISION",
]

MAX_LIFT_PRECISION = 64
MAX_SPLIT_PRIME = 47
MAX_SPLIT_PRECISION = 32


class PadicRing:
    """Z/p^N with unit arithmetic; operations between mismatched (p, N)
    are hard errors."""

    __slots__ = ("p", "N", "modulus")

    def __init__(self, p: int, N: int):
        if not is_prime(p) or p <= 3:
            raise ValueError(f"p must be a prime > 3, got {p}")
        if N < 1:
            raise ValueError("precision N must be >= 1")
        self.p = p
        self.N = N
        self.modulus = p ** N

    def elem(self, value: int) -> "PadicInt":
        return PadicInt(value % self.modulus, self)

    def zero(self) -> "PadicInt":
        return PadicInt(0, self)

    def one(self) -> "PadicInt":
        return PadicInt(1, self)

    def from_int(self, n: int) -> "PadicInt":
        return PadicInt(n % self.modulus, self)

    def coerce(self, c) -> "PadicInt":
        if isinstance(c, PadicInt):
            if c.ring != self:
                raise ValueError(f"element of {c.ring} used in {self}")
            return c
        if isinstance(c, int):
            return self.from_int(c)
        raise TypeError(f"cannot coerce {type(c).__name__} into {self}")

    def is_unit(self, a: "PadicInt") -> bool:
        return self.coerce(a).value % self.p != 0

    def inv(self, a: "PadicInt") -> "PadicInt":
        a = self.coerce(a)
        return PadicInt(pow(a.value, -1, self.modulus), self)

    def __eq__(self, other):
        return (isinstance(other, PadicRing) and other.p == self.p
                and other.N == self.N)

    def __hash__(self):
        return hash(("ZpN", self.p, self.N))

    def __repr__(self):
        return f"Z/{self.p}^{self.N}"


class PadicInt:
    """A residue mod p^N."""

    __slots__ = ("value", "ring")

    def __init__(self, value: int, ring: PadicRing):
        self.value = value % ring.modulus
        self.ring = ring

    def _same(self, other) -> "PadicInt":
        if isinstance(other, PadicInt):
            if other.ring != self.ring:
                raise ValueError(
                    f"mixed p-adic precision: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return PadicInt(self.value + o.value, self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return PadicInt(self.value - o.value, self.ring)

    def __rsub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return PadicInt(o.value - self.value, self.ring)

    def __mul__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return PadicInt(self.value * o.value, self.ring)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt(-self.value, self.ring)

    def __pow__(self, e: int):
        return PadicInt(pow(self.value, e, self.ring.modulus), self.ring)

    def inverse(self) -> "PadicInt":
        return self.ring.inv(self)

    def reduce_mod_p(self) -> FpElem:
        return PrimeField(self.ring.p).elem(self.value)

    def reduce_precision(self, M: int) -> "PadicInt":
        if M > self.ring.N:
            raise ValueError("cannot raise precision by reduction")
        return PadicRing(self.ring.p, M).elem(self.value)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, PadicInt):
            return other.ring == self.ring and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.ring.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.p, self.ring.N, self.value))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value} (mod {self.ring.p}^{self.ring.N})"


class WittCtx:
    """(Z/p^N)[x]/(G) with G the Teichmuller-root lift of the base
    F_{p^2} modulus; elements are WittQuad."""

    __slots__ = ("base", "p", "N", "modulus", "G1", "G0", "scalar_ring")

    def __init__(self, base: Fq2Ctx, N: int, G1: int, G0: int):
        self.base = base
        self.p = base.p
        self.N = N
        self.modulus = base.p ** N
        self.G1 = G1 % self.modulus
        self.G0 = G0 % self.modulus
        self.scalar_ring = PadicRing(base.p, N)
        if (self.G1 - base.g1) % base.p or (self.G0 - base.g0) % base.p:
            raise ValidationError("lifted modulus G does not reduce to g")

    def elem(self, a: int, b: int = 0) -> "WittQuad":
        return WittQuad(a % self.modulus, b % self.modulus, self)

    def zero(self) -> "WittQuad":
        return WittQuad(0, 0, self)

    def one(self) -> "WittQuad":
        return WittQuad(1, 0, self)

    def from_int(self, n: int) -> "WittQuad":
        return WittQuad(n % self.modulus, 0, self)

    def coerce(self, c) -> "WittQuad":
        if isinstance(c, WittQuad):
            if c.ctx != self:
                raise ValueError(f"element of {c.ctx} used in {self}")
            return c
        if isinstance(c, PadicInt):
            if c.ring != self.scalar_ring:
                raise ValueError(f"element of {c.ring} used in {self}")
            return WittQuad(c.value, 0, self)
        if isinstance(c, int):
            return self.from_int(c)
        raise TypeError(f"cannot coerce {type(c).__name__} into {self}")

    def is_unit(self, z: "WittQuad") -> bool:
        z = self.coerce(z)
        return z.a % self.p != 0 or z.b % self.p != 0

    def inv(self, z: "WittQuad") -> "WittQuad":
        return self.coerce(z).inverse()

    def __eq__(self, other):
        return (isinstance(other, WittCtx) and other.base == self.base
                and other.N == self.N and other.G1 == self.G1
                and other.G0 == self.G0)

    def __hash__(self):
        return hash(("WittCtx", self.base, self.N, self.G1, self.G0))

    def __repr__(self):
        return f"W(F_{self.p}^2)/{self.p}^{self.N}"


class WittQuad:
    """a + b*omega in (Z/p^N)[x]/(G)."""

    __slots__ = ("a", "b", "ctx")

    def __init__(self, a: int, b: int, ctx: WittCtx):
        self.a = a % ctx.modulus
        self.b = b % ctx.modulus
        self.ctx = ctx

    def _same(self, other) -> "WittQuad":
        if isinstance(other, WittQuad):
            if other.ctx != self.ctx:
                raise ValueError(
                    f"mixed Witt contexts: {self.ctx} vs {other.ctx}")
            return other
        if isinstance(other, (PadicInt, int)):
            return self.ctx.coerce(other)
        return NotImplemented

    def __add__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return WittQuad(self.a + o.a, self.b + o.b, self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return WittQuad(self.a - o.a, self.b - o.b, self.ctx)

    def __rsub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return WittQuad(o.a - self.a, o.b - self.b, self.ctx)

    def __mul__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        M, G1, G0 = self.ctx.modulus, self.ctx.G1, self.ctx.G0
        bd = self.b * o.b
        return WittQuad((self.a * o.a - G0 * bd) % M,
                        (self.a * o.b + self.b * o.a - G1 * bd) % M,
                        self.ctx)

    __rmul__ = __mul__

    def __neg__(self):
        return WittQuad(-self.a, -self.b, self.ctx)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self) -> "WittQuad":
        """The Frobenius lift: a + b*omega -> (a - b*G1) - b*omega."""
        return WittQuad(self.a - self.b * self.ctx.G1, -self.b, self.ctx)

    def norm(self) -> PadicInt:
        M, G1, G0 = self.ctx.modulus, self.ctx.G1, self.ctx.G0
        n = (self.a * self.a - G1 * self.a * self.b
             + G0 * self.b * self.b) % M
        return self.ctx.scalar_ring.elem(n)

    def inverse(self) -> "WittQuad":
        n = self.norm().value
        if n % self.ctx.p == 0:
            raise ZeroDivisionError(f"{self!r} is not a unit")
        ninv = pow(n, -1, self.ctx.modulus)
        c = self.conj()
        return WittQuad(c.a * ninv, c.b * ninv, self.ctx)

    def reduce_mod_p(self) -> Fq2Elem:
        return self.ctx.base.elem(self.a, self.b)

    def reduce_precision(self, M: int) -> "WittQuad":
        ctx = lift_context(self.ctx.base, M)
        return ctx.elem(self.a, self.b)

    @property
    def is_scalar(self) -> bool:
        return self.b == 0

    def to_padic(self) -> PadicInt:
        if self.b != 0:
            raise ValueError(f"{self!r} is not in Z/p^N")
        return self.ctx.scalar_ring.elem(self.a)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, WittQuad):
            return (other.ctx == self.ctx and other.a == self.a
                    and other.b == self.b)
        if isinstance(other, (PadicInt, int)):
            o = self.ctx.coerce(other)
            return o.a == self.a and o.b == self.b
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.N, self.a, self.b))

    def __repr__(self):
        if self.b == 0:
            return f"{self.a} (in W/{self.ctx.p}^{self.ctx.N})"
        return f"{self.a}+{self.b}w (in W/{self.ctx.p}^{self.ctx.N})"


def _quad_pow(a, b, e, g1, g0, M):
    """(a + b x)^e in (Z/M)[x]/(x^2 + g1 x + g0)."""
    ra, rb = 1, 0
    while e:
        if e & 1:
            bd = rb * b
            ra, rb = (ra * a - g0 * bd) % M, (ra * b + rb * a - g1 * bd) % M
        e >>= 1
        if e:
            bd = b * b
            a, b = (a * a - g0 * bd) % M, (2 * a * b - g1 * bd) % M
    return ra, rb


@lru_cache(maxsize=None)
def lift_context(ctx: Fq2Ctx, N: int) -> WittCtx:
    """The Witt context over ctx at precision N.

    Working in (Z/p^N)[x]/(g-lift), the class of x is iterated through
    t -> t^(p^2) until fixed (one p-adic digit per step); the fixed point
    omega and its Frobenius conjugate omega^p are the Teichmuller roots,
    and G = (X - omega)(X - omega^p) has scalar coefficients.
    """
    if N < 1:
        raise ValueError("precision N must be >= 1")
    if N > MAX_LIFT_PRECISION:
        raise ValueError(f"precision capped at N <= {MAX_LIFT_PRECISION}")
    p = ctx.p
    M = p ** N
    g1, g0 = ctx.g1, ctx.g0
    ta, tb = 0, 1  # the class of x
    for _ in range(N + 2):
        na, nb = _quad_pow(ta, tb, p * p, g1, g0, M)
        if (na, nb) == (ta, tb):
            break
        ta, tb = na, nb
    else:
        raise ValidationError("Teichmuller iteration failed to stabilize")
    ca, cb = _quad_pow(ta, tb, p, g1, g0, M)  # conjugate root
    s1 = (ta + ca) % M
    s1b = (tb + cb) % M
    pr_bd = tb * cb
    pr_a = (ta * ca - g0 * pr_bd) % M
    pr_b = (ta * cb + tb * ca - g1 * pr_bd) % M
    if s1b or pr_b:
        raise ValidationError(
            "Teichmuller modulus G has non-scalar coefficients")
    wctx = WittCtx(ctx, N, -s1, pr_a)
    if wctx.elem(0, 1) ** (p * p - 1) != wctx.one():
        raise ValidationError(
            "class of x in (Z/p^N)[x]/(G) is not a (p^2-1)th root of unity")
    return wctx


def teichmuller(x, N: int):
    """The unique root-of-unity (or zero) lift with t^(p^2) = t (t^p = t
    in the prime-field case), reducing to x mod p."""
    if isinstance(x, FpElem):
        ring = PadicRing(x.field.p, N)
        t = x.value
        for _ in range(N + 2):
            nt = pow(t, x.field.p, ring.modulus)
            if nt == t:
                return ring.elem(t)
            t = nt
        raise ValidationError("Teichmuller iteration failed to stabilize")
    if isinstance(x, Fq2Elem):
        wctx = lift_context(x.ctx, N)
        p2 = x.ctx.p ** 2
        t = wctx.elem(x.a, x.b)
        for _ in range(N + 2):
            nt = t ** p2
            if nt == t:
                return t
            t = nt
        raise ValidationError("Teichmuller iteration failed to stabilize")
    raise TypeError("teichmuller wants an FpElem or Fq2Elem")


def witt_frobenius(z: WittQuad) -> WittQuad:
    """The unique lift of x -> x^p: root conjugation.  A ring involution
    reducing to frobenius_fq2 and fixing exactly the scalars."""
    return z.conj()


def hensel_root(f: Poly, r0):
    """Newton-lift a simple root: f(r0) = 0 mod p with f'(r0) a unit.

    f lives over PadicRing or WittCtx; r0 may be given in the same ring
    or as the mod-p root (FpElem / Fq2Elem), which is lifted naively.
    Quadratic convergence; at most ceil(log2 N) + 1 steps.  A root that
    is not simple, or not a root mod p, raises ValidationError.
    """
    ring = f.ring
    if isinstance(ring, PadicRing):
        p, N = ring.p, ring.N
        if isinstance(r0, FpElem):
            r0 = ring.elem(r0.value)
    elif isinstance(ring, WittCtx):
        p, N = ring.p, ring.N
        if isinstance(r0, Fq2Elem):
            r0 = ring.elem(r0.a, r0.b)
    else:
        raise TypeError("hensel_root wants a polynomial over Z/p^N or W/p^N")
    r = ring.coerce(r0)
    fp = f.derivative()
    if not ring.is_unit(fp.evaluate(r)):
        raise ValidationError(
            "root is not simple: f'(r0) is not a unit mod p")
    fr = f.evaluate(r)
    if isinstance(ring, PadicRing):
        bad = fr.value % p != 0
    else:
        bad = fr.a % p != 0 or fr.b % p != 0
    if bad:
        raise ValidationError("r0 is not a root of f mod p")
    steps = max(1, N.bit_length() + 1)
    for _ in range(steps):
        fr = f.evaluate(r)
        if not fr:
            break
        r = r - fr * ring.inv(fp.evaluate(r))
    if f.evaluate(r):
        raise ValidationError("Hensel iteration did not reach a root")
    return r


def _teich_roots(p: int, N: int):
    """Teichmuller lifts of the supersingular j-values, sorted by their
    canonical (a, b) representation."""
    locus = sslocus.cross_validate(p)
    wctx = lift_context(fq2_context(p), N)
    js = sorted(locus.j_values, key=lambda z: (z.a, z.b))
    return locus, wctx, [teichmuller(j, N) for j in js]


@lru_cache(maxsize=None)
def lift_ss_poly(p: int, N: int) -> Poly:
    """S_p-hat: the monic polynomial over W(F_{p^2})/p^N whose roots are
    the Teichmuller lifts of the supersingular j-invariants.

    Validates that (i) the coefficients are Frobenius-fixed, so the
    polynomial descends to Z/p^N, (ii) the reduction mod p is the
    supersingular polynomial, (iii) the discriminant is a unit, and
    (iv) Hensel lifting of each mod-p root lands on the Teichmuller lift.
    """
    if not (3 < p <= MAX_EISENSTEIN_PRIME) or not is_prime(p):
        raise ValueError(f"lift_ss_poly wants a prime 3 < p <= "
                         f"{MAX_EISENSTEIN_PRIME}")
    if not 1 <= N <= MAX_LIFT_PRECISION:
        raise ValueError(f"precision must satisfy 1 <= N <= "
                         f"{MAX_LIFT_PRECISION}")
    locus, wctx, roots = _teich_roots(p, N)
    shat = Poly(wctx, [wctx.one()])
    for r in roots:
        shat = shat * Poly(wctx, [-r, wctx.one()])
    for i, c in enumerate(shat.coeffs):
        if witt_frobenius(c) != c:
            raise ValidationError(
                f"lift_ss_poly({p},{N}): coefficient of X^{i} is not "
                f"Frobenius-fixed")
    red = shat.map_coeffs(lambda c: c.reduce_mod_p().to_fp(),
                          PrimeField(p))
    if red != locus.ss_poly:
        raise ValidationError(
            f"lift_ss_poly({p},{N}): reduction mod p differs from the "
            f"supersingular polynomial")
    disc = wctx.one()
    for i in range(len(roots)):
        for k in range(i + 1, len(roots)):
            d = roots[i] - roots[k]
            disc = disc * d * d
    if roots and not wctx.is_unit(disc):
        raise ValidationError(
            f"lift_ss_poly({p},{N}): discriminant is not a unit — roots "
            f"are not simple")
    for jbar, r in zip(
            sorted(locus.j_values, key=lambda z: (z.a, z.b)), roots):
        if hensel_root(shat, jbar) != r:
            raise ValidationError(
                f"lift_ss_poly({p},{N}): Hensel lift of {jbar!r} is not "
                f"the Teichmuller lift")
    return shat


@lru_cache(maxsize=None)
def splitting_idempotents(p: int, N: int) -> tuple:
    """The sigma(p) complete orthogonal Lagrange idempotents of
    W(F_{p^2})/p^N [X] / (S_p-hat): the finite-level shadow of the
    sigma(p)-fold product splitting of the completed ring.

    Verifies e_i^2 = e_i, e_i e_j = 0 and sum e_i = 1 modulo
    (p^N, S_p-hat)."""
    if not (3 < p <= MAX_SPLIT_PRIME) or not is_prime(p):
        raise ValueError(
            f"splitting_idempotents wants a prime 3 < p <= "
            f"{MAX_SPLIT_PRIME}")
    if not 1 <= N <= MAX_SPLIT_PRECISION:
        raise ValueError(f"precision must satisfy 1 <= N <= "
                         f"{MAX_SPLIT_PRECISION}")
    shat = lift_ss_poly(p, N)
    _, wctx, roots = _teich_roots(p, N)
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
    total = Poly(wctx, [])
    for i, e in enumerate(idems):
        if ((e * e).divrem(shat)[1]) != e:
            raise ValidationError(
                f"splitting_idempotents({p},{N}): e_{i} is not idempotent")
        for k in range(i + 1, len(idems)):
            if not ((e * idems[k]).divrem(shat)[1]).is_zero():
                raise ValidationError(
                    f"splitting_idempotents({p},{N}): e_{i} e_{k} != 0")
        total = total + e
    if total != Poly(wctx, [wctx.one()]):
        raise ValidationError(
            f"splitting_idempotents({p},{N}): idempotents do not sum to 1")
    return tuple(idems)
