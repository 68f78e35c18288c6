"""Residue rings Z/p^N and their unramified quadratic extensions, for odd
primes p > 3.

Zmod(p, N) is Z/p^N; at N = 1, the default, it is the field F_p.
Quad(p, g0, N) is (Z/p^N)[x]/(x^2 + g0) with -g0 a non-residue mod p:
the field F_{p^2} at N = 1, and W(F_{p^2})/p^N when -g0 is the
Teichmuller lift omega(n) that padicwitt.lift_context builds.  Every
F_{p^2} model here is x^2 = n for a non-residue n, so the Frobenius
z -> z^p (and its lift to W) is a + b*xbar -> a - b*xbar.

Elements carry their ring and never coerce across moduli: an operation
mixing two different rings raises ValueError instead of guessing.  The
F_{p^2} model is selected deterministically per prime by fq2_context()
so that serialized data is reproducible: x^2 + 1 when p = 3 mod 4,
otherwise x^2 - n with n the smallest quadratic non-residue.

rth_root gives every square root (sqrt_mod, sqrt_fq2) and cube root, and
is_quadratic_residue every residue test: no fact is decided twice.

All values are immutable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count

__all__ = [
    "is_prime",
    "require_prime",
    "power",
    "Zmod",
    "ZmodElem",
    "Quad",
    "QuadElem",
    "is_quadratic_residue",
    "sqrt_mod",
    "has_sqrt3",
    "fq2_context",
    "sqrt_fq2",
    "rth_root",
]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def power(x, e: int):
    """x^e for e >= 1 by squaring, right to left: e.bit_length() - 1
    squarings and one product per set bit after the lowest.  The one
    power loop of QuadElem, Poly and QSeries."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if e:
            x = x * x
    return result


def require_prime(p: int, what: str, bound: int | None = None) -> None:
    """Raise ValueError naming the entry point `what` unless p is a prime
    with 3 < p (and p <= bound when a bound is given)."""
    if p <= 3 or (bound is not None and p > bound) or not is_prime(p):
        top = "" if bound is None else f" <= {bound}"
        raise ValueError(f"{what} wants a prime 3 < p{top}, got {p}")


class Zmod:
    """Z/p^N for a prime p > 3; the field F_p at N = 1.

    Also serves as the coefficient-ring context consumed by Poly and
    QSeries: zero/one/from_int/coerce/is_unit/inv.
    """

    __slots__ = ("p", "N", "modulus")

    def __init__(self, p: int, N: int = 1):
        require_prime(p, "Zmod")
        if N < 1:
            raise ValueError("precision N must be >= 1")
        self.p = p
        self.N = N
        self.modulus = p ** N

    @property
    def size(self) -> int:
        return self.modulus

    def elem(self, value: int) -> "ZmodElem":
        return ZmodElem(value, self)

    # ring protocol
    def zero(self) -> "ZmodElem":
        return ZmodElem(0, self)

    def one(self) -> "ZmodElem":
        return ZmodElem(1, self)

    def from_int(self, n: int) -> "ZmodElem":
        return ZmodElem(n, self)

    def coerce(self, c) -> "ZmodElem":
        if isinstance(c, ZmodElem):
            if c.ring != self:
                raise ValueError(f"element of {c.ring} used in {self}")
            return c
        if isinstance(c, int):
            return ZmodElem(c, self)
        raise TypeError(f"cannot coerce {type(c).__name__} into {self}")

    def is_unit(self, a: "ZmodElem") -> bool:
        return self.coerce(a).value % self.p != 0

    def inv(self, a: "ZmodElem") -> "ZmodElem":
        return self.coerce(a).inverse()

    def at(self, M: int) -> "Zmod":
        """This ring at the lower precision M <= N."""
        if M > self.N:
            raise ValueError("cannot raise precision by reduction")
        return Zmod(self.p, M)

    def lift(self, x) -> "ZmodElem":
        """x as an element of this ring: an element of it, an int, or a
        residue in self.at(1) lifted to its [0, p) representative.  An
        element of any other ring raises ValueError."""
        if isinstance(x, ZmodElem) and x.ring == self.at(1):
            return ZmodElem(x.value, self)
        return self.coerce(x)

    def elements(self):
        for v in range(self.modulus):
            yield ZmodElem(v, self)

    def __eq__(self, other):
        return (isinstance(other, Zmod) and other.p == self.p
                and other.N == self.N)

    def __hash__(self):
        return hash(("Zmod", self.p, self.N))

    def __repr__(self):
        return f"F_{self.p}" if self.N == 1 else f"Z/{self.p}^{self.N}"


class ZmodElem:
    """A residue mod p^N, pinned to its ring."""

    __slots__ = ("value", "ring")

    def __init__(self, value: int, ring: Zmod):
        self.value = value % ring.modulus
        self.ring = ring

    def _same(self, other) -> "ZmodElem":
        if isinstance(other, ZmodElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError(
                    f"mixed moduli: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return ZmodElem(other, self.ring)
        return NotImplemented

    def __add__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return ZmodElem(self.value + o.value, self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return ZmodElem(self.value - o.value, self.ring)

    def __rsub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return ZmodElem(o.value - self.value, self.ring)

    def __mul__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return ZmodElem(self.value * o.value, self.ring)

    __rmul__ = __mul__

    def __neg__(self):
        return ZmodElem(-self.value, self.ring)

    def __pow__(self, e: int):
        return ZmodElem(pow(self.value, e, self.ring.modulus), self.ring)

    def __truediv__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        m = self.ring.modulus
        return ZmodElem(self.value * pow(o.value, -1, m), self.ring)

    def inverse(self) -> "ZmodElem":
        """Raises ValueError when self is not a unit."""
        return ZmodElem(pow(self.value, -1, self.ring.modulus), self.ring)

    def reduce_precision(self, M: int) -> "ZmodElem":
        return ZmodElem(self.value, self.ring.at(M))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, ZmodElem):
            return other.ring == self.ring and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.ring.modulus
        return NotImplemented

    def __hash__(self):
        # equal objects hash equal: an element hashes as its canonical
        # int, as does the scalar QuadElem it equals.  A non-canonical int
        # (8 == F_5(3)) compares equal but hashes apart.
        return hash(self.value)

    def __repr__(self):
        r = self.ring
        mod = r.p if r.N == 1 else f"{r.p}^{r.N}"
        return f"{self.value} (mod {mod})"


def is_quadratic_residue(a: ZmodElem) -> bool:
    """Euler criterion a^((p-1)/2) = 1.  Zero, and any non-unit of
    Z/p^N, is rejected: it is neither a residue nor a non-residue under
    this contract."""
    p = a.ring.p
    if a.value % p == 0:
        raise ValueError(f"is_quadratic_residue({a.value}) is undefined")
    return pow(a.value, (p - 1) // 2, p) == 1


def sqrt_mod(a: ZmodElem) -> ZmodElem:
    """Square root of a residue in F_p, canonical representative
    min(r, p-r), by rth_root at r = 2 (Tonelli-Shanks), which alone
    decides whether a is a residue.  a = 0 returns 0; non-residues raise
    ValueError, as does an element of Z/p^N with N > 1."""
    p = a.ring.p
    if a.ring.N != 1:
        raise ValueError(f"sqrt_mod wants an element of F_{p}, not {a.ring}")
    if a.value == 0:
        return a.ring.zero()
    try:
        r = rth_root(a, 2).value
    except ValueError:
        raise ValueError(f"{a.value} is not a quadratic residue mod {p}")
    return a.ring.elem(min(r, p - r))


def has_sqrt3(p: int) -> bool:
    """Whether 3 is a square mod p (p > 3 prime).  Classically equivalent
    to p = +-1 mod 12, which the acceptance suite checks exhaustively."""
    require_prime(p, "has_sqrt3")
    return is_quadratic_residue(Zmod(p).elem(3))


class Quad:
    """(Z/p^N)[x]/(x^2 + g0) with -g0 a non-residue mod p: F_{p^2} at
    N = 1, and W(F_{p^2})/p^N when -g0 is a Teichmuller lift.

    Elements are a + b*xbar over the scalar ring field = Zmod(p, N).
    Irreducibility is certified at construction by -g0 being a
    non-residue mod p.
    """

    __slots__ = ("p", "N", "modulus", "g0", "field")

    def __init__(self, p: int, g0: int, N: int = 1):
        self.field = Zmod(p, N)
        self.p = p
        self.N = N
        self.modulus = self.field.modulus
        self.g0 = g0 % self.modulus
        if g0 % p == 0 or is_quadratic_residue(self.field.elem(-g0)):
            raise ValueError(f"x^2 + {self.g0} is reducible over F_{p}")

    @property
    def size(self) -> int:
        return self.modulus * self.modulus

    def elem(self, a: int, b: int = 0) -> "QuadElem":
        return QuadElem(a, b, self)

    # ring protocol
    def zero(self) -> "QuadElem":
        return QuadElem(0, 0, self)

    def one(self) -> "QuadElem":
        return QuadElem(1, 0, self)

    def from_int(self, n: int) -> "QuadElem":
        return QuadElem(n, 0, self)

    def coerce(self, c) -> "QuadElem":
        if isinstance(c, QuadElem):
            if c.ring != self:
                raise ValueError(f"element of {c.ring} used in {self}")
            return c
        if isinstance(c, ZmodElem):
            if c.ring != self.field:
                raise ValueError(f"cannot embed {c.ring} into {self}")
            return QuadElem(c.value, 0, self)
        if isinstance(c, int):
            return QuadElem(c, 0, self)
        raise TypeError(f"cannot coerce {type(c).__name__} into {self}")

    def is_unit(self, z: "QuadElem") -> bool:
        z = self.coerce(z)
        return z.a % self.p != 0 or z.b % self.p != 0

    def inv(self, z: "QuadElem") -> "QuadElem":
        return self.coerce(z).inverse()

    def at(self, M: int) -> "Quad":
        """This ring at the lower precision M <= N (g reduced mod p^M)."""
        if M > self.N:
            raise ValueError("cannot raise precision by reduction")
        return Quad(self.p, self.g0, M)

    def lift(self, x) -> "QuadElem":
        """x as an element of this ring: as Zmod.lift, a residue in
        self.at(1) is lifted coordinatewise."""
        if isinstance(x, QuadElem) and x.ring == self.at(1):
            return QuadElem(x.a, x.b, self)
        return self.coerce(x)

    def elements(self):
        for a in range(self.modulus):
            for b in range(self.modulus):
                yield QuadElem(a, b, self)

    def __eq__(self, other):
        return (isinstance(other, Quad) and other.p == self.p
                and other.N == self.N and other.g0 == self.g0)

    def __hash__(self):
        return hash(("Quad", self.p, self.N, self.g0))

    def __repr__(self):
        if self.N == 1:
            return f"F_{self.p}^2[x^2+{self.g0}]"
        return f"W(F_{self.p}^2)/{self.p}^{self.N}"


class QuadElem:
    """a + b*xbar in (Z/p^N)[x]/(x^2 + g0); immutable."""

    __slots__ = ("a", "b", "ring")

    def __init__(self, a: int, b: int, ring: Quad):
        self.a = a % ring.modulus
        self.b = b % ring.modulus
        self.ring = ring

    def _same(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError(
                    f"mixed contexts: {self.ring} vs {other.ring}")
            return other
        if isinstance(other, (ZmodElem, int)):
            return self.ring.coerce(other)
        return NotImplemented

    def __add__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return QuadElem(self.a + o.a, self.b + o.b, self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return QuadElem(self.a - o.a, self.b - o.b, self.ring)

    def __rsub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return QuadElem(o.a - self.a, o.b - self.b, self.ring)

    def __mul__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return QuadElem(self.a * o.a - self.ring.g0 * self.b * o.b,
                        self.a * o.b + self.b * o.a, self.ring)

    __rmul__ = __mul__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.ring)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e) if e else self.ring.one()

    def __truediv__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def norm(self) -> ZmodElem:
        """z * conj(z), a scalar."""
        r = self.ring
        return r.field.elem(self.a * self.a + r.g0 * self.b * self.b)

    def conj(self) -> "QuadElem":
        """The conjugate a + b*xbar -> a - b*xbar: z^p on F_{p^2}, and the
        Frobenius lift on W(F_{p^2})/p^N."""
        return QuadElem(self.a, -self.b, self.ring)

    def inverse(self) -> "QuadElem":
        n = self.norm().value
        if n % self.ring.p == 0:
            raise ZeroDivisionError(f"{self!r} is not a unit")
        ninv = pow(n, -1, self.ring.modulus)
        c = self.conj()
        return QuadElem(c.a * ninv, c.b * ninv, self.ring)

    @property
    def in_prime_field(self) -> bool:
        """Whether self is a scalar (in F_p at N = 1)."""
        return self.b == 0

    def to_fp(self) -> ZmodElem:
        if self.b != 0:
            raise ValueError(f"{self!r} is not in the prime field")
        return self.ring.field.elem(self.a)

    def reduce_precision(self, M: int) -> "QuadElem":
        return QuadElem(self.a, self.b, self.ring.at(M))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            return (other.ring == self.ring and other.a == self.a
                    and other.b == self.b)
        if isinstance(other, ZmodElem):  # False for a scalar of another ring
            return (other.ring == self.ring.field and self.b == 0
                    and other.value == self.a)
        if isinstance(other, int):
            return self.b == 0 and self.a == other % self.ring.modulus
        return NotImplemented

    def __hash__(self):
        # a scalar (b = 0) hashes as its ZmodElem and its canonical int
        if not self.b:
            return hash(self.a)
        return hash((self.ring.p, self.ring.N, self.a, self.b))

    def __repr__(self):
        r = self.ring
        where, x = ((f"F_{r.p}^2", "x") if r.N == 1
                    else (f"W/{r.p}^{r.N}", "w"))
        if self.b == 0:
            return f"{self.a} (in {where})"
        return f"{self.a}+{self.b}{x} (in {where})"


# bench/tracer.py counts products by wrapping FpElem.__mul__ and
# Fq2Elem.__mul__ under these names; ROADMAP item 1 retires them.
FpElem = ZmodElem
Fq2Elem = QuadElem


@lru_cache(maxsize=None)
def fq2_context(p: int) -> Quad:
    """Deterministic F_{p^2} model: x^2 + 1 when p = 3 mod 4, otherwise
    x^2 - n with n the smallest quadratic non-residue (ascending scan)."""
    require_prime(p, "fq2_context")
    if p % 4 == 3:
        return Quad(p, 1)
    F = Zmod(p)
    return Quad(p, -next(n for n in count(2)
                         if not is_quadratic_residue(F.elem(n))))


def sqrt_fq2(z: QuadElem) -> QuadElem:
    """A square root of z = A + B*xbar in F_{p^2}, where xbar^2 = -g0 is
    a non-residue.

    (a + b*xbar)^2 = (a^2 - g0*b^2) + 2ab*xbar, and the norm
    A^2 + g0*B^2 is the square of n = +-(a^2 + g0*b^2).  So z is a square
    exactly when its norm is one in F_p, and then a^2 = (A +- n)/2: for
    B != 0 the two candidates multiply to -g0*B^2/4, a non-residue, so
    exactly one is a square (one Euler test); sqrt_mod on the norm finds
    whether z is one.  Non-squares raise ValueError, as does W(F_{p^2})/p^N."""
    ring = z.ring
    if ring.N != 1:
        raise ValueError(f"sqrt_fq2 wants F_p^2, not {ring}")
    p, g0, field = ring.p, ring.g0, ring.field
    A, B = z.a, z.b
    if B == 0:
        if A == 0 or is_quadratic_residue(field.elem(A)):
            return ring.coerce(sqrt_mod(field.elem(A)))
        return ring.elem(0, sqrt_mod(field.elem(-A * pow(g0, -1, p))).value)
    try:
        n = sqrt_mod(field.elem(A * A + g0 * B * B)).value
    except ValueError:
        raise ValueError(f"{z!r} is not a square in {ring}")
    inv2 = (p + 1) // 2  # 1/2 mod p
    t = field.elem((A + n) * inv2)
    if not is_quadratic_residue(t):
        t = field.elem((A - n) * inv2)
    a = sqrt_mod(t).value
    return ring.elem(a, B * pow(2 * a, -1, p))


@lru_cache(maxsize=None)
def _sylow(ring, r: int) -> tuple:
    """(e, t, c, zeta): |ring^*| = r^e t with r not dividing t, c = g^t
    generates the r-Sylow subgroup and zeta = c^(r^(e-1)), for the first
    g that is not an r-th power: g = 2, 3, ... in F_p, and g = a + b*xbar
    with b != 0 (b = 1, 2, ..., a = 0..p-1) in F_{p^2}, skipping F_p:
    when p = 2 mod 3 every element of F_p is a cube."""
    p, order = ring.p, ring.size - 1
    e, t = 0, order
    while t % r == 0:
        t //= r
        e += 1
    if isinstance(ring, Quad):
        gs = (ring.elem(a, b) for b in count(1) for a in range(p))
    else:
        gs = map(ring.elem, count(2))
    c = next(g for g in gs if g ** (order // r) != 1) ** t
    return e, t, c, c ** (r ** (e - 1))


def rth_root(x, r: int):
    """An r-th root of x in F_p or F_{p^2}, for a prime r, by the method
    of Adleman, Manders and Miller (1977): Tonelli-Shanks at r = 2.

    With |ring^*| = r^e t and r u = 1 mod t, y = x^u has y^r = x b for
    b = x^(r u - 1) in the r-Sylow subgroup, generated by c (_sylow).
    x is an r-th power exactly when b is, that is when
    b^(r^(e-1)) = 1.  Then, for k = e - 1 down to 1, b has order
    dividing r^k, and top = b^(r^(k-1)) is a power of
    zeta = c^(r^(e-1)); c_k = c^(r^(e-k-1)) has (c_k^r)^(r^(k-1)) = zeta,
    so for the one s in 0..r-1 with zeta^s top = 1, y c_k^s and
    b c_k^(rs) keep y^r = x b and take b into order dividing r^(k-1).
    At the end b = 1 and y is the root; when e = 1 that is y = x^u at
    once.  Zero returns zero; an x that is not an r-th power raises
    ValueError, as does Z/p^N or W(F_{p^2})/p^N."""
    ring = x.ring
    if ring.N != 1:
        raise ValueError(f"rth_root wants F_p or F_p^2, not {ring}")
    if not x:
        return x
    e, t, c, zeta = _sylow(ring, r)
    y = x ** pow(r, -1, t)
    b = y ** r * x.inverse()
    if b ** (r ** (e - 1)) != 1:
        raise ValueError(f"{x!r} is not an r-th power, r = {r}, in {ring}")
    for k in range(e - 1, 0, -1):
        top, s = b ** (r ** (k - 1)), 0
        while top != 1:  # the s with zeta^s top = 1
            top, s = top * zeta, s + 1
        if s:
            ck = c ** (r ** (e - k - 1))
            y, b = y * ck ** s, b * ck ** (r * s)
    return y
