"""The field F_p and the unramified quadratic rings over Z/p^N, for
primes p > 3.

Quad(p, g0, N) is (Z/p^N)[x]/(x^2 + g0), on ints mod p^N, with -g0 a
non-residue mod p: the field F_{p^2} at N = 1, and W(F_{p^2})/p^N when
-g0 is the Teichmuller lift omega(n) that padicwitt.lift_context
computes; it is the one coefficient ring of Poly and QSeries.  Every
F_{p^2} model here is x^2 = n for a non-residue n, so the Frobenius
z -> z^p (and its lift to W) is a + b*xbar -> a - b*xbar.  F_p
residues are ints: Zmod(p) is F_p only as the type that
QuadElem.to_fp returns, and its elements carry a value and a product.

An operation takes ints and elements of its own ring alone: an element
of another ring of its class raises ValueError instead of guessing, and
any other operand, an element of F_p in a Quad included, TypeError (and
compares unequal).  The F_{p^2} model is selected deterministically per
prime by fq2_context() so that serialized data is reproducible:
x^2 + 1 when p = 3 mod 4, otherwise x^2 - n with n the smallest
quadratic non-residue.

rth_root is the one root routine, square and cube roots in F_{p^2}
(an F_p square has its two roots in F_p, so it serves F_p too), and
is_quadratic_residue, on an int, the one residue test: no fact is
decided twice.  rth_root returns some root, not a canonical one, so
its callers use +-r alike.

All values are immutable.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import count
from operator import itemgetter

__all__ = [
    "record",
    "is_prime",
    "require_prime",
    "power",
    "Zmod",
    "ZmodElem",
    "Quad",
    "QuadElem",
    "is_quadratic_residue",
    "has_sqrt3",
    "fq2_context",
    "rth_root",
]


def record(name: str, fields: str, defaults=()) -> type:
    """A tuple type named `name`, of the calling module, with one
    read-only property per field of the space-separated `fields`, as
    collections.namedtuple builds but without compiling a constructor
    by eval: it takes its values by position or keyword, the last
    len(defaults) of them optional, and _replace(**changes) copies a
    record with some fields changed.  A record equals and hashes as the
    plain tuple of its values and has the namedtuple's repr; it has no
    _fields, _asdict or _make, and copy.copy and unpickling raise
    TypeError, since nothing uses them."""
    names, missing = tuple(fields.split()), object()
    slots = (missing,) * (len(names) - len(defaults)) + tuple(defaults)

    def __new__(cls, *args, **kwargs):
        k = len(args)
        values = args + tuple(map(kwargs.pop, names[k:], slots[k:]))
        if kwargs or len(values) != len(names) or any(
                v is missing for v in values):
            raise TypeError(f"{name} takes the fields {fields!r}")
        return tuple.__new__(cls, values)

    def _replace(self, **changes):
        new = tuple.__new__(type(self), map(changes.pop, names, self))
        if changes:
            raise ValueError(f"{name} has no fields {sorted(changes)}")
        return new

    def __repr__(self):
        return f"{name}({', '.join(map('{}={!r}'.format, names, self))})"

    namespace = {"__slots__": (), "__new__": __new__, "_replace": _replace,
                 "__repr__": __repr__,
                 "__module__": sys._getframe(1).f_globals["__name__"]}
    for i, field in enumerate(names):
        namespace[field] = property(itemgetter(i))
    return type(name, (tuple,), namespace)


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
    squarings and one product per set bit after the lowest.  The power
    loop of QSeries; QuadElem runs the same loop on int pairs."""
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
    """The field F_p for a prime p > 3, as the ring of what
    QuadElem.to_fp returns.  It is no ring to compute in: F_p residues
    are ints everywhere else."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        require_prime(p, "Zmod")
        self.p = p

    def elem(self, value: int) -> "ZmodElem":
        return ZmodElem(value, self)

    def __eq__(self, other):
        return isinstance(other, Zmod) and other.p == self.p

    def __repr__(self):
        return f"F_{self.p}"


class ZmodElem:
    """A residue mod p, pinned to its field, and its products."""

    __slots__ = ("value", "ring")

    def __init__(self, value: int, ring: Zmod):
        self.value = value % ring.p
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

    def __mul__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return ZmodElem(self.value * o.value, self.ring)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{self.value} (mod {self.ring.p})"


def is_quadratic_residue(a: int, p: int) -> bool:
    """Euler criterion a^((p-1)/2) = 1 mod the prime p.  Zero is
    rejected: it is neither a residue nor a non-residue under this
    contract."""
    if not a % p:
        raise ValueError(f"is_quadratic_residue({a}, {p}) is undefined")
    return pow(a, (p - 1) // 2, p) == 1


def has_sqrt3(p: int) -> bool:
    """Whether 3 is a square mod p (p > 3 prime).  Classically equivalent
    to p = +-1 mod 12, which the acceptance suite checks exhaustively."""
    require_prime(p, "has_sqrt3")
    return is_quadratic_residue(3, p)


class Quad:
    """(Z/p^N)[x]/(x^2 + g0) with -g0 a non-residue mod p: F_{p^2} at
    N = 1, and W(F_{p^2})/p^N when -g0 is a Teichmuller lift.

    Elements are a + b*xbar with a and b ints mod p^N = modulus.
    Irreducibility is certified at construction by -g0 being a
    non-residue mod p.
    """

    __slots__ = ("p", "N", "modulus", "g0")

    def __init__(self, p: int, g0: int, N: int = 1):
        require_prime(p, "Quad")
        if N < 1:
            raise ValueError("precision N must be >= 1")
        self.p = p
        self.N = N
        self.modulus = p ** N
        self.g0 = g0 % self.modulus
        if g0 % p == 0 or is_quadratic_residue(-g0, p):
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
        """x as an element of this ring: an element of it or an int, or a
        residue in self.at(1) lifted coordinatewise.  An element of any
        other Quad raises ValueError."""
        if isinstance(x, QuadElem) and x.ring == self.at(1):
            return QuadElem(x.a, x.b, self)
        return self.coerce(x)

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
        if isinstance(other, int):
            return QuadElem(other, 0, self.ring)
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
        """Square-and-multiply on the int pair (a, b) mod p^N, right to
        left; one element is built, at the end."""
        if e < 0:
            return self.inverse() ** (-e)
        r = self.ring
        m, g0 = r.modulus, r.g0
        a, b, ra, rb = self.a, self.b, 1, 0
        while e:
            if e & 1:
                ra, rb = (ra * a - g0 * rb * b) % m, (ra * b + rb * a) % m
            e >>= 1
            if e:
                a, b = (a * a - g0 * b * b) % m, 2 * a * b % m
        return QuadElem(ra, rb, r)

    def norm(self) -> int:
        """z * conj(z), a scalar, as an int mod p^N."""
        r = self.ring
        return (self.a * self.a + r.g0 * self.b * self.b) % r.modulus

    def conj(self) -> "QuadElem":
        """The conjugate a + b*xbar -> a - b*xbar: z^p on F_{p^2}, and the
        Frobenius lift on W(F_{p^2})/p^N."""
        return QuadElem(self.a, -self.b, self.ring)

    def inverse(self) -> "QuadElem":
        """Raises ValueError when self is not a unit."""
        n = self.norm()
        if n % self.ring.p == 0:
            raise ValueError(f"{self!r} is not a unit")
        ninv = pow(n, -1, self.ring.modulus)
        c = self.conj()
        return QuadElem(c.a * ninv, c.b * ninv, self.ring)

    @property
    def in_prime_field(self) -> bool:
        """Whether self is a scalar (in F_p at N = 1)."""
        return self.b == 0

    def to_fp(self) -> ZmodElem:
        """A scalar of F_{p^2} as an element of F_p."""
        if self.ring.N != 1 or self.b != 0:
            raise ValueError(f"{self!r} is not in the prime field")
        return Zmod(self.ring.p).elem(self.a)

    def reduce_precision(self, M: int) -> "QuadElem":
        return QuadElem(self.a, self.b, self.ring.at(M))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            return (other.ring == self.ring and other.a == self.a
                    and other.b == self.b)
        if isinstance(other, int):
            return self.b == 0 and self.a == other % self.ring.modulus
        return NotImplemented

    def __hash__(self):
        # a scalar (b = 0) hashes as its canonical int
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


# bench/tracer.py counts products by wrapping FpElem.__mul__ (which no
# command calls) and Fq2Elem.__mul__ under these names; ROADMAP item 1
# retires them.
FpElem = ZmodElem
Fq2Elem = QuadElem


@lru_cache(maxsize=None)
def fq2_context(p: int) -> Quad:
    """Deterministic F_{p^2} model: x^2 + 1 when p = 3 mod 4, otherwise
    x^2 - n with n the smallest quadratic non-residue (ascending scan)."""
    require_prime(p, "fq2_context")
    if p % 4 == 3:
        return Quad(p, 1)
    return Quad(p, -next(n for n in count(2)
                         if not is_quadratic_residue(n, p)))


@lru_cache(maxsize=None)
def _sylow(ring: Quad, r: int) -> tuple:
    """(e, t, c, zeta): |F_{p^2}^*| = r^e t with r not dividing t, c = g^t
    generates the r-Sylow subgroup and zeta = c^(r^(e-1)), for the first
    g = a + b*xbar that is not an r-th power, with b != 0 (b = 1, 2, ...,
    a = 0..p-1): F_p is skipped, since when p = 2 mod 3 every element of
    F_p is a cube."""
    p, order = ring.p, ring.size - 1
    e, t = 0, order
    while t % r == 0:
        t //= r
        e += 1
    gs = (ring.elem(a, b) for b in count(1) for a in range(p))
    c = next(g for g in gs if g ** (order // r) != 1) ** t
    return e, t, c, c ** (r ** (e - 1))


def rth_root(x, r: int):
    """An r-th root of x in F_{p^2}, for a prime r, by the method
    of Adleman, Manders and Miller (1977): Tonelli-Shanks at r = 2.  The
    package's one square and cube root.  Which root comes back is the
    one the loop below reaches, not a canonical representative such as
    the least one in [0, p).

    With |ring^*| = r^e t and r u = 1 mod t, y = x^u has y^r = x b for
    b = x^(r u - 1) in the r-Sylow subgroup, generated by c (_sylow).
    x is an r-th power exactly when b is, that is when
    b^(r^(e-1)) = 1.  Then, for k = e - 1 down to 1, b has order
    dividing r^k, and top = b^(r^(k-1)) is a power of
    zeta = c^(r^(e-1)); c_k = c^(r^(e-k-1)) has (c_k^r)^(r^(k-1)) = zeta,
    so for the one s in 0..r-1 with zeta^s top = 1, y c_k^s and
    b c_k^(rs) keep y^r = x b and take b into order dividing r^(k-1).
    At the end b = 1 and y is the root; when e = 1 that is y = x^u at
    once.  An x in F_p is passed as a scalar of F_{p^2}; its square
    roots lie in F_p exactly when it is a square there.  Zero returns
    zero; an x that is not an r-th power raises ValueError, as does any
    x outside F_{p^2}, an element of W(F_{p^2})/p^N included."""
    if not isinstance(x, QuadElem) or x.ring.N != 1:
        raise ValueError(f"rth_root wants F_p^2, not {x!r}")
    ring = x.ring
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
