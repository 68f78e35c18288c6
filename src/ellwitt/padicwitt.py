"""Teichmuller and Hensel lifts into W(F_{p^2})/p^N, the lifted
supersingular polynomial, and its finite-level idempotent splitting.

The ring comes from arith: W(F_{p^2})/p^N is Quad(p, -omega(n), N) =
(Z/p^N)[X]/(X^2 - omega(n)) over the F_{p^2} model x^2 = n, with
omega(n) = n^(p^(N-1)) mod p^N, an int, the Teichmuller lift of n; an
element of F_p is lifted as a scalar of F_{p^2}.
As the lift is multiplicative, the roots +-sqrt(omega(n)) of that
modulus are the Teichmuller lifts of the roots +-sqrt(n) of x^2 - n.
Ring operations are plain quadratic arithmetic, Frobenius is root
conjugation (QuadElem.conj), and no Witt addition polynomials are ever
needed.  The j-set, its bound and prod (X - r) come from sslocus.
Contexts and Teichmuller roots are built once per (p, N) and shared;
all values are immutable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .arith import Quad, fq2_context, require_prime
from .errors import ValidationError
from .polyseries import Poly
from . import sslocus

__all__ = [
    "lift_context", "teichmuller", "hensel_root",
    "lift_ss_poly", "splitting_idempotents",
    "MAX_LIFT_PRECISION", "MAX_SPLIT_PRIME", "MAX_SPLIT_PRECISION",
]

MAX_LIFT_PRECISION = 64
MAX_SPLIT_PRIME = 47
MAX_SPLIT_PRECISION = 32


def _fixed_point(t, q: int, N: int):
    """Iterate t -> t^q until it is fixed; each step fixes one more
    p-adic digit, so N + 2 steps suffice at precision N."""
    for _ in range(N + 2):
        nt = t ** q
        if nt == t:
            return t
        t = nt
    raise ValidationError("Teichmuller iteration failed to stabilize")


@lru_cache(maxsize=None)
def lift_context(ctx: Quad, N: int) -> Quad:
    """The Witt context over the F_{p^2} model ctx, x^2 = n, at
    precision N: the modulus G = X^2 - omega(n) in Z/p^N.

    omega(n) = n^(p^(N-1)) mod p^N: t -> t^p fixes n^(p^k) mod p^(k+1),
    so this power is the one (p-1)th root of unity mod p^N that reduces
    to n.  omega is multiplicative, so omega(sqrt(n))^2 = omega(n) and
    omega(-sqrt(n)) = -omega(sqrt(n)): G is the product of X minus the
    Teichmuller lifts of the two roots of x^2 - n.
    """
    if N < 1:
        raise ValueError("precision N must be >= 1")
    if N > MAX_LIFT_PRECISION:
        raise ValueError(f"precision capped at N <= {MAX_LIFT_PRECISION}")
    p = ctx.p
    wctx = Quad(p, -pow(-ctx.g0, p ** (N - 1), p ** N), N)
    if (wctx.g0 - ctx.g0) % p:
        raise ValidationError("lifted modulus G does not reduce to g")
    if wctx.elem(0, 1) ** (p * p - 1) != wctx.one():
        raise ValidationError(
            "class of x in (Z/p^N)[x]/(G) is not a (p^2-1)th root of unity")
    return wctx


def teichmuller(x, N: int):
    """The unique root-of-unity (or zero) lift of x in F_{p^2} to
    W(F_{p^2})/p^N (lift_context): t^(p^2) = t, reducing to x mod p.
    An element of F_p is passed as a scalar of F_{p^2}; any other
    argument raises TypeError."""
    field = getattr(x, "ring", None)
    if not isinstance(field, Quad) or field.N != 1:
        raise TypeError("teichmuller wants an element of F_{p^2}")
    return _fixed_point(lift_context(field, N).lift(x), field.size, N)


def hensel_root(f: Poly, r0):
    """Newton-lift a simple root: f(r0) = 0 mod p with f'(r0) a unit.

    f lives over W(F_{p^2})/p^N; r0 is an element of that ring, or an
    element of F_{p^2} in the same model, which is lifted naively.  A
    polynomial over any other ring, or an r0 of F_p, raises TypeError,
    and a residue of another Quad ValueError.  Quadratic
    convergence; at most ceil(log2 N) + 1 steps.  A root that is not
    simple, or not a root mod p, raises ValidationError.
    """
    ring = f.ring
    if not isinstance(ring, Quad):
        raise TypeError("hensel_root wants a polynomial over W/p^N")
    r = ring.lift(r0)
    fp = f.derivative()
    if not ring.is_unit(fp.evaluate(r)):
        raise ValidationError(
            "root is not simple: f'(r0) is not a unit mod p")
    if ring.is_unit(f.evaluate(r)):  # f(r) is nonzero mod p
        raise ValidationError("r0 is not a root of f mod p")
    for _ in range(max(1, ring.N.bit_length() + 1)):
        fr = f.evaluate(r)
        if not fr:
            break
        r = r - fr * ring.inv(fp.evaluate(r))
    if f.evaluate(r):
        raise ValidationError("Hensel iteration did not reach a root")
    return r


@lru_cache(maxsize=None)
def _teich_roots(p: int, N: int) -> tuple:
    """(locus, wctx, roots): the cross-validated locus, W(F_{p^2})/p^N
    and the Teichmuller lifts of its j-values, in their order."""
    locus = sslocus.cross_validate(p)
    wctx = lift_context(fq2_context(p), N)
    return locus, wctx, tuple(teichmuller(j, N) for j in locus.j_values)


@lru_cache(maxsize=None)
def lift_ss_poly(p: int, N: int) -> Poly:
    """S_p-hat: the monic polynomial over W(F_{p^2})/p^N whose roots are
    the Teichmuller lifts of the supersingular j-invariants.

    Validates that (i) the coefficients are Frobenius-fixed, so the
    polynomial descends to Z/p^N (sslocus.frobenius_descent), (ii) the
    reduction mod p is the supersingular polynomial, (iii) the
    discriminant is a unit, and (iv) Hensel lifting of each mod-p root
    lands on the Teichmuller lift.
    """
    require_prime(p, "lift_ss_poly", sslocus.MAX_CROSS_VALIDATE_PRIME)
    if not 1 <= N <= MAX_LIFT_PRECISION:
        raise ValueError(f"precision must satisfy 1 <= N <= "
                         f"{MAX_LIFT_PRECISION}")
    locus, wctx, roots = _teich_roots(p, N)
    coeffs = sslocus.frobenius_descent(
        roots, wctx, f"lift_ss_poly({p},{N}): S_p-hat is not "
        f"Frobenius-fixed")
    if [c % p for c in coeffs] != locus.ss_poly:
        raise ValidationError(
            f"lift_ss_poly({p},{N}): reduction mod p differs from the "
            f"supersingular polynomial")
    shat = Poly(wctx, coeffs)
    # the discriminant is a unit iff every root difference is one
    if not all(wctx.is_unit(a - b) for a, b in combinations(roots, 2)):
        raise ValidationError(
            f"lift_ss_poly({p},{N}): discriminant is not a unit — roots "
            f"are not simple")
    for jbar, r in zip(locus.j_values, roots):
        if hensel_root(shat, jbar) != r:
            raise ValidationError(
                f"lift_ss_poly({p},{N}): Hensel lift of {jbar!r} is not "
                f"the Teichmuller lift")
    return shat


def splitting_idempotents(p: int, N: int) -> tuple:
    """The sigma(p) complete orthogonal Lagrange idempotents of
    W(F_{p^2})/p^N [X] / (S_p-hat): the finite-level shadow of the
    sigma(p)-fold product splitting of the completed ring.

    e_i = (S / (X - r_i)) * S'(r_i)^-1 with S = S_p-hat, already reduced
    mod S (degree < sigma(p)); S'(r_i) is S / (X - r_i) at r_i.
    Verifies e_i^2 = e_i, e_i e_j = 0 and sum e_i = 1 modulo (p^N,
    S_p-hat)."""
    require_prime(p, "splitting_idempotents", MAX_SPLIT_PRIME)
    if not 1 <= N <= MAX_SPLIT_PRECISION:
        raise ValueError(f"precision must satisfy 1 <= N <= "
                         f"{MAX_SPLIT_PRECISION}")
    shat = lift_ss_poly(p, N)
    _, wctx, roots = _teich_roots(p, N)
    idems = []
    for r in roots:
        quot, rem = shat.divrem(Poly(wctx, [-r, wctx.one()]))
        if not rem.is_zero():
            raise ValidationError(
                f"splitting_idempotents({p},{N}): X - {r!r} does not "
                f"divide S_p-hat")
        d = quot.evaluate(r)
        if not wctx.is_unit(d):
            raise ValidationError(
                f"splitting_idempotents({p},{N}): S_p-hat'({r!r}) = "
                f"{d!r} is not a unit")
        idems.append(quot * d.inverse())
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
