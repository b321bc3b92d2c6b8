"""Exact p-adic valuations of cyclotomic integers, normalized so v(p) = 1.

The ambient local field is Q_p(zeta_d, zeta_p): an unramified layer of
degree f = ord_d(p), the ring Z_p[Y]/(h) for a monic irreducible factor h
of the d-th cyclotomic polynomial mod p, followed by the totally ramified
layer of degree p - 1 generated by pi = zeta_p - 1.  zeta_d goes to the
Teichmueller root modulo p^N: the unique d-th root of unity reducing to Y,
hence a primitive one lying above h, found by Newton lifting from Y with
the precision doubling at each step.  The lift multiplies with the field
product and power of finite_field (_product, _power) mod p^k, folding
through the rows Y^t mod h that finite_field._shift_rows, the one row
builder of every reduction by a monic polynomial, takes once over Z.
Write x = sum_(a < p-1) X_a zeta_p^a, each X_a = sum_b c_ab Y^b in the
unramified ring.  Then v(x) = mu + j/(p-1): mu is the least v_p over the
coordinates of all the X_a, and j is the multiplicity of T = 1 as a root
of Xbar(T) = sum_a (X_a / p^mu mod p) T^a over F_(p^f).  Indeed
O/pO = F_(p^f)[pi]/(pi^(p-1)) with zeta_p = 1 + pi; Xbar is nonzero as mu
is attained and has degree at most p - 2, so the pi-order of Xbar(1 + pi)
is that multiplicity, below p - 1.

The precision is read off the element.  With S the sum of the absolute
values of x's coefficients, every conjugate of x has absolute value at
most S, so f (p-1) v(x) <= v_p(Norm x) <= (p-1) phi(d) log_p S.  The least
N with p^(N f) > S^phi(d) therefore has mu <= v(x) < N, so the X_a mod p^N
fix both mu and Xbar, and one pass at that N is exact.

A context names a place, not a precision.  Which factor h is taken fixes
which place above p gets measured.  The default is the lex-smallest
factor.  aligned_context instead takes the minimal polynomial of
g^((q-1)/d) for the deterministic generator g of F_q, which ties the place
to the same character convention the sum engine pins (chi(g) = zeta_d);
per-twist valuations match the digit combinatorics only under that
alignment, and that is the context the verification commands use.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd

from .char_sums import LPolynomial
from .cyclotomic import CycloElem, cyclotomic_polynomial
from .errors import InternalError, ParameterError
from .finite_field import (FieldElement, FieldSpec, _is_prime, _power, _product, _shift_rows,
                           make_field, mult_order, primitive_root)
from .polygon import NewtonPolygon


def _frobenius_minpoly(root: FieldElement) -> tuple:
    """Minimal polynomial over F_p of root, as the product of X - r over its
    Frobenius orbit r = root, root^p, ...; coefficients low to high."""
    F = root.owner
    poly = [F.one()]
    r = root
    while True:
        shifted = [F.zero()] + poly
        poly = [shifted[k] - r * poly[k] if k < len(poly) else shifted[k] for k in range(len(shifted))]
        r = r**F.p
        if r == root:
            break
    ints = []
    for c in poly:
        cs = c.coeffs
        if any(cs[1:]):
            raise InternalError("orbit polynomial escaped the prime field")
        ints.append(cs[0])
    return tuple(ints)


@lru_cache(maxsize=64)
def phi_d_factors_mod_p(p: int, d: int) -> tuple:
    """All monic irreducible factors of Phi_d over F_p, each of degree
    ord_d(p), sorted by their integer encoding.  Coefficients low to high.
    make_context reads the whole list on every call; 64 entries of phi(d)
    residues each bound the cache."""
    if not _is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if gcd(p, d) != 1:
        raise ParameterError(f"p = {p} and d = {d} are not coprime")
    f = mult_order(p, d)
    F = make_field(p, f)
    G = primitive_root(F)
    xi = G ** ((F.order - 1) // d)
    # the factors are the minimal polynomials of the primitive d-th roots xi^j
    factors = {_frobenius_minpoly(xi**j) for j in range(d) if gcd(j, d) == 1}
    if any(len(c) != f + 1 for c in factors):
        raise InternalError("factor degree mismatch")
    return tuple(sorted(factors, key=lambda c: sum(ci * p**i for i, ci in enumerate(c))))


class LocalContext:
    """Frozen description of one place of Q_p(zeta_d, zeta_p)."""

    __slots__ = ("p", "d", "f", "factor_mod_p")

    def __init__(self, p: int, d: int, factor_mod_p):
        self.p = p
        self.d = d
        self.f = len(factor_mod_p) - 1
        self.factor_mod_p = tuple(factor_mod_p)

    def __repr__(self):
        return f"LocalContext(p={self.p}, d={self.d}, f={self.f})"


def make_context(p: int, d: int, factor=None) -> LocalContext:
    """Context for the place given by an irreducible factor of Phi_d mod p.

    factor defaults to the lex-smallest one; when supplied it must be a
    monic degree-f coefficient tuple from phi_d_factors_mod_p.
    """
    factors = phi_d_factors_mod_p(p, d)
    if factor is None:
        factor = factors[0]
    else:
        factor = tuple(int(c) % p for c in factor)
        if factor not in factors:
            raise ParameterError("not an irreducible factor of Phi_d mod p")
    return LocalContext(p, d, factor)


def aligned_context(qspec: FieldSpec, d: int) -> LocalContext:
    """Context whose residue of zeta_d is ghat = g^((q-1)/d), g the
    deterministic generator of F_q; matches the pinned character chi(g) =
    zeta_d, so per-twist valuations line up with the digit combinatorics.
    ghat has order exactly d, so its minimal polynomial over F_p is a factor
    of Phi_d mod p: the place needs no list of the other factors."""
    q = qspec.order
    if d >= 2 and (q - 1) % d:
        raise ParameterError(f"{d} does not divide q - 1 = {q - 1}")
    ghat = primitive_root(qspec) ** ((q - 1) // d)
    return LocalContext(qspec.p, d, _frobenius_minpoly(ghat))


@lru_cache(maxsize=64)
def _teichmuller(p: int, d: int, h: tuple, N: int) -> tuple:
    """The Teichmueller root above h modulo p^N, and its powers Y^0 ..
    Y^(phi(d)-1), each of f = deg h coefficients.  A job measures
    at one or two places and a few precisions, so 64 entries of
    (phi(d) + 1) f residues mod p^N bound the cache."""
    f = len(h) - 1
    pm = p**N
    # Y^t mod h over Z, t < 2f: Y, and the rows Y^f .. Y^(2f-2) of _product
    ys = _shift_rows((1,) + (0,) * (f - 1), h, 2 * f)
    rows = ys[f:-1]
    # Y^d = 1 mod p, and the Newton step w <- w (1 - (w^d - 1)/d) turns
    # w^d = 1 mod p^k into w^d = 1 mod p^2k
    root, k = tuple([c % p for c in ys[1]]), 1
    while k < N:
        k = min(2 * k, N)
        pk = p**k
        dinv = pow(d, -1, pk)
        wd = _power(root, d, pk, rows)
        step = ((1 + dinv - dinv * wd[0]) % pk, *[-dinv * c % pk for c in wd[1:]])
        root = _product(root, step, pk, rows)
    ypow, cur = [], (1,) + (0,) * (f - 1)
    for _ in range(len(cyclotomic_polynomial(d)) - 1):
        ypow.append(cur)
        cur = _product(cur, root, pm, rows)
    return root, tuple(ypow)


def _int_val(c: int, p: int) -> int:
    v = 0
    while c % p == 0:
        v += 1
        c //= p
    return v


def valuation(x: CycloElem, ctx: LocalContext):
    """p-adic valuation of x at the context's place, v(p) = 1.

    Returns a Fraction, or None for the zero element.  Works modulo p^N
    for the least N with p^(N f) > S^phi(d), S the sum of the absolute
    values of x's coefficients (see the module docstring).
    """
    if x.ring.p != ctx.p or x.ring.d != ctx.d:
        raise InternalError("element ring does not match the context")
    if x.is_zero():
        return None
    p, f = ctx.p, ctx.f
    norm_bound = sum(map(abs, x.coeffs)) ** x.ring.phi_d
    N, pNf = 1, p**f
    while pNf <= norm_bound:
        N, pNf = N + 1, pNf * p**f
    pm = p**N
    ypow = _teichmuller(p, ctx.d, ctx.factor_mod_p, N)[1]
    X = [[0] * f for _ in range(p - 1)]
    for a, b, cab in x.terms():
        yb, Xa = ypow[b], X[a]
        for i in range(f):
            Xa[i] = (Xa[i] + cab * yb[i]) % pm
    vals = [_int_val(c, p) for Xa in X for c in Xa if c]
    if not vals:
        raise InternalError(f"a nonzero element vanished modulo p^{N}, inside its norm bound")
    mu = min(vals)
    pmu = p**mu
    # one coefficient list of Xbar(T) per coordinate of F_(p^f)
    cols = [[Xa[i] // pmu % p for Xa in X] for i in range(f)]
    j = 0
    while not any(sum(col) % p for col in cols):
        # Xbar(1) = 0: the quotient by T - 1 has the suffix sums
        # sum_(a > k) Xbar_a as its coefficients
        cols = [[s % p for s in accumulate(reversed(col))][-2::-1] for col in cols]
        j += 1
    return mu + Fraction(j, p - 1)


def q_newton_polygon(L: LPolynomial, m: int, ctx: LocalContext) -> NewtonPolygon:
    """Lower hull of (n, v(c_n)/m), the polygon with respect to q = p^m."""
    if m < 1:
        raise ParameterError("m must be at least 1")
    pts = []
    for n, c in enumerate(L.coeffs):
        v = valuation(c, ctx)
        pts.append((n, None if v is None else v / m))
    return NewtonPolygon.from_points(pts)


def newton_polygon(L: LPolynomial, qspec: FieldSpec) -> NewtonPolygon:
    """q-adic polygon of an L-function over qspec, at the place aligned
    with the pinned order-d character of qspec, d that of L's ring."""
    return q_newton_polygon(L, qspec.n, aligned_context(qspec, L.ring.d))
