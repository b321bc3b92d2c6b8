"""Arithmetic in F_{p^n} and its extension towers, with deterministic defining data.

A field is presented as Z/p[x] modulo a monic irreducible f of degree n.
Every choice is pinned so that independent runs agree bit for bit:

* the defining polynomial is the first irreducible in the scan of monic
  candidates ordered by the integer encoding sum(c_i * p^i) of their
  non-leading coefficient tuple (for n = 1 this degenerates to f = x);
* an embedding of a subfield sends its generator class to the root of the
  subfield's defining polynomial with the smallest integer encoding;
* primitive_root returns the multiplicative generator with the smallest
  integer encoding.

Elements carry their owning field and a coefficient tuple in the power basis
1, x, ..., x^(n-1).  The integer encoding sum(c_i * p^i) orders elements and
is the serialization used on the command line.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import (
    BadParameters,
    InternalInconsistency,
    NotCoprime,
    NotPrime,
    NotSubfield,
    ResourceBound,
    ZeroArgument,
)

_UNIT_TABLE_BOUND = 1 << 12


# Miller-Rabin with the thirteen prime bases up to 41 decides primality
# exactly below this bound (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality for n below _MR_BOUND; a larger n is refused."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % a == 0 for a in _MR_BASES):
        return False
    if n >= _MR_BOUND:
        raise ResourceBound(f"primality of {n} is only decided below {_MR_BOUND}")
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mult_order(t: int, d: int) -> int:
    """Multiplicative order of t modulo d; 1 for d = 1."""
    if d == 1:
        return 1
    if gcd(t, d) != 1:
        raise NotCoprime(f"multiplier {t} shares a factor with modulus {d}")
    k, cur = 1, t % d
    while cur != 1:
        cur = (cur * t) % d
        k += 1
    return k


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


# -- dense polynomials over Z/n, coefficient tuples low -> high; division only
# -- by a monic f, so the same helpers serve Z/p and Z/p^N ---------------------

def _ptrim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    for k in range(len(a) - 1, df - 1, -1):
        c = a[k] % p
        if c:
            for j in range(df):
                a[k - df + j] = (a[k - df + j] - c * f[j]) % p
        a[k] = 0
    return _ptrim(a[:df])


def _pmulmod(a, b, f, p):
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(a, e, f, p):
    result = (1,)
    base = _pmod(a, f, p)
    while e > 0:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        # reduce a mod b after making b monic
        inv = pow(b[-1], -1, p)
        bm = tuple((c * inv) % p for c in b)
        a = _pmod(a, bm, p)
        a, b = b, a
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple((c * inv) % p for c in a)


def _is_irreducible(f, p, n):
    """Rabin's test for a monic degree-n polynomial over Z/p."""
    if n == 1:
        return True
    x = (0, 1)
    frob = _ppowmod(x, p, f, p)  # x^p mod f
    chain = {1: frob}
    cur = frob
    for k in range(2, n + 1):
        cur = _ppowmod(cur, p, f, p)
        chain[k] = cur
    if chain[n] != x:
        return False
    for ell in _prime_factors(n):
        g = list(chain[n // ell])
        # subtract x
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        if _pgcd(g, f, p) != (1,):
            return False
    return True


class FieldElement:
    """An element of F_{p^n} in the power basis of its owning FieldSpec."""

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner: "FieldSpec", coeffs):
        self.owner = owner
        self.coeffs = tuple(c % owner.p for c in coeffs)
        if len(self.coeffs) != owner.n:
            raise BadParameters("coefficient vector has wrong length")

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.owner != self.owner:
            raise InternalInconsistency("mixed elements of different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.owner, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.owner, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FieldElement(self.owner, [-a for a in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        own = self.owner
        prod = _pmul(self.coeffs, other.coeffs, own.p)
        red = _pmod(prod, own.f, own.p)
        return FieldElement(own, red + (0,) * (own.n - len(red)))

    def __pow__(self, e: int):
        if e < 0:
            raise BadParameters("negative exponents are not supported")
        own = self.owner
        red = _ppowmod(self.coeffs, e, own.f, own.p)
        return FieldElement(own, red + (0,) * (own.n - len(red)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_int(self) -> int:
        enc = 0
        for c in reversed(self.coeffs):
            enc = enc * self.owner.p + c
        return enc

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.owner == other.owner and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.owner.p, self.owner.n, self.coeffs))

    def __repr__(self):
        return f"FieldElement({self.to_int()} in F_{self.owner.p}^{self.owner.n})"


class FieldSpec:
    """F_{p^n} presented as Z/p[x] modulo a fixed monic irreducible f."""

    __slots__ = ("p", "n", "f")

    def __init__(self, p: int, n: int, f: tuple):
        self.p = p
        self.n = n
        self.f = tuple(c % p for c in f)

    @property
    def order(self) -> int:
        return self.p ** self.n

    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.n)

    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.n - 1))

    def gen(self) -> FieldElement:
        """The class of x.  For n = 1 this is 0 since f = x."""
        if self.n == 1:
            return self.zero()
        return FieldElement(self, (0, 1) + (0,) * (self.n - 2))

    def element_from_int(self, enc: int) -> FieldElement:
        if not 0 <= enc < self.order:
            raise BadParameters(f"encoding {enc} out of range for field of order {self.order}")
        digits = []
        for _ in range(self.n):
            digits.append(enc % self.p)
            enc //= self.p
        return FieldElement(self, digits)

    def basis_traces(self) -> tuple:
        """Traces to Z/p of the basis elements x^j, as plain integers."""
        out = []
        for j in range(self.n):
            t = self.element_from_int(self.p ** j) if j else self.one()
            acc = t
            cur = t
            for _ in range(self.n - 1):
                cur = cur ** self.p
                acc = acc + cur
            if any(acc.coeffs[1:]):
                raise InternalInconsistency("trace left the prime field")
            out.append(acc.coeffs[0])
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self.f == other.f

    def __hash__(self):
        return hash((self.p, self.n, self.f))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, n={self.n}, f={self.f})"


def check_field_params(p: int, n: int) -> None:
    """The parameter errors make_field raises, without building the field."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise BadParameters("extension degree must be positive")


@lru_cache(maxsize=64)
def make_field(p: int, n: int) -> FieldSpec:
    """Construct F_{p^n} with the lex-smallest monic irreducible of degree n.

    A job reaches the fields of its 32 cached trace tables, their base
    fields and the residue fields of its places; 64 entries of one
    degree-n tuple each hold them all."""
    check_field_params(p, n)
    if n == 1:
        return FieldSpec(p, 1, (0, 1))
    for code in range(p ** n):
        digits = []
        c = code
        for _ in range(n):
            digits.append(c % p)
            c //= p
        f = tuple(digits) + (1,)
        if _is_irreducible(f, p, n):
            return FieldSpec(p, n, f)
    raise InternalInconsistency("no irreducible polynomial found")  # unreachable


def multiplication_matrix(a: FieldElement) -> list:
    """Columns of the F_p-linear map b -> a*b in the power basis.

    Returned as a list of n rows of n entries: row i, column j holds the
    x^i-coefficient of a * x^j.
    """
    spec = a.owner
    n = spec.n
    cols = []
    cur = a
    xgen = FieldElement(spec, (0, 1) + (0,) * (n - 2)) if n >= 2 else None
    for j in range(n):
        cols.append(cur.coeffs)
        if j + 1 < n:
            cur = cur * xgen
    return [[cols[j][i] for j in range(n)] for i in range(n)]


class Embedding:
    """A field embedding F_{p^s} -> F_{p^n} determined by the image of x."""

    __slots__ = ("sub", "super", "image", "_powers")

    def __init__(self, sub: FieldSpec, sup: FieldSpec, image: FieldElement):
        self.sub = sub
        self.super = sup
        self.image = image
        powers = [sup.one()]
        for _ in range(sub.n - 1):
            powers.append(powers[-1] * image)
        self._powers = powers

    def __call__(self, a: FieldElement) -> FieldElement:
        if a.owner != self.sub:
            raise InternalInconsistency("element does not belong to the embedded subfield")
        acc = self.super.zero()
        for c, pw in zip(a.coeffs, self._powers):
            if c:
                acc = acc + FieldElement(self.super, [c * t for t in pw.coeffs])
        return acc


@lru_cache(maxsize=64)
def embed(sub: FieldSpec, sup: FieldSpec) -> Embedding:
    """The deterministic embedding of sub into sup.

    Among the sub.n roots of sub.f in sup (one Frobenius orbit), the image
    of the class of x is the root with the smallest integer encoding.
    A job embeds its base fields into at most the 64 fields make_field
    keeps, and an entry holds sub.n elements.
    """
    if sub.p != sup.p:
        raise NotSubfield("different characteristics")
    if sup.n % sub.n != 0:
        raise NotSubfield(f"F_{sub.p}^{sub.n} is not a subfield of F_{sup.p}^{sup.n}")
    if sub == sup:
        return Embedding(sub, sup, sup.gen())
    # candidate roots live in the unique subfield of order p^{sub.n}
    candidates = [sup.zero()]
    sub_order = sub.p ** sub.n
    if sub_order > 2:
        g = primitive_root(sup)
        h = g ** ((sup.order - 1) // (sub_order - 1))
        cur = sup.one()
        for _ in range(sub_order - 1):
            candidates.append(cur)
            cur = cur * h
    else:
        candidates.append(sup.one())
    coeffs = [FieldElement(sup, (c,) + (0,) * (sup.n - 1)) for c in sub.f]
    roots = []
    for cand in candidates:
        acc = sup.zero()
        for c in reversed(coeffs):
            acc = acc * cand + c
        if acc.is_zero():
            roots.append(cand)
    if len(roots) != sub.n:
        raise InternalInconsistency(
            f"expected {sub.n} roots of the subfield polynomial, found {len(roots)}")
    image = min(roots, key=FieldElement.to_int)
    return Embedding(sub, sup, image)


@lru_cache(maxsize=64)
def primitive_root(spec: FieldSpec) -> FieldElement:
    """The multiplicative generator with the smallest integer encoding;
    one element for each of the 64 fields make_field keeps."""
    m = spec.order - 1
    factors = _prime_factors(m)
    one = spec.one()
    for enc in range(1, spec.order):
        x = spec.element_from_int(enc)
        if all((x ** (m // ell)) != one for ell in factors):
            return x
    raise InternalInconsistency("no multiplicative generator found")  # unreachable


def dlog(x: FieldElement, g: FieldElement, order: int | None = None) -> int:
    """Discrete logarithm of x base g.

    g must generate a cyclic group of the given order that contains x; the
    default order is that of the whole unit group.
    """
    if x.is_zero():
        raise ZeroArgument("discrete logarithm of zero")
    spec = x.owner
    if g.owner != spec:
        raise InternalInconsistency("mixed elements of different fields")
    m = spec.order - 1 if order is None else order
    # baby-step giant-step: x = g^(i*b + j) with j < b and i <= b
    b = 1
    while b * b < m:
        b += 1
    baby = {}
    cur = spec.one()
    for j in range(b):
        baby.setdefault(cur.to_int(), j)
        cur = cur * g
    giant = g ** (m - b)  # g^{-b}
    gamma = x
    for i in range(b + 1):
        j = baby.get(gamma.to_int())
        if j is not None:
            return (i * b + j) % m
        gamma = gamma * giant
    raise InternalInconsistency("element is not a power of the claimed generator")


@lru_cache(maxsize=16)
def _unit_logs(spec: FieldSpec) -> dict:
    """Integer encoding -> discrete log to primitive_root(spec), every unit.

    Only the base fields of a job's polynomials ask, and each table has at
    most _UNIT_TABLE_BOUND entries, so 16 tables bound the cache."""
    g = primitive_root(spec)
    out = {}
    cur = spec.one()
    for k in range(spec.order - 1):
        out[cur.to_int()] = k
        cur = cur * g
    return out


def pinned_dlog(a: FieldElement) -> int:
    """Discrete logarithm of a to the pinned generator of its own field.

    Fields with at most _UNIT_TABLE_BOUND units answer from a table of
    the whole unit group, built once; larger ones fall back to dlog.
    """
    if a.is_zero():
        raise ZeroArgument("discrete logarithm of zero")
    spec = a.owner
    if spec.order - 1 <= _UNIT_TABLE_BOUND:
        return _unit_logs(spec)[a.to_int()]
    return dlog(a, primitive_root(spec))
