"""Arithmetic in F_{p^n} and its extension towers, with deterministic defining data.

A field is presented as Z/p[x] modulo a monic irreducible f of degree n.
Every choice is pinned so that independent runs agree bit for bit:

* the defining polynomial is the first irreducible in the scan of monic
  candidates ordered by the integer encoding sum(c_i * p^i) of their
  non-leading coefficient tuple (for n = 1 this degenerates to f = x);
* an embedding of a subfield sends its generator class to the root of the
  subfield's defining polynomial with the smallest integer encoding, the
  least of the Frobenius orbit of the first root found;
* primitive_root returns the multiplicative generator with the smallest
  integer encoding.  It scans the encodings in order; with m = p^n - 1, x
  generates iff x^(m/l) != 1 for every prime l | m.  For l | p - 1 that
  power is N(x)^((p-1)/l), N(x) the norm to F_p (a determinant mod p).
  For the others, with product R, it is y^(R/l) with y = x^(m/R).  Both
  tests are taken once per class {b z : b in F_p^*}, keyed by z = x / c,
  c the leading coefficient of x, and the scan still returns the first
  generator.  This is exact: N(b z) = b^n N(z), so a member's norm costs
  one power in F_p; and R is prime to p - 1 and divides m = (p - 1) S,
  S = 1 + p + ... + p^(n-1), so R | S, (p - 1) | m/R, b^(m/R) = 1 and
  every member shares y, hence the verdict for the other primes, with z.
  Irreducibility is Rabin's test, each x^(p^k) mod f from the last by the
  matrix of the F_p-linear Frobenius.

dlog reads one cached power index, encoding -> j over g^j: of the whole
group g generates in fields of at most 4096 units, of the ceil(sqrt(m))
baby steps of baby-step giant-step above that.

Elements carry their owning field and a coefficient tuple in the power basis
1, x, ..., x^(n-1).  The integer encoding sum(c_i * p^i) orders elements and
is the serialization used on the command line.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod

from .errors import InternalError, ParameterError, ResourceBound

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
        raise ParameterError(f"multiplier {t} shares a factor with modulus {d}")
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
    """Rabin's test for a monic degree-n polynomial over Z/p.

    Frobenius a -> a^p is F_p-linear on Z/p[x]/(f) and sends x^i to
    (x^p)^i, so one matrix Q with columns x^(p i) mod f, i < n, takes each
    x^(p^k) to x^(p^(k+1)): one power x^p, then products and Q applied."""
    if n == 1:
        return True
    x = (0, 1) + (0,) * (n - 2)
    frob = _ppowmod(x, p, f, p)  # x^p mod f
    cols = [(1,)]
    for _ in range(n - 1):
        cols.append(_pmulmod(cols[-1], frob, f, p))
    rows = list(zip(*(c + (0,) * (n - len(c)) for c in cols)))
    chain = [x, frob + (0,) * (n - len(frob))]
    for _ in range(n - 1):
        cur = chain[-1]
        chain.append(tuple(sum(q * c for q, c in zip(row, cur)) % p for row in rows))
    if chain[n] != x:
        return False
    for ell in _prime_factors(n):
        g = list(chain[n // ell])
        g[1] = (g[1] - 1) % p  # subtract x
        if _pgcd(g, f, p) != (1,):
            return False
    return True


def _digits(enc: int, p: int, n: int) -> list:
    """The n base-p digits of enc, least significant first."""
    out = []
    for _ in range(n):
        out.append(enc % p)
        enc //= p
    return out


class FieldElement:
    """An element of F_{p^n} in the power basis of its owning FieldSpec."""

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner: "FieldSpec", coeffs):
        self.owner = owner
        self.coeffs = tuple(c % owner.p for c in coeffs)
        if len(self.coeffs) != owner.n:
            raise ParameterError("coefficient vector has wrong length")

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.owner != self.owner:
            raise InternalError("mixed elements of different fields")

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
            raise ParameterError("negative exponents are not supported")
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
            raise ParameterError(f"encoding {enc} out of range for field of order {self.order}")
        return FieldElement(self, _digits(enc, self.p, self.n))

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
        raise ParameterError(f"{p} is not prime")
    if n < 1:
        raise ParameterError("extension degree must be positive")


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
        f = (*_digits(code, p, n), 1)
        if _is_irreducible(f, p, n):
            return FieldSpec(p, n, f)
    raise InternalError("no irreducible polynomial found")  # unreachable


def multiplication_matrix(a: FieldElement) -> list:
    """Columns of the F_p-linear map b -> a*b in the power basis.

    Returned as a list of n rows of n entries: row i, column j holds the
    x^i-coefficient of a * x^j.
    """
    spec = a.owner
    p, f = spec.p, spec.f
    cols = [a.coeffs]
    for _ in range(spec.n - 1):
        # times x: shift up, then replace x^n by -(f - x^n), f being monic
        top, low = cols[-1][-1], cols[-1][:-1]
        cols.append(tuple((u - top * c) % p for u, c in zip((0,) + low, f)))
    return [list(row) for row in zip(*cols)]


# primitive_root's norms stay on plain residues: with FieldElement entries, as
# in the Hasse determinants, it took 6.9 ms on F_17^4 instead of 2.8 (x86_64)
def _det_mod(rows: list, p: int) -> int:
    """Determinant mod p of a square matrix of residues, by elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            c = a[i][k] * inv % p
            if c:
                a[i] = [(u - c * v) % p for u, v in zip(a[i], a[k])]
    return det


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
            raise InternalError("element does not belong to the embedded subfield")
        acc = self.super.zero()
        for c, pw in zip(a.coeffs, self._powers):
            if c:
                acc = acc + FieldElement(self.super, [c * t for t in pw.coeffs])
        return acc


def _subfield_elements(sup: FieldSpec, order: int):
    """0, then the units of the subfield of sup with the given order, as the
    powers of one of its generators."""
    yield sup.zero()
    h = primitive_root(sup) ** ((sup.order - 1) // (order - 1))
    cur = sup.one()
    for _ in range(order - 1):
        yield cur
        cur = cur * h


@lru_cache(maxsize=64)
def embed(sub: FieldSpec, sup: FieldSpec) -> Embedding:
    """The deterministic embedding of sub into sup.

    Among the sub.n roots of sub.f in sup (one Frobenius orbit), the image
    of the class of x is the root with the smallest integer encoding.  The
    search walks the subfield of order p^sub.n to the first root r and
    takes its conjugates r^(p^i), i < sub.n.
    A job embeds its base fields into at most the 64 fields make_field
    keeps, and an entry holds sub.n elements.
    """
    if sub.p != sup.p:
        raise ParameterError("different characteristics")
    if sup.n % sub.n != 0:
        raise ParameterError(f"F_{sub.p}^{sub.n} is not a subfield of F_{sup.p}^{sup.n}")
    if sub == sup:
        return Embedding(sub, sup, sup.gen())
    coeffs = [FieldElement(sup, (c,) + (0,) * (sup.n - 1)) for c in sub.f]

    def is_root(y):
        acc = sup.zero()
        for c in reversed(coeffs):
            acc = acc * y + c
        return acc.is_zero()

    root = next((y for y in _subfield_elements(sup, sub.order) if is_root(y)), None)
    if root is None:
        raise InternalError("the subfield polynomial has no root")
    orbit = [root]
    for _ in range(sub.n - 1):
        orbit.append(orbit[-1] ** sub.p)
    if len(set(orbit)) != sub.n or not all(map(is_root, orbit)):
        raise InternalError(
            f"expected {sub.n} roots of the subfield polynomial in one Frobenius orbit")
    return Embedding(sub, sup, min(orbit, key=FieldElement.to_int))


@lru_cache(maxsize=64)
def primitive_root(spec: FieldSpec) -> FieldElement:
    """The multiplicative generator with the smallest integer encoding;
    one element for each of the 64 fields make_field keeps.

    The scan tests each class {b z : b in F_p^*}, z = x / (leading
    coefficient of x), once: the norm N(z) for the primes of m = q - 1
    that divide p - 1, the powers of y = z^(m/R) for the others, R their
    product (module docstring)."""
    p, n, m = spec.p, spec.n, spec.order - 1
    low, high = [], []
    for ell in _prime_factors(m):
        (high if (p - 1) % ell else low).append(ell)
    rest = prod(high)
    one = spec.one()
    norms, high_ok = {}, {}
    # for n > 1 a constant b has b^(p-1) = 1, so it never generates
    for enc in range(p if n > 1 else 1, spec.order):
        x = spec.element_from_int(enc)
        lead = _ptrim(x.coeffs)[-1]
        inv = pow(lead, -1, p)
        z = tuple(c * inv % p for c in x.coeffs)
        if low:
            if z not in norms:
                norms[z] = _det_mod(multiplication_matrix(FieldElement(spec, z)), p)
            norm = pow(lead, n, p) * norms[z] % p  # N(b z) = b^n N(z)
            if any(pow(norm, (p - 1) // ell, p) == 1 for ell in low):
                continue
        if high:
            if z not in high_ok:
                y = FieldElement(spec, z) ** (m // rest)
                high_ok[z] = not any(y ** (rest // ell) == one for ell in high)
            if not high_ok[z]:
                continue
        return x
    raise InternalError("no multiplicative generator found")  # unreachable


@lru_cache(maxsize=64)
def _power_index(g: FieldElement, count: int) -> dict:
    """Integer encoding -> the least j < count with g^j of that encoding.

    dlog asks for a whole group in a field of at most _UNIT_TABLE_BOUND
    units or for the ceil(sqrt(m)) baby steps of a unit group of at most
    max_enum elements: at the default cap each of the 64 tables has at
    most 4096 entries."""
    out = {}
    cur = g.owner.one()
    for j in range(count):
        out.setdefault(cur.to_int(), j)
        cur = cur * g
    return out


def dlog(x: FieldElement, g: FieldElement, order: int | None = None) -> int:
    """Discrete logarithm of x base g.

    g must generate a cyclic group of the given order that contains x; the
    default order is that of the whole unit group.  A field of at most
    _UNIT_TABLE_BOUND units reads the power index of the whole group, a
    larger one takes baby-step giant-step.
    """
    if x.is_zero():
        raise ParameterError("discrete logarithm of zero")
    spec = x.owner
    if g.owner != spec:
        raise InternalError("mixed elements of different fields")
    m = spec.order - 1 if order is None else order
    if spec.order - 1 <= _UNIT_TABLE_BOUND:
        k = _power_index(g, m).get(x.to_int())
        if k is not None:
            return k
    else:
        # baby-step giant-step: x = g^(i*b + j) with j < b and i <= b
        b = isqrt(m - 1) + 1
        baby = _power_index(g, b)
        giant = g ** (m - b)  # g^{-b}
        gamma = x
        for i in range(b + 1):
            j = baby.get(gamma.to_int())
            if j is not None:
                return (i * b + j) % m
            gamma = gamma * giant
    raise InternalError("element is not a power of the claimed generator")
