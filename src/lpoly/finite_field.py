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

from .errors import (
    BadParameters,
    InternalInconsistency,
    NotPrime,
    NotSubfield,
    ZeroArgument,
)

_EXHAUSTIVE_DLOG_BOUND = 1 << 12


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


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


# -- dense polynomials over Z/p, coefficient tuples low -> high ----------------

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
        p = self.owner.p
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
        result = self.owner.one()
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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

    __slots__ = ("p", "n", "f", "_traces", "_proot", "_order_factors")

    def __init__(self, p: int, n: int, f: tuple):
        self.p = p
        self.n = n
        self.f = tuple(c % p for c in f)
        self._traces = None
        self._proot = None
        self._order_factors = None

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

    def element(self, v) -> FieldElement:
        if isinstance(v, FieldElement):
            if v.owner != self:
                raise InternalInconsistency("element belongs to a different field")
            return v
        if isinstance(v, int):
            return self.element_from_int(v)
        return FieldElement(self, v)

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
        if self._traces is None:
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
            self._traces = tuple(out)
        return self._traces

    def order_factors(self) -> tuple:
        if self._order_factors is None:
            self._order_factors = _prime_factors(self.order - 1) if self.order > 2 else ()
        return self._order_factors

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.p == other.p and self.n == other.n and self.f == other.f

    def __hash__(self):
        return hash((self.p, self.n, self.f))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, n={self.n}, f={self.f})"


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FieldSpec:
    """Construct F_{p^n} with the lex-smallest monic irreducible of degree n."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise BadParameters("extension degree must be positive")
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

    __slots__ = ("sub", "super", "image", "_powers", "_echelon")

    def __init__(self, sub: FieldSpec, sup: FieldSpec, image: FieldElement):
        self.sub = sub
        self.super = sup
        self.image = image
        powers = [sup.one()]
        for _ in range(sub.n - 1):
            powers.append(powers[-1] * image)
        self._powers = powers
        self._echelon = None

    def __call__(self, a: FieldElement) -> FieldElement:
        if a.owner != self.sub:
            raise InternalInconsistency("element does not belong to the embedded subfield")
        acc = self.super.zero()
        for c, pw in zip(a.coeffs, self._powers):
            if c:
                acc = acc + FieldElement(self.super, [c * t for t in pw.coeffs])
        return acc

    def preimage(self, y: FieldElement) -> FieldElement:
        """Solve emb(v) = y; InternalInconsistency if y is outside the image."""
        if y.owner != self.super:
            raise InternalInconsistency("element does not belong to the big field")
        p = self.sub.p
        if self._echelon is None:
            # columns are the images of the subfield basis
            rows = self.super.n
            cols = self.sub.n
            mat = [[self._powers[j].coeffs[i] for j in range(cols)] for i in range(rows)]
            self._echelon = (mat, rows, cols)
        mat, rows, cols = self._echelon
        # Gaussian elimination on an augmented copy; sizes here are tiny.
        aug = [list(mat[i]) + [y.coeffs[i]] for i in range(rows)]
        pivots = []
        r = 0
        for c in range(cols):
            pr = next((i for i in range(r, rows) if aug[i][c] % p), None)
            if pr is None:
                continue
            aug[r], aug[pr] = aug[pr], aug[r]
            inv = pow(aug[r][c], -1, p)
            aug[r] = [(v * inv) % p for v in aug[r]]
            for i in range(rows):
                if i != r and aug[i][c] % p:
                    fac = aug[i][c]
                    aug[i] = [(a - fac * b) % p for a, b in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
        sol = [0] * cols
        for i, c in enumerate(pivots):
            sol[c] = aug[i][cols]
        for i in range(r, rows):
            if aug[i][cols] % p:
                raise InternalInconsistency("norm value escaped the subfield image")
        v = FieldElement(self.sub, sol)
        if self(v) != y:
            raise InternalInconsistency("norm value escaped the subfield image")
        return v


@lru_cache(maxsize=None)
def embed(sub: FieldSpec, sup: FieldSpec) -> Embedding:
    """The deterministic embedding of sub into sup.

    Among the sub.n roots of sub.f in sup (one Frobenius orbit), the image
    of the class of x is the root with the smallest integer encoding.
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


def trace_to_prime(x: FieldElement) -> int:
    """The absolute trace sum(x^{p^i}, i < n), returned as an integer mod p."""
    tr = x.owner.basis_traces()
    return sum(c * t for c, t in zip(x.coeffs, tr)) % x.owner.p


def norm_to(x: FieldElement, target: FieldSpec, emb: Embedding) -> FieldElement:
    """The relative norm of x down to target along emb, as a target element."""
    if emb.super != x.owner or emb.sub != target:
        raise BadParameters("embedding does not match the norm request")
    if x.is_zero():
        return target.zero()
    q = target.order
    e = (x.owner.order - 1) // (q - 1)
    return emb.preimage(x ** e)


def primitive_root(spec: FieldSpec) -> FieldElement:
    """The multiplicative generator with the smallest integer encoding."""
    if spec._proot is not None:
        return spec._proot
    m = spec.order - 1
    if m == 1:
        spec._proot = spec.one()
        return spec._proot
    factors = spec.order_factors()
    one = spec.one()
    for enc in range(1, spec.order):
        x = spec.element_from_int(enc)
        if all((x ** (m // ell)) != one for ell in factors):
            spec._proot = x
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
    if m <= _EXHAUSTIVE_DLOG_BOUND:
        cur = spec.one()
        for k in range(m):
            if cur == x:
                return k
            cur = cur * g
        raise InternalInconsistency("element is not a power of the claimed generator")
    # baby-step giant-step
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


@lru_cache(maxsize=None)
def _unit_logs(spec: FieldSpec) -> dict:
    """Integer encoding -> discrete log to primitive_root(spec), every unit."""
    g = primitive_root(spec)
    out = {}
    cur = spec.one()
    for k in range(spec.order - 1):
        out[cur.to_int()] = k
        cur = cur * g
    return out


def pinned_dlog(a: FieldElement) -> int:
    """Discrete logarithm of a to the pinned generator of its own field.

    Fields with at most _EXHAUSTIVE_DLOG_BOUND units answer from a table of
    the whole unit group, built once; larger ones fall back to dlog.
    """
    if a.is_zero():
        raise ZeroArgument("discrete logarithm of zero")
    spec = a.owner
    if spec.order - 1 <= _EXHAUSTIVE_DLOG_BOUND:
        return _unit_logs(spec)[a.to_int()]
    return dlog(a, primitive_root(spec))


def eval_poly(coeffs, x: FieldElement, emb: Embedding | None = None) -> FieldElement:
    """Horner evaluation at x of a polynomial with subfield coefficients.

    coeffs is low -> high over emb.sub (or over x.owner when emb is None).
    """
    sup = x.owner
    acc = sup.zero()
    for c in reversed(list(coeffs)):
        if emb is not None:
            c = emb(c)
        elif c.owner != sup:
            raise InternalInconsistency("coefficient from a different field and no embedding given")
        acc = acc * x + c
    return acc
