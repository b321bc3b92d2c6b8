"""Exact arithmetic in Z[zeta_p, zeta_d] for gcd(p, d) = 1.

Elements are integer matrices over the tensor basis

    zeta_p^a * zeta_d^b,   0 <= a <= p-2,   0 <= b < phi(d),

which is a genuine integral basis because p and d are coprime, so equality
of reduced coefficient matrices is equality in the ring.  Reduction folds
zeta_p exponents with zeta_p^p = 1 and then
zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2)), one pass over the raw
terms, and zeta_d exponents through a table of powers modulo the d-th
cyclotomic polynomial.  All coefficients are arbitrary-precision integers;
nothing here ever rounds.

A product is one big-integer multiplication (Kronecker substitution): the
term zeta_p^a zeta_d^b of a factor becomes slot a*(2 phi(d) - 1) + b of a
single integer, each slot a whole number of 64-bit limbs wide enough for
max|x| * max|y| * min(nnz x, nnz y) plus a sign bit, so no slot of the
product can overflow into the next.  The product is read back through one
byte string; numpy only views those bytes to find the nonzero slots.

d = 1 degenerates to Z[zeta_p] (the zeta_d part has dimension one), which is
where untwisted sums live.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    BadParameters,
    NotCoprime,
    NotDivisible,
    NotPrime,
    RingMismatch,
    ZeroArgument,
)
from .finite_field import _is_prime


def _divisors(d):
    out = [k for k in range(1, d + 1) if d % k == 0]
    return out


def _zpoly_exact_div(num, den):
    """Exact division of integer polynomials, divisor monic; tuples low->high."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        out[k - dn] = c
        if c:
            for j in range(dn + 1):
                num[k - dn + j] -= c * den[j]
    if any(num):
        raise NotDivisible("polynomial division left a remainder")
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple:
    """Integer coefficients of the d-th cyclotomic polynomial, low -> high."""
    if d < 1:
        raise BadParameters("cyclotomic index must be positive")
    if d == 1:
        return (-1, 1)
    poly = tuple([-1] + [0] * (d - 1) + [1])  # x^d - 1
    for dd in _divisors(d):
        if dd < d:
            poly = _zpoly_exact_div(poly, cyclotomic_polynomial(dd))
    return poly


def _phi(d):
    return len(cyclotomic_polynomial(d)) - 1


def _reduction_table(modpoly, count):
    """Rows 0..count-1: x^t reduced modulo the monic integer polynomial."""
    deg = len(modpoly) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(count):
        rows.append(tuple(cur))
        # multiply by x and fold the overflow back in
        top = cur[deg - 1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(deg):
                cur[j] -= top * modpoly[j]
    return tuple(rows)


class CycloRing:
    """The ring Z[zeta_p, zeta_d] with its reduction tables."""

    __slots__ = ("p", "d", "phi_d", "_red_d")

    def __init__(self, p: int, d: int):
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if d < 1:
            raise BadParameters("d must be positive")
        from math import gcd

        if gcd(p, d) != 1:
            raise NotCoprime(f"p = {p} and d = {d} are not coprime")
        self.p = p
        self.d = d
        self.phi_d = _phi(d)
        count_d = max(2 * self.phi_d - 1, d)
        self._red_d = _reduction_table(cyclotomic_polynomial(d), count_d)

    def zero(self):
        return CycloElem(self, ((0,) * self.phi_d,) * (self.p - 1))

    def one(self):
        return self.from_int(1)

    def from_int(self, c: int):
        row0 = (c,) + (0,) * (self.phi_d - 1)
        rest = ((0,) * self.phi_d,) * (self.p - 2)
        return CycloElem(self, (row0,) + rest)

    def from_raw(self, raw):
        """Reduce a matrix indexed by raw exponents (a, b) of zeta_p^a zeta_d^b.

        Accepts up to max(2p - 3, p) rows (zeta_p exponents reach 2p - 4 in
        products and p - 1 in raw sums) and as many columns as the zeta_d
        table covers; reducing an already reduced matrix is the identity.
        """
        rows = len(raw)
        cols = max(map(len, raw), default=0)
        if rows > max(2 * self.p - 3, self.p) or cols > len(self._red_d):
            raise BadParameters("raw exponent matrix exceeds the reduction tables")
        return self._fold((a, b, c) for a, row in enumerate(raw) for b, c in enumerate(row) if c)

    def _fold(self, terms):
        """The reduced element sum c * zeta_p^a * zeta_d^b over (a, b, c) terms,
        with a >= 0 and b < len(_red_d)."""
        p, red_d = self.p, self._red_d
        rows = [[0] * self.phi_d for _ in range(p)]
        for a, b, c in terms:
            row = rows[a % p]  # zeta_p^p = 1
            for k, r in enumerate(red_d[b]):
                if r:
                    row[k] += r * c
        top = rows.pop()  # zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2))
        if any(top):
            rows = [[v - t for v, t in zip(row, top)] for row in rows]
        return CycloElem(self, rows)

    def zeta_pow(self, which: str, t: int):
        """zeta_p^t or zeta_d^t as a reduced element; t may be any integer."""
        if which == "p":
            t %= self.p
            raw = [[0] * 1 for _ in range(t + 1)]
            raw[t][0] = 1
            return self.from_raw(raw)
        if which == "d":
            t %= self.d
            raw = [[0] * (t + 1)]
            raw[0][t] = 1
            return self.from_raw(raw)
        raise BadParameters("which must be 'p' or 'd'")

    def __eq__(self, other):
        if not isinstance(other, CycloRing):
            return NotImplemented
        return self.p == other.p and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.d))

    def __repr__(self):
        return f"CycloRing(p={self.p}, d={self.d})"


def _pack(terms, size):
    """The integer sum c * 2^(8 size (s - s0)) over the (s, c) terms, s0 the
    first slot, built from two byte strings (positive and negative parts):
    linear in the packed size, where summing shifted terms is quadratic."""
    zero = bytes(size)
    pos, neg = [], []
    nxt = terms[0][0]
    for s, c in terms:
        if s > nxt:
            gap = zero * (s - nxt)
            pos.append(gap)
            neg.append(gap)
        if c > 0:
            pos.append(c.to_bytes(size, "little"))
            neg.append(zero)
        else:
            pos.append(zero)
            neg.append((-c).to_bytes(size, "little"))
        nxt = s + 1
    return int.from_bytes(b"".join(pos), "little") - int.from_bytes(b"".join(neg), "little")


@lru_cache(maxsize=16)
def _bias(slots, limbs):
    """2^(w-1) in each of `slots` slots of w = 64 limbs bits: added to a
    product whose slots lie strictly between -2^(w-1) and 2^(w-1), it makes
    every slot a nonnegative w-bit digit."""
    bits = 64 * limbs
    return ((1 << (bits * slots)) - 1) // ((1 << bits) - 1) << (bits - 1)


@lru_cache(maxsize=None)
def make_ring(p: int, d: int) -> CycloRing:
    return CycloRing(p, d)


class CycloElem:
    """A reduced element of a CycloRing; immutable and hashable."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CycloRing, coeffs):
        self.ring = ring
        self.coeffs = tuple(tuple(row) for row in coeffs)
        if len(self.coeffs) != ring.p - 1 or any(len(r) != ring.phi_d for r in self.coeffs):
            raise BadParameters("coefficient matrix has the wrong shape")

    def _check(self, other):
        if not isinstance(other, CycloElem) or other.ring != self.ring:
            raise RingMismatch("mixed elements of different cyclotomic rings")

    def __add__(self, other):
        self._check(other)
        return CycloElem(
            self.ring,
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        self._check(other)
        return CycloElem(
            self.ring,
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        return CycloElem(self.ring, tuple(tuple(-a for a in row) for row in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloElem(self.ring, tuple(tuple(other * a for a in row) for row in self.coeffs))
        self._check(other)
        ring = self.ring
        width = 2 * ring.phi_d - 1
        xs, ys = self._slots(width), other._slots(width)
        if not xs or not ys:
            return ring.zero()
        # each product slot sums at most min(nnz) terms, so |slot| <= bound,
        # and whole limbs holding bound plus a sign bit cannot overflow
        bound = max(abs(c) for _, c in xs) * max(abs(c) for _, c in ys) * min(len(xs), len(ys))
        limbs = (bound.bit_length() + 64) // 64
        size = 8 * limbs
        # both factors are packed from their first nonzero slot, so the
        # product covers slots lo .. lo + n - 1 only
        lo = xs[0][0] + ys[0][0]
        n = xs[-1][0] + ys[-1][0] - lo + 1
        full = (2 * ring.p - 3) * width
        prod = _pack(xs, size) * _pack(ys, size) + (_bias(full, limbs) >> (64 * limbs * (full - n)))
        buf = prod.to_bytes(n * size, "little")
        # a zero slot reads back as the bias alone: top limb 2^63, others 0
        zero_slot = np.zeros(limbs, dtype="<u8")
        zero_slot[-1] = 1 << 63
        nonzero = np.flatnonzero((np.frombuffer(buf, dtype="<u8").reshape(n, limbs) != zero_slot).any(axis=1))
        half = 1 << (64 * limbs - 1)
        return ring._fold(
            (*divmod(lo + k, width), int.from_bytes(buf[k * size:(k + 1) * size], "little") - half)
            for k in nonzero.tolist()
        )

    def _slots(self, width):
        """Nonzero (slot, coefficient) pairs, slot a * width + b, in slot order."""
        return [(a * width + b, c) for a, row in enumerate(self.coeffs) for b, c in enumerate(row) if c]

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, CycloElem):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring.p, self.ring.d, self.coeffs))

    def __repr__(self):
        return f"CycloElem(p={self.ring.p}, d={self.ring.d}, coeffs={self.coeffs})"

    def to_json_dict(self) -> dict:
        return {"p": self.ring.p, "d": self.ring.d, "coeffs": [list(r) for r in self.coeffs]}


def from_json_dict(data: dict) -> CycloElem:
    ring = make_ring(int(data["p"]), int(data["d"]))
    return CycloElem(ring, data["coeffs"])


def exact_div_int(x: CycloElem, n: int) -> CycloElem:
    """Divide every coefficient by n; NotDivisible if any remainder is nonzero."""
    if n == 0:
        raise ZeroArgument("division by zero")
    out = []
    for row in x.coeffs:
        new = []
        for a in row:
            q, r = divmod(a, n)
            if r:
                raise NotDivisible(f"coefficient {a} is not divisible by {n}")
            new.append(q)
        out.append(tuple(new))
    return CycloElem(x.ring, tuple(out))


def embed_into(x: CycloElem, target: CycloRing) -> CycloElem:
    """Map Z[zeta_p, zeta_{d'}] into Z[zeta_p, zeta_d] when d' divides d."""
    src = x.ring
    if src.p != target.p:
        raise RingMismatch("rings have different p")
    if target.d % src.d != 0:
        raise RingMismatch(f"{src.d} does not divide {target.d}")
    step = target.d // src.d
    # basis vector zeta_{d'}^b maps to zeta_d^(step*b); b < phi(d') <= d' so
    # step*b < d stays inside the target reduction table
    raw = [[0] * target.d for _ in range(target.p - 1)]
    for a in range(src.p - 1):
        for b in range(src.phi_d):
            c = x.coeffs[a][b]
            if c:
                raw[a][step * b] += c
    return target.from_raw(raw)
