"""Exact arithmetic in Z[zeta_p, zeta_d] for gcd(p, d) = 1.

Elements are integer vectors over the tensor basis

    zeta_p^a * zeta_d^b,   0 <= a <= p-2,   0 <= b < phi(d),

stored flat: the coordinate of zeta_p^a zeta_d^b sits at index
a * phi(d) + b of one tuple of (p - 1) phi(d) ints.  This is a genuine
integral basis because p and d are coprime, so equality of reduced
coefficient vectors is equality in the ring.  Only this module maps an
index to (a, b); everything else reads CycloElem.terms().  Reduction takes
a flat list of raw coefficients, zeta_p^a zeta_d^b at index a w + b for a
width w, and works on whole columns: zeta_d exponents through a table of
powers modulo the d-th cyclotomic polynomial, built over Z by
finite_field._shift_rows, the one row builder of every reduction by a
monic polynomial, then zeta_p exponents with zeta_p^p = 1 and
zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2)).  All coefficients are
arbitrary-precision integers; nothing here ever rounds.

Every ring product is a dot product, sum x_i * y_i, which dot() computes
by one Kronecker substitution and reads back once, as machine words when
a digit fits 8 bytes; x * y is the dot product of one pair.

d = 1 degenerates to Z[zeta_p] (the zeta_d part has dimension one), which is
where untwisted sums live.  The JSON form keeps the (p - 1) x phi(d)
matrix of rows a.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import add, neg, sub
from struct import pack
from sys import byteorder

from .errors import InternalError, ParameterError
from .finite_field import _is_prime, _shift_rows


# the native struct and memoryview format of a signed integer of 1, 2, 4 or
# 8 bytes; CPython's own startup loads struct, so dot adds no import
_WORD = {1: "b", 2: "h", 4: "i", 8: "q"}


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
        raise InternalError("polynomial division left a remainder")
    return tuple(out)


@lru_cache(maxsize=256)
def cyclotomic_polynomial(d: int) -> tuple:
    """Integer coefficients of the d-th cyclotomic polynomial, low -> high.

    Each call recurses over the divisors of d; no d below 10^6 has more
    than 240 of them, so 256 entries keep the recursion from recomputing."""
    if d < 1:
        raise ParameterError("cyclotomic index must be positive")
    if d == 1:
        return (-1, 1)
    poly = tuple([-1] + [0] * (d - 1) + [1])  # x^d - 1
    for dd in _divisors(d):
        if dd < d:
            poly = _zpoly_exact_div(poly, cyclotomic_polynomial(dd))
    return poly


def _phi(d):
    return len(cyclotomic_polynomial(d)) - 1


class CycloRing:
    """The ring Z[zeta_p, zeta_d] with its reduction tables."""

    __slots__ = ("p", "d", "phi_d", "rank", "_red_d")

    def __init__(self, p: int, d: int):
        if not _is_prime(p):
            raise ParameterError(f"{p} is not prime")
        if d < 1:
            raise ParameterError("d must be positive")
        from math import gcd

        if gcd(p, d) != 1:
            raise ParameterError(f"p = {p} and d = {d} are not coprime")
        self.p = p
        self.d = d
        self.phi_d = _phi(d)
        self.rank = (p - 1) * self.phi_d
        self._red_d = _shift_rows((1,) + (0,) * (self.phi_d - 1), cyclotomic_polynomial(d),
                                  max(2 * self.phi_d - 1, d))

    def zero(self):
        return CycloElem(self, (0,) * self.rank)

    def one(self):
        return self.from_int(1)

    def from_int(self, c: int):
        return CycloElem(self, (c,) + (0,) * (self.rank - 1))

    def from_raw(self, raw):
        """Reduce a matrix indexed by raw exponents (a, b) of zeta_p^a zeta_d^b.

        Accepts up to max(2p - 3, p) rows (zeta_p exponents reach p - 1 in
        raw sums; the 2p - 4 of an unreduced product is admitted too) and as
        many columns as the zeta_d table covers; reducing an already reduced
        matrix is the identity.
        """
        rows = len(raw)
        cols = max(map(len, raw), default=0)
        if rows > max(2 * self.p - 3, self.p) or cols > len(self._red_d):
            raise ParameterError("raw exponent matrix exceeds the reduction tables")
        flat = [0] * (rows * cols)
        for a, row in enumerate(raw):
            flat[a * cols:a * cols + len(row)] = row
        return self._fold(flat, cols) if cols else self.zero()

    def _fold(self, raw, width):
        """The reduced element sum raw[a width + b] zeta_p^a zeta_d^b over the
        flat list raw, for width <= len(_red_d); raw may be modified.

        Each step works on whole columns: zeta_d^b is the basis vector b
        for b < phi(d), and a wider column adds into the columns of its
        table row; then the chunks of p rows add up (zeta_p^p = 1)."""
        p, phi_d, red_d = self.p, self.phi_d, self._red_d
        raw += [0] * (-len(raw) % width)
        if width == phi_d:
            acc = raw
        else:
            acc = [0] * (len(raw) // width * phi_d)
            for b in range(min(width, phi_d)):
                acc[b::phi_d] = raw[b::width]
            for b in range(phi_d, width):
                col = raw[b::width]
                if any(col):
                    for k, r in enumerate(red_d[b]):
                        if r:
                            acc[k::phi_d] = [u + r * c for u, c in zip(acc[k::phi_d], col)]
        span = p * phi_d
        out = acc[:span]
        out += [0] * (span - len(out))
        for s in range(span, len(acc), span):
            chunk = acc[s:s + span]
            out[:len(chunk)] = map(add, out, chunk)
        top = out[self.rank:]  # zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2))
        del out[self.rank:]
        if any(top):
            out = list(map(sub, out, top * (p - 1)))
        return CycloElem(self, tuple(out))

    def conj(self, x):
        """x under zeta_p -> zeta_p^-1, zeta_d -> zeta_d^-1: complex
        conjugation, in every complex embedding of the ring."""
        if x.ring != self:
            raise InternalError("conjugating an element of another ring")
        p, d, phi_d = self.p, self.d, self.phi_d
        raw = [0] * (p * d)
        for b in range(phi_d):
            col = x.coeffs[b::phi_d]  # rows a = 0 .. p - 2 go to rows -a mod p
            raw[-b % d::d] = (col[0], 0) + col[:0:-1]
        return self._fold(raw, d)

    def __eq__(self, other):
        if not isinstance(other, CycloRing):
            return NotImplemented
        return self.p == other.p and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.d))

    def __repr__(self):
        return f"CycloRing(p={self.p}, d={self.d})"


@lru_cache(maxsize=32)
def make_ring(p: int, d: int) -> CycloRing:
    """The ring Z[zeta_p, zeta_d], shared.  A job works in one or two rings
    per twist order; 32 entries of about max(2 phi(d), d) phi(d) ints each
    bound the cache."""
    return CycloRing(p, d)


class CycloElem:
    """A reduced element of a CycloRing; immutable and hashable.  coeffs
    is the flat tuple of ring.rank ints laid out in the module docstring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CycloRing, coeffs: tuple):
        if type(coeffs) is not tuple or len(coeffs) != ring.rank or set(map(type, coeffs)) != {int}:
            raise ParameterError(f"coefficients must be a tuple of {ring.rank} ints")
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, CycloElem) or other.ring != self.ring:
            raise InternalError("mixed elements of different cyclotomic rings")

    def terms(self):
        """The nonzero coordinates as (a, b, c): c times zeta_p^a zeta_d^b."""
        phi_d = self.ring.phi_d
        return ((*divmod(i, phi_d), c) for i, c in enumerate(self.coeffs) if c)

    def __add__(self, other):
        self._check(other)
        return CycloElem(self.ring, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return CycloElem(self.ring, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloElem(self.ring, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloElem(self.ring, tuple([other * a for a in self.coeffs]))
        return dot((self,), (other,))

    __rmul__ = __mul__

    def _run(self, width):
        """(s, cs): cs the coefficients of slots s, s + 1, ... through the
        last nonzero one, s the first nonzero slot, zeta_p^a zeta_d^b in
        slot a * width + b; None for zero."""
        phi_d = self.ring.phi_d
        if width == phi_d:  # phi(d) = 1: the slots are the coordinates
            run = self.coeffs
        else:
            run = [0] * ((self.ring.p - 1) * width)
            for b in range(phi_d):
                run[b::width] = self.coeffs[b::phi_d]
        end = len(run)
        while end and not run[end - 1]:
            end -= 1
        if not end:
            return None
        start = 0
        while not run[start]:
            start += 1
        return start, run[start:end]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, CycloElem):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring.p, self.ring.d, self.coeffs))

    def __repr__(self):
        return f"CycloElem(p={self.ring.p}, d={self.ring.d}, coeffs={self.coeffs})"

    def to_json_dict(self) -> dict:
        """The element with coeffs as the (p - 1) x phi(d) matrix of rows a."""
        phi_d, cs = self.ring.phi_d, self.coeffs
        return {"p": self.ring.p, "d": self.ring.d,
                "coeffs": [list(cs[i:i + phi_d]) for i in range(0, len(cs), phi_d)]}


def dot(xs, ys) -> CycloElem:
    """The exact sum of x * y over the pairs of xs and ys, all in one ring.

    Kronecker substitution: zeta_p^a zeta_d^b of a factor is the digit of
    slot a (2 phi(d) - 1) + b in base 2^(8 size), counted from the factor's
    first nonzero slot, and each pair's product is shifted to the pair's
    first slot.  A slot of the sum is at most the sum over pairs of
    max|x| max|y| min(nnz x, nnz y) in absolute value, and `size` bytes
    hold that bound plus a sign bit.  A digit of at most 8 bytes is
    rounded up to 1, 2, 4 or 8, and the digits are packed and read back as
    machine words by struct and memoryview; a wider one goes through
    bytes digit by digit.  Both write each digit c as two's complement,
    c mod 2^(8 size).  With B the integer of n digits 2^(8 size - 1), the
    sign bit, n the digits of the sum and so at least those of a factor,
    such a packing P stands for (P ^ B) - B (the digits past P's own read
    2^(8 size - 1) and cancel), and the sum T reads back from (T + B) ^ B.
    """
    if len(xs) != len(ys):
        raise ParameterError(f"{len(xs)} left factors against {len(ys)} right factors")
    if not xs:
        raise ParameterError("a dot product needs at least one pair")
    ring = getattr(xs[0], "ring", None)
    for z in chain(xs, ys):
        if not isinstance(z, CycloElem) or (z.ring is not ring and z.ring != ring):
            raise InternalError("mixed elements of different cyclotomic rings")
    width = 2 * ring.phi_d - 1
    pairs = [(rx, ry) for rx, ry in ((x._run(width), y._run(width)) for x, y in zip(xs, ys))
             if rx and ry]
    if not pairs:
        return ring.zero()
    bound = sum(max(map(abs, cx)) * max(map(abs, cy)) * min(len(cx) - cx.count(0), len(cy) - cy.count(0))
                for (_, cx), (_, cy) in pairs)
    size = (bound.bit_length() + 8) // 8
    if size <= 8:
        size = 1 << (size - 1).bit_length()
        code = _WORD[size]

        def to_bytes(cs):  # "12b", not "bbbbbbbbbbbb": struct keeps each format
            return pack(f"{len(cs)}{code}", *cs)

        def from_bytes(buf):
            return memoryview(buf).cast(code).tolist()
    else:
        def to_bytes(cs):
            return b"".join([c.to_bytes(size, byteorder, signed=True) for c in cs])

        def from_bytes(buf):
            return [int.from_bytes(buf[i:i + size], byteorder, signed=True)
                    for i in range(0, len(buf), size)]

    def packed(cs):
        return (int.from_bytes(to_bytes(cs), byteorder) ^ bias) - bias

    bits = 8 * size
    lo = min(sx + sy for (sx, _), (sy, _) in pairs)
    n = max(sx + len(cx) + sy + len(cy) for (sx, cx), (sy, cy) in pairs) - 1 - lo
    bias = int.from_bytes((1 << bits - 1).to_bytes(size, byteorder) * n, byteorder)  # B
    total = sum(packed(cx) * packed(cy) << bits * (sx + sy - lo) for (sx, cx), (sy, cy) in pairs)
    raw = from_bytes(((total + bias) ^ bias).to_bytes(n * size, byteorder))
    return ring._fold([0] * lo + raw, width)


def from_json_dict(data: dict) -> CycloElem:
    """The element of a to_json_dict form; the nested shape is checked
    before the rows are flattened."""
    ring = make_ring(int(data["p"]), int(data["d"]))
    rows = data["coeffs"]
    if len(rows) != ring.p - 1 or any(type(row) is not list or len(row) != ring.phi_d for row in rows):
        raise ParameterError("coefficient matrix has the wrong shape")
    return CycloElem(ring, tuple(chain.from_iterable(rows)))


def exact_div_int(x: CycloElem, n: int) -> CycloElem:
    """Divide every coefficient by n; InternalError if any remainder is nonzero."""
    if n == 0:
        raise ParameterError("division by zero")
    out = []
    for a in x.coeffs:
        q, r = divmod(a, n)
        if r:
            raise InternalError(f"coefficient {a} is not divisible by {n}")
        out.append(q)
    return CycloElem(x.ring, tuple(out))


def embed_into(x: CycloElem, target: CycloRing) -> CycloElem:
    """Map Z[zeta_p, zeta_{d'}] into Z[zeta_p, zeta_d] when d' divides d."""
    src = x.ring
    if src.p != target.p:
        raise InternalError("rings have different p")
    if target.d % src.d != 0:
        raise InternalError(f"{src.d} does not divide {target.d}")
    step = target.d // src.d
    # basis vector zeta_{d'}^b maps to zeta_d^(step*b); b < phi(d') <= d' so
    # step*b < d stays inside the target reduction table
    raw = [0] * ((src.p - 1) * target.d)
    for b in range(src.phi_d):
        raw[step * b::target.d] = x.coeffs[b::src.phi_d]
    return target._fold(raw, target.d)
