"""Exact character sums over finite fields and the L-polynomials built from them.

Everything here returns elements of Z[zeta_p, zeta_d], never floats.  The
enumeration runs over the whole extension field k_r = F_{q^r}, so values
are exact by construction; the cost is O(q^r * terms), guarded by a
configurable cap.

Let G be the lex-smallest generator of k_r^* and M = q^r - 1.  A table,
kept for the most recent fields, holds Tr(G^k) for every k < M, built in
blocks as a small matrix product over the integers (see _TraceTable).
The sums themselves are not cached.  A coefficient a = g^u of P,
for the pinned generator g of F_q, embeds as G^(k0 u): k0 is found once per
(base field, extension) inside the norm subgroup, and u comes from a table
of the base field's units, so no logarithm is taken in the big field per
coefficient.  At x = G^k the term a x^i then has trace T[(k0 u + i k) mod M]:
for consecutive k this walks the table with stride i, which is one strided
slice between wrap-arounds.  The kernel adds those slices, term by term,
into a small unsigned accumulator and histograms the trace values of each
class k mod d straight into the row of its character class; summing the
raw trace values by t // p then folds them mod p.  Power sums walk only
the image of x -> x^d.  Both the kernel and the table build run in
cache-sized passes of _CHUNK elements over buffers allocated once per
call, so a sum's working memory beyond its table is bounded by one pass:
about 9 bytes per element of a pass (the accumulator and bincount's
intp copy of it), 10 where the accumulator is uint16.  A per-element
reference implementation lives in the test suite and pins this engine
down on small instances.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .cyclotomic import CycloElem, CycloRing, dot, embed_into, exact_div_int, make_ring
from .errors import InternalError, ParameterError, ResourceBound
from .finite_field import (
    FieldElement,
    FieldSpec,
    check_field_params,
    dlog,
    embed,
    make_field,
    multiplication_matrix,
    primitive_root,
)

MAX_ENUM_DEFAULT = 1 << 24
# elements per kernel pass and entries per table-build pass, one size for
# both: small enough that a pass's temporaries stay within a core's L2
_CHUNK = 1 << 17


class PolySpec:
    """Monic polynomial X^e + a_{e-1} X^{e-1} + ... + a_1 X over F_q.

    Constant term is identically zero and the degree is prime to p; coeffs
    holds a_1 .. a_{e-1} in that order (empty when e = 1).
    """

    __slots__ = ("base", "e", "coeffs")

    def __init__(self, base: FieldSpec, e: int, coeffs=()):
        if e < 1:
            raise ParameterError("degree must be at least 1")
        if e % base.p == 0:
            raise ParameterError(f"degree {e} is divisible by p = {base.p}")
        coeffs = tuple(coeffs)
        if len(coeffs) != e - 1:
            raise ParameterError(f"expected {e - 1} lower coefficients, got {len(coeffs)}")
        for a in coeffs:
            if not isinstance(a, FieldElement) or a.owner != base:
                raise ParameterError("coefficients must live in the base field")
        self.base = base
        self.e = e
        self.coeffs = coeffs

    def full_coeffs(self) -> tuple:
        """All coefficients of degrees 0..e, low to high."""
        return (self.base.zero(),) + self.coeffs + (self.base.one(),)

    def terms(self):
        """(degree, coefficient) pairs with nonzero coefficient; includes the top."""
        out = [(i + 1, a) for i, a in enumerate(self.coeffs) if not a.is_zero()]
        out.append((self.e, self.base.one()))
        return out

    def key(self) -> tuple:
        return (self.base.p, self.base.n, self.e, tuple(a.to_int() for a in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, PolySpec):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PolySpec(q={self.base.order}, e={self.e}, coeffs={[a.to_int() for a in self.coeffs]})"


def poly_from_ints(base: FieldSpec, e: int, ints) -> PolySpec:
    return PolySpec(base, e, tuple(base.element_from_int(v) for v in ints))


def embed_poly(P: PolySpec, target: FieldSpec) -> PolySpec:
    """The same polynomial with coefficients pushed into an extension field."""
    em = embed(P.base, target)
    return PolySpec(target, P.e, tuple(em(a) for a in P.coeffs))


class TwistSpec:
    """Multiplicative twist: the kappa-th power of a fixed order-d character,
    d >= 2 and 1 <= kappa <= d - 1 (kappa = 0 is the additive sum)."""

    __slots__ = ("d", "kappa")

    def __init__(self, d: int, kappa: int):
        d, kappa = int(d), int(kappa)
        if d < 2:
            raise ParameterError(f"a twist needs character order d >= 2, got d = {d}")
        if not 1 <= kappa < d:
            raise ParameterError(f"kappa must lie in [1, {d - 1}]")
        self.d = d
        self.kappa = kappa

    def __repr__(self):
        return f"TwistSpec(d={self.d}, kappa={self.kappa})"


class _TraceTable:
    """Absolute traces of G^k for the lex-smallest generator G of F_{p^n}.

    Built in blocks of B = ceil(sqrt(M)) exponents: Tr(G^(jB+i)) equals
    sum_l v_j[l] Tr(x^l G^i), where v_j holds the coordinates of G^(jB), so
    the table is the (M/B x n)(n x B) matrix product V W reduced mod p.
    """

    __slots__ = ("spec", "order", "traces")

    def __init__(self, p: int, n: int):
        spec = make_field(p, n)
        G = primitive_root(spec)
        M = spec.order - 1
        B = isqrt(M - 1) + 1
        # trace form Q[l, c] = Tr(x^(l+c)), the trace of M_x^(l+c) mod p
        mx = np.array(multiplication_matrix(spec.gen()), dtype=np.int64)
        tr, mk = [], np.identity(n, dtype=np.int64)
        for _ in range(2 * n - 1):
            tr.append(np.trace(mk) % p)
            mk = mk @ mx % p
        Q = np.array(tr)[np.add.outer(np.arange(n), np.arange(n))]
        # entries of V W are at most n (p-1)^2; the product runs in the
        # narrowest unsigned dtype that holds that, one term l at a time
        dtype = _uint_dtype(n * (p - 1) ** 2)
        W = (Q @ _power_coords(G, B).T % p).astype(dtype)
        V = _power_coords(G**B, -(-M // B)).astype(dtype)
        T = np.empty(M, dtype=_uint_dtype(p - 1))
        rows = min(max(1, _CHUNK // B), V.shape[0])
        # one block and one term buffer serve every pass; the last pass
        # takes their leading rows
        blk_buf, term_buf = np.empty((2, rows, B), dtype=dtype)
        for j in range(0, V.shape[0], rows):
            v = V[j : j + rows]
            blk, term = blk_buf[: len(v)], term_buf[: len(v)]
            np.multiply(v[:, 0, None], W[0], out=blk)
            for l in range(1, n):
                blk += np.multiply(v[:, l, None], W[l], out=term)
            blk %= p
            T[j * B : (j + rows) * B] = blk.ravel()[: M - j * B]
        self.spec = spec
        self.order = M
        self.traces = T


def _power_coords(a: FieldElement, count: int):
    """Coordinates of a^0 .. a^(count-1) as rows, filled by doubling."""
    p = a.owner.p
    step = np.array(multiplication_matrix(a), dtype=np.int64)
    out = np.zeros((count, a.owner.n), dtype=np.int64)
    out[0, 0] = 1
    have = 1
    while have < count:
        take = min(have, count - have)
        out[have : have + take] = out[:take] @ step.T % p
        step = step @ step % p
        have += take
    return out


def _uint_dtype(top: int):
    """The narrowest unsigned dtype holding 0 .. top."""
    for dt in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dt).max:
            return dt
    return np.uint64


@lru_cache(maxsize=32)
def _trace_table(p: int, n: int) -> _TraceTable:
    """The trace table of F_{p^n}, kept for the 32 most recent fields.

    A sum checks its field against max_enum before it asks for a table,
    so each table has at most max_enum entries, one byte each up to
    p = 256, and the tables of one characteristic sum to under p/(p - 1)
    times the largest.  32 tables hold every field one job reaches at the
    default cap: p = 2 goes up to n = 24.
    """
    return _TraceTable(p, n)


def check_enum(p: int, n: int, max_enum: int) -> None:
    """Refuse to enumerate the p^n elements of F_{p^n} past max_enum.  As
    p^n >= 2^n, an n past max_enum's bit length is refused without forming
    p^n, and the count prints as the power p^n once n passes 64."""
    if n > max_enum.bit_length() or p**n > max_enum:
        count = p**n if n <= 64 else f"{p}^{n}"
        raise ResourceBound(f"enumeration of {count} field elements exceeds the cap {max_enum}")


def enumerable_field(p: int, m: int, max_enum: int) -> FieldSpec:
    """F_{p^m} for sums that enumerate it, refused before it is built when
    it has more than max_enum elements: the irreducible search behind
    make_field alone runs for minutes at 3^131."""
    check_field_params(p, m)
    check_enum(p, m, max_enum)
    return make_field(p, m)


@lru_cache(maxsize=64)
def _generator_exponent(base: FieldSpec, big: FieldSpec) -> int:
    """w with em(g) = G^(s w), s = (q^r - 1)/(q - 1), for the pinned
    generators g of F_q and G of its extension.

    em(g) lies in the order-(q - 1) subgroup generated by G^s, so the
    logarithm is taken there.  One int per (base, extension) pair, as
    many pairs as embed keeps.
    """
    s = (big.order - 1) // (base.order - 1)
    em = embed(base, big)
    return dlog(em(primitive_root(base)), primitive_root(big) ** s, base.order - 1)


def _term_shifts(P: PolySpec, tab: _TraceTable) -> list:
    """(degree, dlog of embedded coefficient) for each nonzero term of P.

    A coefficient g^u embeds as G^(k0 u) with k0 = s w, so only its
    logarithm u in the base field is needed.
    """
    q, M, g = P.base.order, tab.order, primitive_root(P.base)
    k0 = M // (q - 1) * _generator_exponent(P.base, tab.spec)
    return [(i, k0 * dlog(a, g) % M) for i, a in P.terms()]


def _add_strided(acc, T, start: int, step: int) -> None:
    """acc[k] += T[(start + step k) mod M] for every k < len(acc).

    The walk is one strided slice of T between wrap-arounds; it wraps
    about step len(acc) / M times.
    """
    M = T.size
    step %= M
    if step == 0:
        acc += T[start]
        return
    k, n = 0, acc.size
    while k < n:
        cnt = min(n - k, (M - start + step - 1) // step)
        acc[k : k + cnt] += T[start : start + step * (cnt - 1) + 1 : step]
        k += cnt
        start += step * cnt - M


def _histogram(tab: _TraceTable, shifts, step: int, count: int, D: int, mul: int):
    """counts[t, b]: the k < count with mul k = b mod D and
    sum_(i, j) Tr(G^(j + i step k)) = t mod p, over the terms (i, j)."""
    p, M, T = tab.spec.p, tab.order, tab.traces
    top = len(shifts) * (p - 1)
    # the raw trace sum t counts at [., t // p, t mod p]
    raw = np.zeros((D, top // p + 1, p), dtype=np.int64)
    # chunks start at multiples of D, so acc[c::D] is the class of c;
    # each pass zeroes a prefix of one accumulator
    chunk = max(1, _CHUNK // D) * D
    acc_buf = np.empty(min(chunk, count), dtype=_uint_dtype(top))
    for a in range(0, count, chunk):
        acc = acc_buf[: min(chunk, count - a)]
        acc.fill(0)
        for i, j in shifts:
            _add_strided(acc, T, (j + i * step * a) % M, i * step)
        for c in range(D):
            raw[mul * c % D] += np.bincount(acc[c::D], minlength=raw[0].size).reshape(-1, p)
    return raw.sum(axis=1).T


def twisted_sum(P: PolySpec, twist: TwistSpec, r: int, max_enum: int = MAX_ENUM_DEFAULT) -> CycloElem:
    """S_r of P against the kappa-th power of the pinned order-d character.

    The character chi sends the lex-smallest generator g of F_q^* to zeta_d
    and is evaluated on x through the norm down to F_q.  Exact element of
    Z[zeta_p, zeta_d].
    """
    base = P.base
    p, m, q = base.p, base.n, base.order
    d, kappa = twist.d, twist.kappa
    if (q - 1) % d:
        raise ParameterError(f"character order {d} does not divide q - 1 = {q - 1}")
    if r < 1:
        raise ParameterError("r must be at least 1")
    check_enum(p, m * r, max_enum)
    tab = _trace_table(p, m * r)
    shifts = _term_shifts(P, tab)
    # the norm of G^k is G^(s k) = em(g)^(k / w mod q - 1), so G^k lies in
    # character class kappa k / w mod d
    mul = kappa * pow(_generator_exponent(base, tab.spec), -1, q - 1) % d
    return make_ring(p, d).from_raw(_histogram(tab, shifts, 1, tab.order, d, mul).tolist())


def additive_sum(P: PolySpec, r: int, max_enum: int = MAX_ENUM_DEFAULT) -> CycloElem:
    """Sum of zeta_p^Tr(P(x)) over every x in k_r, the zero included."""
    return _psi_sum(P, 1, r, max_enum)


def power_sum(P: PolySpec, d: int, r: int, max_enum: int = MAX_ENUM_DEFAULT) -> CycloElem:
    """Sum of zeta_p^Tr(P(x^d)) over every x in k_r."""
    if d < 1:
        raise ParameterError(f"d must be at least 1, got {d}")
    if gcd(P.base.p, d) != 1:
        raise ParameterError(f"d = {d} shares a factor with p = {P.base.p}")
    return _psi_sum(P, d, r, max_enum)


def _psi_sum(P: PolySpec, d: int, r: int, max_enum: int) -> CycloElem:
    """Sum of zeta_p^Tr(P(x^d)) over every x in k_r; the additive sum is
    d = 1.

    x -> x^d maps the M units g-to-one onto the M/g powers G^(g k), where
    g = gcd(d, M), so only those are walked.
    """
    if r < 1:
        raise ParameterError("r must be at least 1")
    base = P.base
    check_enum(base.p, base.n * r, max_enum)
    tab = _trace_table(base.p, base.n * r)
    g = gcd(d, tab.order)
    counts = g * _histogram(tab, _term_shifts(P, tab), g, tab.order // g, 1, 1)
    counts[0] += 1  # P(0) = 0
    return make_ring(base.p, 1).from_raw(counts.tolist())


def gauss_sum(qspec: FieldSpec, d: int, kappa: int, max_enum: int = MAX_ENUM_DEFAULT) -> CycloElem:
    """Gauss sum of the pinned order-d character's kappa-th power over F_q."""
    return twisted_sum(PolySpec(qspec, 1), TwistSpec(d, kappa), 1, max_enum)


class LPolynomial:
    """Polynomial with CycloElem coefficients, constant term 1."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CycloRing, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ParameterError("no coefficients")
        if coeffs[0] != ring.one():
            raise ParameterError("constant term must be 1")
        for c in coeffs:
            if c.ring != ring:
                raise InternalError("coefficient outside the stated ring")
        self.ring = ring
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, LPolynomial):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return f"LPolynomial(ring={self.ring}, degree={self.degree})"


def l_polynomial(sums, degree: int, q: int) -> LPolynomial:
    """Assemble exp(sum S_r T^r / r) from its first max(degree, 1) sums
    (S_1, S_2, ...) and certify it as a polynomial of the stated degree D
    whose reciprocal roots all have absolute value sqrt(q).

    The recurrence n*c_n = sum_{r<=n} S_r c_{n-r} divides exactly at every
    step.  Such a polynomial satisfies c_{D-i} q^i = c_D conj(c_i) for
    0 <= i <= D, where conj is complex conjugation; the cases i = D
    (c_D conj(c_D) = q^D, so c_D != 0) and 1 <= i <= D/2 imply the rest,
    and are checked.  A wrong degree or a wrong sum breaks a division or one
    of them, unless one ring automorphism moves every sum alike.  For D = 0
    the one sum must give c_1 = 0.
    """
    if degree < 0:
        raise ParameterError("degree must be nonnegative")
    need = max(degree, 1)
    if len(sums) != need:
        raise ParameterError(f"need {need} sums to certify degree {degree}, have {len(sums)}")
    ring = sums[0].ring
    coeffs = [ring.one()]
    for n in range(1, need + 1):
        coeffs.append(exact_div_int(dot(sums[:n], coeffs[::-1]), n))
    if degree == 0:
        if not coeffs[1].is_zero():
            raise InternalError("coefficient 1 is nonzero; degree 0 is wrong")
        return LPolynomial(ring, coeffs[:1])
    lead = coeffs[degree]
    if lead * ring.conj(lead) != ring.from_int(q**degree):
        raise InternalError(f"c_{degree} conj(c_{degree}) != q^{degree} for q = {q}")
    for i in range(1, degree // 2 + 1):
        if coeffs[degree - i] * q**i != lead * ring.conj(coeffs[i]):
            raise InternalError(
                f"c_{degree - i} q^{i} != c_{degree} conj(c_{i}) for q = {q}")
    return LPolynomial(ring, coeffs)


def _certified(sum_r, degree: int, q: int) -> LPolynomial:
    """The L-polynomial from the sums sum_r(r), r = 1 .. max(degree, 1)."""
    return l_polynomial([sum_r(r) for r in range(1, max(degree, 1) + 1)], degree, q)


def twisted_l_function(P: PolySpec, twist: TwistSpec, max_enum: int = MAX_ENUM_DEFAULT) -> LPolynomial:
    """Degree e and pure of weight 1 (Adolphson-Sperber): e sums."""
    return _certified(lambda r: twisted_sum(P, twist, r, max_enum), P.e, P.base.order)


def additive_l_function(P: PolySpec, max_enum: int = MAX_ENUM_DEFAULT) -> LPolynomial:
    """Degree e - 1 and pure of weight 1 (Weil, Deligne): max(e - 1, 1) sums."""
    return _certified(lambda r: additive_sum(P, r, max_enum), P.e - 1, P.base.order)


def power_l_function(P: PolySpec, d: int, max_enum: int = MAX_ENUM_DEFAULT) -> LPolynomial:
    """Degree de - 1 and pure of weight 1, as P(x^d) has degree de prime
    to p (Weil, Deligne): max(de - 1, 1) sums.  The first sum checks d."""
    return _certified(lambda r: power_sum(P, d, r, max_enum), d * P.e - 1, P.base.order)


def lpoly_mul(A: LPolynomial, B: LPolynomial) -> LPolynomial:
    if A.ring != B.ring:
        raise InternalError("L-polynomial product needs a common ring")
    a, b = A.coeffs, B.coeffs
    out = []
    for k in range(len(a) + len(b) - 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        out.append(dot(a[lo:hi + 1], b[k - hi:k - lo + 1][::-1]))
    return LPolynomial(A.ring, out)


def lpoly_inflate(A: LPolynomial, c: int) -> LPolynomial:
    """Substitute T -> T^c."""
    if c < 1:
        raise ParameterError("inflation factor must be positive")
    out = [A.ring.zero() for _ in range(c * A.degree + 1)]
    for i, a in enumerate(A.coeffs):
        out[c * i] = a
    return LPolynomial(A.ring, out)


def lpoly_map_ring(A: LPolynomial, target: CycloRing) -> LPolynomial:
    """Push coefficients along Z[zeta_p, zeta_d'] -> Z[zeta_p, zeta_d]."""
    return LPolynomial(target, [embed_into(c, target) for c in A.coeffs])
