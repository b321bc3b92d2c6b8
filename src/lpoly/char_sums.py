"""Exact character sums over finite fields and the L-polynomials built from them.

Everything here returns elements of Z[zeta_p, zeta_d], never floats.  The
enumeration runs over the whole extension field k_r = F_{q^r}, so values
are exact by construction; the cost is O(q^r * terms), guarded by a
configurable cap.

Let G be the lex-smallest generator of k_r^* and M = q^r - 1.  A cached
table holds Tr(G^k) for every k < M, built in blocks as a small matrix
product over the integers (see _TraceTable).  A coefficient a = g^u of P,
for the pinned generator g of F_q, embeds as G^(k0 u): k0 is found once per
(base field, extension) inside the norm subgroup, and u comes from a table
of the base field's units, so no logarithm is taken in the big field per
coefficient.  At x = G^k the term a x^i then has trace T[(k0 u + i k) mod M]:
for consecutive k this walks the table with stride i, which is one strided
slice between wrap-arounds.  The kernel adds those slices, term by term,
into a small unsigned accumulator and histograms (trace value, k mod d); the
second coordinate fixes the multiplicative character.  Power sums walk only
the image of x -> x^d.  A per-element reference implementation lives in the
test suite and pins this engine down on small instances.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .cyclotomic import CycloElem, CycloRing, embed_into, exact_div_int, make_ring
from .errors import (
    BadParameters,
    EmptyInput,
    EnumerationBound,
    NonVanishingTail,
    NotCoprime,
    NotDivisible,
    OrderMismatch,
    RingMismatch,
    ZeroLeading,
)
from .finite_field import (
    FieldElement,
    FieldSpec,
    dlog,
    embed,
    make_field,
    multiplication_matrix,
    pinned_dlog,
    primitive_root,
)

MAX_ENUM_DEFAULT = 1 << 24
_CHUNK = 1 << 20  # elements per kernel pass, entries per table-build pass


class PolySpec:
    """Monic polynomial X^e + a_{e-1} X^{e-1} + ... + a_1 X over F_q.

    Constant term is identically zero and the degree is prime to p; coeffs
    holds a_1 .. a_{e-1} in that order (empty when e = 1).
    """

    __slots__ = ("base", "e", "coeffs")

    def __init__(self, base: FieldSpec, e: int, coeffs=()):
        if e < 1:
            raise BadParameters("degree must be at least 1")
        if e % base.p == 0:
            raise BadParameters(f"degree {e} is divisible by p = {base.p}")
        coeffs = tuple(coeffs)
        if len(coeffs) != e - 1:
            raise BadParameters(f"expected {e - 1} lower coefficients, got {len(coeffs)}")
        for a in coeffs:
            if not isinstance(a, FieldElement) or a.owner != base:
                raise BadParameters("coefficients must live in the base field")
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
    """Multiplicative twist: the kappa-th power of a fixed order-d character."""

    __slots__ = ("d", "kappa")

    def __init__(self, d: int, kappa: int):
        d, kappa = int(d), int(kappa)
        if d < 1:
            raise BadParameters("character order must be positive")
        if not 0 <= kappa < d:
            raise BadParameters(f"kappa must lie in [0, {d - 1}]")
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

    __slots__ = ("spec", "gen", "order", "traces")

    def __init__(self, p: int, n: int):
        spec = make_field(p, n)
        G = primitive_root(spec)
        M = spec.order - 1
        B = isqrt(M - 1) + 1
        # trace form Q[l, c] = Tr(x^l x^c); row l+1 is row l times the matrix of x
        Q = np.zeros((n, n), dtype=np.int64)
        Q[0] = spec.basis_traces()
        if n > 1:
            mx = np.array(multiplication_matrix(spec.gen()), dtype=np.int64)
            for l in range(1, n):
                Q[l] = Q[l - 1] @ mx % p
        # entries of V W are at most n (p-1)^2; the product runs in the
        # narrowest unsigned dtype that holds that, one term l at a time
        dtype = _uint_dtype(n * (p - 1) ** 2)
        W = (Q @ _power_coords(G, B).T % p).astype(dtype)
        V = _power_coords(G**B, -(-M // B)).astype(dtype)
        T = np.empty(M, dtype=_uint_dtype(p - 1))
        rows = max(1, _CHUNK // B)
        for j in range(0, V.shape[0], rows):
            v = V[j : j + rows]
            blk = np.zeros((len(v), B), dtype=dtype)
            for l in range(n):
                blk += v[:, l, None] * W[l]
            blk %= p
            T[j * B : (j + rows) * B] = blk.ravel()[: M - j * B]
        self.spec = spec
        self.gen = G
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


_trace_tables: dict = {}


def _trace_table(p: int, n: int) -> _TraceTable:
    key = (p, n)
    if key not in _trace_tables:
        _trace_tables[key] = _TraceTable(p, n)
    return _trace_tables[key]


def _check_enum(total: int, max_enum: int):
    if total > max_enum:
        raise EnumerationBound(
            f"enumeration of {total} field elements exceeds the cap {max_enum}"
        )


@lru_cache(maxsize=None)
def _generator_exponent(base: FieldSpec, big: FieldSpec) -> int:
    """w with em(g) = G^(s w), s = (q^r - 1)/(q - 1), for the pinned
    generators g of F_q and G of its extension.

    em(g) lies in the order-(q - 1) subgroup generated by G^s, so the
    logarithm is taken there.
    """
    s = (big.order - 1) // (base.order - 1)
    em = embed(base, big)
    return dlog(em(primitive_root(base)), primitive_root(big) ** s, base.order - 1)


def _term_shifts(P: PolySpec, tab: _TraceTable) -> list:
    """(degree, dlog of embedded coefficient) for each nonzero term of P.

    A coefficient g^u embeds as G^(k0 u) with k0 = s w, so only its
    logarithm u in the base field is needed.
    """
    q, M = P.base.order, tab.order
    k0 = M // (q - 1) * _generator_exponent(P.base, tab.spec)
    return [(i, k0 * pinned_dlog(a) % M) for i, a in P.terms()]


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


def _histogram(tab: _TraceTable, shifts, step: int, count: int, D: int):
    """counts[t, c]: the k < count with k = c mod D and
    sum_(i, j) Tr(G^(j + i step k)) = t mod p, over the terms (i, j)."""
    p, M, T = tab.spec.p, tab.order, tab.traces
    top = len(shifts) * (p - 1)
    raw = np.zeros((D, top + 1), dtype=np.int64)
    # chunks start at multiples of D, so acc[c::D] is the class of c
    chunk = max(1, _CHUNK // D) * D
    for a in range(0, count, chunk):
        acc = np.zeros(min(chunk, count - a), dtype=_uint_dtype(top))
        for i, j in shifts:
            _add_strided(acc, T, (j + i * step * a) % M, i * step)
        for c in range(D):
            raw[c] += np.bincount(acc[c::D], minlength=top + 1)
    # fold the raw trace sums mod p
    raw = np.pad(raw, ((0, 0), (0, -(top + 1) % p)))
    return raw.reshape(D, -1, p).sum(axis=1).T


def _psi_counts(P: PolySpec, d: int, r: int, max_enum: int):
    """Histogram of Tr P(x^d) mod p over every x in k_r, the zero included.

    x -> x^d maps the M units g-to-one onto the M/g powers G^(g k), where
    g = gcd(d, M), so only those are walked.
    """
    base = P.base
    _check_enum(base.order**r, max_enum)
    tab = _trace_table(base.p, base.n * r)
    g = gcd(d, tab.order)
    counts = g * _histogram(tab, _term_shifts(P, tab), g, tab.order // g, 1)[:, 0]
    counts[0] += 1  # P(0) = 0
    return counts


_sum_cache: dict = {}


def twisted_sum(P: PolySpec, twist: TwistSpec, r: int, max_enum: int = MAX_ENUM_DEFAULT) -> CycloElem:
    """S_r of P against the kappa-th power of the pinned order-d character.

    The character chi sends the lex-smallest generator g of F_q^* to zeta_d
    and is evaluated on x through the norm down to F_q.  Exact element of
    Z[zeta_p, zeta_d].
    """
    base = P.base
    p, m, q = base.p, base.n, base.order
    d, kappa = twist.d, twist.kappa
    if kappa == 0:
        raise BadParameters("kappa = 0 is the additive case; use additive_sum")
    if (q - 1) % d:
        raise OrderMismatch(f"character order {d} does not divide q - 1 = {q - 1}")
    if gcd(p, d) != 1:
        raise NotCoprime(f"character order {d} shares a factor with p = {p}")
    if r < 1:
        raise BadParameters("r must be at least 1")
    key = ("twisted", P.key(), d, kappa, r)
    _check_enum(q**r, max_enum)
    if key in _sum_cache:
        return _sum_cache[key]
    tab = _trace_table(p, m * r)
    counts = _histogram(tab, _term_shifts(P, tab), 1, tab.order, d)
    # the norm of G^k is G^(s k) = em(g)^(k / w mod q - 1), so G^k lies in
    # character class kappa k / w mod d
    mul = kappa * pow(_generator_exponent(base, tab.spec), -1, q - 1) % d
    classes = np.zeros((p, d), dtype=np.int64)
    for c in range(d):
        classes[:, mul * c % d] += counts[:, c]
    val = make_ring(p, d).from_raw(classes.tolist())
    _sum_cache[key] = val
    return val


def additive_sum(P: PolySpec, r: int, max_enum: int = MAX_ENUM_DEFAULT) -> CycloElem:
    """Sum of zeta_p^Tr(P(x)) over every x in k_r, the zero included."""
    if r < 1:
        raise BadParameters("r must be at least 1")
    key = ("additive", P.key(), r)
    if key in _sum_cache:
        _check_enum(P.base.order**r, max_enum)
        return _sum_cache[key]
    counts = _psi_counts(P, 1, r, max_enum)
    val = make_ring(P.base.p, 1).from_raw(counts.reshape(-1, 1).tolist())
    _sum_cache[key] = val
    return val


def power_sum(P: PolySpec, d: int, r: int, max_enum: int = MAX_ENUM_DEFAULT) -> CycloElem:
    """Sum of zeta_p^Tr(P(x^d)) over every x in k_r."""
    if gcd(P.base.p, d) != 1:
        raise NotCoprime(f"d = {d} shares a factor with p = {P.base.p}")
    if r < 1:
        raise BadParameters("r must be at least 1")
    key = ("power", P.key(), d, r)
    if key in _sum_cache:
        _check_enum(P.base.order**r, max_enum)
        return _sum_cache[key]
    counts = _psi_counts(P, d, r, max_enum)
    val = make_ring(P.base.p, 1).from_raw(counts.reshape(-1, 1).tolist())
    _sum_cache[key] = val
    return val


def gauss_sum(qspec: FieldSpec, d: int, kappa: int, max_enum: int = MAX_ENUM_DEFAULT) -> CycloElem:
    """Gauss sum of the pinned order-d character's kappa-th power over F_q."""
    if not 1 <= kappa <= d - 1:
        raise BadParameters(f"kappa must lie in [1, {d - 1}]")
    if (qspec.order - 1) % d:
        raise OrderMismatch(f"character order {d} does not divide q - 1")
    return twisted_sum(PolySpec(qspec, 1), TwistSpec(d, kappa), 1, max_enum)


class CharSumSeries:
    """A finite run S_1 .. S_R of exact sums sharing one coefficient ring."""

    __slots__ = ("sums", "ring")

    def __init__(self, sums):
        sums = tuple(sums)
        if not sums:
            raise EmptyInput("a series needs at least one sum")
        ring = sums[0].ring
        for s in sums:
            if s.ring != ring:
                raise RingMismatch("series sums live in different rings")
        self.sums = sums
        self.ring = ring

    def __len__(self):
        return len(self.sums)


def twisted_series(P: PolySpec, twist: TwistSpec, count: int, max_enum: int = MAX_ENUM_DEFAULT) -> CharSumSeries:
    return CharSumSeries([twisted_sum(P, twist, r, max_enum) for r in range(1, count + 1)])


def additive_series(P: PolySpec, count: int, max_enum: int = MAX_ENUM_DEFAULT) -> CharSumSeries:
    return CharSumSeries([additive_sum(P, r, max_enum) for r in range(1, count + 1)])


def power_series(P: PolySpec, d: int, count: int, max_enum: int = MAX_ENUM_DEFAULT) -> CharSumSeries:
    return CharSumSeries([power_sum(P, d, r, max_enum) for r in range(1, count + 1)])


class LPolynomial:
    """Polynomial with CycloElem coefficients, constant term 1."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CycloRing, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise EmptyInput("no coefficients")
        if coeffs[0] != ring.one():
            raise BadParameters("constant term must be 1")
        for c in coeffs:
            if c.ring != ring:
                raise RingMismatch("coefficient outside the stated ring")
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


def l_polynomial(series: CharSumSeries, degree: int) -> LPolynomial:
    """Assemble exp(sum S_r T^r / r) and certify it is a polynomial of the
    stated degree.

    Uses the recurrence n*c_n = sum_{r<=n} S_r c_{n-r} with exact integer
    division at every step.  The coefficient past the claimed degree must
    vanish and the leading one must not; both failures indicate either a
    wrong degree or a broken sum upstream.
    """
    if degree < 0:
        raise BadParameters("degree must be nonnegative")
    if len(series) < degree + 1:
        raise BadParameters(
            f"need at least {degree + 1} sums to certify degree {degree}, have {len(series)}"
        )
    ring = series.ring
    coeffs = [ring.one()]
    for n in range(1, degree + 2):
        tot = ring.zero()
        for r in range(1, n + 1):
            tot = tot + series.sums[r - 1] * coeffs[n - r]
        coeffs.append(exact_div_int(tot, n))
    if not coeffs[degree + 1].is_zero():
        raise NonVanishingTail(f"coefficient {degree + 1} is nonzero; degree {degree} is wrong")
    if coeffs[degree].is_zero():
        raise ZeroLeading(f"leading coefficient at degree {degree} vanishes")
    return LPolynomial(ring, coeffs[: degree + 1])


def lpoly_mul(A: LPolynomial, B: LPolynomial) -> LPolynomial:
    if A.ring != B.ring:
        raise RingMismatch("L-polynomial product needs a common ring")
    ring = A.ring
    out = [ring.zero() for _ in range(A.degree + B.degree + 1)]
    for i, a in enumerate(A.coeffs):
        if not a.is_zero():
            for j, b in enumerate(B.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
    return LPolynomial(ring, out)


def lpoly_inflate(A: LPolynomial, c: int) -> LPolynomial:
    """Substitute T -> T^c."""
    if c < 1:
        raise BadParameters("inflation factor must be positive")
    out = [A.ring.zero() for _ in range(c * A.degree + 1)]
    for i, a in enumerate(A.coeffs):
        out[c * i] = a
    return LPolynomial(A.ring, out)


def lpoly_map_ring(A: LPolynomial, target: CycloRing) -> LPolynomial:
    """Push coefficients along Z[zeta_p, zeta_d'] -> Z[zeta_p, zeta_d]."""
    return LPolynomial(target, [embed_into(c, target) for c in A.coeffs])
