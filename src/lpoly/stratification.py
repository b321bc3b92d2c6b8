"""Orbit, digit-sequence, and polygon combinatorics for twisted sums.

Everything here is exact integer and rational arithmetic: orbits of a
multiplier acting on Z/dZ with their mean statistics, the carry-digit
sequences attached to a twist class, the block minima that govern
generic q-adic slopes, the predicted polygons (Hodge-style lower bound
and generic value) in both the twisted and the power substitution
settings, and the coefficient polynomials, masked determinants over F_q,
whose non-vanishing detects generic slope behaviour.

The per-twist tables are deliberately small objects; degrees past a
dozen are outside desk scale, so quantities are recomputed from the
stored digit sequences rather than cached across instances.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .char_sums import PolySpec, TwistSpec
from .errors import InternalError, ParameterError
from .finite_field import FieldElement, _digits, _is_prime, mult_order
from .polygon import NewtonPolygon


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class Orbit:
    """The orbit k, kt, kt^2, ... of multiplication by t on Z/dZ.

    mu is the orbit mean divided by d: (sum of members)/(d * size).
    For the zero orbit this is 0; for the others it lies in (0, 1).
    """

    __slots__ = ("rep", "members", "size", "mu")

    def __init__(self, d: int, t: int, k: int):
        if d < 1:
            raise ParameterError(f"modulus must be positive, got {d}")
        if gcd(t, d) != 1:
            raise ParameterError(f"multiplier {t} shares a factor with modulus {d}")
        ms = [k % d]
        cur = ms[0] * t % d
        while cur != ms[0]:
            ms.append(cur)
            cur = cur * t % d
        self.rep = min(ms)
        self.members = frozenset(ms)
        self.size = len(ms)
        self.mu = Fraction(sum(ms), d * len(ms))

    def __repr__(self):
        return f"Orbit(rep={self.rep}, size={self.size}, mu={self.mu})"


def orbit_decomposition(d: int, t: int) -> tuple:
    """The orbits of multiplication by t partitioning Z/dZ, in order of
    representative."""
    orbits, seen = [Orbit(d, t, 0)], set()
    # the least k outside the orbits so far is the representative of its own
    for k in range(1, d):
        if k not in seen:
            orbits.append(Orbit(d, t, k))
            seen |= orbits[-1].members
    return tuple(orbits)


class TwistCombinatorics:
    """Carry digits and minimum tables for one twist class.

    kappas[s] is the least nonnegative residue solving p^s * kappas[s] =
    kappa mod d, for s = 0..m.  The carry digits K[s] = (p*kappas[s+1] -
    kappas[s])/d lie in [0, p-1] and telescope to (p^m - 1) kappa/d, so
    they are its m base-p digits, least significant first.  The digit
    sequence is periodic with period equal to the orbit size of kappa
    under multiplication by p.

    For the degree e it also serves the j/B/Y tables: j_i is forced mod e
    by the column index, B_n collects the rows whose forced column fits
    inside the leading n-by-n block, and Y_n_s is the minimum of
    sum nu(k, sigma(k), s) over all permutations sigma of [1,n].
    Block sizes and rows run over [1, rows]: rows = e for a twist class,
    and e - 1 for the zero twist TwistCombinatorics(p, 1, 0, e=e), whose
    single carry digit vanishes.  m defaults to the order of p mod d.
    """

    __slots__ = ("p", "d", "kappa", "m", "e", "rows", "kappas", "K", "period")

    def __init__(self, p: int, d: int, kappa: int, m=None, *, e: int):
        if (d, kappa) != (1, 0):
            TwistSpec(d, kappa)
        if m is None:
            m = mult_order(p, d)
        if not _is_prime(p):
            raise ParameterError(f"{p} is not prime")
        # pow(p, -s, d) below needs p invertible mod d
        if gcd(p, d) != 1:
            raise ParameterError(f"{p} is not invertible mod {d}")
        if m < 1 or (pow(p, m, d) - 1) % d:
            raise ParameterError(f"need d | p^m - 1, got p={p} d={d} m={m}")
        if e < 1:
            raise ParameterError(f"degree must be positive, got {e}")
        if gcd(p, e) != 1:
            raise ParameterError(f"degree {e} shares a factor with {p}")
        self.p, self.d, self.kappa, self.m, self.e = p, d, kappa, m, e
        # the zero twist has one row fewer: a sum over the whole field has
        # an L-function of degree e - 1
        self.rows = e - (kappa == 0)
        self.kappas = tuple(kappa * pow(p, -s, d) % d for s in range(m + 1))
        self.K = tuple(_digits((p**m - 1) * kappa // d, p, m))
        # the orbit of kappa under multiplication by p mod d
        self.period = mult_order(p, d // gcd(kappa, d))

    def nu(self, i: int, j: int, s: int) -> int:
        e = self.e
        if not (1 <= i <= e and 1 <= j <= e):
            raise ParameterError(f"indices must lie in [1, {e}]")
        return _ceil_div(self.p * i - self.K[s % self.m] - j, e)

    def _check_block(self, n: int) -> int:
        if not 1 <= n <= self.rows:
            raise ParameterError(f"block size must lie in [1, {self.rows}]")
        return self.e

    def j_and_B(self, n: int, s: int):
        """Forced-column table and its in-block row set for the leading n block."""
        e = self._check_block(n)
        ks = self.K[s % self.m]
        jt = tuple((self.p * i - ks - 1) % e + 1 for i in range(1, self.rows + 1))
        bn = frozenset(i for i in range(1, n + 1) if jt[i - 1] <= n)
        return jt, bn

    def Y_n_s(self, n: int, s: int) -> int:
        e = self._check_block(n)
        ks = self.K[s % self.m]
        total = sum(_ceil_div(self.p * k - ks, e) for k in range(1, n + 1))
        _, bn = self.j_and_B(n, s)
        return total - len(bn)

    def Y(self, n: int) -> int:
        # aggregate over one full period of the digit sequence
        return sum(self.Y_n_s(n, s) for s in range(self.period))

    def to_json_dict(self) -> dict:
        rows = self.rows
        return {
            "p": self.p,
            "d": self.d,
            "kappa": self.kappa,
            "m": self.m,
            "kappas": list(self.kappas),
            "K": list(self.K),
            "period": self.period,
            "e": self.e,
            "j_tables": [list(self.j_and_B(rows, s)[0]) for s in range(self.m)],
            "Y_per_s": [[self.Y_n_s(n, s) for n in range(1, rows + 1)] for s in range(self.m)],
            "Y": [self.Y(n) for n in range(1, rows + 1)],
        }

    def __repr__(self):
        return f"TwistCombinatorics(p={self.p}, d={self.d}, kappa={self.kappa}, m={self.m}, e={self.e})"


def hs_twisted(d: int, e: int, r: int, kappa: int) -> NewtonPolygon:
    """Hodge-style lower bound for a twisted sum: unit segments of slope
    (i + mu_{d-kappa})/e for i = 0..e-1, mu taken for multiplication by r."""
    if e < 1:
        raise ParameterError(f"degree must be positive, got {e}")
    TwistSpec(d, kappa)
    mu = Orbit(d, r, d - kappa).mu
    return NewtonPolygon.from_slopes([(Fraction(i, e) + mu / e, 1) for i in range(e)])


def gnp_twisted(p: int, d: int, e: int, kappa: int, m=None) -> NewtonPolygon:
    """Generic polygon for a twisted sum, class_gnp of its twist class.  It
    depends only on p mod d and e: any m with d | p^m - 1 gives it."""
    TwistSpec(d, kappa)  # TwistCombinatorics also takes the zero twist (1, 0)
    return class_gnp(TwistCombinatorics(p, d, kappa, m, e=e))


def class_gnp(tc: TwistCombinatorics) -> NewtonPolygon:
    """Generic polygon of the twist class tc: the lower hull of the points
    (n, Y_n/((p-1)*period)), n = 0..e.  For p >= 2de each is a vertex, so a
    convexity failure there raises rather than silently returning the hull."""
    p, d, e = tc.p, tc.d, tc.e
    den = (p - 1) * tc.period
    pts = [(0, Fraction(0))] + [(n, Fraction(tc.Y(n), den)) for n in range(1, e + 1)]
    poly = NewtonPolygon.from_points(pts)
    # strictly convex means every one of the e + 1 points is a vertex
    if p >= 2 * d * e and len(poly.vertices) != e + 1:
        raise InternalError(f"vertex sequence not strictly convex at p={p} d={d} e={e} kappa={tc.kappa}")
    return poly


def _check_power_shape(d: int, e: int) -> None:
    """The d and e that both power polygons refuse."""
    if d < 1 or e < 1:
        raise ParameterError(f"bad polygon parameters d={d} e={e}")
    if d * e < 2:
        raise ParameterError("length would be zero")


def hs_power(d: int, e: int, r: int) -> NewtonPolygon:
    """Hodge-style lower bound for the degree-de power substitution sum.

    Unit segments j/e for j = 1..e-1 plus, per nonzero orbit of
    multiplication by r mod d, segments (j + mu)/e of length the orbit
    size for j = 0..e-1.  Total length de - 1; for r = 1 mod d this is
    the classical equidistributed polygon of length de - 1.
    """
    _check_power_shape(d, e)
    segs = []
    for orb in orbit_decomposition(d, r):
        # the zero orbit has mu = 0 and no slope-zero segment
        segs.extend(((j + orb.mu) / e, orb.size) for j in range(e) if j or orb.rep)
    return NewtonPolygon.from_slopes(segs)


def power_blocks(p: int, d: int, e: int) -> list:
    """The twist classes of the degree-de power substitution sum: the zero
    twist, then one class per nonzero orbit of multiplication by p on Z/dZ,
    in order of orbit representative."""
    blocks = []
    for orb in orbit_decomposition(d, p):
        tc = (TwistCombinatorics(p, d, orb.rep, e=e) if orb.rep
              else TwistCombinatorics(p, 1, 0, e=e))
        if tc.period != orb.size:
            raise InternalError("digit period disagrees with orbit size")
        blocks.append(tc)
    return blocks


def gnp_power(p: int, d: int, e: int) -> NewtonPolygon:
    """Generic polygon for the power substitution sum: blocks_gnp of
    power_blocks(p, d, e)."""
    _check_power_shape(d, e)
    return blocks_gnp(power_blocks(p, d, e))


def blocks_gnp(tcs) -> NewtonPolygon:
    """gnp_power from its twist classes tcs: per class, the successive Y
    differences scaled by (p-1) times its period, each a segment of length
    the period (the orbit size), rows segments per class.  from_slopes
    sorts the segments of all classes; below the regime the steps of one
    class need not increase, so this is not the hull of its points."""
    segs = []
    for tc in tcs:
        den = (tc.p - 1) * tc.period
        ys = [0] + [tc.Y(n) for n in range(1, tc.rows + 1)]
        segs.extend((Fraction(ys[j + 1] - ys[j], den), tc.period) for j in range(tc.rows))
    return NewtonPolygon.from_slopes(segs)


def _det(a, F) -> FieldElement:
    """Determinant over F of the square matrix a, rows of FieldElements, by
    elimination that consumes a.  A pivot is inverted, as a^(q-2), only if
    a row below needs clearing, so a triangular matrix costs its diagonal."""
    det = F.one()
    while a:
        piv = next((i for i, row in enumerate(a) if not row[0].is_zero()), None)
        if piv is None:
            return F.zero()
        top = a.pop(piv)
        det = det * (-top[0] if piv % 2 else top[0])  # row piv crosses piv rows
        rest = top[1:]
        if any(not row[0].is_zero() for row in a):
            inv = top[0] ** (F.order - 2)
            rest = [y * inv for y in rest]
        a = [row[1:] if row[0].is_zero() else [x - row[0] * y for x, y in zip(row[1:], rest)]
             for row in a]
    return det


def _hasse_product(P: PolySpec, blocks) -> FieldElement:
    """Product of the Hasse values of P over blocks, (tc, n) pairs.  The
    value of block n of twist class tc is a product over one digit period
    of n-by-n masked determinants, entry (i, j) read at t = p*i - j - K_s
    and set to 0 where i is in B_n and j < j_i: by Leibniz, the signed sum
    over the permutations with sigma(i) >= j_i on B_n, which attain Y_n_s.

    The entry is [X^t] P^nu with nu = ceil(t/e), so 0 <= j = nu e - t < e
    and, as t > -e, nu >= 0.  With rev(P)(Y) = Y^e P(1/Y) = 1 + u it is
    [Y^j] (1 + u)^nu = sum over k <= j of C(nu, k) [Y^j] u^k: row k of the
    triangle below holds u^k mod Y^e; it and each entry are built once."""
    F = P.base
    p, e, zero, entries = F.p, P.e, F.zero(), {}  # entries: t -> [X^t] P^nu
    u = (zero,) + P.coeffs[::-1]
    tri = [(F.one(),) + (zero,) * (e - 1)]
    for k in range(1, e):
        # u^k has no term below Y^k
        tri.append((zero,) * k + tuple(sum((tri[-1][a] * u[b - a] for a in range(k - 1, b)), zero)
                                       for b in range(k, e)))

    def entry(t):
        if t not in entries:
            nu, j = _ceil_div(t, e), -t % e
            binoms = [comb(nu, k) for k in range(j + 1)]
            entries[t] = FieldElement(F, [sum(c * row[j].coeffs[x] for c, row in zip(binoms, tri))
                                          for x in range(F.n)])
        return entries[t]

    acc = F.one()
    for tc, n in blocks:
        for s in range(tc.period):
            jt, bn = tc.j_and_B(n, s)
            acc = acc * _det([[entry(p * i - j - tc.K[s]) if i not in bn or j >= jt[i - 1] else zero
                               for j in range(1, n + 1)] for i in range(1, n + 1)], F)
    return acc


def hasse_weight(tc: TwistCombinatorics, n: int) -> int:
    """W with H(c P_lambda) = lambda^W c^Y H(P) for H the Hasse value of
    block n of tc, Y = tc.Y(n), P_lambda(X) = P(lambda X) and c in F_q^*.
    [X^t] (c P_lambda)^nu is c^nu lambda^t [X^t] P^nu, and in each Leibniz
    term that the mask of period s leaves the degrees t = p i - j - K_s sum
    to (p-1) n(n+1)/2 - n K_s and the powers nu = ceil(t/e) to Y_n_s.  For
    the monic c P_lambda, c = lambda^(-e), the factor is lambda^(W - e Y)."""
    return sum((tc.p - 1) * n * (n + 1) // 2 - n * tc.K[s] for s in range(tc.period))


def hasse_twisted_eval(P: PolySpec, n: int, twist: TwistSpec) -> FieldElement:
    """Value at P of the twisted coefficient polynomial for block size n.

    Nonzero value certifies the generic slope at abscissa n.
    """
    return _hasse_product(P, [(TwistCombinatorics(P.base.p, twist.d, twist.kappa, e=P.e), n)])


def hasse_additive_eval(P: PolySpec, n: int) -> FieldElement:
    """Zero-twist analogue of hasse_twisted_eval, for block sizes up to e-1."""
    return _hasse_product(P, [(TwistCombinatorics(P.base.p, 1, 0, e=P.e), n)])


def hasse_full_eval(P: PolySpec, tcs) -> FieldElement:
    """Product of the coefficient polynomials of blocks 1..rows of each
    twist class in tcs.  For a twisted sum tcs is its one class; for
    degree-d power substitution it is power_blocks(p, d, e), that is
    zero-twist blocks 1..e-1 and twisted blocks 1..e per nonzero orbit of
    multiplication by p mod d.  Nonzero exactly on the open stratum where
    the sum attains its generic polygon."""
    for tc in tcs:
        if (tc.p, tc.e) != (P.base.p, P.e):
            raise ParameterError(f"block built for p={tc.p} e={tc.e}, "
                                f"polynomial has p={P.base.p} e={P.e}")
    return _hasse_product(P, [(tc, n) for tc in tcs for n in range(1, tc.rows + 1)])
