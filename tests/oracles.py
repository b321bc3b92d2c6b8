"""Element-by-element reference sums and norms; deliberately slow and obvious.

The sums walk every field element one at a time through the high-level
field API and never touch the vectorized engine, so agreement is
meaningful: traces are Frobenius sums, relative norms are powers read
back through a lookup of the whole subfield, and polynomial powers are
full expansions, from which Hasse values are read by their definition.
Irreducibility over F_p is trial division by every monic polynomial of
at most half the degree, and a field product is the schoolbook product of
two coefficient lists reduced by long division by the defining polynomial.
L-polynomials of degree D come from D + 1 sums, with c_(D+1) = 0 as the
certificate.  The absolute norm multiplies Galois
conjugates in the cyclotomic ring and never touches the local valuation
engine.  Ring products are schoolbook convolutions reduced through full
tables of reduced powers of zeta_p and zeta_d, each power found by long
division by the cyclotomic polynomial, and the Teichmueller root is a
modular power by schoolbook products and long division: no reduction
helper of the engine is imported here.  Valuations expand every
zeta_p^a = (1 + pi)^a into the integral basis {Y^i pi^j} by binomial
coefficients.
"""
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

from lpoly.cyclotomic import (
    cyclotomic_polynomial,
    exact_div_int,
    from_json_dict,
    make_ring,
)
from lpoly.finite_field import (
    Embedding,
    FieldElement,
    _prime_factors,
    dlog,
    embed,
    make_field,
    primitive_root,
)


def long_remainder(a, f, m=None):
    """a mod the monic f (coefficients low -> high) by long division, as
    deg f coefficients, each taken mod m, or integers for m = None."""
    n = len(f) - 1
    r = list(a) + [0] * (n - len(a))
    for top in range(len(r) - 1, n - 1, -1):
        c = r[top]
        for i in range(n + 1):
            r[top - n + i] -= c * f[i]
    return tuple(r[:n] if m is None else [c % m for c in r[:n]])


def mulmod(a, b, f, m):
    """a * b mod (f, m): the schoolbook product, then long division."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return long_remainder(prod, f, m)


def powmod(a, e, f, m):
    """a^e mod (f, m) by binary powering with mulmod."""
    result, base = long_remainder((1,), f, m), long_remainder(a, f, m)
    while e:
        if e & 1:
            result = mulmod(result, base, f, m)
        base = mulmod(base, base, f, m)
        e >>= 1
    return result


@lru_cache(maxsize=None)
def brute_primitive_root(spec):
    """The unit of smallest encoding whose powers x^(m/l), m = q - 1, differ
    from 1 for every prime l | m, each a full power in the field."""
    m = spec.order - 1
    factors = _prime_factors(m)
    one = spec.one()
    for enc in range(1, spec.order):
        x = spec.element_from_int(enc)
        if all((x ** (m // ell)) != one for ell in factors):
            return x
    raise AssertionError("no multiplicative generator found")


def brute_is_irreducible(f, p):
    """Whether the monic f (coefficients low -> high) over Z/p has no monic
    factor of degree 1 .. deg(f) // 2, by long division by every one."""
    n = len(f) - 1
    for k in range(1, n // 2 + 1):
        for code in range(p ** k):
            g = [code // p ** i % p for i in range(k)] + [1]
            if not any(long_remainder(f, g, p)):
                return False
    return True


def brute_field_mul(x, y):
    """x * y: the schoolbook product of the coefficient lists, then long
    division by the monic defining polynomial, mod p."""
    spec = x.owner
    return FieldElement(spec, mulmod(x.coeffs, y.coeffs, spec.f, spec.p))


def full_coeffs(P):
    """All coefficients of P of degrees 0..e, low to high."""
    return (P.base.zero(),) + P.coeffs + (P.base.one(),)


def brute_power_index(g, count):
    """Encoding -> the least j < count with g^j of that encoding, walking
    g^0 .. g^(count-1) by one field product each."""
    out = {}
    cur = g.owner.one()
    for j in range(count):
        out.setdefault(cur.to_int(), j)
        cur = cur * g
    return out


def brute_embed(sub, sup):
    """The embedding of sub into sup whose image is the root of sub.f with
    the smallest encoding, found by walking the subfield of sup of order
    p^sub.n element by element and evaluating sub.f at each by Horner's
    rule."""
    if sub == sup:
        return Embedding(sub, sup, sup.gen())
    candidates = [sup.zero()]
    h = brute_primitive_root(sup) ** ((sup.order - 1) // (sub.order - 1))
    cur = sup.one()
    for _ in range(sub.order - 1):
        candidates.append(cur)
        cur = cur * h
    coeffs = [FieldElement(sup, (c,) + (0,) * (sup.n - 1)) for c in sub.f]
    roots = [y for y in candidates if eval_poly(coeffs, y).is_zero()]
    if len(roots) != sub.n:
        raise AssertionError(f"expected {sub.n} roots, found {len(roots)}")
    return Embedding(sub, sup, min(roots, key=FieldElement.to_int))


def trace_to_prime(x):
    """The absolute trace sum(x^(p^i), i < n), returned as an integer mod p."""
    spec = x.owner
    acc = cur = x
    for _ in range(spec.n - 1):
        cur = cur ** spec.p
        acc = acc + cur
    if any(acc.coeffs[1:]):
        raise AssertionError("the trace left the prime field")
    return acc.coeffs[0]


def eval_poly(coeffs, x, emb=None):
    """Horner evaluation at x of a polynomial with subfield coefficients.

    coeffs is low -> high over emb.sub (or over x.owner when emb is None).
    """
    acc = x.owner.zero()
    for c in reversed(list(coeffs)):
        acc = acc * x + (c if emb is None else emb(c))
    return acc


@lru_cache(maxsize=None)
def _subfield_image(emb):
    sub = emb.sub
    return {emb(v): v for v in map(sub.element_from_int, range(sub.order))}


def preimage(emb, y):
    """The v with emb(v) = y, looked up over every element of the subfield."""
    return _subfield_image(emb)[y]


def norm_to(x, target, emb):
    """The relative norm of x down to target along emb, as a target element."""
    if x.is_zero():
        return target.zero()
    return preimage(emb, x ** ((x.owner.order - 1) // (target.order - 1)))


def _times_poly(coeffs, full):
    """Every coefficient of coeffs * sum(full[j] X^j), low -> high, by full
    expansion."""
    new = [full[0].owner.zero()] * (len(coeffs) + len(full) - 1)
    for i, c in enumerate(coeffs):
        for j, a in enumerate(full):
            new[i + j] = new[i + j] + c * a
    return new


def brute_poly_power(P, power):
    """Every coefficient of P^power, low -> high, by full expansion."""
    out = [P.base.one()]
    for _ in range(power):
        out = _times_poly(out, full_coeffs(P))
    return out


@lru_cache(maxsize=4)
def _power_cache(full):
    """nu -> every coefficient of P^nu, for the P with these coefficients;
    brute_hasse_value fills it.  A test walks one P at a time through its
    blocks and twist classes, so four polynomials are enough."""
    return {0: [full[0].owner.one()]}


def masked_perms(tc, n, s):
    """The permutations sigma of [1, n] with sigma(i) >= j_i on B_n, the
    mask read from tc.j_and_B(n, s), in lexicographic order: by Lemma 2.2
    the permutations attaining the block minimum Y_n_s."""
    jt, bn = tc.j_and_B(n, s)
    return tuple(perm for perm in itertools.permutations(range(1, n + 1))
                 if all(perm[i - 1] >= jt[i - 1] for i in bn))


def brute_hasse_value(P, tc, n):
    """The Hasse value of block n of the twist class tc at P, by its
    definition: over each digit period s, the sum over the permutations in
    masked_perms(tc, n, s) of sgn(sigma) times the product over i of the
    coefficient of degree p i - sigma(i) - K_s in the fully expanded
    P^nu(i, sigma(i), s); the product of those sums over s.  Each power is
    expanded once, as the previous power times P, and kept for the next
    call on the same P."""
    F = P.base
    full = full_coeffs(P)
    powers = _power_cache(full)
    acc = F.one()
    for s in range(tc.period):
        term = F.zero()
        for perm in masked_perms(tc, n, s):
            swaps = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
            prod = F.one() if swaps % 2 == 0 else -F.one()
            for i in range(1, n + 1):
                t = F.p * i - perm[i - 1] - tc.K[s]
                nu = tc.nu(i, perm[i - 1], s)
                if nu not in powers:
                    # P^(k+1) = P^k * P from the largest cached power below nu
                    top = max(k for k in powers if k < nu)
                    for k in range(top, nu):
                        powers[k + 1] = _times_poly(powers[k], full)
                coeffs = powers[nu]
                prod = prod * (coeffs[t] if 0 <= t < len(coeffs) else F.zero())
            term = term + prod
        acc = acc * term
    return acc


def zeta_pow(ring, which, t):
    """zeta_p^t or zeta_d^t in ring as a reduced element; t may be any integer."""
    if which == "p":
        return ring.from_raw([[0]] * (t % ring.p) + [[1]])
    if which == "d":
        return ring.from_raw([[0] * (t % ring.d) + [1]])
    raise ValueError("which must be 'p' or 'd'")


def brute_twisted_sum(P, d, kappa, r):
    base = P.base
    big = make_field(base.p, base.n * r)
    em = embed(base, big)
    coeffs = [em(c) for c in full_coeffs(P)]
    g = primitive_root(base)
    G = primitive_root(big)
    ring = make_ring(base.p, d)
    total = ring.zero()
    x = big.one()
    for _ in range(big.order - 1):
        tr = trace_to_prime(eval_poly(coeffs, x))
        ell = dlog(norm_to(x, base, em), g)
        total = total + zeta_pow(ring, "p", tr) * zeta_pow(ring, "d", kappa * ell)
        x = x * G
    return total


def brute_additive_sum(P, r):
    base = P.base
    big = make_field(base.p, base.n * r)
    em = embed(base, big)
    coeffs = [em(c) for c in full_coeffs(P)]
    ring = make_ring(base.p, 1)
    total = zeta_pow(ring, "p", 0)  # x = 0 term
    G = primitive_root(big)
    x = big.one()
    for _ in range(big.order - 1):
        total = total + zeta_pow(ring, "p", trace_to_prime(eval_poly(coeffs, x)))
        x = x * G
    return total


def brute_power_sum(P, d, r):
    base = P.base
    big = make_field(base.p, base.n * r)
    em = embed(base, big)
    coeffs = [em(c) for c in full_coeffs(P)]
    ring = make_ring(base.p, 1)
    total = zeta_pow(ring, "p", 0)
    G = primitive_root(big)
    x = big.one()
    for _ in range(big.order - 1):
        y = x
        for _ in range(d - 1):
            y = y * x
        total = total + zeta_pow(ring, "p", trace_to_prime(eval_poly(coeffs, y)))
        x = x * G
    return total


def l_coeffs_by_tail(sum_r, degree):
    """c_0 .. c_D of exp(sum S_r T^r / r) for D = degree, from the D + 1
    sums sum_r(1) .. sum_r(D + 1) by the exact recurrence
    n c_n = sum_(r <= n) S_r c_(n-r); c_(D+1) must vanish and c_D must not."""
    sums = [sum_r(r) for r in range(1, degree + 2)]
    ring = sums[0].ring
    coeffs = [ring.one()]
    for n in range(1, degree + 2):
        tot = ring.zero()
        for r in range(1, n + 1):
            tot = tot + sums[r - 1] * coeffs[n - r]
        coeffs.append(exact_div_int(tot, n))
    if not coeffs[degree + 1].is_zero():
        raise AssertionError(f"coefficient {degree + 1} is nonzero; degree {degree} is wrong")
    if coeffs[degree].is_zero():
        raise AssertionError(f"leading coefficient at degree {degree} vanishes")
    return tuple(coeffs[: degree + 1])


def absolute_norm(x):
    """N(x) in Z: the product of the (p-1)phi(d) conjugates of x under
    zeta_p -> zeta_p^a, zeta_d -> zeta_d^b with a, b units."""
    ring = x.ring
    p, d = ring.p, ring.d
    norm = ring.one()
    for a in range(1, p):
        for b in (b for b in range(d) if gcd(b, d) == 1):
            raw = [[0] * d for _ in range(p)]
            for i, j, c in x.terms():
                raw[(a * i) % p][(b * j) % d] += c
            norm = norm * ring.from_raw(raw)
    n = sum(c for i, j, c in norm.terms() if i == j == 0)
    if norm != ring.from_int(n):
        raise AssertionError("the product of all conjugates is not a rational integer")
    return n


@lru_cache(maxsize=None)
def _reduction_tables(p, d):
    """Reduced zeta_p^t for t < max(2p - 3, p) and zeta_d^t for
    t < max(2 phi(d) - 1, d): Phi_k divides x^k - 1, so zeta_k^t is
    x^(t mod k) divided by Phi_k."""
    phi_d = len(cyclotomic_polynomial(d)) - 1
    return tuple([long_remainder((0,) * (t % k) + (1,), cyclotomic_polynomial(k)) for t in range(count)]
                 for k, count in ((p, max(2 * (p - 1) - 1, p)), (d, max(2 * phi_d - 1, d))))


def brute_from_raw(ring, raw):
    """Reduce a raw exponent matrix by reading every row through the table
    of reduced zeta_p powers, then every column through the zeta_d table."""
    red_p, red_d = _reduction_tables(ring.p, ring.d)
    rows = len(raw)
    cols = len(raw[0]) if rows else 0
    if rows > len(red_p) or cols > len(red_d):
        raise ValueError("raw exponent matrix exceeds the reduction tables")
    phi_p = ring.p - 1
    # stage 1: fold zeta_p exponents
    mid = [[0] * cols for _ in range(phi_p)]
    for t in range(rows):
        rowt = raw[t]
        if any(rowt):
            red = red_p[t]
            for a in range(phi_p):
                ra = red[a]
                if ra:
                    ma = mid[a]
                    for v in range(cols):
                        ma[v] += ra * rowt[v]
    # stage 2: fold zeta_d exponents
    out = [[0] * ring.phi_d for _ in range(phi_p)]
    for a in range(phi_p):
        mida = mid[a]
        outa = out[a]
        for v in range(cols):
            mv = mida[v]
            if mv:
                red = red_d[v]
                for b in range(ring.phi_d):
                    rb = red[b]
                    if rb:
                        outa[b] += mv * rb
    return from_json_dict({"p": ring.p, "d": ring.d, "coeffs": out})


def brute_cyclo_mul(x, y):
    """x * y by schoolbook convolution of the coefficient matrices."""
    ring = x.ring
    conv = [[0] * (2 * ring.phi_d - 1) for _ in range(2 * ring.p - 3)]
    yterms = list(y.terms())
    for a, b, c in x.terms():
        for a2, b2, c2 in yterms:
            conv[a + a2][b + b2] += c * c2
    return brute_from_raw(ring, conv)


def teichmuller_root_by_power(p, N, h):
    """Y^(p^(f(N-1))) in (Z/p^N)[Y]/(h), f = deg h, as f coefficients:
    Y^(p^f) = Y mod p, so this power is the Teichmueller lift of Y."""
    return powmod((0, 1), p ** ((len(h) - 1) * (N - 1)), h, p**N)


def brute_valuation(x, ctx):
    """v(x) at the place of ctx, v(p) = 1, or None for zero.  Works mod p^N
    for the least N with p^(N f) > S^phi(d), S the sum of the absolute
    values of x's coefficients.  zeta_d goes to the Teichmueller root taken
    as a modular power, and zeta_p^a = (1 + pi)^a to the sum of C(a, j) pi^j,
    with C(a, j) mod p^N from Pascal's rule; the valuation is the least
    v_p(c) + j/(p - 1) over the coordinates c of the integral basis
    {Y^i pi^j}."""
    if x.is_zero():
        return None
    p, f, h = ctx.p, ctx.f, ctx.factor_mod_p
    N = 1
    while p ** (N * f) <= sum(map(abs, x.coeffs)) ** x.ring.phi_d:
        N += 1
    pm = p**N
    root = teichmuller_root_by_power(p, N, h)
    # X[a] = sum_b c_ab root^b, the coefficient of zeta_p^a
    X = [[0] * f for _ in range(p - 1)]
    for a, b, c in x.terms():
        yb = powmod(root, b, h, pm)
        for i, y in enumerate(yb):
            X[a][i] += c * y
    coords = [[0] * f for _ in range(p - 1)]
    binom = [1]  # C(a, j) mod p^N for j <= a
    for a in range(p - 1):
        for j in range(a + 1):
            for i in range(f):
                coords[j][i] = (coords[j][i] + binom[j] * X[a][i]) % pm
        binom = [1] + [(u + v) % pm for u, v in zip(binom, binom[1:])] + [1]
    vals = []
    for j, cj in enumerate(coords):
        for c in filter(None, cj):
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            vals.append(v + Fraction(j, p - 1))
    if not vals:
        raise AssertionError(f"a nonzero element vanished modulo p^{N}")
    return min(vals)
