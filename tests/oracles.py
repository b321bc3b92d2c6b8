"""Element-by-element reference sums and norms; deliberately slow and obvious.

The sums walk every field element one at a time through the high-level
field API and never touch the vectorized engine, so agreement is
meaningful: traces are Frobenius sums, relative norms are powers read
back through a lookup of the whole subfield, and polynomial powers are
full expansions.  The absolute norm multiplies Galois conjugates in the
cyclotomic ring and never touches the local valuation engine.
"""
from functools import lru_cache
from math import gcd

from lpoly.cyclotomic import make_ring
from lpoly.finite_field import dlog, embed, make_field, primitive_root


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


def brute_poly_power(P, power):
    """Every coefficient of P^power, low -> high, by full expansion."""
    F = P.base
    out = [F.one()]
    for _ in range(power):
        new = [F.zero()] * (len(out) + P.e)
        for i, c in enumerate(out):
            for j, a in enumerate(P.full_coeffs()):
                new[i + j] = new[i + j] + c * a
        out = new
    return out


def brute_twisted_sum(P, d, kappa, r):
    base = P.base
    big = make_field(base.p, base.n * r)
    em = embed(base, big)
    coeffs = [em(c) for c in P.full_coeffs()]
    g = primitive_root(base)
    G = primitive_root(big)
    ring = make_ring(base.p, d)
    total = ring.zero()
    x = big.one()
    for _ in range(big.order - 1):
        tr = trace_to_prime(eval_poly(coeffs, x))
        ell = dlog(norm_to(x, base, em), g)
        total = total + ring.zeta_pow("p", tr) * ring.zeta_pow("d", kappa * ell)
        x = x * G
    return total


def brute_additive_sum(P, r):
    base = P.base
    big = make_field(base.p, base.n * r)
    em = embed(base, big)
    coeffs = [em(c) for c in P.full_coeffs()]
    ring = make_ring(base.p, 1)
    total = ring.zeta_pow("p", 0)  # x = 0 term
    G = primitive_root(big)
    x = big.one()
    for _ in range(big.order - 1):
        total = total + ring.zeta_pow("p", trace_to_prime(eval_poly(coeffs, x)))
        x = x * G
    return total


def brute_power_sum(P, d, r):
    base = P.base
    big = make_field(base.p, base.n * r)
    em = embed(base, big)
    coeffs = [em(c) for c in P.full_coeffs()]
    ring = make_ring(base.p, 1)
    total = ring.zeta_pow("p", 0)
    G = primitive_root(big)
    x = big.one()
    for _ in range(big.order - 1):
        y = x
        for _ in range(d - 1):
            y = y * x
        total = total + ring.zeta_pow("p", trace_to_prime(eval_poly(coeffs, y)))
        x = x * G
    return total


def absolute_norm(x):
    """N(x) in Z: the product of the (p-1)phi(d) conjugates of x under
    zeta_p -> zeta_p^a, zeta_d -> zeta_d^b with a, b units."""
    ring = x.ring
    p, d = ring.p, ring.d
    norm = ring.one()
    for a in range(1, p):
        for b in (b for b in range(d) if gcd(b, d) == 1):
            raw = [[0] * d for _ in range(p)]
            for i, row in enumerate(x.coeffs):
                for j, c in enumerate(row):
                    raw[(a * i) % p][(b * j) % d] += c
            norm = norm * ring.from_raw(raw)
    n = norm.coeffs[0][0]
    if norm != ring.from_int(n):
        raise AssertionError("the product of all conjugates is not a rational integer")
    return n
