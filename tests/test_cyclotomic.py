import os
import random
import subprocess
import sys
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpoly
from lpoly.cyclotomic import (
    CycloElem,
    cyclotomic_polynomial,
    dot,
    embed_into,
    exact_div_int,
    from_json_dict,
    make_ring,
)
from lpoly.errors import InternalError, ParameterError
from oracles import brute_cyclo_mul, brute_from_raw, zeta_pow

RINGS = [(p, d) for p in (2, 3, 5, 7, 13, 113, 257) for d in (1, 2, 3, 4, 8, 9, 12, 24) if gcd(p, d) == 1]
# magnitudes at and past byte and 64-bit boundaries of the Kronecker digits
NEAR = (1, 2**62, 2**63, 2**64, 2**128, 2**200)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_product():
    # the product over all divisors recovers x^d - 1
    for d in (1, 2, 6, 10, 12):
        prod = (1,)
        for dd in range(1, d + 1):
            if d % dd == 0:
                f = cyclotomic_polynomial(dd)
                new = [0] * (len(prod) + len(f) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(f):
                        new[i + j] += a * b
                prod = tuple(new)
        assert prod == tuple([-1] + [0] * (d - 1) + [1])


def test_ring_validation():
    with pytest.raises(ParameterError, match="6 is not prime"):
        make_ring(6, 1)
    with pytest.raises(ParameterError, match="are not coprime"):
        make_ring(3, 6)
    assert make_ring(5, 4) is make_ring(5, 4)


def test_zeta2_is_minus_one():
    ring = make_ring(3, 2)
    assert zeta_pow(ring, "d", 1) == -ring.one()


def test_zeta3_relation():
    # in Z[zeta_3] (as the zeta_p part of the ring with p = 3)
    ring = make_ring(3, 1)
    z = zeta_pow(ring, "p", 1)
    assert z * z == -ring.one() - z
    assert z * z * z == ring.one()


def test_gauss_like_square():
    # (zeta_3 - zeta_3^2)^2 = -3
    ring = make_ring(3, 1)
    g = zeta_pow(ring, "p", 1) - zeta_pow(ring, "p", 2)
    assert g * g == ring.from_int(-3)


def test_zeta_pow_negative_exponent():
    ring = make_ring(7, 4)
    assert zeta_pow(ring, "d", -1) == zeta_pow(ring, "d", 3)
    assert zeta_pow(ring, "p", 13) == zeta_pow(ring, "p", 6)


def test_from_raw_idempotent():
    ring = make_ring(5, 4)
    rng = random.Random(7)
    for _ in range(20):
        raw = [[rng.randrange(-9, 10) for _ in range(ring.phi_d)] for _ in range(ring.p - 1)]
        x = ring.from_raw(raw)
        assert ring.from_raw(x.to_json_dict()["coeffs"]) == x


@pytest.mark.parametrize("p,d", [(3, 1), (2, 3), (5, 4), (7, 6)])
def test_ring_axioms_seeded(p, d):
    ring = make_ring(p, d)
    rng = random.Random(1000 * p + d)

    def rand_elem():
        raw = [[rng.randrange(-5, 6) for _ in range(ring.phi_d)] for _ in range(ring.p - 1)]
        return ring.from_raw(raw)

    for _ in range(15):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x + ring.zero() == x
        assert x * ring.one() == x
        assert (x - x).is_zero()


def test_zeta_orders():
    ring = make_ring(7, 6)
    zp = zeta_pow(ring, "p", 1)
    acc = ring.one()
    for _ in range(7):
        acc = acc * zp
    assert acc == ring.one()
    zd = zeta_pow(ring, "d", 1)
    acc = ring.one()
    for _ in range(6):
        acc = acc * zd
    assert acc == ring.one()
    # full sums of the roots vanish
    tot = ring.zero()
    for t in range(7):
        tot = tot + zeta_pow(ring, "p", t)
    assert tot.is_zero()
    tot = ring.zero()
    for t in range(6):
        tot = tot + zeta_pow(ring, "d", t)
    assert tot.is_zero()


def test_exact_division():
    ring = make_ring(3, 1)
    x = ring.from_int(6) + 4 * zeta_pow(ring, "p", 1)
    half = exact_div_int(x, 2)
    assert half == ring.from_int(3) + 2 * zeta_pow(ring, "p", 1)
    with pytest.raises(InternalError, match="coefficient 6 is not divisible by 4"):
        exact_div_int(x, 4)
    with pytest.raises(ParameterError, match="division by zero"):
        exact_div_int(x, 0)


def test_ring_mismatch():
    a = make_ring(3, 1).one()
    b = make_ring(5, 1).one()
    with pytest.raises(InternalError, match="different cyclotomic rings"):
        a + b


def test_embed_into():
    small = make_ring(5, 2)
    big = make_ring(5, 4)
    x = zeta_pow(small, "d", 1) + small.from_int(2)
    y = embed_into(x, big)
    # zeta_2 = zeta_4^2 = -1
    assert y == zeta_pow(big, "d", 2) + big.from_int(2)
    assert embed_into(small.one(), big) == big.one()
    with pytest.raises(InternalError, match="rings have different p"):
        embed_into(x, make_ring(3, 4))
    with pytest.raises(InternalError, match="4 does not divide 2"):
        embed_into(big.one(), small)


def test_embed_preserves_products():
    small = make_ring(7, 3)
    big = make_ring(7, 6)
    rng = random.Random(11)
    for _ in range(10):
        raw1 = [[rng.randrange(-4, 5) for _ in range(small.phi_d)] for _ in range(small.p - 1)]
        raw2 = [[rng.randrange(-4, 5) for _ in range(small.phi_d)] for _ in range(small.p - 1)]
        x, y = small.from_raw(raw1), small.from_raw(raw2)
        assert embed_into(x * y, big) == embed_into(x, big) * embed_into(y, big)


def test_json_round_trip():
    ring = make_ring(5, 4)
    x = zeta_pow(ring, "p", 2) * zeta_pow(ring, "d", 3) - ring.from_int(9)
    data = x.to_json_dict()
    assert data["p"] == 5 and data["d"] == 4
    assert from_json_dict(data) == x


def test_element_is_one_flat_tuple_of_ints():
    ring = make_ring(5, 3)
    assert ring.rank == 8
    x = zeta_pow(ring, "p", 2) * zeta_pow(ring, "d", 1) - ring.from_int(9)
    assert x.coeffs == (-9, 0, 0, 0, 0, 1, 0, 0)
    assert list(x.terms()) == [(0, 0, -9), (2, 1, 1)]
    assert x.to_json_dict()["coeffs"] == [[-9, 0], [0, 0], [0, 1], [0, 0]]
    assert list(ring.zero().terms()) == []
    for bad in ((0,) * 7, (0,) * 9, [0] * 8, (0,) * 7 + (0.0,), (0,) * 7 + (True,),
                ((0, 0),) * 4):
        with pytest.raises(ParameterError, match="must be a tuple of 8 ints"):
            CycloElem(ring, bad)


_MALFORMED = [
    ([[1, 0]] * 3, "wrong shape"),
    ([[1, 0]] * 5, "wrong shape"),
    ([[1, 0, 0]] + [[0, 0]] * 3, "wrong shape"),
    ([[1]] + [[0, 0]] * 3, "wrong shape"),
    ([1, 0, 0, 0, 0, 0, 0, 0], "wrong shape"),
    ([[1, 0], [0, 0], [0, 0], [0, "0"]], "must be a tuple of 8 ints"),
]


@pytest.mark.parametrize("coeffs, message", _MALFORMED, ids=[f"coeffs{i}" for i in range(len(_MALFORMED))])
def test_json_form_is_checked_before_it_is_flattened(coeffs, message):
    with pytest.raises(ParameterError, match=message):
        from_json_dict({"p": 5, "d": 3, "coeffs": coeffs})


def test_d_equals_one_degenerate():
    ring = make_ring(7, 1)
    assert ring.phi_d == 1
    assert zeta_pow(ring, "d", 5) == ring.one()
    x = zeta_pow(ring, "p", 3)
    assert (x * x) == zeta_pow(ring, "p", 6)


def _coefficient(rng, base):
    c = base + rng.randrange(-2, 3) if rng.random() < 0.7 else rng.randrange(1, 2 * base + 1)
    return max(c, 1) * rng.choice((1, -1))


@st.composite
def _elements(draw, ring, dense):
    """Zero, a monomial, a few terms, or (when dense) every coordinate nonzero;
    coefficients near a magnitude from NEAR, with both signs."""
    kinds = ("zero", "monomial", "sparse", "dense") if dense else ("zero", "monomial", "sparse")
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2**32)))
    base = draw(st.sampled_from(NEAR))
    coeffs = [0] * ring.rank
    if kind == "dense":
        coeffs = [_coefficient(rng, base) for _ in range(ring.rank)]
    elif kind != "zero":
        for _ in range(1 if kind == "monomial" else rng.randrange(2, 13)):
            coeffs[rng.randrange(ring.rank)] = _coefficient(rng, base)
    return CycloElem(ring, tuple(coeffs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_product_matches_schoolbook_oracle(data):
    ring = make_ring(*data.draw(st.sampled_from(RINGS)))
    # the oracle costs nnz(x) times the rank, so x is dense only in small rings
    x = data.draw(_elements(ring, dense=ring.rank <= 224))
    y = data.draw(_elements(ring, dense=True))
    want = brute_cyclo_mul(x, y)
    assert x * y == want
    assert y * x == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_dot_matches_sum_of_schoolbook_products(data):
    ring = make_ring(*data.draw(st.sampled_from(RINGS)))
    count = data.draw(st.integers(1, 5))
    xs = [data.draw(_elements(ring, dense=ring.rank <= 224)) for _ in range(count)]
    ys = [data.draw(_elements(ring, dense=True)) for _ in range(count)]
    want = ring.zero()
    for x, y in zip(xs, ys):
        want = want + brute_cyclo_mul(x, y)
    assert dot(xs, ys) == want
    assert dot(ys, xs) == want


# the m whose 4 m^2 lies just below and just above the sign bit of a
# k-byte digit, 2^(8k - 1)
EDGES = [isqrt((2 ** (8 * k - 1) - 1) // 4) + t for k in (1, 2, 3, 8, 9) for t in (0, 1)]


@pytest.mark.parametrize("m", [1] + EDGES)
def test_dot_reaches_its_slot_bound(m):
    # over Z[zeta_7], x = m (1 + zeta + zeta^2 + zeta^3): all four terms of
    # x * x meet in its middle slot, which is 4 m^2, the bound itself; with
    # three pairs the slot is three times the bound of one
    ring = make_ring(7, 1)
    x = CycloElem(ring, (m,) * 4 + (0, 0))
    for pairs in (1, 3):
        for y in (x, -x):
            want = ring.zero()
            for _ in range(pairs):
                want = want + brute_cyclo_mul(x, y)
            assert dot([x] * pairs, [y] * pairs) == want


# digit bounds just below and just above the sign bit of a 1-, 2-, 4- and
# 8-byte word: dot packs such digits as machine words, rounded up to 1, 2,
# 4 or 8 bytes, and the last bound, past 8 bytes, goes digit by digit
WORD_EDGES = [(1 << 8 * k - 1) - 1 + t for k in (1, 2, 4, 8) for t in (0, 1)]


@pytest.mark.parametrize("p, d", [(7, 2), (5, 3), (3, 5)])
@pytest.mark.parametrize("bound", WORD_EDGES)
def test_dot_at_the_machine_word_edges(p, d, bound):
    # x = c zeta_p^a zeta_d^b and y with every coordinate +-1: the digit
    # bound max|x| max|y| min(nnz x, nnz y) is |c|, and each slot of x y is
    # +-c, so the slots reach the bound; so do two pairs sharing y whose
    # monomials at one place add up to it, and a second pair of a dense
    # factor and a monomial takes the bound past the edge
    ring = make_ring(p, d)
    rng = random.Random(bound % 997 + 10 * p + d)

    def signs():
        return CycloElem(ring, tuple(rng.choice((1, -1)) for _ in range(ring.rank)))

    def monomial(c, at):
        return CycloElem(ring, tuple(c if i == at else 0 for i in range(ring.rank)))

    at, y = rng.randrange(ring.rank), signs()
    cases = [([monomial(bound, at)], [y]), ([monomial(-bound, at)], [y]),
             ([monomial(bound // 2, at), monomial(bound - bound // 2, at)], [y, y]),
             ([monomial(bound, at), signs()], [signs(), monomial(-bound // 3, rng.randrange(ring.rank))])]
    for xs, ys in cases:
        want = ring.zero()
        for x, y2 in zip(xs, ys):
            want = want + brute_cyclo_mul(x, y2)
        assert dot(xs, ys) == want
        assert dot(ys, xs) == want


def test_dot_refuses_bad_pairs():
    ring = make_ring(5, 4)
    x = zeta_pow(ring, "p", 1)
    with pytest.raises(ParameterError, match="at least one pair"):
        dot((), ())
    with pytest.raises(ParameterError, match="2 left factors against 1 right"):
        dot((x, x), (x,))
    with pytest.raises(InternalError, match="different cyclotomic rings"):
        dot((x, x), (x, make_ring(5, 2).one()))
    with pytest.raises(InternalError, match="different cyclotomic rings"):
        dot((make_ring(7, 4).one(),), (x,))
    with pytest.raises(InternalError, match="different cyclotomic rings"):
        dot((x,), (2,))


def test_ring_arithmetic_does_not_import_numpy():
    # a fresh interpreter, so that no other test has imported numpy yet
    src = os.path.dirname(os.path.dirname(lpoly.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, lpoly.cyclotomic; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("p,d", RINGS)
def test_from_raw_matches_table_reduction_at_every_size(p, d):
    ring = make_ring(p, d)
    max_rows, max_cols = max(2 * p - 3, p), len(ring._red_d)
    rng = random.Random(1000 * p + d)
    # every admitted size in the small rings, the boundary sizes in the large
    rows_range = range(max_rows + 1) if p <= 13 else (0, 1, p - 2, p - 1, p, max_rows)
    cols_range = range(1, max_cols + 1) if p <= 13 else sorted({1, ring.phi_d, max_cols})
    for rows in rows_range:
        for cols in cols_range:
            raw = [[0] * cols for _ in range(rows)]
            for _ in range(rng.randrange(1, 8)):
                if rows:
                    raw[rng.randrange(rows)][rng.randrange(cols)] = _coefficient(rng, rng.choice(NEAR))
            if rows >= p:
                raw[p - 1] = [_coefficient(rng, 2**64) for _ in range(cols)]
            assert ring.from_raw(raw) == brute_from_raw(ring, raw)
    with pytest.raises(ParameterError, match="exceeds the reduction tables"):
        ring.from_raw([[1]] * (max_rows + 1))
    with pytest.raises(ParameterError, match="exceeds the reduction tables"):
        ring.from_raw([[0] * (max_cols + 1)])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_conj_is_complex_conjugation(data):
    ring = make_ring(*data.draw(st.sampled_from(RINGS)))
    x = data.draw(_elements(ring, dense=ring.rank <= 224))
    y = data.draw(_elements(ring, dense=ring.rank <= 224))
    # zeta_p^a zeta_d^b -> zeta_p^-a zeta_d^-b, reduced by the table oracle
    raw = [[0] * ring.d for _ in range(ring.p)]
    for a, b, c in x.terms():
        raw[-a % ring.p][-b % ring.d] += c
    assert ring.conj(x) == brute_from_raw(ring, raw)
    assert ring.conj(ring.conj(x)) == x
    assert ring.conj(x * y) == ring.conj(x) * ring.conj(y)
    norm = x * ring.conj(x)
    assert ring.conj(norm) == norm


def test_conj_refuses_another_ring():
    with pytest.raises(InternalError, match="another ring"):
        make_ring(5, 1).conj(make_ring(5, 4).one())
