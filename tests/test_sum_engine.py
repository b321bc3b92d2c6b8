"""The vectorized sum engine against the element-by-element oracles.

Covers the blocked trace-table build, the strided histogram kernel (with
small chunk sizes, so chunk boundaries and wrap-arounds land everywhere),
and characteristics past the range of a signed byte.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpoly import char_sums
from lpoly.char_sums import (
    TwistSpec,
    _TraceTable,
    additive_sum,
    poly_from_ints,
    power_sum,
    twisted_sum,
)
from lpoly.finite_field import make_field, primitive_root, trace_to_prime

from oracles import brute_additive_sum, brute_power_sum, brute_twisted_sum

# (p, m) base fields; p = 131 and 257 overflow a signed byte of trace values
FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1), (131, 1), (257, 1)]
BRUTE_LIMIT = 300  # field elements per brute-force sum
ENGINE = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _fresh_engine(mp, chunk):
    """Point the engine at empty caches and, unless chunk is None, at
    kernel and table-build passes of chunk elements."""
    mp.setattr(char_sums, "_sum_cache", {})
    mp.setattr(char_sums, "_trace_tables", {})
    if chunk is not None:
        mp.setattr(char_sums, "_CHUNK", chunk)


@st.composite
def polys(draw, fields=FIELDS):
    """(P, r): a monic P over a small field and an extension degree r whose
    field stays within BRUTE_LIMIT elements."""
    p, m = draw(st.sampled_from(fields))
    q = p**m
    rmax = 1
    while q ** (rmax + 1) <= BRUTE_LIMIT:
        rmax += 1
    r = draw(st.integers(1, rmax))
    e = draw(st.integers(1, 6).filter(lambda e: e % p))
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=e - 1, max_size=e - 1))
    return poly_from_ints(make_field(p, m), e, coeffs), r


CHUNKS = st.sampled_from([None, 1, 4, 7])


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 3), (5, 2), (3, 3), (7, 2),
                                  (2, 8), (131, 1), (257, 1)])
@pytest.mark.parametrize("chunk", [None, 5])
def test_blocked_table_matches_traces(p, n, chunk):
    # (2, 1) has a single unit; B = ceil(sqrt(M)) divides M only for (3, 1)
    # and (257, 1)
    with pytest.MonkeyPatch.context() as mp:
        _fresh_engine(mp, chunk)
        tab = _TraceTable(p, n)
    spec = make_field(p, n)
    G = primitive_root(spec)
    want, x = [], spec.one()
    for _ in range(spec.order - 1):
        want.append(trace_to_prime(x))
        x = x * G
    assert tab.traces.tolist() == want
    assert tab.traces.dtype.itemsize == (1 if p <= 256 else 2)


@ENGINE
@given(polys(), CHUNKS)
def test_additive_sum_matches_oracle(inst, chunk):
    P, r = inst
    with pytest.MonkeyPatch.context() as mp:
        _fresh_engine(mp, chunk)
        got = additive_sum(P, r)
    assert got == brute_additive_sum(P, r)


@ENGINE
@given(polys(), st.integers(1, 12), CHUNKS)
# g = gcd(d, q^r - 1) is 1, then 8; in the last, every stride i g is >= M = 2
@example((poly_from_ints(make_field(5, 1), 3, [1, 2]), 2), 7, None)
@example((poly_from_ints(make_field(5, 1), 3, [1, 2]), 2), 8, 4)
@example((poly_from_ints(make_field(3, 1), 5, [1, 0, 2, 1]), 1), 4, None)
def test_power_sum_matches_oracle(inst, d, chunk):
    P, r = inst
    if d % P.base.p == 0:
        d += 1
    with pytest.MonkeyPatch.context() as mp:
        _fresh_engine(mp, chunk)
        got = power_sum(P, d, r)
    assert got == brute_power_sum(P, d, r)


@ENGINE
@given(polys([f for f in FIELDS if f != (2, 1)]), st.data(), CHUNKS)
def test_twisted_sum_matches_oracle(inst, data, chunk):
    P, r = inst
    q = P.base.order
    d = data.draw(st.sampled_from([d for d in range(2, q) if (q - 1) % d == 0]))
    kappa = data.draw(st.integers(1, d - 1))
    with pytest.MonkeyPatch.context() as mp:
        _fresh_engine(mp, chunk)
        got = twisted_sum(P, TwistSpec(d, kappa), r)
    assert got == brute_twisted_sum(P, d, kappa, r)


@pytest.mark.parametrize("p, d", [(131, 10), (257, 8)])
def test_sums_past_signed_byte_traces(p, d):
    # trace values above 127 once wrapped to negatives in a signed table
    P = poly_from_ints(make_field(p, 1), 3, [5, 1])  # X^3 + X^2 + 5X
    assert additive_sum(P, 1) == brute_additive_sum(P, 1)
    assert power_sum(P, 2, 1) == brute_power_sum(P, 2, 1)
    for kappa in (1, 3):
        assert twisted_sum(P, TwistSpec(d, kappa), 1) == brute_twisted_sum(P, d, kappa, 1)
