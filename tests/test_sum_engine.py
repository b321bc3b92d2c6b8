"""The vectorized sum engine against the element-by-element oracles.

Covers the blocked trace-table build, the strided histogram kernel (with
small chunk sizes, so chunk boundaries and wrap-arounds land everywhere,
and against a per-element count of its classes), the working set of
one pass, and characteristics past the range of a signed byte.
"""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpoly import char_sums
from lpoly.char_sums import (
    TwistSpec,
    _histogram,
    _TraceTable,
    additive_sum,
    poly_from_ints,
    power_sum,
    twisted_sum,
)
from lpoly.finite_field import _is_prime, make_field, primitive_root

from oracles import brute_additive_sum, brute_power_sum, brute_twisted_sum, trace_to_prime

# (p, m) base fields; p = 131 and 257 overflow a signed byte of trace values
FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1), (131, 1), (257, 1)]
BRUTE_LIMIT = 300  # field elements per brute-force sum
ENGINE = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _fresh_engine(mp, chunk):
    """Empty the trace-table cache and, unless chunk is None, point the
    engine at kernel and table-build passes of chunk elements."""
    char_sums._trace_table.cache_clear()
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


TABLE_FIELDS = [(2, 1), (3, 1), (2, 3), (5, 2), (3, 3), (7, 2), (2, 8), (131, 1), (257, 1)]


# chunk 14 gives (7, 2) passes of 2 of its 7 rows of B = 7, and chunk 48
# gives (2, 8) passes of 3 of its 16 rows of B = 16: each ends on a
# partial pass through the reused block and term buffers
@pytest.mark.parametrize("chunk, p, n", [(c, p, n) for c in (None, 5) for p, n in TABLE_FIELDS]
                         + [(14, 7, 2), (48, 2, 8)])
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


def test_table_samples_match_traces_on_every_small_field():
    # every F_(p^n) with at most 2^12 elements: the trace form
    # Tr(x^(l+c)), read from powers of the multiplication matrix, gives
    # the table whose sampled entries are Frobenius sums of G^k
    rng = random.Random(12)
    fields = [(p, n) for p in range(2, 2**12) if _is_prime(p) for n in range(1, 13) if p**n <= 2**12]
    for p, n in fields:
        tab = _TraceTable(p, n)
        G = primitive_root(tab.spec)
        for k in [0, tab.order - 1] + [rng.randrange(tab.order) for _ in range(6)]:
            assert tab.traces[k] == trace_to_prime(G**k), (p, n, k)
    assert len(fields) == 604


@pytest.mark.parametrize("p, n, shifts, step, D, mul", [
    # q = 13, d = 4: kappa = 2 gives mul = 2, not invertible mod 4; 25 raw
    # trace sums, not a multiple of 13
    (13, 2, [(1, 5), (3, 2)], 1, 4, 2),
    (13, 2, [(1, 5), (3, 2)], 1, 4, 3),
    # p = 3: one term gives 3 raw trace sums, two terms 5
    (3, 4, [(1, 7)], 1, 2, 1),
    (3, 4, [(1, 7), (2, 30)], 2, 1, 1),
    # passes of 6: 124 = 20 * 6 + 4 and 130 = 21 * 6 + 4 end on a partial
    # pass through the accumulator of full ones; three terms over p = 131
    # reach 390, so that accumulator is uint16
    (5, 3, [(1, 9), (2, 40), (4, 77)], 1, 2, 1),
    (131, 1, [(1, 4), (2, 50), (3, 100)], 1, 2, 1),
])
def test_histogram_matches_per_element_count(p, n, shifts, step, D, mul):
    with pytest.MonkeyPatch.context() as mp:
        _fresh_engine(mp, 7)
        tab = _TraceTable(p, n)
        count = tab.order // step
        got = _histogram(tab, shifts, step, count, D, mul)
    T, want = tab.traces.tolist(), [[0] * D for _ in range(p)]
    for k in range(count):
        t = sum(T[(j + i * step * k) % tab.order] for i, j in shifts)
        want[t % p][mul * k % D] += 1
    assert got.tolist() == want


def test_working_set_is_one_pass():
    # F_17^5 has 1,419,856 units, many passes of _CHUNK: beyond the table
    # it holds, a sum needs one pass's accumulator and bincount copy, and a
    # table build its table plus one block and one term buffer
    P = poly_from_ints(make_field(17, 1), 3, [5, 1])
    tab = char_sums._trace_table(17, 5)

    def peak(job):
        tracemalloc.start()
        try:
            job()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mib = 1 << 20
    assert peak(lambda: additive_sum(P, 5)) < 2 * mib
    assert peak(lambda: twisted_sum(P, TwistSpec(4, 1), 5)) < 2 * mib
    assert peak(lambda: _TraceTable(17, 5)) < tab.traces.nbytes + mib


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
