"""The vectorized sum engine against the element-by-element oracles.

Covers the trace-table build (the first block as a blocked product, the
others as multiples of it), the strided histogram kernel (with small chunk
sizes, so chunk boundaries and wrap-arounds land everywhere, and against a
per-element count of its classes, with and without the coset walk and
its fold), the rule that picks the fold, the working set of one pass, and
characteristics past the range of a signed byte.
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
    _scalings,
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


# (p, m, r): extensions of F_(p^m) whose Lambda = F_p^* meet <G> leaves
# enough coset representatives that sums of sparse polynomials fold the
# scalings of Lambda (S > 1), up to 625 elements
COSET_FIELDS = [(3, 1, 4), (3, 1, 5), (3, 2, 2), (5, 1, 3), (5, 1, 4), (7, 1, 3)]


@st.composite
def sparse_polys(draw):
    """(P, r): a monic P = X^e + a X^i, i < e, over a COSET_FIELDS base field
    and its extension degree r."""
    p, m, r = draw(st.sampled_from(COSET_FIELDS))
    e = draw(st.integers(1, 6).filter(lambda e: e % p))
    coeffs = [0] * (e - 1)
    if e > 1:
        coeffs[draw(st.integers(0, e - 2))] = draw(st.integers(0, p**m - 1))
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
    # the coset walk, S > 1 (pinned below): all 16 scalings of F_17^* over
    # F_17^3; F_5^5 with D = 1 and with D = 4 and mul = 2, not invertible;
    # F_5^5 with step 2, whose Lambda = {1, -1} is not all of F_5^*;
    # degrees 1 and 5 congruent mod S = 4, in one group of two terms
    (17, 3, [(2, 100)], 1, 1, 1),
    (5, 5, [(1, 9), (2, 400)], 1, 1, 1),
    (5, 5, [(1, 9), (2, 400)], 1, 4, 2),
    (5, 5, [(1, 9), (2, 400)], 2, 1, 1),
    (5, 5, [(1, 9), (5, 1000), (2, 400)], 1, 1, 1),
    # Lambda is trivial for p = 2 and the K = 1 representative of n = 1
    # is too few to fold: both take S = 1
    (2, 8, [(1, 9), (3, 40)], 1, 1, 1),
    (7, 1, [(1, 2), (2, 3)], 1, 3, 1),
])
def test_histogram_matches_per_element_count(p, n, shifts, step, D, mul):
    with pytest.MonkeyPatch.context() as mp:
        _fresh_engine(mp, 7)
        tab = _TraceTable(p, n)
        got = _histogram(tab, shifts, step, D, mul)
    T, want = tab.traces.tolist(), [[0] * D for _ in range(p)]
    for k in range(tab.order // step):
        t = sum(T[(j + i * step * k) % tab.order] for i, j in shifts)
        want[t % p][mul * k % D] += 1
    assert got.tolist() == want


@pytest.mark.parametrize("p, n, degrees, step, D, S", [
    # the two-term psi sum over F_17^5: 17^2 cells times 16 scalings is
    # well under the K = 88,741 representatives
    (17, 5, [1, 2], 1, 1, 16),
    # the three-term twisted sum over F_13^3 with D = 2: 13^3 cells alone
    # pass K = 183
    (13, 3, [1, 2, 3], 1, 2, 1),
    # the F_5^5 power step g = 2: Lambda = {1, -1}
    (5, 5, [1, 2], 2, 1, 2),
    (17, 3, [2], 1, 1, 16),
    (5, 5, [1, 2], 1, 4, 4),
    (5, 5, [1, 5, 2], 1, 1, 4),
    (2, 8, [1, 3], 1, 1, 1),
    (7, 1, [1, 2], 1, 3, 1),
])
def test_scalings_rule(p, n, degrees, step, D, S):
    assert _scalings(p, p**n - 1, step, degrees, D)[0] == S


def test_working_set_is_one_pass():
    # F_17^5 has 1,419,856 units, many passes of _CHUNK: beyond the table
    # it holds, a sum needs one pass's accumulator and bincount copy or,
    # for the additive sum's coset walk, one fold pass, and a table build
    # its table plus one block and one term buffer
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
@given(st.one_of(polys(), sparse_polys()), CHUNKS)
def test_additive_sum_matches_oracle(inst, chunk):
    P, r = inst
    with pytest.MonkeyPatch.context() as mp:
        _fresh_engine(mp, chunk)
        got = additive_sum(P, r)
    assert got == brute_additive_sum(P, r)


@ENGINE
@given(st.one_of(polys(), sparse_polys()), st.integers(1, 12), CHUNKS)
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
@given(st.one_of(polys([f for f in FIELDS if f != (2, 1)]), sparse_polys()), st.data(), CHUNKS)
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
