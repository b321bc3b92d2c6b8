"""Acceptance battery: eleven exact end-to-end checks, one test each.

Every comparison is exact (integers and Fractions); there are no numeric
tolerances anywhere.  Each test prints a single summary line on success,
so a verbose run reads as one verdict per criterion.

Heavy intermediate data (L-functions over the larger enumerations) is
built once in lazy module-level caches and shared between the sweep
checks and the degree-contract check.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

from lpoly.char_sums import TwistSpec, additive_sum, embed_poly, poly_from_ints, power_sum, twisted_sum
from lpoly.cli import (
    additive_l_function,
    newton_polygon,
    power_l_function,
    twisted_l_function,
    verify_lemma22,
    verify_prop41,
    verify_stickelberger,
)
from lpoly.cyclotomic import make_ring
from lpoly.finite_field import make_field
from lpoly.local_valuation import (
    aligned_context,
    make_context,
    q_newton_polygon,
    valuation,
)
from lpoly.polygon import NewtonPolygon
from lpoly.stratification import (
    gnp_power,
    gnp_twisted,
    hasse_full_eval,
    hasse_twisted_eval,
    hs_power,
    hs_twisted,
    power_blocks,
)
from oracles import l_coeffs_by_tail, zeta_pow

F = Fraction
MAX_ENUM_BIG = 1 << 25  # the oracle over F_17 sums across 17^6 elements
PRIMES_100 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97)

_store = {}


def _crit1_instances():
    """All 169 monic cubics over F_13 with their order-2 twisted L-functions."""
    if "crit1" not in _store:
        qspec = make_field(13, 1)
        tw = TwistSpec(2, 1)
        pairs = []
        for ct in itertools.product(range(13), repeat=2):
            P = poly_from_ints(qspec, 3, list(ct))
            pairs.append((P, twisted_l_function(P, tw)))
        _store["crit1"] = (qspec, tw, pairs)
    return _store["crit1"]


def _crit2_instances():
    if "crit2" not in _store:
        qspec = make_field(13, 1)
        pairs = []
        for a1 in range(13):
            P = poly_from_ints(qspec, 2, [a1])
            pairs.append((P, power_l_function(P, 2)))
        _store["crit2"] = pairs
    return _store["crit2"]


def _crit3_instances(m):
    key = ("crit3", m)
    if key not in _store:
        qspec = make_field(13, m)
        tw = TwistSpec(3, 1)
        ctx = aligned_context(qspec, 3)
        rows = []
        for ct in itertools.product(range(qspec.order), repeat=1):
            P = poly_from_ints(qspec, 2, list(ct))
            L = twisted_l_function(P, tw)
            npoly = q_newton_polygon(L, m, ctx)
            hval = qspec.one()
            for n in (1, 2):
                hval = hval * hasse_twisted_eval(P, n, tw)
            rows.append((P, L, npoly, hval))
        _store[key] = rows
    return _store[key]


def _crit4_instances():
    if "crit4" not in _store:
        qspec = make_field(17, 1)
        rows = []
        for a1 in range(17):
            P = poly_from_ints(qspec, 2, [a1])
            L = power_l_function(P, 3, MAX_ENUM_BIG)
            npoly = newton_polygon(L, qspec)
            rows.append((P, L, npoly, hasse_full_eval(P, power_blocks(17, 3, 2))))
        _store["crit4"] = rows
    return _store["crit4"]


def _crit5_report():
    if "crit5" not in _store:
        _store["crit5"] = verify_prop41(17, 1, 3, 2, count=50, seed=0,
                                        max_enum=MAX_ENUM_BIG)
    return _store["crit5"]


def test_criterion_01_split_twisted_polygons_equal_lower_bound():
    t0 = time.monotonic()
    qspec, tw, pairs = _crit1_instances()
    hs = hs_twisted(2, 3, 1, 1)
    assert hs.slope_multiset() == ((F(1, 6), 1), (F(1, 2), 1), (F(5, 6), 1))
    ctx = aligned_context(qspec, 2)
    for P, L in pairs:
        assert q_newton_polygon(L, 1, ctx) == hs
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 01: PASS - 169/169 twisted polygons equal the slopes "
          f"(1/6, 1/2, 5/6) in {elapsed:.1f}s")


def test_criterion_02_split_power_polygons_are_equidistributed():
    pairs = _crit2_instances()
    hodge = NewtonPolygon.from_slopes([(F(1, 4), 1), (F(1, 2), 1), (F(3, 4), 1)])
    for P, L in pairs:
        assert newton_polygon(L, make_field(13, 1)) == hodge
    print("criterion 02: PASS - 13/13 squared-argument polygons equal "
          "(1/4, 1/2, 3/4)")


def test_criterion_03_twisted_stratification_two_fields():
    hs = hs_twisted(3, 2, 1, 1)
    gnp = gnp_twisted(13, 3, 2, 1)
    totals = {}
    for m in (1, 2):
        rows = _crit3_instances(m)
        assert len(rows) == 13**m
        for P, L, npoly, hval in rows:
            assert npoly.lies_above(hs)
            assert (npoly == gnp) == (not hval.is_zero())
        totals[m] = len(rows)
    print(f"criterion 03: PASS - stratification exact over F_13 "
          f"({totals[1]} P) and F_169 ({totals[2]} P), zero exceptions")


def test_criterion_04_power_stratification_over_f17():
    hs = hs_power(3, 2, 2)
    assert hs.slope_multiset() == ((F(1, 4), 2), (F(1, 2), 1), (F(3, 4), 2))
    gnp = gnp_power(17, 3, 2)
    assert gnp.slope_multiset() == ((F(9, 32), 2), (F(1, 2), 1), (F(23, 32), 2))
    rows = _crit4_instances()
    assert len(rows) == 17
    for P, L, npoly, hval in rows:
        assert npoly.lies_above(hs)
        assert (npoly == gnp) == (not hval.is_zero())
    print("criterion 04: PASS - 17/17 cubed-argument polygons sit above "
          "(1/4,1/4,1/2,3/4,3/4) and match the generic polygon exactly "
          "when the coefficient product is nonzero")


def test_criterion_05_exact_factorization():
    report = _crit5_report()
    assert report["counts"] == {"total": 50, "passed": 50}
    assert report["pass"] is True
    for row in report["instances"]:
        assert row["factorization_exact"] is True
        assert row["twisted_degrees"] == [2]
    print("criterion 05: PASS - 50/50 seeded polynomials factor exactly as "
          "additive part times order-3 twisted part in T^2 over F_289")


def test_criterion_06_block_minima_match_brute_force():
    report = verify_lemma22(draws=200, seed=0)
    assert report["counts"] == {"total": 200, "passed": 200}
    print("criterion 06: PASS - 200/200 seeded draws: closed-form block "
          "minima and argmin sets equal exhaustive search")


def test_criterion_07_gauss_sum_valuations():
    report = verify_stickelberger()
    assert report["counts"]["total"] == 103
    assert report["counts"]["passed"] == 103
    print("criterion 07: PASS - 103/103 Gauss sums across ten prime powers "
          "have q-adic valuation equal to the complementary orbit mean")


def test_criterion_08_degree_contracts():
    # every L-function above, of degree D, against the oracle that takes
    # D + 1 sums and requires c_(D+1) = 0
    checked = 0

    def agree(L, sum_r, degree):
        nonlocal checked
        assert L.degree == degree
        assert L.coeffs == l_coeffs_by_tail(sum_r, degree)
        checked += 1

    qspec, tw, pairs1 = _crit1_instances()
    for P, L in pairs1:
        agree(L, lambda r: twisted_sum(P, tw, r), 3)
    for P, L in _crit2_instances():
        agree(L, lambda r: power_sum(P, 2, r), 3)
    tw3 = TwistSpec(3, 1)
    for m in (1, 2):
        for P, L, _, _ in _crit3_instances(m):
            agree(L, lambda r: twisted_sum(P, tw3, r), 2)
    for P, L, _, _ in _crit4_instances():
        agree(L, lambda r: power_sum(P, 3, r, MAX_ENUM_BIG), 5)
    # criterion 05's power L-functions are criterion 04's (same P, same d);
    # its additive and twisted factors are recomputed per distinct P, the
    # twist on the one nonzero orbit {1, 2} of multiplication by 17 mod 3
    f17, f289 = make_field(17, 1), make_field(17, 2)
    rows = _crit5_report()["instances"]
    for row in rows:
        assert (row["power_degree"], row["additive_degree"], row["twisted_degrees"]) == (5, 1, [2])
    for ct in dict.fromkeys(tuple(row["coeffs"]) for row in rows):
        P = poly_from_ints(f17, 2, list(ct))
        agree(additive_l_function(P), lambda r: additive_sum(P, r), 1)
        P2 = embed_poly(P, f289)
        agree(twisted_l_function(P2, tw3), lambda r: twisted_sum(P2, tw3, r, MAX_ENUM_BIG), 2)
    print(f"criterion 08: PASS - {checked} L-functions have the degree of their "
          f"contract (twisted e, power de-1, additive e-1) and equal the "
          f"(D+1)-sum oracle with its zero tail")


def test_criterion_09_generic_polygon_convex_and_dominant():
    count = 0
    for d in range(2, 7):
        for e in range(1, 7):
            for p in PRIMES_100:
                if p < 2 * d * e or gcd(p, d * e) > 1:
                    continue
                for kappa in range(1, d):
                    gnp = gnp_twisted(p, d, e, kappa)
                    # strictly increasing flat slopes: e unit segments
                    segs = gnp.slope_multiset()
                    assert [n for _, n in segs] == [1] * e
                    assert all(a < b for (a, _), (b, _) in zip(segs, segs[1:]))
                    assert gnp.lies_above(hs_twisted(d, e, p, kappa))
                    count += 1
    assert count > 1000
    print(f"criterion 09: PASS - {count} generic polygons with d <= 6, "
          f"e <= 6, 2de <= p <= 100 are strictly convex and dominate the "
          f"lower bound")


def test_criterion_10_valuation_self_test_and_factor_independence():
    pair_target = 1000
    for p, d in ((3, 2), (5, 4), (17, 3), (13, 6)):
        ring = make_ring(p, d)
        ctx = make_context(p, d)
        assert valuation(ring.from_int(p), ctx) == 1
        pi = zeta_pow(ring, "p", 1) - ring.one()
        assert valuation(pi, ctx) == F(1, p - 1)
        rng = random.Random(p * 100 + d)
        done = 0
        while done < pair_target:
            x = ring.from_raw([[rng.randrange(-9, 10) for _ in range(ring.phi_d)]
                               for _ in range(ring.p - 1)])
            y = ring.from_raw([[rng.randrange(-9, 10) for _ in range(ring.phi_d)]
                               for _ in range(ring.p - 1)])
            if x.is_zero() or y.is_zero():
                continue
            vx, vy = valuation(x, ctx), valuation(y, ctx)
            assert valuation(x * y, ctx) == vx + vy
            vs = valuation(x + y, ctx)
            if vs is not None:
                assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)
            done += 1
    qspec, tw, pairs = _crit1_instances()
    hs = hs_twisted(2, 3, 1, 1)
    ctx_default = make_context(13, 2)
    ctx_aligned = aligned_context(qspec, 2)
    for P, L in pairs:
        a = q_newton_polygon(L, 1, ctx_default)
        b = q_newton_polygon(L, 1, ctx_aligned)
        assert a == b == hs
    print("criterion 10: PASS - 4000 valuation pairs multiplicative and "
          "ultrametric; 169 polygons independent of the factor choice")


def test_criterion_11_generic_polygon_independent_of_field_degree():
    a = gnp_twisted(17, 3, 2, 1, m=2)
    b = gnp_twisted(17, 3, 2, 1, m=4)
    assert a == b == gnp_twisted(17, 3, 2, 1)
    assert a.slope_multiset() == ((F(9, 32), 1), (F(23, 32), 1))
    print("criterion 11: PASS - generic polygon identical under m=2 and m=4 "
          "bookkeeping")
