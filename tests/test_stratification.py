import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpoly import stratification
from lpoly.char_sums import TwistSpec, poly_from_ints, twisted_l_function
from lpoly.cli import run_twisted_sweep
from lpoly.errors import InternalError, ParameterError
from lpoly.finite_field import FieldElement, make_field, mult_order, _is_prime
from lpoly.stratification import (
    Orbit,
    TwistCombinatorics,
    gnp_power,
    gnp_twisted,
    hasse_additive_eval,
    hasse_full_eval,
    hasse_twisted_eval,
    hs_power,
    hs_twisted,
    orbit_decomposition,
    power_blocks,
)

from oracles import (
    brute_hasse_value,
    brute_poly_power,
    brute_twisted_sum,
    l_coeffs_by_tail,
    masked_perms,
)

F = Fraction

PRIMES = tuple(n for n in range(2, 400) if _is_prime(n))


def brute_min(tc, n, s):
    return min(
        sum(tc.nu(k, perm[k - 1], s) for k in range(1, n + 1))
        for perm in itertools.permutations(range(1, n + 1))
    )


def brute_argmin(tc, n, s):
    best = brute_min(tc, n, s)
    return set(
        perm
        for perm in itertools.permutations(range(1, n + 1))
        if sum(tc.nu(k, perm[k - 1], s) for k in range(1, n + 1)) == best
    )


def test_orbit_examples():
    orb = Orbit(5, 2, 1)
    assert orb.members == frozenset({1, 2, 3, 4}) and orb.mu == F(1, 2)
    assert Orbit(7, 2, 4).members == frozenset({1, 2, 4})
    assert Orbit(7, 2, 1).mu == F(1, 3)
    assert Orbit(7, 2, 6).members == frozenset({3, 5, 6})
    assert Orbit(7, 2, 3).mu == F(2, 3)
    assert [o.rep for o in orbit_decomposition(7, 2)] == [0, 1, 3]
    # the representative is the least member; k and t are read mod d
    assert Orbit(7, 2, 6).rep == 3
    assert Orbit(12, -7, 17).members == frozenset({1, 5}) and Orbit(12, -7, 17).rep == 1


def test_orbit_singletons_when_t_is_1():
    orbits = orbit_decomposition(6, 7)  # 7 = 1 mod 6
    assert all(o.size == 1 for o in orbits)
    for k in range(1, 6):
        assert Orbit(6, 7, k).mu == F(k, 6)


def test_orbit_invariants_seeded():
    rng = random.Random(5)
    for _ in range(25):
        d = rng.randrange(2, 21)
        t = rng.choice([t for t in range(1, d + 1) if gcd(t, d) == 1])
        orbits = orbit_decomposition(d, t)
        members = [m for o in orbits for m in o.members]
        assert sorted(members) == list(range(d))
        assert [o.rep for o in orbits] == sorted(min(o.members) for o in orbits)
        assert orbits[0].members == frozenset({0}) and orbits[0].mu == 0
        for orb in orbits:
            assert all(Orbit(d, t, k).members == orb.members for k in orb.members)
        for k in range(1, d):
            assert 0 < Orbit(d, t, k).mu < 1
            assert Orbit(d, t, k).mu + Orbit(d, t, d - k).mu == 1


def test_orbit_errors():
    for build in (orbit_decomposition, lambda d, t: Orbit(d, t, 1)):
        with pytest.raises(ParameterError, match="shares a factor with modulus 6"):
            build(6, 2)
        with pytest.raises(ParameterError, match="modulus must be positive"):
            build(0, 1)


def test_kappa_K_frozen():
    tc = TwistCombinatorics(17, 3, 1, 2, e=1)
    assert tc.kappas == (1, 2, 1)
    assert tc.K == (11, 5)
    assert 11 + 17 * 5 == (17**2 - 1) // 3
    assert tc.period == 2
    tc2 = TwistCombinatorics(2, 3, 1, 2, e=1)
    assert tc2.kappas == (1, 2, 1)
    assert tc2.K == (1, 0)


def test_kappa_K_split_case():
    # p = 1 mod d: constant sequences
    tc = TwistCombinatorics(13, 3, 2, 1, e=1)
    assert tc.kappas == (2, 2)
    assert tc.K == (8,)
    assert tc.period == 1
    tc3 = TwistCombinatorics(13, 3, 2, 3, e=1)
    assert tc3.K == (8, 8, 8)


def test_kappa_K_digit_sum_seeded():
    # K is read off as the base-p digits of (p^m - 1) kappa/d; check it
    # against the carry definition K_s = (p kappa_{s+1} - kappa_s)/d
    rng = random.Random(11)
    cases = [(p, 1, 0, mult) for p in (2, 3, 17) for mult in (1, 2, 3)]  # the zero twist
    for _ in range(30):
        d = rng.randrange(2, 12)
        p = rng.choice([p for p in PRIMES if p < 100 and gcd(p, d) == 1])
        cases += [(p, d, rng.randrange(1, d), mult * mult_order(p, d)) for mult in (1, 2, 3)]
    for p, d, kappa, m in cases:
        tc = TwistCombinatorics(p, d, kappa, m, e=1)
        assert len(tc.K) == m and len(tc.kappas) == m + 1
        for s in range(m):
            assert tc.K[s] * d == p * tc.kappas[s + 1] - tc.kappas[s]
            assert 0 <= tc.K[s] <= p - 1
            assert p**s * tc.kappas[s] % d == kappa
        assert sum(k * p**s for s, k in enumerate(tc.K)) * d == (p**m - 1) * kappa
        assert tc.kappas[0] == kappa and tc.kappas[m] == kappa
        for s in range(m - tc.period):
            assert tc.kappas[s + tc.period] == tc.kappas[s]


def test_kappa_K_errors():
    with pytest.raises(ParameterError, match=r"need d \| p\^m - 1"):
        TwistCombinatorics(2, 3, 1, 1, e=1)  # 3 does not divide 2^1 - 1
    with pytest.raises(ParameterError, match=r"kappa must lie in \[1, 2\]"):
        TwistCombinatorics(17, 3, 0, 2, e=1)
    with pytest.raises(ParameterError, match="d >= 2, got d = 1"):
        TwistCombinatorics(17, 1, 1, 1, e=1)  # kappa = 0 is the only class mod 1
    with pytest.raises(ParameterError, match="d >= 2, got d = 0"):
        TwistCombinatorics(17, 0, 0, 1, e=1)
    with pytest.raises(ParameterError, match="not invertible mod 6"):
        TwistCombinatorics(3, 6, 1, 2, e=1)


@pytest.mark.parametrize("build", [
    lambda: TwistCombinatorics(17, 3, 0, 2, e=1),
    lambda: hs_twisted(3, 2, 1, 0),
    lambda: gnp_twisted(7, 3, 2, 0),
])
def test_bad_twist_gets_the_twist_spec_message(build):
    with pytest.raises(ParameterError) as want:
        TwistSpec(3, 0)
    with pytest.raises(ParameterError) as got:
        build()
    assert str(got.value) == str(want.value)


def test_nu_values():
    tc = TwistCombinatorics(17, 3, 1, 2, e=2)
    assert tc.nu(1, 1, 0) == 3
    # p = 1 mod de: closed form, integral
    tc31 = TwistCombinatorics(31, 3, 1, 1, e=2)
    for i in (1, 2):
        assert tc31.nu(i, i, 0) == 30 * i // 2 - 30 // 6
    rng = random.Random(2)
    for _ in range(40):
        d = rng.randrange(2, 7)
        e = rng.randrange(2, 6)
        p = rng.choice([p for p in PRIMES if p >= 2 * d * e and gcd(p, d * e) == 1])
        tc = TwistCombinatorics(p, d, rng.randrange(1, d), mult_order(p, d), e=e)
        i = rng.randrange(1, e + 1)
        j1 = rng.randrange(1, e)
        j2 = rng.randrange(j1 + 1, e + 1)
        assert tc.nu(i, j1, 0) - tc.nu(i, j2, 0) in (0, 1)


def test_j_and_B():
    tc = TwistCombinatorics(17, 3, 1, 2, e=2)
    jt, b1 = tc.j_and_B(1, 0)
    assert jt == (2, 1) and b1 == frozenset()
    _, b2 = tc.j_and_B(2, 0)
    assert b2 == frozenset({1, 2})
    tce1 = TwistCombinatorics(5, 2, 1, 1, e=1)
    assert tce1.j_and_B(1, 0) == ((1,), frozenset({1}))
    rng = random.Random(7)
    for _ in range(30):
        d = rng.randrange(2, 7)
        e = rng.randrange(1, 8)
        p = rng.choice([p for p in PRIMES if p < 200 and gcd(p, d * e) == 1])
        tc = TwistCombinatorics(p, d, rng.randrange(1, d), mult_order(p, d), e=e)
        jt, _ = tc.j_and_B(e, rng.randrange(tc.m))
        assert sorted(jt) == list(range(1, e + 1))


def test_Y_frozen():
    tc = TwistCombinatorics(17, 3, 1, 2, e=2)
    assert tc.Y_n_s(1, 0) == 3
    assert tc.Y_n_s(1, 1) == 6
    assert tc.Y(1) == 9
    assert tc.Y(2) == 32


def test_Y_split_closed_form():
    # p = 1 mod de: Y_n = (p-1)n(n+1)/(2e) - (p-1)n kappa/(de)
    for p, d, e in [(31, 3, 2), (13, 3, 2), (41, 4, 2), (31, 5, 3)]:
        if (p - 1) % (d * e):
            continue
        for kappa in range(1, d):
            tc = TwistCombinatorics(p, d, kappa, 1, e=e)
            for n in range(1, e + 1):
                want = (p - 1) * n * (n + 1) // (2 * e) - (p - 1) * n * kappa // (d * e)
                assert tc.Y_n_s(n, 0) == want


def test_Y_matches_brute_minimum():
    rng = random.Random(13)
    done = 0
    while done < 200:
        d = rng.randrange(2, 8)
        e = rng.randrange(1, 6)
        choices = [p for p in PRIMES if p >= 2 * d * e and gcd(p, d * e) == 1]
        p = rng.choice(choices)
        kappa = rng.randrange(1, d)
        tc = TwistCombinatorics(p, d, kappa, mult_order(p, d), e=e)
        n = rng.randrange(1, e + 1)
        s = rng.randrange(tc.m)
        assert tc.Y_n_s(n, s) == brute_min(tc, n, s)
        assert set(masked_perms(tc, n, s)) == brute_argmin(tc, n, s)
        done += 1


def test_Y_matches_brute_minimum_large_n():
    for p, d, e, kappa in [(29, 2, 7, 1), (89, 3, 7, 2)]:
        tc = TwistCombinatorics(p, d, kappa, mult_order(p, d), e=e)
        for n in (6, 7):
            assert tc.Y_n_s(n, 0) == brute_min(tc, n, 0)
            assert set(masked_perms(tc, n, 0)) == brute_argmin(tc, n, 0)


def test_Y_matches_brute_minimum_below_the_regime():
    # p < 2de, where the paper's results are not claimed: the closed-form
    # minima and argmin sets still equal exhaustive search, for every twist
    # class (and the zero twist), block size and digit position
    for p in (3, 5, 7):
        for d in range(1, 7):
            for e in range(1, 5):
                if gcd(p, d * e) != 1:
                    continue
                tcs = ([TwistCombinatorics(p, 1, 0, 1, e=e)] if d == 1 else
                       [TwistCombinatorics(p, d, kappa, mult_order(p, d), e=e)
                        for kappa in range(1, d)])
                for tc in tcs:
                    for n in range(1, tc.rows + 1):
                        for s in range(tc.m):
                            assert tc.Y_n_s(n, s) == brute_min(tc, n, s)
                            assert set(masked_perms(tc, n, s)) == brute_argmin(tc, n, s)


def test_below_regime_inconsistent_rows_have_hasse_zero():
    # p = 5 < 2de = 24: the five rows with a_1 = 0 attain the generic
    # polygon, yet the defining sum gives each a Hasse value of 0, and
    # their L-functions agree with the element-by-element sums
    report = run_twisted_sweep(5, 1, 4, 3, 1)
    bad = [r for r in report["rows"] if not r["consistent"]]
    assert [r["coeffs"][0] for r in bad] == [0] * 5
    F = make_field(5, 1)
    tc = TwistCombinatorics(5, 4, 1, mult_order(5, 4), e=3)
    for r in bad:
        P = poly_from_ints(F, 3, r["coeffs"])
        assert r["gnp_equal"] and r["hasse"] == 0
        assert any(brute_hasse_value(P, tc, n).is_zero() for n in range(1, 4))
        want = l_coeffs_by_tail(lambda k: brute_twisted_sum(P, 4, 1, k), 3)
        assert twisted_l_function(P, TwistSpec(4, 1)).coeffs == want


# (total, hs_equal, above_hs, gnp_matches, hasse_nonzero, consistent) of
# the exhaustive kappa = 1 sweeps over F_p below the regime p >= 2de that
# verify thm31 asks for
BELOW_REGIME_COUNTS = {
    (5, 4, 2): (5, 0, 5, 4, 4, 5),
    (5, 4, 3): (25, 0, 25, 25, 20, 20),
    (5, 4, 4): (125, 0, 125, 80, 64, 109),
    (7, 3, 2): (7, 7, 7, 7, 7, 7),
    (7, 3, 3): (49, 0, 49, 36, 36, 49),
    (7, 3, 4): (343, 0, 343, 294, 294, 343),
    (7, 6, 2): (7, 0, 7, 6, 6, 7),
    (7, 6, 3): (49, 0, 49, 36, 36, 49),
    (7, 6, 4): (343, 0, 343, 343, 258, 258),
    (11, 5, 2): (11, 11, 11, 11, 11, 11),
    (11, 5, 3): (121, 0, 121, 110, 110, 121),
}


def test_below_regime_verdict_counts():
    # every row lies above the Hodge-Stickelberger polygon; only three
    # cells have inconsistent rows, each attaining the generic polygon with
    # a Hasse value of 0, and kappa = d - 1 gives the same counts there
    keys = ("total", "hs_equal", "above_hs", "gnp_matches", "hasse_nonzero", "consistent")
    for (p, d, e), want in BELOW_REGIME_COUNTS.items():
        assert p < 2 * d * e
        report = run_twisted_sweep(p, 1, d, e, 1)
        assert tuple(report["summary"][k] for k in keys) == want
        assert all(r["gnp_equal"] and r["hasse"] == 0 for r in report["rows"] if not r["consistent"])
        if want[5] < want[0]:
            assert run_twisted_sweep(p, 1, d, e, d - 1)["summary"] == report["summary"]


# (vertex abscissae n >= 1 of the generic polygon, rows inconsistent under
# the product over every block) of exhaustive sweeps over F_p below the
# regime, kappa = 1 and d - 1
VERTEX_RULE_CELLS = {
    (5, 4, 3, 1): ([1, 3], 5),
    (5, 4, 3, 3): ([2, 3], 5),
    (5, 4, 4, 1): ([1, 2, 4], 16),
    (5, 4, 4, 3): ([2, 3, 4], 16),
    (7, 6, 4, 1): ([2, 4], 85),
    (7, 6, 4, 5): ([2, 4], 85),
}


@pytest.mark.parametrize("p, d, e, kappa", list(VERTEX_RULE_CELLS))
def test_vertex_blocks_decide_gnp_below_the_regime(p, d, e, kappa):
    # a tested observation, not a theorem: where the product over every
    # block misjudges rows, the product over the blocks at the vertex
    # abscissae of the generic polygon is nonzero exactly on the rows
    # whose polygon equals it
    report = run_twisted_sweep(p, 1, d, e, kappa)
    vertices = [x for x, _ in report["gnp"]["vertices"] if x >= 1]
    summary = report["summary"]
    assert (vertices, summary["total"] - summary["consistent"]) == VERTEX_RULE_CELLS[p, d, e, kappa]
    F, tw = make_field(p, 1), TwistSpec(d, kappa)
    for r in report["rows"]:
        P = poly_from_ints(F, e, r["coeffs"])
        hval = prod((hasse_twisted_eval(P, n, tw) for n in vertices), start=F.one())
        assert r["gnp_equal"] == (not hval.is_zero()), r["coeffs"]


# the same counts for exhaustive e = 3 sweeps over F_p inside the regime
# (p >= 2de, d >= 3) and not split (p != 1 mod de); both kappa of each cell
IN_REGIME_COUNTS = {
    (31, 3, 3, 1): (961, 0, 961, 900, 900, 961),
    (31, 3, 3, 2): (961, 0, 961, 900, 900, 961),
    (43, 3, 3, 1): (1849, 0, 1849, 1764, 1764, 1849),
    (43, 3, 3, 2): (1849, 0, 1849, 1764, 1764, 1849),
    (29, 4, 3, 1): (841, 0, 841, 812, 812, 841),
    (29, 4, 3, 3): (841, 0, 841, 812, 812, 841),
}


def test_in_regime_verdict_counts():
    # every row lies above the Hodge-Stickelberger polygon, none on it, and
    # a row attains the generic polygon exactly when its Hasse value is
    # nonzero
    keys = ("total", "hs_equal", "above_hs", "gnp_matches", "hasse_nonzero", "consistent")
    for (p, d, e, kappa), want in IN_REGIME_COUNTS.items():
        assert p >= 2 * d * e and d >= 3 and (p - 1) % (d * e)
        report = run_twisted_sweep(p, 1, d, e, kappa)
        assert tuple(report["summary"][k] for k in keys) == want


def test_sigma_set_structure():
    # split case: identity only
    tc31 = TwistCombinatorics(31, 3, 1, 1, e=2)
    for n in (1, 2):
        assert masked_perms(tc31, n, 0) == (tuple(range(1, n + 1)),)
    # empty constraint set: all of S_n
    tc = TwistCombinatorics(11, 5, 1, 1, e=5)
    _, b2 = tc.j_and_B(2, 0)
    assert b2 == frozenset()
    assert set(masked_perms(tc, 2, 0)) == set(itertools.permutations((1, 2)))


def test_hs_twisted_examples():
    poly = hs_twisted(2, 2, 1, 1)
    assert poly.vertices == ((0, F(0)), (1, F(1, 4)), (2, F(1)))
    assert poly.slope_multiset() == ((F(1, 4), 1), (F(3, 4), 1))
    # semi-primitive multiplier: vertices n^2/(2e)
    for e in (2, 3, 4):
        poly5 = hs_twisted(5, e, 2, 1)
        for n in range(1, e + 1):
            assert poly5.ordinate_at(n) == F(n * n, 2 * e)
    with pytest.raises(ParameterError, match="shares a factor with modulus 4"):
        hs_twisted(4, 2, 2, 1)


def test_hs_twisted_slope_formula():
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randrange(2, 9)
        e = rng.randrange(1, 6)
        r = rng.choice([t for t in range(1, d + 1) if gcd(t, d) == 1])
        kappa = rng.randrange(1, d)
        mu = Orbit(d, r, d - kappa).mu
        segs = hs_twisted(d, e, r, kappa).slope_multiset()
        assert segs == tuple(((F(i) + mu) / e, 1) for i in range(e))


def test_gnp_twisted_frozen():
    poly = gnp_twisted(17, 3, 2, 1)
    assert poly.slope_multiset() == ((F(9, 32), 1), (F(23, 32), 1))
    assert poly.slope_multiset()[0][0] > F(1, 4)
    poly13 = gnp_twisted(13, 3, 2, 1)
    assert poly13.slope_multiset() == ((F(1, 3), 1), (F(5, 6), 1))


def test_gnp_twisted_split_equals_hs():
    for p, d, e in [(31, 3, 2), (13, 3, 2), (41, 4, 2), (11, 5, 2)]:
        if (p - 1) % (d * e):
            continue
        for kappa in range(1, d):
            assert gnp_twisted(p, d, e, kappa) == hs_twisted(d, e, p, kappa)


def test_gnp_twisted_m_independent():
    for p, d, e, kappa in [(17, 3, 2, 1), (2, 3, 3, 2), (3, 5, 2, 1), (7, 4, 3, 3)]:
        ell = mult_order(p, d)
        base = gnp_twisted(p, d, e, kappa, m=ell)
        assert gnp_twisted(p, d, e, kappa, m=2 * ell) == base
        assert gnp_twisted(p, d, e, kappa, m=3 * ell) == base
        assert gnp_twisted(p, d, e, kappa) == base


def test_gnp_twisted_grid_convex_and_above_hs():
    for d in (2, 3, 5):
        for e in (1, 2, 3):
            for kappa in range(1, d):
                for p in PRIMES:
                    if p < 2 * d * e or p > 100 or gcd(p, d * e) != 1:
                        continue
                    gnp = gnp_twisted(p, d, e, kappa)  # InternalError would raise
                    hs = hs_twisted(d, e, p, kappa)
                    assert gnp.lies_above(hs)
                    if (p - 1) % (d * e) == 0:
                        assert gnp == hs


def test_hs_power_examples():
    poly = hs_power(2, 2, 1)
    assert poly.slope_multiset() == ((F(1, 4), 1), (F(1, 2), 1), (F(3, 4), 1))
    poly32 = hs_power(3, 2, 2)
    assert poly32.slope_multiset() == ((F(1, 4), 2), (F(1, 2), 1), (F(3, 4), 2))
    for d, e, r in [(1, 4, 1), (3, 2, 1), (5, 2, 2), (7, 3, 3)]:
        assert hs_power(d, e, r).length == d * e - 1
    with pytest.raises(ParameterError, match="shares a factor with modulus 6"):
        hs_power(6, 1, 3)


def test_hs_power_r1_is_equidistributed():
    for d, e in [(2, 2), (3, 2), (2, 3), (6, 1)]:
        poly = hs_power(d, e, 1)
        de = d * e
        assert poly.slope_multiset() == tuple((F(i, de), 1) for i in range(1, de))


def test_gnp_power_frozen():
    poly = gnp_power(17, 3, 2)
    assert poly.slope_multiset() == ((F(9, 32), 2), (F(1, 2), 1), (F(23, 32), 2))
    assert poly.length == 5


def test_gnp_power_split_equals_hodge():
    for p, d, e in [(7, 3, 2), (13, 3, 2), (5, 4, 1), (13, 2, 3)]:
        assert (p - 1) % (d * e) == 0
        de = d * e
        assert gnp_power(p, d, e).slope_multiset() == tuple((F(i, de), 1) for i in range(1, de))


def test_gnp_power_gauss_case():
    # e = 1: slopes are exactly the mean statistics of the complementary classes
    assert gnp_power(5, 4, 1).slope_multiset() == ((F(1, 4), 1), (F(1, 2), 1), (F(3, 4), 1))
    assert gnp_power(3, 5, 1).slope_multiset() == ((F(1, 2), 4),)


def test_gnp_power_above_hs():
    for p, d, e in [(17, 3, 2), (29, 3, 2), (13, 5, 1), (23, 2, 3)]:
        assert p >= 2 * d * e
        assert gnp_power(p, d, e).lies_above(hs_power(d, e, p))


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (5, 2), (31, 1)])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hasse_values_match_definition(p, m, data):
    # every block of a twisted class, of the zero twist and of the full
    # power product, against the defining sum over full expansions of P^nu;
    # e > p (F_2, F_4, F_3 with e up to 5) makes C(nu, k) vanish mod p for
    # some k < e
    F = make_field(p, m)
    e = data.draw(st.integers(1, 5).filter(lambda e: e % p))
    coeffs = data.draw(st.lists(st.integers(0, F.order - 1), min_size=e - 1, max_size=e - 1))
    P = poly_from_ints(F, e, coeffs)
    d = data.draw(st.integers(2, 6).filter(lambda d: d % p))
    kappa = data.draw(st.integers(1, d - 1))
    twisted = TwistCombinatorics(p, d, kappa, mult_order(p, d), e=e)
    additive = TwistCombinatorics(p, 1, 0, 1, e=e)
    for n in range(1, e + 1):
        assert hasse_twisted_eval(P, n, TwistSpec(d, kappa)) == brute_hasse_value(P, twisted, n)
    for n in range(1, e):
        assert hasse_additive_eval(P, n) == brute_hasse_value(P, additive, n)
    want = F.one()
    for n in range(1, e):
        want = want * brute_hasse_value(P, additive, n)
    for orb in orbit_decomposition(d, p)[1:]:
        tc = TwistCombinatorics(p, d, orb.rep, mult_order(p, d), e=e)
        for n in range(1, e + 1):
            want = want * brute_hasse_value(P, tc, n)
    assert hasse_full_eval(P, power_blocks(p, d, e)) == want
    # one twist class: the product of its blocks 1..e, as a twisted sweep takes it
    want = F.one()
    for n in range(1, e + 1):
        want = want * brute_hasse_value(P, twisted, n)
    assert hasse_full_eval(P, [twisted]) == want


@pytest.mark.parametrize("p, m, d, e, zeros", [
    (11, 1, 3, 7, 2), (5, 2, 3, 7, 0), (13, 1, 2, 8, 0), (3, 2, 4, 8, 5)])
def test_hasse_determinant_matches_definition_large_e(p, m, d, e, zeros):
    # the masked determinant against the permutation expansion, every
    # twisted and zero-twist block past the degrees the test above draws;
    # zeros counts the vanishing blocks of the seeded polynomial, so zero
    # values are compared too (over F_9 with e = 8, p < e)
    F = make_field(p, m)
    rng = random.Random(100 * p + e)
    P = poly_from_ints(F, e, [rng.randrange(F.order) for _ in range(e - 1)])
    tcs = [TwistCombinatorics(p, 1, 0, 1, e=e)]
    tcs += [TwistCombinatorics(p, d, kappa, mult_order(p, d), e=e) for kappa in range(1, d)]
    values = []
    for tc in tcs:
        for n in range(1, tc.rows + 1):
            got = (hasse_twisted_eval(P, n, TwistSpec(d, tc.kappa)) if tc.kappa
                   else hasse_additive_eval(P, n))
            assert got == brute_hasse_value(P, tc, n)
            values.append(got)
    assert len(values) == (e - 1) + (d - 1) * e
    assert sum(v.is_zero() for v in values) == zeros


def test_hasse_twisted_frozen_17():
    F17 = make_field(17, 1)
    tw = TwistSpec(3, 1)
    for a in range(17):
        P = poly_from_ints(F17, 2, [a])
        assert hasse_twisted_eval(P, 1, tw).to_int() == 18 * a * a % 17
        assert hasse_twisted_eval(P, 2, tw).to_int() == 1
        assert hasse_additive_eval(P, 1).to_int() == 1
        assert hasse_full_eval(P, power_blocks(17, 3, 2)).to_int() == a * a % 17


@pytest.mark.parametrize("p, d, e, built", [(13, 2, 3, 6), (13, 3, 4, 10), (43, 3, 7, 28)])
def test_hasse_entries_built_once_per_call(monkeypatch, p, d, e, built):
    # each [X^t] P^nu is built once per call, however many blocks and digit
    # periods read it: (13, 2, 3) is the shape of the F_13 cubic sweep
    rng = random.Random(p * e)
    P = poly_from_ints(make_field(p, 1), e, [rng.randrange(p) for _ in range(e - 1)])
    tc = TwistCombinatorics(p, d, 1, mult_order(p, d), e=e)
    want = hasse_full_eval(P, [tc])
    entries = []
    monkeypatch.setattr(stratification, "FieldElement",
                        lambda *args: entries.append(args) or FieldElement(*args))
    assert hasse_full_eval(P, [tc]) == want
    assert len(entries) == built


def test_hasse_additive_frozen_5():
    F5 = make_field(5, 1)
    for a in range(5):
        for b in range(5):
            P = poly_from_ints(F5, 3, [a, b])
            assert hasse_additive_eval(P, 1).to_int() == (b * b + 2 * a) % 5
            assert hasse_additive_eval(P, 2).to_int() == 4


def test_hasse_split_case_is_one():
    F7 = make_field(7, 1)
    for a in range(7):
        P = poly_from_ints(F7, 2, [a])
        assert hasse_full_eval(P, power_blocks(7, 3, 2)).to_int() == 1
    F31 = make_field(31, 1)
    for a in (0, 3, 17):
        P = poly_from_ints(F31, 2, [a])
        assert hasse_full_eval(P, power_blocks(31, 3, 2)).to_int() == 1


def test_hasse_additive_e2_closed_form():
    F13 = make_field(13, 1)
    for a in range(13):
        P = poly_from_ints(F13, 2, [a])
        want = brute_poly_power(P, 6)[12]
        assert hasse_additive_eval(P, 1) == want
        assert want.to_int() == 1


def test_hasse_not_identically_zero():
    cases = [(13, 3, 2, 1), (13, 3, 2, 2), (17, 3, 2, 1), (7, 5, 2, 1)]
    for p, d, e, kappa in cases:
        Fp = make_field(p, 1)
        tw = TwistSpec(d, kappa)
        for n in range(1, e + 1):
            vals = []
            for a in range(p):
                P = poly_from_ints(Fp, e, [a])
                vals.append(hasse_twisted_eval(P, n, tw))
            assert any(not v.is_zero() for v in vals), (p, d, e, kappa, n)


def test_hasse_errors():
    F17 = make_field(17, 1)
    P = poly_from_ints(F17, 2, [1])
    with pytest.raises(ParameterError, match=r"block size must lie in \[1, 2\]"):
        hasse_twisted_eval(P, 3, TwistSpec(3, 1))
    with pytest.raises(ParameterError, match=r"kappa must lie in \[1, 2\]"):
        hasse_twisted_eval(P, 1, TwistSpec(3, 0))
    with pytest.raises(ParameterError, match=r"block size must lie in \[1, 1\]"):
        hasse_additive_eval(P, 2)
    # d = p: no power-substitution blocks exist
    with pytest.raises(ParameterError, match="shares a factor with modulus 17"):
        power_blocks(17, 17, 2)


def test_hasse_full_eval_refuses_foreign_blocks():
    P = poly_from_ints(make_field(17, 1), 2, [1])
    assert hasse_full_eval(P, power_blocks(17, 3, 2)).to_int() == 1
    # a block built for another characteristic, or for another degree
    for tcs in (power_blocks(13, 3, 2), power_blocks(17, 3, 3),
                [TwistCombinatorics(17, 3, 1, 2, e=3)],
                power_blocks(17, 3, 2) + [TwistCombinatorics(19, 3, 1, 1, e=2)]):
        with pytest.raises(ParameterError, match="block built for"):
            hasse_full_eval(P, tcs)


def test_json_tables():
    tc = TwistCombinatorics(17, 3, 1, 2, e=2)
    out = tc.to_json_dict()
    assert out["K"] == [11, 5]
    assert out["kappas"] == [1, 2, 1]
    assert out["Y"] == [9, 32]
    assert out["period"] == 2
    assert out["Y_per_s"] == [[3, 13], [6, 19]]


def test_additive_tables_basics():
    tc = TwistCombinatorics(17, 1, 0, 1, e=2)
    assert (tc.K, tc.period, tc.rows) == ((0,), 1, 1)
    assert tc.Y(1) == 8
    jt, b1 = tc.j_and_B(1, 0)
    assert jt == (1,) and b1 == frozenset({1})
    with pytest.raises(ParameterError, match=r"block size must lie in \[1, 1\]"):
        tc.j_and_B(2, 0)
    with pytest.raises(ParameterError, match="degree 6 shares a factor with 3"):
        TwistCombinatorics(3, 1, 0, 1, e=6)
