from math import gcd

import pytest

from lpoly.char_sums import (
    LPolynomial,
    PolySpec,
    TwistSpec,
    additive_l_function,
    additive_sum,
    embed_poly,
    gauss_sum,
    l_polynomial,
    lpoly_inflate,
    lpoly_map_ring,
    lpoly_mul,
    poly_from_ints,
    power_l_function,
    power_sum,
    twisted_l_function,
    twisted_sum,
)
from lpoly.cyclotomic import embed_into, make_ring
from lpoly.errors import InternalError, ParameterError, ResourceBound
from lpoly.finite_field import make_field

from oracles import brute_additive_sum, brute_power_sum, brute_twisted_sum, full_coeffs, zeta_pow


def X(base):
    return PolySpec(base, 1)


def test_polyspec_validation():
    f7 = make_field(7, 1)
    with pytest.raises(ParameterError, match="degree 7 is divisible by p = 7"):
        PolySpec(f7, 7)  # degree divisible by p
    with pytest.raises(ParameterError, match="expected 2 lower coefficients"):
        PolySpec(f7, 3, (f7.one(),))  # wrong coefficient count
    P = poly_from_ints(f7, 2, [3])
    assert [a.to_int() for a in full_coeffs(P)] == [0, 3, 1]
    assert P.terms() == [(1, f7.element_from_int(3)), (2, f7.one())]


def test_quadratic_gauss_sum_f3():
    # two-term sum: x = 1 -> zeta_3, x = 2 -> -zeta_3^2
    f3 = make_field(3, 1)
    ring = make_ring(3, 2)
    want = zeta_pow(ring, "p", 1) - zeta_pow(ring, "p", 2)
    got = twisted_sum(X(f3), TwistSpec(2, 1), 1)
    assert got == want
    assert gauss_sum(f3, 2, 1) == want
    assert got * got == ring.from_int(-3)


def test_gauss_sum_f4_matches_brute():
    f4 = make_field(2, 2)
    assert gauss_sum(f4, 3, 1) == brute_twisted_sum(X(f4), 3, 1, 1)
    assert gauss_sum(f4, 3, 2) == brute_twisted_sum(X(f4), 3, 2, 1)


def test_twisted_sum_matches_brute_f7():
    f7 = make_field(7, 1)
    P = poly_from_ints(f7, 2, [1])  # X^2 + X
    for r in (1, 2):
        assert twisted_sum(P, TwistSpec(3, 1), r) == brute_twisted_sum(P, 3, 1, r)
    assert twisted_sum(P, TwistSpec(6, 5), 1) == brute_twisted_sum(P, 6, 5, 1)


def test_twisted_sum_matches_brute_extension_base():
    f9 = make_field(3, 2)
    P = poly_from_ints(f9, 2, [4])
    for kappa in (1, 3):
        assert twisted_sum(P, TwistSpec(8, kappa), 1) == brute_twisted_sum(P, 8, kappa, 1)
    assert twisted_sum(P, TwistSpec(4, 1), 2) == brute_twisted_sum(P, 4, 1, 2)


def test_twisted_sum_errors():
    f7 = make_field(7, 1)
    with pytest.raises(ParameterError, match="character order 4 does not divide q - 1"):
        twisted_sum(X(f7), TwistSpec(4, 1), 1)
    with pytest.raises(ParameterError, match=r"kappa must lie in \[1, 2\]"):
        twisted_sum(X(f7), TwistSpec(3, 0), 1)
    with pytest.raises(ResourceBound, match="exceeds the cap 100"):
        twisted_sum(X(f7), TwistSpec(3, 1), 4, max_enum=100)


def test_additive_sum_full_character_vanishes():
    f5 = make_field(5, 1)
    assert additive_sum(X(f5), 1).is_zero()


def test_additive_sum_square_f3():
    f3 = make_field(3, 1)
    ring = make_ring(3, 1)
    P = PolySpec(f3, 2, (f3.zero(),))  # X^2
    assert additive_sum(P, 1) == ring.one() + 2 * zeta_pow(ring, "p", 1)


def test_additive_sum_matches_brute():
    f9 = make_field(3, 2)
    P = poly_from_ints(f9, 4, [2, 7, 0])
    for r in (1, 2):
        assert additive_sum(P, r) == brute_additive_sum(P, r)


def test_power_sum_basics():
    f3 = make_field(3, 1)
    ring = make_ring(3, 1)
    assert power_sum(X(f3), 2, 1) == ring.one() + 2 * zeta_pow(ring, "p", 1)
    P = poly_from_ints(f3, 2, [1])
    for r in (1, 2, 3):
        assert power_sum(P, 1, r) == additive_sum(P, r)


def test_power_sum_matches_brute():
    f5 = make_field(5, 1)
    P = poly_from_ints(f5, 2, [3])
    for r in (1, 2):
        assert power_sum(P, 4, r) == brute_power_sum(P, 4, r)
    f7 = make_field(7, 1)
    assert power_sum(poly_from_ints(f7, 3, [0, 2]), 2, 2) == brute_power_sum(
        poly_from_ints(f7, 3, [0, 2]), 2, 2
    )


def test_frobenius_invariance_on_extension_characters():
    # P over F_3, chi of order 8 on the quadratic extension: x -> x^3 permutes
    # the sum's terms, so S(chi^kappa) = S(chi^(3 kappa))
    f3 = make_field(3, 1)
    P9 = embed_poly(poly_from_ints(f3, 2, [2]), make_field(3, 2))
    for kappa in (1, 2, 5):
        a = twisted_sum(P9, TwistSpec(8, kappa), 1)
        b = twisted_sum(P9, TwistSpec(8, (3 * kappa) % 8), 1)
        assert a == b


def test_power_sum_splits_into_twisted_sums():
    # gcd(d, q^r - 1) characters of the r-th extension carve up the power sum
    f3 = make_field(3, 1)
    P = poly_from_ints(f3, 2, [2])
    d = 8
    for r in (1, 2):
        delta = __import__("math").gcd(d, 3**r - 1)
        kr = make_field(3, r)
        Pr = embed_poly(P, kr)
        ring = make_ring(3, delta)
        total = ring.from_int(1)
        total = total + embed_into(additive_sum(Pr, 1) - make_ring(3, 1).one(), ring)
        for kappa in range(1, delta):
            total = total + twisted_sum(Pr, TwistSpec(delta, kappa), 1)
        assert embed_into(power_sum(P, d, r), ring) == total


def test_l_polynomial_small_cases():
    ring = make_ring(3, 1)
    s = ring.from_int(3)
    # L = 1 + sT, one sum; s conj(s) = 9 = q
    L = l_polynomial([s], 1, 9)
    assert L.coeffs == (ring.one(), s)
    # (1+3T)^2 has S_r = -2(-3)^r; checks c_2 = (S_1^2 + S_2)/2 = 9
    L = l_polynomial([ring.from_int(6), ring.from_int(-18)], 2, 9)
    assert L.coeffs == (ring.one(), ring.from_int(6), ring.from_int(9))


def test_l_polynomial_failure_modes():
    ring = make_ring(5, 1)
    one = ring.one()
    with pytest.raises(InternalError, match="is not divisible by 2"):
        l_polynomial([one, ring.zero()], 2, 5)
    # S_1 = 1 is the series of 1/(1-T) or 1 + T: not of degree 0
    with pytest.raises(InternalError, match="degree 0 is wrong"):
        l_polynomial([one], 0, 5)
    with pytest.raises(InternalError, match=r"c_1 conj\(c_1\) != q\^1"):
        l_polynomial([ring.zero()], 1, 5)
    # 1 + T - 5T^2: |c_2|^2 = 25 = q^2, but c_1 q = 5 != -5 = c_2 conj(c_1)
    with pytest.raises(InternalError, match=r"c_1 q\^1 != c_2 conj\(c_1\)"):
        l_polynomial([one, ring.from_int(-11)], 2, 5)
    with pytest.raises(ParameterError, match="need 2 sums to certify degree 2"):
        l_polynomial([one], 2, 5)


def test_gauss_sum_l_function_degree_one():
    f3 = make_field(3, 1)
    L = twisted_l_function(X(f3), TwistSpec(2, 1))
    assert L.coeffs[1] == gauss_sum(f3, 2, 1)


def test_twisted_l_has_degree_e():
    f7 = make_field(7, 1)
    P = poly_from_ints(f7, 2, [1])
    L = twisted_l_function(P, TwistSpec(3, 1))
    assert L.degree == 2
    P3 = poly_from_ints(f7, 3, [2, 0])
    L3 = twisted_l_function(P3, TwistSpec(2, 1))
    assert L3.degree == 3


def test_additive_l_has_degree_e_minus_one():
    f5 = make_field(5, 1)
    P = poly_from_ints(f5, 2, [1])
    L = additive_l_function(P)
    assert L.degree == 1


def test_power_l_has_degree_de_minus_one():
    f3 = make_field(3, 1)
    P = poly_from_ints(f3, 2, [1])
    L = power_l_function(P, 2)
    assert L.degree == 3


def test_lpoly_mul_and_inflate():
    ring = make_ring(3, 1)
    a = LPolynomial(ring, (ring.one(), ring.from_int(2)))
    b = LPolynomial(ring, (ring.one(), ring.from_int(-1)))
    prod = lpoly_mul(a, b)
    assert prod.coeffs == (ring.one(), ring.from_int(1), ring.from_int(-2))
    infl = lpoly_inflate(a, 3)
    assert infl.degree == 3
    assert infl.coeffs[3] == ring.from_int(2)
    assert infl.coeffs[1].is_zero() and infl.coeffs[2].is_zero()


def test_product_factorization_split_orbits():
    # q = 7, d = 3: multiplication by q fixes every residue, so the power
    # L-function splits as (additive part) * twisted(kappa=1) * twisted(kappa=2)
    f7 = make_field(7, 1)
    P = poly_from_ints(f7, 2, [3])
    lhs = power_l_function(P, 3)
    ring = make_ring(7, 3)
    add = lpoly_map_ring(additive_l_function(P), ring)
    t1 = twisted_l_function(P, TwistSpec(3, 1))
    t2 = twisted_l_function(P, TwistSpec(3, 2))
    rhs = lpoly_mul(lpoly_mul(add, t1), t2)
    assert lpoly_map_ring(lhs, ring) == rhs


def test_product_factorization_joint_orbit():
    # q = 3, d = 4: orbit {1, 3} needs a quadratic extension and T -> T^2
    f3 = make_field(3, 1)
    P = poly_from_ints(f3, 2, [1])
    lhs = power_l_function(P, 4)
    ring = make_ring(3, 4)
    add = lpoly_map_ring(additive_l_function(P), ring)
    f9 = make_field(3, 2)
    P9 = embed_poly(P, f9)
    t13 = lpoly_inflate(twisted_l_function(P9, TwistSpec(4, 1)), 2)
    t2 = twisted_l_function(P, TwistSpec(2, 1))
    rhs = lpoly_mul(lpoly_mul(add, t13), lpoly_map_ring(t2, ring))
    assert lpoly_map_ring(lhs, ring) == rhs


@pytest.mark.parametrize("p, d", [(5, 4), (13, 4), (13, 6), (13, 12)])
def test_twist_by_its_exact_order(p, d):
    # chi_d^kappa is chi_(d/g)^(kappa/g) for g = gcd(kappa, d), mapped into
    # Z[zeta_p, zeta_d]; verify prop41 relies on it when d does not divide q - 1
    base = make_field(p, 1)
    ring = make_ring(p, d)
    for coeffs in ([1], [2], [p - 1]):
        P = poly_from_ints(base, 2, coeffs)
        for kappa in range(1, d):
            g = gcd(kappa, d)
            if g > 1:
                reduced = twisted_l_function(P, TwistSpec(d // g, kappa // g))
                assert lpoly_map_ring(reduced, ring) == twisted_l_function(P, TwistSpec(d, kappa))


def test_sum_cache_consistency():
    f7 = make_field(7, 1)
    P = poly_from_ints(f7, 2, [4])
    a = twisted_sum(P, TwistSpec(3, 2), 2)
    b = twisted_sum(P, TwistSpec(3, 2), 2)
    assert a == b


def test_l_polynomial_rejects_mixed_rings():
    # the sums are a plain sequence; the ring product refuses a mixture
    one3, one5 = make_ring(3, 1).one(), make_ring(5, 1).one()
    with pytest.raises(InternalError, match="different cyclotomic rings"):
        l_polynomial([one3, one5], 2, 3)
