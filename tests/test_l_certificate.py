"""L-functions from D sums, certified by the functional equation, against
the (D + 1)-sum recurrence oracle.

Each L-function of degree D is pure of weight 1, so D sums fix it and
c_(D-i) q^i = c_D conj(c_i) certifies it.  The oracle computes one more
sum and requires c_(D+1) = 0 instead; both must give the same polynomial.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpoly.char_sums import (
    TwistSpec,
    additive_l_function,
    additive_sum,
    l_polynomial,
    poly_from_ints,
    power_l_function,
    power_sum,
    twisted_l_function,
    twisted_sum,
)
from lpoly.errors import InternalError
from lpoly.finite_field import make_field

from oracles import l_coeffs_by_tail

ORACLE_LIMIT = 10**4  # elements of the largest field the oracle enumerates
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _jobs():
    """Every (kind, p, m, d, kappa, e) whose oracle field F_(q^(D+1)) has at
    most ORACLE_LIMIT elements: twisted with d up to 6, power with d up to 6,
    and additive, whose e = 1 is the degree-0 case."""
    out = []
    for p in PRIMES:
        for m in range(1, 14):
            q = p**m
            if q > ORACLE_LIMIT:
                break
            for e in range(1, 14):
                if e % p == 0:
                    continue
                if q**e <= ORACLE_LIMIT:
                    out.append(("additive", p, m, 1, 0, e))
                for d in range(1, 7):
                    if d % p and q ** (d * e) <= ORACLE_LIMIT:
                        out.append(("power", p, m, d, 0, e))
                    if d > 1 and (q - 1) % d == 0 and q ** (e + 1) <= ORACLE_LIMIT:
                        out.extend(("twisted", p, m, d, kappa, e) for kappa in range(1, d))
    return out


JOBS = _jobs()


def _sum_and_degree(kind, P, d, kappa):
    """(r -> S_r, D) of the job's L-function."""
    if kind == "twisted":
        return (lambda r: twisted_sum(P, TwistSpec(d, kappa), r)), P.e
    if kind == "power":
        return (lambda r: power_sum(P, d, r)), d * P.e - 1
    return (lambda r: additive_sum(P, r)), P.e - 1


def _l_function(kind, P, d, kappa):
    if kind == "twisted":
        return twisted_l_function(P, TwistSpec(d, kappa))
    if kind == "power":
        return power_l_function(P, d)
    return additive_l_function(P)


def _assert_matches_oracle(kind, P, d=1, kappa=0):
    L = _l_function(kind, P, d, kappa)
    sum_r, degree = _sum_and_degree(kind, P, d, kappa)
    assert L.degree == degree
    assert L.coeffs == l_coeffs_by_tail(sum_r, degree)
    return L


@st.composite
def jobs(draw):
    kind, p, m, d, kappa, e = draw(st.sampled_from(JOBS))
    q = p**m
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=e - 1, max_size=e - 1))
    return kind, poly_from_ints(make_field(p, m), e, coeffs), d, kappa


def test_job_list_covers_every_kind():
    kinds = {(kind, e == 1) for kind, _, _, _, _, e in JOBS}
    assert kinds == {(k, one) for k in ("twisted", "power", "additive") for one in (True, False)}
    assert max(d for kind, _, _, d, _, _ in JOBS if kind == "twisted") == 6


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(jobs())
def test_l_function_matches_the_tail_oracle(job):
    _assert_matches_oracle(*job)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_degree_zero_additive_l_function_is_one(p, m):
    # P = X: S_1 = sum psi(x) = 0, so one sum gives L = 1
    L = _assert_matches_oracle("additive", poly_from_ints(make_field(p, m), 1, []))
    assert L.degree == 0


# twisted L-functions of P = X^e with c_1 = 0: x -> zeta x multiplies
# S_1 = sum chi(x) psi(x^e) by chi(zeta) for every e-th root of unity zeta
# in F_p, and chi is nontrivial on them here
VANISHING = [(7, 2, 1, 2, [0]), (5, 4, 1, 2, [0]), (7, 3, 1, 3, [0, 0])]


@pytest.mark.parametrize("p, d, kappa, e, coeffs", VANISHING)
def test_l_functions_with_a_vanishing_coefficient(p, d, kappa, e, coeffs):
    P = poly_from_ints(make_field(p, 1), e, coeffs)
    L = _assert_matches_oracle("twisted", P, d, kappa)
    assert L.coeffs[1].is_zero()
    assert not L.coeffs[-1].is_zero()


# (kind, p, d, kappa, e, coeffs): degrees 1 .. 5 of all three kinds
CORRUPTED = [("twisted", 7, 3, 1, 1, []), ("twisted", 7, 3, 2, 2, [1]), ("twisted", 13, 2, 1, 3, [3, 5]),
             ("additive", 5, 1, 0, 2, [1]), ("additive", 7, 1, 0, 4, [1, 2, 3]),
             ("power", 5, 2, 0, 1, []), ("power", 7, 3, 0, 2, [4])] + [("twisted", *v) for v in VANISHING]


@pytest.mark.parametrize("kind, p, d, kappa, e, coeffs", CORRUPTED)
def test_a_corrupted_sum_breaks_the_certificate(kind, p, d, kappa, e, coeffs):
    P = poly_from_ints(make_field(p, 1), e, coeffs)
    sum_r, degree = _sum_and_degree(kind, P, d, kappa)
    sums = [sum_r(r) for r in range(1, degree + 1)]
    one = sums[0].ring.one()
    assert l_polynomial(sums, degree, p) == _l_function(kind, P, d, kappa)
    for k in range(degree):
        bad = sums[:k] + [sums[k] + one] + sums[k + 1:]
        # S_r + 1 moves r c_r by 1 (and 2 c_2 by 2 c_1 + 1 when r = 1), so
        # for D >= 2 the recurrence cannot divide; for D = 1 it moves c_1
        # by 1 and breaks |c_1|^2 = q
        with pytest.raises(InternalError, match=r"c_1 conj\(c_1\) != q\^1" if degree == 1
                           else "is not divisible by"):
            l_polynomial(bad, degree, p)
    # S_D + D moves c_D alone by 1: the recurrence divides, the identity breaks
    bad = sums[:-1] + [sums[-1] + degree * one]
    with pytest.raises(InternalError, match=rf"c_{degree} conj\(c_{degree}\) != q\^{degree} "):
        l_polynomial(bad, degree, p)
