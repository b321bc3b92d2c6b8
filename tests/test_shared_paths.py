"""Checks on the paths the twisted and power cases share: the one
multiplicative-order helper, the one reduction by a monic polynomial, the
zero-twist tables, and the parameter checks every sweep and verification
driver goes through."""

import itertools
import random

import pytest

from lpoly import finite_field
from lpoly.char_sums import _TraceTable
from lpoly.cli import run_power_sweep, run_twisted_sweep, verify_lemma22, verify_prop41
from lpoly.cyclotomic import CycloRing
from lpoly.errors import ParameterError
from lpoly.finite_field import make_field, mult_order, multiplication_matrix
from lpoly.local_valuation import _teichmuller, phi_d_factors_mod_p
from lpoly.stratification import TwistCombinatorics, gnp_power, gnp_twisted

from oracles import brute_field_mul, masked_perms, teichmuller_root_by_power


def test_mult_order():
    assert mult_order(2, 7) == 3
    assert mult_order(13, 3) == 1
    assert mult_order(17, 3) == 2
    assert mult_order(5, 1) == 1
    with pytest.raises(ParameterError, match="shares a factor with modulus 4"):
        mult_order(2, 4)


def test_every_reduction_by_a_monic_polynomial_reads_shift_rows(monkeypatch):
    # long division serves only Rabin's gcd, so the fields are built first;
    # then the Teichmueller lift at f = 1, 2 and 5, field products and
    # powers, multiplication matrices, rings with phi(d) > 1 and trace
    # tables all run without it
    places = [(5, 4), (2, 3), (3, 11)]
    factors = [phi_d_factors_mod_p(p, d)[0] for p, d in places]
    assert [len(h) - 1 for h in factors] == [1, 2, 5]
    fields = [make_field(p, n) for p, n in [(17, 4), (2, 6), (3, 5)]]
    rng = random.Random(37)
    xs = [[spec.element_from_int(rng.randrange(spec.order)) for _ in range(6)] for spec in fields]

    def long_division(*args):
        raise AssertionError("long division outside Rabin's gcd")

    monkeypatch.setattr(finite_field, "_pmod", long_division)
    roots = [_teichmuller.__wrapped__(p, d, h, 9)[0] for (p, d), h in zip(places, factors)]
    products = [x * y for row in xs for x, y in zip(row, row[1:])]
    for row in xs:
        for x in row:
            x ** 1000
            multiplication_matrix(x)
    for p, d in [(5, 12), (7, 20), (3, 5)]:
        CycloRing(p, d)
    for spec in fields:
        _TraceTable(spec.p, spec.n)
    monkeypatch.undo()
    assert roots == [teichmuller_root_by_power(p, 9, h) for (p, d), h in zip(places, factors)]
    assert products == [brute_field_mul(x, y) for row in xs for x, y in zip(row, row[1:])]


def test_generic_polygons_reject_composite_characteristic():
    with pytest.raises(ParameterError, match="9 is not prime"):
        gnp_twisted(9, 2, 1, 1)
    with pytest.raises(ParameterError, match="9 is not prime"):
        gnp_power(9, 2, 2)
    with pytest.raises(ParameterError, match="25 is not prime"):
        gnp_power(25, 3, 1)
    with pytest.raises(ParameterError, match="9 is not prime"):
        TwistCombinatorics(9, 2, 1, 1, e=1)
    with pytest.raises(ParameterError, match="9 is not prime"):
        TwistCombinatorics(9, 1, 0, 1, e=2)


@pytest.mark.parametrize("p,e", [(7, 3), (11, 4), (13, 5), (5, 4), (3, 5)])
def test_zero_twist_minima_match_brute_force(p, e):
    tc = TwistCombinatorics(p, 1, 0, 1, e=e)
    for n in range(1, e):
        totals = {perm: sum(tc.nu(i, perm[i - 1], 0) for i in range(1, n + 1))
                  for perm in itertools.permutations(range(1, n + 1))}
        best = min(totals.values())
        assert tc.Y(n) == best
        assert set(masked_perms(tc, n, 0)) == {perm for perm, t in totals.items() if t == best}


def test_empty_samples_are_parameter_errors():
    with pytest.raises(ParameterError, match="at least one sampled polynomial"):
        run_twisted_sweep(7, 1, 3, 2, 1, sample=0)
    with pytest.raises(ParameterError, match="at least one sampled polynomial"):
        run_power_sweep(5, 1, 2, 2, sample=-1)
    with pytest.raises(ParameterError, match="at least one sampled polynomial"):
        verify_prop41(5, 1, 2, 2, count=0)
    with pytest.raises(ParameterError, match="at least one draw"):
        verify_lemma22(0)
