"""Checks on the paths the twisted and power cases share: the one
multiplicative-order helper, the zero-twist tables, and the parameter
checks every sweep and verification driver goes through."""

import itertools

import pytest

from lpoly.cli import run_power_sweep, run_twisted_sweep, verify_lemma22, verify_prop41
from lpoly.errors import ParameterError
from lpoly.finite_field import mult_order
from lpoly.stratification import TwistCombinatorics, gnp_power, gnp_twisted

from oracles import masked_perms


def test_mult_order():
    assert mult_order(2, 7) == 3
    assert mult_order(13, 3) == 1
    assert mult_order(17, 3) == 2
    assert mult_order(5, 1) == 1
    with pytest.raises(ParameterError, match="shares a factor with modulus 4"):
        mult_order(2, 4)


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
