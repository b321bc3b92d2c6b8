"""Exhaustive sweeps compute one L-function, polygon and Hasse value per
symmetry class of P under (j, lambda): P -> c P^(p^j)(lambda X) with
c = lambda^(-e) in F_p^*, so a_i -> a_i^(p^j) lambda^(i - e) for lambda in
mu_h, h = gcd(e(p - 1), q - 1).  Here every row is also built on its own
and compared, the Hasse transform is checked block by block, and a cache
that keeps part of a class is refilled to the cold run's bytes."""

import itertools
import json
import random

import pytest

from lpoly import cli
from lpoly.char_sums import (
    TwistSpec,
    poly_from_ints,
    power_l_function,
    twisted_l_function,
)
from lpoly.finite_field import FieldElement, make_field, mult_order, primitive_root
from lpoly.local_valuation import aligned_context, q_newton_polygon
from lpoly.stratification import (
    TwistCombinatorics,
    gnp_power,
    gnp_twisted,
    hasse_additive_eval,
    hasse_full_eval,
    hasse_twisted_eval,
    hasse_weight,
    hs_power,
    hs_twisted,
    power_blocks,
)


def direct_rows(p, m, d, e, kappa=None):
    """Every row of an exhaustive sweep, each from its own L-function,
    polygon and Hasse product; kappa None means the power sweep."""
    qspec = make_field(p, m)
    if kappa is None:
        hs, gnp, ctx = hs_power(d, e, p), gnp_power(p, d, e), aligned_context(qspec, 1)
    else:
        hs, gnp, ctx = hs_twisted(d, e, p, kappa), gnp_twisted(p, d, e, kappa), aligned_context(qspec, d)
    rows = []
    for ct in itertools.product(range(qspec.order), repeat=e - 1):
        P = poly_from_ints(qspec, e, ct)
        if kappa is None:
            L, hval = power_l_function(P, d), hasse_full_eval(P, power_blocks(p, d, e))
        else:
            tw = TwistSpec(d, kappa)
            L, hval = twisted_l_function(P, tw), qspec.one()
            for n in range(1, e + 1):
                hval = hval * hasse_twisted_eval(P, n, tw)
        npoly = q_newton_polygon(L, m, ctx)
        rows.append({"coeffs": list(ct), "np": npoly.to_json_dict(), "hs_equal": npoly == hs,
                     "above_hs": npoly.lies_above(hs), "gnp_equal": npoly == gnp,
                     "hasse": hval.to_int(),
                     "consistent": (npoly == gnp) == (not hval.is_zero())})
    return rows


SWEEPS = [
    # chi(lambda) != 1, and lambda^W = -1 for lambda = -1
    (5, 1, 4, 4, 1),
    # Frobenius of F_25 acts on the coefficients
    (5, 2, 3, 2, 1),
    # lambda = 2 in mu_4(F_5) is not a square
    (5, 1, 2, 4, None),
    # W is odd in the full product over F_7
    (7, 1, 2, 2, None),
    (7, 1, 3, 3, 2),
    # below the regime, h = 4 > g = 1: five rows with Hasse value 0 that
    # attain the generic polygon all the same
    (5, 1, 4, 3, 1),
    # below the regime, h = 6 > g = 2: 85 inconsistent rows
    (7, 1, 6, 4, 1),
]


@pytest.mark.parametrize("p, m, d, e, kappa", SWEEPS)
def test_symmetry_classes_give_the_direct_rows(p, m, d, e, kappa):
    if kappa is None:
        report = cli.run_power_sweep(p, m, d, e)
    else:
        report = cli.run_twisted_sweep(p, m, d, e, kappa)
    assert report["rows"] == direct_rows(p, m, d, e, kappa)


def _mu(qspec, g):
    """Every lambda in F_q with lambda^g = 1, found by enumeration."""
    one = qspec.one()
    return [x for x in map(qspec.element_from_int, range(1, qspec.order)) if x ** g == one]


# (p, m, d, kappa, e): several twist classes per field, e with
# gcd(e(p - 1), q - 1) > 1; most have some lambda with c = lambda^(-e) != 1
TRANSFORM_CASES = [
    (5, 1, 4, 1, 4), (5, 1, 2, 1, 2), (5, 1, 3, 2, 4),
    (7, 1, 3, 1, 3), (7, 1, 6, 5, 2), (7, 1, 2, 1, 3),
    (13, 1, 2, 1, 3), (13, 1, 4, 3, 4), (13, 1, 3, 2, 2),
    (5, 2, 3, 1, 2), (5, 2, 8, 3, 3), (5, 2, 4, 1, 4),
    (7, 2, 3, 2, 2), (7, 2, 4, 1, 3), (7, 2, 16, 5, 2),
    # n = 9 blocks, past the permutation cap of the brute oracle
    (7, 1, 2, 1, 9),
]


@pytest.mark.parametrize("p, m, d, kappa, e", TRANSFORM_CASES)
def test_hasse_value_of_a_symmetric_polynomial(p, m, d, kappa, e):
    qspec = make_field(p, m)
    q = qspec.order
    tw = TwistSpec(d, kappa)
    twisted = TwistCombinatorics(p, d, kappa, mult_order(p, d), e=e)
    additive = TwistCombinatorics(p, 1, 0, 1, e=e)
    lams = _mu(qspec, e * (p - 1))
    assert len(lams) > 1

    def scale(lam, tc, n):
        # lambda^(W - e Y), the exponent reduced mod q - 1
        return lam ** ((hasse_weight(tc, n) - e * tc.Y(n)) % (q - 1))

    rng = random.Random(1000 * q + 10 * d + e)
    for _ in range(2):
        ct = [rng.randrange(q) for _ in range(e - 1)]
        P = poly_from_ints(qspec, e, ct)
        coeffs = [qspec.element_from_int(c) for c in ct]
        for j in range(m):
            for lam in lams:
                c = (lam ** e) ** (q - 2)
                assert c ** p == c  # c lies in F_p^*
                image = [(c * a ** p ** j * lam ** i).to_int() for i, a in enumerate(coeffs, 1)]
                Q = poly_from_ints(qspec, e, image)
                for n in range(1, e + 1):
                    want = scale(lam, twisted, n) * hasse_twisted_eval(P, n, tw) ** p ** j
                    assert hasse_twisted_eval(Q, n, tw) == want
                for n in range(1, e):
                    want = scale(lam, additive, n) * hasse_additive_eval(P, n) ** p ** j
                    assert hasse_additive_eval(Q, n) == want


def test_cache_missing_part_of_a_class_refills_to_the_cold_bytes(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "sweep", "twisted", "--p", "7", "--d", "3",
            "--e", "3", "--kappa", "2"]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    path = next(tmp_path.glob("*.jsonl"))
    cold_file = path.read_bytes()
    lines = cold_file.decode().splitlines(keepends=True)
    qspec = make_field(7, 1)
    tuples = [tuple(json.loads(line)["coeffs"]) for line in lines]
    rep, members = next((rep, ms) for rep, ms in cli._symmetry_classes(qspec, 3, 0, tuples)
                        if len(ms) > 2)
    # keep one member that is not the representative; drop the rest of its
    # class and every fifth other line
    kept = list(members)[-1]
    assert kept != rep
    drop = (set(members) - {kept}) | set(tuples[::5])
    path.write_text("".join(line for ct, line in zip(tuples, lines) if ct not in drop))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == cold
    assert path.read_bytes() == cold_file


# (p, m, e, draws): the walks of split-p113, sweep-f169 and sweep-f13 (None
# draws every tuple)
WALKS = [(113, 1, 2, 10), (13, 2, 2, 5), (13, 1, 3, None)]


@pytest.mark.parametrize("p, m, e, draws", WALKS)
def test_walk_reads_every_power_of_lambda_from_one_table(monkeypatch, p, m, e, draws):
    # one power builds zeta; the rest raise coefficients to the p-th power,
    # (m - 1)(e - 1) per class, and no lambda is ever raised to a power
    qspec = make_field(p, m)
    primitive_root(qspec)  # cached per field: its own scan is not counted
    tuples = cli._coeff_tuples(qspec.order, e, draws, 0, 1 << 24)
    calls = []
    power = FieldElement.__pow__

    def counted(a, k):
        calls.append(k)
        return power(a, k)

    monkeypatch.setattr(FieldElement, "__pow__", counted)
    classes = list(cli._symmetry_classes(qspec, e, 0, tuples))
    assert len(calls) <= 1 + (m - 1) * (e - 1) * len(classes)
