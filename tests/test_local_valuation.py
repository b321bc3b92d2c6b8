import json
import math
import random
from fractions import Fraction

import pytest

from lpoly.char_sums import LPolynomial, TwistSpec, gauss_sum, poly_from_ints, twisted_l_function
from lpoly import local_valuation
from lpoly.cli import main, run_power_sweep, run_twisted_sweep, verify_stickelberger
from lpoly.cyclotomic import cyclotomic_polynomial, from_json_dict, make_ring
from lpoly.errors import InternalError, ParameterError
from lpoly.finite_field import _is_prime, make_field, mult_order
from lpoly.local_valuation import (
    _teichmuller,
    aligned_context,
    make_context,
    phi_d_factors_mod_p,
    q_newton_polygon,
    valuation,
)
from oracles import absolute_norm, brute_valuation, teichmuller_root_by_power, zeta_pow
from test_cli_golden import PINNED_OUTPUTS

F = Fraction


def test_factors_trivial_cases():
    assert phi_d_factors_mod_p(5, 1) == ((4, 1),)
    assert phi_d_factors_mod_p(2, 3) == ((1, 1, 1),)  # irreducible mod 2
    # p = 1 mod d splits completely into linears
    fs = phi_d_factors_mod_p(5, 4)
    assert fs == ((2, 1), (3, 1))  # y+2 and y+3, roots 3 and 2


def test_factors_multiply_to_phi_d():
    for p, d in [(3, 8), (7, 6), (2, 7), (13, 9), (5, 12)]:
        fs = phi_d_factors_mod_p(p, d)
        prod = [1]
        for f in fs:
            new = [0] * (len(prod) + len(f) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(f):
                    new[i + j] = (new[i + j] + a * b) % p
            prod = new
        want = [c % p for c in cyclotomic_polynomial(d)]
        assert prod == want
        import math

        f_deg = len(fs[0]) - 1
        assert all(len(f) - 1 == f_deg for f in fs)


def test_context_basic_shapes():
    ctx = make_context(5, 1)
    assert ctx.f == 1
    assert _teichmuller(5, 1, ctx.factor_mod_p, 3)[0] == (1,)  # zeta_1 = 1 at every precision
    ctx2 = make_context(2, 3)
    assert ctx2.f == 2
    assert len(_teichmuller(2, 3, ctx2.factor_mod_p, 4)[0]) == 2


def _mulmod(a, b, h, mod):
    """a * b in (Z/mod)[Y]/(h), h monic; coefficient lists low to high."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    f = len(h) - 1
    for k in range(len(out) - 1, f - 1, -1):
        c = out[k]
        for j in range(f + 1):
            out[k - f + j] -= c * h[j]
    out = [c % mod for c in out[:f]]
    return out + [0] * (f - len(out))


@pytest.mark.parametrize("p,d,N", [(5, 4, 6), (2, 3, 5), (3, 8, 5), (7, 9, 4), (3, 20, 100), (23, 24, 60)])
def test_root_is_the_teichmuller_root_above_each_factor(p, d, N):
    # root^d = 1 mod p^N, no smaller power is 1 mod p, root = Y mod p, and
    # the Newton lift agrees with the power Y^(p^(f(N-1)))
    for h in phi_d_factors_mod_p(p, d):
        root = _teichmuller(p, d, h, N)[0]
        f = len(h) - 1
        assert make_context(p, d, h).f == f
        assert root == teichmuller_root_by_power(p, N, h)
        Y = [0, 1] + [0] * (f - 2) if f > 1 else [(-h[0]) % p]
        assert [c % p for c in root] == Y
        power, one = list(root), [1] + [0] * (f - 1)
        for k in range(1, d):
            assert [c % p for c in power] != one
            power = _mulmod(power, root, h, p**N)
        assert power == one


def test_context_rejects_bad_factor():
    with pytest.raises(ParameterError, match="not an irreducible factor"):
        make_context(5, 4, factor=(1, 1))


def test_valuation_of_integers():
    ctx = make_context(5, 1)
    ring = make_ring(5, 1)
    assert valuation(ring.from_int(5), ctx) == 1
    assert valuation(ring.from_int(75), ctx) == 2
    assert valuation(ring.from_int(6), ctx) == 0
    assert valuation(ring.zero(), ctx) is None


def test_valuation_uniformizer():
    for p in (3, 5, 7):
        ctx = make_context(p, 1)
        ring = make_ring(p, 1)
        pi = zeta_pow(ring, "p", 1) - ring.one()
        assert valuation(pi, ctx) == F(1, p - 1)


def test_valuation_quadratic_gauss():
    # (zeta_3 - zeta_3^2)^2 = -3, so the element itself has valuation 1/2
    ctx = make_context(3, 2)
    ring = make_ring(3, 2)
    g = zeta_pow(ring, "p", 1) - zeta_pow(ring, "p", 2)
    assert valuation(g, ctx) == F(1, 2)


def test_valuation_multiplicative_seeded():
    ctx = make_context(3, 4)
    ring = make_ring(3, 4)
    rng = random.Random(3)
    for _ in range(15):
        x = ring.from_raw([[rng.randrange(-6, 7) for _ in range(ring.phi_d)] for _ in range(ring.p - 1)])
        y = ring.from_raw([[rng.randrange(-6, 7) for _ in range(ring.phi_d)] for _ in range(ring.p - 1)])
        if x.is_zero() or y.is_zero():
            continue
        vx, vy = valuation(x, ctx), valuation(y, ctx)
        assert valuation(x * y, ctx) == vx + vy
        s = x + y
        if not s.is_zero():
            vs = valuation(s, ctx)
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


def test_valuation_values_lie_in_lattice():
    ctx = make_context(5, 2)
    ring = make_ring(5, 2)
    rng = random.Random(8)
    for _ in range(20):
        x = ring.from_raw([[rng.randrange(-9, 10) for _ in range(ring.phi_d)] for _ in range(ring.p - 1)])
        if x.is_zero():
            continue
        v = valuation(x, ctx)
        assert (v * (5 - 1)).denominator == 1


def test_precision_from_the_norm_bound():
    # the working precision comes from the element, so a high power of p
    # is read exactly in one pass
    ctx = make_context(3, 1)
    ring = make_ring(3, 1)
    assert valuation(ring.from_int(3**7), ctx) == 7
    assert valuation(ring.from_int(3**40), ctx) == 40


def test_valuation_ring_mismatch():
    ctx = make_context(3, 2)
    with pytest.raises(InternalError, match="does not match the context"):
        valuation(make_ring(3, 4).one(), ctx)


def test_aligned_context_examples():
    # chi(2) = zeta_4 over F_5 puts zeta_4 above the residue 2: factor y + 3
    ctx = aligned_context(make_field(5, 1), 4)
    assert ctx.factor_mod_p == (3, 1)
    # d = 2 has a single factor, so aligned and default agree
    assert aligned_context(make_field(3, 1), 2).factor_mod_p == make_context(3, 2).factor_mod_p
    with pytest.raises(ParameterError, match="3 does not divide q - 1 = 4"):
        aligned_context(make_field(5, 1), 3)


def test_aligned_factor_is_a_factor_of_phi_d_at_every_small_place():
    # aligned_context takes the minimal polynomial of g^((q-1)/d) without
    # the list of factors; check it against that list on all 291 places
    # (F_q, d) with q <= 128 and d | q - 1
    places = 0
    for p in range(2, 128):
        if not _is_prime(p):
            continue
        for n in range(1, 8):
            q = p**n
            if q > 128:
                break
            qspec = make_field(p, n)
            for d in range(1, q):
                if (q - 1) % d:
                    continue
                ctx = aligned_context(qspec, d)
                assert ctx.factor_mod_p in phi_d_factors_mod_p(p, d)
                assert ctx.f == mult_order(p, d)
                places += 1
    assert places == 291


def test_aligned_paths_never_list_the_factors(monkeypatch, capsys):
    # the sweeps, the Stickelberger check and lfunction measure at aligned
    # places only, so none of them needs phi_d_factors_mod_p
    def refuse(p, d):
        raise AssertionError(f"listed the factors of Phi_{d} mod {p}")

    monkeypatch.setattr(local_valuation, "phi_d_factors_mod_p", refuse)
    assert len(run_twisted_sweep(7, 1, 3, 2, 1)["rows"]) == 7
    assert len(run_power_sweep(7, 1, 3, 2)["rows"]) == 7
    assert verify_stickelberger()["pass"]
    assert main("lfunction twisted --p 5 --m 2 --d 3 --kappa 1 --e 2 --coeffs 1".split()) == 0
    assert capsys.readouterr().err == ""


def test_aligned_gauss_valuations_match_orbit_sums():
    # v_q(G(chi^kappa)) = (sum of the orbit of d - kappa)/(d * orbit size)
    # under the aligned place; the lex-default place permutes the kappas
    f5 = make_field(5, 1)
    ctx = aligned_context(f5, 4)
    vals = [valuation(gauss_sum(f5, 4, k), ctx) for k in (1, 2, 3)]
    assert vals == [F(3, 4), F(1, 2), F(1, 4)]
    f11 = make_field(11, 1)
    ctx11 = aligned_context(f11, 5)
    vals11 = [valuation(gauss_sum(f11, 5, k), ctx11) for k in (1, 2, 3, 4)]
    assert vals11 == [F(4, 5), F(3, 5), F(2, 5), F(1, 5)]


def test_q_newton_polygon_examples():
    ring = make_ring(5, 1)
    ctx = make_context(5, 1)
    L = LPolynomial(ring, (ring.one(), ring.from_int(5)))
    poly = q_newton_polygon(L, 1, ctx)
    assert poly.slope_multiset() == ((F(1), 1),)
    # m = 2 halves ordinates
    assert q_newton_polygon(L, 2, ctx).slope_multiset() == ((F(1, 2), 1),)
    ring32 = make_ring(3, 2)
    g = zeta_pow(ring32, "p", 1) - zeta_pow(ring32, "p", 2)
    Lg = LPolynomial(ring32, (ring32.one(), g))
    assert q_newton_polygon(Lg, 1, make_context(3, 2)).slope_multiset() == ((F(1, 2), 1),)


def _int_val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p,d", [(2, 3), (2, 5), (3, 4), (3, 8), (5, 3), (5, 4), (5, 6),
                                 (7, 3), (11, 5), (13, 3)])
def test_valuations_over_all_places_sum_to_the_norm_valuation(p, d):
    # f (p-1) sum_P v_P(x) = v_p(N(x)), summed over the places P above p,
    # one per factor of Phi_d mod p, each of residue degree f = ord_d(p)
    ring = make_ring(p, d)
    rng = random.Random(100 * p + d)
    pi = zeta_pow(ring, "p", 1) - ring.one()
    zd = zeta_pow(ring, "d", 1)
    f = mult_order(p, d)
    for t in range(8):
        x = ring.from_raw([[rng.randrange(-3, 4) for _ in range(ring.phi_d)] for _ in range(p - 1)])
        if x.is_zero():
            continue
        # p and pi raise the valuation at every place; zeta_d - t can raise
        # it at some places above p and not at others
        x = x * (ring.one(), ring.from_int(p), pi, zd - ring.from_int(t + 2))[t % 4]
        total = sum(valuation(x, make_context(p, d, h)) for h in phi_d_factors_mod_p(p, d))
        assert f * (p - 1) * total == _int_val(absolute_norm(x), p)


@pytest.mark.parametrize("p,d", [(2, 3), (2, 7), (3, 4), (3, 8), (5, 4), (5, 6), (7, 3), (13, 3)])
def test_valuation_of_p_powers_at_every_place(p, d):
    # v(p^k y) = k + v(y) up to k = 40 at every place above p, for y = x,
    # x pi and x (zeta_d - t): each needs a precision past 40, read off the
    # element
    ring = make_ring(p, d)
    rng = random.Random(10 * p + d)
    pi = zeta_pow(ring, "p", 1) - ring.one()
    zd = zeta_pow(ring, "d", 1)
    for h in phi_d_factors_mod_p(p, d):
        ctx = make_context(p, d, h)
        x = ring.zero()
        while x.is_zero():
            x = ring.from_raw([[rng.randrange(-4, 5) for _ in range(ring.phi_d)] for _ in range(p - 1)])
        for y in (x, x * pi, x * (zd - ring.from_int(rng.randrange(p)))):
            v = valuation(y, ctx)
            for k in (1, 2, 7, 16, 33, 40):
                assert valuation(y * ring.from_int(p**k), ctx) == k + v


_PAIRS = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 8), (5, 3), (5, 4), (5, 6), (7, 3), (11, 5), (13, 3)]


@pytest.mark.parametrize("p,d", _PAIRS)
def test_valuation_matches_the_binomial_expansion_oracle(p, d):
    # at every place: random elements, their p^k multiples for k <= 7, and
    # pi^k for k < 2p, which reach every residue of j mod p - 1
    ring = make_ring(p, d)
    rng = random.Random(1000 * p + d)
    pi = zeta_pow(ring, "p", 1) - ring.one()
    for h in phi_d_factors_mod_p(p, d):
        ctx = make_context(p, d, h)
        for _ in range(4):
            x = ring.from_raw([[rng.randrange(-5, 6) for _ in range(ring.phi_d)] for _ in range(p - 1)])
            for k in range(8):
                y = x * ring.from_int(p**k)
                assert valuation(y, ctx) == brute_valuation(y, ctx)
        y = ring.one()
        for k in range(2 * p):
            assert valuation(y, ctx) == brute_valuation(y, ctx) == F(k, p - 1)
            y = y * pi


def test_valuation_matches_the_oracle_on_golden_l_functions(capsys):
    # every coefficient of the pinned lfunction jobs, at the aligned place
    # of their field, and of the two split-case instances over F_113
    elems = []
    for command, _ in PINNED_OUTPUTS:
        if command.startswith("lfunction"):
            assert main(command.split()) == 0
            out = json.loads(capsys.readouterr().out)
            coeffs = [from_json_dict(c) for c in out["l_coeffs"]]
            p = coeffs[0].ring.p
            m = round(math.log(out["q"], p))
            assert p**m == out["q"]
            ctx = aligned_context(make_field(p, m), coeffs[0].ring.d)
            elems += [(c, ctx) for c in coeffs]
    assert main("verify prop31 --p 113 --d 2 --e 2 --kappa 1 --random 2".split()) == 0
    qspec = make_field(113, 1)
    ctx = aligned_context(qspec, 2)
    for inst in json.loads(capsys.readouterr().out)["instances"]:
        L = twisted_l_function(poly_from_ints(qspec, 2, inst["coeffs"]), TwistSpec(2, 1))
        elems += [(c, ctx) for c in L.coeffs]
    assert len(elems) == 51
    for x, ctx in elems:
        assert valuation(x, ctx) == brute_valuation(x, ctx)


def test_valuations_at_p_1031():
    # v(pi^k p^m) = m + k/(p - 1), with pi^k expanded by the binomial
    # theorem, up to k = p - 2, the top of the basis zeta_p^0 .. zeta_p^(p-2)
    p = 1031
    ring, ctx = make_ring(p, 1), make_context(p, 1)
    for k in (1, 2, 515, 1029):
        pik = ring.from_raw([[(-1) ** (k - j) * math.comb(k, j)] for j in range(k + 1)])
        for m in (0, 3):
            assert valuation(pik * ring.from_int(p**m), ctx) == m + F(k, p - 1)
