import random

import pytest

from lpoly.errors import InternalInconsistency, NotPrime, NotSubfield, ResourceBound, ZeroArgument
from lpoly.finite_field import (
    _is_prime,
    dlog,
    embed,
    make_field,
    multiplication_matrix,
    pinned_dlog,
    primitive_root,
)

from oracles import eval_poly, norm_to, trace_to_prime


def test_make_field_degree_one_uses_x():
    f7 = make_field(7, 1)
    assert f7.f == (0, 1)
    assert f7.order == 7


def test_make_field_lex_smallest_examples():
    assert make_field(2, 2).f == (1, 1, 1)
    assert make_field(3, 2).f == (1, 0, 1)
    assert make_field(2, 4).f == (1, 1, 0, 0, 1)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        make_field(6, 1)


def test_primality_is_exact_up_to_its_bound():
    sieve = [True] * 20000
    sieve[0] = sieve[1] = False
    for i in range(2, 142):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(-3, 20000) if _is_prime(n)] == [n for n in range(20000) if sieve[n]]
    # strong pseudoprimes to every prime base up to 7, 13, 23 and 37, and
    # primes of 61 and 82 bits
    for n in (3215031751, 3474749660383, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1) and _is_prime(3317044064679887385961813)
    # a p past the bound is refused, not guessed; an even one is still decided
    with pytest.raises(ResourceBound):
        _is_prime(2**89 - 1)
    assert not _is_prime(2**100)


def test_make_field_is_cached():
    assert make_field(5, 3) is make_field(5, 3)


def test_element_encoding_round_trip():
    f9 = make_field(3, 2)
    for enc in range(9):
        assert f9.element_from_int(enc).to_int() == enc


def test_element_arithmetic_small():
    f4 = make_field(2, 2)
    x = f4.gen()
    # x^2 = x + 1 under f = x^2 + x + 1
    assert (x * x).coeffs == (1, 1)
    assert (x ** 3) == f4.one()


def test_field_axioms_random():
    rng = random.Random(7)
    for p, n in [(2, 3), (3, 2), (5, 2), (13, 1)]:
        spec = make_field(p, n)
        for _ in range(60):
            a = spec.element_from_int(rng.randrange(spec.order))
            b = spec.element_from_int(rng.randrange(spec.order))
            c = spec.element_from_int(rng.randrange(spec.order))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == spec.zero()


def test_power_is_repeated_product():
    rng = random.Random(11)
    for p, n in [(2, 1), (13, 1), (2, 4), (3, 3), (5, 2), (17, 2)]:
        spec = make_field(p, n)
        for enc in [0, 1] + [rng.randrange(spec.order) for _ in range(8)]:
            x = spec.element_from_int(enc)
            prod = spec.one()
            for e in range(12):
                assert x ** e == prod
                prod = prod * x
            if enc:
                assert x ** (spec.order - 1) == spec.one()


def test_embed_prime_field_sends_constants_to_constants():
    f3 = make_field(3, 1)
    f9 = make_field(3, 2)
    e = embed(f3, f9)
    for enc in range(3):
        img = e(f3.element_from_int(enc))
        assert img.coeffs == (enc, 0)


def test_embed_f4_into_f16_picks_lex_smallest_root():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    e = embed(f4, f16)
    assert e.image.to_int() == 6
    # the image really is a root of y^2 + y + 1
    assert (e.image * e.image + e.image + f16.one()).is_zero()


def test_embed_rejects_non_subfield():
    with pytest.raises(NotSubfield):
        embed(make_field(2, 2), make_field(2, 3))
    with pytest.raises(NotSubfield):
        embed(make_field(2, 2), make_field(3, 2))


def test_embed_is_ring_homomorphism_exhaustive():
    f4 = make_field(2, 2)
    f64 = make_field(2, 6)
    e = embed(f4, f64)
    elems = [f4.element_from_int(k) for k in range(4)]
    for a in elems:
        for b in elems:
            assert e(a + b) == e(a) + e(b)
            assert e(a * b) == e(a) * e(b)
    assert e(f4.one()) == f64.one()


def test_trace_examples():
    f4 = make_field(2, 2)
    assert trace_to_prime(f4.zero()) == 0
    assert trace_to_prime(f4.gen()) == 1  # x + x^2 = 1
    f25 = make_field(5, 2)
    assert trace_to_prime(f25.one()) == 2  # n mod p


def test_trace_is_additive_and_frobenius_invariant():
    rng = random.Random(3)
    for p, n in [(2, 3), (3, 2), (5, 2)]:
        spec = make_field(p, n)
        for _ in range(40):
            a = spec.element_from_int(rng.randrange(spec.order))
            b = spec.element_from_int(rng.randrange(spec.order))
            assert trace_to_prime(a + b) == (trace_to_prime(a) + trace_to_prime(b)) % p
            assert trace_to_prime(a ** p) == trace_to_prime(a)


def test_norm_examples():
    f3 = make_field(3, 1)
    f9 = make_field(3, 2)
    e = embed(f3, f9)
    assert norm_to(f9.zero(), f3, e) == f3.zero()
    assert norm_to(f9.one(), f3, e) == f3.one()
    g = primitive_root(f9)
    # the norm of a generator has order q - 1 = 2 downstairs, so it is 2
    assert norm_to(g, f3, e).to_int() == 2


def test_norm_is_multiplicative():
    rng = random.Random(11)
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    e = embed(f4, f16)
    for _ in range(40):
        a = f16.element_from_int(rng.randrange(16))
        b = f16.element_from_int(rng.randrange(16))
        assert norm_to(a * b, f4, e) == norm_to(a, f4, e) * norm_to(b, f4, e)


def test_norm_identity_when_degrees_match():
    f9 = make_field(3, 2)
    e = embed(f9, f9)
    for enc in range(9):
        a = f9.element_from_int(enc)
        assert norm_to(a, f9, e) == a


def test_primitive_root_examples():
    assert primitive_root(make_field(2, 1)).to_int() == 1
    assert primitive_root(make_field(7, 1)).to_int() == 3
    assert primitive_root(make_field(2, 2)).to_int() == 2  # the class of x
    assert primitive_root(make_field(13, 4)).to_int() == 17
    assert primitive_root(make_field(113, 2)).to_int() == 117


def test_primitive_root_has_full_order():
    for p, n in [(3, 2), (2, 4), (13, 1), (5, 2)]:
        spec = make_field(p, n)
        g = primitive_root(spec)
        m = spec.order - 1
        seen = set()
        cur = spec.one()
        for _ in range(m):
            seen.add(cur.to_int())
            cur = cur * g
        assert len(seen) == m


def test_dlog_examples():
    f7 = make_field(7, 1)
    g = primitive_root(f7)
    assert dlog(f7.one(), g) == 0
    assert dlog(g, g) == 1
    assert dlog(f7.element_from_int(2), g) == 2  # 3^2 = 2 mod 7
    with pytest.raises(ZeroArgument):
        dlog(f7.zero(), g)


def test_dlog_round_trip_small_fields():
    # every unit of four small fields, so every split k = i*b + j of the
    # baby-step giant-step walk occurs
    for p, n in [(7, 1), (2, 6), (3, 4), (251, 1)]:
        spec = make_field(p, n)
        g = primitive_root(spec)
        cur = spec.one()
        for k in range(spec.order - 1):
            assert dlog(cur, g) == k
            cur = cur * g


def test_dlog_baby_step_giant_step_branch():
    spec = make_field(5, 6)  # 15624 units: sampled exponents across the giant steps
    g = primitive_root(spec)
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randrange(spec.order - 1)
        assert dlog(g ** k, g) == k


def test_dlog_in_a_subgroup():
    # the order-(q-1) subgroup of F_{q^r}^* generated by G^s, s = (q^r-1)/(q-1):
    # the walk is sized from the subgroup order q - 1, not from q^r - 1
    for p, n, q in [(13, 2, 13), (5, 6, 125)]:
        spec = make_field(p, n)
        h = primitive_root(spec) ** ((spec.order - 1) // (q - 1))
        for k in (0, 1, q // 2, q - 2):
            assert dlog(h**k, h, q - 1) == k


def test_pinned_dlog_table_and_fallback():
    # 3^7 - 1 units go through the cached table, 5^6 - 1 through dlog
    for p, n in [(2, 1), (3, 1), (3, 7), (5, 6)]:
        spec = make_field(p, n)
        g = primitive_root(spec)
        for k in {0, 1, (spec.order - 1) // 2, spec.order - 2}:
            if k < spec.order - 1:
                assert pinned_dlog(g**k) == k
    with pytest.raises(ZeroArgument):
        pinned_dlog(make_field(7, 1).zero())


def test_eval_poly_examples():
    f3 = make_field(3, 1)
    f9 = make_field(3, 2)
    e = embed(f3, f9)
    # P = X^2 + X evaluated at the class of x, a root of y^2 + 1
    coeffs = [f3.zero(), f3.one(), f3.one()]
    val = eval_poly(coeffs, f9.gen(), e)
    assert val.coeffs == (2, 1)
    # P = X is the identity
    assert eval_poly([f3.zero(), f3.one()], f9.gen(), e) == f9.gen()
    # constant term only
    assert eval_poly([f3.one()], f9.zero(), e) == f9.one()


def test_eval_poly_matches_direct_powers():
    rng = random.Random(17)
    f5 = make_field(5, 1)
    f25 = make_field(5, 2)
    e = embed(f5, f25)
    for _ in range(30):
        cs = [f5.element_from_int(rng.randrange(5)) for _ in range(4)]
        x = f25.element_from_int(rng.randrange(25))
        direct = f25.zero()
        for k, c in enumerate(cs):
            direct = direct + e(c) * x ** k
        assert eval_poly(cs, x, e) == direct


def test_multiplication_matrix_agrees_with_products():
    f9 = make_field(3, 2)
    rng = random.Random(23)
    for _ in range(20):
        a = f9.element_from_int(rng.randrange(9))
        mat = multiplication_matrix(a)
        b = f9.element_from_int(rng.randrange(9))
        prod = a * b
        applied = [sum(mat[i][j] * b.coeffs[j] for j in range(2)) % 3 for i in range(2)]
        assert tuple(applied) == prod.coeffs


def test_mixed_field_arithmetic_rejected():
    a = make_field(3, 1).one()
    b = make_field(3, 2).one()
    with pytest.raises(InternalInconsistency):
        a + b
