import random

import pytest

from lpoly.cyclotomic import CycloRing, cyclotomic_polynomial
from lpoly.errors import InternalError, ParameterError, ResourceBound
import lpoly.finite_field as finite_field
from lpoly.finite_field import (
    FieldElement,
    _is_irreducible,
    _is_prime,
    _power,
    _power_index,
    _prime_factors,
    _product,
    _shift_rows,
    dlog,
    embed,
    make_field,
    multiplication_matrix,
    primitive_root,
)

from oracles import (
    brute_embed,
    brute_field_mul,
    brute_power_index,
    brute_is_irreducible,
    brute_primitive_root,
    eval_poly,
    long_remainder,
    norm_to,
    trace_to_prime,
)


def _fields(p_bound, order_bound):
    """(p, n) for every prime p < p_bound and n >= 1 with p^n <= order_bound."""
    return [(p, n) for p in range(2, p_bound) if _is_prime(p)
            for n in range(1, order_bound.bit_length()) if p ** n <= order_bound]


def test_make_field_degree_one_uses_x():
    f7 = make_field(7, 1)
    assert f7.f == (0, 1)
    assert f7.order == 7


def test_make_field_lex_smallest_examples():
    assert make_field(2, 2).f == (1, 1, 1)
    assert make_field(3, 2).f == (1, 0, 1)
    assert make_field(2, 4).f == (1, 1, 0, 0, 1)


def test_make_field_takes_the_first_irreducible():
    # every field of at most 2^12 elements: all monic candidates of smaller
    # encoding have a factor, the pinned one has none
    fields = _fields(4096, 4096)
    assert len(fields) == 604
    for p, n in fields:
        f = make_field(p, n).f
        code = sum(c * p**i for i, c in enumerate(f[:-1]))
        assert brute_is_irreducible(f, p), (p, n)
        for smaller in range(code):
            g = [smaller // p**i % p for i in range(n)] + [1]
            assert not brute_is_irreducible(g, p), (p, n, smaller)


def _candidate(code, p, n):
    """The monic candidate of degree n whose lower coefficients encode as code."""
    return (*(code // p**i % p for i in range(n)), 1)


def test_make_field_takes_the_first_irreducible_up_to_2e5():
    # Rabin's test takes gcd(x^p - x, f) first for prime n; every extension
    # field of at most 2 * 10^5 elements keeps the first candidate in
    # encoding order that trial division accepts
    fields = [(p, n) for p, n in _fields(448, 200000) if n > 1]
    assert len(fields) == 136
    for p, n in fields:
        first = next(f for f in (_candidate(code, p, n) for code in range(p**n))
                     if brute_is_irreducible(f, p))
        assert make_field.__wrapped__(p, n).f == first, (p, n)


def test_rabin_test_agrees_with_trial_division_on_every_candidate():
    # the exit on a root and the rootless verdict for n <= 3, and the
    # Frobenius chain after them, against every monic candidate of the
    # fields of at most 2^10 elements
    for p, n in _fields(1025, 1024):
        for code in range(p**n if n > 1 else 0):
            f = _candidate(code, p, n)
            assert _is_irreducible(f, p, n) == brute_is_irreducible(f, p), (p, n, f)


PRODUCT_FIELDS = [(p, n) for p in (2, 3, 13, 113, 4099) for n in range(1, 7)] + [(65537, 2)]


@pytest.mark.parametrize("p, n", PRODUCT_FIELDS)
def test_product_matches_schoolbook_division(p, n):
    spec = make_field(p, n)
    q = spec.order
    rng = random.Random(100 * p + n)
    xs = [spec.element_from_int(rng.randrange(q)) for _ in range(20)]
    xs += [spec.zero(), spec.one(), spec.element_from_int(q - 1)]  # every coefficient p - 1
    for x in xs:
        for y in xs[:6] + xs[-3:]:
            assert x * y == brute_field_mul(x, y), (x, y)
        # Fermat: x^q = x, and x^(q-1) = 1 for a unit
        assert x ** q == x
        assert x ** (q - 1) == (spec.zero() if x.is_zero() else spec.one())


def _brute_pow(x, e):
    """x^e by square and multiply through the schoolbook product."""
    acc, base = x.owner.one(), x
    while e:
        if e & 1:
            acc = brute_field_mul(acc, base)
        base = brute_field_mul(base, base)
        e >>= 1
    return acc


@pytest.mark.parametrize("p, n", [(2, 1), (2, 6), (3, 1), (3, 5), (13, 1), (13, 3), (113, 1),
                                  (113, 2), (4099, 1)])
def test_power_matches_repeated_products(p, n):
    spec = make_field(p, n)
    q = spec.order
    rng = random.Random(100 * p + n)
    for x in (spec.zero(), spec.one(), spec.element_from_int(q - 1),
              spec.element_from_int(rng.randrange(q)), spec.element_from_int(rng.randrange(q))):
        walk = [spec.one()]
        for _ in range(q):
            walk.append(brute_field_mul(walk[-1], x))
        for e in (0, 1, 2, p, q - 2, q - 1, q):
            assert x ** e == walk[e], (x, e)


def _long_division_rows(a, f, count, m=None):
    """a x^t mod f for t < count, each by the oracle's long division."""
    return tuple(long_remainder((0,) * t + tuple(a), f, m) for t in range(count))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shift_rows_match_long_division_mod_p(p):
    # every monic f of degree n <= 4 over Z/p, past the rows a product reads
    rng = random.Random(p)
    for n in range(1, 5):
        for code in range(p**n):
            f = (*finite_field._digits(code, p, n), 1)
            for a in ((1,) + (0,) * (n - 1), tuple(rng.randrange(p) for _ in range(n))):
                assert _shift_rows(a, f, 2 * n + 1, p) == _long_division_rows(a, f, 2 * n + 1, p), (f, a)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shift_rows_match_long_division_mod_prime_powers(p):
    # the Teichmueller lift reduces mod p^N; over Z the same rows serve every N
    rng = random.Random(p)
    for N in range(1, 7):
        m = p**N
        for n in range(1, 6):
            for _ in range(8):
                f = tuple(rng.randrange(m) for _ in range(n)) + (1,)
                a = tuple(rng.randrange(m) for _ in range(n))
                rows = _shift_rows(a, f, 3 * n, m)
                assert rows == _long_division_rows(a, f, 3 * n, m), (f, a)
                assert rows == tuple(tuple(c % m for c in r) for r in _shift_rows(a, f, 3 * n))


def test_shift_rows_over_z_are_the_cyclotomic_remainders():
    # the ring's zeta_d table: x^t mod Phi_d over Z for t < max(2 phi(d) - 1, d)
    rng = random.Random(40)
    for d in range(1, 41):
        phi = cyclotomic_polynomial(d)
        n = len(phi) - 1
        count = max(2 * n - 1, d)
        p = next(p for p in range(2, 50) if _is_prime(p) and d % p)
        assert CycloRing(p, d)._red_d == _long_division_rows((1,) + (0,) * (n - 1), phi, count), d
        a = tuple(rng.randrange(-9, 10) for _ in range(n))
        assert _shift_rows(a, phi, count) == _long_division_rows(a, phi, count), (d, a)


@pytest.mark.parametrize("p, N, n", [(2, 1, 1), (7, 3, 1), (2, 5, 3), (3, 6, 2), (5, 3, 4), (13, 1, 5)])
def test_power_is_repeated_product_modulo_prime_powers(p, N, n):
    # modulo p^N with rows taken mod p^N or over Z, n = 1 included
    m = p**N
    rng = random.Random(100 * p + 10 * N + n)
    f = tuple(rng.randrange(m) for _ in range(n)) + (1,)
    top = (0,) * (n - 1) + (1,)
    rows, rows_z = _shift_rows(top, f, n, m)[1:], _shift_rows(top, f, n)[1:]
    for a in ((0,) * n, (1,) + (0,) * (n - 1), tuple(rng.randrange(m) for _ in range(n))):
        walk = [(1,) + (0,) * (n - 1)]
        for _ in range(12):
            walk.append(_product(walk[-1], a, m, rows))
        for e in range(13):
            assert _power(a, e, m, rows) == _power(a, e, m, rows_z) == walk[e], (a, e)


@pytest.mark.parametrize("p, n", [(17, 4), (113, 1)])
def test_products_and_powers_take_no_division_or_checked_constructor(monkeypatch, p, n):
    # a product folds its convolution through the field's reduction rows
    # and builds its reduced result directly: no long division by f and no
    # pass through the checking constructor FieldElement(owner, coeffs)
    spec = make_field(p, n)
    rng = random.Random(p + n)
    xs = [spec.element_from_int(rng.randrange(spec.order)) for _ in range(101)]
    es = [rng.randrange(2, 4 * spec.order) for _ in range(10)]
    calls = []
    real_pmod, real_init = finite_field._pmod, FieldElement.__init__
    monkeypatch.setattr(finite_field, "_pmod", lambda *a: calls.append("_pmod") or real_pmod(*a))
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda self, *a: calls.append("__init__") or real_init(self, *a))
    products = [x * y for x, y in zip(xs, xs[1:])]
    powers = [x**e for x, e in zip(xs, es)]
    monkeypatch.undo()
    assert calls == []
    assert products == [brute_field_mul(x, y) for x, y in zip(xs, xs[1:])]
    assert powers == [_brute_pow(x, e) for x, e in zip(xs, es)]


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ParameterError, match="6 is not prime"):
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
    with pytest.raises(ResourceBound, match="only decided below"):
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
    with pytest.raises(ParameterError, match="is not a subfield"):
        embed(make_field(2, 2), make_field(2, 3))
    with pytest.raises(ParameterError, match="different characteristics"):
        embed(make_field(2, 2), make_field(3, 2))


def test_embed_matches_the_subfield_scan():
    # image and map on every element, for every subfield of every field of
    # at most 2^12 elements (prime fields have only themselves)
    pairs = [(p, s, n) for p, n in _fields(4096, 4096) if n > 1
             for s in range(1, n + 1) if n % s == 0]
    assert len(pairs) == 97
    for p, s, n in pairs:
        sub, sup = make_field(p, s), make_field(p, n)
        fast, slow = embed(sub, sup), brute_embed(sub, sup)
        assert fast.image == slow.image
        for enc in range(sub.order):
            a = sub.element_from_int(enc)
            assert fast(a) == slow(a)


def test_embed_image_matches_the_oracle_up_to_2e5_elements():
    # every subfield of every field of at most 2 * 10^5 elements in six
    # characteristics, with s = 1 (image 0, as f = x) and sup itself
    pairs = [(p, s, n) for p in (2, 3, 5, 7, 13, 17)
             for n in range(1, 18) if p**n <= 200000
             for s in range(1, n + 1) if n % s == 0]
    assert len(pairs) == 127
    for p, s, n in pairs:
        sub, sup = make_field(p, s), make_field(p, n)
        assert embed(sub, sup).image == brute_embed(sub, sup).image, (p, s, n)
    assert embed(make_field(17, 1), make_field(17, 4)).image.is_zero()


def test_embed_does_not_walk_the_subfield(monkeypatch):
    # with the generator of F_17^4 known, the roots of f come from one
    # array pass: the one power h = G^((q - 1)/M) and the sub.n - 1
    # products of Embedding's powers of the image, not a product per
    # element of the 289-element subfield
    sub, sup = make_field(17, 2), make_field(17, 4)
    primitive_root(sup)
    real_mul, real_pow, calls = FieldElement.__mul__, FieldElement.__pow__, []
    monkeypatch.setattr(FieldElement, "__mul__", lambda a, b: calls.append("*") or real_mul(a, b))
    monkeypatch.setattr(FieldElement, "__pow__", lambda a, e: calls.append("**") or real_pow(a, e))
    image = embed.__wrapped__(sub, sup).image
    monkeypatch.undo()
    assert calls.count("**") <= 1 and calls.count("*") <= sub.n - 1, calls
    assert image == brute_embed(sub, sup).image


def test_power_index_matches_the_product_walk():
    # the whole group, the baby steps of a larger group, and counts past
    # the order of g, where each encoding keeps its least exponent
    for p, n, count in [(17, 2, 288), (3, 7, 2186), (5, 6, 125), (17, 2, 700)]:
        g = primitive_root(make_field(p, n))
        assert _power_index(g, count) == brute_power_index(g, count), (p, n, count)
    g2 = primitive_root(make_field(17, 2)) ** 2  # order 144
    index = _power_index(g2, 400)
    assert index == brute_power_index(g2, 400)
    assert len(index) == 144 and sorted(index.values()) == list(range(144))


def test_power_index_takes_no_field_product(monkeypatch):
    # the 288 units of F_289 are encoded from one array of coordinates
    g = primitive_root(make_field(17, 2))
    real_mul, real_pow, calls = FieldElement.__mul__, FieldElement.__pow__, []
    monkeypatch.setattr(FieldElement, "__mul__", lambda a, b: calls.append("*") or real_mul(a, b))
    monkeypatch.setattr(FieldElement, "__pow__", lambda a, e: calls.append("**") or real_pow(a, e))
    index = _power_index.__wrapped__(g, 288)
    monkeypatch.undo()
    assert calls == []
    assert index == brute_power_index(g, 288)


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
    assert primitive_root(make_field(17, 4)).to_int() == 307
    assert primitive_root(make_field(13, 6)).to_int() == 182
    assert primitive_root(make_field(17, 6)).to_int() == 18
    assert primitive_root(make_field(113, 3)).to_int() == 116
    assert primitive_root(make_field(257, 2)).to_int() == 259
    assert primitive_root(make_field(4099, 2)).to_int() == 4102


def test_primitive_root_tests_each_class_once(monkeypatch):
    # the members b z, b in F_p^*, of a class share its field powers, so
    # a class costs y = z^(m/R) and at most one y^(R/l) per prime l of
    # m = q - 1 that does not divide p - 1
    for p, n in [(17, 4), (113, 3)]:
        spec = make_field(p, n)
        high = [ell for ell in _prime_factors(spec.order - 1) if (p - 1) % ell]
        calls = 0
        power = FieldElement.__pow__

        def counted(x, e):
            nonlocal calls
            calls += 1
            return power(x, e)

        monkeypatch.setattr(FieldElement, "__pow__", counted)
        g = primitive_root.__wrapped__(spec)
        monkeypatch.setattr(FieldElement, "__pow__", power)
        assert g == primitive_root(spec)
        classes = set()
        for enc in range(1, g.to_int() + 1):
            c = spec.element_from_int(enc).coeffs
            lead = [a for a in c if a][-1]
            classes.add(tuple(a * pow(lead, -1, p) % p for a in c))
        assert 0 < calls <= (1 + len(high)) * len(classes), (p, n, calls, len(classes))


def test_primitive_root_skips_the_constants_of_an_extension(monkeypatch):
    # for n > 1 a constant b has b^(p-1) = 1, so no encoding below p is built
    spec = make_field(4099, 2)
    built = []
    from_int = type(spec).element_from_int

    def counted(self, enc):
        built.append(enc)
        return from_int(self, enc)

    monkeypatch.setattr(type(spec), "element_from_int", counted)
    g = primitive_root.__wrapped__(spec)
    monkeypatch.setattr(type(spec), "element_from_int", from_int)
    assert g.to_int() == 4102
    assert built and min(built) >= spec.p


def test_primitive_root_matches_the_full_power_scan():
    fields = _fields(300, 1 << 20)
    assert len(fields) == 194
    for p, n in fields:
        spec = make_field(p, n)
        assert primitive_root(spec) == brute_primitive_root(spec), (p, n)


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
    with pytest.raises(ParameterError, match="logarithm of zero"):
        dlog(f7.zero(), g)


def test_dlog_round_trip_small_fields():
    # every unit of four fields of at most 4096 units, read from the power
    # index of the whole unit group
    for p, n in [(7, 1), (2, 6), (3, 4), (251, 1)]:
        spec = make_field(p, n)
        g = primitive_root(spec)
        cur = spec.one()
        for k in range(spec.order - 1):
            assert dlog(cur, g) == k
            cur = cur * g


def test_dlog_every_giant_step_just_above_the_table_bound():
    # F_4099 has 4098 units, two more than the whole-group table takes, so
    # baby-step giant-step walks k = i*b + j with b = 65 baby steps: k = 66 i
    # takes every giant-step count i up to 62, the last unit m - 1 = 63 b + 2
    spec = make_field(4099, 1)
    g, m, b = primitive_root(spec), 4098, 65
    for k in [*range(0, m, b + 1), m - 1]:
        assert dlog(g**k, g) == k


def test_dlog_baby_step_giant_step_branch():
    spec = make_field(5, 6)  # 15624 units: sampled exponents across the giant steps
    g = primitive_root(spec)
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randrange(spec.order - 1)
        assert dlog(g ** k, g) == k


def test_dlog_in_a_subgroup():
    # the order-(q-1) subgroup of F_{q^r}^* generated by G^s, s = (q^r-1)/(q-1):
    # the table of F_169 and the walk of F_5^6 are sized from the subgroup
    # order q - 1, not from q^r - 1
    for p, n, q in [(13, 2, 13), (5, 6, 125)]:
        spec = make_field(p, n)
        h = primitive_root(spec) ** ((spec.order - 1) // (q - 1))
        for k in (0, 1, q // 2, q - 2):
            assert dlog(h**k, h, q - 1) == k


def test_dlog_reuses_its_baby_steps(monkeypatch):
    # a second log to the same base of F_5^6 (15,624 units) reads the
    # cached baby steps: g^7 is found before the first giant step, so the
    # call takes no product at all
    spec = make_field(5, 6)
    g = primitive_root(spec)
    assert dlog(g**1000, g) == 1000
    x, real_mul, products = g**7, FieldElement.__mul__, []
    monkeypatch.setattr(FieldElement, "__mul__", lambda a, b: products.append(b) or real_mul(a, b))
    assert dlog(x, g) == 7
    assert products == []


def test_dlog_whole_group_lookup_takes_no_product_or_power(monkeypatch):
    # 3^7 - 1 units are read from the cached index of the whole unit group:
    # once it is built, a logarithm takes no product and no power
    spec = make_field(3, 7)
    g = primitive_root(spec)
    xs = {k: g**k for k in (0, 1, 1093, 2185)}
    assert dlog(g, g) == 1
    real_mul, real_pow, calls = FieldElement.__mul__, FieldElement.__pow__, []
    monkeypatch.setattr(FieldElement, "__mul__", lambda a, b: calls.append("*") or real_mul(a, b))
    monkeypatch.setattr(FieldElement, "__pow__", lambda a, e: calls.append("**") or real_pow(a, e))
    for k, x in xs.items():
        assert dlog(x, g) == k
    assert calls == []


@pytest.mark.parametrize("p,n", [(7, 1), (4099, 1)])
def test_dlog_of_an_element_outside_the_group_raises(p, n):
    # g^2 generates only the squares, so the non-square g is not found: in
    # the whole-group table of F_7 and by the giant steps of F_4099
    spec = make_field(p, n)
    g = primitive_root(spec)
    with pytest.raises(InternalError, match="not a power of the claimed generator"):
        dlog(g, g**2)


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
    with pytest.raises(InternalError, match="different fields"):
        a + b
