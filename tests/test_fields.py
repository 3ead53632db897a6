"""Field contexts: axioms, encodings, moduli, descriptors, and guards.

Extension multiplication is checked exhaustively against a schoolbook
polynomial oracle for every prime-base field small enough to enumerate;
tower fields (prime-power base) get the full battery of field axioms
instead, since the digit oracle only speaks prime bases.  The
irreducibility test is checked against trial division, and the lazily
built extension tables against generic polynomial reduction.
"""

import itertools
import random
import signal
import threading
import time

import pytest

from helpers import int_digits, poly_product_mod, tower_product, trial_division_irreducible
from ranklab.errors import InfeasibleError
from ranklab import fields
from ranklab.fields import (
    ExtCtx,
    FieldCtx,
    _first_irreducible,
    _is_irreducible,
    context_from_descriptor,
    default_context,
    is_prime,
    split_prime_power,
)

# default_context(q, m) descriptors the suite and the benchmark rely on;
# the modulus search must keep finding exactly these moduli.
FROZEN_DEFAULTS = {
    (2, 1): "2/1:0,1",
    (2, 2): "2/2:1,1,1",
    (2, 3): "2/3:1,1,0,1",
    (2, 4): "2/4:1,1,0,0,1",
    (2, 5): "2/5:1,0,1,0,0,1",
    (2, 7): "2/7:1,1,0,0,0,0,0,1",
    (3, 2): "3/2:1,0,1",
    (3, 3): "3/3:1,2,0,1",
    (4, 2): "2^2:1,1,1/2:2,1,1",
    (2, 16): "2/16:1,1,0,1,0,1,0,0,0,0,0,0,0,0,0,0,1",
    (3, 10): "3/10:1,0,2,0,0,0,0,0,0,0,1",
    (4, 8): "2^2:1,1,1/8:2,1,0,1,0,0,0,0,1",
    (8, 8): "2^3:1,1,0,1/8:3,2,0,1,0,0,0,0,1",
    (16, 6): "2^4:1,1,0,0,1/6:13,2,1,0,0,0,1",
}


def axiom_battery(ctx, elements):
    """Exhaustive field-axiom check over the given element list."""
    zero, one = 0, 1
    for a in elements:
        assert ctx.add(a, zero) == a
        assert ctx.mul(a, one) == a
        assert ctx.mul(a, zero) == zero
        assert ctx.add(a, ctx.neg(a)) == zero
        if a != zero:
            assert ctx.mul(a, ctx.inv(a)) == one
    for a, b in itertools.product(elements, repeat=2):
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
    for a, b, c in itertools.product(elements, repeat=3):
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)


def test_split_prime_power_accepts_prime_powers():
    assert split_prime_power(2) == (2, 1)
    assert split_prime_power(3) == (3, 1)
    assert split_prime_power(4) == (2, 2)
    assert split_prime_power(8) == (2, 3)
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(25) == (5, 2)
    assert split_prime_power(27) == (3, 3)
    assert split_prime_power(1024) == (2, 10)


def test_split_prime_power_rejects_non_prime_powers():
    for bad in (0, 1, 6, 12, 100, 1000):
        with pytest.raises(ValueError):
            split_prime_power(bad)


def test_factoring_answers_up_to_two_to_the_forty_and_refuses_above():
    # trial division stops at 2^20: every n <= 2^40 is factored as before,
    # and above it a cofactor with no prime factor up to 2^20 is refused
    # at once instead of divided for minutes
    assert split_prime_power(2**40) == (2, 40)
    assert split_prime_power(3**30) == (3, 30)
    assert is_prime(2**40 - 87)  # the largest prime below 2^40
    assert not is_prime((2**20 - 3) * (2**20 + 7))
    start = time.perf_counter()
    for call in (is_prime, split_prime_power, FieldCtx):
        with pytest.raises(InfeasibleError, match="no prime factor up to 2"):
            call(2**61 - 1)
    assert time.perf_counter() - start < 5


def test_prime_field_matches_integer_arithmetic():
    for p in (2, 3, 5, 7):
        fld = FieldCtx(p)
        for a, b in itertools.product(range(p), repeat=2):
            assert fld.add(a, b) == (a + b) % p
            assert fld.sub(a, b) == (a - b) % p
            assert fld.mul(a, b) == (a * b) % p
        for a in range(1, p):
            assert (a * fld.inv(a)) % p == 1


def test_field_ctx_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FieldCtx(4)
    with pytest.raises(ValueError):
        FieldCtx(6)
    with pytest.raises(ValueError):
        FieldCtx(2, 0)
    with pytest.raises(ValueError):
        FieldCtx(2, 1, modulus=(1, 1))
    with pytest.raises(ValueError, match="base must be a FieldCtx"):
        ExtCtx(2, 3)
    with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
        ExtCtx(FieldCtx(2), 0)


def test_field_ctx_rejects_bad_moduli():
    with pytest.raises(ValueError):
        FieldCtx(2, 2, modulus=(1, 1))  # wrong length
    with pytest.raises(ValueError):
        FieldCtx(3, 2, modulus=(1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        FieldCtx(3, 2, modulus=(4, 0, 1))  # coefficient out of range
    with pytest.raises(ValueError):
        FieldCtx(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2


def test_default_moduli_are_first_in_code_order():
    # smallest non-leading coefficient block that is irreducible
    assert FieldCtx(2, 2).modulus == (1, 1, 1)
    assert FieldCtx(2, 3).modulus == (1, 1, 0, 1)
    assert FieldCtx(3, 2).modulus == (1, 0, 1)
    assert ExtCtx(FieldCtx(2), 4).ext_modulus == (1, 1, 0, 0, 1)


def test_f4_multiplication_facts():
    f4 = FieldCtx(2, 2)
    # with modulus x^2+x+1: x*x = x+1, so code 2 squares to code 3
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.inv(2) == 3
    assert f4.add(2, 3) == 1


def test_f8_facts():
    f8 = ExtCtx(FieldCtx(2), 3, (1, 1, 0, 1))
    assert f8.add(3, 6) == 5
    assert f8.inv(2) == 5
    assert f8.mul(2, 5) == 1


def test_base_field_axioms_exhaustive():
    for ctx in (FieldCtx(2, 2), FieldCtx(2, 3), FieldCtx(3, 2)):
        axiom_battery(ctx, list(ctx.elements()))


def test_extension_axioms_exhaustive():
    for ctx in (
        ExtCtx(FieldCtx(2), 3),
        ExtCtx(FieldCtx(3), 2),
        ExtCtx(FieldCtx(2, 2), 2),  # tower: F_16 built over F_4
    ):
        axiom_battery(ctx, list(ctx.elements()))


def test_f81_pairwise_checks():
    f81 = ExtCtx(FieldCtx(3), 4)
    elements = list(f81.elements())
    for a, b in itertools.product(elements, repeat=2):
        assert f81.mul(a, b) == f81.mul(b, a)
        assert f81.mul(a, b) == f81._mul_generic(a, b)
    for a in elements[1:]:
        assert f81.mul(a, f81.inv(a)) == 1


def test_extension_mul_matches_polynomial_oracle():
    cases = [
        (ExtCtx(FieldCtx(2), 3, (1, 1, 0, 1)), 2),
        (ExtCtx(FieldCtx(3), 2), 3),
        (ExtCtx(FieldCtx(2), 4), 2),
    ]
    for ctx, p in cases:
        for a, b in itertools.product(range(ctx.order), repeat=2):
            assert ctx.mul(a, b) == poly_product_mod(a, b, p, ctx.ext_modulus)


def test_base_field_mul_matches_polynomial_oracle():
    for p, s in ((2, 2), (2, 3), (3, 2), (5, 2)):
        fld = FieldCtx(p, s)
        for a, b in itertools.product(range(fld.q), repeat=2):
            assert fld.mul(a, b) == poly_product_mod(a, b, p, fld.modulus)


@pytest.mark.parametrize("q", (4, 8, 9, 16, 27, 243, 256))
def test_log_built_base_tables_match_generic_products(q):
    # the tables come from a log/antilog pair; every entry must be the
    # schoolbook product, and every inverse a true inverse
    fld = FieldCtx(*split_prime_power(q))
    generic = fld._mul_generic
    for a in range(q):
        assert fld._mul_table[a] == tuple(generic(a, b) for b in range(q))
    assert all(generic(a, fld.inv(a)) == 1 for a in range(1, q))


@pytest.mark.parametrize("q", (2, 3, 4, 9, 243, 256))
def test_base_inv_and_pow_match_the_untabulated_power(q):
    # every element and every exponent in [-2, 2q].  The reference steps
    # from _pow_generic(a, 0) by one untabulated product per exponent, and
    # meets _pow_generic itself at the ends of each period: calling it at
    # every exponent takes about nine times as long at q = 243 and 256
    fld = FieldCtx(*split_prime_power(q))
    assert fld._log is not None
    for a in range(q):
        want = fld._pow_generic(a, 0)
        for e in range(2 * q + 1):
            assert fld.pow(a, e) == want, (a, e)
            want = fld._mul_generic(want, a)
        for e in (1, q - 2, q - 1, q, 2 * q):
            assert fld.pow(a, e) == fld._pow_generic(a, e), (a, e)
        if a:
            inverse = fld._pow_generic(a, q - 2)
            assert fld.inv(a) == fld.pow(a, -1) == inverse
            assert fld.pow(a, -2) == fld._pow_generic(inverse, 2)


@pytest.mark.parametrize(
    "build, tabulated",
    (
        (lambda: FieldCtx(257), False),
        (lambda: FieldCtx(2, 9), False),
        (lambda: ExtCtx(FieldCtx(2), 16), True),
        (lambda: ExtCtx(FieldCtx(2), 17), False),
    ),
    ids=("F_257", "F_2^9", "F_2^16", "F_2^17"),
)
def test_inv_and_pow_on_both_sides_of_each_table_limit(build, tabulated):
    # 257 and 2^9 are past the base limit of 256, and 2^17 past the
    # extension's 2^16: those never build tables, whatever is called
    ctx = build()
    size = ctx._size
    rng = random.Random(f"limit {size}")
    for _ in range(20):
        a, e = rng.randrange(1, size), rng.randrange(-2, 2 * size)
        inverse = ctx._pow_generic(a, size - 2)
        assert ctx.inv(a) == inverse
        assert ctx.pow(a, e) == (ctx._pow_generic(a, e) if e >= 0 else ctx._pow_generic(inverse, -e))
    assert (ctx._log is not None) == tabulated


def test_base_tables_take_about_q_products(monkeypatch):
    calls = []
    original = FieldCtx._mul_generic
    monkeypatch.setattr(FieldCtx, "_mul_generic", lambda self, a, b: calls.append(1) or original(self, a, b))
    FieldCtx(2, 8)
    assert len(calls) < 2 * 256  # q^2 / 2 = 32768 before


@pytest.mark.parametrize(
    "call",
    (
        lambda: default_context(3, 2).add(-1, 1),
        lambda: default_context(3, 2).sub(1, -1),
        lambda: default_context(9, 2).neg(-5),
        lambda: FieldCtx(3, 2).add(-1, 1),
    ),
    ids=("F_3^2 add", "F_3^2 sub", "F_9^2 neg", "F_9 add"),
)
def test_digitwise_addition_of_a_negative_code_ends(call):
    # a bad code may give any answer or raise, but the digit walk must end:
    # divmod(-1, p) is (-1, p - 1), so a walk on nonzero operands never did
    def hang(signum, frame):
        raise TimeoutError("digitwise addition did not end")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(2)
    try:
        try:
            call()
        except (ValueError, KeyError):
            pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_characteristic_two_addition_is_xor():
    for ctx in (ExtCtx(FieldCtx(2), 3), ExtCtx(FieldCtx(2, 2), 2)):
        for a, b in itertools.product(range(ctx.order), repeat=2):
            assert ctx.add(a, b) == (a ^ b)
            assert ctx.sub(a, b) == (a ^ b)


def test_frobenius_properties():
    for ctx in (ExtCtx(FieldCtx(2), 3), ExtCtx(FieldCtx(3), 2), ExtCtx(FieldCtx(2, 2), 2)):
        q = ctx.base.q
        elements = list(ctx.elements())
        for a in elements:
            assert ctx.frobenius(a, 0) == a
            assert ctx.frobenius(a, 1) == ctx.pow(a, q)
            # m-fold application is the identity
            out = a
            for _ in range(ctx.m):
                out = ctx.frobenius(out, 1)
            assert out == a
        for a, b in itertools.product(elements, repeat=2):
            assert ctx.frobenius(ctx.add(a, b), 1) == ctx.add(
                ctx.frobenius(a, 1), ctx.frobenius(b, 1)
            )
        for lam in range(q):
            # base-field scalars are fixed points and commute through
            assert ctx.frobenius(lam, 1) == lam
            for a in elements:
                assert ctx.frobenius(ctx.mul(lam, a), 1) == ctx.mul(lam, ctx.frobenius(a, 1))
        with pytest.raises(ValueError):
            ctx.frobenius(1, -1)


@pytest.mark.parametrize("q, m", [(2, 3), (3, 2), (4, 2), (2, 17)])
def test_frobenius_is_the_repeated_q_th_power(q, m):
    # one power a^(q^(i mod m)) is i q-th powers in a row, each a product
    # of q copies by the schoolbook oracle, for every i in [0, 2m]: every
    # element of the small fields, and a fixed sample of F_{2^17}, above
    # the 2^16 log-table limit
    ctx = ExtCtx(FieldCtx(*split_prime_power(q)), m)
    if ctx.order <= 2**16:
        elements = list(ctx.elements())
    else:
        rng = random.Random(20261020)
        elements = [0, 1, *(rng.randrange(2, ctx.order) for _ in range(6))]
    for a in elements:
        power = a
        for i in range(2 * m + 1):
            assert ctx.frobenius(a, i) == power, (q, m, a, i)
            step = power
            for _ in range(q - 1):
                step = tower_product(step, power, ctx.base, ctx.ext_modulus)
            power = step


def test_coordinate_round_trip():
    for ctx in (ExtCtx(FieldCtx(2), 3), ExtCtx(FieldCtx(3), 2), ExtCtx(FieldCtx(2, 2), 2)):
        for a in ctx.elements():
            vec = ctx.ext_to_vec(a)
            assert len(vec) == ctx.m
            assert ctx.vec_to_ext(vec) == a
            # a base scalar scales each coordinate: the extension product
            for c in ctx.base.elements():
                assert ctx.scale(c, a) == ctx.mul(c, a), (ctx, c, a)
        # basis element i is the i-th unit coordinate vector
        for i, code in enumerate(ctx.basis):
            vec = ctx.ext_to_vec(code)
            assert vec == tuple(1 if j == i else 0 for j in range(ctx.m))
    with pytest.raises(ValueError):
        ExtCtx(FieldCtx(2), 3).vec_to_ext((1, 0))
    with pytest.raises(ValueError):
        ExtCtx(FieldCtx(2), 3).vec_to_ext((1, 0, 2))


def test_basis_codes_are_powers_of_q():
    ctx = ExtCtx(FieldCtx(2, 2), 3)
    assert ctx.basis == (1, 4, 16)


def test_check_element_rejects_bad_codes():
    ctx = ExtCtx(FieldCtx(2), 3)
    for bad in (-1, 8, "3", 1.5):
        with pytest.raises(ValueError):
            ctx.check_element(bad)
    fld = FieldCtx(3)
    for bad in (-1, 3, None):
        with pytest.raises(ValueError):
            fld.check_element(bad)


def test_inv_of_zero_raises():
    with pytest.raises(ValueError):
        FieldCtx(5).inv(0)
    with pytest.raises(ValueError):
        ExtCtx(FieldCtx(2), 3).inv(0)


def test_descriptor_round_trip():
    for ctx in (
        ExtCtx(FieldCtx(2), 3),
        ExtCtx(FieldCtx(3), 2),
        ExtCtx(FieldCtx(2, 2), 2),
        ExtCtx(FieldCtx(5), 2),
    ):
        desc = ctx.descriptor()
        back = context_from_descriptor(desc)
        assert back == ctx
        assert hash(back) == hash(ctx)
        assert back.descriptor() == desc


def test_descriptor_frozen_forms():
    assert ExtCtx(FieldCtx(2), 3).descriptor() == "2/3:1,1,0,1"
    assert ExtCtx(FieldCtx(2, 2), 2).descriptor().startswith("2^2:1,1,1/2:")


def test_descriptor_rejects_malformed_strings():
    for bad in ("", "garbage", "2/3", "x/3:1,1,0,1", "2/3:1,a,0,1", "2^x:1,1,1/2:1,1,1"):
        with pytest.raises(ValueError, match="malformed"):
            context_from_descriptor(bad)
    # parseable but mathematically invalid: degree mismatch and reducible modulus
    with pytest.raises(ValueError):
        context_from_descriptor("2/3:1,1,0")
    with pytest.raises(ValueError):
        context_from_descriptor("2/2:1,0,1")


def test_context_equality_and_identity_cache():
    assert default_context(2, 3) is default_context(2, 3)
    assert default_context(2, 3) == ExtCtx(FieldCtx(2), 3)
    assert default_context(4, 2).base.modulus == (1, 1, 1)
    assert default_context(2, 3) != default_context(2, 4)
    # same field, different modulus: distinct contexts
    a = ExtCtx(FieldCtx(2), 3, (1, 1, 0, 1))
    b = ExtCtx(FieldCtx(2), 3, (1, 0, 1, 1))
    assert a != b


def test_equality_keys_hold_the_level_the_field_below_and_every_modulus():
    # both degree-1 default moduli are (0, 1), so only the characteristic
    # tells F_2 from F_3; listdec keys its ball memo by context
    assert FieldCtx(2) != FieldCtx(3)
    assert default_context(2, 1).ext_modulus == default_context(3, 1).ext_modulus
    assert default_context(2, 1) != default_context(3, 1)
    assert FieldCtx(2, 2) != ExtCtx(FieldCtx(2), 2, (1, 1, 1))
    builds = (
        lambda: FieldCtx(3),
        lambda: FieldCtx(3, 2),
        lambda: ExtCtx(FieldCtx(2), 3),
        lambda: ExtCtx(FieldCtx(2, 2), 2, (2, 1, 1)),
    )
    for build in builds:
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


def test_extension_order_guard():
    with pytest.raises(InfeasibleError):
        ExtCtx(FieldCtx(2), 33)
    with pytest.raises(InfeasibleError):
        default_context(4, 17)


def test_untabulated_extension_matches_oracle_on_samples():
    # order 2^17 exceeds the log-table limit, so mul runs the generic path
    ctx = ExtCtx(FieldCtx(2), 17)
    assert ctx._log is None
    import random

    rng = random.Random(20240817)
    for _ in range(200):
        a = rng.randrange(ctx.order)
        b = rng.randrange(ctx.order)
        assert ctx.mul(a, b) == poly_product_mod(a, b, 2, ctx.ext_modulus)
    for _ in range(25):
        a = rng.randrange(1, ctx.order)
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_untabulated_base_field_paths():
    big_prime = FieldCtx(257)
    assert big_prime._mul_table is None
    for a in (1, 2, 100, 256):
        assert big_prime.mul(a, big_prime.inv(a)) == 1
        assert big_prime.mul(a, a) == (a * a) % 257
    big_ext = FieldCtx(3, 6)  # q = 729, past the table limit
    assert big_ext._mul_table is None
    import random

    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(big_ext.q)
        b = rng.randrange(big_ext.q)
        assert big_ext.mul(a, b) == poly_product_mod(a, b, 3, big_ext.modulus)
    for _ in range(10):
        a = rng.randrange(1, big_ext.q)
        assert big_ext.mul(a, big_ext.inv(a)) == 1


def test_tower_oracle_matches_small_tabulated_towers():
    # the oracle first agrees with the log tables where every product is
    # checked against the field axioms
    for ctx in (ExtCtx(FieldCtx(2, 2), 2), ExtCtx(FieldCtx(3, 2), 2)):
        for a, b in itertools.product(range(ctx.order), repeat=2):
            assert ctx.mul(a, b) == tower_product(a, b, ctx.base, ctx.ext_modulus)


@pytest.mark.parametrize("p, s", ((3, 6), (257, 1)))
def test_towers_over_untabulated_bases_match_the_tower_oracle(p, s):
    # F_{3^12} over F_{3^6} and F_{257^2} over F_257: neither level has tables
    ctx = ExtCtx(FieldCtx(p, s), 2)
    assert ctx.base._mul_table is None
    rng = random.Random(f"tower {p}^{s}")

    def oracle_pow(a, e):
        out = 1
        while e:
            if e & 1:
                out = tower_product(out, a, ctx.base, ctx.ext_modulus)
            a = tower_product(a, a, ctx.base, ctx.ext_modulus)
            e >>= 1
        return out

    for _ in range(60):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert ctx.mul(a, b) == tower_product(a, b, ctx.base, ctx.ext_modulus)
    for _ in range(6):
        a = rng.randrange(1, ctx.order)
        assert tower_product(a, ctx.inv(a), ctx.base, ctx.ext_modulus) == 1
        e = rng.randrange(ctx.order)
        assert ctx.pow(a, e) == oracle_pow(a, e)
    assert ctx._log is None and ctx._exp is None


def broken_product(original):
    """``original`` except that 9 comes out as 8: in F_16 with x^4 + x + 1
    the powers of x then repeat, since x^3 = 8 and x^14 = 9."""
    return lambda self, a, b: 8 if original(self, a, b) == 9 else original(self, a, b)


def test_base_tables_refuse_a_product_whose_powers_repeat(monkeypatch):
    monkeypatch.setattr(FieldCtx, "_mul_generic", broken_product(FieldCtx._mul_generic))
    with pytest.raises(RuntimeError):
        FieldCtx(2, 4)


def test_extension_tables_refuse_a_product_whose_powers_repeat(monkeypatch):
    ctx = ExtCtx(FieldCtx(2), 4, (1, 1, 0, 0, 1))
    monkeypatch.setattr(ExtCtx, "_mul_generic", broken_product(ExtCtx._mul_generic))
    with pytest.raises(RuntimeError):
        ctx.mul(3, 5)
    assert ctx._log is None and ctx._exp is None
    # nothing was published, so the true product builds the tables afresh
    monkeypatch.undo()
    assert ctx.mul(3, 5) == poly_product_mod(3, 5, 2, ctx.ext_modulus)
    assert ctx._log is not None


def test_base_tables_refuse_bad_codes():
    # the log map refuses what a tuple index would wrap or miss
    for fld in (FieldCtx(3), FieldCtx(2, 2), FieldCtx(2, 8)):
        for call in (
            lambda: fld.inv(-1),
            lambda: fld.inv(fld.q),
            lambda: fld.pow(-1, 2),
            lambda: fld.pow(fld.q, 2),
        ):
            with pytest.raises(KeyError):
                call()
        for call in (lambda: fld.inv(0), lambda: fld.pow(0, -1)):
            with pytest.raises(ValueError):
                call()


def test_extension_tables_refuse_bad_codes():
    for ctx in (ExtCtx(FieldCtx(2), 4), ExtCtx(FieldCtx(3), 2)):
        ctx.mul(1, 1)
        assert ctx._log is not None
        for call in (
            lambda: ctx.mul(-1, 1),
            lambda: ctx.mul(1, ctx.order),
            lambda: ctx.inv(ctx.order),
            lambda: ctx.inv(-1),
            lambda: ctx.pow(-1, 2),
        ):
            with pytest.raises(KeyError):
                call()


def test_pow_matches_repeated_multiplication():
    ctx = ExtCtx(FieldCtx(2), 3)
    for a in ctx.elements():
        acc = 1
        for e in range(10):
            assert ctx.pow(a, e) == acc
            acc = ctx.mul(acc, a)
    # negative exponents invert first
    for a in range(1, ctx.order):
        assert ctx.pow(a, -1) == ctx.inv(a)
        assert ctx.mul(ctx.pow(a, -3), ctx.pow(a, 3)) == 1


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def test_irreducibility_test_agrees_with_trial_division():
    # every monic candidate of degree 1..6 with q^d <= 3000, prime and tower bases
    checked = 0
    for field in (
        FieldCtx(2), FieldCtx(3), FieldCtx(5), FieldCtx(7),
        FieldCtx(2, 2), FieldCtx(2, 3), FieldCtx(3, 2), FieldCtx(2, 4),
    ):
        q = field.q
        for d in range(1, 7):
            if q**d > 3000:
                break
            found = 0
            for code in range(q**d):
                poly = tuple(int_digits(code, q, d)) + (1,)
                verdict = _is_irreducible(poly, field)
                assert verdict == trial_division_irreducible(poly, field), (q, poly)
                found += verdict
                checked += 1
            # Gauss: the monic irreducibles of degree d number (1/d) sum mu(k) q^(d/k)
            gauss = sum(_mobius(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0) // d
            assert found == gauss, (q, d)
    assert checked == 7837


def test_the_modulus_search_skips_only_reducible_p_th_powers():
    # a monic candidate whose nonzero coefficients all sit at multiples of
    # p has zero derivative, so it is a p-th power: Ben-Or rejects each
    # one, and the search that skips them finds the first irreducible the
    # unfiltered search finds
    skipped = 0
    for q in (2, 3, 4, 8, 9):
        field = FieldCtx(*split_prime_power(q))
        for d in range(1, 5):
            if q**d > 5000:
                break
            candidates = [tuple(int_digits(code, q, d)) + (1,) for code in range(q**d)]
            for poly in candidates:
                if not any(c for i, c in enumerate(poly) if i % field.p):
                    assert not _is_irreducible(poly, field), (q, poly)
                    skipped += 1
            first = next(poly for poly in candidates if _is_irreducible(poly, field))
            assert _first_irreducible(field, d) == first, (q, d)
    assert skipped > 100


def test_a_quadratic_extension_of_a_large_binary_field_runs_two_ben_or_tests(monkeypatch):
    # over F_(2^15) the q candidates x^2 + c come first and are squares;
    # x^2 + x is the first tested and x^2 + x + 1 the modulus
    tested = []
    real = fields._is_irreducible

    def counted(poly, field):
        tested.append(field.q)
        return real(poly, field)

    monkeypatch.setattr(fields, "_is_irreducible", counted)
    ctx = default_context.__wrapped__(2**15, 2)
    assert ctx.descriptor().endswith("/2:1,1,1")
    assert tested.count(2**15) <= 2


def test_default_descriptors_are_unchanged():
    for (q, m), desc in FROZEN_DEFAULTS.items():
        assert default_context(q, m).descriptor() == desc, (q, m)


def test_large_default_contexts_build_within_budget():
    # inside the documented q^m <= 2^32 range; trial division took
    # minutes on (16, 8).  The uncached builder measures a real build.
    frozen = {
        (16, 8): "2^4:1,1,0,0,1/8:2,1,0,1,0,0,0,0,1",
        (2, 32): "2/32:1,0,1,1,0,0,0,1" + ",0" * 24 + ",1",
        (3, 20): "3/20:1,2,0,1" + ",0" * 16 + ",1",
    }
    budget_s = 10
    start = time.perf_counter()
    for (q, m), desc in frozen.items():
        assert default_context.__wrapped__(q, m).descriptor() == desc, (q, m)
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"large contexts took {elapsed:.2f}s, budget {budget_s}s"


def test_default_contexts_share_one_base_field():
    assert default_context(4, 2).base is default_context(4, 3).base
    assert default_context(2, 3).base is default_context(2, 5).base


def test_f2_takes_its_tables_from_the_one_search():
    # order - 1 = 1 has no prime factor, so the search accepts 1 in F_2 alone
    for fld in (FieldCtx(2), default_context(2, 5).base):
        assert fld._exp == (1,) and fld._log == {1: 0}
        assert fld._mul_table == ((0, 0), (0, 1))


def test_extension_tables_are_built_on_first_mul():
    # F_{2^16} and F_{3^10}: even and odd characteristic, at the table limit
    for key in ((2, 16), (3, 10)):
        ctx = context_from_descriptor(FROZEN_DEFAULTS[key])
        assert ctx._log is None
        # coordinates, addition and descriptors never need the tables
        ctx.ext_to_vec(12345)
        ctx.add(3, 5)
        ctx.descriptor()
        assert ctx._log is None
        rng = random.Random(20261018)
        pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(200)]
        assert ctx.mul(*pairs[0]) == ctx._mul_generic(*pairs[0])
        assert ctx._log is not None
        for a, b in pairs:
            assert ctx.mul(a, b) == ctx._mul_generic(a, b)
        for _ in range(50):
            a, e = rng.randrange(1, ctx.order), rng.randrange(ctx.order)
            assert ctx.inv(a) == ctx._pow_generic(a, ctx.order - 2)
            assert ctx.pow(a, e) == ctx._pow_generic(a, e)


def test_inv_and_pow_build_the_tables_too():
    for first in ("inv", "pow", "frobenius"):
        ctx = ExtCtx(FieldCtx(3), 5)
        assert ctx._log is None
        if first == "inv":
            assert ctx.inv(7) == ctx._pow_generic(7, ctx.order - 2)
        elif first == "pow":
            assert ctx.pow(7, 100) == ctx._pow_generic(7, 100)
        else:
            assert ctx.frobenius(7, 2) == ctx._pow_generic(7, 9)
        assert ctx._log is not None
    # above the table limit, using the field never builds them
    big = ExtCtx(FieldCtx(2), 17)
    assert big.mul(5, 7) == big._mul_generic(5, 7)
    assert big.inv(7) == big._pow_generic(7, big.order - 2)
    assert big.pow(7, 100) == big._pow_generic(7, 100)
    assert big.frobenius(7, 2) == big._pow_generic(7, 4)
    assert big._log is None and big._exp is None


def test_concurrent_first_mul_gives_identical_results():
    # the 2^12 tables take many thread switch intervals to build, so
    # the threads usually all build them at once
    ctx = ExtCtx(FieldCtx(2), 12)
    rng = random.Random(12)
    pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(300)]
    expected = [ctx._mul_generic(a, b) for a, b in pairs]
    assert ctx._log is None
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        barrier.wait()
        results[k] = [ctx.mul(a, b) for a, b in pairs]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [expected] * 4


def test_equality_and_hash_ignore_table_state():
    desc = ExtCtx(FieldCtx(3), 6).descriptor()
    built = context_from_descriptor(desc)
    fresh = context_from_descriptor(desc)
    before = hash(built)
    built.mul(5, 7)
    assert built._log is not None and fresh._log is None
    assert built == fresh
    assert hash(built) == hash(fresh) == before
    assert len({built, fresh}) == 1
