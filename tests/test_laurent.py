import random
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from knotpair import laurent
from knotpair.laurent import (
    MAX_EXPONENT,
    LaurentPoly,
    TagMismatchError,
    jones_from_bracket,
    jones_span_inclusive,
    jones_to_text,
    poly_to_text,
    unpack,
)
import laurent_reference
from poly_text import poly_from_text, reference_text
from test_closedform import packed_product


def P(d, tag="A"):
    return LaurentPoly.from_dict(d, tag)


def test_zero_has_no_stored_coefficients():
    assert P({3: 0, -2: 0}).terms == ()
    assert P({}).is_zero()
    assert P({-3: 0, 2: 5, 7: 0, -9: -1}).terms == ((-9, -1), (2, 5))


def test_basic_arith_examples():
    a = P({1: 1, -1: 1})
    assert a + P({-1: -1}) == P({1: 1})
    assert P({}) * a == P({})
    assert P({0: 1, 4: -1}) * P({0: 1, 4: 1}) == P({0: 1, 8: -1})
    assert -a == P({1: -1, -1: -1})
    assert a * 3 == P({1: 3, -1: 3})


def test_tag_mismatch_is_usage_error():
    with pytest.raises(TagMismatchError):
        P({1: 1}, "A") + P({1: 1}, "z")
    with pytest.raises(TagMismatchError):
        P({1: 1}, "A") - P({1: 1}, "z")
    mono, poly = P({1: 1}, "A"), P({0: 1, 4: -1}, "t")
    with pytest.raises(TagMismatchError):
        mono * poly
    with pytest.raises(TagMismatchError):
        poly * mono


def test_ring_axioms_randomized():
    rng = random.Random(1234)

    def rand_poly():
        return P(
            {rng.randint(-20, 20): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
        )

    for _ in range(1000):
        x, y, z = rand_poly(), rand_poly(), rand_poly()
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_invert_variable_involution_and_homomorphism():
    rng = random.Random(99)
    for _ in range(200):
        x = P({rng.randint(-15, 15): rng.randint(-5, 5) for _ in range(4)})
        y = P({rng.randint(-15, 15): rng.randint(-5, 5) for _ in range(4)})
        assert x.invert_variable().invert_variable() == x
        assert (x * y).invert_variable() == x.invert_variable() * y.invert_variable()
        assert (x + y).invert_variable() == x.invert_variable() + y.invert_variable()
    assert P({1: 1}).invert_variable() == P({-1: 1})
    assert P({0: 1, 4: -1}).invert_variable() == P({0: 1, -4: -1})


def test_extremes():
    x = P({-4: -1, 8: 1})
    assert (x.min_exp(), x.max_exp()) == (-4, 8)
    assert (P({0: 3}).min_exp(), P({0: 3}).max_exp()) == (0, 0)
    assert jones_span_inclusive(P({-4: -1, 8: 1}, "t")) == 4
    assert jones_span_inclusive(P({0: 3}, "t")) == 1
    for method in (P({}).min_exp, P({}).max_exp):
        with pytest.raises(ValueError):
            method()
    with pytest.raises(ValueError, match="span of the zero polynomial is undefined"):
        jones_span_inclusive(P({}, "t"))


def test_jones_from_bracket_substitution():
    # bracket -A^2 - A^-2 at writhe 0 becomes -t^(1/2) - t^(-1/2)
    j = jones_from_bracket(P({2: -1, -2: -1}), 0)
    assert j.tag == "t"
    assert jones_to_text(j) == "-t^(-1/2) - t^(1/2)"
    assert jones_span_inclusive(j) == 2


def test_jones_multiplicative_under_disjoint_union():
    rng = random.Random(5)
    delta = P({2: -1, -2: -1})
    for _ in range(50):
        b1 = P({rng.randint(-8, 8): rng.randint(-4, 4) for _ in range(3)})
        b2 = P({rng.randint(-8, 8): rng.randint(-4, 4) for _ in range(3)})
        if b1.is_zero() or b2.is_zero():
            continue
        w1, w2 = rng.randint(-5, 5), rng.randint(-5, 5)
        lhs = jones_from_bracket(delta * b1 * b2, w1 + w2)
        rhs = (
            jones_from_bracket(b1, w1)
            * jones_from_bracket(b2, w2)
            * jones_from_bracket(delta, 0)
        )
        assert lhs == rhs


def test_canonical_text_round_trip():
    cases = [
        P({-4: -1, 0: 2, 8: 1}),
        P({}),
        P({0: 1}),
        P({2: -3, 1: 1, -7: 5}),
        P({2: 1, 0: 1}, "z"),
    ]
    for p in cases:
        assert poly_from_text(poly_to_text(p), p.tag) == p
    assert poly_to_text(P({-4: -1, 0: 2, 8: 1})) == "-A^-4 + 2 + A^8"


def test_parse_error_reports_position():
    with pytest.raises(ValueError):
        poly_from_text("A^2 + + 3")
    with pytest.raises(ValueError):
        poly_from_text("A^2 z")


@pytest.mark.parametrize(
    "text, message",
    [
        ("A^(1/0)", "zero exponent denominator at position 0"),
        ("1 + A^(3/0)", "zero exponent denominator at position 2"),
        ("A^99999999999999999999", "exponent out of range at position 0"),
        ("2 - A^-4611686018427387905", "exponent out of range at position 2"),
        pytest.param("A^" + "1" * 5000, "exponent out of range at position 0",
                     id="5000-digit exponent"),
        pytest.param("1" * 5000 + " + A", "coefficient out of range at position 0",
                     id="5000-digit coefficient"),
    ],
)
def test_parse_error_of_an_impossible_exponent_reports_position(text, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        poly_from_text(text)


_poly_text_char = st.sampled_from(list("Azt^()/+- 0123456789") + ["99999999999999999999"])


@st.composite
def _poly_text(draw):
    """Canonical text of a polynomial, mutated, or text made up of its characters."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(_poly_text_char, max_size=30)))
    exps = st.integers(-40, 40) | st.sampled_from([MAX_EXPONENT, -MAX_EXPONENT])
    coeffs = draw(st.dictionaries(exps, st.integers(-99, 99), max_size=6))
    tag = draw(st.sampled_from(["A", "z", "t"]))
    poly = P(coeffs, tag)
    text = list(jones_to_text(poly) if tag == "t" else poly_to_text(poly))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        text.insert(pos, draw(_poly_text_char))
    return "".join(text)


@settings(max_examples=300, deadline=None)
@given(_poly_text(), st.sampled_from([None, "A", "t"]), st.sampled_from([1, 4]))
def test_poly_from_text_returns_a_polynomial_or_raises_value_error(text, tag, exp_denom):
    try:
        result = poly_from_text(text, tag, exp_denom)
    except ValueError:
        return
    assert isinstance(result, LaurentPoly)


def test_jones_text_round_trip_quarter_powers():
    j = P({-2: -1, 5: 3}, "t")
    text = jones_to_text(j)
    assert poly_from_text(text, "t", exp_denom=4) == j


def test_exponent_overflow_aborts():
    with pytest.raises(OverflowError):
        LaurentPoly.from_dict({2**63: 1})


def test_mul_equals_the_packed_reference_product():
    rng = random.Random(2009)

    def rand_poly():
        n = rng.randint(0, 60)
        stride = rng.choice([1, 2, 4])
        base = rng.randint(-300, 300)
        span = rng.randint(n, 2 * n + 1)
        bound = rng.choice([1, 2**8, 2**64, 2**200])
        # a third of the polynomials mix exponent residues
        off = rng.choice([0, 0, 1, 2, 3])
        coeffs = {}
        for _ in range(n):
            e = base + stride * rng.randint(0, span) + (off if rng.random() < 0.2 else 0)
            coeffs[e] = rng.randint(-bound, bound)
        return P(coeffs)

    for _ in range(1500):
        x, y = rand_poly(), rand_poly()
        assert x * y == packed_product(x, y)


def test_mul_edge_cases():
    x = LaurentPoly.monomial(1, 1)
    big = P({4 * i - 37: (-1) ** i * (i + 1) for i in range(40)})
    assert big * LaurentPoly.zero() == LaurentPoly.zero()
    assert LaurentPoly.zero() * big == LaurentPoly.zero()
    assert big * LaurentPoly.monomial(-3, 5) == packed_product(big, LaurentPoly.monomial(-3, 5))
    assert LaurentPoly.monomial(7, -2) * big == (7 * big).shift(-2)
    assert big * big == packed_product(big, big)
    # every odd coefficient of (1 + x)^20 (1 - x)^20 cancels to zero
    one = LaurentPoly.one()
    plus, minus = (one + x) ** 20, (one - x) ** 20
    assert plus * minus == P({2 * k: (-1) ** k * comb(20, k) for k in range(21)})
    # stride 4 in both operands, exponents 2 and 1 mod 4
    s = P({4 * i - 2: (-1) ** i for i in range(30)})
    t = P({4 * i + 1: 1 for i in range(25)})
    assert s * t == packed_product(s, t)


@pytest.mark.parametrize("n", [-1, -2, -7])
@pytest.mark.parametrize("base", [LaurentPoly.monomial(1, 1), P({0: 1, 1: 1})])
def test_a_negative_power_raises(base, n):
    # a monomial is refused too: no command raises a polynomial to n < 0
    with pytest.raises(ValueError, match=f"negative power {n} "):
        base ** n


def test_mul_overflow_names_the_first_exponent_out_of_range():
    with pytest.raises(OverflowError, match=f"exponent {MAX_EXPONENT + 1} "):
        P({MAX_EXPONENT: 1, 0: 1}) * P({1: 1, 0: 1})
    top = P({MAX_EXPONENT - i: 1 for i in range(20)})
    low = P({i: 1 for i in range(20)})
    with pytest.raises(OverflowError, match=f"exponent {MAX_EXPONENT + 1} "):
        top * low
    with pytest.raises(OverflowError, match=f"exponent {-MAX_EXPONENT - 19} "):
        top.invert_variable() * low.invert_variable()
    with pytest.raises(OverflowError, match=f"exponent {MAX_EXPONENT + 1} "):
        LaurentPoly.from_dict({MAX_EXPONENT + 1: 1, MAX_EXPONENT + 5: 1})
    # one-term operands, in both orders
    top = P({MAX_EXPONENT - 2: 1, MAX_EXPONENT: 5, -4: 1})
    with pytest.raises(OverflowError, match=f"^exponent {MAX_EXPONENT + 1} out of range$"):
        top * P({1: 3})
    with pytest.raises(OverflowError, match=f"^exponent {MAX_EXPONENT + 1} out of range$"):
        P({1: -1}) * top
    with pytest.raises(OverflowError, match=f"^exponent {-MAX_EXPONENT - 1} out of range$"):
        top.invert_variable() * P({-1: 1})


def test_sparse_product_is_fast_and_small():
    # the product follows the terms, not the exponent range; the reference
    # packs the dense part alone: (d + m)^2 = d^2 + 2 d m + m^2
    dense = P({i: i + 1 for i in range(20)})
    far = P({2**40: 1})
    p = dense + far
    tracemalloc.start()
    try:
        start = time.perf_counter()
        square = p * p
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert square == packed_product(dense, dense) + 2 * dense.shift(2**40) + far.shift(2**40)
    assert elapsed < 1.0
    assert peak < 2**20


def pack(dense, width):
    """sum(c * 2^(8 * width * i)) over the slots."""
    return sum(c << (8 * width * i) for i, c in enumerate(dense))


# every branch of ``unpack``: the 1-, 2-, 4- and 8-byte casts, the 3-, 5-, 6-
# and 7-byte sign extension, and the per-slot read past 8 bytes
UNPACK_WIDTHS = (*range(1, 10), 17)


def _signed_slot_grid(seed):
    """(width, dense slots) with extreme, zero and random slots at every width."""
    rng = random.Random(seed)
    for width in UNPACK_WIDTHS:
        top = (1 << (8 * width - 1)) - 1  # largest |c| a slot holds
        for _ in range(60):
            n = rng.randint(1, 40)
            dense = [rng.choice([0, top, -top, rng.randint(-top, top)]) for _ in range(n)]
            if rng.random() < 0.3:
                dense[0] = dense[-1] = 0  # zero slots at both ends
            yield width, dense


def test_unpack_round_trips_signed_slots():
    rng = random.Random(1009)
    for width, dense in _signed_slot_grid(1009):
        n = len(dense)
        expect = tuple((i, c) for i, c in enumerate(dense) if c)
        value = pack(dense, width)
        assert unpack(value, width, n, 0, 1) == expect
        # a spare slot on top reads as zero
        assert unpack(value, width, n + 1, 0, 1) == expect
        low, stride = rng.randint(-50, 50), rng.choice([1, 4])
        assert unpack(value, width, n, low, stride) == tuple(
            (low + i * stride, c) for i, c in expect
        )


def test_unpack_single_slot_and_extremes():
    for width in UNPACK_WIDTHS:
        top = (1 << (8 * width - 1)) - 1
        for c in (top, -top, 1, -1):
            assert unpack(c, width, 1, 7, 4) == ((7, c),)
        assert unpack(0, width, 1, 7, 4) == ()
        dense = [top, -top, -top, top]
        assert unpack(pack(dense, width), width, 4, 0, 1) == tuple(enumerate(dense))


@st.composite
def packed_slots(draw):
    """(width, dense): slots of +-(2^(8 width - 1) - 1), +-1, 0 or any value
    a slot holds, zero slots at either end, and the top nonzero slot of
    either sign, so that the packed total is negative about half the time."""
    width = draw(st.sampled_from(UNPACK_WIDTHS))
    top = (1 << (8 * width - 1)) - 1
    slot = st.one_of(st.sampled_from([top, -top, 1, -1, 0]), st.integers(-top, top))
    dense = draw(st.lists(slot, min_size=1, max_size=30))
    dense = [0] * draw(st.integers(0, 2)) + dense + [0] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        dense = [-c for c in dense]
    return width, dense


@settings(max_examples=400, deadline=None)
@given(packed_slots(), st.integers(0, 2), st.integers(-60, 60), st.sampled_from([1, 2, 4]))
def test_unpack_equals_the_per_slot_reference(case, spare, low, stride):
    width, dense = case
    value = pack(dense, width)
    slots = len(dense) + spare
    got = unpack(value, width, slots, low, stride)
    assert got == laurent_reference.unpack(value, width, slots, low, stride)
    assert got == tuple((low + i * stride, c) for i, c in enumerate(dense) if c)


def test_the_per_slot_path_equals_the_casts(monkeypatch):
    # what a big-endian platform reads: every width through int.from_bytes
    grid = [(width, dense, pack(dense, width)) for width, dense in _signed_slot_grid(1009)]
    cast = [unpack(value, width, len(dense), -3, 4) for width, dense, value in grid]
    monkeypatch.setattr(laurent, "_CAST_SLOTS", False)

    def no_cast(data):
        raise AssertionError("the per-slot path made a memoryview")

    monkeypatch.setattr(laurent, "memoryview", no_cast, raising=False)
    per_slot = [unpack(value, width, len(dense), -3, 4) for width, dense, value in grid]
    assert per_slot == cast


def test_from_packed_reads_k_bit_slots():
    # exponent low + j * stride from slot j, as many slots as the value spans
    for k in (8, 24, 40, 64, 72):
        top = (1 << (k - 1)) - 1
        for dense in ([5], [top, 0, -top], [-1, 0, 0, 1], [0, 0, -top]):
            value = pack(dense, k // 8)
            got = LaurentPoly.from_packed(value, -7, k, 2, "z")
            assert got == P({-7 + 2 * i: c for i, c in enumerate(dense)}, "z")
        assert LaurentPoly.from_packed(0, 3, k, 4, "t") == LaurentPoly.zero("t")


def test_slot_bits_is_the_least_byte_multiple_that_holds_the_bound():
    # closedform and g3table pack at this width: coefficients of absolute
    # value up to the bound read back exactly, and 8 bits less would not do
    bounds = list(range(300)) + [(1 << j) + d for j in range(8, 80) for d in (-1, 0, 1)]
    for bound in bounds:
        k = laurent.slot_bits(bound)
        assert k % 8 == 0 and bound < 1 << (k - 1)
        assert k == 8 or bound >= 1 << (k - 9)
        value = pack([bound, -bound, bound], k // 8)
        got = LaurentPoly.from_packed(value, 0, k, 1, "z")
        assert got == P({0: bound, 1: -bound, 2: bound}, "z")


def test_single_term_product_equals_the_packed_reference_product():
    rng = random.Random(4099)
    for _ in range(600):
        bound = rng.choice([1, 2**8, 2**64, 2**200])
        n = rng.randint(0, 40)
        base, stride = rng.randint(-500, 500), rng.choice([1, 2, 4])
        x = P({base + stride * i: rng.randint(-bound, bound) for i in range(n)})
        c = rng.choice([1, -1, rng.randint(-bound, bound) or 1])
        mono = LaurentPoly.monomial(c, rng.randint(-300, 300))
        assert mono * x == packed_product(mono, x)
        assert x * mono == packed_product(x, mono)
    one = LaurentPoly.one()
    assert one * one == one
    assert LaurentPoly.monomial(2**200, 3) * LaurentPoly.monomial(-(2**200), -3) == P({0: -(2**400)})


def test_sub_equals_adding_the_negation():
    rng = random.Random(77)

    def rand_poly():
        return P({rng.randint(-12, 12): rng.randint(-5, 5) for _ in range(rng.randint(0, 8))})

    for _ in range(500):
        x, y = rand_poly(), rand_poly()
        assert x - y == x + (-y)
        assert x - x == LaurentPoly.zero()


def test_an_int_scales_a_poly_but_is_no_operand_of_a_sum():
    # ``closedform.conway_double_twist`` multiplies by an int; no command
    # adds or subtracts one
    x = P({-1: 2, 3: -1})
    assert 3 * x == x * 3 == P({-1: 6, 3: -3})
    for op in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x):
        with pytest.raises(TypeError):
            op()


def test_poly_to_text_equals_the_reference_renderer():
    rng = random.Random(31337)
    for _ in range(1500):
        bound = rng.choice([1, 2, 9, 2**70])
        poly = P(
            {rng.randint(-30, 30): rng.randint(-bound, bound) for _ in range(rng.randint(0, 12))},
            rng.choice(["A", "z", "t"]),
        )
        for exp_denom in (1, 2, 4):
            assert poly_to_text(poly, exp_denom) == reference_text(poly, exp_denom)
    for poly in (P({0: -1}), P({0: 1}), P({1: -1, 4: 1, -4: -7}), P({2: 1, -2: -1}, "t")):
        for exp_denom in (1, 2, 4):
            assert poly_to_text(poly, exp_denom) == reference_text(poly, exp_denom)
