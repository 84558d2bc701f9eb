import itertools
import random
from fractions import Fraction

import pytest

from knotpair.closedform import (
    OPPOSITE_DIRECTIONS,
    SAME_DIRECTION,
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
    nabla_same,
    permute_bottom,
    s_hat,
    s_poly,
    shat_cycle_det,
    swap_pa,
    sym_s,
)
from knotpair.diagram import pd_from_rep
from knotpair.laurent import LaurentPoly, chebyshev_U, lp_extremes
from knotpair.oracle import conway_fox
from knotpair.reps import Girth3Rep

PERMS = ("swap_ab", "swap_bc", "swap_ac", "cycle_cab", "cycle_bca")


def Z(d):
    return LaurentPoly.from_dict(d, "z")


def A(d):
    return LaurentPoly.from_dict(d, "A")


def test_conway_single_twist_examples():
    assert conway_single_twist(1, SAME_DIRECTION) == Z({0: 1})
    assert conway_single_twist(4, OPPOSITE_DIRECTIONS) == Z({1: 2})
    assert conway_single_twist(3, SAME_DIRECTION) == Z({2: 1, 0: 1})
    assert conway_single_twist(-4, OPPOSITE_DIRECTIONS) == Z({1: 2})
    with pytest.raises(ValueError):
        conway_single_twist(3, OPPOSITE_DIRECTIONS)


def test_nabla_sign_extension():
    for p in range(1, 9):
        if p % 2:
            assert nabla_same(-p) == nabla_same(p)
        else:
            assert nabla_same(-p) == -nabla_same(p)


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
        assert nabla_same(p) == nabla_by_skein(p), p


def test_nabla_at_one_is_fibonacci_without_recursion_depth():
    fib = [0, 1]
    while len(fib) <= 1500:
        fib.append(fib[-1] + fib[-2])
    assert nabla_same(1500).evaluate(1) == fib[1500]
    assert nabla_same(-1500).evaluate(1) == -fib[1500]


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
            assert nabla_same(p).evaluate(t) == expected, (p, t)


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
            lo, hi, _ = lp_extremes(b)
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
    for n in range(9):
        assert lp_extremes(chebyshev_U(n))[1] == n
