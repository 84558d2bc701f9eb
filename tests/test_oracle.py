import random

import pytest

from knotpair.diagram import PDCode, pd_from_rep, pd_from_text
from knotpair.laurent import LaurentPoly, jones_from_bracket, poly_to_text
from knotpair.oracle import (
    OracleSizeError,
    _interpolate_integer_poly,
    bracket_state_sum,
    components,
    conway_fox,
    writhe,
)
from knotpair.reps import Girth1Rep, Girth2Rep, Girth3Rep


def A(d):
    return LaurentPoly.from_dict(d, "A")


def Z(d):
    return LaurentPoly.from_dict(d, "z")


def jones(pd):
    return jones_from_bracket(bracket_state_sum(pd), writhe(pd))


def add_kink(pd: PDCode, positive: bool) -> PDCode:
    """Insert a Reidemeister-I kink on arc 1."""
    m = max(a for c in pd.crossings for a in c)
    loop, cont = m + 1, m + 2
    occ = [(ci, s) for ci, c in enumerate(pd.crossings) for s in range(4) if c[s] == 1]
    ci, s = occ[0]
    crossings = [list(c) for c in pd.crossings]
    crossings[ci][s] = cont
    kink = (1, loop, loop, cont) if positive else (1, cont, loop, loop)
    return PDCode(tuple(tuple(c) for c in crossings) + (kink,), pd.free_loops)


def test_bracket_of_circles():
    assert bracket_state_sum(PDCode((), 1)) == A({0: 1})
    assert bracket_state_sum(PDCode((), 2)) == A({2: -1, -2: -1})


def test_bracket_of_single_kink_matches_hand_computation():
    # one-crossing kink: A * delta + 1/A or the mirror, i.e. -A^(+-3)
    got = bracket_state_sum(pd_from_rep(Girth1Rep(1)))
    assert got in (A({3: -1}), A({-3: -1}))


def test_bracket_of_hopf_matches_hand_computation():
    got = bracket_state_sum(pd_from_rep(Girth1Rep(2)))
    assert got in (A({4: -1, -4: -1}),)


def test_bracket_invariant_under_relabeling_and_reordering():
    pd = pd_from_rep(Girth2Rep(2, -3))
    b = bracket_state_sum(pd)
    rng = random.Random(7)
    arcs = sorted({a for c in pd.crossings for a in c})
    for _ in range(5):
        perm = dict(zip(arcs, rng.sample(arcs, len(arcs))))
        crossings = [tuple(perm[a] for a in c) for c in pd.crossings]
        rng.shuffle(crossings)
        rotated = []
        for c in crossings:
            # rotating a tuple by two keeps the under-strand in place
            rotated.append(c if rng.random() < 0.5 else (c[2], c[3], c[0], c[1]))
        assert bracket_state_sum(PDCode(tuple(rotated))) == b


def test_bracket_cap_refusal():
    pd = pd_from_rep(Girth2Rep(8, 8))
    with pytest.raises(OracleSizeError):
        bracket_state_sum(pd, cap=10)


def test_disjoint_union_multiplies_by_loop_value():
    pd1 = pd_from_rep(Girth1Rep(3))
    pd2 = pd_from_rep(Girth2Rep(2, -2))
    shift = max(a for c in pd1.crossings for a in c)
    merged = PDCode(
        pd1.crossings + tuple(tuple(a + shift for a in c) for c in pd2.crossings)
    )
    delta = A({2: -1, -2: -1})
    assert bracket_state_sum(merged) == delta * bracket_state_sum(
        pd1
    ) * bracket_state_sum(pd2)


def test_jones_invariant_under_reidemeister_one():
    pd = pd_from_rep(Girth2Rep(2, 2))
    j = jones(pd)
    for positive in (True, False):
        kinked = add_kink(pd, positive)
        assert kinked.n() == pd.n() + 1
        assert jones(kinked) == j


def test_writhe_values():
    assert writhe(pd_from_rep(Girth1Rep(0))) == 0
    assert abs(writhe(pd_from_rep(Girth3Rep((2, 2, 2), (2, 2, 2))))) == 12
    for rep in (Girth2Rep(2, 4), Girth3Rep((2, 4, 2), (2, 2, 6))):
        pd = pd_from_rep(rep)
        assert writhe(pd) == sum(
            rep.top + rep.bottom if isinstance(rep, Girth3Rep) else (rep.p, rep.q)
        )


def test_components_examples():
    assert components(pd_from_rep(Girth2Rep(2, 2))) == 1
    assert components(pd_from_rep(Girth1Rep(2))) == 2  # Hopf-type link
    assert components(PDCode((), 1)) == 1


def test_conway_unknot_and_small_examples():
    assert conway_fox(PDCode((), 1)) == Z({0: 1})
    assert conway_fox(pd_from_rep(Girth2Rep(2, 2))) == Z({2: 1, 0: 1})
    assert conway_fox(pd_from_rep(Girth2Rep(2, -2))) == Z({2: -1, 0: 1})
    assert conway_fox(pd_from_rep(Girth3Rep((2, 2, 2), (2, 2, 2)))) == Z(
        {4: 9, 2: 6, 0: 1}
    )


def test_conway_refuses_links():
    with pytest.raises(ValueError):
        conway_fox(pd_from_rep(Girth1Rep(2)))


def test_conway_properties_structural():
    rng = random.Random(11)
    for _ in range(10):
        p = 2 * rng.randint(1, 3)
        q = 2 * rng.randint(-3, 3)
        nab = conway_fox(pd_from_rep(Girth2Rep(p, q)))
        assert nab.coeff(0) == 1
        assert all(e % 2 == 0 for e, _ in nab.terms)


def test_conway_same_direction_twist_chain():
    # odd closed twist chains realize the Conway ladder nabla_p
    from knotpair.closedform import nabla_same

    for p in (1, 3, 5, 7, -3, -5):
        assert conway_fox(pd_from_rep(Girth1Rep(p))) == nabla_same(p)


def test_skein_relation_across_even_twist_family():
    # switching one crossing in the p-region steps p by two; the oriented
    # smoothing leaves the closed q-region with antiparallel strands, so
    # nabla(K(p,q)) - nabla(K(p-2,q)) = +- z * (q/2) z
    for q in (2, 4, 6):
        for p in (4, 2, 6):
            lhs = conway_fox(pd_from_rep(Girth2Rep(p, q))) - conway_fox(
                pd_from_rep(Girth2Rep(p - 2, q))
            )
            assert lhs == Z({2: q // 2})


def test_fixture_knot_8_18_not_required():
    # the paper leaves 8_18 without a representation; the oracle still
    # handles its standard braid-closure diagram
    from knotpair.diagram import braid_closure_pd

    pd = braid_closure_pd([1, -2] * 4, 3)
    nab = conway_fox(pd)
    assert nab.coeff(0) == 1
    assert poly_to_text(nab) == "1 + z^2 - z^4 - z^6"
    assert abs(sum(c * (-4) ** (e // 2) for e, c in nab.terms)) == 45


def test_newton_interpolation_recovers_integer_polynomials():
    rng = random.Random(7)
    for degree in range(24):
        for _ in range(3):
            coeffs = [rng.randint(-10**6, 10**6) for _ in range(degree + 1)]
            points = list(range(2, degree + 3))
            values = [sum(c * x**e for e, c in enumerate(coeffs)) for x in points]
            assert _interpolate_integer_poly(points, values) == coeffs


def test_newton_interpolation_rejects_non_integral_data():
    # x(x - 1)/2 takes integer values everywhere but is not integral
    points = [2, 3, 4]
    with pytest.raises(ValueError):
        _interpolate_integer_poly(points, [x * (x - 1) // 2 for x in points])
    with pytest.raises(ValueError):
        _interpolate_integer_poly([2, 4], [0, 1])  # slope 1/2
