import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from knotpair import classify
from knotpair.census import dedup_census
from knotpair.classify import (
    DISTINCT_BY_CONWAY,
    DISTINCT_BY_JONES,
    EQUAL_BY_SYMMETRY,
    NECESSARY_CONDITION_FAILS,
    UNRESOLVED,
    Verdict,
    check_identities,
    classify_girth2_even,
    compare,
    cycle_obstruction,
    rep_invariants,
    row_swap_test,
    transposition_test,
)
from knotpair.closedform import bracket_girth3, conway_diff
from knotpair.diagram import pd_from_rep
from knotpair.laurent import LaurentPoly, jones_span_inclusive
from knotpair.oracle import bracket_state_sum, conway_fox
from knotpair.reps import Girth1Rep, Girth2Rep, Girth3Rep, d3_orbit, mirror

from closedform_reference import bracket_single_twist
from diagram_builders import reference_torus2_pd
from template_spy import spy_on_templates


def test_bracket_single_twist_matches_oracle():
    # the K(p) formula and the closed bracket of K(p), that of its padded
    # pair, against the state sum of the closed single ladder
    for p in range(-6, 7):
        want = bracket_state_sum(reference_torus2_pd(p))
        assert bracket_single_twist(p) == bracket_girth3(Girth1Rep(p)) == want, p


def _recurrence_single_twist(p: int) -> LaurentPoly:
    """<K(p)> = A^-1 <K(p-1)> + A (-A^3)^(p-1) from <K(0)> = delta; mirrored for p < 0."""
    if p < 0:
        return _recurrence_single_twist(-p).invert_variable()
    value = LaurentPoly.from_dict({2: -1, -2: -1}, "A")
    a = LaurentPoly.monomial(1, 1, "A")
    for k in range(1, p + 1):
        kink = LaurentPoly.monomial((-1) ** (k - 1), 3 * (k - 1), "A")
        value = a.invert_variable() * value + a * kink
    return value


def test_bracket_single_twist_matches_recurrence():
    for p in range(-60, 61):
        want = _recurrence_single_twist(p)
        assert bracket_single_twist(p) == bracket_girth3(Girth1Rep(p)) == want, p


def test_long_single_twist_bracket_is_linear():
    start = time.perf_counter()
    bracket_girth3(Girth1Rep(20000))
    assert time.perf_counter() - start < 1.0


def test_rep_invariants_checks_the_identities(monkeypatch):
    from knotpair import closedform

    reps = (Girth1Rep(5), Girth2Rep(3, -4), Girth2Rep(3, 5), Girth3Rep((2, 1, -3), (0, 2, 1)))
    for rep in reps:
        rep_invariants(rep)  # silent on the true values
    true_bracket = closedform.bracket_girth3

    def flipped(rep):
        (e, c), *rest = true_bracket(rep).terms
        return LaurentPoly(((e, -c), *rest), "A")

    monkeypatch.setattr(closedform, "bracket_girth3", flipped)
    for rep in reps:
        with pytest.raises(AssertionError):
            rep_invariants(rep)


def test_check_identities_evaluates_knot_jones_at_a_cube_root_of_unity():
    # t - t^2 + t^3 has V(1) = 1 but V(w) = 1 + w - w^2 = 2 + 2w
    jones = LaurentPoly.from_dict({4: 1, 8: -1, 12: 1}, "t")
    with pytest.raises(AssertionError, match="2 pi i/3"):
        check_identities(1, None, jones)
    check_identities(1, None, rep_invariants(Girth2Rep(2, -3)).jones)


def test_check_identities_rejects_a_wrong_value_at_one():
    # t + t^2 has V(1) = 2, not (-2)^0
    with pytest.raises(AssertionError, match=r"^V\(1\) = 2 for a 1-component diagram$"):
        check_identities(1, None, LaurentPoly.from_dict({4: 1, 8: 1}, "t"))
    # a two-component link needs V(1) = -2
    with pytest.raises(AssertionError, match=r"^V\(1\) = 1 for a 2-component diagram$"):
        check_identities(2, None, LaurentPoly.from_dict({2: 1}, "t"))


def test_check_identities_rejects_fractional_powers_of_a_knot():
    # t^(1/2) has V(1) = 1; t^(1/4) - t^(25/4) + t^(1/2) has V(1) = 1 with
    # its fractional residues cancelling
    for jones in ({2: 1}, {1: 1, 25: -1, 2: 1}):
        with pytest.raises(AssertionError, match=r"^knot Jones in fractional powers of t$"):
            check_identities(1, None, LaurentPoly.from_dict(jones, "t"))


def test_check_identities_rejects_odd_conway_powers():
    jones = rep_invariants(Girth2Rep(2, -3)).jones
    with pytest.raises(AssertionError, match=r"^knot Conway in odd powers of z$"):
        check_identities(1, LaurentPoly.from_dict({0: 1, 1: 1}, "z"), jones)


def test_check_identities_compares_the_determinants():
    # the trefoil's |V(-1)| = 3 against the unknot's nabla = 1
    trefoil = rep_invariants(Girth1Rep(3))
    check_identities(1, trefoil.conway, trefoil.jones)
    with pytest.raises(AssertionError, match=r"^\|V\(-1\)\| = 3 but \|nabla\(2i\)\| = 1$"):
        check_identities(1, LaurentPoly.one("z"), trefoil.jones)


def test_check_identities_requires_a_knot_conway_of_one_at_zero():
    # -1 - z^2 has |nabla(2i)| = 3, the trefoil's determinant, but
    # nabla(0) = -1; ``rep_invariants``, and so ``eval`` and ``compare``,
    # checks this as the census does
    trefoil = rep_invariants(Girth1Rep(3))
    with pytest.raises(AssertionError, match=r"^nabla\(0\) = -1 for a knot$"):
        check_identities(1, LaurentPoly.from_dict({0: -1, 2: -1}, "z"), trefoil.jones)


def _nabla_2i_reference(conway):
    """nabla(2i) as the sum of c_2j (-4)^j, one power a term."""
    return sum(c * (-4) ** (e // 2) for e, c in conway.terms)


def test_nabla_2i_equals_the_term_sum_on_the_census_conway_values(monkeypatch):
    seen = []
    real = classify._nabla_2i

    def spy(conway):
        seen.append(conway)
        return real(conway)

    monkeypatch.setattr(classify, "_nabla_2i", spy)
    dedup_census(3, 2)
    dedup_census(2, 12)
    rep_invariants(Girth2Rep(-464, 29))
    assert len(seen) > 200 and len(seen[-1].terms) == 233
    for conway in seen:
        assert real(conway) == _nabla_2i_reference(conway), conway


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 60), st.integers(-(2**70), 2**70), max_size=20))
def test_nabla_2i_equals_the_term_sum(coeffs):
    # sparse polynomials in z^2, gaps and a zero constant term included
    conway = LaurentPoly.from_dict({2 * j: c for j, c in coeffs.items()}, "z")
    assert classify._nabla_2i(conway) == _nabla_2i_reference(conway)


def test_classify_girth2_even_examples():
    v = classify_girth2_even(2, 8, 4, 4)
    assert v.tag == DISTINCT_BY_JONES
    assert "10" in v.note and "8" in v.note
    assert classify_girth2_even(2, 4, 4, 2).tag == EQUAL_BY_SYMMETRY
    v = classify_girth2_even(2, 6, 2, 8)
    assert v.tag == DISTINCT_BY_CONWAY
    assert v.evidence == LaurentPoly.from_dict({2: -1}, "z")  # 3z^2 vs 4z^2
    with pytest.raises(ValueError):
        classify_girth2_even(2, 3, 2, 2)
    with pytest.raises(ValueError):
        classify_girth2_even(2, -2, 2, 2)


def test_verdict_requires_evidence():
    with pytest.raises(ValueError):
        Verdict(DISTINCT_BY_CONWAY)


def test_transposition_test_examples():
    # q = r makes the a<->c swap a symmetry
    v = transposition_test(Girth3Rep((2, 4, 4), (2, 4, 6)), "swap_ac")
    assert v.tag == EQUAL_BY_SYMMETRY
    v = transposition_test(Girth3Rep((2, 4, 6), (2, 4, 6)), "swap_ab")
    assert v.tag == DISTINCT_BY_CONWAY
    assert v.evidence == LaurentPoly.from_dict({2: 2}, "z")
    v = transposition_test(Girth3Rep((2, 4, 6), (4, 4, 4)), "swap_ab")
    assert v.tag == EQUAL_BY_SYMMETRY  # a = b fixes the swap


def test_transposition_symmetry_witness_is_oracle_true():
    # when the difference vanishes, the permuted diagram itself has the
    # same Fox-calculus Conway polynomial
    rep = Girth3Rep((2, 4, 4), (2, 2, 4))
    from knotpair.closedform import permute_bottom

    v = transposition_test(rep, "swap_ac")
    if v.tag == EQUAL_BY_SYMMETRY:
        a = conway_fox(pd_from_rep(rep))
        b = conway_fox(pd_from_rep(permute_bottom(rep, "swap_ac")))
        assert a == b


def test_cycle_obstruction_paper_example():
    rep = Girth3Rep((4, 8, 12), (4, 6, 2))
    v = cycle_obstruction(rep, "cycle_cab")
    assert v.tag == DISTINCT_BY_JONES
    assert v.evidence is not None and not v.evidence.is_zero()


def test_cycle_obstruction_unresolved_on_fixed_point():
    v = cycle_obstruction(Girth3Rep((2, 2, 2), (2, 2, 2)), "cycle_cab")
    assert v.tag == UNRESOLVED


def test_cycle_obstruction_random_distinct_rows():
    rng = random.Random(17)
    hits = 0
    for _ in range(20):
        rep = Girth3Rep(
            tuple(2 * rng.randint(1, 6) for _ in range(3)),
            tuple(2 * rng.randint(1, 6) for _ in range(3)),
        )
        from knotpair.closedform import int_cycle_det

        if int_cycle_det(rep, "cycle_bca") != 0:
            v = cycle_obstruction(rep, "cycle_bca")
            assert v.tag == DISTINCT_BY_CONWAY
            hits += 1
    assert hits > 10


def test_cycle_obstruction_refuses_a_name_that_is_no_3_cycle():
    # the closed form checks the name; the parity check comes first
    rep = Girth3Rep((2, 4, 6), (2, 4, 8))
    with pytest.raises(ValueError, match=r"^not a 3-cycle: 'swap_ab'$"):
        cycle_obstruction(rep, "swap_ab")
    with pytest.raises(ValueError, match="labels must be even"):
        cycle_obstruction(Girth3Rep((2, 4, 6), (2, 4, 7)), "swap_ab")
    with pytest.raises(ValueError, match="unknown bottom permutation"):
        conway_diff(rep, "swap_pa")


def test_row_swap_test_clauses():
    # p != a and q = c = 0: proceed to the direct comparison
    v = row_swap_test(Girth3Rep((2, 0, 4), (6, 2, 0)))
    assert v.tag in (UNRESOLVED, DISTINCT_BY_JONES)
    # p != a, q = c and b = r: condition (2)
    v = row_swap_test(Girth3Rep((2, 4, 6), (8, 6, 4)))
    assert v.tag in (UNRESOLVED, DISTINCT_BY_JONES)
    # p != a and q != c: the necessary condition fails
    v = row_swap_test(Girth3Rep((2, 4, 6), (8, 2, 2)))
    assert v.tag == NECESSARY_CONDITION_FAILS
    assert not v.evidence.is_zero()
    # p = a is trivially symmetric
    assert row_swap_test(Girth3Rep((2, 4, 6), (2, 2, 2))).tag == EQUAL_BY_SYMMETRY


def test_compare_examples():
    assert compare(Girth2Rep(2, 8), Girth2Rep(4, 4)).tag == DISTINCT_BY_JONES
    r = Girth3Rep((2, 4, 6), (2, 2, 4))
    for member in d3_orbit(r):
        assert compare(r, member).tag == EQUAL_BY_SYMMETRY
    assert (
        compare(Girth3Rep((4, 8, 12), (4, 6, 2)), Girth3Rep((4, 8, 12), (2, 4, 6))).tag
        == DISTINCT_BY_JONES
    )
    assert compare(Girth2Rep(2, 6), Girth2Rep(2, 8)).tag == DISTINCT_BY_CONWAY


def test_compare_mirror_flag():
    r = Girth2Rep(2, 2)
    assert compare(r, mirror(r)).tag == DISTINCT_BY_JONES
    assert compare(r, mirror(r), mirror_ok=True).tag == EQUAL_BY_SYMMETRY


def test_compare_consistency_with_oracle_small_grid():
    # soundness spot check: compare never separates representations whose
    # oracle invariants agree, and never claims symmetry when Jones differ
    from knotpair.classify import jones_equal
    from knotpair.laurent import jones_from_bracket
    from knotpair.diagram import orient

    def oracle_jones(rep):
        pd = pd_from_rep(rep)
        return jones_from_bracket(bracket_state_sum(pd), orient(pd).writhe)

    reps = [
        Girth2Rep(p, q) for p, q in itertools.product((2, 4), repeat=2)
    ] + [Girth3Rep((2, 2, 2), (2, 2, 2)), Girth3Rep((2, 2, 2), (2, 2, 4))]
    for r1 in reps:
        for r2 in reps:
            verdict = compare(r1, r2)
            j_equal = oracle_jones(r1) == oracle_jones(r2)
            if verdict.tag in (DISTINCT_BY_JONES,):
                assert not j_equal, (r1, r2)
            if verdict.tag == EQUAL_BY_SYMMETRY:
                assert j_equal, (r1, r2)


def test_rep_invariants_components_and_conway():
    inv = rep_invariants(Girth1Rep(2))
    assert inv.components == 2 and inv.conway is None
    inv = rep_invariants(Girth2Rep(2, -3))
    assert inv.components == 1
    assert inv.conway == LaurentPoly.from_dict({2: 2, 0: 1}, "z")  # 5_2 family
    inv = rep_invariants(Girth3Rep((2, 2, 2), (2, 2, 2)))
    assert inv.conway == LaurentPoly.from_dict({4: 9, 2: 6, 0: 1}, "z")


def test_verdict_json_round_trip():
    import json

    v = classify_girth2_even(2, 8, 4, 4)
    obj = json.loads(json.dumps(v.to_json_dict()))
    assert obj["verdict"] == DISTINCT_BY_JONES


@pytest.mark.parametrize(
    "rep",
    [
        Girth2Rep(1000, 1000),
        Girth3Rep((-300, 211, 97), (150, -64, 288)),
        Girth1Rep(2000),
        Girth3Rep((-301, 212, 98), (151, -64, 288)),
    ],
)
def test_rep_invariants_builds_only_small_templates(monkeypatch, rep):
    # a girth-2 or girth-3 rep, knot or link, reads the frozen table, and
    # K(p) the parity of p: no rep builds or orients a template
    calls = spy_on_templates(monkeypatch)
    rep_invariants(rep)
    assert calls == []


def test_census_builds_at_most_one_template_per_rep(monkeypatch, tmp_path):
    from knotpair import cli
    from knotpair.census import census_enumerate, dedup_census

    g2 = census_enumerate(2, 12)
    calls = spy_on_templates(monkeypatch)
    for girth, max_abs in ((3, 2), (2, 12)):
        classes = dedup_census(girth, max_abs)
        links = [rep for cls in classes for rep in cls.members if cls.components > 1]
        # knots and links alike read the frozen table
        assert 0 < len(links) < sum(len(cls.members) for cls in classes)
    out = tmp_path / "census.csv"
    assert cli.main(["census", "--girth", "2", "--max", "12", "--output", str(out)]) == 0
    assert out.read_text().count("\n") == 1 + len(g2)
    assert calls == []
