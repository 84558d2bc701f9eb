"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every expected value here is either produced by an independent oracle
(state sum, Fox calculus) inside the test run, or is an exactly quoted
closed-form value verified against those oracles.
"""

import itertools
import random
import time

from knotpair import classify, closedform as cf, oracle
from knotpair.census import census_enumerate, dedup_census, verify_table
from knotpair.diagram import pd_from_rep, orient
from knotpair.girth import diagram_girth, rep_from_decomposition
from knotpair.laurent import (
    LaurentPoly,
    jones_from_bracket,
    jones_span_inclusive,
)
from knotpair.reps import Girth2Rep, Girth3Rep, canonicalize, d3_orbit, rep_from_labels
from knotpair.tables import TABLE_ERRATA

from girth_reference import decompositions_of_girth


def report(criterion: str, started: float) -> None:
    print(f"PASS  {criterion}  ({time.time() - started:.1f}s)")


def test_criterion_01_double_twist_bracket_agreement():
    t0 = time.time()
    for p in range(-4, 5):
        for q in range(-4, 5):
            pd = pd_from_rep(Girth2Rep(p, q))
            assert oracle.bracket_state_sum(pd) == cf.bracket_double_twist(p, q), (
                p,
                q,
            )
    assert time.time() - t0 < 60
    report("1: bracket_double_twist == state sum, 81 cases |p|,|q|<=4", t0)


def test_criterion_02_girth3_bracket_agreement_random():
    t0 = time.time()
    rng = random.Random(46116)
    for _ in range(200):
        rep = Girth3Rep(
            tuple(rng.randint(-3, 3) for _ in range(3)),
            tuple(rng.randint(-3, 3) for _ in range(3)),
        )
        pd = pd_from_rep(rep)
        assert oracle.bracket_state_sum(pd) == cf.bracket_poly(cf.bracket_girth3(rep)), rep
    assert time.time() - t0 < 300
    report("2: bracket_girth3 == state sum, 200 random reps in [-3,3]", t0)


def test_criterion_03_girth3_conway_agreement_even_grid():
    t0 = time.time()
    count = 0
    for labels in itertools.product((0, 2, 4), repeat=6):
        rep = Girth3Rep(labels[:3], labels[3:])
        pd = pd_from_rep(rep)
        assert oracle.conway_fox(pd) == cf.conway_girth3_even(rep), labels
        count += 1
    assert count == 729
    report("3: conway_girth3_even == Fox oracle, 729 even cases <= 4", t0)


def test_criterion_04_paper_determinant_values():
    t0 = time.time()
    rep = Girth3Rep((4, 8, 12), (4, 6, 2))
    assert cf.int_cycle_det(rep, "cycle_cab") == 0
    s_det = cf.shat_cycle_det(rep, "cycle_cab")
    denom = LaurentPoly.from_dict({2: 1, -2: 1}, "A") ** 2
    target = LaurentPoly.from_dict({32: 1, 40: -2, 56: 2, 64: -1}, "A")
    assert s_det * denom == target
    assert not s_det.is_zero()
    report("4: integer det 0 and S-det (A^32-2A^40+2A^56-A^64)/(A^2+A^-2)^2", t0)


def test_criterion_05_conway_collision_resolved_by_jones():
    t0 = time.time()
    nabla = LaurentPoly.from_dict({0: 1, 2: 4}, "z")
    assert cf.conway_double_twist(2, 8) == nabla
    assert cf.conway_double_twist(4, 4) == nabla
    r1, r2 = Girth2Rep(2, 8), Girth2Rep(4, 4)
    inv1 = classify.rep_invariants(r1)
    inv2 = classify.rep_invariants(r2)
    assert jones_span_inclusive(inv1.jones_poly()) == len(inv1.jones) == 10
    assert jones_span_inclusive(inv2.jones_poly()) == len(inv2.jones) == 8
    assert classify.compare(r1, r2).tag == classify.DISTINCT_BY_JONES
    report("5: K(2,8)/K(4,4) same Conway 1+4z^2, spans 10/8, DistinctByJones", t0)


def test_criterion_06_jones_span_law():
    t0 = time.time()
    for p in range(2, 9):
        for q in range(2, 9):
            rep = Girth2Rep(p, q)
            pd = pd_from_rep(rep)
            jones = jones_from_bracket(cf.bracket_double_twist(p, q), orient(pd).writhe)
            assert jones_span_inclusive(jones) == p + q, (p, q)
    report("6: Jones span of K(p,q) = p+q for 2 <= p,q <= 8", t0)


def test_criterion_07_theorem_census_fifteen_classes():
    t0 = time.time()
    reps = census_enumerate(2, 10, even_only=True, positive_only=True)
    classes = dedup_census(2, 10, even_only=True, positive_only=True)
    assert len(classes) == 15
    multisets = {tuple(sorted((r.p, r.q))) for r in reps}
    assert len(multisets) == 15
    assert all(len(c.members) == 1 for c in classes)
    report("7: even positive labels <= 10 give exactly 15 invariant classes", t0)


def test_criterion_08_symmetry_suites():
    t0 = time.time()
    # girth 2: the pair symmetry and the +-1 reduction, exhaustive <= 4,
    # closed form and oracle
    for p in range(-4, 5):
        for q in range(-4, 5):
            assert cf.bracket_double_twist(p, q) == cf.bracket_double_twist(q, p)
            if p % 2 == 0 or q % 2 == 0:
                # knots only: for odd/odd pairs the pair swap moves the
                # orientation convention of the two-component link, and the
                # oriented Conway value moves with it
                assert cf.conway_double_twist(p, q) == cf.conway_double_twist(q, p)
            rep = Girth2Rep(p, q)
            canon = rep_from_labels(canonicalize(rep))
            j1 = jones_from_bracket(
                cf.bracket_poly(cf.bracket_girth3(rep)), orient(pd_from_rep(rep)).writhe
            )
            j2 = jones_from_bracket(
                cf.bracket_poly(cf.bracket_girth3(canon)), orient(pd_from_rep(canon)).writhe
            )
            multi = (p % 2 != 0) and (q % 2 != 0)
            assert classify.jones_equal(j1, j2, unit_shift=multi), (p, q)
    # girth 3: closed forms constant on every wheel-symmetry orbit;
    # exhaustive for |labels| <= 2, seeded samples across |labels| <= 4
    def assert_orbit_constant(rep: Girth3Rep) -> None:
        b = cf.bracket_poly(cf.bracket_girth3(rep))
        for member in d3_orbit(rep):
            assert cf.bracket_poly(cf.bracket_girth3(member)) == b, (rep, member)

    for labels in itertools.product((-2, -1, 0, 1, 2), repeat=3):
        assert_orbit_constant(Girth3Rep(labels, (1, -2, 2)))
        assert_orbit_constant(Girth3Rep((1, 0, -2), labels))
    rng = random.Random(77)
    for _ in range(500):
        rep = Girth3Rep(
            tuple(rng.randint(-4, 4) for _ in range(3)),
            tuple(rng.randint(-4, 4) for _ in range(3)),
        )
        assert_orbit_constant(rep)
    for labels in itertools.product((2, 4), repeat=6):
        rep = Girth3Rep(labels[:3], labels[3:])
        base = cf.conway_girth3_even(rep)
        for member in d3_orbit(rep):
            assert cf.conway_girth3_even(member) == base
    report("8: closed forms constant on orbits and under pair reductions", t0)


def test_criterion_09_difference_formulas():
    t0 = time.time()
    rng = random.Random(910)
    perms = ("swap_ab", "swap_bc", "swap_ac", "cycle_cab", "cycle_bca")
    for _ in range(100):
        rep = Girth3Rep(
            tuple(2 * rng.randint(1, 6) for _ in range(3)),
            tuple(2 * rng.randint(1, 6) for _ in range(3)),
        )
        for perm in perms:
            direct_c = cf.conway_girth3_even(rep) - cf.conway_girth3_even(
                cf.permute_bottom(rep, perm)
            )
            assert cf.conway_diff(rep, perm) == direct_c
            assert cf.bracket_diff_formula(rep, perm) == cf.bracket_diff(rep, perm)
    # the resolved factor: 1 - (-A^2 - A^-2)^2, not the A^-1 variant
    assert cf.diff_factor() == LaurentPoly.from_dict({4: -1, 0: -1, -4: -1}, "A")
    report("9: all difference formulas match direct subtraction, 100 random reps", t0)


def test_criterion_10_row_swap_theorem_exhaustive():
    t0 = time.time()
    cache: dict = {}

    def bracket(rep: Girth3Rep) -> LaurentPoly:
        if rep not in cache:
            cache[rep] = cf.bracket_poly(cf.bracket_girth3(rep))
        return cache[rep]

    counterexamples = []
    equal_pairs = 0
    for labels in itertools.product((2, 4, 6), repeat=6):
        rep = Girth3Rep(labels[:3], labels[3:])
        (p, q, r), (a, b, c) = rep.top, rep.bottom
        if p == a:
            continue
        if bracket(rep) == bracket(cf.swap_pa(rep)):
            equal_pairs += 1
            if not (q == c == 0 or (q == c and b == r)):
                counterexamples.append(rep)
    assert not counterexamples, counterexamples[:3]
    report(
        f"10: row-swap necessary condition holds on the even [2,6] grid "
        f"({equal_pairs} bracket-equal pairs, 0 counterexamples)",
        t0,
    )


def test_criterion_11_girth_pipeline_and_table():
    t0 = time.time()
    rep = Girth3Rep((0, 2, 2), (0, -1, -1))
    pd = pd_from_rep(rep)
    g, _ = diagram_girth(pd)
    assert g <= 3
    target = canonicalize(rep)
    recovered = set()
    for d in decompositions_of_girth(pd, g):
        rec = rep_from_decomposition(d)
        if isinstance(rec, Girth3Rep):
            recovered.add(canonicalize(rec))
    assert target in recovered

    results = verify_table(max_crossings=7, apply_errata=True)
    knots = [r for r in results if "^" not in r.name]
    assert knots and all(r.status == "PASS" for r in knots), [
        (r.name, r.status) for r in knots if r.status != "PASS"
    ]
    # the erratum list is data: exactly the documented rows fail as printed
    printed = verify_table(max_crossings=7, apply_errata=False)
    assert {r.name for r in printed if r.status == "FAIL"} == set(TABLE_ERRATA)
    report(
        "11: figure-2 wheel recovered at girth 3; all knot entries <= 7 "
        "crossings verify against reference diagrams (2 documented errata)",
        t0,
    )


def test_criterion_12_s_polynomial_identities():
    t0 = time.time()
    two_cosh = LaurentPoly.from_dict({2: 1, -2: 1}, "A")
    for q in range(-10, 11):
        if q == 0:
            assert cf.s_poly(0).is_zero()
            continue
        lhs = cf.s_hat(q) * two_cosh
        # geometric-series ratio -A^4: even q reproduces 1 - A^(4q)
        rhs = LaurentPoly.from_dict({0: 1, 4 * q: -((-1) ** q)}, "A")
        assert lhs == rhs, q
        assert cf.s_poly(-q) == cf.s_poly(q).invert_variable(), q
    report("12: S-hat identity and S_(-p)(A) = S_p(1/A) for |q|,|p| <= 10", t0)
