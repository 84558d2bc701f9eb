import ast
import functools
import itertools
import os
import random
import time
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

from knotpair import oracle
from knotpair.closedform import bracket_girth3, bracket_poly
from knotpair.diagram import (
    InvalidPDError,
    PDCode,
    join_ends,
    orient,
    pd_from_json,
    pd_from_rep,
    pd_from_text,
    validate_pd,
)
from knotpair.laurent import LaurentPoly, jones_from_bracket, poly_to_text
from knotpair.oracle import (
    OracleSizeError,
    _alexander,
    _bareiss_det,
    _digits,
    _normalize_alexander_to_conway,
    _sweep_order,
    _times_delta_power,
    bracket_state_sum,
    conway_fox,
)
from knotpair.reps import Girth1Rep, Girth2Rep, Girth3Rep, parse_rep

import fox_reference
from fox_reference import _interpolate_integer_poly, conway_fox_reference
from diagram_builders import braid_closure_pd


def A(d):
    return LaurentPoly.from_dict(d, "A")


def Z(d):
    return LaurentPoly.from_dict(d, "z")


def jones(pd):
    return jones_from_bracket(bracket_state_sum(pd), orient(pd).writhe)


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
    # both oracles refuse through the one budget check, with one message
    pd = pd_from_rep(Girth2Rep(8, 7))  # a 15-crossing knot
    for oracle in (bracket_state_sum, conway_fox):
        with pytest.raises(OracleSizeError) as err:
            oracle(pd, cap=14)
        assert str(err.value) == "15 crossings exceeds the oracle budget of 14 crossings"


def test_disjoint_union_multiplies_by_loop_value():
    pd1 = pd_from_rep(Girth1Rep(3))
    pd2 = pd_from_rep(Girth2Rep(2, -2))
    merged = disjoint_union([pd1, pd2])
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
    assert orient(pd_from_rep(Girth1Rep(0))).writhe == 0
    assert abs(orient(pd_from_rep(Girth3Rep((2, 2, 2), (2, 2, 2)))).writhe) == 12
    for rep in (Girth2Rep(2, 4), Girth3Rep((2, 4, 2), (2, 2, 6))):
        pd = pd_from_rep(rep)
        assert orient(pd).writhe == sum(
            rep.top + rep.bottom if isinstance(rep, Girth3Rep) else (rep.p, rep.q)
        )


def test_components_examples():
    assert orient(pd_from_rep(Girth2Rep(2, 2))).n_components == 1
    assert orient(pd_from_rep(Girth1Rep(2))).n_components == 2  # Hopf-type link
    assert orient(PDCode((), 1)).n_components == 1


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
        assert dict(nab.terms).get(0, 0) == 1
        assert all(e % 2 == 0 for e, _ in nab.terms)


def test_conway_same_direction_twist_chain():
    # odd closed twist chains realize the Conway ladder nabla_p
    from knotpair.closedform import conway_single_twist

    for p in (1, 3, 5, 7, -3, -5):
        assert conway_fox(pd_from_rep(Girth1Rep(p))) == conway_single_twist(p)


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
    pd = braid_closure_pd([1, -2] * 4, 3)
    nab = conway_fox(pd)
    assert dict(nab.terms).get(0, 0) == 1
    assert poly_to_text(nab) == "1 + z^2 - z^4 - z^6"
    assert abs(sum(c * (-4) ** (e // 2) for e, c in nab.terms)) == 45


# ---------------------------------------------------------------------------
# the frontier sweep against the 2^n state walk it replaced


def bracket_state_sum_dfs(pd: PDCode) -> LaurentPoly:
    """Sum A^(#A - #B) * delta^(loops - 1) over all smoothing states.

    delta = -A^2 - A^(-2); a single crossing-free circle has bracket 1.
    The enumeration walks the binary smoothing tree with a rollback
    union-find so each state only pays for its incremental merges.
    """
    n = pd.n()
    if n == 0:
        if pd.free_loops == 0:
            raise ValueError("empty diagram has no bracket")
        return _dfs_delta_power(pd.free_loops - 1)

    # ports are flattened as 4*ci + slot; arcs glue ports pairwise
    occ: dict[int, list[int]] = {}
    for ci, cr in enumerate(pd.crossings):
        for slot, a in enumerate(cr):
            occ.setdefault(a, []).append(4 * ci + slot)

    parent = list(range(4 * n))
    size = [1] * (4 * n)

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    trail: list[int] = []

    def union(x: int, y: int) -> int:
        rx, ry = find(x), find(y)
        if rx == ry:
            return 0
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        size[rx] += size[ry]
        trail.append(ry)
        return 1

    def rollback(mark: int) -> None:
        while len(trail) > mark:
            ry = trail.pop()
            size[parent[ry]] -= size[ry]
            parent[ry] = ry

    base_merges = 0
    for ports in occ.values():
        base_merges += union(ports[0], ports[1])
    assert base_merges == 2 * n

    # smoothing A joins slots (0,1) and (2,3); B joins (0,3) and (1,2)
    pair_a = [(4 * ci, 4 * ci + 1, 4 * ci + 2, 4 * ci + 3) for ci in range(n)]
    pair_b = [(4 * ci, 4 * ci + 3, 4 * ci + 1, 4 * ci + 2) for ci in range(n)]

    counts: dict[tuple[int, int], int] = {}

    def recurse(ci: int, merges: int, diff: int) -> None:
        if ci == n:
            loops = 2 * n - merges + pd.free_loops
            key = (diff, loops)
            counts[key] = counts.get(key, 0) + 1
            return
        for delta_diff, (w, x, yy, zz) in ((1, pair_a[ci]), (-1, pair_b[ci])):
            mark = len(trail)
            m = union(w, x) + union(yy, zz)
            recurse(ci + 1, merges + m, diff + delta_diff)
            rollback(mark)

    recurse(0, 0, 0)

    total: dict[int, int] = {}
    for (diff, loops), mult in counts.items():
        contrib = _dfs_delta_power(loops - 1).shift(diff)
        for e, c in contrib.terms:
            total[e] = total.get(e, 0) + c * mult
    return LaurentPoly.from_dict(total, "A")


_DFS_DELTA_POWERS: list[LaurentPoly] = []


def _dfs_delta_power(k: int) -> LaurentPoly:
    """delta^k with delta = -A^2 - A^(-2), cached."""
    while len(_DFS_DELTA_POWERS) <= k:
        if not _DFS_DELTA_POWERS:
            _DFS_DELTA_POWERS.append(LaurentPoly.one("A"))
        else:
            _DFS_DELTA_POWERS.append(
                _DFS_DELTA_POWERS[-1] * LaurentPoly.from_dict({2: -1, -2: -1}, "A")
            )
    return _DFS_DELTA_POWERS[k]


def scramble(pd: PDCode, rng: random.Random) -> PDCode:
    """The same diagram with arcs renamed, crossings reordered and some
    crossings half-turned (a half turn keeps the under-strand in slots 0, 2)."""
    arcs = sorted({a for c in pd.crossings for a in c})
    rename = dict(zip(arcs, rng.sample(range(-len(arcs), 3 * len(arcs)), len(arcs))))
    crossings = [tuple(rename[a] for a in c) for c in pd.crossings]
    rng.shuffle(crossings)
    crossings = [c[2:] + c[:2] if rng.random() < 0.5 else c for c in crossings]
    return PDCode(tuple(crossings), pd.free_loops)


def fixture_pds() -> list[tuple[str, PDCode]]:
    root = resources.files("knotpair").joinpath("fixtures").joinpath("rolfsen")
    files = sorted(
        (f for f in root.iterdir() if f.name.endswith(".pd.json")), key=lambda f: f.name
    )
    return [(f.name, pd_from_json(f.read_text())) for f in files]


def random_girth3(rng: random.Random, max_crossings: int) -> Girth3Rep:
    while True:
        labels = [rng.randint(-3, 3) for _ in range(6)]
        if 1 <= sum(map(abs, labels)) <= max_crossings:
            return Girth3Rep(tuple(labels[:3]), tuple(labels[3:]))


def test_sweep_equals_state_walk_on_the_fixtures():
    pds = fixture_pds()
    assert len(pds) == 18
    rng = random.Random(2024)
    for name, pd in pds:
        want = bracket_state_sum_dfs(pd)
        assert bracket_state_sum(pd) == want, name
        for _ in range(3):
            assert bracket_state_sum(scramble(pd, rng)) == want, name


def test_sweep_equals_state_walk_on_girth1_and_girth2_templates():
    reps = [Girth1Rep(p) for p in range(-5, 6)]
    reps += [Girth2Rep(p, q) for p in range(-4, 5) for q in range(-4, 5)]
    for rep in reps:
        pd = pd_from_rep(rep)
        assert bracket_state_sum(pd) == bracket_state_sum_dfs(pd), rep


def test_sweep_equals_state_walk_on_random_girth3_templates():
    rng = random.Random(606)
    kinds = {"link": 0, "free loops": 0, "kink": 0}
    pds = [pd_from_rep(Girth1Rep(1)), pd_from_rep(Girth1Rep(2))]
    for i in range(300):
        pd = pd_from_rep(random_girth3(rng, 14))
        if i % 5 == 1 and pd.n() < 14:
            pd = add_kink(pd, positive=rng.random() < 0.5)
        elif i % 5 == 2:
            pd = PDCode(pd.crossings, pd.free_loops + rng.randint(1, 2))
        pds.append(pd)
    for pd in pds:
        assert pd.n() <= 14
        kinds["link"] += orient(pd).n_components > 1
        kinds["free loops"] += pd.free_loops > 0
        kinds["kink"] += any(len(set(c)) < 4 for c in pd.crossings)
        assert bracket_state_sum(pd) == bracket_state_sum_dfs(pd), pd
    assert min(kinds.values()) >= 30, kinds


def disjoint_union(pds: list[PDCode]) -> PDCode:
    """The split diagram of these codes side by side, arcs renamed apart."""
    crossings: list[tuple[int, ...]] = []
    shift = 0
    for pd in pds:
        crossings += [tuple(a + shift for a in c) for c in pd.crossings]
        shift = max(a for c in crossings for a in c) + 1
    return PDCode(tuple(crossings))


def test_sweep_order_takes_the_most_open_arcs_then_the_lowest_index():
    rng = random.Random(5)
    pds = [scramble(pd, rng) for _, pd in fixture_pds()]
    pds += [scramble(pd_from_rep(random_girth3(rng, 20)), rng) for _ in range(40)]
    # split diagrams of 2 and 3 parts, their crossings shuffled together
    pds += [
        scramble(
            disjoint_union([pd_from_rep(random_girth3(rng, 8)) for _ in range(parts)]), rng
        )
        for parts in (2, 3)
        for _ in range(20)
    ]
    covered = set()
    for pd in pds:
        order, parts = _sweep_order(pd)
        assert sorted(order) == list(range(pd.n()))
        # a crossing that shares no arc with those before it opens a part
        seen: set[int] = set()
        want = 0
        for ci in order:
            want += seen.isdisjoint(pd.crossings[ci])
            seen.update(pd.crossings[ci])
        assert parts == want, pd
        covered.add(parts)
        done: set[int] = set()
        for ci in order:
            ends = {}
            for cj in done:
                for a in pd.crossings[cj]:
                    ends[a] = ends.get(a, 0) + 1
            open_arcs = {a for a, k in ends.items() if k == 1}

            def count(cj):
                return sum(a in open_arcs for a in pd.crossings[cj])

            left = [cj for cj in range(pd.n()) if cj not in done]
            best = max(count(cj) for cj in left)
            assert ci == min(cj for cj in left if count(cj) == best)
            done.add(ci)
    assert covered == {1, 2, 3}


@pytest.mark.parametrize(
    "rep",
    [
        Girth3Rep((10, 10, 10), (10, 10, 10)),
        Girth3Rep((-20, 25, 15), (20, -15, 20)),
        Girth3Rep((50, -50, 50), (-50, 50, 50)),
    ],
    ids=["60", "115", "300"],
)
def test_sweep_is_polynomial_on_large_templates(rep):
    # 2^60 states could never be walked one by one; the sweep must also
    # agree with the closed form there
    pd = pd_from_rep(rep)
    assert pd.n() == sum(map(abs, rep.top + rep.bottom))
    t0 = time.perf_counter()
    got = bracket_state_sum(pd, cap=pd.n())
    assert time.perf_counter() - t0 < 5.0
    assert got == bracket_poly(bracket_girth3(rep))


@pytest.mark.parametrize(
    "partner, x, y, loops, after",
    [
        ({}, 1, 2, 0, {1: 2, 2: 1}),  # two new arcs pair up
        ({5: 6, 6: 5}, 3, 3, 1, {5: 6, 6: 5}),  # a kink arc meets itself
        ({1: 2, 2: 1}, 1, 3, 0, {2: 3, 3: 2}),  # open + new
        ({1: 2, 2: 1}, 3, 1, 0, {2: 3, 3: 2}),  # new + open
        ({1: 2, 2: 1, 3: 4, 4: 3}, 2, 1, 1, {3: 4, 4: 3}),  # open + open closes
        ({1: 2, 2: 1, 3: 4, 4: 3}, 1, 3, 0, {2: 4, 4: 2}),  # open + open merges
    ],
    ids=["new-new", "kink", "open-new", "new-open", "open-open-loop", "open-open-merge"],
)
def test_join(partner, x, y, loops, after):
    partner = dict(partner)
    assert join_ends(partner, x, y) == loops
    assert partner == after


@pytest.mark.parametrize(
    "crossings",
    [((1, 2, 3, 4),), ((1, 1, 2, 2), (3, 3, 4, 5))],
    ids=["four-loose-ends", "two-loose-ends"],
)
def test_the_sweep_refuses_an_arc_not_appearing_twice(crossings):
    # the second code has a kink at each crossing and arcs 4 and 5 each
    # once: it is no diagram, and has no state sum
    pd = PDCode(crossings)
    with pytest.raises(InvalidPDError, match="arcs not appearing exactly twice"):
        _sweep_order(pd)
    with pytest.raises(InvalidPDError, match="arcs not appearing exactly twice"):
        bracket_state_sum(pd)


def packed_classes(p: LaurentPoly, k: int) -> list[tuple[int, int]]:
    """(low, value) of each class of p's exponents mod 4: the class's
    polynomial is A^low P(y) with value = P(2^k), y = A^4."""
    classes: dict[int, dict[int, int]] = {}
    for e, c in p.terms:
        classes.setdefault(e % 4, {})[e] = c
    return [
        (min(part), sum(c << k * ((e - min(part)) // 4) for e, c in part.items()))
        for part in classes.values()
    ]


def divide_by_delta(p: LaurentPoly) -> LaurentPoly:
    """p / delta, class by class of exponents mod 4, through the oracle's
    packed division; the quotient's exponents lie within p's."""
    k = 16
    out = LaurentPoly((), "A")
    for low, value in packed_classes(p, k):
        low, value = _times_delta_power(low, value, k, -1)
        slots = (p.max_exp() - low) // 4 + 1
        terms = _digits(value, k, low, 4, slots)
        if terms is None:
            raise ValueError("quotient exceeds its coefficient bound")
        out = out + A(dict(terms))
    return out


def test_divide_by_delta_is_exact_or_refuses():
    delta = A({2: -1, -2: -1})
    rng = random.Random(9)
    for _ in range(50):
        p = A({rng.randint(-30, 30): rng.randint(-9, 9) for _ in range(8)})
        if not p.is_zero():
            assert divide_by_delta(delta * p) == p
    for p in (A({0: 1}), A({2: -1, -2: -1, 0: 1}), A({-2: -1, 2: 1})):
        with pytest.raises(ValueError):
            divide_by_delta(p)


def test_digits_refuse_a_leftover():
    k = 8
    value = 3 - (5 << k) + (7 << 2 * k)
    assert _digits(value, k, -6, 4, 3) == [(-6, 3), (-2, -5), (2, 7)]
    assert _digits(value, k, -6, 4, 5) == [(-6, 3), (-2, -5), (2, 7)]
    assert _digits(value, k, -6, 4, 2) is None
    # the most negative digit is -2^(k - 1); 2^(k - 1) carries into the next
    assert _digits(-(1 << k - 1), k, 0, 4, 1) == [(0, -(1 << k - 1))]
    assert _digits(1 << k - 1, k, 0, 4, 1) is None
    assert _digits(0, k, 5, 4, 1) == []
    # the Alexander decode reads the same digits at stride 1
    assert _digits(value, k, 0, 1, 3) == [(0, 3), (1, -5), (2, 7)]


def test_state_sum_refuses_a_code_that_is_not_planar():
    # a code that validate_pd refuses by the Euler count; its full state
    # sum would be -A^2 - A^4, whose exponents fall in two classes mod 4
    virtual = PDCode(((1, 1, 2, 3), (2, 4, 3, 4)))
    with pytest.raises(InvalidPDError):
        validate_pd(virtual)
    with pytest.raises(ValueError, match="not planar"):
        bracket_state_sum(virtual)


def test_state_sum_is_independent_of_the_closed_forms():
    # the oracle checks the closed forms, so it must share none of their
    # code: no import of closedform or g3table, and neither their decode
    # nor laurent's packed reader
    path = os.path.join(os.path.dirname(oracle.__file__), "oracle.py")
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert "_digits" in names and "_alexander" in names
    for name in ("closedform", "g3table", "g3table_data", "unpack_slots", "packed_slots",
                 "slot_terms", "from_slots", "from_packed", "_decode", "_q_int"):
        assert name not in names, name


@st.composite
def scrambled_small_diagrams(draw):
    girth = draw(st.sampled_from([1, 2, 3]))
    label = st.integers(-6, 6)
    if girth == 1:
        rep = Girth1Rep(draw(label))
    elif girth == 2:
        rep = Girth2Rep(draw(label), draw(label))
    else:
        rep = Girth3Rep(
            tuple(draw(st.integers(-3, 3)) for _ in range(3)),
            tuple(draw(st.integers(-3, 3)) for _ in range(3)),
        )
    pd = pd_from_rep(rep)
    assume(pd.n() <= 14)
    return scramble(pd, random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=150, deadline=None)
@given(scrambled_small_diagrams())
def test_sweep_equals_state_walk_on_scrambled_diagrams(pd):
    assert bracket_state_sum(pd) == bracket_state_sum_dfs(pd)


# ---------------------------------------------------------------------------
# Fox calculus by one determinant against the n-point reference


@pytest.mark.parametrize(
    "text, n",
    [
        ("[3 2 7 / 1 4 9]", 26),
        ("[7 4 9 / 5 6 9]", 40),
        ("[11 6 13 / 7 8 15]", 60),
        ("[15 10 17 / 11 12 15]", 80),
    ],
    ids=["26", "40", "60", "80"],
)
def test_fox_equals_the_reference_on_large_knots(text, n):
    pd = pd_from_rep(parse_rep(text))
    assert pd.n() == n and orient(pd).n_components == 1
    assert conway_fox(pd, cap=n) == _reference_of(text)


@functools.lru_cache(maxsize=None)
def _reference_of(text):
    """The reference Conway polynomial of a rep's template, taken once per
    test process (2 s at 80 crossings)."""
    return conway_fox_reference(pd_from_rep(parse_rep(text)))


def test_fox_equals_the_reference_on_the_knot_fixtures():
    knots = [(name, pd) for name, pd in fixture_pds() if orient(pd).n_components == 1]
    assert len(knots) == 14
    for name, pd in knots:
        assert conway_fox(pd) == conway_fox_reference(pd), name


def test_fox_equals_the_reference_on_a_seeded_girth3_grid():
    rng = random.Random(19)
    knots = set()
    while len(knots) < 120:
        labels = tuple(rng.randint(-5, 5) for _ in range(6))
        pd = pd_from_rep(Girth3Rep(labels[:3], labels[3:]))
        if labels not in knots and orient(pd).n_components == 1:
            assert conway_fox(pd, cap=pd.n()) == conway_fox_reference(pd), labels
            knots.add(labels)


def test_alexander_decodes_coefficients_at_the_bound():
    # entries +-4 and +-4t on a permuted diagonal: the determinant is one
    # monomial of coefficient +-4^dim, the largest the bound allows
    rng = random.Random(4)
    for dim in range(1, 9):
        for _ in range(40):
            perm = rng.sample(range(dim), dim)
            cells = [(rng.randint(0, 1), rng.choice((4, -4))) for _ in range(dim)]
            minor = [{perm[i]: ((c, 0), (0, c))[e]} for i, (e, c) in enumerate(cells)]
            inversions = sum(
                perm[i] > perm[j] for i in range(dim) for j in range(i + 1, dim)
            )
            sign = (-1) ** inversions * (-1) ** sum(c < 0 for _, c in cells)
            degree = sum(e for e, _ in cells)
            assert _alexander(minor) == {degree: sign * 4**dim}, minor


def test_fox_at_the_hadamard_width_equals_the_reference(monkeypatch):
    # every minor is decoded at the width of Hadamard's bound on its rows,
    # narrower than the 2 dim + 2 of the bound 4^dim on the row sums: the
    # template grid of girths 1 to 3, and 80 crossings
    widths = []

    def spy(minor):
        k = fox_width(minor)
        widths.append((len(minor), k))
        return k

    fox_width = oracle._fox_width
    monkeypatch.setattr(oracle, "_fox_width", spy)
    reps = [Girth1Rep(p) for p in range(-9, 10)]
    reps += [Girth2Rep(p, q) for p in range(-8, 9) for q in range(-8, 9)]
    reps += [Girth3Rep(labels[:3], labels[3:]) for labels in itertools.product((-1, 2), repeat=6)]
    knots = 0
    for rep in reps:
        pd = pd_from_rep(rep)
        if pd.n() and orient(pd).n_components == 1:
            assert conway_fox(pd, cap=pd.n()) == conway_fox_reference(pd), rep
            knots += 1
    text = "[15 10 17 / 11 12 15]"
    pd = pd_from_rep(parse_rep(text))
    assert pd.n() == 80
    assert conway_fox(pd, cap=80) == _reference_of(text)
    assert knots > 200 and len(widths) == knots + 1
    # a Fox row has sum_j |M[i][j]|^2 <= 8, so B^2 <= 8^dim
    assert all(k <= (3 * dim + 2) // 2 + 1 for dim, k in widths)
    assert all(k < 2 * dim + 2 for dim, k in widths if dim)
    assert widths[-1] == (79, 103)


def test_alexander_equals_interpolation_on_random_minors():
    # rows of up to three entries with L1 norm at most 4, like Fox rows
    rng = random.Random(8)
    for dim in range(1, 11):
        for _ in range(20):
            minor = []
            for _ in range(dim):
                row: dict[int, tuple[int, int]] = {}
                for _ in range(rng.randint(1, 4)):
                    j, c = rng.randrange(dim), rng.choice((1, -1))
                    c0, c1 = row.get(j, (0, 0))
                    row[j] = (c0 + c, c1) if rng.randint(0, 1) == 0 else (c0, c1 + c)
                minor.append(row)
            points = list(range(2, dim + 3))
            values = []
            for t0 in points:
                mat = [[0] * dim for _ in range(dim)]
                for i, row in enumerate(minor):
                    for j, (c0, c1) in row.items():
                        mat[i][j] = c0 + c1 * t0
                values.append(_bareiss_det(mat))
            coeffs = _interpolate_integer_poly(points, values)
            assert _alexander(minor) == {e: c for e, c in enumerate(coeffs) if c}


def test_alexander_refuses_a_determinant_past_the_bound(monkeypatch):
    with pytest.raises(ValueError, match="no Fox row"):
        _alexander([{0: (0, 200)}])  # a row of L1 norm 200
    # a width too narrow for the minor leaves digits past dim + 1: 4t at
    # k = 2 reads 0, 0, 1 in base 4
    assert _alexander([{0: (0, 4)}]) == {1: 4}
    monkeypatch.setattr(oracle, "_fox_width", lambda minor: 2)
    with pytest.raises(ValueError, match="exceeds its coefficient bound"):
        _alexander([{0: (0, 4)}])


def test_conway_normalization_equals_the_reference():
    # symmetric a_0 + sum a_i (t^i + t^-i) with Delta(1) = +-1, shifted and signed
    rng = random.Random(21)
    for half in range(10):
        for _ in range(30):
            a = [rng.randint(-50, 50) for _ in range(half)]
            a0 = rng.choice((1, -1)) - 2 * sum(a)
            sym = {0: a0, **{i + 1: c for i, c in enumerate(a)}}
            sym.update({-e: c for e, c in sym.items()})
            shift, sign = rng.randint(-5, 5), rng.choice((1, -1))
            delta = {e + half + shift: sign * c for e, c in sym.items() if c}
            want = fox_reference._normalize_alexander_to_conway(delta)
            assert _normalize_alexander_to_conway(delta) == want, delta
    # Delta(1) = 3, an asymmetric polynomial and one of odd degree
    for delta in ({0: 3}, {0: 1, 1: 1, 2: -1}, {0: 2, 1: -1}):
        for normalize in (_normalize_alexander_to_conway,
                          fox_reference._normalize_alexander_to_conway):
            with pytest.raises(ValueError):
                normalize(delta)


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
