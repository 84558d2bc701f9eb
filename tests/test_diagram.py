import ast
import itertools
import os
import random
import sys
import time
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from knotpair import diagram
from knotpair.classify import closed_invariants
from knotpair.closedform import loop_value
from knotpair.diagram import (
    InvalidPDError,
    PDCode,
    _other_end,
    checkerboard,
    orient,
    pd_from_json,
    pd_from_rep,
    pd_from_text,
    regions,
    tait_graph,
    validate_pd,
)
from knotpair.oracle import bracket_state_sum
from knotpair.laurent import jones_from_bracket
from knotpair.reps import (
    Girth1Rep,
    Girth2Rep,
    Girth3Rep,
    g3_labels,
    rep_from_labels,
    rep_labels,
    template_crossings,
)

from diagram_builders import (
    braid_closure_pd,
    pd_to_json,
    pretzel_pd,
    reference_pd_from_rep,
)


def jones(pd):
    return jones_from_bracket(bracket_state_sum(pd), orient(pd).writhe)


def test_pd_json_and_text_round_trip():
    pd = pd_from_rep(Girth2Rep(3, -2))
    again = pd_from_json(pd_to_json(pd))
    assert again == pd
    text = " ".join("X(%d,%d,%d,%d)" % c for c in pd.crossings)
    assert pd_from_text(text) == PDCode(pd.crossings, 0)


def test_validate_rejects_bad_arc_multiplicity():
    with pytest.raises(InvalidPDError):
        validate_pd(PDCode(((1, 2, 3, 4), (1, 2, 3, 5)),))


def test_validate_rejects_nonplanar_map():
    # a genus-one map: every arc twice, but the Euler count fails
    with pytest.raises(InvalidPDError):
        pd_from_text("X(1,4,5,2) X(3,6,4,1) X(5,2,6,3)")


TREFOIL_TEXT = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


def test_pd_text_between_terms_is_whitespace_or_commas():
    trefoil = pd_from_text(TREFOIL_TEXT + "\n")
    assert trefoil.n() == 3
    assert pd_from_text(" X(1,4,2,5),X(3,6,4,1) ,\n X(5,2,6,3) ,") == trefoil
    assert pd_from_text(" ,\n") == PDCode(())


@pytest.mark.parametrize(
    "text, position",
    [
        (TREFOIL_TEXT + " junk X(7,8,9)", 33),
        (TREFOIL_TEXT + " Y(7,7,8,8)", 33),
        (TREFOIL_TEXT + " X(7,8,9)", 33),
        ("junk " + TREFOIL_TEXT, 0),
        ("X(1,4,2,5); " + TREFOIL_TEXT[11:], 10),
    ],
)
def test_pd_text_with_unreadable_text_is_refused_at_its_position(tmp_path, capsys, text, position):
    from knotpair.cli import main

    with pytest.raises(InvalidPDError, match=f"at position {position},"):
        pd_from_text(text)
    path = tmp_path / "input.pd"
    path.write_text(text)
    for command in ("girth", "decompose"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: expected an X(a,b,c,d) term at position {position},")
        assert len(captured.err.splitlines()) == 1


def _overlong() -> str:
    # one digit more than this interpreter's int() converts from text
    return "1" * (sys.get_int_max_str_digits() + 1)


def test_pd_text_with_an_overlong_arc_id_names_its_term(tmp_path, capsys):
    text = f"X(1,4,2,5) X(3,{_overlong()},4,1) X(5,2,6,3)"
    with pytest.raises(InvalidPDError) as err:
        pd_from_text(text)
    limit = sys.get_int_max_str_digits()
    message = f"the X term at position 11 has an arc id of more than {limit} digits"
    assert str(err.value) == message
    path = tmp_path / "input.pd"
    path.write_text(text)
    from knotpair.cli import main

    assert main(["girth", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pd_json_with_an_overlong_arc_id_names_its_crossing():
    trefoil = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
    rows = ", ".join(str(c) for c in trefoil[:2])
    text = f'{{"crossings": [{rows}, [{_overlong()}, 2, 6, 3]]}}'
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InvalidPDError, match=rf"^crossings\[2\] has an arc id of more than {limit} digits$"):
        pd_from_json(text)
    with pytest.raises(InvalidPDError, match=rf"'free_loops' .*, got <{limit + 1}-digit integer>$"):
        pd_from_json(f'{{"crossings": {trefoil}, "free_loops": {_overlong()}}}')
    # a number the code does not read is not converted
    assert pd_from_json(f'{{"crossings": {trefoil}, "note": -{_overlong()}}}') == pd_from_text(TREFOIL_TEXT)


def test_crossing_count_is_label_sum():
    for rep, n in [
        (Girth2Rep(3, -2), 5),
        (Girth1Rep(4), 4),
        (Girth3Rep((2, 1, 0), (0, -1, -1)), 5),
    ]:
        assert pd_from_rep(rep).n() == n


def test_template_crossings_counts_the_built_template():
    # the oracle and closed-form budgets are checked on this count before
    # any build or evaluation
    grid = [Girth1Rep(p) for p in range(-4, 5)]
    grid += [Girth2Rep(p, q) for p, q in itertools.product(range(-3, 4), repeat=2)]
    grid += [
        Girth3Rep(labels[:3], labels[3:])
        for labels in itertools.product((-2, 0, 1), repeat=6)
    ]
    for rep in grid:
        assert template_crossings(rep) == pd_from_rep(rep).n(), rep


def test_component_parity_girth2():
    # both odd -> two components, otherwise one
    for p in range(-3, 4):
        for q in range(-3, 4):
            pd = pd_from_rep(Girth2Rep(p, q))
            expect = 2 if (p % 2 and q % 2) else 1
            assert orient(pd).n_components == expect, (p, q)


def test_all_even_girth3_is_a_knot():
    # full even grid |labels| <= 4: every diagram has one component
    import itertools

    for labels in itertools.product((-4, -2, 0, 2, 4), repeat=6):
        pd = pd_from_rep(Girth3Rep(labels[:3], labels[3:]))
        assert orient(pd).n_components == 1, labels


def test_degenerate_zero_label_templates():
    pd = pd_from_rep(Girth2Rep(0, 0))
    assert pd.n() == 0 and pd.free_loops == 1
    assert jones(pd) == jones(pd_from_rep(Girth1Rep(1)))
    # K(0) is the two-component closure of an empty twist region
    assert orient(pd_from_rep(Girth1Rep(0))).n_components == 2


def test_regions_satisfy_euler():
    for rep in (Girth1Rep(3), Girth2Rep(2, -2), Girth3Rep((1, 2, 0), (0, -1, 2))):
        pd = pd_from_rep(rep)
        assert len(regions(pd)) == pd.n() + 2


def test_checkerboard_trefoil_counts():
    pd = pd_from_rep(Girth1Rep(3))
    a, b = checkerboard(pd)
    # each shading lists its black regions; the other's are its white ones
    assert len(regions(pd)) == 5
    assert {len(a), len(b)} == {2, 3}
    assert sorted(a + b) == sorted(regions(pd))


def test_tait_graph_trefoil_theta():
    pd = pd_from_rep(Girth1Rep(3))
    shade_a, shade_b = checkerboard(pd)
    graphs = [tait_graph(pd, shade_a), tait_graph(pd, shade_b)]
    sizes = sorted(g.n_vertices for g in graphs)
    # one shading gives the theta graph on two vertices, the dual has three
    assert sizes == [2, 3]
    for g in graphs:
        assert len(g.edges) == 3


def test_tait_duality_edge_vertex_counts():
    for rep in (Girth2Rep(3, -2), Girth3Rep((1, 2, 0), (0, -1, 2))):
        pd = pd_from_rep(rep)
        shade_a, shade_b = checkerboard(pd)
        g1, g2 = tait_graph(pd, shade_a), tait_graph(pd, shade_b)
        assert len(g1.edges) == len(g2.edges) == pd.n()
        assert g1.n_vertices + g2.n_vertices == pd.n() + 2


def test_double_twist_tait_shape():
    # K(p,q): one shading is a path of p edges plus q parallel closing edges
    pd = pd_from_rep(Girth2Rep(3, 2))
    shade_a, shade_b = checkerboard(pd)
    shapes = []
    for g in (tait_graph(pd, shade_a), tait_graph(pd, shade_b)):
        degree = [0] * g.n_vertices
        for e in g.edges:
            degree[e.v1] += 1
            degree[e.v2] += 1
        shapes.append((g.n_vertices, sorted(degree)))
    assert ((4, [2, 2, 3, 3]) in shapes) or ((3, [2, 3, 3]) in shapes)


def test_orientation_writhe_mirror_antisymmetry():
    for rep in (Girth2Rep(3, -2), Girth3Rep((2, 1, 0), (1, -1, 2))):
        pd = pd_from_rep(rep)
        from knotpair.reps import mirror

        assert orient(pd).writhe == -orient(pd_from_rep(mirror(rep))).writhe


def test_braid_closure_8_18():
    # closure of (s1 s2^-1)^4; determinant 45 and span 8 certify the knot
    pd = braid_closure_pd([1, -2, 1, -2, 1, -2, 1, -2], 3)
    assert pd.n() == 8
    assert orient(pd).n_components == 1
    from knotpair.oracle import conway_fox
    from knotpair.laurent import jones_span_inclusive

    nab = conway_fox(pd)
    det = abs(sum(c * (-4) ** (e // 2) for e, c in nab.terms))
    assert det == 45
    assert jones_span_inclusive(jones(pd)) == 9  # exponent span 8, inclusive 9


def test_pretzel_template_correspondence():
    # K(p q r / s t 0) matches the reference pretzel P(p-s, q, r-t)
    rng = random.Random(3)
    for _ in range(12):
        p, q, r = (rng.choice([-2, -1, 1, 2, 3]) for _ in range(3))
        s, t = rng.choice([1, -1]), rng.choice([1, -1])
        if p == s or r == t:
            continue
        krep = pd_from_rep(Girth3Rep((p, q, r), (s, t, 0)))
        assert jones(krep) == jones(pretzel_pd(p - s, q, r - t))


# ---------------------------------------------------------------------------
# the one-pass orientation against the 2^(k-1) flip search it replaced


def _trace_components(other: list[int]) -> list[list[int]]:
    """Split the ports into strand cycles.

    Each cycle is the list of ports in traversal order, alternating
    exit-port, entry-port, exit-port, ... along the strand, and starts at
    its lowest port.
    """
    visited = [False] * len(other)
    cycles: list[list[int]] = []
    for start in range(len(other)):
        if visited[start]:
            continue
        cycle = []
        cur = start  # treated as an exit port
        while True:
            nxt = other[cur]
            cycle += (cur, nxt)
            visited[cur] = visited[nxt] = True
            cur = nxt ^ 2
            if cur == start:
                break
        cycles.append(cycle)
    return cycles


def orient_by_search(pd):
    """Try every direction of every component but the first; keep the least
    sign tuple, and the first flip tuple in product order that gives it.

    Returns (under_in, n_components, signs, writhe) as ``orient`` does.
    """
    other = _other_end(itertools.chain(*pd.crossings))
    cycles = [[divmod(p, 4) for p in cyc] for cyc in _trace_components(other)]
    n = pd.n()

    comp_of_port: dict[tuple[int, int], int] = {}
    for k, cyc in enumerate(cycles):
        for port in cyc:
            comp_of_port[port] = k

    base_incoming: dict[tuple[int, int], bool] = {}
    for cyc in cycles:
        # even positions are exits, odd positions are entries
        for idx, port in enumerate(cyc):
            base_incoming[port] = idx % 2 == 1

    def signs_for(flips: tuple[bool, ...]) -> list[int]:
        out = []
        for ci in range(n):
            u = 0 if base_incoming[(ci, 0)] != flips[comp_of_port[(ci, 0)]] else 2
            # over strand occupies slots 1 and 3
            over_in = (
                1 if base_incoming[(ci, 1)] != flips[comp_of_port[(ci, 1)]] else 3
            )
            out.append(1 if over_in == (u + 3) % 4 else -1)
        return out

    k = len(cycles)
    best: tuple[list[int], tuple[bool, ...]] | None = None
    for combo in itertools.product((False, True), repeat=max(k - 1, 0)):
        flips = (False,) + combo
        s = signs_for(flips)
        if best is None or s < best[0]:
            best = (s, flips)
    if best is None:
        best = ([], ())
    signs, flips = best

    # slot 0 and the sign fix the whole crossing: slot 2 is the other end
    # of the under-strand, and the sign says where the over-strand enters
    under_in = tuple(base_incoming[(ci, 0)] != flips[comp_of_port[(ci, 0)]] for ci in range(n))
    n_components = len(cycles) + pd.free_loops
    return under_in, n_components, tuple(signs), sum(signs)


def assert_orient_matches_search(pd):
    ori = orient(PDCode(pd.crossings, pd.free_loops))  # traced, not carried
    got = (ori.under_in, ori.n_components, ori.signs, ori.writhe)
    assert got == orient_by_search(pd), pd


def reorder(pd: PDCode, rng: random.Random) -> PDCode:
    """The same diagram with crossings reordered and some half-turned (a
    half turn keeps the under-strand in slots 0 and 2)."""
    crossings = list(pd.crossings)
    rng.shuffle(crossings)
    crossings = [c[2:] + c[:2] if rng.random() < 0.5 else c for c in crossings]
    return PDCode(tuple(crossings), pd.free_loops)


def random_braid_closure(rng: random.Random, strands: int, extra: int) -> PDCode:
    """Closure of a word holding every generator at least twice, so no strand
    is left untouched, plus ``extra`` random letters, some doubled."""
    word = [i for i in range(1, strands) for _ in range(2)]
    for _ in range(extra):
        letter = rng.choice((1, -1)) * rng.randint(1, strands - 1)
        word += [letter] * rng.choice((1, 2))
    rng.shuffle(word)
    return braid_closure_pd(word, strands)


def test_orient_equals_flip_search_on_templates_and_fixtures():
    pds = [pd_from_rep(Girth1Rep(p)) for p in range(-6, 7)]
    pds += [pd_from_rep(Girth2Rep(p, q)) for p in range(-4, 5) for q in range(-4, 5)]
    rng = random.Random(11)
    for _ in range(300):
        labels = [rng.randint(-2, 2) for _ in range(6)]
        pds.append(pd_from_rep(Girth3Rep(tuple(labels[:3]), tuple(labels[3:]))))
    root = resources.files("knotpair").joinpath("fixtures").joinpath("rolfsen")
    fixtures = [f for f in root.iterdir() if f.name.endswith(".pd.json")]
    assert len(fixtures) == 18
    pds += [pd_from_json(f.read_text()) for f in fixtures]
    for pd in pds:
        assert_orient_matches_search(pd)


def test_orient_equals_flip_search_on_reordered_braid_closures():
    rng = random.Random(2026)
    by_components: dict[int, int] = {}
    for _ in range(1600):
        closure = random_braid_closure(rng, rng.randint(2, 8), rng.randint(0, 8))
        pd = reorder(closure, rng)
        k = orient(pd).n_components
        by_components[k] = by_components.get(k, 0) + 1
        assert_orient_matches_search(pd)
    assert set(by_components) == set(range(1, 9))
    assert sum(v for k, v in by_components.items() if k >= 4) >= 30


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10), st.integers(0, 2**32))
def test_orient_equals_flip_search_property(strands, extra, seed):
    rng = random.Random(seed)
    pd = reorder(random_braid_closure(rng, strands, extra), rng)
    assert_orient_matches_search(pd)


def test_orient_is_not_exponential_in_components():
    # closure of s1^2 s2^2 ... s39^2: a chain of 40 unknots; the search
    # would try 2^39 direction choices
    closure = braid_closure_pd([i for i in range(1, 40) for _ in range(2)], 40)
    pd = PDCode(closure.crossings)  # traced, not carried from the build
    t0 = time.perf_counter()
    ori = orient(pd)
    assert time.perf_counter() - t0 < 1.0
    assert ori.n_components == 40
    # both crossings of a clasp share their sign, and the first is made -1
    assert ori.signs == (-1,) * 78


# ---------------------------------------------------------------------------
# the orientation a built code carries is ``orient`` of it, field for field


def assert_carries_orient(pd):
    traced = PDCode(pd.crossings, pd.free_loops)
    assert traced == pd and traced.orientation is None
    assert pd.orientation == orient(traced), pd


def test_template_orientation_is_orient_on_reduced_templates():
    for labels in itertools.product(range(-2, 3), repeat=6):
        assert_carries_orient(pd_from_rep(Girth3Rep(labels[:3], labels[3:])))


def test_template_orientation_is_orient_on_full_templates():
    reps = [Girth1Rep(p) for p in range(-12, 13)]
    reps += [Girth2Rep(p, q) for p in range(-8, 9) for q in range(-8, 9)]
    rng = random.Random(20261018)
    for _ in range(400):
        labels = [rng.randint(-9, 9) for _ in range(6)]
        reps.append(Girth3Rep(tuple(labels[:3]), tuple(labels[3:])))
    links = 0
    for rep in reps:
        pd = pd_from_rep(rep)
        assert_carries_orient(pd)
        links += pd.orientation.n_components > 1
    assert links >= 0.3 * len(reps), (links, len(reps))


def test_reference_diagrams_carry_orient():
    pds = [pretzel_pd(*e) for e in itertools.product(range(-3, 4), repeat=3)]
    rng = random.Random(2026)
    pds += [random_braid_closure(rng, rng.randint(2, 8), rng.randint(0, 8)) for _ in range(300)]
    for pd in pds:
        assert_carries_orient(pd)


# ---------------------------------------------------------------------------
# writhe and components from the table of reduced labellings


def test_girth2_template_is_a_girth3_template():
    # the girth-1 and girth-2 readings of ``rep_invariants`` rest on this
    # identity: a K(p, q), or a K(p) other than K(0), is the template of its
    # girth-3 labelling, its orientation included
    reps = [Girth2Rep(p, q) for p, q in itertools.product(range(-12, 13), repeat=2)]
    reps += [Girth1Rep(p) for p in range(-300, 301) if p]
    for rep in reps:
        pd = pd_from_rep(rep)
        padded = pd_from_rep(rep_from_labels(g3_labels(rep_labels(rep))))
        assert (pd, pd.orientation) == (padded, padded.orientation), rep
    # K(0) is two free loops, and its labelling a 2-crossing unlink with
    # the same bracket, components and writhe
    assert pd_from_rep(Girth1Rep(0)) == PDCode((), 2)
    unlink = pd_from_rep(rep_from_labels(g3_labels((0,))))
    assert unlink.n() == 2
    assert bracket_state_sum(unlink) == bracket_state_sum(PDCode((), 2)) == loop_value()
    assert (orient(unlink).n_components, orient(unlink).writhe) == (2, 0)


def full_template_components_and_writhe(rep):
    ori = orient(pd_from_rep(rep))
    return ori.n_components, ori.writhe


def table_components_and_writhe(rep):
    """What ``classify.rep_invariants`` reads, with no template: the frozen
    table for a girth-2 or girth-3 rep, the parity of p for K(p)."""
    comps, writhe, _ = closed_invariants(rep_labels(rep))
    return comps, writhe


def test_reduced_template_matches_full_template_on_grids():
    reps = [Girth1Rep(p) for p in range(-30, 31)]
    reps += [Girth2Rep(p, q) for p in range(-12, 13) for q in range(-12, 13)]
    rng = random.Random(20261018)
    for _ in range(400):
        labels = [rng.randint(-20, 20) for _ in range(6)]
        reps.append(Girth3Rep(tuple(labels[:3]), tuple(labels[3:])))
    assert sum(0 in rep.top + rep.bottom for rep in reps[-400:]) >= 40
    links = 0
    for rep in reps:
        expected = full_template_components_and_writhe(rep)
        assert table_components_and_writhe(rep) == expected, rep
        links += expected[0] > 1
    assert links >= 0.3 * len(reps), (links, len(reps))


_label = st.integers(-40, 40)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.builds(Girth1Rep, _label),
        st.builds(Girth2Rep, _label, _label),
        st.builds(Girth3Rep, st.tuples(*[_label] * 3), st.tuples(*[_label] * 3)),
    )
)
def test_reduced_template_matches_full_template_property(rep):
    assert table_components_and_writhe(rep) == full_template_components_and_writhe(rep)


# ---------------------------------------------------------------------------
# the written templates against the general assembly they replaced


def assert_written_as_assembled(rep, traced=True):
    """The written template of ``rep`` is the assembled one, field for
    field, and ``validate_pd`` passes on it; with ``traced``, its carried
    orientation is also ``orient`` of its code traced afresh."""
    pd, ref = pd_from_rep(rep), reference_pd_from_rep(rep)
    assert (pd.crossings, pd.free_loops) == (ref.crossings, ref.free_loops), rep
    assert pd.orientation == ref.orientation, rep
    if traced:
        assert orient(PDCode(pd.crossings, pd.free_loops)) == ref.orientation, rep
    # written, not validated: the regions are walked when asked
    assert pd.corner_cycles is None
    assert regions(pd) == regions(ref), rep
    validate_pd(pd)
    return pd


def test_written_templates_equal_the_assembled_ones_on_grids():
    reps = [Girth1Rep(p) for p in range(-30, 31)]
    reps += [Girth2Rep(p, q) for p, q in itertools.product(range(-12, 13), repeat=2)]
    rng = random.Random(20261019)
    for _ in range(399):
        labels = [rng.choice((0, rng.randint(-20, 20))) for _ in range(6)]
        reps.append(Girth3Rep(tuple(labels[:3]), tuple(labels[3:])))
    reps.append(Girth3Rep((0, 0, 0), (0, 0, 0)))  # free loops alone
    assert sum(0 in rep.top + rep.bottom for rep in reps[-400:]) >= 200
    free = [rep for rep in reps if assert_written_as_assembled(rep).free_loops]
    assert Girth1Rep(0) in free and Girth2Rep(0, 0) in free and reps[-1] in free


def test_written_templates_equal_the_assembled_ones_on_the_girth3_grid():
    # every girth-3 labelling with labels -2..2; the carried orientation
    # is checked against a fresh trace on this grid by
    # test_template_orientation_is_orient_on_reduced_templates
    for labels in itertools.product(range(-2, 3), repeat=6):
        assert_written_as_assembled(Girth3Rep(labels[:3], labels[3:]), traced=False)


_wide_label = st.integers(-40, 40)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.builds(Girth1Rep, _wide_label),
        st.builds(Girth2Rep, _wide_label, _wide_label),
        st.builds(Girth3Rep, st.tuples(*[_wide_label] * 3), st.tuples(*[_wide_label] * 3)),
    )
)
def test_written_templates_equal_the_assembled_ones_property(rep):
    assert_written_as_assembled(rep)


def test_the_template_writer_is_independent_of_the_closed_forms():
    # the oracles check the closed forms and the frozen table on written
    # templates, and the table's components-and-writhe test compares the
    # table with ``orient`` of them: so the writer reads neither
    path = os.path.join(os.path.dirname(diagram.__file__), "diagram.py")
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
    assert "_write_template" in names and "_orient_ports" in names
    for name in ("closedform", "g3table", "g3table_data", "classify", "REDUCED"):
        assert name not in names, name


# ---------------------------------------------------------------------------
# validate_pd against a genus counted by a face walk of its own


def random_gluing(rng: random.Random, n: int) -> PDCode:
    """n crossings whose 4n slots are paired at random, each pair one arc
    under a random id, beside up to two free loops (at least one if n is
    0, so that the code has a bracket)."""
    slots = list(range(4 * n))
    rng.shuffle(slots)
    ids = rng.sample(range(1, 10 * n + 10), 2 * n)
    arc = [0] * (4 * n)
    for k in range(2 * n):
        arc[slots[2 * k]] = arc[slots[2 * k + 1]] = ids[k]
    crossings = tuple(tuple(arc[4 * c:4 * c + 4]) for c in range(n))
    return PDCode(crossings, rng.randint(0 if n else 1, 2))


def euler_characteristics(pd: PDCode) -> list[int]:
    """V - E + F of each piece of the map whose vertices are the crossings,
    with their slots in counterclockwise order, and whose edges are the
    arcs.  A face is a cycle of slot -> the slot across its arc -> the
    slot before that one at its crossing."""
    n = pd.n()
    ends: dict[int, list[int]] = {}
    for slot, a in enumerate(itertools.chain(*pd.crossings)):
        ends.setdefault(a, []).append(slot)
    across = [0] * (4 * n)
    for s, t in ends.values():
        across[s], across[t] = t, s
    piece = list(range(n))

    def find(c):
        while piece[c] != c:
            c = piece[c]
        return c

    for s, t in ends.values():
        piece[find(s // 4)] = find(t // 4)
    roots = sorted({find(c) for c in range(n)})
    chi = {r: 0 for r in roots}
    for c in range(n):
        chi[find(c)] += 1 - 2  # one vertex, and half of its four edge ends
    seen = [False] * (4 * n)
    for start in range(4 * n):
        if seen[start]:
            continue
        chi[find(start // 4)] += 1
        s = start
        while not seen[s]:
            seen[s] = True
            t = across[s]
            s = 4 * (t // 4) + (t - 1) % 4
    return [chi[r] for r in roots]


def test_validate_pd_agrees_with_the_genus_of_random_gluings():
    rng = random.Random(20261019)
    verdicts = {"planar": 0, "split": 0, "genus": 0}
    for _ in range(3000):
        pd = random_gluing(rng, rng.randint(0, 6))
        chis = euler_characteristics(pd)
        if len(chis) > 1:
            expected = f"the diagram is split into {len(chis)} pieces"
        elif chis and chis[0] != 2:
            expected = "the code does not describe a planar diagram"
        else:
            expected = None
        try:
            validate_pd(pd)
            got = None
        except InvalidPDError as err:
            got = str(err)
        if expected is None:
            assert got is None, (pd, got)
            verdicts["planar"] += 1
            # an accepted code is one diagram: its bracket's exponents lie
            # in one class mod 4
            exponents = {e % 4 for e, _ in bracket_state_sum(pd).terms}
            assert len(exponents) == 1, (pd, exponents)
        else:
            assert got is not None and got.endswith(expected), (pd, got, chis)
            verdicts["split" if len(chis) > 1 else "genus"] += 1
    assert min(verdicts.values()) >= 100, verdicts
