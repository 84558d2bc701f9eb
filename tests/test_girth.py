import hashlib
import itertools
import json
import random
import time
from importlib import resources

import pytest
from diagram_builders import braid_closure_pd, pd_to_json
from girth_reference import (
    backtrack,
    decompose_pd,
    decompositions_of_girth,
    is_spanning_tree,
    reference_girths,
    reference_least,
    reference_trees,
)

from knotpair import girth as girth_module
from knotpair.classify import jones_equal
from knotpair.cli import main
from knotpair.closedform import bracket_girth3
from knotpair.diagram import (
    PDCode,
    checkerboard,
    orient,
    pd_from_json,
    pd_from_rep,
    pd_from_text,
    tait_graph,
)
from knotpair.girth import (
    BudgetError,
    TaitDecomposition,
    diagram_girth,
    rep_from_decomposition,
    spanning_trees,
    tree_contour,
    tree_count,
)
from knotpair.laurent import jones_from_bracket
from knotpair.oracle import bracket_state_sum
from knotpair.reps import (
    Girth1Rep,
    Girth2Rep,
    Girth3Rep,
    TreePairRep,
    canonicalize,
    parse_rep,
    rep_labels,
)
from knotpair.tables import ROLFSEN_TABLE, TABLE_ERRATA, crossing_number


def jones(pd):
    return jones_from_bracket(bracket_state_sum(pd), orient(pd).writhe)


def test_spanning_tree_enumeration_matches_matrix_tree_count():
    for rep in (Girth2Rep(3, -2), Girth1Rep(4), Girth3Rep((1, 2, 0), (0, -1, 2))):
        pd = pd_from_rep(rep)
        for shading in checkerboard(pd):
            g = tait_graph(pd, shading)
            assert sum(1 for _ in reference_trees(g)) == tree_count(g)


def test_decompose_rejects_non_spanning_sets():
    pd = pd_from_rep(Girth2Rep(2, -2))
    with pytest.raises(ValueError):
        decompose_pd(pd, 0, (0,))


def test_decompose_invariants():
    pd = pd_from_rep(Girth2Rep(3, -2))
    shades = checkerboard(pd)
    for si in (0, 1):
        g = tait_graph(pd, shades[si])
        for tree in reference_trees(g):
            d = decompose_pd(pd, si, tree)
            # |T| + |T'| equals the crossing count
            assert len(d.tree) + len(d.dual_tree) == pd.n()
            # both sides count the same girth (asserted inside, re-check)
            assert d.girth >= 2
            assert len(d.blocks) == d.girth


def test_diagram_girth_examples():
    g, _ = diagram_girth(pd_from_rep(Girth2Rep(2, -2)))
    assert g == 2
    g, _ = diagram_girth(pd_from_rep(Girth1Rep(3)))
    assert g == 2  # single twist is a girth-2 degenerate
    g, w = diagram_girth(pd_from_rep(Girth2Rep(0, 0)))
    assert g == 2 and w is None  # crossing-free circle, labels (0,0)


def test_diagram_girth_budget_refusal():
    # the closure of (s1 s2^-1)^9 has least girth 9, so it needs the
    # sweep, which the budget guards
    pd = braid_closure_pd([1, -2] * 9, 3)
    with pytest.raises(BudgetError) as err:
        diagram_girth(pd, budget=16)
    assert str(err.value) == "18 crossings exceeds the spanning-tree budget of 16"
    assert diagram_girth(pd, budget=18)[0] == 9
    # an over-budget nugatory diagram is refused as unreduced first
    unreduced = pd_from_rep(Girth3Rep((0, 0, 9), (9, 0, 0)))
    assert unreduced.n() == 18
    with pytest.raises(ValueError, match=r"^diagram is not reduced: crossings\[0\] is nugatory$"):
        diagram_girth(unreduced, budget=16)


def test_girth_2_and_3_answer_at_any_size_under_the_default_budget():
    # read by construction, so the budget does not guard them
    for text, n, want in (("(9,9)", 18, 2), ("[2 3 3 / 3 -3 3]", 17, 3),
                          ("[10 -10 10 / 10 10 -10]", 60, 3)):
        pd = pd_from_rep(parse_rep(text))
        assert pd.n() == n > girth_module.TREE_BUDGET_CROSSINGS
        assert diagram_girth(pd)[0] == want, text


def test_budget_refusal_runs_no_backtracking(monkeypatch):
    # the refusal comes before the sweep
    pd = braid_closure_pd([1, -2] * 9, 3)
    calls = []

    def spy(tait):
        calls.append(tait)
        return sweep(tait)

    sweep = girth_module._sweep
    monkeypatch.setattr(girth_module, "_sweep", spy)
    with pytest.raises(BudgetError):
        diagram_girth(pd, budget=16)
    assert calls == []
    diagram_girth(pd, budget=18)
    assert len(calls) == 1
    # an over-budget diagram of least girth 2 or 3 never sweeps
    assert diagram_girth(pd_from_rep(Girth2Rep(9, 9)), budget=16)[0] == 2
    assert len(calls) == 1


def test_crossing_free_diagram_answers_only_for_one_circle():
    # one circle is test_diagram_girth_examples' K(0,0); K(0) is two circles
    for pd in (pd_from_rep(Girth1Rep(0)), PDCode(()), PDCode((), 3)):
        with pytest.raises(ValueError, match="must be one circle"):
            diagram_girth(pd)


def test_figure2_girth_three():
    rep = Girth3Rep((0, 2, 2), (0, -1, -1))
    g, witness = diagram_girth(pd_from_rep(rep))
    assert g == 3
    assert isinstance(witness, TaitDecomposition)
    rec = rep_from_decomposition(witness)
    assert isinstance(rec, Girth3Rep)


def test_rep_recovery_girth2_grid():
    for p in range(-4, 5):
        for q in range(-4, 5):
            if abs(p) < 2 or abs(q) < 2:
                continue
            rep = Girth2Rep(p, q)
            pd = pd_from_rep(rep)
            _, witness = diagram_girth(pd)
            rec = rep_from_decomposition(witness)
            assert jones(pd_from_rep(rec)) == jones(pd), (p, q)


def test_a_girth2_witness_wheel_is_one_edge_per_side():
    # ``rep_from_decomposition`` reads a girth-2 rep off the label wheel:
    # each reduced tree of the witness is a single edge, whose label both
    # of its classes repeat
    pds = [
        pd_from_rep(Girth2Rep(p, q))
        for p, q in itertools.product(range(-14, 15), repeat=2)
        if abs(p) > 1 and abs(q) > 1 and abs(p) + abs(q) <= 16
    ]
    for f in _fixture_files():
        with resources.as_file(f) as path:
            pd = pd_from_json(path.read_text())
        if diagram_girth(pd)[0] == 2:
            pds.append(pd)
    assert len(pds) == 364 + 12
    for pd in pds:
        g, witness = diagram_girth(pd)
        assert g == 2, pd
        for tree, labels in (
            (witness.reduced_black, witness.black_class_labels),
            (witness.reduced_white, witness.white_class_labels),
        ):
            ((_, _, label),) = tree.edges
            assert labels == (label, label), pd


def test_round_trip_jones_on_table_entries():
    # every decomposition of girth <= 3 on small table diagrams recovers a
    # representation with the same oriented Jones polynomial
    checked = 0
    for name, rep_text in ROLFSEN_TABLE:
        if rep_text is None or crossing_number(name) > 6:
            continue
        rep_text = TABLE_ERRATA.get(name, rep_text)
        rep = parse_rep(rep_text)
        pd = pd_from_rep(rep)
        if pd.n() > 8:
            continue
        g, witness = diagram_girth(pd)
        rec = rep_from_decomposition(witness)
        if isinstance(rec, TreePairRep):
            continue
        multi = orient(pd).n_components > 1
        assert jones_equal(jones(pd_from_rep(rec)), jones(pd), unit_shift=multi), name
        checked += 1
    assert checked >= 10


def test_table_representations_realize_their_girth():
    for name, rep_text in ROLFSEN_TABLE:
        if rep_text is None or crossing_number(name) > 8:
            continue
        rep_text = TABLE_ERRATA.get(name, rep_text)
        rep = parse_rep(rep_text)
        pd = pd_from_rep(rep)
        if pd.n() < 2:
            continue
        g, _ = diagram_girth(pd)
        girth = min(len(rep_labels(rep)), 3)  # 1, 2 or 6 labels
        assert g <= max(girth, 2), name


def test_eight_eighteen_exploration():
    # the braid-closure diagram of the knot without a table entry: record
    # the per-diagram minimum over all spanning-tree decompositions
    pd = braid_closure_pd([1, -2] * 4, 3)
    g, witness = diagram_girth(pd)
    assert g >= 3  # its standard diagram admits no girth-2 splitting
    assert witness.girth == g
    print(f"8_18 standard diagram: minimal decomposition girth {g}")


def test_mixed_sign_merges_flagged():
    # a twist region merged from oppositely signed crossings is flagged
    rep = Girth3Rep((2, -2, 2), (1, 1, 0))
    pd = pd_from_rep(rep)
    flags = [d.mixed_signs for d in decompositions_of_girth(pd, diagram_girth(pd)[0])]
    assert flags  # at least one decomposition exists; flags are booleans


def test_pipeline_on_independent_reference_diagrams():
    # decompositions of externally sourced diagrams (arbitrary PD
    # conventions) still recover representations of the same knot
    from knotpair.census import _fixture_files as census_fixtures
    from knotpair.tables import fixture_filename

    files = census_fixtures(None)

    def fixture_pd(name):
        with open(files[fixture_filename(name)]) as f:
            return pd_from_json(f.read())

    for name in ["3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_4", "7_6"]:
        pd = fixture_pd(name)
        g, witness = diagram_girth(pd)
        rec = rep_from_decomposition(witness)
        assert not isinstance(rec, TreePairRep), name
        assert jones_equal(
            jones(pd_from_rep(rec)),
            jones(pd),
            unit_shift=orient(pd).n_components > 1,
            mirror_ok=True,
        ), name
    # the figure-eight reference diagram recovers the table entry itself
    pd = fixture_pd("4_1")
    _, witness = diagram_girth(pd)
    assert canonicalize(rep_from_decomposition(witness)) == canonicalize(parse_rep("(2,-2)"))


def _fixture_files():
    root = resources.files("knotpair").joinpath("fixtures").joinpath("rolfsen")
    files = [f for f in root.iterdir() if f.name.endswith(".pd.json")]
    return sorted(files, key=lambda f: f.name)


# reduced girth-2 and girth-3 templates (every Tait vertex of valence >= 2)
DUALITY_TEMPLATES = [
    Girth2Rep(2, 2),
    Girth2Rep(3, -2),
    Girth2Rep(-3, 4),
    Girth2Rep(2, 5),
    Girth3Rep((1, 2, 0), (0, -1, 2)),
    Girth3Rep((0, 2, 2), (0, -1, -1)),
    Girth3Rep((2, -2, 2), (1, 1, 0)),
    Girth3Rep((1, 1, 1), (1, 1, 1)),
    Girth3Rep((2, 1, -1), (1, -2, 1)),
    Girth3Rep((-1, 2, 1), (2, -1, 1)),
    Girth3Rep((2, 0, -2), (1, 2, 1)),
    Girth3Rep((2, 2, 2), (2, 2, 2)),
]


def test_shading_one_trees_are_complements_of_shading_zero_trees():
    # the girth search visits shading 0 only; this is the duality it rests on
    def key(d):
        return canonicalize(rep_from_decomposition(d))

    pds = [pd_from_json(f.read_text()) for f in _fixture_files()]
    pds += [pd_from_rep(rep) for rep in DUALITY_TEMPLATES]
    for pd in pds:
        shades = checkerboard(pd)
        black, white = tait_graph(pd, shades[0]), tait_graph(pd, shades[1])
        # a tree's girth is the number of sectors its contour walks
        girth0 = {t: len(tree_contour(black, t)[1]) for t in reference_trees(black)}
        girth1 = {t: len(tree_contour(white, t)[1]) for t in reference_trees(white)}
        assert len(girth0) == len(girth1), pd
        for t, g in girth1.items():
            complement = tuple(ei for ei in range(pd.n()) if ei not in t)
            assert girth0.get(complement) == g, (pd, t)
        for target in (2, 3):
            # what the search over both shadings recovered
            old = {
                key(decompose_pd(pd, si, t))
                for si, girths in ((0, girth0), (1, girth1))
                for t, g in girths.items()
                if g == target
            }
            new = {key(d) for d in decompositions_of_girth(pd, target)}
            assert new == old, (pd, target)


def test_decompose_json_of_fixtures_is_pinned(capsys):
    # every shipped fixture's witness, byte for byte: sha256 of the
    # concatenated `decompose --format json` stdout in filename order
    out = []
    for f in _fixture_files():
        with resources.as_file(f) as path:
            assert main(["decompose", str(path), "--format", "json"]) == 0
        out.append(capsys.readouterr().out)
    assert len(out) == 18
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "66efd1e4b1706ad637d064eb44b8199fd41fd0809e95a8c81389901d8ad7a987"


def _equal_up_to_a_unit(a, b) -> bool:
    """a = +-A^k b for some k."""
    if a.is_zero() or b.is_zero():
        return a == b
    b = b.shift(a.min_exp() - b.min_exp())
    return a in (b, -b)


def _printed_rep(path, capsys):
    """The rep that ``decompose --format json`` prints for the PD file at
    ``path``, and its girth."""
    assert main(["decompose", str(path), "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    return printed["rep"], printed["girth"]


def test_decompose_prints_a_rep_with_the_bracket_of_its_input(tmp_path, capsys):
    # the rep that ``decompose`` prints has, by its closed form, the
    # bracket of its input by the state sum, up to a unit +-A^k
    pds = []
    for f in _fixture_files():
        with resources.as_file(f) as path:
            pds.append(pd_from_json(path.read_text()))
    pds += [
        pd_from_rep(Girth2Rep(p, q))
        for p, q in itertools.product(range(-5, 6), repeat=2)
        if abs(p) > 1 and abs(q) > 1
    ]
    pds += [pd_from_rep(rep) for rep in DUALITY_TEMPLATES]
    rng = random.Random(20261020)
    for _ in range(120):
        labels = [rng.choice((-3, -2, 2, 3)) for _ in range(6)]
        pds.append(pd_from_rep(Girth3Rep(tuple(labels[:3]), tuple(labels[3:]))))
    for i, pd in enumerate(pds):
        path = tmp_path / f"{i}.pd"
        path.write_text(pd_to_json(pd))
        rep, g = _printed_rep(path, capsys)
        # every one of these diagrams has a girth <= 3 decomposition
        assert g <= 3, (i, pd)
        assert _equal_up_to_a_unit(bracket_state_sum(pd), bracket_girth3(parse_rep(rep))), (i, rep)


def _subset_filter_trees(tait):
    # reference: every (V-1)-subset of the non-loop edges, kept if acyclic
    v = tait.n_vertices
    if v == 1:
        return [()]
    ids = [ei for ei, e in enumerate(tait.edges) if e.v1 != e.v2]
    return [
        combo
        for combo in itertools.combinations(ids, v - 1)
        if is_spanning_tree(v, [(tait.edges[ei].v1, tait.edges[ei].v2) for ei in combo])
    ]


def _self_loop_diagram():
    return pd_from_rep(Girth3Rep((1, 2, 0), (0, 1, 0)))


def _self_loop_graph():
    # a Tait graph with a self-loop and parallel edges
    pd = _self_loop_diagram()
    g = tait_graph(pd, checkerboard(pd)[1])
    assert any(e.v1 == e.v2 for e in g.edges)
    pairs = [frozenset((e.v1, e.v2)) for e in g.edges]
    assert len(set(pairs)) < len(pairs)
    return g


def test_backtracking_trees_and_turn_girths_match_the_subset_filter_and_walk():
    # the reference enumeration against the subset filter and the walk
    pds = [pd_from_json(f.read_text()) for f in _fixture_files()]
    pds += [pd_from_rep(rep) for rep in DUALITY_TEMPLATES]
    graphs = [tait_graph(pd, shading) for pd in pds for shading in checkerboard(pd)]
    graphs.append(_self_loop_graph())
    for g in graphs:
        trees = list(reference_trees(g))
        assert trees == _subset_filter_trees(g)
        assert len(trees) == tree_count(g)
        girths = list(reference_girths(g))
        assert [t for _, t in girths] == trees
        for girth, tree in girths:
            vertices, dashes, exits = tree_contour(g, tree)
            assert girth == len(vertices) == len(dashes) == len(exits), tree


def _sampled_templates(count, seed=15):
    # girth-2 and girth-3 templates of 10 to 16 crossings, random label
    # sizes and signs: every label nonzero keeps the template reduced
    rng = random.Random(seed)
    reps = []
    for k in range(count):
        parts = 2 if k % 2 else 6
        n = rng.randint(10, 16)
        cuts = sorted(rng.sample(range(1, n), parts - 1))
        labels = [rng.choice((-1, 1)) * (b - a) for a, b in zip((0, *cuts), (*cuts, n))]
        if parts == 2:
            reps.append(Girth2Rep(*labels))
        else:
            reps.append(Girth3Rep(tuple(labels[:3]), tuple(labels[3:])))
    return reps


def _search_diagrams():
    pds = [pd_from_json(f.read_text()) for f in _fixture_files()]
    pds += [pd_from_rep(rep) for rep in DUALITY_TEMPLATES + _sampled_templates(24)]
    pds += [braid_closure_pd([1, -2] * k, 3) for k in range(2, 9)]
    return pds


def test_pruned_search_finds_the_reference_girth_and_witness():
    pds = _search_diagrams()
    assert {pd.n() for pd in pds} >= set(range(10, 17))
    graphs = [tait_graph(pd, shading) for pd in pds for shading in checkerboard(pd)]
    for g in graphs:
        # descending, the reference backtracking yields each tree whose
        # girth is below that of every tree before it in lex order: a bound
        # that cut a branch holding one of them would drop it
        minima = []
        for girth, tree in reference_girths(g):
            if not minima or girth < minima[-1][0]:
                minima.append((girth, tree))
        assert list(backtrack(g)) == minima
        assert minima[-1] == reference_least(g)
        # the public search yields that last tree alone, by construction or
        # by the sweep
        assert list(spanning_trees(g)) == [minima[-1]]
    for pd in pds:
        black = tait_graph(pd, checkerboard(pd)[0])
        g, witness = diagram_girth(pd, budget=pd.n())
        assert (g, witness.tree) == reference_least(black)


def _braid_grid_graphs():
    """Both shadings' Tait graphs of 500 reduced closures of random braid
    words of 6 to 18 letters on 3 to 6 strands."""
    rng = random.Random(12)
    graphs = []
    while len(graphs) < 1000:
        strands = rng.randint(3, 6)
        word = [rng.choice((-1, 1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(6, 18))]
        try:
            pd = braid_closure_pd(word, strands)
            graphs += girth_module._tait_graphs(pd)
        except ValueError:
            continue  # a split closure, or a nugatory crossing
    return graphs


def test_the_sweep_finds_the_backtracking_witness_on_random_braid_closures():
    # every graph the sweep answers, of least girth 4 or more: the sweep's
    # witness is the last tree of the branch and bound, and, on graphs
    # small enough to enumerate, the least tree of least girth
    swept = 0
    for g in _braid_grid_graphs():
        if girth_module._least_low_girth(g) is not None:
            continue
        least = girth_module._sweep(g)
        assert least[0] >= 4
        assert least == list(backtrack(g))[-1]
        if len(g.k0) < 10:
            assert least == reference_least(g)
        swept += 1
    assert swept > 600


def test_the_sweep_answers_a_48_crossing_braid_closure_at_once():
    # the branch and bound grew about 5x per +2 on k, 1.84 s at k = 16, so
    # it would take about 20 minutes here; the sweep is linear on these
    pd = braid_closure_pd([1, -2] * 24, 3)
    start = time.perf_counter()
    g, witness = diagram_girth(pd, budget=48)
    assert time.perf_counter() - start < 1
    assert g == witness.girth == 24


def test_a_self_loop_or_a_one_vertex_graph_is_refused_as_nugatory():
    # a loop in one shading is a bridge in the other; a one-vertex graph
    # has only loops, and the edge at a valence-1 vertex is a bridge
    kink = pd_from_text("X(1,1,2,2)")
    assert sorted(tait_graph(kink, s).n_vertices for s in checkerboard(kink)) == [1, 2]
    refusal = r"^diagram is not reduced: crossings\[0\] is nugatory$"
    for pd in (kink, _self_loop_diagram()):
        with pytest.raises(ValueError, match=refusal):
            girth_module._tait_graphs(pd)


def test_girth_and_decompose_walk_the_regions_once(monkeypatch, capsys):
    # pd_from_json validates the code by walking its regions and keeps
    # them; the shading reads them back instead of walking again
    import knotpair.diagram as diagram_module

    walks = []
    walk = diagram_module._corner_cycles

    def spy(other):
        walks.append(len(other))
        return walk(other)

    monkeypatch.setattr(diagram_module, "_corner_cycles", spy)
    fixture = next(f for f in _fixture_files() if f.name == "5_2.pd.json")
    for command in ("girth", "decompose"):
        with resources.as_file(fixture) as path:
            assert main([command, str(path)]) == 0
        assert walks == [4 * 5], command
        walks.clear()
    capsys.readouterr()


def test_pruned_search_cuts_the_dense_template_to_a_few_trees():
    pd = pd_from_rep(Girth3Rep((6, 6, 6), (6, 6, 6)))
    black = tait_graph(pd, checkerboard(pd)[0])
    found = list(spanning_trees(black))
    assert found[-1] == reference_least(black)
    assert found[-1][0] == 3
    assert len(found) < tree_count(black) // 1000
    backtracked = list(backtrack(black))
    assert backtracked[-1] == found[-1]
    assert len(backtracked) < tree_count(black) // 1000


def test_unreduced_diagram_is_refused_before_the_search(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return spanning_trees(*args, **kwargs)

    monkeypatch.setattr(girth_module, "spanning_trees", spy)
    pd = pd_from_rep(Girth3Rep((0, 0, 1), (1, 0, 0)))
    with pytest.raises(ValueError, match=r"crossings\[0\] is nugatory"):
        diagram_girth(pd)
    with pytest.raises(ValueError, match=r"crossings\[0\] is nugatory"):
        next(decompositions_of_girth(pd, 2))
    assert calls == []
    diagram_girth(pd_from_rep(Girth2Rep(2, -2)))
    assert len(calls) == 1

