import hashlib
import itertools
import random
from importlib import resources

import pytest
from diagram_builders import braid_closure_pd
from girth_reference import (
    decompose_pd,
    decompositions_of_girth,
    is_spanning_tree,
    reference_girths,
    reference_least,
    reference_trees,
)

from knotpair.classify import jones_equal
from knotpair.cli import main
from knotpair.diagram import (
    PDCode,
    checkerboard,
    orient,
    pd_from_json,
    pd_from_rep,
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
    pd = pd_from_rep(Girth2Rep(9, 9))
    with pytest.raises(BudgetError) as err:
        diagram_girth(pd, budget=16)
    assert str(err.value) == "18 crossings exceeds the spanning-tree budget of 16"


def test_budget_refusal_builds_no_tait_graph(monkeypatch):
    import knotpair.girth as girth_module

    pd = pd_from_rep(Girth2Rep(9, 9))
    shades = checkerboard(pd)
    # both shadings have the same number of trees (planar duality)
    assert tree_count(tait_graph(pd, shades[0])) == tree_count(tait_graph(pd, shades[1]))
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(girth_module, "checkerboard", spy("checkerboard", checkerboard))
    monkeypatch.setattr(girth_module, "tait_graph", spy("tait_graph", tait_graph))
    with pytest.raises(BudgetError):
        diagram_girth(pd, budget=16)
    assert calls == []
    diagram_girth(pd, budget=18)
    assert calls == ["checkerboard", "tait_graph", "tait_graph"]


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
        assert g <= max(rep.girth(), 2), name


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
    assert canonicalize(rep_from_decomposition(witness)).key == canonicalize(
        parse_rep("(2,-2)")
    ).key


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
        return canonicalize(rep_from_decomposition(d)).key

    pds = [pd_from_json(f.read_text()) for f in _fixture_files()]
    pds += [pd_from_rep(rep) for rep in DUALITY_TEMPLATES]
    for pd in pds:
        shades = checkerboard(pd)
        black, white = tait_graph(pd, shades[0]), tait_graph(pd, shades[1])
        girth0 = {t: tree_contour(black, t).girth() for t in reference_trees(black)}
        girth1 = {t: tree_contour(white, t).girth() for t in reference_trees(white)}
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


def _self_loop_graph():
    # a Tait graph with a self-loop and parallel edges
    pd = pd_from_rep(Girth3Rep((1, 2, 0), (0, 1, 0)))
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
            assert girth == tree_contour(g, tree).girth(), tree


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
    graphs.append(_self_loop_graph())
    for g in graphs:
        found = list(spanning_trees(g, 2 * g.n_vertices, descend=True))
        assert found, g
        girths = [girth for girth, _ in found]
        assert girths == sorted(set(girths), reverse=True)
        assert found[-1] == reference_least(g)
        for target in (2, 3):
            assert [t for girth, t in spanning_trees(g, target) if girth == target] == [
                t for girth, t in reference_girths(g) if girth == target
            ]
    for pd in pds:
        black = tait_graph(pd, checkerboard(pd)[0])
        g, witness = diagram_girth(pd, budget=pd.n())
        assert (g, witness.tree) == reference_least(black)
        for target in (2, 3):
            assert [d.tree for d in decompositions_of_girth(pd, target)] == [
                t for girth, t in reference_girths(black) if girth == target
            ]


def test_pruned_search_cuts_the_dense_template_to_a_few_trees():
    pd = pd_from_rep(Girth3Rep((6, 6, 6), (6, 6, 6)))
    black = tait_graph(pd, checkerboard(pd)[0])
    found = list(spanning_trees(black, 2 * black.n_vertices, descend=True))
    assert found[-1] == reference_least(black)
    assert found[-1][0] == 3
    assert len(found) < tree_count(black) // 1000


def test_unreduced_diagram_is_refused_before_the_search(monkeypatch):
    import knotpair.girth as girth_module

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return spanning_trees(*args, **kwargs)

    monkeypatch.setattr(girth_module, "spanning_trees", spy)
    pd = pd_from_rep(Girth3Rep((0, 0, 1), (1, 0, 0)))
    with pytest.raises(ValueError, match="valence-1 vertex"):
        diagram_girth(pd)
    with pytest.raises(ValueError, match="valence-1 vertex"):
        next(decompositions_of_girth(pd, 2))
    assert calls == []
    diagram_girth(pd_from_rep(Girth2Rep(2, -2)))
    assert len(calls) == 1

