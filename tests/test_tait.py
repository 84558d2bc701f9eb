"""The half-edge Tait graph against the per-edge reference.

``knotpair.diagram.TaitGraph`` keeps a rotation system as flat ints, and
``girth`` searches, walks and reduces on those alone.  ``tait_reference``
keeps the per-edge records, the contour walk, the tree reduction to
``ReducedTree`` records and ``decompose`` as they were.  The view ``edges``
and the rotation read off the arrays (``tait_reference.rotation_view``)
must equal the reference graph; the contour, the reduced plane trees and
the decompositions must equal the reference's, converted, on every tree.
The command path must not build the view.
"""

import itertools
import json

import pytest
import tait_reference as ref
from diagram_builders import pd_to_json
from girth_reference import reference_trees
from hypothesis import given, settings, strategies as st
from test_cli_match import ROOT, _perfbench_plan
from test_girth import _fixture_files

from knotpair import girth
from knotpair.cli import main
from knotpair.diagram import (
    TaitGraph,
    checkerboard,
    pd_from_json,
    pd_from_rep,
    tait_graph,
)
from knotpair.reps import Girth1Rep, Girth2Rep, Girth3Rep


def _fixture_texts():
    return [f.read_text() for f in _fixture_files()]


def _perfbench_texts(tmp_path, seed):
    """The PD texts of every ``decompose`` command perfbench plans for a seed."""
    texts = []
    for commands in _perfbench_plan().make_rounds("decompose", seed, ROOT, str(tmp_path)):
        for cmd in commands:
            with open(cmd["argv"][1]) as f:
                texts.append(f.read())
    return texts


def _grid_pds():
    """The girth-2 grid |p|, |q| <= 4 and the girth-3 grid of labels -1, 0
    and 2, wherever the template has crossings and no free loop."""
    reps = [Girth1Rep(p) for p in range(-4, 5)]
    reps += [Girth2Rep(p, q) for p, q in itertools.product(range(-4, 5), repeat=2)]
    reps += [
        Girth3Rep(labels[:3], labels[3:])
        for labels in itertools.product((-1, 0, 2), repeat=6)
    ]
    pds = [pd_from_rep(rep) for rep in reps]
    return [pd for pd in pds if pd.n() and not pd.free_loops]


def _assert_views_equal_the_reference(pd):
    for shading in checkerboard(pd):
        graph, old = tait_graph(pd, shading), ref.tait_graph(pd, shading)
        assert graph.n_vertices == old.n_vertices
        assert graph.edges == old.edges
        assert graph.k0 == old.k0
        assert ref.rotation_view(graph) == old.rotation


def test_views_equal_the_reference_on_the_grids_and_fixtures():
    pds = _grid_pds() + [pd_from_json(text) for text in _fixture_texts()]
    assert len(pds) > 700
    for pd in pds:
        _assert_views_equal_the_reference(pd)


@pytest.mark.parametrize("seed", [0, 1])
def test_views_equal_the_reference_on_the_benchmark_inputs(tmp_path, seed):
    texts = _perfbench_texts(tmp_path, seed)
    assert len(texts) == 1200
    for text in set(texts):
        _assert_views_equal_the_reference(pd_from_json(text))


def test_the_arrays_are_a_rotation_system():
    # succ permutes the half-edges and keeps each at its vertex; the
    # vertices are numbered in the order of their least half-edges
    for pd in _grid_pds()[:200]:
        for shading in checkerboard(pd):
            graph = tait_graph(pd, shading)
            assert sorted(graph.succ) == list(range(2 * pd.n()))
            assert all(graph.vertex[s] == graph.vertex[h] for h, s in enumerate(graph.succ))
            firsts = [graph.vertex.index(v) for v in range(graph.n_vertices)]
            assert firsts == sorted(firsts)
            assert hash(graph) == hash(tait_graph(pd, shading))


def _small_graphs():
    """(new, reference) Tait graph pairs of small templates, a self-loop
    among them."""
    reps = [
        Girth1Rep(3), Girth1Rep(-4),
        Girth2Rep(2, 2), Girth2Rep(3, -2), Girth2Rep(-3, 4), Girth2Rep(1, 3),
        Girth3Rep((1, 2, 0), (0, 1, 0)),  # shading 1 has a self-loop
        Girth3Rep((1, 1, 1), (1, 1, 1)),
        Girth3Rep((2, 1, -1), (1, -2, 1)),
        Girth3Rep((2, 0, -2), (1, 2, 1)),
        Girth3Rep((2, 2, 2), (2, 2, 2)),
        Girth3Rep((3, -2, 2), (2, 3, -1)),
        Girth3Rep((0, 0, 1), (1, 0, 0)),  # unreduced: valence-1 vertices
    ]
    pairs = []
    for rep in reps:
        pd = pd_from_rep(rep)
        for shading in checkerboard(pd):
            pairs.append((tait_graph(pd, shading), ref.tait_graph(pd, shading)))
    return pairs


def _contour_as_pairs(graph, tree):
    """``girth.tree_contour`` as a reference ``Contour``, each half-edge h
    written (h >> 1, h & 1)."""
    vertices, dashes, exits = girth.tree_contour(graph, tree)
    return ref.Contour(
        vertices,
        tuple(tuple(divmod(h, 2) for h in sector) for sector in dashes),
        tuple(divmod(h, 2) for h in exits),
    )


def _reference_reduction(old, tree, sign):
    """The reference reduction in the shape ``girth.reduce_tree`` returns:
    the plane tree, the kept vertices and whether a merge mixed signs."""
    red = ref.reduce_tree(old, tree, sign)
    return ref._as_plane_tree(red), red.vertices, any(e.mixed_signs for e in red.edges)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_contour_and_reduction_equal_the_reference_on_every_tree():
    pairs = _small_graphs()
    assert any(e.v1 == e.v2 for graph, _ in pairs for e in graph.edges)
    trees = 0
    for graph, old in pairs:
        for tree in reference_trees(graph):
            trees += 1
            contour = _outcome(_contour_as_pairs, graph, tree)
            assert contour == _outcome(ref.tree_contour, old, tree), tree
            for sign in (-1, 1):
                assert _outcome(girth.reduce_tree, graph, tree, sign) == _outcome(
                    _reference_reduction, old, tree, sign
                ), tree
    assert trees > 900


def test_a_one_vertex_graph_reduces_like_the_reference():
    graph = TaitGraph(1, (0, 0), (1, 0), (0,))
    old = ref.TaitGraph(1, graph.edges, ref.rotation_view(graph), graph.k0)
    assert girth.reduce_tree(graph, (), -1) == _reference_reduction(old, (), -1)
    for walk, g in ((girth.tree_contour, graph), (ref.tree_contour, old)):
        with pytest.raises(ValueError, match="edgeless tree"):
            walk(g, ())


_label = st.integers(-5, 5).filter(bool)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.builds(Girth2Rep, _label, _label),
        st.builds(Girth3Rep, st.tuples(*[_label] * 3), st.tuples(*[_label] * 3)),
    ),
    st.randoms(use_true_random=False),
)
def test_decompose_summary_equals_the_reference(rep, rng):
    pd = pd_from_rep(rep)
    try:
        graphs = girth._tait_graphs(pd)
    except ValueError:
        return  # unreduced: refused before any decomposition
    shades = checkerboard(pd)
    olds = [ref.tait_graph(pd, shading) for shading in shades]
    for si in (0, 1):
        black, white = graphs[si], graphs[1 - si]
        trees = list(itertools.islice(reference_trees(black), 400))
        for tree in rng.sample(trees, min(len(trees), 12)):
            new = girth.decompose(si, tree, black, white)
            old = ref.decompose(si, tree, olds[si], olds[1 - si])
            assert new.summary() == old.summary(), (rep, si, tree)
            assert new == old
    girth_value, witness = girth.diagram_girth(pd, budget=pd.n())
    old = ref.decompose(0, witness.tree, *olds)
    assert witness.summary() == old.summary() and old.girth == girth_value


def test_the_command_path_builds_no_record_view(monkeypatch, tmp_path, capsys):
    # decompose reads the half-edge arrays only: the per-edge view is for
    # the tests and the benchmark's counters
    def refuse(self):
        raise AssertionError("a Tait graph view was built on the command path")

    paths = []
    for i, text in enumerate(_fixture_texts()):
        paths.append(tmp_path / f"fixture{i}.json")
        paths[-1].write_text(text)
    template = tmp_path / "template.json"
    template.write_text(pd_to_json(pd_from_rep(Girth3Rep((2, -3, 1), (1, 2, -2)))))
    paths.append(template)
    expected = []
    for path in paths:
        assert main(["decompose", str(path), "--format", "json"]) == 0
        expected.append(capsys.readouterr().out)
    assert json.loads(expected[-1])["girth"] == 3

    monkeypatch.setattr(TaitGraph, "edges", property(refuse))
    pd = pd_from_rep(Girth2Rep(2, 3))
    with pytest.raises(AssertionError, match="view was built"):
        tait_graph(pd, checkerboard(pd)[0]).edges
    for path, out in zip(paths, expected):
        assert main(["decompose", str(path), "--format", "json"]) == 0
        assert capsys.readouterr().out == out
        assert main(["decompose", str(path)]) == 0
        capsys.readouterr()
