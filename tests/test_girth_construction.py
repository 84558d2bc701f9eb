"""The girth-2 and girth-3 construction of ``girth.spanning_trees``.

Descending on a loopless graph of at least two vertices whose least girth
is 2 or 3, ``spanning_trees`` yields the least tree alone, read off the few
candidate trees of ``girth._least_low_girth``; every other call goes to
the backtracking, ``girth._backtrack``.  The construction must give the
witness of the full enumeration (``girth_reference.reference_least``) on
every graph below, the backtracking must run exactly where the
construction cannot answer, and ``decompose``'s output on the benchmark's
inputs must stay byte for byte what it was before the construction.
"""

import hashlib
import random

import pytest
from diagram_builders import braid_closure_pd
from girth_reference import constructible, reference_least
from hypothesis import given, settings, strategies as st
from test_cli_match import ROOT, _perfbench_plan
from test_girth import _search_diagrams, _self_loop_graph

from knotpair import girth
from knotpair.cli import main
from knotpair.diagram import checkerboard, pd_from_json, pd_from_rep, tait_graph
from knotpair.reps import Girth2Rep, Girth3Rep

# sha256 of the concatenated `decompose --format json` stdout over every
# benchmark `decompose` input of the seed, as the backtracking printed it
DECOMPOSE_DIGESTS = {
    0: "b9aae93ce0f66b1b78de1220a0b73d75dea10c3116aac9d0ad15e87edd1252cb",
    1: "de536753fce94d018594630ca8a4e941ba840d7b5c26baf2fd5bc30e676ec1cc",
}


def _spy(monkeypatch):
    """The graphs ``girth._backtrack`` is called on, in call order."""
    graphs = []
    backtrack = girth._backtrack

    def spy(tait, cap, descend):
        graphs.append(tait)
        return backtrack(tait, cap, descend)

    monkeypatch.setattr(girth, "_backtrack", spy)
    return graphs


@pytest.fixture
def backtracked(monkeypatch):
    return _spy(monkeypatch)


def _graphs(pd):
    return [tait_graph(pd, shading) for shading in checkerboard(pd)]


def _benchmark_paths(tmp_path, seed):
    plan = _perfbench_plan()
    return [
        cmd["argv"][1]
        for commands in plan.make_rounds("decompose", seed, ROOT, str(tmp_path))
        for cmd in commands
    ]


def _assert_least(g, backtracked):
    """The construction answers exactly when ``constructible`` says so, with
    the reference witness; otherwise the backtracking runs and ends there.
    Returns the witness."""
    least = reference_least(g)
    backtracked.clear()
    found = list(girth.spanning_trees(g, 2 * g.n_vertices, descend=True))
    if constructible(g, least[0]):
        assert girth._least_low_girth(g) == least
        assert found == [least] and backtracked == []
    else:
        assert girth._least_low_girth(g) is None
        assert found[-1] == least and backtracked == [g]
    return least


def test_the_construction_finds_the_reference_witness_on_the_search_diagrams(backtracked):
    # fixtures, duality and sampled templates and braid closures, both
    # shadings, and a graph with a self-loop
    graphs = [g for pd in _search_diagrams() for g in _graphs(pd)]
    for g in graphs + [_self_loop_graph()]:
        _assert_least(g, backtracked)


def test_the_backtracking_runs_on_braid_closures_from_k_4_and_on_a_self_loop(backtracked):
    # the closure of (s1 s2^-1)^k has least girth k in both shadings
    for k in range(2, 9):
        for g in _graphs(braid_closure_pd([1, -2] * k, 3)):
            backtracked.clear()
            found = list(girth.spanning_trees(g, 2 * g.n_vertices, descend=True))
            assert found[-1][0] == k
            assert backtracked == ([g] if k >= 4 else [])
    g = _self_loop_graph()
    backtracked.clear()
    assert list(girth.spanning_trees(g, 2 * g.n_vertices, descend=True))[-1][0] == 2
    assert backtracked == [g]


def test_the_construction_finds_the_reference_witness_on_random_braid_closures(backtracked):
    # unreduced and composite diagrams too: self-loops, cut vertices, and
    # candidates that count girth 2 or 3 without spanning
    rng = random.Random(5)
    graphs = []
    while len(graphs) < 600:
        strands = rng.randint(2, 5)
        length = rng.randint(2, 11)
        word = [rng.choice((-1, 1)) * rng.randint(1, strands - 1) for _ in range(length)]
        try:
            graphs += _graphs(braid_closure_pd(word, strands))
        except ValueError:
            continue  # a split closure
    for g in graphs:
        _assert_least(g, backtracked)


def test_the_construction_keeps_the_cap():
    # no tree within a cap below the least girth, as the backtracking says
    for rep in (Girth2Rep(3, -2), Girth3Rep((2, 1, -3), (1, 2, 2))):
        for g in _graphs(pd_from_rep(rep)):
            least = reference_least(g)
            for cap in range(least[0] + 2):
                found = list(girth.spanning_trees(g, cap, descend=True))
                assert found == ([least] if cap >= least[0] else [])
                assert found[-1:] == list(girth._backtrack(g, cap, True))[-1:]


@pytest.mark.parametrize("seed", [0, 1])
def test_the_benchmark_inputs_never_backtrack(tmp_path, backtracked, seed):
    paths = _benchmark_paths(tmp_path, seed)
    assert len(paths) == 1200
    for path in paths:
        with open(path) as f:
            pd = pd_from_json(f.read())
        for g in _graphs(pd):
            least = reference_least(g)
            assert least[0] in (2, 3)
            assert list(girth.spanning_trees(g, 2 * g.n_vertices, descend=True)) == [least]
    assert backtracked == []


@pytest.mark.parametrize("seed", [0, 1])
def test_decompose_json_of_the_benchmark_inputs_is_pinned(tmp_path, capsys, backtracked, seed):
    digest = hashlib.sha256()
    for path in _benchmark_paths(tmp_path, seed):
        assert main(["decompose", path, "--format", "json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == DECOMPOSE_DIGESTS[seed]
    assert backtracked == []


_label = st.integers(-6, 6).filter(bool)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.builds(Girth2Rep, _label, _label),
        st.builds(Girth3Rep, st.tuples(*[_label] * 3), st.tuples(*[_label] * 3)),
    )
)
def test_the_construction_finds_the_reference_witness_on_templates(rep):
    # both shadings of every template have least girth 2 or 3; hypothesis
    # reruns the body, so the spy is set here, not by a fixture
    with pytest.MonkeyPatch.context() as monkeypatch:
        backtracked = _spy(monkeypatch)
        for g in _graphs(pd_from_rep(rep)):
            assert _assert_least(g, backtracked)[0] in (2, 3), rep
