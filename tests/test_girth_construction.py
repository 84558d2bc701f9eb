"""The girth-2 and girth-3 construction of ``girth.spanning_trees``, and
the one refusal that hands it loopless graphs only.

``girth._tait_graphs`` refuses a diagram with a nugatory crossing, whose
edge is a loop in one of the two Tait graphs, so the search only sees
loopless graphs of at least two vertices.  On one whose least girth is 2
or 3, ``spanning_trees`` yields the least tree alone, read off the few
candidate trees of ``girth._least_low_girth``; on any other it yields the
least tree of the frontier sweep, ``girth._sweep``.  The construction must
give the witness of the full enumeration (``girth_reference.reference_least``)
on every graph below, the sweep must run exactly where the construction
cannot answer, and ``decompose``'s output on the benchmark's inputs must
stay byte for byte what it was before the construction.
"""

import hashlib
import random

import pytest
from diagram_builders import braid_closure_pd
from girth_reference import reference_least
from hypothesis import given, settings, strategies as st
from test_cli_match import ROOT, _perfbench_plan
from test_girth import _search_diagrams

from knotpair import girth
from knotpair.cli import main
from knotpair.diagram import checkerboard, pd_from_json, pd_from_rep, regions, tait_graph
from knotpair.reps import Girth2Rep, Girth3Rep

# sha256 of the concatenated `decompose --format json` stdout over every
# benchmark `decompose` input of the seed, as the branch and bound printed
# it before the construction and the sweep
DECOMPOSE_DIGESTS = {
    0: "b9aae93ce0f66b1b78de1220a0b73d75dea10c3116aac9d0ad15e87edd1252cb",
    1: "de536753fce94d018594630ca8a4e941ba840d7b5c26baf2fd5bc30e676ec1cc",
}


def _spy(monkeypatch):
    """The graphs ``girth._sweep`` is called on, in call order."""
    graphs = []
    sweep = girth._sweep

    def spy(tait):
        graphs.append(tait)
        return sweep(tait)

    monkeypatch.setattr(girth, "_sweep", spy)
    return graphs


@pytest.fixture
def swept(monkeypatch):
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


def _assert_least(g, swept):
    """The search yields the reference witness alone: by construction
    exactly when the least girth is 2 or 3, otherwise by the sweep.
    Returns the witness."""
    least = reference_least(g)
    swept.clear()
    assert list(girth.spanning_trees(g)) == [least]
    if least[0] in (2, 3):
        assert girth._least_low_girth(g) == least
        assert swept == []
    else:
        assert girth._least_low_girth(g) is None
        assert swept == [g]
    return least


def test_the_construction_finds_the_reference_witness_on_the_search_diagrams(swept):
    # fixtures, duality and sampled templates and braid closures, both
    # shadings
    graphs = [g for pd in _search_diagrams() for g in _graphs(pd)]
    for g in graphs:
        _assert_least(g, swept)


def test_the_backtracking_runs_on_braid_closures_from_k_4(swept):
    # the closure of (s1 s2^-1)^k has least girth k in both shadings; the
    # sweep, which replaced the backtracking, runs from k = 4
    for k in range(2, 9):
        for g in _graphs(braid_closure_pd([1, -2] * k, 3)):
            swept.clear()
            ((found, _),) = girth.spanning_trees(g)
            assert found == k
            assert swept == ([g] if k >= 4 else [])


def _random_closures():
    """600 connected closures of random braid words of 2 to 11 letters on
    2 to 5 strands: many have nugatory crossings, cut vertices, or
    candidates that count girth 2 or 3 without spanning."""
    rng = random.Random(5)
    pds = []
    while len(pds) < 600:
        strands = rng.randint(2, 5)
        length = rng.randint(2, 11)
        word = [rng.choice((-1, 1)) * rng.randint(1, strands - 1) for _ in range(length)]
        try:
            pds.append(braid_closure_pd(word, strands))
        except ValueError:
            continue  # a split closure
    return pds


def _nugatory(pd):
    """The crossings with two opposite corners in one region, read off the
    corner cycles of ``regions`` alone: opposite corners are the two black
    or the two white corners of a crossing, in either shading."""
    region_of = {}
    for r, corners in enumerate(regions(pd)):
        for c in corners:
            region_of[c] = r
    return [
        x
        for x in range(pd.n())
        if region_of[4 * x] == region_of[4 * x + 2] or region_of[4 * x + 1] == region_of[4 * x + 3]
    ]


def test_a_diagram_is_refused_exactly_when_a_crossing_is_nugatory():
    refused = 0
    for pd in _random_closures():
        nugatory = _nugatory(pd)
        if nugatory:
            refused += 1
            refusal = rf"^diagram is not reduced: crossings\[{nugatory[0]}\] is nugatory$"
            with pytest.raises(ValueError, match=refusal):
                girth._tait_graphs(pd)
        else:
            girth._tait_graphs(pd)
    assert 100 < refused < 500


def test_the_construction_finds_the_reference_witness_on_random_braid_closures(swept):
    # composite diagrams too, and graphs with bridges; the search is only
    # ever handed loopless graphs, so the loops stay out
    graphs = [g for pd in _random_closures() for g in _graphs(pd)]
    loopless = [g for g in graphs if all(e.v1 != e.v2 for e in g.edges)]
    assert 600 < len(loopless) < len(graphs)
    for g in loopless:
        _assert_least(g, swept)


@pytest.mark.parametrize("seed", [0, 1])
def test_the_benchmark_inputs_never_backtrack(tmp_path, swept, seed):
    # every input has least girth 2 or 3 in both shadings, so none reaches
    # the sweep
    paths = _benchmark_paths(tmp_path, seed)
    assert len(paths) == 1200
    for path in paths:
        with open(path) as f:
            pd = pd_from_json(f.read())
        for g in _graphs(pd):
            least = reference_least(g)
            assert least[0] in (2, 3)
            assert list(girth.spanning_trees(g)) == [least]
    assert swept == []


@pytest.mark.parametrize("seed", [0, 1])
def test_decompose_json_of_the_benchmark_inputs_is_pinned(tmp_path, capsys, swept, seed):
    digest = hashlib.sha256()
    for path in _benchmark_paths(tmp_path, seed):
        assert main(["decompose", path, "--format", "json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == DECOMPOSE_DIGESTS[seed]
    assert swept == []


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
        swept = _spy(monkeypatch)
        for g in _graphs(pd_from_rep(rep)):
            assert _assert_least(g, swept)[0] in (2, 3), rep
