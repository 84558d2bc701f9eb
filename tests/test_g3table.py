import ast
import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from knotpair import g3table, g3table_data
from knotpair.closedform import conway_girth3_even
from knotpair.diagram import orient, pd_from_rep
from knotpair.g3table import KNOTS, base_label
from knotpair.make_g3table import build_table, render
from knotpair.oracle import CONWAY_CAP, conway_fox
from knotpair.reps import Girth3Rep


def _rep(labels) -> Girth3Rep:
    return Girth3Rep(tuple(labels[:3]), tuple(labels[3:]))


def _fox(labels):
    return conway_fox(pd_from_rep(_rep(labels)))


def test_shipped_table_regenerates_from_fox():
    with open(g3table_data.__file__) as f:
        assert render(build_table()) == f.read()
    assert len(KNOTS) == 36


def test_components_and_writhe_match_orient():
    # knots and links alike, on full templates with labels of |x| = 3
    rng = random.Random(20261018)
    knots = 0
    for _ in range(600):
        labels = tuple(rng.randint(-3, 3) for _ in range(6))
        ori = orient(pd_from_rep(_rep(labels)))
        expected = ori.n_components, ori.writhe
        assert g3table.components_and_writhe(labels) == expected, labels
        knots += ori.n_components == 1
    assert 200 < knots < 400


@pytest.mark.parametrize("pattern", sorted(KNOTS))
def test_conway_matches_fox_off_the_corners(pattern):
    # one axis at shift -4..4 from its lower corner, the others at corners
    # that change with the shift, so zero and negative labels all occur
    base = [base_label(pattern, i) for i in range(6)]
    for axis in range(6):
        for shift in range(-4, 5):
            labels = [b + 2 * ((shift + j) & 1) for j, b in enumerate(base)]
            labels[axis] = base[axis] + 2 * shift
            assert g3table.conway(labels) == _fox(labels), labels


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(KNOTS)), st.lists(st.integers(-2, 3), min_size=6, max_size=6))
def test_conway_matches_fox_property(pattern, shifts):
    labels = [base_label(pattern, i) + 2 * m for i, m in enumerate(shifts)]
    assume(sum(map(abs, labels)) <= CONWAY_CAP)
    assert g3table.conway(labels) == _fox(labels)


def test_all_even_pattern_matches_the_even_formula():
    rng = random.Random(7)
    for _ in range(200):
        labels = [2 * rng.randint(-40, 40) for _ in range(6)]
        assert g3table.conway(labels) == conway_girth3_even(_rep(labels)), labels


@pytest.mark.parametrize(
    "module, absent",
    [
        ("knotpair.g3table", "knotpair.oracle"),
        ("knotpair.cli", "knotpair.g3table"),
        ("knotpair.closedform", "knotpair.oracle"),
        ("knotpair.oracle", "knotpair.closedform"),
        ("knotpair.oracle", "knotpair.g3table"),
    ],
)
def test_import_leaves_module_unloaded(module, absent):
    # the table and the closed forms read nothing from the oracle, nor the
    # oracle from them, and the CLI loads the table only when a girth-2 or
    # girth-3 rep needs it
    code = f"import sys, {module}; assert {absent!r} not in sys.modules"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def _package_modules():
    """(file name, ast) of each module of the package."""
    pkg = os.path.dirname(g3table.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                yield name, ast.parse(f.read(), name)


def test_oracle_decodes_its_own_digits():
    # the oracle reads its determinant's digits the way the closed forms
    # read their products, but with its own loop, never ``laurent.unpack``
    (tree,) = [tree for name, tree in _package_modules() if name == "oracle.py"]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert "_alexander" in names and "unpack" not in names


def test_package_imports_only_the_standard_library():
    outside = []
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [(name, r) for r in roots if r not in sys.stdlib_module_names]
    assert outside == []


def test_package_reads_every_name_it_imports():
    unused = []
    for name, tree in _package_modules():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [(name, n) for n in sorted(imported - read)]
    assert unused == []
