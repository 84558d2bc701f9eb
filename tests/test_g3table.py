import ast
import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import g3table_reference
from g3table_reference import base_label
from knotpair import g3table, g3table_data
from knotpair.census import _labellings
from knotpair.classify import check_identities, closed_invariants
from knotpair.closedform import bracket_girth3, conway_girth3_even
from knotpair.diagram import orient, pd_from_rep
from knotpair.g3table import KNOTS
from knotpair.laurent import jones_from_bracket, slot_bits
from knotpair.oracle import CONWAY_CAP, conway_fox
from knotpair.reps import Girth3Rep, g3_labels
from make_g3table import build_table, render


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


def _grid(pattern):
    """One axis at shift -4..4 from its lower corner, the others at corners
    that change with the shift, so zero and negative labels all occur."""
    base = [base_label(pattern, i) for i in range(6)]
    for axis in range(6):
        for shift in range(-4, 5):
            labels = [b + 2 * ((shift + j) & 1) for j, b in enumerate(base)]
            labels[axis] = base[axis] + 2 * shift
            yield tuple(labels)


def test_closed_form_matches_the_stepwise_walk():
    # the grid of the Fox comparison over every knot pattern, then random
    # labels to +-60 that put several axes off their corners at once
    for pattern in sorted(KNOTS):
        for labels in _grid(pattern):
            assert g3table.conway(labels) == g3table_reference.conway(labels), labels
    rng = random.Random(20261019)
    for _ in range(300):
        pattern = rng.choice(sorted(KNOTS))
        labels = tuple(base_label(pattern, i) + 2 * rng.randint(-30, 30) for i in range(6))
        assert g3table.conway(labels) == g3table_reference.conway(labels), labels


def test_the_widest_labelling_decodes_exactly_at_its_width():
    # of every knot pattern with each label at b_i +- 12, the labelling
    # whose ||nabla||_1 comes nearest its bound decodes to the walk's
    # polynomial at the proven width
    def bound(labels):
        return g3table.conway_bound(labels, KNOTS[g3table_reference._pattern(labels)][0])

    def ratio(labels):
        return sum(abs(c) for _, c in g3table.conway(labels).terms) / bound(labels)

    labellings = [
        tuple(base_label(pattern, i) + 12 * sign for i, sign in enumerate(signs))
        for pattern in sorted(KNOTS)
        for signs in itertools.product((1, -1), repeat=6)
    ]
    widest = max(labellings, key=ratio)
    nabla = g3table.conway(widest)
    assert nabla == g3table_reference.conway(widest)
    assert sum(abs(c) for _, c in nabla.terms) <= bound(widest)
    assert bound(widest) < 1 << slot_bits(bound(widest)) - 1


def test_the_corners_decode_to_the_generators_polynomials():
    _, knots = build_table()
    assert sorted(knots) == sorted(KNOTS)
    for pattern, (kinds, corners) in knots.items():
        assert KNOTS[pattern][0] == kinds
        assert g3table_reference.corners(pattern) == corners, pattern


@pytest.mark.parametrize("k", [8, 16, 24, 48, 64])
def test_the_packed_corners_are_each_corners_own_packing(k):
    # the row-wise Horner passes against each corner's own Horner's rule
    for pattern in KNOTS:
        want = tuple(g3table_reference.pack(coeffs, k)
                     for coeffs in g3table_reference.corners(pattern))
        assert g3table._packed(pattern, k) == want, pattern


@pytest.mark.parametrize("coeff, fits", [(127, True), (-128, True), (128, False), (-129, False)])
def test_render_refuses_a_coefficient_past_a_signed_byte(coeff, fits):
    corners = ((1,),) * 63 + ((1, 0, coeff),)
    table = (b"", {0: ("A" * 6, corners)})
    if fits:
        assert f'"{"00" * 63}{coeff & 0xFF:02x}",' in render(table)
    else:
        with pytest.raises(AssertionError, match="signed byte"):
            render(table)


def test_the_corner_norm_is_the_tables():
    norms = [sum(map(abs, c)) for p in KNOTS for c in g3table_reference.corners(p)]
    assert max(norms) == g3table.CORNER_NORM


def test_the_bound_grows_with_every_label():
    # and a Fibonacci axis bounds an affine one, so the census bound with
    # six Fibonacci axes holds every pattern
    for kinds in {kinds for kinds, _ in KNOTS.values()}:
        for i in range(6):
            labels = [3] * 6
            small = g3table.conway_bound(labels, kinds)
            for x in (4, -4, 5, -5):
                labels[i] = x
                bound = g3table.conway_bound(labels, kinds)
                assert g3table.conway_bound(labels, g3table.FIBONACCI * 6) >= bound >= small


def test_the_bound_equals_the_stepwise_recurrence_on_both_kinds():
    # an affine axis in closed form, a Fibonacci one by its loop, against
    # the loop on both: one axis at |x| up to 20000, then the six-label
    # bounds of the census and the largest all-even table labelling
    rng = random.Random(54)
    xs = list(range(-40, 41)) + [rng.randint(-20000, 20000) for _ in range(30)]
    for x in xs + [20000, -20000, 19999, -19999]:
        for kind in (g3table.AFFINE, g3table.FIBONACCI):
            assert g3table.conway_bound((x,), kind) == g3table_reference.conway_bound((x,), kind)
    bounds = [(m,) * 6 for m in range(1, 7)] + [g3_labels((m, m)) for m in range(1, 13)]
    bounds.append((3332,) * 4 + (3334,) * 2)
    all_kinds = {kinds for kinds, _ in KNOTS.values()} | {g3table.AFFINE * 6, g3table.FIBONACCI * 6}
    for labels in bounds:
        for kinds in all_kinds:
            want = g3table_reference.conway_bound(labels, kinds)
            assert g3table.conway_bound(labels, kinds) == want, (labels, kinds)


def test_a_long_knot_passes_the_identities_against_the_closed_jones():
    # 2000 crossings, four Fibonacci axes of 167 steps
    rep = Girth3Rep((333, 333, 333), (333, 334, 334))
    labels = rep.top + rep.bottom
    comps, writhe = g3table.components_and_writhe(labels)
    nabla = g3table.conway(labels)
    assert comps == 1 and len(nabla.terms) == 668
    check_identities(comps, nabla, jones_from_bracket(bracket_girth3(rep), writhe))
    assert nabla == g3table_reference.conway(labels)


def test_all_even_pattern_matches_the_even_formula():
    rng = random.Random(7)
    for _ in range(200):
        labels = [2 * rng.randint(-40, 40) for _ in range(6)]
        assert g3table.conway(labels) == conway_girth3_even(_rep(labels)), labels
    # labels up to 3334, those of the balanced rep at ``CLOSED_CAP``, the
    # sizes ``eval`` reads off the table; an all-even knot is never withheld
    rng = random.Random(3334)
    for _ in range(200):
        labels = tuple(2 * rng.randint(-1667, 1667) for _ in range(6))
        even = conway_girth3_even(_rep(labels))
        assert g3table.conway(labels) == even, labels
        comps, _, conway = closed_invariants(labels)
        assert comps == 1 and conway == even, labels


def test_census_keys_all_even_knots_past_the_cap_by_the_even_formula():
    # the labellings of ``census --girth 3 --max 6 --even``: the census
    # keys an all-even knot by the table at any size, never withholding it
    labellings = _labellings(3, 6, True, False)
    assert len(labellings) == 10528
    key, conway_of = g3table.census_keys((6,) * 6, CONWAY_CAP)
    past = 0
    for labels in labellings:
        comps, _, nabla = key(labels)
        assert comps == 1, labels
        assert conway_of(nabla) == conway_girth3_even(_rep(labels)), labels
        past += sum(map(abs, labels)) > CONWAY_CAP
    assert past == 2089


def _import_leaves_unloaded(module, absent, *flags):
    code = f"import sys, {module}; assert {absent!r} not in sys.modules"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, *flags, "-c", code], check=True, env=env)


@pytest.mark.parametrize(
    "module, absent",
    [
        ("knotpair.g3table", "knotpair.oracle"),
        ("knotpair.g3table", "knotpair.closedform"),
        ("knotpair.cli", "knotpair.g3table"),
        ("knotpair.closedform", "knotpair.oracle"),
        ("knotpair.oracle", "knotpair.closedform"),
        ("knotpair.oracle", "knotpair.g3table"),
        ("knotpair.cli", "dataclasses"),
        ("knotpair.cli", "inspect"),
    ],
)
def test_import_leaves_module_unloaded(module, absent):
    # the table and the closed forms read nothing from the oracle, nor the
    # oracle from them, nor the table from the closed forms, and the CLI loads the table only when a girth-2 or
    # girth-3 rep needs it; no command pays for dataclasses or inspect at
    # start-up
    _import_leaves_unloaded(module, absent)


@pytest.mark.parametrize("absent", ["importlib.resources", "pathlib"])
def test_cli_import_without_site_leaves_module_unloaded(absent):
    # the census finds its fixtures with os.path; site may load these
    # modules itself (a .pth file can), so only -S shows what the CLI loads
    _import_leaves_unloaded("knotpair.cli", absent, "-S")


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
    # or ``LaurentPoly.from_packed``
    (tree,) = [tree for name, tree in _package_modules() if name == "oracle.py"]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert "_alexander" in names and "unpack" not in names and "from_packed" not in names


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
