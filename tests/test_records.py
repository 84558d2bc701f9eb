"""Value semantics of the package's records: the 16 frozen classes that carry
reps, polynomials, diagrams, decompositions, verdicts, census rows and
command-line arguments.  The table names every ``Record`` subclass the
package defines, which is read off its source.

Each record is built from its fields in slot order, by the base's one
constructor unless its class writes its own; compares equal to, and
hashes like, another of its own class with equal fields; never equals an instance of another class or a tuple of
the same values; refuses to have a field assigned or deleted; and reads
back as ``Name(field=value, ...)``.
"""

import ast
import os
from fractions import Fraction

import pytest

import knotpair
from knotpair.census import CensusClass, TableResult
from knotpair.classify import DISTINCT_BY_CONWAY, DISTINCT_BY_JONES, RepInvariants, Verdict
from knotpair.cli import Argument
from knotpair.diagram import (
    Orientation,
    PDCode,
    TaitEdge,
    TaitGraph,
    orient,
    pd_from_rep,
    pd_from_text,
    regions,
)
from knotpair.girth import TaitDecomposition
from knotpair.laurent import LaurentPoly
from knotpair.reps import (
    Girth1Rep,
    Girth2Rep,
    Girth3Rep,
    PlaneTree,
    TreePairRep,
)


def _tree():
    return PlaneTree(((0, 1, 3), (1, 2, -2)), (((0, 0),), ((0, 1), (1, 0)), ((1, 1),)))


# class -> (field names in order, a function building equal fresh field values)
RECORDS = {
    LaurentPoly: (("terms", "tag"), lambda: (((-1, 2), (3, -1)), "t")),
    Girth1Rep: (("p",), lambda: (3,)),
    Girth2Rep: (("p", "q"), lambda: (2, -3)),
    Girth3Rep: (("top", "bottom"), lambda: ((1, 2, 3), (0, -1, 2))),
    PlaneTree: (("edges", "rotation"), lambda: (_tree().edges, _tree().rotation)),
    TreePairRep: (("inside", "outside", "girth_value"), lambda: (_tree(), _tree(), 4)),
    PDCode: (("crossings", "free_loops"), lambda: (((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), 1)),
    Orientation: (
        ("under_in", "n_components", "signs", "writhe"),
        lambda: ((True,), 1, (-1,), -1),
    ),
    TaitEdge: (("v1", "v2"), lambda: (0, 1)),
    TaitGraph: (
        ("n_vertices", "vertex", "succ", "k0"),
        lambda: (2, (0, 1), (0, 1), (0,)),
    ),
    TaitDecomposition: (
        (
            "shading_index", "tree", "dual_tree", "reduced_black", "reduced_white",
            "girth", "blocks", "black_class_labels", "white_class_labels", "mixed_signs",
        ),
        lambda: (1, (0, 2), (1,), _tree(), _tree(), 2, ((((0, 1),), 1),), (3,), (0,), False),
    ),
    Verdict: (("tag", "evidence", "note"), lambda: (DISTINCT_BY_JONES, LaurentPoly(((4, -1),), "t"), "x")),
    RepInvariants: (
        ("components", "writhe", "conway", "low", "jones"),
        lambda: (1, -3, (1, 1), 4, (1, 0, 1, -1)),  # K(3)
    ),
    CensusClass: (
        ("class_id", "components", "conway", "jones", "span", "members"),
        lambda: ("c7", 1, "1 + z^2", "t^-1", Fraction(3, 2), ((2, 2), (4,))),
    ),
    TableResult: (("name", "rep_text", "status", "detail"), lambda: ("3_1", "(3)", "PASS", "")),
    Argument: (
        ("flag", "dest", "kind", "choices", "default", "required", "help"),
        lambda: ("--max", "max_abs", int, (1, 2), 2, True, "bound"),
    ),
}

CASES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)

# the classes that write their own ``__init__``; the rest use the base's
OWN_INIT = (Argument, LaurentPoly, PDCode, Verdict)


def _package_records():
    """The names of the classes in ``src/knotpair`` whose bases name ``Record``."""
    pkg = os.path.dirname(knotpair.__file__)
    names = set()
    for file in sorted(os.listdir(pkg)):
        if file.endswith(".py"):
            with open(os.path.join(pkg, file)) as f:
                tree = ast.parse(f.read(), file)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "Record" for base in node.bases
                ):
                    names.add(node.name)
    return names


def test_the_table_covers_every_package_record():
    assert {cls.__name__ for cls in RECORDS} == _package_records()
    assert len(RECORDS) == 16


@CASES
def test_equal_fields_compare_and_hash_equal(cls):
    _, values = RECORDS[cls]
    a, b = cls(*values()), cls(*values())
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values())
    assert len({a, b}) == 1


@CASES
def test_fields_read_back_by_name_and_keyword(cls):
    names, values = RECORDS[cls]
    record = cls(*values())
    assert tuple(getattr(record, name) for name in names) == values()
    if cls in OWN_INIT:  # the base's constructor takes its fields by position
        assert cls(**dict(zip(names, values()))) == record


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if cls not in OWN_INIT], ids=lambda c: c.__name__
)
def test_a_wrong_field_count_is_a_type_error_naming_the_class(cls):
    # a TypeError, not a ValueError, which the command line would print as
    # a usage error
    values = RECORDS[cls][1]()
    for wrong in (values[:-1], values + (0,)):
        with pytest.raises(TypeError, match=rf"^{cls.__name__} takes {len(values)} fields, "):
            cls(*wrong)


@CASES
def test_a_changed_field_compares_unequal(cls):
    names, values = RECORDS[cls]
    record = cls(*values())
    for i in range(len(names)):
        changed = list(values())
        changed[i] = "other"
        if cls is Verdict and i == 1:
            changed[i] = LaurentPoly(((2, 1),), "t")
        assert cls(*changed) != record


@CASES
def test_the_same_values_in_another_class_compare_unequal(cls):
    _, values = RECORDS[cls]
    record = cls(*values())
    twin = type("Twin", (cls,), {"__slots__": cls.__slots__})(*values())
    assert record != twin and twin != record
    assert record != values() and values() != record


def test_two_package_records_with_equal_values_differ():
    assert Girth2Rep(1, 2) != Girth3Rep(1, 2)
    assert Girth2Rep(1, 2) != (1, 2)


@CASES
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, values = RECORDS[cls]
    record = cls(*values())
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert cls(*values()) == record


@CASES
def test_repr_names_every_field(cls):
    names, values = RECORDS[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values()))
    assert repr(cls(*values())) == f"{cls.__name__}({shown})"


def test_defaults():
    assert LaurentPoly(((0, 1),)).tag == "A"
    assert PDCode(((1, 1, 2, 2),)).free_loops == 0
    assert Verdict("Unresolved") == Verdict("Unresolved", None, "")


def test_pdcode_equality_hash_and_repr_ignore_orientation():
    # a template carries its orientation; it is written, not validated, so
    # its corner cycles are walked when asked
    built = pd_from_rep(Girth2Rep(2, 3))
    assert built.orientation is not None and built.corner_cycles is None
    plain = PDCode(built.crossings, built.free_loops)
    assert plain.orientation is None and plain.corner_cycles is None
    assert plain == built and hash(plain) == hash(built)
    assert repr(plain) == repr(built)
    assert "orientation" not in repr(built) and "corner_cycles" not in repr(built)
    assert orient(plain) == orient(built)
    assert regions(plain) == regions(built)
    # a code read from text is validated, so it keeps its regions but not
    # an orientation
    read = pd_from_text(" ".join(f"X{c}".replace(" ", "") for c in built.crossings))
    assert read.orientation is None and read.corner_cycles == regions(plain)
    fresh = PDCode(built.crossings)
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)


@pytest.mark.parametrize("tag", [DISTINCT_BY_CONWAY, DISTINCT_BY_JONES])
def test_a_distinctness_verdict_needs_nonzero_evidence(tag):
    with pytest.raises(ValueError, match="nonzero evidence"):
        Verdict(tag)
    with pytest.raises(ValueError, match="nonzero evidence"):
        Verdict(tag, LaurentPoly((), "t"))
    assert Verdict(tag, LaurentPoly(((1, 1),), "t")).evidence.terms == ((1, 1),)
