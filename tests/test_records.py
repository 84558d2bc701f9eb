"""Value semantics of the package's records: the 20 frozen classes that carry
reps, polynomials, diagrams, decompositions, verdicts and census rows.

Each record compares equal to, and hashes like, another of its own class
with equal fields; never equals an instance of another class or a tuple of
the same values; refuses to have a field assigned or deleted; and reads
back as ``Name(field=value, ...)``.
"""

from fractions import Fraction

import pytest

from knotpair.census import CensusClass, InvariantRecord, TableResult
from knotpair.classify import DISTINCT_BY_CONWAY, DISTINCT_BY_JONES, RepInvariants, Verdict
from knotpair.diagram import Orientation, PDCode, TaitEdge, TaitGraph, orient, pd_from_rep
from knotpair.girth import Contour, ReducedEdge, ReducedTree, TaitDecomposition
from knotpair.laurent import LaurentPoly
from knotpair.reps import (
    CanonicalRep,
    Girth1Rep,
    Girth2Rep,
    Girth3Rep,
    PlaneTree,
    TreePairRep,
)


def _tree():
    return PlaneTree(((0, 1, 3), (1, 2, -2)), (((0, 0),), ((0, 1), (1, 0)), ((1, 1),)))


def _reduced():
    return ReducedTree((0, 2), (ReducedEdge(5, 0, 2, True),), {0: ((0, 0),), 2: ((0, 1),)})


# class -> (field names in order, a function building equal fresh field values)
RECORDS = {
    LaurentPoly: (("terms", "tag"), lambda: (((-1, 2), (3, -1)), "t")),
    Girth1Rep: (("p",), lambda: (3,)),
    Girth2Rep: (("p", "q"), lambda: (2, -3)),
    Girth3Rep: (("top", "bottom"), lambda: ((1, 2, 3), (0, -1, 2))),
    PlaneTree: (("edges", "rotation"), lambda: (_tree().edges, _tree().rotation)),
    TreePairRep: (("inside", "outside", "girth_value"), lambda: (_tree(), _tree(), 4)),
    CanonicalRep: (("rep", "key"), lambda: (Girth2Rep(2, 3), ("g2", 2, 3))),
    PDCode: (("crossings", "free_loops"), lambda: (((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), 1)),
    Orientation: (
        ("incoming", "n_components", "signs", "writhe"),
        lambda: (((True, False, False, True),), 1, (-1,), -1),
    ),
    TaitEdge: (("v1", "v2", "k0"), lambda: (0, 1, 1)),
    TaitGraph: (
        ("n_vertices", "edges", "rotation"),
        lambda: (2, (TaitEdge(0, 1, 0),), (((0, 0),), ((0, 1),))),
    ),
    Contour: (
        ("vertices", "dashes", "exits"),
        lambda: ((0, 1), (((1, 0),), ((1, 1),)), ((0, 0), (0, 1))),
    ),
    ReducedEdge: (("label", "v1", "v2", "mixed_signs"), lambda: (3, 0, 1, False)),
    ReducedTree: (
        ("vertices", "edges", "rotation"),
        lambda: (_reduced().vertices, _reduced().edges, _reduced().rotation),
    ),
    TaitDecomposition: (
        (
            "shading_index", "tree", "dual_tree", "reduced_black", "reduced_white",
            "girth", "blocks", "black_class_edges", "white_class_edges", "mixed_signs",
        ),
        lambda: (1, (0, 2), (1,), _reduced(), _reduced(), 2, ((("A", 0), ("B", 1)),), (0,), (0,), False),
    ),
    Verdict: (("tag", "evidence", "note"), lambda: (DISTINCT_BY_JONES, LaurentPoly(((4, -1),), "t"), "x")),
    RepInvariants: (
        ("components", "conway", "bracket", "jones", "writhe"),
        lambda: (
            1,
            LaurentPoly(((0, 1), (2, 1)), "z"),
            LaurentPoly(((-7, 1),), "A"),
            LaurentPoly(((4, 1), (12, -1)), "t"),
            -3,
        ),
    ),
    InvariantRecord: (
        ("components", "conway", "jones", "span"),
        lambda: (1, "1 + z^2", "t^-1", Fraction(3, 2)),
    ),
    CensusClass: (
        ("class_id", "record", "members"),
        lambda: ("c7", InvariantRecord(2, "", "t", Fraction(0)), (Girth2Rep(2, 2), Girth1Rep(4))),
    ),
    TableResult: (("name", "rep_text", "status", "detail"), lambda: ("3_1", "(3)", "PASS", "")),
}

# a dict field (a reduced tree's rotation) makes the record unhashable,
# as the tuple of its fields is
UNHASHABLE = {ReducedTree, TaitDecomposition}

CASES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def test_the_table_covers_twenty_records():
    assert len(RECORDS) == 20


@CASES
def test_equal_fields_compare_and_hash_equal(cls):
    _, values = RECORDS[cls]
    a, b = cls(*values()), cls(*values())
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values())
        assert len({a, b}) == 1


@CASES
def test_fields_read_back_by_name_and_keyword(cls):
    names, values = RECORDS[cls]
    record = cls(*values())
    assert tuple(getattr(record, name) for name in names) == values()
    assert cls(**dict(zip(names, values()))) == record


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
    twin = type("Twin", (cls,), {"__slots__": ()})(*values())
    assert record != twin and twin != record
    assert record != values() and values() != record


def test_two_package_records_with_equal_values_differ():
    assert Girth2Rep(1, 2) != CanonicalRep(1, 2)
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
    assert TableResult("3_1", None, "ABSENT").detail == ""


def test_pdcode_equality_hash_and_repr_ignore_orientation():
    built = pd_from_rep(Girth2Rep(2, 3))
    assert built.orientation is not None
    plain = PDCode(built.crossings, built.free_loops)
    assert plain.orientation is None
    assert plain == built and hash(plain) == hash(built)
    assert repr(plain) == repr(built)
    assert "orientation" not in repr(built)
    assert orient(plain) == orient(built)


@pytest.mark.parametrize("tag", [DISTINCT_BY_CONWAY, DISTINCT_BY_JONES])
def test_a_distinctness_verdict_needs_nonzero_evidence(tag):
    with pytest.raises(ValueError, match="nonzero evidence"):
        Verdict(tag)
    with pytest.raises(ValueError, match="nonzero evidence"):
        Verdict(tag, LaurentPoly((), "t"))
    assert Verdict(tag, LaurentPoly(((1, 1),), "t")).evidence.terms == ((1, 1),)
