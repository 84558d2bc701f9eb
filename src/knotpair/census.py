"""Census enumeration, deduplication into classes, table verification."""

from __future__ import annotations

import collections
import itertools
import json
import os
from fractions import Fraction

from . import classify, oracle
from . import closedform as cf
from .diagram import orient, pd_from_json
from .laurent import jones_from_bracket, jones_to_text, packed_slots, slot_terms, terms_to_text
from .record import Record
from .reps import canonical_pair, g3_labels, g3_wheel_minima, parse_rep, rep_from_labels
from .tables import (
    ROLFSEN_TABLE,
    TABLE_ERRATA,
    crossing_number,
    fixture_filename,
)

G2_BUDGET = 12
G3_BUDGET = 6
FIELDS = ("rep", "girth", "components", "conway", "jones", "span", "class_id", "verdict")


def build_record(
    components: int, conway: int | None, jones: tuple[int, int], conway_bits: int, jones_bits: int
) -> tuple[int, str, str, Fraction]:
    """The checked (components, Conway text, Jones text, span) of the class
    of reps with these invariants, the fields ``CensusClass`` holds
    between its id and its members.

    ``conway`` is the class's Conway int of ``g3table.census_keys``, packed
    at ``conway_bits``-bit slots (None where no value is available), and
    ``jones`` its Jones key (low, value) of ``closedform.census_jones``,
    packed at ``jones_bits``.  Each is read once into its list of slot
    coefficients (``laurent.packed_slots``), and no polynomial is built:
    ``classify.check_identities`` reads the component count and the two
    lists, and the texts are rendered from the lists' nonzero slots.  One
    call per class checks and records every member alike; a failure raises
    ``AssertionError``.  A Jones key's low slot is nonzero and its slots
    lie at stride 4, so the inclusive span is the slot count.  The Conway
    text is "" where no value is available.
    """
    low, value = jones
    jones_slots = packed_slots(value, jones_bits)
    conway_slots = None if conway is None else packed_slots(conway, conway_bits)
    classify.check_identities(components, conway_slots, low, jones_slots)
    return (
        components,
        "" if conway_slots is None else terms_to_text(slot_terms(conway_slots, 0, 2), "z"),
        terms_to_text(slot_terms(jones_slots, low, 4), "t", 4),
        Fraction(len(jones_slots)),
    )


def census_enumerate(
    girth: int,
    max_abs_label: int,
    even_only: bool = False,
    positive_only: bool = False,
) -> list:
    """Canonical representatives with labels bounded by max_abs_label.

    Exactly one representative per canonical form, and each is its own
    (``canonicalize(rep) == rep_labels(rep)``), in the order of their
    labels.  Girth-2 pairs whose canonical form collapses to a single
    twist region are reported through their Girth1Rep canonical form,
    every K(p) before every K(p, q).
    """
    return [
        rep_from_labels(labels)
        for labels in _labellings(girth, max_abs_label, even_only, positive_only)
    ]


def _labellings(girth: int, max_abs_label: int, even_only: bool, positive_only: bool) -> list:
    """The ``reps.rep_labels`` of the reps of ``census_enumerate``, in its order."""
    if girth == 2 and max_abs_label > G2_BUDGET:
        raise ValueError(f"girth-2 label budget is {G2_BUDGET}")
    if girth == 3 and max_abs_label > G3_BUDGET:
        raise ValueError(f"girth-3 label budget is {G3_BUDGET}")
    if max_abs_label < 0:
        raise ValueError("the label bound is negative")
    values = _label_range(max_abs_label, even_only, positive_only)
    if girth == 3:
        # a labelling is canonical when it is the least of its wheel
        # images.  The wheel moves every position to the first, so such a
        # labelling starts with its least label p.  The labellings of one
        # prefix (p, q) are filtered at once, in label order.
        out = []
        for i, p in enumerate(values):
            rest = values[i:]
            for q in rest:
                out += g3_wheel_minima(list(itertools.product((p,), (q,), rest, rest, rest, rest)))
        return out
    if girth != 2:
        raise ValueError("census enumerates girth 2 or 3")
    # the K(p) of the pairs with a +-1 label (``reps.canonical_pair``), in
    # order, then the sorted pairs of the rest
    absorbed = {canonical_pair(one, v) for one in values if abs(one) == 1 for v in values}
    rest = [v for v in values if abs(v) != 1]
    return sorted(absorbed) + [(p, q) for i, p in enumerate(rest) for q in rest[i:]]


def _label_range(max_abs: int, even_only: bool, positive_only: bool) -> list[int]:
    return [
        v
        for v in range(1 if positive_only else -max_abs, max_abs + 1)
        if not even_only or v % 2 == 0
    ]


class CensusClass(Record):
    """The census reps of one class key: canonical, with distinct canonical
    keys, so each member after the head is Unresolved against it (see
    ``dedup_census``).

    The four fields between the id and the members are what the census
    prints of every member alike (``build_record``): ``conway`` and
    ``jones`` are the polynomials' text, formatted once, ``conway`` ""
    where no Conway value is available.  Of those, the first three are the
    class's text key, which orders the classes, and the Jones text
    determines ``span``.  ``members`` holds the ``reps.rep_labels`` of the reps, head
    first.
    """

    __slots__ = ("class_id", "components", "conway", "jones", "span", "members")


def dedup_census(
    girth: int,
    max_abs_label: int,
    even_only: bool = False,
    positive_only: bool = False,
) -> list:
    """Group the reps of ``census_enumerate`` by (components, Conway, Jones).

    The reps are canonical with distinct keys, and members share
    components, Conway and Jones, so ``classify.compare(head, m)`` finds
    neither a shared key nor a separating invariant: it answers
    Unresolved, the verdict the census writers give every member after
    the head.  Enumerating here keeps any other input out.

    A rep is keyed by exact values, with no polynomial built and no text:
    its component count, its Conway polynomial as one int (None for a
    link or for a knot with an odd label past ``oracle.CONWAY_CAP``; an
    all-even knot is keyed through parity pattern 0 at any size) and the
    integer key of its Jones polynomial at its writhe
    (``closedform.census_jones``).  The component
    count, writhe and Conway int come from one pass over the rep's labels
    (``g3table.census_keys``).  Both keyers take six labels: each
    labelling is padded here, once, to its girth-3 labelling
    (``reps.g3_labels``), and so is the label bound m of girth 2, whose
    pairs lie within (m, m); for girth 3 the bound is (m,) * 6.  Each
    keyer packs every value of the census at one slot width.
    Equal keys mean equal polynomials, so the classes are those of the
    text key.  Members stay label tuples.  Once every rep is keyed, each
    class runs ``build_record`` once on its ints, which reads them as slot
    lists and builds no polynomial, and the classes are numbered in the
    order of their text keys.
    """
    from . import g3table  # frozen data: loaded on first use

    # the label budget is checked before any per-label key table is built
    labellings = _labellings(girth, max_abs_label, even_only, positive_only)
    m = max_abs_label
    bound = (m,) * 6 if girth == 3 else g3_labels((m, m))
    jones_key, jones_bits = cf.census_jones(bound)
    invariants, conway_bits = g3table.census_keys(bound, oracle.CONWAY_CAP)
    groups: dict[tuple, list] = {}
    for labels in labellings:
        six = g3_labels(labels)
        comps, writhe, conway = invariants(six)
        key = (comps, conway, jones_key(six, writhe))
        members = groups.get(key)
        if members is None:
            groups[key] = [labels]
        else:
            members.append(labels)
    classes = []
    while groups:  # each integer key is freed as its class's text is made
        (comps, conway, jones), members = groups.popitem()
        classes.append((build_record(comps, conway, jones, conway_bits, jones_bits), members))
    # the text keys are distinct; the last first, so that each class is
    # popped in order and its member list freed as its tuple is made
    classes.sort(key=lambda c: c[0][:3], reverse=True)
    out = []
    while classes:
        fields, members = classes.pop()
        out.append(CensusClass(f"c{len(out):04d}", *fields, tuple(members)))
    return out


# The start of a member's row, by the length of its ``reps.rep_labels``: the
# ``str`` of ``reps.rep_from_labels`` and the girth the length gives, as CSV
# and as JSON lines, up to the class's shared fields.  A girth-2 class can hold both a
# K(p) and a K(p, q), so each member picks its own.
_CSV_LEAD = {
    1: "({}),1,".format,
    2: '"({},{})",2,'.format,
    6: "[{} {} {} / {} {} {}],3,".format,
}
_JSON_LEAD = {
    1: '{{"rep": "({})", "girth": 1, '.format,
    2: '{{"rep": "({},{})", "girth": 2, '.format,
    6: '{{"rep": "[{} {} {} / {} {} {}]", "girth": 3, '.format,
}


def _write(classes, out, lead: dict, shared, head_end: str, member_end: str) -> None:
    """Write each class with one ``out.write``: each member's ``lead``,
    then the class's ``shared(cls)`` text, then ``head_end`` after the
    head and ``member_end`` after every other member.  The shared text is
    made once per class, and no string holds more than one class, so
    memory does not grow with the census."""
    for cls in classes:
        text = shared(cls)
        then = text + member_end
        head, *rest = cls.members
        out.write(
            lead[len(head)](*head) + text + head_end
            + "".join([lead[len(labels)](*labels) + then for labels in rest])
        )


def census_jsonl(classes, out) -> None:
    """Write the census to the text stream ``out`` as JSON lines, one per rep.

    A row is the object of ``FIELDS`` and "source", keys in that order, as
    ``json.dumps`` writes it: the head's verdict is null, every other
    member's Unresolved (``dedup_census``).  The five fields a class
    shares are one ``json.dumps`` per class, its braces stripped, and a rep
    text needs no escaping.  Every census value comes from a closed form,
    the girth-3 knot Conway polynomial from ``g3table``.
    """
    end = ', "verdict": {}, "source": "closed_form"}}\n'.format

    def shared(cls) -> str:
        return json.dumps({
            "components": cls.components,
            "conway": cls.conway or None,
            "jones": cls.jones,
            "span": str(cls.span),
            "class_id": cls.class_id,
        })[1:-1]

    _write(classes, out, _JSON_LEAD, shared, end("null"), end(json.dumps(classify.UNRESOLVED)))


def census_csv(classes, out) -> None:
    """Write the deterministic CSV of ``FIELDS`` to the text stream ``out``.

    The bytes are those of ``csv.writer`` with minimal quoting and "\\n"
    line ends; the head's verdict is empty, every other member's
    Unresolved (``dedup_census``).  No field but the rep text needs
    quoting: the alphabets of a component count, of
    ``laurent.terms_to_text``, of ``str`` of a Fraction and of a class id
    hold no comma, double quote, CR or LF.  Only the text (p,q) holds the
    delimiter, and its quotes are in its lead.
    """
    out.write(",".join(FIELDS) + "\n")

    def shared(cls) -> str:
        return f"{cls.components},{cls.conway},{cls.jones},{cls.span},{cls.class_id},"

    _write(classes, out, _CSV_LEAD, shared, "\n", classify.UNRESOLVED + "\n")


# ---------------------------------------------------------------------------
# Rolfsen table verification


class TableResult(Record):
    # status: PASS / FAIL / SKIP / ABSENT; rep_text: None when ABSENT
    __slots__ = ("name", "rep_text", "status", "detail")


def _fixture_files(fixtures_dir: str | None) -> dict:
    """File name -> path of every reference fixture, listed once.

    ``fixtures_dir`` overrides the fixtures shipped beside this module; a
    path that is not a directory raises ``OSError``.
    """
    root = fixtures_dir
    if root is None:
        root = os.path.join(os.path.dirname(__file__), "fixtures", "rolfsen")
    return {name: os.path.join(root, name) for name in os.listdir(root)}


def verify_table(
    fixtures_dir: str | None = None,
    max_crossings: int | None = None,
    apply_errata: bool = False,
) -> list[TableResult]:
    """Check table representations against independently sourced diagrams.

    For every entry with a reference PD fixture, the representation's
    component count and Jones polynomial, from its closed forms
    (``classify.rep_invariants``, the values ``eval`` prints), must match
    the fixture's, by its state sum, up to mirror (and up to orientation
    units t^(3k) for links).  No template diagram is built.  Entries
    without a fixture are skipped with a notice.  A ``max_crossings``
    below the fewest crossings of a table entry is refused with
    ``ValueError``: it would check nothing, and so is a fixture that does
    not read as a PD code, with the fixture's file name before the reason.
    """
    if max_crossings is not None:
        if max_crossings < 0:
            raise ValueError("the crossing bound is negative")
        fewest = min(crossing_number(name) for name, _ in ROLFSEN_TABLE)
        if max_crossings < fewest:
            raise ValueError(
                f"the crossing bound {max_crossings} is below {fewest}, "
                "the fewest crossings of a table entry"
            )
    files = _fixture_files(fixtures_dir)
    return [
        TableResult(name, *_check_entry(name, rep_text, files, apply_errata))
        for name, rep_text in ROLFSEN_TABLE
        if max_crossings is None or crossing_number(name) <= max_crossings
    ]


def _check_entry(name: str, rep_text: str | None, files: dict, apply_errata: bool) -> tuple:
    """(rep text, status, detail) of one table entry, for ``verify_table``.

    The fixture is state-summed before the component counts are compared,
    so a fixture past the state-sum cap is refused whatever the rep is.
    """
    if rep_text is None:
        return None, "ABSENT", "no representation in the table"
    note = ""
    if apply_errata and name in TABLE_ERRATA:
        rep_text = TABLE_ERRATA[name]
        note = "erratum applied; "
    ref_path = files.get(fixture_filename(name))
    if ref_path is None:
        return rep_text, "SKIP", "no reference fixture shipped"
    try:
        with open(ref_path) as f:
            ref = pd_from_json(f.read())
    except ValueError as exc:  # undecodable text or a refused PD
        raise ValueError(f"{fixture_filename(name)}: {exc}") from None
    inv = classify.rep_invariants(parse_rep(rep_text))
    ori_ref = orient(ref)
    j_ref = jones_from_bracket(oracle.bracket_state_sum(ref), ori_ref.writhe)
    if inv.components != ori_ref.n_components:
        return rep_text, "FAIL", (
            f"component counts differ: {inv.components} vs {ori_ref.n_components}"
        )
    jones = inv.jones_poly()
    if classify.jones_equal(jones, j_ref, unit_shift=inv.components > 1, mirror_ok=True):
        return rep_text, "PASS", note.rstrip("; ")
    return rep_text, "FAIL", (
        note + f"rep jones {jones_to_text(jones)} vs reference {jones_to_text(j_ref)}"
    )


def table_report(results: list[TableResult]) -> str:
    lines = [f"{r.name:8s} {r.status:6s} {r.rep_text or '?':24s} {r.detail}" for r in results]
    counts = collections.Counter(r.status for r in results)
    lines.append(" ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return "\n".join(lines)


def table_results_json(results: list[TableResult]) -> str:
    return json.dumps(
        [
            {"name": r.name, "rep": r.rep_text, "status": r.status, "detail": r.detail}
            for r in results
        ]
    )
