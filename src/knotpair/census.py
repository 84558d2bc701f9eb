"""Census enumeration, invariant records, deduplication, table verification."""

from __future__ import annotations

import csv
import itertools
import json
import os
from fractions import Fraction

from . import classify, oracle
from .diagram import orient, pd_from_json, pd_from_rep
from .laurent import (
    jones_from_bracket,
    jones_span_inclusive,
    jones_to_text,
    poly_to_text,
)
from .record import Record, set_field
from .reps import Girth2Rep, Girth3Rep, canonicalize, g3_wheel_min, parse_rep
from .tables import (
    ROLFSEN_TABLE,
    TABLE_ERRATA,
    crossing_number,
    fixture_filename,
)

G2_BUDGET = 12
G3_BUDGET = 6
FIELDS = ("rep", "girth", "components", "conway", "jones", "span", "class_id", "verdict")


class InvariantRecord(Record):
    """What the census prints of one class of representations.

    ``conway`` and ``jones`` are the polynomials' text, formatted once;
    ``conway`` is "" where no Conway value is available.  The first three
    fields are the class key, and the Jones text determines ``span``, so
    every member of a class has the same record.
    """

    __slots__ = ("components", "conway", "jones", "span")

    def __init__(self, components: int, conway: str, jones: str, span: Fraction) -> None:
        set_field(self, "components", components)
        set_field(self, "conway", conway)
        set_field(self, "jones", jones)
        set_field(self, "span", span)

    def _key(self) -> tuple:
        return (self.components, self.conway, self.jones, self.span)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.components, self.conway, self.jones, self.span) == (
                other.components, other.conway, other.jones, other.span
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.components, self.conway, self.jones, self.span))

    def class_key(self) -> tuple:
        return (self.components, self.conway, self.jones)


def build_record(rep) -> InvariantRecord:
    """Exact invariants of one representation, closed forms where they exist."""
    inv = classify.rep_invariants(rep)
    if inv.conway is not None and inv.components == 1:
        assert inv.conway.coeff(0) == 1
    return InvariantRecord(
        components=inv.components,
        conway=poly_to_text(inv.conway) if inv.conway is not None else "",
        jones=jones_to_text(inv.jones),
        span=jones_span_inclusive(inv.jones),
    )


def census_enumerate(
    girth: int,
    max_abs_label: int,
    even_only: bool = False,
    positive_only: bool = False,
) -> list:
    """Canonical representatives with labels bounded by max_abs_label.

    Exactly one representative per canonical key, in key order, and each
    is its own canonical form (``canonicalize(rep).rep == rep``).  Girth-2
    pairs whose canonical form collapses to a single twist region are
    reported through their Girth1Rep canonical form.
    """
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
        # labelling starts with its least label p, and the loops run in
        # key order.
        reps = []
        for i, p in enumerate(values):
            for rest in itertools.product(values[i:], repeat=5):
                labels = (p,) + rest
                if g3_wheel_min(labels) == labels:
                    reps.append(Girth3Rep(labels[:3], labels[3:]))
        return reps
    if girth != 2:
        raise ValueError("census enumerates girth 2 or 3")
    seen: dict[tuple, object] = {}
    for p in values:
        for q in values:
            canon = canonicalize(Girth2Rep(p, q))
            seen.setdefault(canon.key, canon.rep)
    return [seen[k] for k in sorted(seen)]


def _label_range(max_abs: int, even_only: bool, positive_only: bool) -> list[int]:
    return [
        v
        for v in range(1 if positive_only else -max_abs, max_abs + 1)
        if not even_only or v % 2 == 0
    ]


class CensusClass(Record):
    """The census reps of one class key: canonical, with distinct canonical
    keys, so each member after the head is Unresolved against it (see
    ``dedup_census``)."""

    # record: the class head's, the same for every member; members:
    # representations, head first
    __slots__ = ("class_id", "record", "members")

    def __init__(self, class_id: str, record: InvariantRecord, members: tuple) -> None:
        set_field(self, "class_id", class_id)
        set_field(self, "record", record)
        set_field(self, "members", members)

    def _key(self) -> tuple:
        return (self.class_id, self.record, self.members)


def dedup_census(
    girth: int,
    max_abs_label: int,
    even_only: bool = False,
    positive_only: bool = False,
) -> list:
    """Group the reps of ``census_enumerate`` by (components, Conway, Jones).

    Each class keeps the record of its first member; a later member adds
    only its rep.  The reps are canonical with distinct keys, and members
    share components, Conway and Jones, so ``classify.compare(head, m)``
    finds neither a shared key nor a separating invariant: it answers
    Unresolved, the verdict ``_rows`` writes for every member after the
    head.  Enumerating here keeps any other input out.
    """
    groups: dict[tuple, tuple[InvariantRecord, list]] = {}
    for rep in census_enumerate(girth, max_abs_label, even_only, positive_only):
        rec = build_record(rep)
        groups.setdefault(rec.class_key(), (rec, []))[1].append(rep)
    return [
        CensusClass(f"c{idx:04d}", record, tuple(members))
        for idx, (record, members) in enumerate(groups[k] for k in sorted(groups))
    ]


def _rows(classes):
    """The ``FIELDS`` of each census row, class by class, head first; the
    head's verdict is None, written empty (null in JSON lines)."""
    for cls in classes:
        rec = cls.record
        verdict = None
        for rep in cls.members:
            yield (
                str(rep),
                rep.girth(),
                rec.components,
                rec.conway,
                rec.jones,
                str(rec.span),
                cls.class_id,
                verdict,
            )
            verdict = classify.UNRESOLVED


def census_jsonl(classes, out) -> None:
    """Write the census to the text stream ``out`` as JSON lines, one per rep."""
    for row in _rows(classes):
        entry = dict(zip(FIELDS, row))
        entry["conway"] = entry["conway"] or None
        # every census value comes from a closed form, the girth-3 knot
        # Conway polynomial from ``g3table``
        entry["source"] = "closed_form"
        out.write(json.dumps(entry) + "\n")


def census_csv(classes, out) -> None:
    """Write the deterministic CSV of ``FIELDS`` to the text stream ``out``."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIELDS)
    writer.writerows(_rows(classes))


# ---------------------------------------------------------------------------
# Rolfsen table verification


class TableResult(Record):
    __slots__ = ("name", "rep_text", "status", "detail")

    def __init__(self, name: str, rep_text: str | None, status: str, detail: str = "") -> None:
        set_field(self, "name", name)
        set_field(self, "rep_text", rep_text)
        set_field(self, "status", status)  # PASS / FAIL / SKIP / ABSENT
        set_field(self, "detail", detail)

    def _key(self) -> tuple:
        return (self.name, self.rep_text, self.status, self.detail)


def _fixture_files(fixtures_dir: str | None) -> dict:
    """File name -> path of every reference fixture, listed once.

    ``fixtures_dir`` overrides the fixtures shipped beside this module; a
    missing directory holds none.
    """
    if fixtures_dir is None:
        root = os.path.join(os.path.dirname(__file__), "fixtures", "rolfsen")
    elif os.path.isdir(fixtures_dir):
        root = fixtures_dir
    else:
        return {}
    return {name: os.path.join(root, name) for name in os.listdir(root)}


def verify_table(
    fixtures_dir: str | None = None,
    max_crossings: int | None = None,
    apply_errata: bool = False,
) -> list[TableResult]:
    """Check table representations against independently sourced diagrams.

    For every entry with a reference PD fixture, the Jones polynomial of
    the representation's template diagram must match the fixture's Jones
    up to mirror (and up to orientation units t^(3k) for links).  Entries
    without a fixture are skipped with a notice.
    """
    files = _fixture_files(fixtures_dir)
    results = []
    for name, rep_text in ROLFSEN_TABLE:
        if max_crossings is not None and crossing_number(name) > max_crossings:
            continue
        if rep_text is None:
            results.append(
                TableResult(name, None, "ABSENT", "no representation in the table")
            )
            continue
        note = ""
        if apply_errata and name in TABLE_ERRATA:
            rep_text = TABLE_ERRATA[name]
            note = "erratum applied; "

        ref_path = files.get(fixture_filename(name))
        if ref_path is None:
            results.append(
                TableResult(name, rep_text, "SKIP", "no reference fixture shipped")
            )
            continue
        with open(ref_path) as f:
            ref = pd_from_json(f.read())
        rep = parse_rep(rep_text)
        pd = pd_from_rep(rep)
        ori_rep, ori_ref = orient(pd), orient(ref)
        j_rep = jones_from_bracket(oracle.bracket_state_sum(pd), ori_rep.writhe)
        j_ref = jones_from_bracket(oracle.bracket_state_sum(ref), ori_ref.writhe)
        comps_rep = ori_rep.n_components
        comps_ref = ori_ref.n_components
        if comps_rep != comps_ref:
            results.append(
                TableResult(
                    name,
                    rep_text,
                    "FAIL",
                    f"component counts differ: {comps_rep} vs {comps_ref}",
                )
            )
            continue
        ok = classify.jones_equal(
            j_rep, j_ref, unit_shift=comps_rep > 1, mirror_ok=True
        )
        if ok:
            results.append(TableResult(name, rep_text, "PASS", note.rstrip("; ")))
        else:
            results.append(
                TableResult(
                    name,
                    rep_text,
                    "FAIL",
                    note + f"rep jones {jones_to_text(j_rep)} vs reference "
                    f"{jones_to_text(j_ref)}",
                )
            )
    return results


def table_report(results: list[TableResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"{r.name:8s} {r.status:6s} {r.rep_text or '?':24s} {r.detail}")
    counts = {}
    for r in results:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    lines.append(summary)
    return "\n".join(lines)


def table_results_json(results: list[TableResult]) -> str:
    return json.dumps(
        [
            {"name": r.name, "rep": r.rep_text, "status": r.status, "detail": r.detail}
            for r in results
        ]
    )
