"""References for the census: the girth-2 enumeration that canonicalises
every label pair, kept for ``knotpair.census._labellings``, which lists the
canonical forms directly; and the writers that send each row's fields
through ``csv.writer`` and ``json.dumps``, kept for ``census_csv`` and
``census_jsonl``, which format the fields a class shares once.
"""

import csv
import json

from knotpair.census import FIELDS, _label_range
from knotpair.classify import UNRESOLVED
from knotpair.reps import Girth2Rep, canonicalize, rep_from_labels, rep_labels


def girth2_labellings(max_abs: int, even_only: bool, positive_only: bool) -> list:
    """The ``reps.rep_labels`` of one canonical rep per canonical key of the
    pairs with labels bounded by ``max_abs``, in key order."""
    values = _label_range(max_abs, even_only, positive_only)
    seen: dict[tuple, tuple] = {}
    for p in values:
        for q in values:
            canon = canonicalize(Girth2Rep(p, q))
            seen.setdefault(canon.key, rep_labels(canon.rep))
    return [seen[k] for k in sorted(seen)]


def census_rows(classes):
    """The ``FIELDS`` of each census row, class by class, head first; the
    head's verdict is None, written empty (null in JSON lines)."""
    for cls in classes:
        rec = cls.record
        shared = (rec.components, rec.conway, rec.jones, str(rec.span), cls.class_id)
        verdict = None
        for labels in cls.members:
            rep = rep_from_labels(labels)
            yield (str(rep), rep.girth(), *shared, verdict)
            verdict = UNRESOLVED


def census_csv(classes, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIELDS)
    writer.writerows(census_rows(classes))


def census_jsonl(classes, out) -> None:
    for row in census_rows(classes):
        entry = dict(zip(FIELDS, row))
        entry["conway"] = entry["conway"] or None
        entry["source"] = "closed_form"
        out.write(json.dumps(entry) + "\n")
