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
from knotpair.reps import Girth2Rep, canonicalize, rep_from_labels


def girth2_labellings(max_abs: int, even_only: bool, positive_only: bool) -> list:
    """The canonical forms (``reps.canonicalize``) of the pairs with labels
    bounded by ``max_abs``, each once: every K(p) first, each kind in the
    order of its labels."""
    values = _label_range(max_abs, even_only, positive_only)
    canon = {canonicalize(Girth2Rep(p, q)) for p in values for q in values}
    return sorted(canon, key=lambda labels: (len(labels), labels))


def girth(labels: tuple) -> int:
    """The girth of the rep with these ``reps.rep_labels``: 1, 2 or 3 for
    1, 2 or 6 labels."""
    return min(len(labels), 3)


def census_rows(classes):
    """The ``FIELDS`` of each census row, class by class, head first; the
    head's verdict is None, written empty (null in JSON lines)."""
    for cls in classes:
        shared = (cls.components, cls.conway, cls.jones, str(cls.span), cls.class_id)
        verdict = None
        for labels in cls.members:
            yield (str(rep_from_labels(labels)), girth(labels), *shared, verdict)
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
