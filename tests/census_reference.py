"""The girth-2 census enumeration that canonicalises every label pair, kept
as the reference for ``knotpair.census._labellings``, which lists the
canonical forms directly.
"""

from knotpair.census import _label_range
from knotpair.reps import Girth2Rep, canonicalize, rep_labels


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
