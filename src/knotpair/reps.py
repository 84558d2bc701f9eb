"""Tree-pair knot representations: parsing, symmetries, canonical forms.

Three specialized families are supported directly:

* ``Girth1Rep`` K(p), a single closed twist region;
* ``Girth2Rep`` K(p,q), the double twist family;
* ``Girth3Rep`` K(p q r / a b c), the pair of Y-shaped trees.

A general labeled plane-tree pair (``TreePairRep``) carries decompositions
of girth >= 4 coming out of the girth module.
"""

from __future__ import annotations

import operator
import re
import sys
from itertools import compress

from .record import Record


class Girth1Rep(Record):
    __slots__ = ("p",)

    def __str__(self) -> str:
        return f"({self.p})"


class Girth2Rep(Record):
    __slots__ = ("p", "q")

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


class Girth3Rep(Record):
    __slots__ = ("top", "bottom")

    def __str__(self) -> str:
        t = " ".join(str(x) for x in self.top)
        b = " ".join(str(x) for x in self.bottom)
        return f"[{t} / {b}]"


class PlaneTree(Record):
    """A labeled tree with a rotation system.

    ``edges[i] = (u, v, label)``; ``rotation[v]`` lists, in cyclic order
    around vertex v, the pairs ``(edge_index, end)`` incident to it, where
    ``end`` is 0 for the u-side and 1 for the v-side of the edge.
    """

    __slots__ = ("edges", "rotation")


class TreePairRep(Record):
    __slots__ = ("inside", "outside", "girth_value")  # two PlaneTrees and the girth


_G1_RE = re.compile(r"^\(\s*(-?\d+)\s*\)$")
_G2_RE = re.compile(r"^\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")
_G3_RE = re.compile(
    r"^\[\s*(-?\d+)\s+(-?\d+)\s+(-?\d+)\s*/\s*(-?\d+)\s+(-?\d+)\s+(-?\d+)\s*\]$"
)


def _labels(m: re.Match, notation: str) -> list[int]:
    """The labels of a match of ``notation``, whose letters name them; a
    label of more digits than ``int`` converts is refused by name."""
    labels = []
    for name, digits in zip(filter(str.isalpha, notation), m.groups()):
        try:
            labels.append(int(digits))
        except ValueError:
            raise ValueError(
                f"label {name} of {notation} has more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
    return labels


def parse_rep(text: str):
    """Parse "(3)", "(2,-2)" or "[0 2 2 / 0 -1 -1]" notation."""
    s = text.strip()
    m = _G1_RE.match(s)
    if m:
        return Girth1Rep(*_labels(m, "(p)"))
    m = _G2_RE.match(s)
    if m:
        return Girth2Rep(*_labels(m, "(p,q)"))
    m = _G3_RE.match(s)
    if m:
        g = _labels(m, "[p q r / a b c]")
        return Girth3Rep((g[0], g[1], g[2]), (g[3], g[4], g[5]))
    raise ValueError(
        f"cannot parse representation {text!r} "
        "(expected (p), (p,q) or [p q r / a b c])"
    )


def rep_labels(rep) -> tuple:
    """The labels of a girth <= 3 rep: (p), (p, q) or (p, q, r, a, b, c).

    ``rep_from_labels`` inverts it, so a label tuple stands for its rep.
    """
    if isinstance(rep, Girth3Rep):
        return rep.top + rep.bottom
    if isinstance(rep, Girth2Rep):
        return (rep.p, rep.q)
    if isinstance(rep, Girth1Rep):
        return (rep.p,)
    raise TypeError(f"no girth <= 3 labels for {rep!r}")


def rep_from_labels(labels: tuple):
    """The rep whose ``rep_labels`` are ``labels``."""
    if len(labels) == 6:
        return Girth3Rep(labels[:3], labels[3:])
    if len(labels) == 2:
        return Girth2Rep(*labels)
    (p,) = labels
    return Girth1Rep(p)


def mirror(rep):
    """Mirror image: negate every label."""
    return rep_from_labels(tuple(-x for x in rep_labels(rep)))


def template_crossings(rep) -> int:
    """The crossing count of the rep's template diagram
    (``diagram.pd_from_rep``), without building it.

    A ladder of label x has |x| crossings, and the template is its
    ladders joined up, so the count is the sum of the label sizes.
    """
    return sum(map(abs, rep_labels(rep)))


# ---------------------------------------------------------------------------
# symmetries of the girth-3 wheel
#
# In the glued diagram the six twist regions interleave around the boundary
# circle as p a q b r c.  The wheel symmetries are exactly the relabelings
# that preserve this wheel: the group the rotation (q r p / b c a), the
# reflection (p r q / c b a) and turning the inner ring out (a c b / p r q)
# generate.  The reflection and ring swap differ from the sloppy forms in
# which they are often quoted: a plain row transposition does not preserve
# the wheel and genuinely changes the knot (testable on invariants).
#
# The 12 symmetries as position permutations of (p q r a b c): the images
# of the index labelling, each listing where its labels come from.  The
# identity is first, so that ``g3_wheel_minima`` can
# skip it; the rest are in the order that discards the most labellings
# first, measured greedily on the candidates of the girth-3 census at
# labels bounded by 2.
_G3_IMAGES = (
    (0, 1, 2, 3, 4, 5),
    (0, 2, 1, 5, 4, 3),
    (1, 0, 2, 3, 5, 4),
    (3, 4, 5, 1, 2, 0),
    (4, 5, 3, 2, 0, 1),
    (5, 3, 4, 0, 1, 2),
    (2, 1, 0, 4, 3, 5),
    (3, 5, 4, 0, 2, 1),
    (4, 3, 5, 1, 0, 2),
    (5, 4, 3, 2, 1, 0),
    (2, 0, 1, 5, 3, 4),
    (1, 2, 0, 4, 5, 3),
)
_G3_PERMS = tuple(operator.itemgetter(*image) for image in _G3_IMAGES)


def d3_orbit(r: Girth3Rep) -> set[Girth3Rep]:
    """The images of r under the 12 wheel symmetries; their number divides
    12."""
    labels = r.top + r.bottom
    return {Girth3Rep(x[:3], x[3:]) for x in (perm(labels) for perm in _G3_PERMS)}


def g3_wheel_min(labels: tuple) -> tuple:
    """The least of the 12 wheel images of a labelling (p, q, r, a, b, c)."""
    return min(perm(labels) for perm in _G3_PERMS)


def g3_wheel_minima(labellings: list) -> list:
    """The labellings x of the list with ``g3_wheel_min(x) == x``, in order.

    Each wheel image but the identity in turn keeps the labellings no
    larger than their image, one C-level pass per image.
    """
    le = operator.le
    for perm in _G3_PERMS[1:]:
        labellings = list(compress(labellings, map(le, labellings, map(perm, labellings))))
    return labellings


def canonical_pair(p: int, q: int) -> tuple:
    """The canonical labels of K(p, q): the sorted pair, or, when a +-1
    label is absorbed into the other twist region, the single region left."""
    p, q = sorted((p, q))
    if abs(q) == 1:
        return (p - q,)
    if abs(p) == 1:
        return (q - p,)
    return (p, q)


def g3_labels(labels: tuple) -> tuple:
    """The girth-3 labelling (p, q, r, a, b, c) of the rep with these
    ``rep_labels``: six labels are their own, K(p, q) is (p, 0, 0, q, 0, 0),
    and K(p) is that of the pair whose +-1 label e absorbs into p by
    K(x, e) = K(x - e), the absorption ``canonical_pair`` makes:
    (p - 1, -1) for p >= 0 and (p + 1, 1) for p < 0.

    The labelling has the rep's bracket, component count and writhe, and
    its template is the rep's, save for K(0): its template is two free
    loops, and its labelling a 2-crossing unlink.
    """
    if len(labels) == 1:
        (p,) = labels
        labels = (p - 1, -1) if p >= 0 else (p + 1, 1)
    if len(labels) == 2:
        return (labels[0], 0, 0, labels[1], 0, 0)
    return labels


def canonicalize(rep) -> tuple:
    """The canonical labels (``rep_labels``) of a rep under the paper-level
    symmetries; ``rep_from_labels`` reads the canonical rep back.

    A girth-1 rep is its own, a girth-2 one its ``canonical_pair`` and a
    girth-3 labelling the least of its wheel images.
    """
    if isinstance(rep, Girth1Rep):
        return (rep.p,)
    if isinstance(rep, Girth2Rep):
        return canonical_pair(rep.p, rep.q)
    if isinstance(rep, Girth3Rep):
        return g3_wheel_min(rep.top + rep.bottom)
    raise TypeError(f"cannot canonicalize {rep!r}")

