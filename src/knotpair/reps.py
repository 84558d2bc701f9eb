"""Tree-pair knot representations: parsing, symmetries, canonical keys.

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

from .record import Record, set_field


class Girth1Rep(Record):
    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        set_field(self, "p", p)

    def _key(self) -> tuple:
        return (self.p,)

    def girth(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"({self.p})"


class Girth2Rep(Record):
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        set_field(self, "p", p)
        set_field(self, "q", q)

    def _key(self) -> tuple:
        return (self.p, self.q)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.q) == (other.p, other.q)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def girth(self) -> int:
        return 2

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


class Girth3Rep(Record):
    __slots__ = ("top", "bottom")

    def __init__(self, top: tuple[int, int, int], bottom: tuple[int, int, int]) -> None:
        set_field(self, "top", top)
        set_field(self, "bottom", bottom)

    def _key(self) -> tuple:
        return (self.top, self.bottom)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.top, self.bottom) == (other.top, other.bottom)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.top, self.bottom))

    def girth(self) -> int:
        return 3

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

    def __init__(
        self,
        edges: tuple[tuple[int, int, int], ...],
        rotation: tuple[tuple[tuple[int, int], ...], ...],
    ) -> None:
        set_field(self, "edges", edges)
        set_field(self, "rotation", rotation)

    def _key(self) -> tuple:
        return (self.edges, self.rotation)


class TreePairRep(Record):
    __slots__ = ("inside", "outside", "girth_value")

    def __init__(self, inside: PlaneTree, outside: PlaneTree, girth_value: int) -> None:
        set_field(self, "inside", inside)
        set_field(self, "outside", outside)
        set_field(self, "girth_value", girth_value)

    def _key(self) -> tuple:
        return (self.inside, self.outside, self.girth_value)

    def girth(self) -> int:
        return self.girth_value


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


def mirror(rep):
    """Mirror image: negate every label."""
    if isinstance(rep, Girth1Rep):
        return Girth1Rep(-rep.p)
    if isinstance(rep, Girth2Rep):
        return Girth2Rep(-rep.p, -rep.q)
    if isinstance(rep, Girth3Rep):
        return Girth3Rep(
            tuple(-x for x in rep.top), tuple(-x for x in rep.bottom)
        )
    raise TypeError(f"cannot mirror {rep!r}")


def template_crossings(rep) -> int:
    """The crossing count of the rep's template diagram
    (``diagram.pd_from_rep``), without building it.

    A ladder of label x has |x| crossings, and the template is its
    ladders joined up, so the count is the sum of the label sizes.
    """
    if isinstance(rep, Girth1Rep):
        return abs(rep.p)
    if isinstance(rep, Girth2Rep):
        return abs(rep.p) + abs(rep.q)
    if isinstance(rep, Girth3Rep):
        return sum(map(abs, rep.top + rep.bottom))
    raise TypeError(f"cannot build a diagram from {rep!r}")


# ---------------------------------------------------------------------------
# symmetries of the girth-3 wheel
#
# In the glued diagram the six twist regions interleave around the boundary
# circle as p a q b r c.  The symmetries below are exactly the relabelings
# that preserve this wheel (rotations, a reflection, and turning the inner
# ring out).  The reflection and ring swap differ from the sloppy forms in
# which they are often quoted: a plain row transposition does not preserve
# the wheel and genuinely changes the knot (testable on invariants).


def rotate_g3(r: Girth3Rep) -> Girth3Rep:
    (p, q, rr), (a, b, c) = r.top, r.bottom
    return Girth3Rep((q, rr, p), (b, c, a))


def reflect_g3(r: Girth3Rep) -> Girth3Rep:
    (p, q, rr), (a, b, c) = r.top, r.bottom
    return Girth3Rep((p, rr, q), (c, b, a))


def swap_rings_g3(r: Girth3Rep) -> Girth3Rep:
    (p, q, rr), (a, b, c) = r.top, r.bottom
    return Girth3Rep((a, c, b), (p, rr, q))


def d3_orbit(r: Girth3Rep) -> set[Girth3Rep]:
    """Closure of r under the wheel symmetries; size always divides 12."""
    seen = {r}
    frontier = [r]
    while frontier:
        cur = frontier.pop()
        for image in (rotate_g3(cur), reflect_g3(cur), swap_rings_g3(cur)):
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    assert 12 % len(seen) == 0
    return seen


class CanonicalRep(Record):
    __slots__ = ("rep", "key")

    def __init__(self, rep: object, key: tuple) -> None:
        set_field(self, "rep", rep)
        set_field(self, "key", key)

    def _key(self) -> tuple:
        return (self.rep, self.key)


# The wheel symmetries as position permutations of (p q r a b c): the orbit
# of the index labeling lists, for each image, where its labels come from.
_G3_PERMS = tuple(
    operator.itemgetter(*(x.top + x.bottom))
    for x in d3_orbit(Girth3Rep((0, 1, 2), (3, 4, 5)))
)
assert len(_G3_PERMS) == 12


def g3_wheel_min(labels: tuple) -> tuple:
    """The least of the 12 wheel images of a labelling (p, q, r, a, b, c)."""
    return min(perm(labels) for perm in _G3_PERMS)


def _g3_key(r: Girth3Rep) -> tuple:
    return ("g3",) + g3_wheel_min(r.top + r.bottom)


def canonicalize(rep) -> CanonicalRep:
    """Canonical form under the paper-level symmetries.

    Girth 2 pairs are sorted and have +-1 labels absorbed into the other
    twist region (repeatedly); a pair that collapses to a single region is
    returned as a Girth1Rep.
    Girth 3 keys are the lexicographic minimum over the symmetry orbit.
    """
    if isinstance(rep, Girth1Rep):
        return CanonicalRep(rep, ("g1", rep.p))
    if isinstance(rep, Girth2Rep):
        p, q = sorted((rep.p, rep.q))
        if abs(q) == 1:
            merged = p - q
            return CanonicalRep(Girth1Rep(merged), ("g1", merged))
        if abs(p) == 1:
            merged = q - p
            return CanonicalRep(Girth1Rep(merged), ("g1", merged))
        return CanonicalRep(Girth2Rep(p, q), ("g2", p, q))
    if isinstance(rep, Girth3Rep):
        key = _g3_key(rep)
        canon = Girth3Rep(tuple(key[1:4]), tuple(key[4:7]))
        return CanonicalRep(canon, key)
    raise TypeError(f"cannot canonicalize {rep!r}")
