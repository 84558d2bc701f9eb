"""Diagrams that no command builds, and PD JSON written out, for the tests.

The commands read PD codes (``knotpair.diagram.pd_from_json``) and write
the tree-pair templates from their labels (``pd_from_rep``).  The tests
also need diagrams from outside those families, pretzels and braid
closures, and PD files to hand to the CLI.  ``DiagramBuilder`` assembles
any diagram from crossings over symbolic points; it built the templates
before they were written directly, and ``reference_pd_from_rep`` keeps
that assembly as the reference the written templates are compared with.
"""

import json

from knotpair import diagram
from knotpair.diagram import (
    INSIDE_HANDEDNESS,
    OUTSIDE_HANDEDNESS,
    PDCode,
    _orient_ports,
    _orientation,
    _other_end,
    validate_pd,
)
from knotpair.record import set_field
from knotpair.reps import Girth1Rep, Girth2Rep, Girth3Rep


class DiagramBuilder:
    """Assemble a PD code from crossings over symbolic endpoints.

    Endpoints are the ints ``point`` hands out.  Every point must be used
    exactly twice, either as a crossing port or in a `connect` junction.
    Chains of junctions between ports become arcs; junction cycles
    touching no crossing become free loops.
    """

    def __init__(self) -> None:
        self.crossings: list[tuple[int, int, int, int]] = []
        self.joins: list[tuple[int, int]] = []
        self.n_points = 0

    def point(self) -> int:
        """A fresh endpoint."""
        self.n_points += 1
        return self.n_points - 1

    def add_crossing(self, a, b, c, d) -> None:
        """Register a crossing; (a,b,c,d) counterclockwise, under = a,c."""
        self.crossings.append((a, b, c, d))

    def connect(self, p, q) -> None:
        if p == q:
            raise ValueError("cannot join a point to itself")
        self.joins.append((p, q))

    def build(self) -> PDCode:
        """The PD code, carrying ``orient`` of itself (see ``PDCode``).

        The arcs are numbered 1..2n along each component, in the
        orientation ``orient`` gives the assembled diagram, and each
        crossing is turned so that slot 0 is its incoming under-strand end,
        as ``diagram._write_template`` does; ``validate_pd`` checks the
        result.  Why the result carries ``orient`` of itself is said there.
        """
        parent = list(range(self.n_points))

        def find(p: int) -> int:
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        uses = [0] * self.n_points
        for p, q in self.joins:
            uses[p] += 1
            uses[q] += 1
            parent[find(p)] = find(q)
        for cr in self.crossings:
            for p in cr:
                uses[p] += 1
        for p, k in enumerate(uses):
            if k != 2:
                raise ValueError(f"point {p!r} used {k} times (need 2)")

        # ports whose points are joined lie on one arc; a class of joined
        # points with no port is a free loop
        n = len(self.crossings)
        root = [find(p) for p in range(self.n_points)]
        other = _other_end(root[p] for cr in self.crossings for p in cr)
        free_loops = len(set(root)) - 2 * n
        incoming, traced = _orient_ports(other)

        label = [0] * (4 * n)
        next_id = 1
        for start in range(4 * n):
            if label[start] or incoming[start]:
                continue
            cur = start
            while True:
                end = other[cur]
                label[cur] = label[end] = next_id
                next_id += 1
                cur = end ^ 2
                if cur == start:
                    break
        crossings = []
        reversed_in = []
        for u in range(0, 4 * n, 4):
            if incoming[u]:
                crossings.append((label[u], label[u + 1], label[u + 2], label[u + 3]))
                over_in = incoming[u + 1]
            else:
                crossings.append((label[u + 2], label[u + 3], label[u], label[u + 1]))
                over_in = incoming[u + 3]
            reversed_in += (False, not over_in, True, over_in)
        pd = PDCode(tuple(crossings), free_loops)
        validate_pd(pd)
        set_field(pd, "orientation", _orientation(reversed_in, traced + free_loops))
        return pd


def _ladder(
    b: DiagramBuilder,
    label: int,
    top_left,
    top_right,
    bot_left,
    bot_right,
    positive_handedness: int,
    reflected: bool = False,
) -> None:
    """A vertical chain of |label| crossings between two strands.

    With zero crossings the strands pass straight through (left to left,
    right to right); each crossing swaps the sides.  ``positive_handedness``
    +1 puts the NE-SW strand under for positive labels.  ``reflected``
    reverses the cyclic tuple order: ladders drawn in the outer disk are
    seen mirrored, and without the reversal the glued map is not planar.
    """
    n = abs(label)
    if n == 0:
        b.connect(top_left, bot_left)
        b.connect(top_right, bot_right)
        return
    h = positive_handedness if label > 0 else -positive_handedness
    # consecutive crossings share the endpoints between them
    nw, ne = top_left, top_right
    for k in range(n):
        sw, se = (b.point(), b.point()) if k < n - 1 else (bot_left, bot_right)
        tup = (ne, nw, sw, se) if h == 1 else (nw, sw, se, ne)
        if reflected:
            tup = (tup[0], tup[3], tup[2], tup[1])
        b.add_crossing(*tup)
        nw, ne = sw, se


def reference_star_pair_pd(inner: list[int], outer: list[int]) -> PDCode:
    """Two labeled star trees of g edges each, glued along the boundary
    circle, assembled by ``DiagramBuilder``.

    The inner star's edge i opens between boundary points z[i-1], y[i];
    the outer star's edge i between y[i], z[i]; inner corners join
    consecutive inner edges at the center, outer corners likewise outside.
    With g = 3 the boundary wheel reads p a q b r c, the girth-3 template.
    """
    g = len(inner)
    b = DiagramBuilder()
    y, z, in_cw, in_ccw, out_y, out_z = (
        [b.point() for _ in range(g)] for _ in range(6)
    )
    for i in range(g):
        _ladder(
            b, inner[i], z[(i - 1) % g], y[i], in_cw[i], in_ccw[i], INSIDE_HANDEDNESS
        )
        _ladder(
            b, outer[i], y[i], z[i], out_y[i], out_z[i],
            OUTSIDE_HANDEDNESS, reflected=True,
        )
    for i in range(g):
        b.connect(in_ccw[i], in_cw[(i + 1) % g])
        b.connect(out_z[i], out_y[(i + 1) % g])
    return b.build()


def reference_torus2_pd(p: int) -> PDCode:
    """K(p), the closed single twist region, assembled by ``DiagramBuilder``:
    one ladder closed on itself, the braid closure of two strands.

    The ladder's handedness is ``diagram.GIRTH1_HANDEDNESS``, read at each
    call, so that the calibration tests can flip it.
    """
    b = DiagramBuilder()
    tl, tr, bl, br = b.point(), b.point(), b.point(), b.point()
    _ladder(b, p, tl, tr, bl, br, diagram.GIRTH1_HANDEDNESS)
    b.connect(tl, bl)
    b.connect(tr, br)
    return b.build()


def reference_pd_from_rep(rep) -> PDCode:
    """``diagram.pd_from_rep`` assembled by ``DiagramBuilder``."""
    if isinstance(rep, Girth1Rep):
        return reference_torus2_pd(rep.p)
    if isinstance(rep, Girth2Rep):
        return reference_star_pair_pd([rep.p, 0], [rep.q, 0])
    return reference_star_pair_pd(list(rep.top), list(rep.bottom))


def pd_to_json(pd: PDCode) -> str:
    """The PD JSON form that ``pd_from_json`` reads."""
    obj: dict = {"crossings": [list(c) for c in pd.crossings]}
    if pd.free_loops:
        obj["free_loops"] = pd.free_loops
    return json.dumps(obj)


def pretzel_pd(e1: int, e2: int, e3: int) -> PDCode:
    """Reference (e1,e2,e3) pretzel: three vertical twist regions closed up.

    Used only as an independent anchor for template calibration; the
    handedness convention here follows the inside-tree convention.
    """
    b = DiagramBuilder()
    tops = [(b.point(), b.point()) for i in range(3)]
    bots = [(b.point(), b.point()) for i in range(3)]
    for i, e in enumerate((e1, e2, e3)):
        _ladder(b, e, tops[i][0], tops[i][1], bots[i][0], bots[i][1], INSIDE_HANDEDNESS)
    for i in range(3):
        b.connect(tops[i][1], tops[(i + 1) % 3][0])
        b.connect(bots[i][1], bots[(i + 1) % 3][0])
    return b.build()


def braid_closure_pd(word: list[int], strands: int) -> PDCode:
    """Trace closure of a braid word; letter +-i crosses strands i, i+1."""
    b = DiagramBuilder()
    start = [b.point() for i in range(strands)]
    cur = list(start)
    for letter in word:
        i = abs(letter) - 1
        if not 0 <= i < strands - 1:
            raise ValueError(f"letter {letter} out of range for {strands} strands")
        nw, ne, sw, se = b.point(), b.point(), b.point(), b.point()
        b.connect(cur[i], nw)
        b.connect(cur[i + 1], ne)
        if letter > 0:
            b.add_crossing(ne, nw, sw, se)
        else:
            b.add_crossing(nw, sw, se, ne)
        cur[i], cur[i + 1] = sw, se
    for i in range(strands):
        b.connect(cur[i], start[i])
    return b.build()
