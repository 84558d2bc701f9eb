"""Planar diagram codes, diagram templates, and checkerboard structure.

PD convention used throughout: each crossing is a 4-tuple of arc ids listed
counterclockwise; slots 0 and 2 carry the under-strand, slots 1 and 3 the
over-strand.  A template's arcs are numbered along its components, and
each crossing is turned so that slot 0 is an under-strand end: the
outgoing one in the orientation ``orient`` gives the template (see
``DiagramBuilder.build``).

Twist-region handedness constants at the bottom of this module were frozen
by the calibration suite (tests/test_calibration.py): they are the unique
choice under which the closed-form bracket of the double twist family
agrees with the state-sum oracle on the grid |p|,|q| <= 3.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from collections.abc import Iterable

from .record import Record, set_field
from .reps import Girth1Rep, Girth2Rep, Girth3Rep


class PDCode(Record):
    """Crossing list plus a count of crossing-free circles.

    A code made by ``DiagramBuilder.build`` keeps ``orient`` of itself in
    ``orientation``, so that ``orient`` hands it back without tracing the
    strands again.  Only the builder sets it; equality, hashing and repr
    ignore it, and every other code has None.
    """

    __slots__ = ("crossings", "free_loops", "orientation")

    def __init__(
        self, crossings: tuple[tuple[int, int, int, int], ...], free_loops: int = 0
    ) -> None:
        set_field(self, "crossings", crossings)
        set_field(self, "free_loops", free_loops)
        set_field(self, "orientation", None)

    def _key(self) -> tuple:
        return (self.crossings, self.free_loops)

    def n(self) -> int:
        return len(self.crossings)


class InvalidPDError(ValueError):
    pass


def validate_pd(pd: PDCode) -> None:
    """Structural sanity: every arc twice, and planarity via Euler count."""
    counts: dict[int, int] = {}
    for cr in pd.crossings:
        if len(cr) != 4:
            raise InvalidPDError(f"crossing {cr!r} is not a 4-tuple")
        for a in cr:
            counts[a] = counts.get(a, 0) + 1
    bad = {a: k for a, k in counts.items() if k != 2}
    if bad:
        raise InvalidPDError(f"arcs not appearing exactly twice: {bad}")
    n = pd.n()
    if n:
        f = len(regions(pd))
        if f != n + 2:
            raise InvalidPDError(
                f"region count {f} violates Euler formula (expected {n + 2}); "
                "the code does not describe a planar diagram"
            )


class _LongInt(str):
    """The digits of a JSON integer that ``int`` refuses to convert, having
    more than ``sys.get_int_max_str_digits()`` of them."""

    def __repr__(self) -> str:
        return f"<{len(self.lstrip('-'))}-digit integer>"


def _json_int(digits: str) -> int | _LongInt:
    try:
        return int(digits)
    except ValueError:
        return _LongInt(digits)


def pd_from_json(text: str) -> PDCode:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        # an integer too long for int(): read again, keeping such integers
        # as text, to say where it sits
        obj = json.loads(text, parse_int=_json_int)
    if not isinstance(obj, dict):
        raise InvalidPDError("PD JSON must be an object with a 'crossings' list")
    crossings = obj.get("crossings")
    if not isinstance(crossings, list):
        raise InvalidPDError(f"'crossings' must be a list, got {crossings!r}")
    for i, c in enumerate(crossings):
        if isinstance(c, list) and any(type(a) is _LongInt for a in c):
            raise InvalidPDError(
                f"crossings[{i}] has an arc id of more than "
                f"{sys.get_int_max_str_digits()} digits"
            )
        # type() rather than isinstance(): JSON true/false are not arc ids
        if not (isinstance(c, list) and len(c) == 4 and all(type(a) is int for a in c)):
            raise InvalidPDError(f"crossing {c!r} is not a list of 4 integers")
    free_loops = obj.get("free_loops", 0)
    if type(free_loops) is not int or free_loops < 0:
        raise InvalidPDError(
            f"'free_loops' must be a non-negative integer, got {free_loops!r}"
        )
    pd = PDCode(tuple(tuple(c) for c in crossings), free_loops)
    validate_pd(pd)
    return pd


_X_RE = re.compile(r"X\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
# the longest run of X(...) terms with only whitespace and commas around them
_TERMS_RE = re.compile(rf"(?:[\s,]*{_X_RE.pattern})*[\s,]*")


def pd_from_text(text: str) -> PDCode:
    """Read the flat `X(a,b,c,d) X(e,f,g,h) ...` form; any text but
    whitespace and commas between the terms is refused with its position."""
    pos = _TERMS_RE.match(text).end()
    if pos < len(text):
        raise InvalidPDError(
            f"expected an X(a,b,c,d) term at position {pos}, found {text[pos:pos + 20]!r}"
        )
    crossings = []
    for m in _X_RE.finditer(text):
        try:
            crossings.append(tuple(int(g) for g in m.groups()))
        except ValueError:
            raise InvalidPDError(
                f"the X term at position {m.start()} has an arc id of more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
    pd = PDCode(tuple(crossings))
    validate_pd(pd)
    return pd


# ---------------------------------------------------------------------------
# strand tracing and orientation
#
# A port is a crossing slot, numbered 4 * crossing + slot, so the port
# across the crossing from port p is p ^ 2.


def _other_end(arcs: Iterable[object]) -> list[int]:
    """``other[p]``: the port at the other end of port p's arc, from the
    arc at each port in port order."""
    other: list[int] = []
    first: dict[object, int] = {}
    for port, a in enumerate(arcs):
        other.append(port)
        q = first.pop(a, None)
        if q is None:
            first[a] = port
        else:
            other[port], other[q] = q, port
    if first:
        raise InvalidPDError(f"arcs not appearing exactly twice: {sorted(first)}")
    return other


class Orientation(Record):
    """Derived orientation data for a PD code.

    ``incoming[ci][slot]`` says whether the strand enters the crossing there;
    ``signs[ci]`` is the crossing sign, and components without crossings are
    counted in the PD's ``free_loops``.
    """

    __slots__ = ("incoming", "n_components", "signs", "writhe")

    def __init__(
        self,
        incoming: tuple[tuple[bool, bool, bool, bool], ...],
        n_components: int,
        signs: tuple[int, ...],
        writhe: int,
    ) -> None:
        set_field(self, "incoming", incoming)
        set_field(self, "n_components", n_components)
        set_field(self, "signs", signs)
        set_field(self, "writhe", writhe)

    def _key(self) -> tuple:
        return (self.incoming, self.n_components, self.signs, self.writhe)


def _orientation(incoming: list[bool], n_components: int) -> Orientation:
    """The Orientation of a diagram from its per-port ``incoming`` flags."""
    rows = tuple(tuple(incoming[p:p + 4]) for p in range(0, len(incoming), 4))
    signs = tuple(1 if row[0] != row[1] else -1 for row in rows)
    return Orientation(rows, n_components, signs, sum(signs))


def _trace_components(other: list[int]) -> list[list[int]]:
    """Split the ports into strand cycles.

    Each cycle is the list of ports in traversal order, alternating
    exit-port, entry-port, exit-port, ... along the strand, and starts at
    its lowest port.
    """
    visited = [False] * len(other)
    cycles: list[list[int]] = []
    for start in range(len(other)):
        if visited[start]:
            continue
        cycle = []
        cur = start  # treated as an exit port
        while True:
            nxt = other[cur]
            cycle += (cur, nxt)
            visited[cur] = visited[nxt] = True
            cur = nxt ^ 2
            if cur == start:
                break
        cycles.append(cycle)
    return cycles


def orient(pd: PDCode) -> Orientation:
    """Orient every component deterministically, in one pass.

    Among the direction choices that keep the first traced component's
    direction, take the lexicographically least sign tuple (-1 before +1),
    then the least tuple of reversals.

    Reversing a component toggles ``incoming`` at all its ports, and a sign
    is +1 exactly when slots 0 and 1 disagree, so a crossing of a component
    with itself has a fixed sign, and one between components a and b reads
    only whether a and b are reversed alike.  Walk the crossings in order,
    grouping components whose relative direction is fixed.  A crossing
    that joins two groups can take either sign without changing an earlier
    one, so it gets -1, which fixes the two groups' relative direction; a
    crossing inside a group has its sign fixed already.  Each sign is thus
    the least possible given those before it.  What stays free is one
    direction per final group, which no sign reads, and the least choice
    keeps each group's lowest component as traced.

    A code from ``DiagramBuilder.build`` carries this orientation already
    (see ``PDCode``), and it is handed back as it is.
    """
    if pd.orientation is not None:
        return pd.orientation
    incoming, traced = _orient_ports(_other_end(itertools.chain(*pd.crossings)))
    return _orientation(incoming, traced + pd.free_loops)


def _orient_ports(other: list[int]) -> tuple[list[bool], int]:
    """``orient``'s ``incoming`` flag per port, and the number of strand
    cycles, from the arc ends of a diagram."""
    cycles = _trace_components(other)
    comp = [0] * len(other)
    # even positions of a traced cycle are exits, odd positions are entries
    traced_in = [False] * len(other)
    for k, cyc in enumerate(cycles):
        for port in cyc:
            comp[port] = k
        for port in cyc[1::2]:
            traced_in[port] = True

    group = list(range(len(cycles)))  # the lowest component of each group
    flipped = [False] * len(cycles)
    for under in range(0, len(other), 4):
        a, b = comp[under], comp[under + 1]
        if group[a] == group[b]:
            continue
        # reverse the higher group if the crossing would otherwise be +1
        toggle = (traced_in[under] != flipped[a]) != (
            traced_in[under + 1] != flipped[b]
        )
        keep, merged = sorted((group[a], group[b]))
        for c, g in enumerate(group):
            if g == merged:
                group[c] = keep
                flipped[c] ^= toggle

    incoming = [traced_in[p] != flipped[comp[p]] for p in range(len(other))]
    return incoming, len(cycles)


# ---------------------------------------------------------------------------
# regions, checkerboard coloring and Tait graphs
#
# A corner is numbered 4 * crossing + k and sits between slots k and k+1.


def regions(pd: PDCode) -> list[list[int]]:
    """Complementary regions as cycles of corners.

    The walk keeps the region on the left of the traversal direction;
    every corner belongs to exactly one region.  Free loops are ignored.
    """
    other = _other_end(itertools.chain(*pd.crossings))
    visited = [False] * len(other)
    out: list[list[int]] = []
    for start in range(len(other)):
        if visited[start]:
            continue
        corners = []
        cur = start  # arriving into a crossing at this slot
        while not visited[cur]:
            visited[cur] = True
            corners.append(cur)
            cur = other[cur + 1 if cur % 4 != 3 else cur - 3]
        out.append(corners)
    return out


def checkerboard(pd: PDCode) -> tuple[list[list[int]], list[list[int]]]:
    """Both proper 2-colorings of the complementary regions, each given by
    the corner cycles of its black regions, in ``regions`` order."""
    if pd.free_loops:
        raise InvalidPDError("region trace undefined with free loops present")
    cycles = regions(pd)
    region_of = [0] * (4 * pd.n())
    for ri, corners in enumerate(cycles):
        for c in corners:
            region_of[c] = ri
    # the walk leaves corner c along slot k+1, whose far side holds
    # corner k+1: so these regions are all the neighbours of c's region
    color = [-1] * len(cycles)
    color[0] = 0
    queue = [0]
    while queue:
        r = queue.pop()
        for c in cycles[r]:
            s = region_of[c + 1 if c % 4 != 3 else c - 3]
            if color[s] < 0:
                color[s] = 1 - color[r]
                queue.append(s)
            elif color[s] == color[r]:
                raise InvalidPDError("regions are not checkerboard colorable")
    if -1 in color:
        raise InvalidPDError("region adjacency is disconnected")
    return tuple(
        [corners for corners, col in zip(cycles, color) if col == shade]
        for shade in (0, 1)
    )


class TaitEdge(Record):
    """The Tait edge of one crossing, whose index it shares: it joins the
    vertex at black corner k0 (end 0) to the one at k0 + 2 (end 1)."""

    __slots__ = ("v1", "v2", "k0")

    def __init__(self, v1: int, v2: int, k0: int) -> None:
        set_field(self, "v1", v1)
        set_field(self, "v2", v2)
        set_field(self, "k0", k0)  # 0 or 1

    def _key(self) -> tuple:
        return (self.v1, self.v2, self.k0)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.v1, self.v2, self.k0) == (other.v1, other.v2, other.k0)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.v1, self.v2, self.k0))


class TaitGraph(Record):
    """Checkerboard graph with a rotation system.

    ``rotation[v]`` lists (edge_index, end) around vertex v in the cyclic
    order of its region's corners; end 0 refers to the corner k0 of the
    crossing, end 1 to corner k0+2.
    """

    __slots__ = ("n_vertices", "edges", "rotation")

    def __init__(
        self,
        n_vertices: int,
        edges: tuple[TaitEdge, ...],
        rotation: tuple[tuple[tuple[int, int], ...], ...],
    ) -> None:
        set_field(self, "n_vertices", n_vertices)
        set_field(self, "edges", edges)
        set_field(self, "rotation", rotation)

    def _key(self) -> tuple:
        return (self.n_vertices, self.edges, self.rotation)


def tait_graph(pd: PDCode, black: list[list[int]]) -> TaitGraph:
    """The Tait graph of one shading from ``checkerboard``: a vertex per
    black region, an edge per crossing.  A crossing's black corners are
    k0 and k0 + 2, so corner c is end (c >> 1) & 1 of its edge."""
    vertex_of = [-1] * (4 * pd.n())
    for v, corners in enumerate(black):
        for c in corners:
            vertex_of[c] = v
    edges = []
    for c in range(0, 4 * pd.n(), 4):
        k0 = 0 if vertex_of[c] >= 0 else 1
        edges.append(TaitEdge(vertex_of[c + k0], vertex_of[c + k0 + 2], k0))
    rotation = tuple(
        tuple((c >> 2, (c >> 1) & 1) for c in corners) for corners in black
    )
    return TaitGraph(len(black), tuple(edges), rotation)


# ---------------------------------------------------------------------------
# diagram builder


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
        crossing is turned so that slot 0 is its incoming under-strand end.
        ``validate_pd`` checks the result.

        ``orient`` of the result is that orientation reversed, so the
        result carries it without tracing the strands again.  ``orient`` keeps
        its first traced component as traced, from port 0 of crossing 0,
        which is thus an exit of the assembled diagram.  Crossing 0 is
        turned, so its slot 0 in the result is the under-strand's other end,
        an entry, and ``orient`` of the result reverses that component.
        ``validate_pd`` passes only connected diagrams, where crossings tie
        the direction of every component to it, so every component is
        reversed.  Reversal keeps every sign.
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
        # the one field set after construction, by the builder alone
        set_field(pd, "orientation", _orientation(reversed_in, traced + free_loops))
        return pd


# ---------------------------------------------------------------------------
# twist ladders and templates

# Handedness of a positive twist label, per tree.  Frozen by calibration
# against the closed-form bracket (see tests/test_calibration.py); the
# outside value differs because the outer disk is assembled mirrored.
INSIDE_HANDEDNESS = 1
OUTSIDE_HANDEDNESS = -1
GIRTH1_HANDEDNESS = 1


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


def star_pair_pd(inner: list[int], outer: list[int]) -> PDCode:
    """Glue two labeled star trees along the boundary circle.

    The inner star's edge i opens between boundary points z[i-1], y[i]; the
    outer star's edge i between y[i], z[i]; inner corners join consecutive
    inner edges at the center, outer corners likewise outside.  With g = 3
    the boundary wheel reads p a q b r c, matching the girth-3 family.
    """
    g = len(inner)
    if len(outer) != g or g < 2:
        raise ValueError("need equal-length label lists, at least two sectors")
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


def torus2_pd(p: int) -> PDCode:
    """The closed single twist region K(p): braid closure of two strands."""
    b = DiagramBuilder()
    tl, tr, bl, br = b.point(), b.point(), b.point(), b.point()
    _ladder(b, p, tl, tr, bl, br, GIRTH1_HANDEDNESS)
    b.connect(tl, bl)
    b.connect(tr, br)
    return b.build()


def pd_from_rep(rep) -> PDCode:
    """PD code of the template diagram of a representation."""
    if isinstance(rep, Girth1Rep):
        return torus2_pd(rep.p)
    if isinstance(rep, Girth2Rep):
        return star_pair_pd([rep.p, 0], [rep.q, 0])
    if isinstance(rep, Girth3Rep):
        return star_pair_pd(list(rep.top), list(rep.bottom))
    raise TypeError(f"cannot build a diagram from {rep!r}")

