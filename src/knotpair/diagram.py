"""Planar diagram codes, diagram templates, and checkerboard structure.

PD convention used throughout: each crossing is a 4-tuple of arc ids listed
counterclockwise; slots 0 and 2 carry the under-strand, slots 1 and 3 the
over-strand.  After construction, tuples are rotated so that slot 0 is the
incoming under-strand end with respect to the chosen orientation.

Twist-region handedness constants at the bottom of this module were frozen
by the calibration suite (tests/test_calibration.py): they are the unique
choice under which the closed-form bracket of the double twist family
agrees with the state-sum oracle on the grid |p|,|q| <= 3.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from .reps import Girth1Rep, Girth2Rep, Girth3Rep


@dataclass(frozen=True)
class PDCode:
    """Crossing list plus a count of crossing-free circles."""

    crossings: tuple[tuple[int, int, int, int], ...]
    free_loops: int = 0

    def n(self) -> int:
        return len(self.crossings)

    def arcs(self) -> list[int]:
        seen = sorted({a for cr in self.crossings for a in cr})
        return seen


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
        f = len(regions(PDCode(pd.crossings, 0)))
        if f != n + 2:
            raise InvalidPDError(
                f"region count {f} violates Euler formula (expected {n + 2}); "
                "the code does not describe a planar diagram"
            )


def pd_to_json(pd: PDCode) -> str:
    obj: dict = {"crossings": [list(c) for c in pd.crossings]}
    if pd.free_loops:
        obj["free_loops"] = pd.free_loops
    return json.dumps(obj)


def pd_from_json(text: str) -> PDCode:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise InvalidPDError("PD JSON must be an object with a 'crossings' list")
    crossings = obj.get("crossings")
    if not isinstance(crossings, list):
        raise InvalidPDError(f"'crossings' must be a list, got {crossings!r}")
    for c in crossings:
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


def pd_from_text(text: str) -> PDCode:
    """Read the flat `X(a,b,c,d) X(e,f,g,h) ...` form."""
    crossings = [tuple(int(g) for g in m.groups()) for m in _X_RE.finditer(text)]
    if not crossings and text.strip():
        quoted = repr(text)
        if len(quoted) > 60:
            quoted = quoted[:60] + "..."
        raise InvalidPDError(f"no X(...) terms found in {quoted}")
    pd = PDCode(tuple(crossings))
    validate_pd(pd)
    return pd


# ---------------------------------------------------------------------------
# strand tracing and orientation


def _occurrences(pd: PDCode) -> dict[int, list[tuple[int, int]]]:
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, cr in enumerate(pd.crossings):
        for slot, a in enumerate(cr):
            occ.setdefault(a, []).append((ci, slot))
    return occ


@dataclass(frozen=True)
class Orientation:
    """Derived orientation data for a PD code.

    ``incoming[ci][slot]`` says whether the strand enters the crossing there;
    ``signs[ci]`` is the crossing sign, and components without crossings are
    counted in the PD's ``free_loops``.
    """

    incoming: tuple[tuple[bool, bool, bool, bool], ...]
    n_components: int
    signs: tuple[int, ...]
    writhe: int


def _trace_components(pd: PDCode) -> list[list[tuple[int, int]]]:
    """Split the port set into strand cycles.

    Each cycle is the list of (crossing, slot) ports in traversal order,
    alternating exit-port, entry-port, exit-port, ... along the strand.
    """
    occ = _occurrences(pd)
    visited: set[tuple[int, int]] = set()
    cycles: list[list[tuple[int, int]]] = []
    for ci in range(pd.n()):
        for slot in range(4):
            start = (ci, slot)
            if start in visited:
                continue
            cycle = []
            cur = start  # treated as an exit port
            while True:
                cycle.append(cur)
                visited.add(cur)
                a = pd.crossings[cur[0]][cur[1]]
                pair = occ[a]
                nxt = pair[0] if pair[1] == cur else pair[1]
                cycle.append(nxt)
                visited.add(nxt)
                cur = (nxt[0], (nxt[1] + 2) % 4)
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
    """
    cycles = _trace_components(pd)
    n = pd.n()
    comp_of_port = {port: k for k, cyc in enumerate(cycles) for port in cyc}
    # even positions of a traced cycle are exits, odd positions are entries
    traced_in = {port: idx % 2 == 1 for cyc in cycles for idx, port in enumerate(cyc)}

    group = list(range(len(cycles)))  # the lowest component of each group
    flipped = [False] * len(cycles)
    for ci in range(n):
        a, b = comp_of_port[(ci, 0)], comp_of_port[(ci, 1)]
        if group[a] == group[b]:
            continue
        # reverse the higher group if the crossing would otherwise be +1
        toggle = (traced_in[(ci, 0)] != flipped[a]) != (
            traced_in[(ci, 1)] != flipped[b]
        )
        keep, merged = sorted((group[a], group[b]))
        for c, g in enumerate(group):
            if g == merged:
                group[c] = keep
                flipped[c] ^= toggle

    incoming = tuple(
        tuple(
            traced_in[(ci, slot)] != flipped[comp_of_port[(ci, slot)]]
            for slot in range(4)
        )
        for ci in range(n)
    )
    signs = tuple(1 if row[0] != row[1] else -1 for row in incoming)
    return Orientation(
        incoming=incoming,
        n_components=len(cycles) + pd.free_loops,
        signs=signs,
        writhe=sum(signs),
    )


# ---------------------------------------------------------------------------
# regions and checkerboard coloring


def regions(pd: PDCode) -> list[tuple[tuple[int, int], ...]]:
    """Complementary regions as cycles of corners.

    Corner (ci, k) sits between slots k and k+1 of crossing ci.  The walk
    keeps the region on the left of the traversal direction; every corner
    belongs to exactly one region.
    """
    if pd.free_loops:
        raise InvalidPDError("region trace undefined with free loops present")
    occ = _occurrences(pd)
    visited: set[tuple[int, int]] = set()
    out: list[tuple[tuple[int, int], ...]] = []
    for ci in range(pd.n()):
        for slot in range(4):
            if (ci, slot) in visited:
                continue
            corners = []
            cur = (ci, slot)  # arriving into cur[0] via slot cur[1]
            while cur not in visited:
                visited.add(cur)
                corners.append(cur)
                out_slot = (cur[1] + 1) % 4
                a = pd.crossings[cur[0]][out_slot]
                pair = occ[a]
                cur = pair[0] if pair[1] == (cur[0], out_slot) else pair[1]
            out.append(tuple(corners))
    return out


@dataclass(frozen=True)
class ShadedRegions:
    """A checkerboard coloring: region corner-cycles plus a color per region."""

    region_corners: tuple[tuple[tuple[int, int], ...], ...]
    colors: tuple[str, ...]  # 'black' / 'white'

    def region_of(self) -> dict[tuple[int, int], int]:
        return {
            corner: ri
            for ri, corners in enumerate(self.region_corners)
            for corner in corners
        }


def checkerboard(pd: PDCode) -> tuple[ShadedRegions, ShadedRegions]:
    """Both proper 2-colorings of the complementary regions."""
    regs = regions(pd)
    region_of: dict[tuple[int, int], int] = {}
    for ri, corners in enumerate(regs):
        for c in corners:
            region_of[c] = ri
    adj: dict[int, set[int]] = {ri: set() for ri in range(len(regs))}
    for ci in range(pd.n()):
        for k in range(4):
            r1 = region_of[(ci, k)]
            r2 = region_of[(ci, (k + 1) % 4)]
            adj[r1].add(r2)
            adj[r2].add(r1)
    color = {0: 0}
    queue = [0]
    while queue:
        r = queue.pop()
        for s in adj[r]:
            if s not in color:
                color[s] = 1 - color[r]
                queue.append(s)
            elif color[s] == color[r]:
                raise InvalidPDError("regions are not checkerboard colorable")
    if len(color) != len(regs):
        raise InvalidPDError("region adjacency is disconnected")
    regs_t = tuple(regs)
    a = ShadedRegions(
        regs_t, tuple("black" if color[r] == 0 else "white" for r in range(len(regs)))
    )
    b = ShadedRegions(
        regs_t, tuple("white" if color[r] == 0 else "black" for r in range(len(regs)))
    )
    return a, b


# ---------------------------------------------------------------------------
# Tait graphs


@dataclass(frozen=True)
class TaitEdge:
    crossing: int
    v1: int  # tait vertex at black corner k0
    v2: int  # tait vertex at black corner k0 + 2
    k0: int  # 0 or 1: first black corner slot index
    sign: int  # +1 if black corners are {1,3}, else -1 (raw convention)
    white1: int  # region index at corner k0 + 1
    white2: int  # region index at corner k0 + 3


@dataclass(frozen=True)
class TaitGraph:
    """Checkerboard graph with a rotation system.

    ``rotation[v]`` lists (edge_index, end) around vertex v in the cyclic
    order induced by the region boundary walk; end 0 refers to the corner
    k0 of the crossing, end 1 to corner k0+2.
    """

    n_vertices: int
    edges: tuple[TaitEdge, ...]
    rotation: tuple[tuple[tuple[int, int], ...], ...]
    black_regions: tuple[int, ...]  # region index per tait vertex
    shading: ShadedRegions

    def endpoints(self, ei: int) -> tuple[int, int]:
        e = self.edges[ei]
        return e.v1, e.v2


def tait_graph(pd: PDCode, shading: ShadedRegions) -> TaitGraph:
    region_of = shading.region_of()
    black = [
        ri for ri, col in enumerate(shading.colors) if col == "black"
    ]
    vertex_of_region = {ri: vi for vi, ri in enumerate(black)}
    edges: list[TaitEdge] = []
    end_of_corner: dict[tuple[int, int], tuple[int, int]] = {}
    for ci in range(pd.n()):
        k0 = 0 if shading.colors[region_of[(ci, 0)]] == "black" else 1
        r1 = region_of[(ci, k0)]
        r2 = region_of[(ci, (k0 + 2) % 4)]
        w1 = region_of[(ci, (k0 + 1) % 4)]
        w2 = region_of[(ci, (k0 + 3) % 4)]
        sign = 1 if k0 == 1 else -1
        ei = len(edges)
        edges.append(
            TaitEdge(ci, vertex_of_region[r1], vertex_of_region[r2], k0, sign, w1, w2)
        )
        end_of_corner[(ci, k0)] = (ei, 0)
        end_of_corner[(ci, (k0 + 2) % 4)] = (ei, 1)
    rotation = []
    for ri in black:
        rotation.append(tuple(end_of_corner[c] for c in shading.region_corners[ri]))
    return TaitGraph(
        n_vertices=len(black),
        edges=tuple(edges),
        rotation=tuple(rotation),
        black_regions=tuple(black),
        shading=shading,
    )


# ---------------------------------------------------------------------------
# diagram builder


class DiagramBuilder:
    """Assemble a PD code from crossings over symbolic endpoints.

    Every symbolic point must be used exactly twice, either as a crossing
    port or in a `connect` junction.  Chains of junctions between ports
    become arcs; junction cycles touching no crossing become free loops.
    """

    def __init__(self) -> None:
        self.crossings: list[tuple[object, object, object, object]] = []
        self.joins: list[tuple[object, object]] = []

    def add_crossing(self, a, b, c, d) -> None:
        """Register a crossing; (a,b,c,d) counterclockwise, under = a,c."""
        self.crossings.append((a, b, c, d))

    def connect(self, p, q) -> None:
        if p == q:
            raise ValueError("cannot join a point to itself")
        self.joins.append((p, q))

    def build(self) -> PDCode:
        uses: dict[object, list[tuple]] = {}
        for ci, cr in enumerate(self.crossings):
            for slot, p in enumerate(cr):
                uses.setdefault(p, []).append(("port", ci, slot))
        for ji, (p, q) in enumerate(self.joins):
            uses.setdefault(p, []).append(("join", ji, 0))
            uses.setdefault(q, []).append(("join", ji, 1))
        for p, u in uses.items():
            if len(u) != 2:
                raise ValueError(f"point {p!r} used {len(u)} times (need 2)")

        # walk from each port through join chains to the opposite port
        arc_of_port: dict[tuple[int, int], int] = {}
        consumed: set[object] = set()
        arc_count = 0
        for ci, cr in enumerate(self.crossings):
            for slot, p in enumerate(cr):
                if (ci, slot) in arc_of_port:
                    continue
                arc_id = arc_count
                arc_count += 1
                arc_of_port[(ci, slot)] = arc_id
                prev_use = ("port", ci, slot)
                point = p
                while True:
                    consumed.add(point)
                    u1, u2 = uses[point]
                    use = u2 if u1 == prev_use else u1
                    if use[0] == "port":
                        arc_of_port[(use[1], use[2])] = arc_id
                        break
                    ji, side = use[1], use[2]
                    point = self.joins[ji][1 - side]
                    prev_use = ("join", ji, 1 - side)

        free_loops = 0
        for p in uses:
            if p in consumed:
                continue
            # pure join cycle
            loop_points = []
            point = p
            prev_use = None
            while point not in loop_points:
                loop_points.append(point)
                u1, u2 = uses[point]
                use = u2 if u1 == prev_use else u1
                ji, side = use[1], use[2]
                prev_use = ("join", ji, 1 - side)
                point = self.joins[ji][1 - side]
            consumed.update(loop_points)
            free_loops += 1

        raw = PDCode(
            tuple(
                tuple(arc_of_port[(ci, slot)] for slot in range(4))
                for ci in range(len(self.crossings))
            ),
            free_loops,
        )
        return _renumber_along_orientation(raw)


def _renumber_along_orientation(pd: PDCode) -> PDCode:
    """Relabel arcs 1..2n along each oriented component, then rotate each
    crossing tuple so slot 0 is the incoming under-strand end."""
    if pd.n() == 0:
        return pd
    ori = orient(pd)
    occ = _occurrences(pd)
    new_id: dict[int, int] = {}
    next_id = 1
    seen_ports: set[tuple[int, int]] = set()
    for ci in range(pd.n()):
        for slot in range(4):
            start = (ci, slot)
            if start in seen_ports or ori.incoming[ci][slot]:
                continue
            cur = start
            while True:
                seen_ports.add(cur)
                a = pd.crossings[cur[0]][cur[1]]
                if a not in new_id:
                    new_id[a] = next_id
                    next_id += 1
                pair = occ[a]
                entry = pair[0] if pair[1] == cur else pair[1]
                seen_ports.add(entry)
                cur = (entry[0], (entry[1] + 2) % 4)
                if cur == start:
                    break
    crossings = []
    for ci, cr in enumerate(pd.crossings):
        rot = 0 if ori.incoming[ci][0] else 2
        crossings.append(
            tuple(new_id[cr[(rot + j) % 4]] for j in range(4))
        )
    out = PDCode(tuple(crossings), pd.free_loops)
    validate_pd(out)
    return out


# ---------------------------------------------------------------------------
# twist ladders and templates

# Handedness of a positive twist label, per tree.  Frozen by calibration
# against the closed-form bracket (see tests/test_calibration.py); the
# outside value differs because the outer disk is assembled mirrored.
INSIDE_HANDEDNESS = 1
OUTSIDE_HANDEDNESS = -1
GIRTH1_HANDEDNESS = 1

_counter = itertools.count()


def _pt(label: str) -> tuple:
    return (label, next(_counter))


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
    prev_l, prev_r = top_left, top_right
    for k in range(n):
        nw, ne, sw, se = (_pt("nw"), _pt("ne"), _pt("sw"), _pt("se"))
        b.connect(prev_l, nw)
        b.connect(prev_r, ne)
        tup = (ne, nw, sw, se) if h == 1 else (nw, sw, se, ne)
        if reflected:
            tup = (tup[0], tup[3], tup[2], tup[1])
        b.add_crossing(*tup)
        prev_l, prev_r = sw, se
    b.connect(prev_l, bot_left)
    b.connect(prev_r, bot_right)


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
    y = [_pt(f"y{i}") for i in range(g)]
    z = [_pt(f"z{i}") for i in range(g)]
    in_cw = [_pt(f"icw{i}") for i in range(g)]
    in_ccw = [_pt(f"iccw{i}") for i in range(g)]
    out_y = [_pt(f"oy{i}") for i in range(g)]
    out_z = [_pt(f"oz{i}") for i in range(g)]
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
    tl, tr, bl, br = _pt("tl"), _pt("tr"), _pt("bl"), _pt("br")
    _ladder(b, p, tl, tr, bl, br, GIRTH1_HANDEDNESS)
    b.connect(tl, bl)
    b.connect(tr, br)
    return b.build()


def pretzel_pd(e1: int, e2: int, e3: int) -> PDCode:
    """Reference (e1,e2,e3) pretzel: three vertical twist regions closed up.

    Used only as an independent anchor for template calibration; the
    handedness convention here follows the inside-tree convention.
    """
    b = DiagramBuilder()
    tops = [(_pt(f"t{i}l"), _pt(f"t{i}r")) for i in range(3)]
    bots = [(_pt(f"b{i}l"), _pt(f"b{i}r")) for i in range(3)]
    for i, e in enumerate((e1, e2, e3)):
        _ladder(b, e, tops[i][0], tops[i][1], bots[i][0], bots[i][1], INSIDE_HANDEDNESS)
    for i in range(3):
        b.connect(tops[i][1], tops[(i + 1) % 3][0])
        b.connect(bots[i][1], bots[(i + 1) % 3][0])
    return b.build()


def braid_closure_pd(word: list[int], strands: int) -> PDCode:
    """Trace closure of a braid word; letter +-i crosses strands i, i+1."""
    b = DiagramBuilder()
    start = [_pt(f"s{i}") for i in range(strands)]
    cur = list(start)
    for letter in word:
        i = abs(letter) - 1
        if not 0 <= i < strands - 1:
            raise ValueError(f"letter {letter} out of range for {strands} strands")
        nw, ne, sw, se = _pt("nw"), _pt("ne"), _pt("sw"), _pt("se")
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


def pd_from_rep(rep) -> PDCode:
    """PD code of the template diagram of a representation."""
    if isinstance(rep, Girth1Rep):
        return torus2_pd(rep.p)
    if isinstance(rep, Girth2Rep):
        return star_pair_pd([rep.p, 0], [rep.q, 0])
    if isinstance(rep, Girth3Rep):
        return star_pair_pd(list(rep.top), list(rep.bottom))
    raise TypeError(f"cannot build a diagram from {rep!r}")

