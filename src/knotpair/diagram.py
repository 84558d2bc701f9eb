"""Planar diagram codes, diagram templates, and checkerboard structure.

PD convention used throughout: each crossing is a 4-tuple of arc ids listed
counterclockwise; slots 0 and 2 carry the under-strand, slots 1 and 3 the
over-strand.  A template is written straight from its labels: a fixed wheel
of six twist ladders, whose arc ends are known from the labels alone (see
``_write_template``).  Every girth <= 3 rep is written as its girth-3
labelling (``reps.g3_labels``), save K(0), which is two free loops.  Its
arcs are numbered along its components, and each crossing is turned so
that slot 0 is an under-strand end: the outgoing one in the orientation
``orient`` gives the template.

The join of two path ends (``join_ends``) and the "most open ends first"
order (``sweep_order``) are shared by the two frontier sweeps: the state
sum over the crossings (``oracle``) and the girth search over the Tait
graph's edges (``girth``).  Neither is oracle code nor closed-form code.

Twist-region handedness constants at the bottom of this module were frozen
by the calibration suite (tests/test_calibration.py): they are the unique
choice under which the closed-form bracket of the double twist family
agrees with the state-sum oracle on the grid |p|,|q| <= 3.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
import sys
from collections import Counter
from collections.abc import Iterable

from .record import Record, set_field
from .reps import g3_labels, rep_labels


class PDCode(Record):
    """Crossing list plus a count of crossing-free circles.

    Two trailing slots carry what was derived from the code once, so that
    no later step derives it again.  A template (``pd_from_rep``) keeps
    ``orient`` of itself in ``orientation``, which ``orient`` hands back
    without tracing the strands again; in the package only the template
    writers set it.  ``validate_pd`` keeps the corner cycles it walked in
    ``corner_cycles``, which ``regions`` hands back.
    Equality, hashing and repr ignore both slots.  A code that was not
    validated, a template among them, has None in ``corner_cycles``, and
    ``regions`` walks its cycles when asked; a code read from outside
    carries no orientation.
    """

    __slots__ = ("crossings", "free_loops", "orientation", "corner_cycles")

    def __init__(
        self, crossings: tuple[tuple[int, int, int, int], ...], free_loops: int = 0
    ) -> None:
        set_field(self, "crossings", crossings)
        set_field(self, "free_loops", free_loops)
        set_field(self, "orientation", None)
        set_field(self, "corner_cycles", None)

    def _key(self) -> tuple:
        return (self.crossings, self.free_loops)

    def n(self) -> int:
        return len(self.crossings)


class InvalidPDError(ValueError):
    pass


def validate_pd(pd: PDCode) -> None:
    """Structural sanity: every arc twice, one piece, and planarity via
    Euler count.

    A connected planar diagram of n crossings has n + 2 regions.  The
    corner cycles of the walk are kept on ``pd`` (see ``PDCode``).  A
    diagram in k >= 2 pieces has n_i + 2 - 2 g_i regions per piece of
    genus g_i.  With every piece planar that fails the count, and the
    refusal names the pieces too; but pieces with sum g_i = k - 1 give
    n + 2 regions, so the pieces are counted whatever the count, and a
    split code is refused as split.
    """
    crossings = pd.crossings
    if set(map(len, crossings)) - {4} or set(Counter(itertools.chain(*crossings)).values()) - {2}:
        # a refusal: find what to name, crossing by crossing
        counts: dict[int, int] = {}
        for cr in crossings:
            if len(cr) != 4:
                raise InvalidPDError(f"crossing {cr!r} is not a 4-tuple")
            for a in cr:
                counts[a] = counts.get(a, 0) + 1
        bad = {a: k for a, k in counts.items() if k != 2}
        raise InvalidPDError(f"arcs not appearing exactly twice: {bad}")
    n = pd.n()
    if n:
        other = _other_end(itertools.chain(*crossings))
        cycles = _corner_cycles(other)
        f = len(cycles)
        pieces = _pieces(other)
        if f != n + 2 or pieces > 1:
            reason = (
                f"the diagram is split into {pieces} pieces"
                if pieces > 1
                else "the code does not describe a planar diagram"
            )
            if f != n + 2:
                reason = f"region count {f} violates Euler formula (expected {n + 2}); {reason}"
            raise InvalidPDError(reason)
        set_field(pd, "corner_cycles", cycles)


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
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:
            # an integer too long for int(): read again, keeping such
            # integers as text, to say where it sits
            obj = json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise InvalidPDError("PD JSON nests too deeply") from None
    if not isinstance(obj, dict):
        raise InvalidPDError("PD JSON must be an object with a 'crossings' list")
    crossings = obj.get("crossings")
    if not isinstance(crossings, list):
        raise InvalidPDError(f"'crossings' must be a list, got {crossings!r}")
    # type() rather than isinstance(): JSON true/false are not arc ids
    if not (set(map(type, crossings)) <= {list} and set(map(len, crossings)) <= {4}
            and set(map(type, itertools.chain(*crossings))) <= {int}):
        # a refusal: find what to name, crossing by crossing
        for i, c in enumerate(crossings):
            if isinstance(c, list) and any(type(a) is _LongInt for a in c):
                raise InvalidPDError(
                    f"crossings[{i}] has an arc id of more than "
                    f"{sys.get_int_max_str_digits()} digits"
                )
            if not (isinstance(c, list) and len(c) == 4 and all(type(a) is int for a in c)):
                raise InvalidPDError(f"crossing {c!r} is not a list of 4 integers")
    free_loops = obj.get("free_loops", 0)
    if type(free_loops) is not int or free_loops < 0:
        raise InvalidPDError(
            f"'free_loops' must be a non-negative integer, got {free_loops!r}"
        )
    pd = PDCode(tuple(map(tuple, crossings)), free_loops)
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

    ``under_in[ci]`` says whether the under-strand enters crossing ci at
    slot 0 (else at slot 2), and ``signs[ci]`` is the crossing sign, +1
    exactly when the over-strand enters at the slot before the
    under-strand's entry.  The two fix which way every slot runs.
    Components without crossings are counted in the PD's ``free_loops``.
    """

    __slots__ = ("under_in", "n_components", "signs", "writhe")


def _orientation(incoming: list[bool], n_components: int) -> Orientation:
    """The Orientation of a diagram from its per-port ``incoming`` flags."""
    under_in = incoming[0::4]
    signs = tuple(1 if u != o else -1 for u, o in zip(under_in, incoming[1::4]))
    return Orientation(tuple(under_in), n_components, signs, sum(signs))


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

    A template from ``pd_from_rep`` carries this orientation already
    (see ``PDCode``), and it is handed back as it is.
    """
    if pd.orientation is not None:
        return pd.orientation
    incoming, traced = _orient_ports(_other_end(itertools.chain(*pd.crossings)))
    return _orientation(incoming, traced + pd.free_loops)


def _orient_ports(other: list[int]) -> tuple[list[bool], int]:
    """``orient``'s ``incoming`` flag per port, and the number of strand
    cycles, from the arc ends of a diagram.

    Each strand cycle is traced from its lowest port, taken as an exit,
    so the far end of each arc it crosses is an entry; the cycles are
    numbered in the order of their lowest ports.
    """
    n_ports = len(other)
    comp = [-1] * n_ports
    traced_in = [False] * n_ports
    k = 0
    left = n_ports  # ports not yet traced
    for start in range(n_ports):
        if comp[start] >= 0:
            continue
        cur = start
        while True:
            nxt = other[cur]
            comp[cur] = comp[nxt] = k
            traced_in[nxt] = True
            left -= 2
            cur = nxt ^ 2
            if cur == start:
                break
        k += 1
        if not left:
            break
    if k < 2:
        return traced_in, k

    group = list(range(k))  # the lowest component of each group
    flipped = [False] * k
    for under in range(0, n_ports, 4):
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

    incoming = [traced_in[p] != flipped[comp[p]] for p in range(n_ports)]
    return incoming, k


# ---------------------------------------------------------------------------
# regions, checkerboard coloring and Tait graphs
#
# A corner is numbered 4 * crossing + k and sits between slots k and k+1.


def regions(pd: PDCode) -> list[list[int]]:
    """Complementary regions as cycles of corners.

    The walk keeps the region on the left of the traversal direction;
    every corner belongs to exactly one region.  Free loops are ignored.
    A validated code hands back the cycles ``validate_pd`` walked.
    """
    if pd.corner_cycles is not None:
        return pd.corner_cycles
    return _corner_cycles(_other_end(itertools.chain(*pd.crossings)))


def _corner_cycles(other: list[int]) -> list[list[int]]:
    """The walk of ``regions``, from the arc ends of a diagram."""
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


def _pieces(other: list[int]) -> int:
    """The number of pieces of a diagram, from its arc ends: the classes of
    crossings that arcs join."""
    seen = [False] * (len(other) // 4)
    count = 0
    for start in range(len(seen)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            c = stack.pop()
            for port in range(4 * c, 4 * c + 4):
                d = other[port] >> 2
                if not seen[d]:
                    seen[d] = True
                    stack.append(d)
    return count


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
    """One entry of ``TaitGraph.edges``: the Tait edge of one crossing,
    whose index it shares.  It joins the vertex at the crossing's black
    corner k0 (end 0) to the one at k0 + 2 (end 1)."""

    __slots__ = ("v1", "v2")


class TaitGraph(Record):
    """Checkerboard graph as a rotation system on half-edges.

    The half-edge at black corner c is h = c >> 1 = 2 * crossing + end:
    a crossing's black corners are k0 and k0 + 2, so they are its edge's
    ends 0 and 1, and h ^ 1 is the twin of h.  The fields are tuples of
    ints: ``vertex[h]`` is the vertex at h, ``succ[h]`` the next half-edge
    counterclockwise around it, in the cyclic order of its region's
    corners, and ``k0[crossing]`` the first black corner.

    ``edges``, a ``TaitEdge`` per crossing, is a read-only view, built
    anew on each access.
    """

    __slots__ = ("n_vertices", "vertex", "succ", "k0")

    @property
    def edges(self) -> tuple[TaitEdge, ...]:
        return tuple(map(TaitEdge, self.vertex[0::2], self.vertex[1::2]))


def tait_graph(pd: PDCode, black: list[list[int]]) -> TaitGraph:
    """The Tait graph of one shading from ``checkerboard``: a vertex per
    black region, an edge per crossing, with no record per edge."""
    vertex = [0] * (2 * pd.n())
    succ = vertex[:]
    for v, corners in enumerate(black):
        h = corners[-1] >> 1
        for c in corners:
            succ[h] = h = c >> 1  # the last half-edge's successor, then h itself
            vertex[h] = v
    # the two black corners of crossing x, sorted, are 4x + k0 and 4x + k0 + 2
    k0 = map((1).__and__, sorted(itertools.chain.from_iterable(black))[::2])
    return TaitGraph(len(black), tuple(vertex), tuple(succ), tuple(k0))


# ---------------------------------------------------------------------------
# frontier sweeps (module docstring)


def join_ends(partner: dict[int, int], x: int, y: int) -> int:
    """Join the path ends x and y; return the loops this closes.

    ``partner`` maps each open end to the open end at the other end of its
    path.  An end not met yet is its own path: it stands for itself.
    Joining x to y retires them and pairs their far ends, or, when y is x's
    far end, closes the path into a loop.
    """
    ex = partner.pop(x, x)
    if ex == y:  # the path closes (or a kink arc meets itself)
        partner.pop(y, None)
        return 1
    ey = partner.pop(y, y)
    partner[ex], partner[ey] = ey, ex
    return 0


def sweep_order(neighbours: list[list[int]]) -> tuple[list[int], int]:
    """The items in sweep order, and the connected parts they form.

    ``neighbours[i]`` lists the item at the far end of each of item i's
    ends that leads to another item.  The next item is the one with the
    most open ends, those whose far item is swept, ties going to the lowest
    index.  Taking the items that close the most ends first keeps the open
    ends, and so the frontier, few.  One list holds each item's open-end
    count, a swept item marked -1, and ``count.index(max(count))`` picks
    the next.  An item taken at count 0 shares no end with those before
    it, so it opens a new part.

    The scan is quadratic, but each step is two C-level passes over the
    list.  In-process on 2 vCPUs it beats a heap of (-count, index) up to
    about 60 crossings; at 298 it takes 1.6 ms of a 28 ms state sum.
    """
    count = [0] * len(neighbours)
    order = []
    parts = 0
    for _ in neighbours:
        best = max(count)
        i = count.index(best)
        parts += best == 0
        count[i] = -1
        order.append(i)
        for j in neighbours[i]:
            if count[j] >= 0:
                count[j] += 1
    return order, parts


# ---------------------------------------------------------------------------
# twist ladders and templates

# Handedness of a positive twist label, per tree.  Frozen by calibration
# against the closed-form bracket (see tests/test_calibration.py); the
# outside value differs because the outer disk is assembled mirrored.
# A K(p) is written as its girth-3 labelling (``reps.g3_labels``), so no
# template reads the last constant, the handedness of one ladder closed
# on itself: it stays frozen for the tests' reference K(p), which the
# calibration ties to the written one.
INSIDE_HANDEDNESS = 1
OUTSIDE_HANDEDNESS = -1
GIRTH1_HANDEDNESS = 1


def _ladder_crossing(h: int, reflected: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The slots of a ladder crossing's nw, ne, sw and se ends, and its
    steps, ``other[p] - p`` at each slot of a crossing inside the ladder.

    h = +1 puts the NE-SW strand under, listing the ends (ne, nw, sw, se);
    h = -1 lists (nw, sw, se, ne).  A reflected crossing lists them in the
    reverse cyclic order.  Inside a ladder, a crossing's nw and ne ends
    meet the sw and se ends of the crossing before it, and its sw and se
    ends the nw and ne ends of the crossing after it.
    """
    order = ("ne", "nw", "sw", "se") if h == 1 else ("nw", "sw", "se", "ne")
    if reflected:
        order = (order[0], order[3], order[2], order[1])
    nw, ne, sw, se = (order.index(end) for end in ("nw", "ne", "sw", "se"))
    step = [0] * 4
    step[nw], step[ne] = sw - nw - 4, se - ne - 4
    step[sw], step[se] = nw - sw + 4, ne - se + 4
    return (nw, ne, sw, se), tuple(step)


def _wheel_ends() -> list[tuple[int, int, int, int]]:
    """The ends of each ladder of a template, in crossing order: inner
    ladder 0, outer ladder 0, inner ladder 1, and so on, around the wheel
    of three sectors that reads p a q b r c.

    A ladder's ends are the uses of wheel points at its top left, top
    right, bottom left and bottom right.  Wheel point w has the two uses
    2w and 2w + 1, and each use is the end of one ladder.  The wheel has
    the points y[i] = i, z[i] = 3 + i, and the inner and outer joints
    between ladders i and i + 1, 6 + i and 9 + i.  Inner ladder i runs
    from z[i-1], y[i] to the inner joints i - 1 and i; outer ladder i from
    y[i], z[i] to the outer joints i - 1 and i.
    """
    ends = []
    for i in range(3):
        h = (i - 1) % 3
        ends.append((2 * (3 + h) + 1, 2 * i, 2 * (6 + h) + 1, 12 + 2 * i))
        ends.append((2 * i + 1, 2 * (3 + i), 2 * (9 + h) + 1, 18 + 2 * i))
    return ends


@functools.cache
def _ladders(inside: int, outside: int) -> tuple[tuple, ...]:
    """Per ladder of ``_wheel_ends``: its ends, and its crossing (see
    ``_ladder_crossing``) for a positive label and for a negative one,
    which flips the handedness.  The outer ladders are reflected.  The
    arguments are the handedness constants, which each build reads
    afresh, so that a change to one, as the calibration tests make, takes
    effect at once.
    """
    kinds = [(inside, False), (outside, True)] * 3
    return tuple(
        (ends, _ladder_crossing(h, reflected), _ladder_crossing(-h, reflected))
        for ends, (h, reflected) in zip(_wheel_ends(), kinds)
    )


@functools.cache
def _wheel_arcs(zeros: tuple[bool, ...]) -> tuple[tuple[tuple[int, int], ...], int]:
    """The arcs between the ladders of ``_wheel_ends``, as pairs of
    uses, and the number of free loops, when the labels are zero where
    ``zeros`` says.

    A zero label passes its strands straight through, left to left and
    right to right.  An arc runs from a use at a crossing to the other use
    of its wheel point, and on through each zero label until it meets a
    crossing.  A cycle of uses that meets no crossing is a free loop.
    """
    through = {}
    for (tl, tr, bl, br), zero in zip(_wheel_ends(), zeros):
        if zero:
            through.update({tl: bl, bl: tl, tr: br, br: tr})
    arcs = []
    for u in range(4 * len(zeros)):
        if u not in through:
            v = u ^ 1
            while v in through:
                v = through[v] ^ 1
            if u < v:
                arcs.append((u, v))
    free_loops = 0
    seen = set()
    for u in through:
        if u in seen:
            continue
        v = u
        while True:
            seen.update((v, through[v]))
            v = through[v] ^ 1
            if v == u or v not in through:
                break
        free_loops += v == u
    return tuple(arcs), free_loops


def _write_template(labels: tuple[int, ...]) -> PDCode:
    """The PD code of the template whose wheel reads these labels, p a q
    b r c (see ``_wheel_ends``), carrying ``orient`` of itself (see
    ``PDCode``).

    Ladder i is a vertical chain of |labels[i]| crossings between two
    strands, each crossing swapping the sides (see ``_ladder_crossing``),
    and the ladders' crossings follow one another in order.  The arcs
    between ladders and the free loops come from ``_wheel_arcs``.

    The arcs are numbered 1..2n along each component, in the orientation
    ``orient`` gives the glued diagram, and each crossing is turned so
    that slot 0 is its incoming under-strand end.  ``orient`` of the
    result is that orientation reversed, so the result carries it without
    tracing the strands again.  ``orient`` keeps its first traced
    component as traced, from port 0 of crossing 0, which is thus an exit
    of the glued diagram.  Crossing 0 is turned, so its slot 0 in the
    result is the under-strand's other end, an entry, and ``orient`` of
    the result reverses that component.  A template is connected, so
    crossings tie the direction of every component to it, and every
    component is reversed.  Reversal keeps every sign.
    """
    ladders = _ladders(INSIDE_HANDEDNESS, OUTSIDE_HANDEDNESS)
    arcs, free_loops = _wheel_arcs(tuple(map(operator.not_, labels)))
    port = [0] * (4 * len(ladders))  # the port at each use of a wheel point
    steps = []
    first = 0
    for label, ((tl, tr, bl, br), positive, negative) in zip(labels, ladders):
        if label:
            (nw, ne, sw, se), step = positive if label > 0 else negative
            k = label if label > 0 else -label
            steps += step * k
            last = first + 4 * k - 4
            port[tl], port[tr], port[bl], port[br] = first + nw, first + ne, last + sw, last + se
            first = last + 4
    # the ends of each ladder step past it as if it had neighbours on both
    # sides; the arcs between ladders set them right
    other = list(map(operator.add, range(first), steps))
    for u, v in arcs:
        p, q = port[u], port[v]
        other[p] = q
        other[q] = p

    incoming, traced = _orient_ports(other)
    label = [0] * first
    next_id = 1
    for start in range(first):
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
        if 2 * next_id > first:  # every arc is numbered
            break
    # a crossing whose slot 0 is an exit is turned by half: each crossing
    # picks its turned or its kept tuple by ``incoming`` at slot 0.  Its
    # over-strand then enters at slot 1 exactly when slots 0 and 1 of the
    # glued diagram are both entries or both exits; the sign is then -1
    under_in, l0, l1, l2, l3 = incoming[0::4], label[0::4], label[1::4], label[2::4], label[3::4]
    pd = PDCode(
        tuple(map(tuple.__getitem__, zip(zip(l2, l3, l0, l1), zip(l0, l1, l2, l3)), under_in)),
        free_loops,
    )
    over_in = list(map(operator.eq, under_in, incoming[1::4]))
    signs = tuple(map((1, -1).__getitem__, over_in))
    # set after construction, by the writer alone (see ``PDCode``); slot 0
    # of every written crossing is an exit of the orientation it carries
    ori = Orientation((False,) * len(signs), traced + free_loops, signs, sum(signs))
    set_field(pd, "orientation", ori)
    return pd


def pd_from_rep(rep) -> PDCode:
    """PD code of the template diagram of a girth <= 3 representation: the
    template of its ``reps.g3_labels``, save K(0), two free loops.  Each
    carries ``orient`` of itself (see ``PDCode``)."""
    labels = rep_labels(rep)
    if labels == (0,):
        pd = PDCode((), 2)
        set_field(pd, "orientation", _orientation([], 2))
        return pd
    p, q, r, a, b, c = g3_labels(labels)
    return _write_template((p, a, q, b, r, c))
