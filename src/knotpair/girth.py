"""Heegaard decompositions of a knot diagram over spanning trees.

Given a checkerboard shading and a spanning tree T of the Tait graph, the
diagram splits into a neighborhood of T and its complement, which carries
the complementary spanning tree T' of the dual graph.  Walking the ribbon
boundary of T groups the non-tree edge ends ("dashed lines") into sectors
between consecutive tree-edge ends; the girth of the decomposition is the
number of nonempty sectors, counted identically from either side.  The
walk also yields the interleaving of the two trees' dash classes around
the boundary circle, which is what lets a girth-3 decomposition be read
back as a label wheel (p a q b r c).

A Tait graph is read here as flat ints (see ``diagram.TaitGraph``): the
half-edge h = corner >> 1 = 2 * crossing + end, its twin h ^ 1, and
``succ[h]``, the next half-edge counterclockwise around its vertex.  The
walk arrives by a tree half-edge h, steps along ``succ`` to the next tree
half-edge x, leaves by x and arrives by x ^ 1.

The girth search walks no contour.  A sector is nonempty exactly when the
rotation turns from a tree half-edge h straight to a non-tree succ[h]: the
girth of a tree is its number of such turns, one per run of non-tree
half-edges at a vertex.  The graphs searched are loopless (a loop is a
nugatory crossing, refused beforehand), so every non-tree edge has its
two ends in runs at two vertices, and the non-tree edges of a girth-g
tree all join the at most g vertices that hold its runs.  That leaves few
candidates: the least tree of girth 2 or 3, the girths of the paper's
tables, is read off them directly (``spanning_trees`` gives the proof).
Otherwise the least girth is 4 or more, and one frontier sweep over the
graph's corners finds it (``_sweep`` gives the argument).  A spanning tree
is an edge set whose ribbon has one boundary circle, the tree's contour,
and a turn is a corner of that circle, so the least girth is a min-plus
form of the oracle's Kauffman state sum, over the one-circle states
(Bar-Natan, arXiv:math/0606318).  The sweep keeps, per pairing of the
open corners and tree bits at their decided ends, the fewest turns and
the least tree, so it ends at the least tree of least girth: the witness
a full enumeration would pick.  On graphs of bounded width, such as braid
closures, it takes time linear in the edges (the sphere-cut technique of
Dorn, Penninkx, Bodlaender and Fomin, ESA 2005).  Only the witness is
walked: ``decompose`` builds it on the two Tait graphs the search used,
and its walked girth must equal the searched one.
"""

from __future__ import annotations

import itertools
import operator

from .diagram import PDCode, TaitGraph, checkerboard, join_ends, sweep_order, tait_graph
from .oracle import _bareiss_det
from .record import Record
from .reps import Girth2Rep, Girth3Rep, PlaneTree, TreePairRep

# Sign giving twist-region labels from raw Tait signs; the white side is
# automatically opposite on alternating pieces.  Frozen by the round-trip
# calibration (template -> decompose -> same representation).
LABEL_SIGN_BLACK = -1
LABEL_SIGN_WHITE = -1

# Which white corner a contour traversal faces: (corner_from + FLANK) % 4.
# FLANK together with the label signs is frozen by the round-trip and
# block-alignment calibration (exact Jones round trips, wheel recovery).
FLANK = 3

TREE_BUDGET_CROSSINGS = 16


class BudgetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spanning trees


def spanning_trees(tait: TaitGraph, budget: int = TREE_BUDGET_CROSSINGS):
    """Yield the least girth of a loopless graph of at least 2 vertices,
    and the least tree attaining it, as one (girth, tree) pair: every graph
    ``_tait_graphs`` hands on is one.

    Trees are sorted tuples of edge indices.  The girth is the number of
    turns (h, succ[h]) from a tree half-edge to a non-tree one, of two edges
    a = h >> 1 and b = succ[h] >> 1; it equals the number of sectors
    ``tree_contour`` walks (see the module docstring).

    The one dispatch rule: when the least girth is 2 or 3, the least tree is
    read by construction (``_least_low_girth``); otherwise a graph of more
    than ``budget`` edges (crossings) is refused with ``BudgetError``, and
    the frontier sweep (``_sweep``) finds the least tree.

    **The construction.**  Proof that it finds every tree of girth g <= 3,
    for a tree T of E edges on V vertices, with beta = E - V + 1 edges out
    of it: the girth counts the runs of non-tree half-edges in the
    rotations, one turn into each, since every vertex has a tree half-edge.
    A non-tree edge has its ends in runs at two vertices, so all beta
    non-tree edges lie in E_S, the edges joining the set S of vertices that
    hold runs, and 2 <= |S| <= g once beta > 0 (beta = 0 leaves only the
    girth-0 tree E).  The tree edges in E_S are a forest on S, at most
    |S| - 1 of them, so T is E minus E_S plus |E_S| - beta edges of E_S,
    and 0 <= |E_S| - beta <= |S| - 1.  The construction tries those
    candidates for every pair S (for girth 2, then 3) and every triple (for
    girth 3), keeps each one that spans and counts exactly the girth, and
    takes the least tree; as no tree has girth 1, girth 2 is least whenever
    a girth-2 tree exists.

    **The sweep.**  When no candidate counts girth 2 or 3, the least girth
    is 4 or more.  The sweep decides every edge in and out, keeping per
    frontier key the fewest turns and the least tree, and ends with the
    least tree of least girth (its docstring gives the argument).
    """
    least = _least_low_girth(tait)
    if least is not None:
        yield least
        return
    if len(tait.k0) > budget:
        raise BudgetError(
            f"{len(tait.k0)} crossings exceeds the spanning-tree budget of {budget}"
        )
    yield _sweep(tait)


def _least_low_girth(tait: TaitGraph):
    """The least (girth, tree) of a loopless graph whose least girth is 2
    or 3, read off the candidates of ``spanning_trees``; None when the
    least girth is another."""
    n, vertex, succ = tait.n_vertices, tait.vertex, tait.succ
    m = len(tait.k0)
    beta = m - n + 1
    ends = list(zip(range(m), vertex[::2], vertex[1::2]))
    between: list[dict[int, list[int]]] = [{} for _ in range(n)]  # u -> v -> the u-v edges
    for e, u, v in ends:
        between[v][u] = between[u].setdefault(v, [])
        between[u][v].append(e)
    least: dict[int, tuple[int, ...]] = {}  # per girth 2 and 3: the least tree found

    def candidates(inside: list[int]) -> None:
        # E minus ``inside`` plus each choice of |inside| - beta of its edges
        for kept in itertools.combinations(inside, len(inside) - beta):
            out = set(inside).difference(kept)
            # a run ends at its one non-tree half-edge whose successor is
            # a tree half-edge
            girth = 0
            for e in out:
                girth += (succ[2 * e] >> 1 not in out) + (succ[2 * e + 1] >> 1 not in out)
            if girth not in (2, 3):
                continue
            tree = tuple(itertools.filterfalse(out.__contains__, range(m)))
            if (girth not in least or tree < least[girth]) and _can_join(
                n, list(range(n)), [ends[e] for e in tree], 0
            ):
                least[girth] = tree

    for u, near in enumerate(between):
        for v, inside in near.items():
            if u < v and 0 <= len(inside) - beta <= 1:
                candidates(inside)
    if 2 in least:
        return 2, least[2]
    # a tree with runs at all three vertices of a triple has non-tree edges
    # on two of its pairs at least: a path a - v - b, met once at v, or a
    # triangle, met at its least vertex
    for v, near in enumerate(between):
        for a, b in itertools.combinations(near, 2):
            far = between[a].get(b)
            if far is None or v < min(a, b):
                inside = near[a] + near[b] + (far or [])
                if 0 <= len(inside) - beta <= 2:
                    candidates(inside)
    return (3, least[3]) if 3 in least else None


def _sweep(tait: TaitGraph) -> tuple[int, tuple[int, ...]]:
    """The least girth of a loopless graph of at least 2 vertices and the
    least tree attaining it, by one frontier sweep over the graph's corners.

    **Corners.**  Corner c runs around its vertex from half-edge c to
    succ[c], that is, from edge c >> 1 to edge succ[c] >> 1; pred inverts
    succ.  An edge set S draws the boundary of a ribbon: the vertices as
    disks, the edges of S as bands.  At an edge e out of S the boundary
    goes on around the vertex, joining corner pred[2e] to corner 2e and
    pred[2e + 1] to 2e + 1; at an edge e in S it crosses the band, joining
    pred[2e] to 2e + 1 and pred[2e + 1] to 2e, the step ``tree_contour``
    walks.  On a plane graph the boundary circles number the faces of
    (V, S) plus its parts minus 1 (Euler's formula, each part a sphere
    with holes), so they are one exactly when (V, S) has one face and one
    part: when S is a spanning tree.

    **The sweep.**  The edges are decided one at a time, each in and out,
    and the corners are joined by ``diagram.join_ends``, as the state sum
    joins arcs.  A corner with one end at a decided edge is open.  Every
    partial tree of one step has decided the same edges, so it has the
    same open corners; its frontier key is their pairing (each open
    corner's partner at the other end of its boundary path) and its tree
    bits at their decided ends.  A join that closes a circle before the last join
    makes two circles at least, and drops the partial tree.

    **The girth as a corner sum.**  The girth of a tree counts its turns
    (h, succ[h]) from a tree half-edge to a non-tree one: a corner counts
    when its start edge is in and its end edge is out.  That term is
    settled when the corner's second end is decided, from the bit of its
    first end, which the key holds.  So two partial trees of one key have
    the same completions, each adding the same turns to both, and only the
    one of fewer turns can be part of a least tree.  Of two with equal
    turns, the one that holds the lowest edge where the two differ gives
    the lexicographically less tree with every completion, since the
    completions add the same edges to both.  Keeping the lesser per key
    leaves, after the last edge, the lexicographically least tree of least
    girth.

    **Order.**  ``diagram.sweep_order``, the state sum's order, on
    corners: the next edge has the most open corners, ties going to the
    lowest index.  On bounded-width graphs such as braid closures the
    frontier stays bounded, and the sweep takes time linear in the edges.
    """
    succ = tait.succ
    m = len(tait.k0)
    pred = [0] * (2 * m)
    neighbours: list[list[int]] = [[] for _ in range(m)]  # per edge: its corners' far edges
    for h, s in enumerate(succ):
        pred[s] = h
        neighbours[h >> 1].append(s >> 1)
        neighbours[s >> 1].append(h >> 1)
    order, _ = sweep_order(neighbours)
    decided = 0
    # key -> (partner map, turns, tree as a bitmask over the decided edges)
    frontier: dict[tuple[int, ...], tuple[dict[int, int], int, int]] = {(): ({}, 0, 0)}
    for step, e in enumerate(order):
        decided |= 1 << e
        bit, x, y = 1 << e, 2 * e, 2 * e + 1
        px, py = pred[x], pred[y]
        # the corners e settles: into e from a decided edge, a turn when
        # that one is in and e out; out of e to a decided edge, a turn when
        # e is in and that one out
        into = [k >> 1 for k in (px, py) if decided >> (k >> 1) & 1]
        onto = [succ[k] >> 1 for k in (x, y) if decided >> (succ[k] >> 1) & 1]
        last = step == m - 1
        nxt: dict[tuple[int, ...], tuple[dict[int, int], int, int]] = {}
        arcs = None
        for known, turns, tree in frontier.values():
            for t, a, b, c, d in ((tree | bit, px, y, py, x), (tree, px, x, py, y)):
                partner = known.copy()
                # a spanning tree closes its one circle at the last join
                if join_ends(partner, a, b) + join_ends(partner, c, d) > last:
                    continue
                if t & bit:
                    g = turns + sum([not t >> f & 1 for f in onto])
                else:
                    g = turns + sum([t >> f & 1 for f in into])
                if arcs is None:
                    arcs = sorted(partner)
                    rel = 0  # the decided ends of the open corners
                    for k in arcs:
                        rel |= 1 << (k >> 1 if decided >> (k >> 1) & 1 else succ[k] >> 1)
                key = (*map(partner.__getitem__, arcs), t & rel)
                old = nxt.get(key)
                if old is not None:
                    diff = t ^ old[2]
                    if g > old[1] or g == old[1] and not t & diff & -diff:
                        continue
                nxt[key] = (partner, g, t)
        frontier = nxt
    ((_, girth, tree),) = frontier.values()
    return girth, tuple([e for e in range(m) if tree >> e & 1])


def _can_join(parts: int, parent: list[int], edges: list, start: int) -> bool:
    """Whether edges[start:] join a forest of ``parts`` parts (its union-find
    ``parent``, which this consumes) into one."""
    for _, u, v in edges[start:]:
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[u] = v
            parts -= 1
            if parts == 1:
                return True
    return False


def tree_count(tait: TaitGraph) -> int:
    """Number of spanning trees, by the matrix-tree theorem."""
    v = tait.n_vertices
    if v <= 1:
        return 1
    lap = [[0] * v for _ in range(v)]
    for e in tait.edges:
        if e.v1 == e.v2:
            continue
        lap[e.v1][e.v1] += 1
        lap[e.v2][e.v2] += 1
        lap[e.v1][e.v2] -= 1
        lap[e.v2][e.v1] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _bareiss_det(minor)


# ---------------------------------------------------------------------------
# tree contour


def tree_contour(tait: TaitGraph, tree: tuple[int, ...]) -> tuple[tuple, tuple, tuple]:
    """Walk the ribbon boundary of a spanning tree from its first edge.

    Returns the nonempty sectors in walk order as three tuples: per sector,
    the vertex it lies at, its non-tree half-edges in rotation order, and
    the tree half-edge the walk leaves it by.  The girth is their number.

    Arriving at a vertex by one tree half-edge h, the walk steps along
    ``succ`` to the next tree half-edge and leaves by it, arriving by its
    twin.  Each step is invertible, so the walk comes back to its start.
    """
    if not tree:
        raise ValueError("contour of an edgeless tree is undefined")
    in_tree = [False] * len(tait.k0)
    for ei in tree:
        in_tree[ei] = True
    vertex, succ = tait.vertex, tait.succ
    start = h = 2 * min(tree) + 1  # arrived at end 1
    vertices, dashes, exits = [], [], []
    while True:
        x = succ[h]
        if not in_tree[x >> 1]:
            swept = []
            while not in_tree[x >> 1]:
                swept.append(x)
                x = succ[x]
            vertices.append(vertex[h])
            dashes.append(tuple(swept))
            exits.append(x)
        h = x ^ 1
        if h == start:
            break
    return tuple(vertices), tuple(dashes), tuple(exits)


# ---------------------------------------------------------------------------
# reduced trees


def reduce_tree(
    tait: TaitGraph, tree: tuple[int, ...], label_sign: int
) -> tuple[PlaneTree, tuple[int, ...], bool]:
    """Suppress dash-free valence-2 vertices, merging labels algebraically.

    Returns (the reduced tree, the kept Tait vertices, whether a merge
    joined crossings of both raw signs).  The tree numbers its vertices
    by their places in the kept tuple; its edge ``(u, v, label)`` starts
    at u's tree half-edge, and ``rotation[u]`` lists u's edge ends in the
    rotation order of its tree half-edges.

    A crossing's raw sign is +1 when its black corners are {1, 3}, i.e.
    when k0 = 1, and -1 otherwise; ``label_sign`` turns it into a label.
    """
    vertex, succ, k0 = tait.vertex, tait.succ, tait.k0
    in_tree = [False] * len(k0)
    for ei in tree:
        in_tree[ei] = True
    # per vertex: its tree half-edges in rotation order, from its least
    # half-edge (see ``TaitGraph``); it is suppressed when these are two
    # and are all of its ends, each the other's successor
    first = [-1] * tait.n_vertices
    for h, v in enumerate(vertex):
        if first[v] < 0:
            first[v] = h
    ends = []
    for h in first:
        x = h
        t = []
        while True:
            if in_tree[x >> 1]:
                t.append(x)
            x = succ[x]
            if x == h:
                break
        ends.append(t)
    suppress = [len(t) == 2 and succ[t[0]] == t[1] and succ[t[1]] == t[0] for t in ends]
    kept = [v for v in range(tait.n_vertices) if not suppress[v]]
    if not kept:
        # a cycle-free chain must keep at least its two end vertices
        raise ValueError("tree reduced to nothing; diagram is not reduced")
    number = [-1] * tait.n_vertices  # per kept vertex: its place in ``kept``
    for i, v in enumerate(kept):
        number[v] = i

    edges = []
    mixed = False
    # each end of a reduced edge: the tree half-edge it starts from
    edge_slot: list = [None] * len(vertex)
    for v in kept:
        for x in ends[v]:
            if edge_slot[x] is not None:
                continue
            # walk through suppressed vertices, counting the edges and those
            # of raw sign +1 among them, to the far end h
            length, plus = 1, k0[x >> 1]
            h = x ^ 1
            while suppress[vertex[h]]:
                h = succ[h] ^ 1  # out by the vertex's other end
                length += 1
                plus += k0[h >> 1]
            edge_slot[x] = (len(edges), 0)
            edge_slot[h] = (len(edges), 1)
            edges.append((number[v], number[vertex[h]], label_sign * (2 * plus - length)))
            mixed = mixed or 0 < plus < length
    rotation = tuple(tuple([edge_slot[x] for x in ends[v]]) for v in kept)
    return PlaneTree(tuple(edges), rotation), tuple(kept), mixed


def _corner(tait: TaitGraph, h: int, turn: int) -> int:
    """The corner, numbered 4 * crossing + slot, at half-edge h, turned
    ``turn`` slots counterclockwise."""
    return 4 * (h >> 1) + (tait.k0[h >> 1] + 2 * (h & 1) + turn) % 4


# ---------------------------------------------------------------------------
# decompositions


class TaitDecomposition(Record):
    """One Heegaard decomposition of a diagram.

    ``tree`` lists the crossings inside the tree neighborhood; the
    complementary crossings form the dual spanning tree.  Both reduced
    trees, the boundary block structure (alternating dash classes), and
    the girth are recorded.
    """

    __slots__ = (
        "shading_index",  # 0 or 1, into checkerboard(pd)
        "tree",
        "dual_tree",
        "reduced_black",  # the PlaneTree of ``reduce_tree``
        "reduced_white",
        "girth",
        "blocks",  # per A class in contour order: (its (crossing, end) dashes, B class)
        "black_class_labels",  # per A class: its leaf edge's label, or 0 (a pad edge)
        "white_class_labels",  # per A class: that of the B class after it
        "mixed_signs",
    )

    def summary(self) -> dict:
        return {
            "shading": self.shading_index,
            "tree_crossings": list(self.tree),
            "dual_tree_crossings": list(self.dual_tree),
            "girth": self.girth,
            "black_labels": [label for _, _, label in self.reduced_black.edges],
            "white_labels": [label for _, _, label in self.reduced_white.edges],
            "blocks": [
                {"A_dashes": [list(d) for d in dashes], "B_class": b_class}
                for dashes, b_class in self.blocks
            ],
            "mixed_sign_merges": self.mixed_signs,
        }


def decompose(
    shading_index: int,
    tree: tuple[int, ...],
    black: TaitGraph,
    white: TaitGraph,
) -> TaitDecomposition:
    """Build the decomposition for a sorted spanning tree of ``black``, the
    Tait graph of shading ``shading_index``; ``white`` is the Tait graph of
    the other shading.  Both are built and checked reduced beforehand
    (``_tait_graphs``)."""
    dual_tree = tuple(itertools.filterfalse(set(tree).__contains__, range(len(white.k0))))
    black_vertices, black_dashes, black_exits = tree_contour(black, tree)
    white_vertices, white_dashes, _ = tree_contour(white, dual_tree)
    girth = len(black_dashes)
    if girth != len(white_dashes):
        raise AssertionError(
            f"girth mismatch between the two sides: {girth} vs {len(white_dashes)}"
        )
    red_black, kept_black, mixed_black = reduce_tree(black, tree, LABEL_SIGN_BLACK)
    red_white, kept_white, mixed_white = reduce_tree(white, dual_tree, LABEL_SIGN_WHITE)

    # boundary block structure: each A class in contour order is followed
    # by the dual class whose dash holds the corner that the traversal
    # leaving it faces; the white half-edge at a white corner c is c >> 1
    white_class_of = [None] * len(white.succ)
    for k, dashes in enumerate(white_dashes):
        for h in dashes:
            white_class_of[h] = k
    b_classes = [white_class_of[_corner(black, h, FLANK) >> 1] for h in black_exits]
    blocks = tuple(
        (tuple([(h >> 1, h & 1) for h in dashes]), bc)
        for dashes, bc in zip(black_dashes, b_classes)
    )
    black_labels = tuple(_leaf_label(red_black, kept_black, v) for v in black_vertices)
    white_labels = tuple(
        _leaf_label(red_white, kept_white, white_vertices[bc]) for bc in b_classes
    )
    return TaitDecomposition(  # the fields in slot order
        shading_index, tree, dual_tree, red_black, red_white, girth, blocks,
        black_labels, white_labels, mixed_black or mixed_white,
    )


def _leaf_label(red: PlaneTree, kept: tuple[int, ...], vertex: int) -> int:
    """The label of the leaf edge at a class's vertex, or 0 (a pad edge)
    when the vertex is not a leaf of the reduced tree.  A class's vertex
    has a non-tree end, so it is kept."""
    rot = red.rotation[kept.index(vertex)]
    return red.edges[rot[0][0]][2] if len(rot) == 1 else 0


def _loops(g: TaitGraph):
    """Per crossing: whether its edge joins a vertex to itself."""
    return map(operator.eq, g.vertex[::2], g.vertex[1::2])


def _tait_graphs(pd: PDCode) -> tuple[TaitGraph, TaitGraph]:
    """The shading-0 and shading-1 Tait graphs of a reduced diagram; an
    unreduced one is refused before any tree is searched.

    A crossing is nugatory exactly when its edge joins a vertex to itself
    in one of the two graphs, and by planar duality its edge in the other
    graph is then a bridge.  The edge at a valence-1 vertex is a bridge,
    and a graph of one vertex has only loops, so refusing every loop
    leaves each graph loopless, with at least 2 vertices.  The refusal
    names the least nugatory crossing.
    """
    shades = checkerboard(pd)
    black = tait_graph(pd, shades[0])
    white = tait_graph(pd, shades[1])
    nugatory = list(map(operator.or_, _loops(black), _loops(white)))
    if True in nugatory:
        raise ValueError(
            f"diagram is not reduced: crossings[{nugatory.index(True)}] is nugatory"
        )
    return black, white


def diagram_girth(pd: PDCode, budget: int = TREE_BUDGET_CROSSINGS):
    """Minimum girth over all spanning trees of the shading-0 Tait graph.

    Returns (girth, witness decomposition); the witness is the
    lexicographically least shading-0 tree attaining the minimum.  A
    spanning tree T of one Tait graph and the complementary spanning tree
    T' of the other (its planar dual) give one splitting of the diagram,
    seen from either side, and ``decompose`` asserts that both sides count
    the same girth.  So each shading-1 tree is the complement of a
    shading-0 one with the same girth, and cannot lower it.  The search
    (``spanning_trees``) counts girths as turns, walking no contour;
    ``decompose`` builds the witness from the same two Tait graphs, and the
    girth its contour walk counts must agree with the searched one.

    A crossing-free diagram answers girth 2 with no witness when it is one
    circle, the unknot read as K(0,0), and is refused otherwise.  A diagram
    of more than ``budget`` crossings is refused when its least girth is 4
    or more, before the sweep; girth 2 and 3 are read at any size.
    """
    if pd.n() == 0:
        if pd.free_loops != 1:
            raise ValueError(
                f"a crossing-free diagram must be one circle, got {pd.free_loops} circles"
            )
        return 2, None  # the unknot: girth-2 report with labels (0,0)
    black, white = _tait_graphs(pd)
    ((girth, tree),) = spanning_trees(black, budget)
    witness = decompose(0, tree, black, white)
    if witness.girth != girth:
        raise AssertionError(
            f"searched girth {girth} but the witness contour counts {witness.girth}"
        )
    return girth, witness


# ---------------------------------------------------------------------------
# representation extraction


def rep_from_decomposition(d: TaitDecomposition):
    """Read a representation off a decomposition.

    Girth 2 and 3 are the label wheel of the block structure (classes
    without a leaf edge are 0-labeled pad edges): a girth-2 wheel is one
    edge per side, whose label both of its classes repeat, so it reads as
    K(P,Q); anything higher is the pair of reduced trees.
    """
    if d.girth == 2:
        return Girth2Rep(d.black_class_labels[0], d.white_class_labels[0])
    if d.girth == 3:
        return Girth3Rep(d.black_class_labels, d.white_class_labels)
    return TreePairRep(d.reduced_black, d.reduced_white, d.girth)
