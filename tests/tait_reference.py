"""The Tait graph, contour walk, tree reduction and decomposition as they
were on per-edge records, kept as the reference for the half-edge arrays of
``knotpair.diagram.TaitGraph`` and for the plane trees ``girth`` reduces to.

``tait_graph`` builds a ``TaitEdge`` and the first black corner k0 per
crossing and a rotation of (edge, end) pairs per vertex;
``tree_contour``, ``reduce_tree`` and ``decompose`` read only those.
The contour is a ``Contour`` record of (edge, end) pairs where
``girth.tree_contour`` returns three tuples of half-edges
2 * edge + end.  The reduction is a ``ReducedTree`` of
``ReducedEdge`` records, numbered by Tait vertex, where
``girth.reduce_tree`` returns a ``PlaneTree`` numbered by kept vertex;
``_as_plane_tree`` converts one to the other.  ``decompose`` converts its
reduced trees and class edges only when it builds the decomposition.
``rotation_view`` reads the reference's rotation off the half-edge arrays.
"""

from typing import NamedTuple

from knotpair.diagram import TaitEdge
from knotpair.girth import FLANK, LABEL_SIGN_BLACK, LABEL_SIGN_WHITE, TaitDecomposition
from knotpair.record import Record
from knotpair.reps import PlaneTree


class Contour(Record):
    """The nonempty sectors of a tree's ribbon boundary, in walk order.

    Per sector: the vertex it lies at, its non-tree (edge, end) pairs in
    rotation order, and the tree (edge, end) the walk leaves it by.
    """

    __slots__ = ("vertices", "dashes", "exits")

    def girth(self) -> int:
        return len(self.dashes)


class ReducedEdge(Record):
    __slots__ = ("label", "v1", "v2", "mixed_signs")


class ReducedTree(Record):
    # vertices: the kept Tait vertex ids; rotation: per kept vertex, in the
    # order of ``vertices``, the cyclic tuple of (reduced edge index, end)
    __slots__ = ("vertices", "edges", "rotation")


def rotation_view(tait):
    """The rotation view of a half-edge ``knotpair.diagram.TaitGraph``: per
    vertex, its (edge, end) pairs from its least half-edge, where its
    corner cycle starts."""
    rotation: list = [None] * tait.n_vertices
    for h, v in enumerate(tait.vertex):
        if rotation[v] is None:
            entries = [divmod(h, 2)]
            x = tait.succ[h]
            while x != h:
                entries.append(divmod(x, 2))
                x = tait.succ[x]
            rotation[v] = tuple(entries)
    return tuple(rotation)


class TaitGraph(NamedTuple):
    """``rotation[v]`` lists (edge_index, end) around vertex v in the cyclic
    order of its region's corners; end 0 refers to the corner ``k0[ei]`` of
    the crossing, end 1 to corner ``k0[ei] + 2``."""

    n_vertices: int
    edges: tuple
    rotation: tuple
    k0: tuple


def tait_graph(pd, black):
    """A vertex per black region, an edge per crossing.  A crossing's black
    corners are k0 and k0 + 2, so corner c is end (c >> 1) & 1 of its edge."""
    vertex_of = [-1] * (4 * pd.n())
    for v, corners in enumerate(black):
        for c in corners:
            vertex_of[c] = v
    edges, k0s = [], []
    for c in range(0, 4 * pd.n(), 4):
        k0 = 0 if vertex_of[c] >= 0 else 1
        edges.append(TaitEdge(vertex_of[c + k0], vertex_of[c + k0 + 2]))
        k0s.append(k0)
    rotation = tuple([tuple([(c >> 2, (c >> 1) & 1) for c in corners]) for corners in black])
    return TaitGraph(len(black), tuple(edges), rotation, tuple(k0s))


def tree_contour(tait, tree):
    """Walk the ribbon boundary of a spanning tree from its first edge."""
    tree_set = set(tree)
    if not tree_set:
        raise ValueError("contour of an edgeless tree is undefined")
    rot = tait.rotation
    start_edge = min(tree_set)
    state = start = (tait.edges[start_edge].v2, start_edge, 1)  # arrived at v2
    vertices, dashes, exits = [], [], []
    while True:
        v, ei, end = state
        entries = rot[v]
        npos = len(entries)
        pos = (entries.index((ei, end)) + 1) % npos
        swept = []
        while entries[pos][0] not in tree_set:
            swept.append(entries[pos])
            pos = (pos + 1) % npos
        dep_edge, dep_end = entries[pos]
        if swept:
            vertices.append(v)
            dashes.append(tuple(swept))
            exits.append((dep_edge, dep_end))
        next_v, next_end = _other(tait, dep_edge, dep_end)
        state = (next_v, dep_edge, next_end)
        if state == start:
            break
    return Contour(tuple(vertices), tuple(dashes), tuple(exits))


def reduce_tree(tait, tree, label_sign):
    """Suppress dash-free valence-2 vertices, merging labels algebraically."""
    in_tree = [False] * len(tait.edges)
    for ei in tree:
        in_tree[ei] = True
    rotation = tait.rotation
    ends = [[x for x in entries if in_tree[x[0]]] for entries in rotation]
    suppress = [len(t) == 2 == len(r) for t, r in zip(ends, rotation)]
    kept = [v for v in range(tait.n_vertices) if not suppress[v]]
    if not kept:
        raise ValueError("tree reduced to nothing; diagram is not reduced")

    reduced_edges = []
    edge_slot = {}
    for v in kept:
        for x in ends[v]:
            if x in edge_slot:
                continue
            last, end = x
            length, plus = 1, tait.k0[last]
            cur_v, cur_end = _other(tait, last, end)
            while suppress[cur_v]:
                (e1, end1), (e2, end2) = ends[cur_v]
                if e1 != last:
                    e2, end2 = e1, end1
                last = e2
                length += 1
                plus += tait.k0[last]
                cur_v, cur_end = _other(tait, last, end2)
            edge_slot[x] = (len(reduced_edges), 0)
            edge_slot[(last, cur_end)] = (len(reduced_edges), 1)
            reduced_edges.append(
                ReducedEdge(label_sign * (2 * plus - length), v, cur_v, 0 < plus < length)
            )

    rotation = tuple(
        tuple([edge_slot[x] for x in rotation[v] if x in edge_slot]) for v in kept
    )
    return ReducedTree(tuple(kept), tuple(reduced_edges), rotation)


def _as_plane_tree(red):
    vmap = {v: i for i, v in enumerate(red.vertices)}
    edges = tuple((vmap[e.v1], vmap[e.v2], e.label) for e in red.edges)
    return PlaneTree(edges, red.rotation)


def _class_edge(red, vertex):
    """Reduced edge index whose leaf hosts this class, or None (pad with 0)."""
    if vertex in red.vertices:
        rot = red.rotation[red.vertices.index(vertex)]
        if len(rot) == 1:
            return rot[0][0]
    return None


def _class_label(red, vertex):
    """A class's wheel label: its leaf edge's label, or 0 for a pad edge."""
    ei = _class_edge(red, vertex)
    return 0 if ei is None else red.edges[ei].label


def _other(tait, ei, end):
    e = tait.edges[ei]
    return (e.v2, 1) if end == 0 else (e.v1, 0)


def _corner(tait, ei, end, turn=0):
    """The corner, numbered 4 * crossing + slot, at one end of a Tait edge,
    turned ``turn`` slots counterclockwise."""
    return 4 * ei + (tait.k0[ei] + 2 * end + turn) % 4


def decompose(shading_index, tree, black, white):
    """The decomposition for a sorted spanning tree of ``black``, the Tait
    graph of shading ``shading_index``; ``white`` is the other shading's."""
    tree_set = set(tree)
    dual_tree = tuple(ei for ei in range(len(white.edges)) if ei not in tree_set)

    c_black = tree_contour(black, tree)
    c_white = tree_contour(white, dual_tree)
    if c_black.girth() != c_white.girth():
        raise AssertionError(
            f"girth mismatch between the two sides: {c_black.girth()} vs {c_white.girth()}"
        )

    red_black = reduce_tree(black, tree, LABEL_SIGN_BLACK)
    red_white = reduce_tree(white, dual_tree, LABEL_SIGN_WHITE)

    white_class_of = {
        _corner(white, ei, end): k
        for k, dashes in enumerate(c_white.dashes)
        for ei, end in dashes
    }
    b_classes = [
        white_class_of[_corner(black, ei, end, FLANK)] for ei, end in c_black.exits
    ]
    blocks = tuple(zip(c_black.dashes, b_classes))
    black_labels = tuple(_class_label(red_black, v) for v in c_black.vertices)
    white_labels = tuple(
        _class_label(red_white, c_white.vertices[bc]) for bc in b_classes
    )
    mixed = any(e.mixed_signs for e in red_black.edges) or any(
        e.mixed_signs for e in red_white.edges
    )
    return TaitDecomposition(  # the fields in slot order
        shading_index, tree, dual_tree, _as_plane_tree(red_black),
        _as_plane_tree(red_white), c_black.girth(), blocks, black_labels,
        white_labels, mixed,
    )
