"""Heegaard decompositions of a knot diagram over spanning trees.

Given a checkerboard shading and a spanning tree T of the Tait graph, the
diagram splits into a neighborhood of T and its complement, which carries
the complementary spanning tree T' of the dual graph.  Walking the ribbon
boundary of T groups the non-tree edge ends ("dashed lines") into sectors
between consecutive tree-edge ends; the girth of the decomposition is the
number of nonempty sectors, counted identically from either side.

The walk also yields the interleaving of the two trees' dash classes
around the boundary circle, which is what lets a girth-3 decomposition be
read back as a label wheel (p a q b r c).

The girth search walks no contour.  The walk arrives once by each
tree-edge end and then sweeps the rotation at that vertex to the next tree
end, so a sector is nonempty exactly when the rotation turns from a tree
edge straight to a non-tree edge: the girth of a tree is its number of such
turns.  The trees come from a backtracking search over the edges in index
order, each edge tried in before it is left out, so they come in
lexicographic order.  A turn is settled once both of its edges are decided,
and no later decision unsettles it, so the settled turns bound the girth of
every tree a branch can still reach.  The search cuts a branch once that
bound passes a cap.  Looking for the least girth, it lowers the cap below
each girth it finds, so the last tree it finds is the least tree of least
girth: the witness a full enumeration would pick.  Only the witness is
walked: ``decompose`` builds it on the two Tait graphs the search used, and
its walked girth must equal the searched one.
"""

from __future__ import annotations

from .diagram import PDCode, TaitGraph, checkerboard, tait_graph
from .oracle import _bareiss_det
from .record import Record, set_field
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


def spanning_trees(tait: TaitGraph, cap: int, *, descend: bool = False):
    """Yield (girth, tree) for the spanning trees of girth at most ``cap``.

    Trees are sorted tuples of edge indices and come in lexicographic order.
    The girth is the number of turns (a, b), consecutive entries of one
    rotation, from a tree edge a to a non-tree edge b; it equals
    ``tree_contour(tait, tree).girth()`` (see the module docstring).  With
    ``descend`` each tree yielded lowers the cap to one below its girth, so
    the girths fall strictly and the last tree yielded is the least tree of
    least girth; the first tree always comes when ``cap`` is at least the
    2(V - 1) turns out of the tree edges.

    Backtracking over the non-loop edges in index order, each edge tried in
    before it is left out, lists the trees in the order
    ``itertools.combinations`` lists the edge sets.  A union-find without
    path compression keeps the chosen edges a forest and is rolled back one
    edge at a time.  An edge is left out only if the edges after it can
    still join the forest's parts (the bridge test of Gabow and Myers), so
    no branch dead-ends for want of edges.  Each decision settles the turns
    between its edge and the edges decided before it (a self-loop is never
    a tree edge, so it counts as decided from the start); the count of
    settled turns that go from a tree edge to a non-tree edge never falls
    down a branch, and the branch is cut once it passes the cap.
    """
    n = tait.n_vertices
    edges = [(ei, e.v1, e.v2) for ei, e in enumerate(tait.edges) if e.v1 != e.v2]
    m = len(edges)
    pos = {ei: i for i, (ei, _, _) in enumerate(edges)}
    # the turns each decision settles: taking the edge in settles its turns
    # to edges already decided (girth +1 per one left out), leaving it out
    # settles the turns into it from edges already decided (+1 per tree edge)
    settle_in: list[list[int]] = [[] for _ in edges]
    settle_out: list[list[int]] = [[] for _ in edges]
    for entries in tait.rotation:
        for p, (a, _end) in enumerate(entries):
            b = entries[(p + 1) % len(entries)][0]
            if a not in pos or a == b:
                continue  # can never go from a tree edge to a non-tree edge
            if pos.get(b, -1) < pos[a]:
                settle_in[pos[a]].append(b)
            else:
                settle_out[pos[b]].append(a)
    in_tree = [False] * len(tait.edges)
    parent = list(range(n))
    size = [1] * n
    tree: list[int] = []
    # per tree edge: its position, the root it hung, the bound before it
    undo: list[tuple[int, int, int]] = []
    bound = 0  # settled turns from a tree edge to a non-tree edge
    i = 0
    while True:
        if bound > cap:
            pass  # cut the branch
        elif len(tree) == n - 1:
            # the edges left are all out; they settle the remaining turns
            girth = bound
            for j in range(i, m):
                for a in settle_out[j]:
                    girth += in_tree[a]
            if girth <= cap:
                yield girth, tuple(tree)
                if descend:
                    cap = girth - 1
        elif i < m:
            ei, u, v = edges[i]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u != v:
                if size[u] > size[v]:
                    u, v = v, u
                parent[u] = v
                size[v] += size[u]
                tree.append(ei)
                in_tree[ei] = True
                undo.append((i, u, bound))
                for b in settle_in[i]:
                    bound += not in_tree[b]
            else:
                for a in settle_out[i]:
                    bound += in_tree[a]
            i += 1
            continue
        # take back the last tree edge and go on without it, if that can
        # still end in a tree within the cap
        while True:
            if not tree:
                return
            in_tree[tree.pop()] = False
            i, u, bound = undo.pop()
            size[parent[u]] -= size[u]
            parent[u] = u
            for a in settle_out[i]:
                bound += in_tree[a]
            i += 1
            if bound <= cap and _can_join(n - len(tree), parent[:], edges, i):
                break


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


class Contour(Record):
    """The nonempty sectors of a tree's ribbon boundary, in walk order.

    Per sector: the vertex it lies at, its non-tree (edge, end) items in
    rotation order, and the tree (edge, end) the walk leaves it by.
    """

    __slots__ = ("vertices", "dashes", "exits")

    def __init__(
        self,
        vertices: tuple[int, ...],
        dashes: tuple[tuple[tuple[int, int], ...], ...],
        exits: tuple[tuple[int, int], ...],
    ) -> None:
        set_field(self, "vertices", vertices)
        set_field(self, "dashes", dashes)
        set_field(self, "exits", exits)

    def _key(self) -> tuple:
        return (self.vertices, self.dashes, self.exits)

    def girth(self) -> int:
        return len(self.dashes)


def tree_contour(tait: TaitGraph, tree: tuple[int, ...]) -> Contour:
    """Walk the ribbon boundary of a spanning tree from its first edge.

    Arriving at a vertex by one tree-edge end, the walk sweeps the rotation
    to the next tree-edge end and leaves by it.  Each step is invertible,
    so the walk comes back to its start.
    """
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


# ---------------------------------------------------------------------------
# reduced trees


class ReducedEdge(Record):
    __slots__ = ("label", "v1", "v2", "mixed_signs")

    def __init__(self, label: int, v1: int, v2: int, mixed_signs: bool) -> None:
        set_field(self, "label", label)
        set_field(self, "v1", v1)
        set_field(self, "v2", v2)
        set_field(self, "mixed_signs", mixed_signs)

    def _key(self) -> tuple:
        return (self.label, self.v1, self.v2, self.mixed_signs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.label, self.v1, self.v2, self.mixed_signs) == (
                other.label, other.v1, other.v2, other.mixed_signs
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.label, self.v1, self.v2, self.mixed_signs))


class ReducedTree(Record):
    # vertices: the kept Tait vertex ids; rotation: kept vertex -> cyclic
    # tuple of (reduced edge index, end)
    __slots__ = ("vertices", "edges", "rotation")

    def __init__(
        self, vertices: tuple[int, ...], edges: tuple[ReducedEdge, ...], rotation: dict
    ) -> None:
        set_field(self, "vertices", vertices)
        set_field(self, "edges", edges)
        set_field(self, "rotation", rotation)

    def _key(self) -> tuple:
        return (self.vertices, self.edges, self.rotation)


def reduce_tree(
    tait: TaitGraph, tree: tuple[int, ...], label_sign: int
) -> ReducedTree:
    """Suppress dash-free valence-2 vertices, merging labels algebraically.

    A crossing's raw sign is +1 when its black corners are {1, 3}, i.e.
    when k0 = 1, and -1 otherwise; ``label_sign`` turns it into a label.
    """
    tree_set = set(tree)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(tait.n_vertices)}
    dashes_at = {v: 0 for v in range(tait.n_vertices)}
    for v in range(tait.n_vertices):
        for ei, end in tait.rotation[v]:
            if ei in tree_set:
                adj[v].append((ei, end))
            else:
                dashes_at[v] += 1

    suppressible = {
        v
        for v in range(tait.n_vertices)
        if len(adj[v]) == 2 and dashes_at[v] == 0
    }
    kept = [v for v in range(tait.n_vertices) if v not in suppressible]
    if not kept:
        # a cycle-free chain must keep at least its two end vertices
        raise ValueError("tree reduced to nothing; diagram is not reduced")

    reduced_edges: list[ReducedEdge] = []
    # each end of a reduced edge: the tree (edge, end) it starts from
    edge_slot: dict[tuple[int, int], tuple[int, int]] = {}
    for v in kept:
        for ei, end in adj[v]:
            if (ei, end) in edge_slot:
                continue
            # walk through suppressed vertices
            chain = [ei]
            cur_v, cur_end = _other(tait, ei, end)
            while cur_v in suppressible:
                (e2, end2) = next(
                    (x, xe) for (x, xe) in adj[cur_v] if x != chain[-1]
                )
                chain.append(e2)
                cur_v, cur_end = _other(tait, e2, end2)
            signs = [
                label_sign if tait.edges[e2].k0 else -label_sign for e2 in chain
            ]
            edge_slot[(ei, end)] = (len(reduced_edges), 0)
            edge_slot[(chain[-1], cur_end)] = (len(reduced_edges), 1)
            reduced_edges.append(
                ReducedEdge(
                    label=sum(signs),
                    v1=v,
                    v2=cur_v,
                    mixed_signs=len({s > 0 for s in signs}) > 1,
                )
            )

    rotation = {
        v: tuple(edge_slot[x] for x in tait.rotation[v] if x in edge_slot)
        for v in kept
    }
    return ReducedTree(tuple(kept), tuple(reduced_edges), rotation)


def _other(tait: TaitGraph, ei: int, end: int) -> tuple[int, int]:
    e = tait.edges[ei]
    return (e.v2, 1) if end == 0 else (e.v1, 0)


def _corner(tait: TaitGraph, ei: int, end: int, turn: int = 0) -> int:
    """The corner, numbered 4 * crossing + slot, at one end of a Tait edge,
    turned ``turn`` slots counterclockwise."""
    return 4 * ei + (tait.edges[ei].k0 + 2 * end + turn) % 4


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
        "reduced_black",
        "reduced_white",
        "girth",
        "blocks",  # cyclic ((('A', class), ('B', class)) ...) dash id lists
        "black_class_edges",  # per A-class: (reduced edge idx or None)
        "white_class_edges",  # per A-class: aligned white reduced edge idx
        "mixed_signs",
    )

    def __init__(
        self,
        shading_index: int,
        tree: tuple[int, ...],
        dual_tree: tuple[int, ...],
        reduced_black: ReducedTree,
        reduced_white: ReducedTree,
        girth: int,
        blocks: tuple,
        black_class_edges: tuple,
        white_class_edges: tuple,
        mixed_signs: bool,
    ) -> None:
        set_field(self, "shading_index", shading_index)
        set_field(self, "tree", tree)
        set_field(self, "dual_tree", dual_tree)
        set_field(self, "reduced_black", reduced_black)
        set_field(self, "reduced_white", reduced_white)
        set_field(self, "girth", girth)
        set_field(self, "blocks", blocks)
        set_field(self, "black_class_edges", black_class_edges)
        set_field(self, "white_class_edges", white_class_edges)
        set_field(self, "mixed_signs", mixed_signs)

    def _key(self) -> tuple:
        return (
            self.shading_index,
            self.tree,
            self.dual_tree,
            self.reduced_black,
            self.reduced_white,
            self.girth,
            self.blocks,
            self.black_class_edges,
            self.white_class_edges,
            self.mixed_signs,
        )

    def summary(self) -> dict:
        return {
            "shading": self.shading_index,
            "tree_crossings": list(self.tree),
            "dual_tree_crossings": list(self.dual_tree),
            "girth": self.girth,
            "black_labels": [e.label for e in self.reduced_black.edges],
            "white_labels": [e.label for e in self.reduced_white.edges],
            "blocks": [
                {
                    "A_dashes": [list(d) for d in a_block[1]],
                    "B_class": b_block[1],
                }
                for a_block, b_block in self.blocks
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

    # boundary block structure: each A class in contour order is followed
    # by the dual class whose dash holds the corner that the traversal
    # leaving it faces
    white_class_of = {
        _corner(white, ei, end): k
        for k, dashes in enumerate(c_white.dashes)
        for ei, end in dashes
    }
    b_classes = [
        white_class_of[_corner(black, ei, end, FLANK)] for ei, end in c_black.exits
    ]
    blocks = tuple(
        (("A", dashes), ("B", bc)) for dashes, bc in zip(c_black.dashes, b_classes)
    )
    black_edges = tuple(_class_edge(red_black, v) for v in c_black.vertices)
    white_edges = tuple(
        _class_edge(red_white, c_white.vertices[bc]) for bc in b_classes
    )
    mixed = any(e.mixed_signs for e in red_black.edges) or any(
        e.mixed_signs for e in red_white.edges
    )
    return TaitDecomposition(
        shading_index=shading_index,
        tree=tree,
        dual_tree=dual_tree,
        reduced_black=red_black,
        reduced_white=red_white,
        girth=c_black.girth(),
        blocks=blocks,
        black_class_edges=black_edges,
        white_class_edges=white_edges,
        mixed_signs=mixed,
    )


def _reject_unreduced(black: TaitGraph, white: TaitGraph) -> None:
    for g, name in ((black, "black"), (white, "white")):
        val = [0] * g.n_vertices
        for e in g.edges:
            if e.v1 == e.v2:
                val[e.v1] += 2
            else:
                val[e.v1] += 1
                val[e.v2] += 1
        if any(v == 1 for v in val):
            raise ValueError(
                f"diagram is not reduced: {name} graph has a valence-1 vertex "
                "(nugatory crossing)"
            )


def _class_edge(red: ReducedTree, vertex: int):
    """Reduced edge index whose leaf hosts this class, or None (pad with 0)."""
    rot = red.rotation.get(vertex, ())
    if len(rot) == 1:
        return rot[0][0]
    return None


def _tait_graphs(pd: PDCode) -> tuple[TaitGraph, TaitGraph]:
    """The shading-0 and shading-1 Tait graphs of a reduced diagram; an
    unreduced one is refused before any tree is searched."""
    shades = checkerboard(pd)
    black = tait_graph(pd, shades[0])
    white = tait_graph(pd, shades[1])
    if black.n_vertices == 1 or white.n_vertices == 1:
        raise ValueError("single-vertex Tait graph: diagram is not reduced")
    _reject_unreduced(black, white)
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
    (``spanning_trees`` with ``descend``) counts girths locally and cuts
    every branch that cannot beat the best girth found; ``decompose``
    builds the witness from the same two Tait graphs, and the girth its
    contour walk counts must agree with the searched one.

    A crossing-free diagram answers girth 2 with no witness when it is one
    circle, the unknot read as K(0,0), and is refused otherwise.  A diagram
    of more than ``budget`` crossings is refused before any shading is
    built.
    """
    if pd.n() == 0:
        if pd.free_loops != 1:
            raise ValueError(
                f"a crossing-free diagram must be one circle, got {pd.free_loops} circles"
            )
        return 2, None  # the unknot: girth-2 report with labels (0,0)
    if pd.n() > budget:
        raise BudgetError(
            f"{pd.n()} crossings exceeds the spanning-tree budget of {budget}"
        )
    black, white = _tait_graphs(pd)
    for girth, tree in spanning_trees(black, 2 * black.n_vertices, descend=True):
        pass  # each tree found beats the one before
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

    Girth 2 gives K(P,Q); girth 3 assembles the label wheel from the block
    structure (classes without a leaf edge become 0-labeled pad edges);
    anything higher is returned as a general tree pair.
    """
    if d.girth == 2:
        p = _single_label(d.reduced_black)
        q = _single_label(d.reduced_white)
        return Girth2Rep(p, q)
    if d.girth == 3:
        top = tuple(
            0 if ei is None else d.reduced_black.edges[ei].label
            for ei in d.black_class_edges
        )
        bottom = tuple(
            0 if ei is None else d.reduced_white.edges[ei].label
            for ei in d.white_class_edges
        )
        return Girth3Rep(top, bottom)
    return TreePairRep(
        _as_plane_tree(d.reduced_black),
        _as_plane_tree(d.reduced_white),
        d.girth,
    )


def _single_label(red: ReducedTree) -> int:
    if len(red.edges) != 1:
        raise ValueError(
            f"girth-2 decomposition should reduce to a single edge, got "
            f"{len(red.edges)}"
        )
    return red.edges[0].label


def _as_plane_tree(red: ReducedTree) -> PlaneTree:
    vmap = {v: i for i, v in enumerate(red.vertices)}
    edges = tuple((vmap[e.v1], vmap[e.v2], e.label) for e in red.edges)
    rotation = tuple(
        tuple(red.rotation[v]) for v in red.vertices
    )
    return PlaneTree(edges, rotation)
