"""The full spanning-tree enumeration, kept as the reference for the pruned
girth search in ``knotpair.girth.spanning_trees``.

``reference_trees`` visits every spanning tree, in lexicographic order, and
``reference_girths`` counts each one's girth from the rotation turns.  The
least (girth, tree) pair is the witness the pruned search must find; the
search reads it by construction when the least girth is 2 or 3.
``decompositions_of_girth`` lists every decomposition of a given girth, not
just the witness, and ``decompose_pd`` builds the decomposition of any
spanning tree of either shading.
"""

from tait_reference import rotation_view

from knotpair.girth import _can_join, _tait_graphs, decompose


def reference_trees(tait):
    """All spanning trees as sorted tuples of edge indices, lexicographic.

    Backtracking over the non-loop edges in index order, each edge tried in
    before it is left out, with a union-find rolled back one edge at a time
    and the bridge test before an edge is left out.
    """
    n = tait.n_vertices
    if n == 1:
        yield ()
        return
    edges = [(ei, e.v1, e.v2) for ei, e in enumerate(tait.edges) if e.v1 != e.v2]
    parent = list(range(n))
    size = [1] * n
    tree = []
    undo = []  # per tree edge: next position, hung root
    i = 0
    while True:
        if len(tree) == n - 1:
            yield tuple(tree)
        elif i < len(edges):
            ei, u, v = edges[i]
            i += 1
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
                undo.append((i, u))
            continue
        while True:
            if not tree:
                return
            tree.pop()
            i, u = undo.pop()
            size[parent[u]] -= size[u]
            parent[u] = u
            if _can_join(n - len(tree), parent[:], edges, i):
                break


def reference_girths(tait):
    """Yield (girth, tree) for every spanning tree: the girth is the number
    of rotation turns from a tree edge to a non-tree edge."""
    turns = [[] for _ in tait.edges]
    for entries in rotation_view(tait):
        for p, (a, _end) in enumerate(entries):
            turns[a].append(entries[(p + 1) % len(entries)][0])
    for tree in reference_trees(tait):
        tree_set = set(tree)
        girth = 0
        for a in tree:
            b1, b2 = turns[a]
            girth += (b1 not in tree_set) + (b2 not in tree_set)
        yield girth, tree


def reference_least(tait):
    """The least girth and the lexicographically least tree attaining it."""
    return min(reference_girths(tait))


def decompositions_of_girth(pd, target):
    """Yield every shading-0 decomposition attaining the target girth, in
    the order of its trees.

    Searching shading 0 alone finds every girth and every canonical
    representation shading 1 would (see ``girth.diagram_girth``).  An
    unreduced diagram is refused as the commands refuse it.
    """
    black, white = _tait_graphs(pd)
    for g, tree in reference_girths(black):
        if g == target:
            yield decompose(0, tree, black, white)


def is_spanning_tree(n_vertices, endpoints):
    """Whether the (u, v) edges join ``n_vertices`` vertices into one tree,
    by a union-find with path halving."""
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for u, v in endpoints:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
        merges += 1
    return merges == n_vertices - 1


def decompose_pd(pd, shading_index, tree):
    """``girth.decompose`` of a spanning tree of either shading's Tait graph
    of a reduced diagram; an edge set that is not a spanning tree is
    refused with ``ValueError``."""
    black, white = _tait_graphs(pd)
    if shading_index:
        black, white = white, black
    tree = tuple(sorted(tree))
    ends = [(black.edges[ei].v1, black.edges[ei].v2) for ei in tree]
    if not is_spanning_tree(black.n_vertices, ends):
        raise ValueError("edge set is not a spanning tree of the Tait graph")
    return decompose(shading_index, tree, black, white)
