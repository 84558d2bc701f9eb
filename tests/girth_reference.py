"""The full spanning-tree enumeration and the branch-and-bound search, kept
as references for the girth search in ``knotpair.girth.spanning_trees``.

``reference_trees`` visits every spanning tree, in lexicographic order, and
``reference_girths`` counts each one's girth from the rotation turns.  The
least (girth, tree) pair is the witness the search must find; it reads it
by construction when the least girth is 2 or 3, and by the frontier sweep
``girth._sweep`` otherwise.  ``backtrack`` is the pruned search the sweep
replaced: it reaches the same witness on graphs too large to enumerate.
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


def backtrack(tait):
    """The trees of strictly falling girth down to the least tree of least
    girth, by branch and bound, for any loopless graph of at least 2
    vertices: the search ``girth.spanning_trees`` ran before the sweep.

    Backtracking over the edges in index order, each edge tried in before
    it is left out, lists the trees in the order ``itertools.combinations``
    lists the edge sets.  A union-find without path compression keeps the
    chosen edges a forest and is rolled back one edge at a time.  An edge
    is left out only if the edges after it can still join the forest's
    parts (the bridge test of Gabow and Myers), so no branch dead-ends for
    want of edges.

    Each tree yielded lowers the cap to one below its girth, from 2V at
    first: above the 2(V - 1) turns out of the tree edges, so the first
    tree always comes.  A branch is cut once a lower bound on the girth of
    every tree it can still reach passes the cap.  A turn is settled once
    both of its edges are decided, and no later decision unsettles it.  An
    end of an edge decided out is a decided non-tree end.  The bound is the
    sum over the vertices v of

        max(settled turns at v, 1 if v has a decided non-tree end else 0).

    Proof that it bounds the girth of every tree T the branch reaches: the
    girth of T is the sum over v of its turns at v from a tree edge to a
    non-tree edge.  Those include the settled ones.  And T spans and is
    connected, so v has a tree-edge end; if v also has a non-tree end,
    going once around its rotation passes from a tree-edge end to a
    non-tree end at least once, which is a turn of T.  So each term is at
    most T's turns at v.  No decision lowers a term, so the bound never
    falls down a branch, and a cut branch holds no tree within the cap: the
    trees yielded are each tree of the full enumeration whose girth is
    below that of every tree before it.  At a leaf the girth is the exact
    count of settled turns once the edges left are decided out.

    The search keeps the bound as the settled turns plus the vertices that
    have a decided non-tree end but no settled turn.  The two per-vertex
    flags it reads are set at most once down a branch; each setting goes
    on an undo log, and backtracking to a tree edge rolls the log back to
    where it stood before that edge was taken.
    """
    n = tait.n_vertices
    vertex = tait.vertex
    edges = list(zip(range(len(tait.k0)), vertex[::2], vertex[1::2]))
    m = len(edges)
    # the turns each decision settles, with their vertex: taking the edge
    # in settles its turns to edges already decided (girth +1 per one left
    # out), leaving it out settles the turns into it from edges already
    # decided (+1 per tree edge)
    settle_in: list[list[tuple[int, int]]] = [[] for _ in edges]
    settle_out: list[list[tuple[int, int]]] = [[] for _ in edges]
    for h, (v, s) in enumerate(zip(vertex, tait.succ)):  # the turn h -> succ[h]
        a, b = h >> 1, s >> 1
        # b != a: a turn from an edge back to itself needs a loop or a
        # valence-1 vertex, and no searched graph has either
        if b < a:
            settle_in[a].append((b, v))
        else:
            settle_out[b].append((a, v))
    # per vertex: whether it has a settled turn, and whether it has a
    # decided non-tree end
    turned = [False] * n
    loose = [False] * n
    in_tree = [False] * m
    parent = list(range(n))
    size = [1] * n
    tree: list[int] = []
    # per tree edge: its position, the root it hung, ``settled``, ``bare``
    # and the length of the log before it
    undo: list[tuple[int, int, int, int, int]] = []
    # the flags set, to be cleared on backtracking: v for ``turned[v]``,
    # ~v for ``loose[v]``
    log: list[int] = []
    # the bound is settled + bare: max(settled turns at v, loose[v]) is
    # the settled turns at v, plus 1 if there are none and v is loose
    settled = 0  # settled turns from a tree edge to a non-tree edge
    bare = 0  # loose vertices without a settled turn
    cap = 2 * n
    i = 0
    out = False  # edge i is left out whatever it joins: backtracking chose so
    while True:
        if settled + bare <= cap:
            if len(tree) == n - 1:
                # the edges left are all out; they settle the remaining turns
                girth = settled
                for j in range(i, m):
                    for a, _v in settle_out[j]:
                        girth += in_tree[a]
                if girth <= cap:
                    yield girth, tuple(tree)
                    cap = girth - 1
            elif i < m:
                _, u, v = edges[i]
                if not out:
                    ru, rv = u, v
                    while parent[ru] != ru:
                        ru = parent[ru]
                    while parent[rv] != rv:
                        rv = parent[rv]
                    if ru != rv:
                        if size[ru] > size[rv]:
                            ru, rv = rv, ru
                        parent[ru] = rv
                        size[rv] += size[ru]
                        tree.append(i)
                        in_tree[i] = True
                        undo.append((i, ru, settled, bare, len(log)))
                        for b, w in settle_in[i]:
                            if not in_tree[b]:
                                settled += 1
                                if not turned[w]:
                                    turned[w] = True
                                    log.append(w)
                                    bare -= loose[w]
                        i += 1
                        continue
                for a, w in settle_out[i]:
                    if in_tree[a]:
                        settled += 1
                        if not turned[w]:
                            turned[w] = True
                            log.append(w)
                            bare -= loose[w]
                if not loose[u]:
                    loose[u] = True
                    log.append(~u)
                    bare += not turned[u]
                if not loose[v]:
                    loose[v] = True
                    log.append(~v)
                    bare += not turned[v]
                i += 1
                if not out:
                    continue
                out = False
                # a tree edge taken back: go on without it only if that
                # can still end in a tree within the cap
                if settled + bare <= cap and _can_join(n - len(tree), parent[:], edges, i):
                    continue
        # take back the last tree edge, to leave it out next
        if not tree:
            return
        in_tree[tree.pop()] = False
        i, ru, settled, bare, mark = undo.pop()
        size[parent[ru]] -= size[ru]
        parent[ru] = ru
        for w in log[mark:]:
            if w >= 0:
                turned[w] = False
            else:
                loose[~w] = False
        del log[mark:]
        out = True


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
