"""Invariants computed from the PD code alone, independent of all closed forms.

The bracket is the Kauffman state sum: every one of the 2^n smoothing
states contributes A^(#A - #B) * delta^(loops - 1).  It is summed by a
frontier sweep, crossing by crossing (the simplest case of Bar-Natan's
tangle sweep, arXiv:math/0606318): states that join the open arc ends
alike are added up as they go, so the work follows the number of such
joinings, not 2^n, but the sum is still over every state.  A pairing is
kept as a partner map from each open arc to the open arc at the other end
of its strand, and smoothing a crossing joins two pairs of strand ends in
that map.  The Conway oracle goes through the Wirtinger presentation and
Fox derivatives.

Both read nothing but the PD code, and Fox calculus the orientation that
``diagram.orient`` derives from it.  They share no code with the closed
forms: the sweep knows nothing of twist regions, trees or labels, and
takes no polynomial from ``closedform``.  They exist to verify the closed
forms, so a fault in a closed form cannot hide in them.
"""

from __future__ import annotations

from .diagram import PDCode, orient
from .laurent import LaurentPoly

BRACKET_CAP = 24
CONWAY_CAP = 24


class OracleSizeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Kauffman bracket state sum


def check_cap(n: int, cap: int) -> None:
    """Refuse a diagram of ``n`` > ``cap`` crossings, as the state sum does."""
    if n > cap:
        raise OracleSizeError(
            f"{n} crossings exceeds the state-sum cap of {cap} crossings"
        )


def bracket_state_sum(pd: PDCode, cap: int = BRACKET_CAP) -> LaurentPoly:
    """Sum A^(#A - #B) * delta^(loops - 1) over all smoothing states.

    delta = -A^2 - A^(-2); a single crossing-free circle has bracket 1.

    The crossings are smoothed one at a time, in ``_sweep_order``.  An arc
    with one end at a smoothed crossing and the other at an unsmoothed one
    is open.  Every state of the smoothed crossings has the same open arcs.
    Its strands join them in pairs, and its other strands have closed into
    loops.  The frontier maps each such pairing, as the sorted items of its
    partner map (open arc -> open arc at the other end of its strand), to
    the sum of A^(#A - #B) * delta^loops over the states that make it.
    States with the same pairing behave alike at every crossing still to
    come.  So the next crossing sends each pairing to two, one per
    smoothing, without looking at the states inside it: smoothing A joins
    the strand ends at slots 0 and 1, and at 2 and 3; B joins 0 and 3, and
    1 and 2.  Each join (``_join``) either pairs two far ends or closes a
    loop.  At the end one empty pairing is left, holding the sum over all
    2^n states of A^(#A - #B) * delta^loops.  The free loops are
    multiplied in, and one delta is divided out.

    No state is dropped: the sweep only groups the terms of the sum.  On
    the tree-pair templates and the table fixtures the frontier held at
    most 10 pairings of at most 8 open arcs, so the work grows about as
    n^2 (each pairing's polynomial has O(n) terms), not as 2^n.
    """
    n = pd.n()
    check_cap(n, cap)
    if n == 0:
        if pd.free_loops == 0:
            raise ValueError("empty diagram has no bracket")
        return _delta_power(pd.free_loops - 1)

    frontier: dict[tuple[tuple[int, int], ...], dict[int, int]] = {(): {0: 1}}
    for ci in _sweep_order(pd):
        a, b, c, d = pd.crossings[ci]
        nxt: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
        for key, value in frontier.items():
            # smoothing A joins slots (0,1),(2,3); B joins (0,3),(1,2)
            for step, (w, x, y, z) in ((1, (a, b, c, d)), (-1, (a, d, b, c))):
                partner = dict(key)
                loops = _join(partner, w, x) + _join(partner, y, z)
                target = nxt.setdefault(tuple(sorted(partner.items())), {})
                for de, dc in _delta_power(loops).terms:
                    de += step
                    for e, coeff in value.items():
                        target[e + de] = target.get(e + de, 0) + coeff * dc
        frontier = nxt
    (total,) = frontier.values()
    summed = LaurentPoly.from_dict(total, "A") * _delta_power(pd.free_loops)
    return _divide_by_delta(summed)


def _join(partner: dict[int, int], x: int, y: int) -> int:
    """Join the strand ends on arcs x and y; return the loops this closes.

    ``partner`` maps each open arc to the open arc at the other end of its
    strand.  An arc with no smoothed end yet is its own strand: it stands
    for itself.  Joining x to y retires them and pairs their far ends, or,
    when y is x's far end, closes the strand into a loop.
    """
    ex = partner.pop(x, x)
    if ex == y:  # the strand closes (or a kink arc meets itself)
        partner.pop(y, None)
        return 1
    ey = partner.pop(y, y)
    partner[ex], partner[ey] = ey, ex
    return 0


def _sweep_order(pd: PDCode) -> list[int]:
    """Crossings in sweep order: next the one with the most open arcs.

    Ties go to the lowest index.  Taking the crossings that close the most
    arcs first keeps the set of open arcs, and so the frontier, small.
    """
    ends: dict[int, list[int]] = {}
    for ci, cr in enumerate(pd.crossings):
        for a in cr:
            ends.setdefault(a, []).append(ci)
    open_count = [0] * pd.n()
    remaining = set(range(pd.n()))
    order = []
    while remaining:
        ci = max(remaining, key=lambda c: (open_count[c], -c))
        remaining.remove(ci)
        order.append(ci)
        for a in pd.crossings[ci]:
            for other in ends[a]:
                if other in remaining:
                    open_count[other] += 1
    return order


def _divide_by_delta(p: LaurentPoly) -> LaurentPoly:
    """p / delta, which must be exact.

    delta = -A^(-2) (1 + A^4), so p / delta = -A^2 r with p = (1 + A^4) r;
    r is found from the lowest exponent up, and whatever is left in the
    four highest exponents of p is the remainder.
    """
    coeffs = p.coeffs()
    lo, hi = p.min_exp(), p.max_exp()
    r: dict[int, int] = {}
    for e in range(lo, hi + 1):
        c = coeffs.get(e, 0) - r.get(e - 4, 0)
        if c:
            if e > hi - 4:
                raise ValueError("state sum is not divisible by the loop value")
            r[e] = c
    return LaurentPoly.from_dict({e + 2: -c for e, c in r.items()}, "A")


_DELTA_POWERS: list[LaurentPoly] = []


def _delta_power(k: int) -> LaurentPoly:
    """delta^k with delta = -A^2 - A^(-2), cached."""
    while len(_DELTA_POWERS) <= k:
        if not _DELTA_POWERS:
            _DELTA_POWERS.append(LaurentPoly.one("A"))
        else:
            _DELTA_POWERS.append(
                _DELTA_POWERS[-1] * LaurentPoly.from_dict({2: -1, -2: -1}, "A")
            )
    return _DELTA_POWERS[k]


# ---------------------------------------------------------------------------
# Conway polynomial via Wirtinger presentation and Fox calculus


def conway_fox(pd: PDCode, cap: int = CONWAY_CAP) -> LaurentPoly:
    """Conway polynomial of a knot diagram.

    The orientation is ``orient(pd)``, which a template carries from its
    build, so a template is not traced again here.

    Pipeline: Wirtinger presentation -> Fox derivative matrix over Z[t] ->
    Alexander polynomial (determinant of a first minor, by ``_alexander``)
    -> symmetric normalization with Delta(1) = 1 -> substitution
    z^2 = t - 2 + 1/t.
    """
    n = pd.n()
    if n > cap:
        raise OracleSizeError(f"{n} crossings exceeds the Fox-calculus cap of {cap}")
    ori = orient(pd)
    if ori.n_components != 1:
        raise ValueError(
            f"Conway oracle supports knots only (got {ori.n_components} components)"
        )
    if n == 0:
        return LaurentPoly.one("z")

    # Wirtinger generators: PD arcs glued across over-passages
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ci, cr in enumerate(pd.crossings):
        find(cr[1])
        find(cr[3])
        parent[find(cr[1])] = find(cr[3])
    for cr in pd.crossings:
        for a in cr:
            find(a)

    generators = sorted({find(a) for cr in pd.crossings for a in cr})
    col = {g: i for i, g in enumerate(generators)}
    assert len(generators) == n

    # rows over Z[t]: dicts exponent -> coeff per entry
    rows: list[dict[int, dict[int, int]]] = []
    for ci, cr in enumerate(pd.crossings):
        u_slot = 0 if ori.incoming[ci][0] else 2
        u_in = find(cr[u_slot])
        u_out = find(cr[(u_slot + 2) % 4])
        over = find(cr[1])
        row: dict[int, dict[int, int]] = {}

        def bump(gen: int, poly: dict[int, int], row=row) -> None:
            cell = row.setdefault(col[gen], {})
            for e, c in poly.items():
                cell[e] = cell.get(e, 0) + c

        if ori.signs[ci] == 1:
            bump(u_in, {1: 1})
            bump(u_out, {0: -1})
            bump(over, {0: 1, 1: -1})
        else:
            # the row for a negative crossing, cleared of 1/t by scaling
            bump(u_in, {0: 1})
            bump(u_out, {1: -1})
            bump(over, {1: 1, 0: -1})
        rows.append(row)

    # delete the last relation and the last generator column
    minor = [{j: cell for j, cell in row.items() if j < n - 1} for row in rows[:-1]]
    delta = _alexander(minor)
    if not delta:
        raise ValueError("vanishing Alexander determinant on a knot diagram")
    return _normalize_alexander_to_conway(delta)


def _alexander(minor: list[dict[int, dict[int, int]]]) -> dict[int, int]:
    """det of a square matrix over Z[t], read off one integer determinant.

    ``minor`` has one dict per row, column -> {exponent: coefficient},
    with exponents 0 and 1.  Returns exponent -> coefficient, zeros left
    out.

    Bound.  Let |p| be the sum of |coefficients| of p in Z[t], so that
    |p + q| <= |p| + |q| and |pq| <= |p| |q|.  A Fox row is t, -1, 1 - t
    (or 1, -t, t - 1) on three generators, some maybe equal, so the |.| of
    its entries sum to at most 4, and a deleted column only lowers that.
    Expanding det over permutations s, |det| <= sum_s prod_i |M[i][s(i)]|
    <= prod_i sum_j |M[i][j]| <= 4^dim, since the product multiplied out
    holds every term of the sum.  So det = sum_{e <= dim} c_e t^e with
    |c_e| <= 4^dim = 2^(k - 2) for k = 2 dim + 2.

    Decode.  det(M(2^k)) = sum_e c_e 2^(k e), and every c_e lies in
    [-2^(k - 1), 2^(k - 1)).  Such a signed base-2^k expansion is unique:
    c_0 is the value's residue mod 2^k in that range, and the rest is the
    expansion of (value - c_0) / 2^k.  Anything left after dim + 1 digits
    means a row broke the bound.
    """
    dim = len(minor)
    k = 2 * dim + 2
    mat = [[0] * dim for _ in range(dim)]
    for i, row in enumerate(minor):
        for j, cell in row.items():
            mat[i][j] = sum(c << k * e for e, c in cell.items())
    value = _bareiss_det(mat)
    half, mask = 1 << (k - 1), (1 << k) - 1
    delta = {}
    for e in range(dim + 1):
        c = ((value + half) & mask) - half
        value = (value - c) >> k
        if c:
            delta[e] = c
    if value:
        raise ValueError("Alexander determinant exceeds its coefficient bound")
    return delta


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free integer determinant."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _normalize_alexander_to_conway(delta: dict[int, int]) -> LaurentPoly:
    shift = min(delta)
    poly = {e - shift: c for e, c in delta.items()}
    at_one = sum(poly.values())
    if at_one not in (1, -1):
        raise ValueError(f"Alexander polynomial evaluates to {at_one} at 1")
    if at_one == -1:
        poly = {e: -c for e, c in poly.items()}
    deg = max(poly)
    if deg % 2 != 0:
        raise ValueError("asymmetric Alexander polynomial on a knot")
    half = deg // 2
    sym = {e - half: c for e, c in poly.items()}
    for e, c in sym.items():
        if sym.get(-e) != c:
            raise ValueError("Alexander polynomial failed symmetry check")

    # a_0 + sum a_i w_i with w_i = t^i + t^-i, as coefficient lists in
    # s = z^2 = t - 2 + 1/t: w_0 = 2, w_1 = s + 2, w_(i+1) = (s + 2) w_i - w_(i-1)
    in_s = [sym.get(0, 0)] + [0] * half
    prev, cur = [2], [2, 1]
    for i in range(1, half + 1):
        for j, c in enumerate(cur):
            in_s[j] += sym.get(i, 0) * c
        nxt = [2 * c for c in cur] + [0]
        for j, c in enumerate(cur):
            nxt[j + 1] += c
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    if in_s[0] != 1:
        raise ValueError("Conway normalization failed: constant term != 1")
    return LaurentPoly.from_dict({2 * j: c for j, c in enumerate(in_s)}, "z")
