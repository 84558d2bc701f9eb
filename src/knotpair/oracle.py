"""Invariants computed from the PD code alone, independent of all closed forms.

The bracket is the Kauffman state sum: every one of the 2^n smoothing
states contributes A^(#A - #B) * delta^(loops - 1).  It is summed by a
frontier sweep, crossing by crossing (the simplest case of Bar-Natan's
tangle sweep, arXiv:math/0606318): states that join the open arc ends
alike are added up as they go, so the work follows the number of such
joinings, not 2^n, but the sum is still over every state.  A pairing is
kept as a partner map from each open arc to the open arc at the other end
of its strand, and smoothing a crossing joins two pairs of strand ends in
that map.  The sum of one pairing is one Python int, its polynomial at
y = A^4 = 2^K (Kronecker substitution, as in Harvey, J. Symb. Comput. 44
(2009)), read back into coefficients once at the end.  The Conway oracle
goes through the Wirtinger presentation and Fox derivatives.

Both read nothing but the PD code, and Fox calculus the orientation that
``diagram.orient`` derives from it.  They share no code with the closed
forms: the sweep knows nothing of twist regions, trees or labels, takes no
polynomial from ``closedform`` and reads its packed ints, as
``_alexander`` does, with its own digit loop (``_digits``).  They exist to
verify the closed forms, so a fault in a closed form cannot hide in them.
"""

from __future__ import annotations

import itertools

from .diagram import PDCode, _other_end, join_ends, orient, sweep_order
from .laurent import LaurentPoly

BRACKET_CAP = 24
CONWAY_CAP = 24


class OracleSizeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Kauffman bracket state sum


def check_cap(n: int, cap: int) -> None:
    """Refuse a diagram of ``n`` > ``cap`` crossings, as both oracles do."""
    if n > cap:
        raise OracleSizeError(f"{n} crossings exceeds the oracle budget of {cap} crossings")


def bracket_state_sum(pd: PDCode, cap: int = BRACKET_CAP) -> LaurentPoly:
    """Sum A^(#A - #B) * delta^(loops - 1) over all smoothing states.

    delta = -A^2 - A^(-2); a single crossing-free circle has bracket 1.

    The crossings are smoothed one at a time, in ``_sweep_order``.  An arc
    with one end at a smoothed crossing and the other at an unsmoothed one
    is open.  Every state of the smoothed crossings has the same open arcs.
    Its strands join them in pairs, and its other strands have closed into
    loops.  The frontier maps each such pairing to its partner map (open arc
    -> open arc at the other end of its strand) and the sum of
    A^(#A - #B) * delta^loops over the states that make it.
    States with the same pairing behave alike at every crossing still to
    come.  So the next crossing sends each pairing to two, one per
    smoothing, without looking at the states inside it: smoothing A joins
    the strand ends at slots 0 and 1, and at 2 and 3; B joins 0 and 3, and
    1 and 2.  Each join (``diagram.join_ends``) either pairs two far ends
    or closes a loop.  At the end one empty pairing is left, holding the
    sum over all 2^n states of A^(#A - #B) * delta^loops.  The free loops
    are multiplied in, and one delta is divided out.

    **Packed sums.**  With y = A^4, delta = -A^-2 (1 + y), so a smoothing
    that closes L loops multiplies by A^(+-1) delta^L =
    (-1)^L A^(+-1 - 2L) (1 + y)^L.  Every sum is kept as (low, value): the
    polynomial A^low P(y) with P in Z[y], value = P(2^K).  A smoothing is
    one int product by (-(1 + 2^K))^L and a move of low.  Two sums that
    reach one pairing merge by shifting the one with the higher low by K
    bits per 4 exponents.  That needs their lows to agree mod 4, and they
    do on a planar diagram: close two states of one pairing with one state
    of the unsmoothed crossings; the closures differ by as much as the
    states in (#A - #B) - 2 loops, and on a planar diagram switching one
    crossing moves #A - #B by 2 and the loop count by 1, so
    (#A - #B) + 2 loops is one class mod 4 over all states.  A code that
    breaks this is not planar and is refused.  The int arithmetic is
    exact, so at the end the value is the whole sum at y = 2^K.  The free
    loops and the one delta divided out are one product and one exact
    division that refuses a remainder (``_times_delta_power``).

    **The slot width.**  Each crossing is an edge of the state graph,
    whose vertices are a state's loops, and that graph has as many
    connected parts as the diagram, ``parts`` (1 for a code that
    ``diagram.validate_pd`` passes), which ``_sweep_order`` counts as it
    orders the crossings.  So a state has at most n + parts
    loops, and its term times delta^free has ||.||_1 <= 2^(n + parts +
    free).  Let P be the whole sum times (1 + y)^free, as packed before
    the division.  Over 2^n states, ||P||_1 <= 2^(2n + parts + free) <
    2^(K - 1) for K = 2n + parts + free + 2.  Then:

    * the division is exact iff 1 + y divides P: P(2^K) = P(-1) mod
      2^K + 1, and |P(-1)| <= ||P||_1 < 2^K + 1;
    * every coefficient of Q = P / (1 + y) is an alternating partial sum of
      P's, so |q_j| <= ||P||_1 < 2^(K - 1), and Q(2^K) has one signed
      base-2^K expansion with digits in [-2^(K - 1), 2^(K - 1)), read by
      ``_digits``.  The bracket spans at most the exponents
      +-(n + 2 (n + parts + free - 1)), so a value with digits left past
      that broke the bound and is refused.

    No state is dropped: the sweep only groups the terms of the sum.  On
    the tree-pair templates and the table fixtures the frontier held at
    most 10 pairings of at most 8 open arcs, so the number of joins grows
    about as n, and each costs a product of O(n^2)-bit ints.
    """
    n = pd.n()
    check_cap(n, cap)
    free = pd.free_loops
    if n == 0 and free == 0:
        raise ValueError("empty diagram has no bracket")

    order, parts = _sweep_order(pd)
    k = 2 * n + parts + free + 2
    y1 = (1 << k) + 1
    delta_powers = (1, -y1, y1 * y1)  # (-(1 + y))^L at y = 2^k

    # pairing -> (its partner map, low, value); every pairing of one step
    # has the same open arcs, so a pairing is keyed by their partners in
    # the order of the sorted open arcs
    frontier: dict[tuple[int, ...], tuple[dict[int, int], int, int]] = {(): ({}, 0, 1)}
    for ci in order:
        a, b, c, d = pd.crossings[ci]
        nxt: dict[tuple[int, ...], tuple[dict[int, int], int, int]] = {}
        arcs = None
        for known, low, value in frontier.values():
            # smoothing A joins slots (0,1),(2,3); B joins (0,3),(1,2)
            for step, w, x, y, z in ((1, a, b, c, d), (-1, a, d, b, c)):
                partner = known.copy()
                loops = join_ends(partner, w, x) + join_ends(partner, y, z)
                e = low + step - 2 * loops
                v = value * delta_powers[loops] if loops else value
                if arcs is None:
                    arcs = sorted(partner)
                target = tuple(map(partner.__getitem__, arcs))
                old = nxt.get(target)
                if old is None:
                    nxt[target] = (partner, e, v)
                    continue
                gap = e - old[1]
                if gap & 3:
                    raise ValueError(
                        "two states of one pairing differ in A-exponent mod 4: "
                        "the PD code is not planar"
                    )
                if gap >= 0:
                    nxt[target] = (old[0], old[1], old[2] + (v << k * (gap >> 2)))
                else:
                    nxt[target] = (old[0], e, v + (old[2] << k * (-gap >> 2)))
        frontier = nxt
    ((_, low, value),) = frontier.values()
    low, value = _times_delta_power(low, value, k, free - 1)
    top = 3 * n + 2 * (parts + free - 1)
    terms = _digits(value, k, low, 4, (top - low) // 4 + 1)
    if terms is None:
        raise ValueError("state sum exceeds its coefficient bound")
    return LaurentPoly.from_terms(tuple(terms), "A")


def _times_delta_power(low: int, value: int, k: int, m: int) -> tuple[int, int]:
    """(low, value) of A^low P(y) at y = 2^k, times delta^m for m >= -1.

    delta^m = (-1)^m A^(-2m) (1 + y)^m: one product by (1 + 2^k)^(m + 1)
    and one exact division by 1 + 2^k, which refuses a remainder.
    """
    y1 = (1 << k) + 1
    value, rest = divmod(value * y1 ** (m + 1), y1)
    if rest:
        raise ValueError("state sum is not divisible by the loop value")
    return low - 2 * m, -value if m % 2 else value


def _digits(value: int, k: int, low: int, stride: int, count: int) -> list | None:
    """The nonzero (exponent, digit) pairs of the signed base-2^k digits of
    value, digit j at exponent low + stride j and each in
    [-2^(k - 1), 2^(k - 1)); None when value needs more than ``count``
    digits.

    Such an expansion is unique: digit 0 is the value's residue mod 2^k in
    that range, and the rest is the expansion of (value - digit) / 2^k.
    """
    half, mask = 1 << (k - 1), (1 << k) - 1
    terms = []
    for e in range(low, low + stride * count, stride):
        if not value:
            break
        c = ((value + half) & mask) - half
        value = (value - c) >> k
        if c:
            terms.append((e, c))
    return None if value else terms


def _sweep_order(pd: PDCode) -> tuple[list[int], int]:
    """The crossings in sweep order, and the connected parts of the
    diagram: ``diagram.sweep_order`` over each crossing's neighbours, the
    crossing at the other end of each of its arcs; a kink arc adds none.
    A code whose arc does not appear exactly twice is refused."""
    neighbours: list[list[int]] = [[] for _ in pd.crossings]
    for p, q in enumerate(_other_end(itertools.chain(*pd.crossings))):
        if p >> 2 != q >> 2:
            neighbours[p >> 2].append(q >> 2)
    return sweep_order(neighbours)


# ---------------------------------------------------------------------------
# Conway polynomial via Wirtinger presentation and Fox calculus

# a crossing's Fox row by its sign, as (t^0, t^1) coefficients at the
# incoming under-arc, the outgoing under-arc and the over-arc: t, -1, 1 - t,
# and for a negative crossing the row cleared of 1/t by scaling, 1, -t, t - 1
_FOX_ROWS = {1: ((0, 1), (-1, 0), (1, -1)), -1: ((1, 0), (0, -1), (-1, 1))}


def conway_fox(pd: PDCode, cap: int = CONWAY_CAP) -> LaurentPoly:
    """Conway polynomial of a knot diagram.

    The orientation is ``orient(pd)``, which a template carries from its
    writer, so a template is not traced again here.

    Pipeline: Wirtinger presentation -> Fox derivative matrix over Z[t] ->
    Alexander polynomial (determinant of a first minor, by ``_alexander``)
    -> symmetric normalization with Delta(1) = 1 -> substitution
    z^2 = t - 2 + 1/t.
    """
    n = pd.n()
    check_cap(n, cap)
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

    for cr in pd.crossings:
        parent[find(cr[1])] = find(cr[3])

    generators = sorted({find(a) for cr in pd.crossings for a in cr})
    col = {g: i for i, g in enumerate(generators)}
    assert len(generators) == n

    # rows over Z[t]: column -> (coefficient of t^0, of t^1)
    rows: list[dict[int, tuple[int, int]]] = []
    for ci, cr in enumerate(pd.crossings):
        u_slot = 0 if ori.under_in[ci] else 2
        ends = (cr[u_slot], cr[u_slot ^ 2], cr[1])
        row: dict[int, tuple[int, int]] = {}
        for a, (c0, c1) in zip(ends, _FOX_ROWS[ori.signs[ci]]):
            j = col[find(a)]
            d0, d1 = row.get(j, (0, 0))
            row[j] = (d0 + c0, d1 + c1)
        rows.append(row)

    # delete the last relation and the last generator column
    minor = [{j: cell for j, cell in row.items() if j < n - 1} for row in rows[:-1]]
    delta = _alexander(minor)
    if not delta:
        raise ValueError("vanishing Alexander determinant on a knot diagram")
    return _normalize_alexander_to_conway(delta)


def _alexander(minor: list[dict[int, tuple[int, int]]]) -> dict[int, int]:
    """det of a square matrix over Z[t], read off one integer determinant.

    ``minor`` has one dict per row, column -> (coefficient of t^0, of t^1).
    Returns exponent -> coefficient, zeros left out.  The determinant is
    taken once, at t = 2^k with k = ``_fox_width`` of the minor.

    Decode.  det(M(2^k)) = sum_e c_e 2^(k e), and every c_e lies in
    [-2^(k - 1), 2^(k - 1)), so the c_e are its signed base-2^k digits
    (``_digits``).  Anything left after dim + 1 digits means the width was
    too narrow for the entries.
    """
    dim = len(minor)
    k = _fox_width(minor)
    mat = []
    for row in minor:
        line = [0] * dim
        for j, (c0, c1) in row.items():
            line[j] = c0 + (c1 << k)
        mat.append(line)
    delta = _digits(_bareiss_det(mat), k, 0, 1, dim + 1)
    if delta is None:
        raise ValueError("Alexander determinant exceeds its coefficient bound")
    return dict(delta)


def _fox_width(minor: list[dict[int, tuple[int, int]]]) -> int:
    """The least k with B < 2^(k - 1), B^2 = prod_i sum_j |M[i][j]|^2.

    Bound.  Let |p| be the sum of |coefficients| of p in Z[t].  On the
    unit circle |t| = 1, every entry has |M[i][j](t)| <= |M[i][j]|, so by
    Hadamard's inequality |det M(t)| <= prod_i (sum_j |M[i][j](t)|^2)^(1/2)
    <= B.  A coefficient is the mean c_e = (1 / 2 pi) int det M(e^(i s))
    e^(-i e s) ds, so |c_e| <= max over the circle of |det M(t)| <= B <
    2^(k - 1).  B < 2^(k - 1) holds exactly when B^2 has at most 2(k - 1)
    bits, so k = ceil(bits(B^2) / 2) + 1.

    A Fox row is t, -1, 1 - t (or 1, -t, t - 1) on three generators, some
    maybe equal, so its |.| sum to at most 4, and sum_j |M[i][j]|^2 is at
    most 6 when the generators are distinct and 8 otherwise, a deleted
    column only lowering both: B^2 <= 8^dim and k <= 1.5 dim + 2, below the
    2 dim + 2 of the bound 4^dim on the row sums.  A row whose |.| sum past
    4 is no Fox row and is refused.
    """
    b2 = 1
    for row in minor:
        l1 = squares = 0
        for c0, c1 in row.values():
            x = abs(c0) + abs(c1)
            l1 += x
            squares += x * x
        if l1 > 4:
            raise ValueError(f"a row of L1 norm {l1} is no Fox row")
        b2 *= squares
    return (b2.bit_length() + 1) // 2 + 1


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
