"""Brute-force invariant computation, independent of all closed forms.

The bracket enumerates all 2^n smoothing states with union-find loop
counting; the Conway oracle goes through the Wirtinger presentation and
Fox derivatives.  Both are deliberately naive: they exist to verify the
closed forms, so they share no code with them.
"""

from __future__ import annotations

from .diagram import PDCode, orient
from .laurent import LaurentPoly

BRACKET_CAP = 24
CONWAY_CAP = 24


class OracleSizeError(ValueError):
    pass


def components(pd: PDCode) -> int:
    return orient(pd).n_components


def writhe(pd: PDCode) -> int:
    return orient(pd).writhe


# ---------------------------------------------------------------------------
# Kauffman bracket state sum


def bracket_state_sum(pd: PDCode, cap: int = BRACKET_CAP) -> LaurentPoly:
    """Sum A^(#A - #B) * delta^(loops - 1) over all smoothing states.

    delta = -A^2 - A^(-2); a single crossing-free circle has bracket 1.
    The enumeration walks the binary smoothing tree with a rollback
    union-find so each state only pays for its incremental merges.
    """
    n = pd.n()
    if n > cap:
        raise OracleSizeError(
            f"{n} crossings exceeds the state-sum cap of {cap} (2^{n} states)"
        )
    if n == 0:
        if pd.free_loops == 0:
            raise ValueError("empty diagram has no bracket")
        return _delta_power(pd.free_loops - 1)

    # ports are flattened as 4*ci + slot; arcs glue ports pairwise
    occ: dict[int, list[int]] = {}
    for ci, cr in enumerate(pd.crossings):
        for slot, a in enumerate(cr):
            occ.setdefault(a, []).append(4 * ci + slot)

    parent = list(range(4 * n))
    size = [1] * (4 * n)

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    trail: list[int] = []

    def union(x: int, y: int) -> int:
        rx, ry = find(x), find(y)
        if rx == ry:
            return 0
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        size[rx] += size[ry]
        trail.append(ry)
        return 1

    def rollback(mark: int) -> None:
        while len(trail) > mark:
            ry = trail.pop()
            size[parent[ry]] -= size[ry]
            parent[ry] = ry

    base_merges = 0
    for ports in occ.values():
        base_merges += union(ports[0], ports[1])
    assert base_merges == 2 * n

    # smoothing A joins slots (0,1) and (2,3); B joins (0,3) and (1,2)
    pair_a = [(4 * ci, 4 * ci + 1, 4 * ci + 2, 4 * ci + 3) for ci in range(n)]
    pair_b = [(4 * ci, 4 * ci + 3, 4 * ci + 1, 4 * ci + 2) for ci in range(n)]

    counts: dict[tuple[int, int], int] = {}

    def recurse(ci: int, merges: int, diff: int) -> None:
        if ci == n:
            loops = 2 * n - merges + pd.free_loops
            key = (diff, loops)
            counts[key] = counts.get(key, 0) + 1
            return
        for delta_diff, (w, x, yy, zz) in ((1, pair_a[ci]), (-1, pair_b[ci])):
            mark = len(trail)
            m = union(w, x) + union(yy, zz)
            recurse(ci + 1, merges + m, diff + delta_diff)
            rollback(mark)

    recurse(0, 0, 0)

    total: dict[int, int] = {}
    for (diff, loops), mult in counts.items():
        contrib = _delta_power(loops - 1).shift(diff)
        for e, c in contrib.terms:
            total[e] = total.get(e, 0) + c * mult
    return LaurentPoly.from_dict(total, "A")


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

    Pipeline: Wirtinger presentation -> Fox derivative matrix over Z[t] ->
    Alexander polynomial (determinant of a first minor, evaluated at
    integer points and interpolated exactly) -> symmetric normalization
    with Delta(1) = 1 -> substitution z^2 = t - 2 + 1/t.
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
    dim = n - 1
    if dim == 0:
        delta = {0: 1}
    else:
        points = list(range(2, 2 + n))
        values = []
        for t0 in points:
            # each row has at most three nonzero entries: fill only those
            mat = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j, cell in rows[i].items():
                    if j < dim:
                        mat[i][j] = sum(c * t0**e for e, c in cell.items())
            values.append(_bareiss_det(mat))
        coeffs = _interpolate_integer_poly(points, values)
        delta = {e: c for e, c in enumerate(coeffs) if c != 0}
        if not delta:
            raise ValueError("vanishing Alexander determinant on a knot diagram")

    return _normalize_alexander_to_conway(delta)


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


def _interpolate_integer_poly(points: list[int], values: list[int]) -> list[int]:
    """Newton interpolation; the result must have integer coefficients.

    For an integer polynomial at distinct integer points every divided
    difference is an integer, so the table is built with exact integer
    division, and a remainder means the data is not integral.  Expanding
    the Newton form by Horner's rule then gives the coefficients, constant
    term first.
    """
    k = len(points)
    diffs = list(values)
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            q, rem = divmod(diffs[i] - diffs[i - 1], points[i] - points[i - level])
            if rem:
                raise ValueError("interpolated Alexander polynomial is not integral")
            diffs[i] = q
    coeffs = [diffs[k - 1]]
    for i in range(k - 2, -1, -1):
        # coeffs <- coeffs * (x - points[i]) + diffs[i]
        shifted = [0] + coeffs
        for d, c in enumerate(coeffs):
            shifted[d] -= points[i] * c
        shifted[0] += diffs[i]
        coeffs = shifted
    return coeffs


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

    # rewrite a_0 + sum a_i (t^i + t^-i) as a polynomial in y = t + 1/t,
    # then substitute y = z^2 + 2
    m = max(sym)
    p_prev = {0: 2}  # t^0 + t^0
    p_cur = {1: 1}  # y
    y_polys = [p_prev, p_cur]
    for _ in range(2, m + 1):
        nxt: dict[int, int] = {}
        for e, c in y_polys[-1].items():
            nxt[e + 1] = nxt.get(e + 1, 0) + c
        for e, c in y_polys[-2].items():
            nxt[e] = nxt.get(e, 0) - c
        y_polys.append(nxt)
    in_y: dict[int, int] = {0: sym.get(0, 0)}
    for i in range(1, m + 1):
        ai = sym.get(i, 0)
        if ai == 0:
            continue
        for e, c in y_polys[i].items():
            in_y[e] = in_y.get(e, 0) + ai * c

    z2_plus_2 = LaurentPoly.from_dict({2: 1, 0: 2}, "z")
    result = LaurentPoly.zero("z")
    for e, c in in_y.items():
        result = result + c * (z2_plus_2**e)
    if result.coeff(0) != 1:
        raise ValueError("Conway normalization failed: constant term != 1")
    return result
