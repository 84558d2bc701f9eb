"""The Fox-calculus Conway polynomial by n-point interpolation, kept as the
reference for ``knotpair.oracle.conway_fox``.

``conway_fox_reference`` builds the same Wirtinger presentation and Fox
matrix, but takes the Alexander determinant at the n integer points
t = 2, ..., n + 1, each by a dense Bareiss determinant, and recovers the
polynomial by exact Newton interpolation.  Its normalization to Conway
form rewrites the Alexander polynomial in y = t + 1/t and substitutes
y = z^2 + 2 by polynomial products.  It shares only the Bareiss
determinant with the oracle, so a fault in the oracle's one-point
evaluation, its digit decode or its recurrence for the Conway coefficients
cannot hide in it.
"""

from knotpair.diagram import PDCode, orient
from knotpair.laurent import LaurentPoly
from knotpair.oracle import _bareiss_det


def conway_fox_reference(pd: PDCode) -> LaurentPoly:
    """Conway polynomial of a knot diagram, of any size.

    Pipeline: Wirtinger presentation -> Fox derivative matrix over Z[t] ->
    Alexander polynomial (determinant of a first minor, evaluated at
    integer points and interpolated exactly) -> symmetric normalization
    with Delta(1) = 1 -> substitution z^2 = t - 2 + 1/t.
    """
    n = pd.n()
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
        u_slot = 0 if ori.under_in[ci] else 2
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
    result = LaurentPoly((), "z")
    for e, c in in_y.items():
        result = result + c * (z2_plus_2**e)
    if dict(result.terms).get(0, 0) != 1:
        raise ValueError("Conway normalization failed: constant term != 1")
    return result
