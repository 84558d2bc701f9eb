"""Component count, writhe and Conway polynomial of a girth-3 template from
its labels, by a frozen table.

A reduced labelling replaces each label x of (p, q, r, a, b, c) by
sign(x) * (1 if x is odd else 2), or 0.  A ladder's crossings all join the
same two strands with one sign, and how the ladder connects its ends
depends only on the parity of its label.  So the reduced labels fix the
component count and, in the orientation ``orient`` gives the template,
the sign of every crossing of region i: the direction sign d_i times the
sign of its label.  Hence writhe = sum d_i x_i, for knots and links alike.
``REDUCED`` holds the component count and the d_i of each of the 5^6
reduced labellings.  The girth-2 template K(p, q) is the template of the
labelling (p, 0, 0, q, 0, 0), so girth-2 reps read the same entries.

A parity pattern is the 6-bit number with bit i the parity of label i;
zero counts as even.  The pattern fixes the components: 36 of the 64
patterns are knots.  With the other labels fixed, f(m) = nabla at label
b_i + 2m of region i obeys f(m+1) = c f(m) - f(m-1), from the skein
relation on one crossing of the region: c = 2 (``AFFINE``) where its
strands run opposite ways, and c = z^2 + 2 (``FIBONACCI``) where they run
the same way.  So a knot's nabla is fixed by its 64 values at the
corners, each label at b_i or b_i + 2, with b_i = -1 for an odd label and
0 for an even one, and is extrapolated axis by axis from them.

``g3table_data`` holds the reduced entries and, per knot pattern, the
kinds and the 64 corner polynomials, made by ``make_g3table`` from the
reduced templates, ``orient`` and ``oracle.conway_fox``.  This module
imports nothing from ``oracle``.  The independent checks are those that do
not read the table's own data: tests/test_g3table.py regenerates the table
and compares components and writhe with ``orient`` on full templates and
the extrapolated polynomial with Fox off the corners (a grid over every
knot pattern with shifts of -4..+4, and a property test);
tests/test_diagram.py pins the girth-2 identity and compares the
components and writhe that ``classify.rep_invariants`` reads with the full
template on a grid and a property test; and ``classify.check_identities``
ties each value to the bracket.
"""

from __future__ import annotations

import functools

from .g3table_data import KNOTS, REDUCED
from .laurent import LaurentPoly

AFFINE = "A"
FIBONACCI = "F"

_ENTRIES = bytes.fromhex(REDUCED)


def _index(labels) -> int:
    """sum (r_i + 2) 5^i over the reduced labels r_i of ``labels``."""
    index = 0
    for x in reversed(labels):
        r = 2 - (x & 1) if x else 0
        index = 5 * index + 2 + (r if x > 0 else -r)
    return index


def _pattern(labels: tuple[int, ...]) -> int:
    return sum((x & 1) << i for i, x in enumerate(labels))


def base_label(pattern: int, i: int) -> int:
    """b_i: the lower corner label of region i, -1 if odd, 0 if even."""
    return -(pattern >> i & 1)


def components_and_writhe(labels: tuple[int, ...]) -> tuple[int, int]:
    """Component count and writhe of the template of a girth-3 labelling,
    oriented by ``orient``."""
    entry = _ENTRIES[_index(labels)]
    return entry >> 6, sum(-x if entry >> i & 1 else x for i, x in enumerate(labels))


def conway(labels: tuple[int, ...]) -> LaurentPoly:
    """Conway polynomial of a girth-3 knot, extrapolated from the corners.

    An axis whose label is a corner picks its half of the table by
    indexing; only the off-corner axes are combined, one at a time.
    """
    pattern = _pattern(labels)
    kinds = KNOTS[pattern][0]
    corners = _corners(pattern)
    index = 0
    off = []
    for i, x in enumerate(labels):
        m = (x + (x & 1)) >> 1  # x = b_i + 2m
        if m == 1:
            index |= 1 << i
        elif m:
            off.append((i, m))
    picked = [index]
    for i, _ in off:
        picked += [c | 1 << i for c in picked]
    # position bit j of ``values`` is the corner bit of the j-th off axis
    values = [corners[c] for c in picked]
    for i, m in reversed(off):
        half = len(values) // 2
        fib = kinds[i] == FIBONACCI
        values = [_along(values[s], values[s + half], m, fib) for s in range(half)]
    (result,) = values
    return LaurentPoly.from_terms(tuple((2 * j, c) for j, c in enumerate(result) if c), "z")


@functools.cache
def _corners(pattern: int) -> tuple[tuple[int, ...], ...]:
    """The 64 corner polynomials of a knot pattern, decoded on first use."""
    return tuple(tuple(map(int, c.split(","))) for c in KNOTS[pattern][1].split())


def _along(f0, f1, m: int, fib: bool):
    """f(m) from f(0) = f0 and f(1) = f1, polynomials in s = z^2 listed from
    the constant term, where f(j+1) + f(j-1) = c f(j)."""
    if m < 0:  # g(j) = f(1 - j) obeys the same recurrence
        f0, f1, m = f1, f0, 1 - m
    for _ in range(m - 1):
        f0, f1 = f1, _next(f0, f1, fib)
    return f1


def _next(prev, cur, fib: bool) -> list[int]:
    """c cur - prev, with c = s + 2 if ``fib`` else 2."""
    out = [0] * max(len(cur) + fib, len(prev))
    for j, c in enumerate(cur):
        out[j] += 2 * c
        if fib:
            out[j + 1] += c
    for j, c in enumerate(prev):
        out[j] -= c
    return out
