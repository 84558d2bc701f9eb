"""The stepwise extrapolation of the girth-3 Conway table, kept as the
reference for ``knotpair.g3table.conway``, which evaluates the Chebyshev
closed form of the same recurrence once at s = z^2 = 2^k.

``conway`` walks each off-corner axis one step of f(j+1) = c f(j) - f(j-1)
at a time on coefficient lists in s, the last label first.  ``corners``
decodes a pattern's corner polynomials off the table, and ``pack`` packs
one at s = 2^k on its own, the reference for ``g3table._packed``.
``conway_bound`` steps the Chebyshev recurrence on every axis, the
reference for ``g3table.conway_bound``, which takes an affine axis in
closed form.
"""

import functools

from knotpair.g3table import CORNER_NORM, FIBONACCI, KNOTS, _corner_rows
from knotpair.laurent import LaurentPoly


def conway_bound(labels, kinds: str) -> int:
    """CORNER_NORM prod_i v_i, v_i = U_(m-1) + U_m at s = 1, m = |x_i| >> 1,
    stepped from U_-1 = 0, U_0 = 1 with c = 3 on a Fibonacci axis and
    c = 2 on an affine one."""
    bound = CORNER_NORM
    for x, kind in zip(labels, kinds):
        c = 3 if kind == FIBONACCI else 2
        u0, u1 = 0, 1
        for _ in range(abs(x) >> 1):
            u0, u1 = u1, c * u1 - u0
        bound *= u0 + u1
    return bound


def _pattern(labels) -> int:
    """The parity pattern: bit i is the parity of label i."""
    return sum((x & 1) << i for i, x in enumerate(labels))


def conway(labels) -> LaurentPoly:
    """Conway polynomial of a girth-3 knot, extrapolated from the corners.

    An axis whose label is a corner picks its half of the table by
    indexing; only the off-corner axes are combined, one at a time.
    """
    pattern = _pattern(labels)
    kinds = KNOTS[pattern][0]
    table = corners(pattern)
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
    values = [table[c] for c in picked]
    for i, m in reversed(off):
        half = len(values) // 2
        fib = kinds[i] == FIBONACCI
        values = [along(values[s], values[s + half], m, fib) for s in range(half)]
    (result,) = values
    return LaurentPoly.from_terms(tuple((2 * j, c) for j, c in enumerate(result) if c), "z")


@functools.cache
def corners(pattern: int) -> tuple[tuple[int, ...], ...]:
    """The 64 corner polynomials of a knot pattern, each its coefficients
    of s^0, s^1, ... up to its last nonzero one, decoded on first use."""
    out = []
    for coeffs in zip(*_corner_rows(pattern)):
        end = len(coeffs)
        while not coeffs[end - 1]:  # a knot's nabla has constant term 1
            end -= 1
        out.append(coeffs[:end])
    return tuple(out)


def pack(coeffs: tuple[int, ...], k: int) -> int:
    """A polynomial in s at s = 2^k, by Horner's rule."""
    value = 0
    for c in reversed(coeffs):
        value = (value << k) + c
    return value


def base_label(pattern: int, i: int) -> int:
    """b_i: the lower corner label of region i, -1 if odd, 0 if even."""
    return -(pattern >> i & 1)


def along(f0, f1, m: int, fib: bool):
    """f(m) from f(0) = f0 and f(1) = f1, polynomials in s = z^2 listed from
    the constant term, where f(j+1) + f(j-1) = c f(j)."""
    if m < 0:  # g(j) = f(1 - j) obeys the same recurrence
        f0, f1, m = f1, f0, 1 - m
    for _ in range(m - 1):
        f0, f1 = f1, next_value(f0, f1, fib)
    return f1


def next_value(prev, cur, fib: bool) -> list[int]:
    """c cur - prev, with c = s + 2 if ``fib`` else 2."""
    out = [0] * max(len(cur) + fib, len(prev))
    for j, c in enumerate(cur):
        out[j] += 2 * c
        if fib:
            out[j + 1] += c
    for j, c in enumerate(prev):
        out[j] -= c
    return out
