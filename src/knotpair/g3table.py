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
strands run opposite ways, and c = s + 2 with s = z^2 (``FIBONACCI``)
where they run the same way.  So a knot's nabla is fixed by its 64 values
at the corners, each label at b_i or b_i + 2, with b_i = -1 for an odd
label and 0 for an even one.

**The closed form.**  With U_j the Chebyshev polynomials of the second kind
in c/2 (U_-1 = 0, U_0 = 1, U_(j+1) = c U_j - U_(j-1)), an axis at m >= 1
gives f(m) = U_(m-1) f(1) - U_(m-2) f(0), and at m <= 0, where
g(j) = f(1 - j) obeys the same recurrence, f(m) = U_(n-1) f(0) -
U_(n-2) f(1) with n = 1 - m (``_weights``).  On an affine axis U_(n-1) = n;
on a Fibonacci axis U_(n-1) = sum_j C(n + j, 2j + 1) s^j, all coefficients
positive.  nabla is the sum over the corners c of f_c times one weight per
axis, a multilinear contraction: an axis at m = 0 or 1 picks its half of
the corners, and the other axes are contracted one at a time, the lowest
label first and the last label last (``_contract``).

**Packing.**  Everything is evaluated once at s = 2^k in Python ints, as
the closed brackets are (``closedform``): the census packs each pattern's
64 corners once, on first use (``_packed``), by Horner's rule over the
table's coefficient rows, one C-level pass a power of s, and one
labelling packs the corners it reads; a Fibonacci weight is the packed
list of its binomials, and the contraction is int products and sums.
``LaurentPoly.from_packed`` at stride 2 cuts the value into the
coefficients of z^0, z^2, ...

**Slot width.**  k is the least multiple of 8 with ``conway_bound`` below
2^(k-1), for the bound B = N prod_i v_i:

* N = ``CORNER_NORM``, the largest ||f_c||_1 over the corners of every
  knot pattern (tests/test_g3table.py checks it against the table).
* Write the axis weights as f(m) = w0 f(0) + w1 f(1).  By the formulas
  above, |w0| and |w1| are U_(n-1) and U_(n-2) with n <= j + 1,
  j = floor(|x| / 2): n = (|x| + 1)/2 for an odd label x, and |x|/2 or
  |x|/2 + 1 for an even one.  Their coefficients are positive, so
  ||w0||_1 + ||w1||_1 <= v = U_j + U_(j-1) at s = 1: 2j + 1 on an affine
  axis, the Lucas number L_(2j+1) on a Fibonacci one.  An axis at a corner
  has weights 1 and 0.
* nabla = sum_c f_c prod_i w_(i, c_i), so ||nabla||_1 <= N sum_c prod_i
  ||w_(i, c_i)||_1 = N prod_i (||w_(i,0)||_1 + ||w_(i,1)||_1) <= B, since
  ||p q||_1 <= ||p||_1 ||q||_1.

Every coefficient of nabla then fits a k-bit slot with the sign bit to
spare.  B grows with every |label|, and v is larger on a Fibonacci axis
than on an affine one, so the k of a label bound on Fibonacci axes serves
every labelling within it (``census_keys``).  The girth-2 census's bound
is that of (m, 0, 0, m, 0, 0), B = N L_(2j+1)^2 with j = floor(m / 2).
A K(p) of that census absorbed a +-1 label, so |p| <= m + 1 <= 2j + 2,
and its nabla (``closedform.conway_single_twist``) has the positive
coefficients C(n - i, i) with n = |p| - 1, which sum to the Fibonacci
number F_|p|, at most F_13 = 233 at the budget m = 12.  F_|p| <=
F_(2j+2) <= F_(2j) + F_(2j+2) = L_(2j+1) <= B, so K(p) fits the same
slots.

``g3table_data`` holds the reduced entries and, per knot pattern, the
kinds and the 64 corner polynomials as one row of signed bytes per power
of s (``_corner_rows``), made by tests/make_g3table.py from the reduced
templates, ``orient`` and ``oracle.conway_fox``.  This module imports
nothing from ``oracle``.  The independent checks are those that do
not read the table's own data: tests/test_g3table.py regenerates the table
and compares components and writhe with ``orient`` on full templates, the
extrapolated polynomial with Fox off the corners (a grid over every knot
pattern with shifts of -4..+4, and a property test), and the closed form
with the stepwise walk it replaced (tests/g3table_reference.py);
tests/test_diagram.py pins the girth-2 identity and compares the
components and writhe that ``classify.rep_invariants`` reads with the full
template on a grid and a property test; and ``classify.check_identities``
ties each value to the bracket.
"""

from __future__ import annotations

import functools
from itertools import repeat
from operator import add, lshift, mul

from . import closedform as cf
from .g3table_data import KNOTS, REDUCED
from .laurent import LaurentPoly
from .reps import Girth3Rep

AFFINE = "A"
FIBONACCI = "F"
CORNER_NORM = 31

_ENTRIES = bytes.fromhex(REDUCED)


def _submasks(mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axes of a 6-bit mask, lowest first, and its submasks, listed so
    that bit j of the position is the j-th lowest axis of the mask."""
    axes = tuple(i for i in range(6) if mask >> i & 1)
    subs = [0]
    for i in axes:
        subs += [s | 1 << i for s in subs]
    return axes, tuple(subs)


_SUBMASKS = [_submasks(mask) for mask in range(64)]


def _index(labels) -> int:
    """sum (r_i + 2) 5^i over the reduced labels r_i of ``labels``."""
    index = 0
    for x in reversed(labels):
        index = 5 * index + _digit(x)
    return index


def _digit(x: int) -> int:
    """r + 2 for the reduced label r of x."""
    r = 2 - (x & 1) if x else 0
    return 2 + (r if x > 0 else -r)


def _pattern(labels: tuple[int, ...]) -> int:
    return sum((x & 1) << i for i, x in enumerate(labels))


def _step(x: int) -> int:
    """m with x = b_i + 2m."""
    return (x + (x & 1)) >> 1


def components_and_writhe(labels: tuple[int, ...]) -> tuple[int, int]:
    """Component count and writhe of the template of a girth-3 labelling,
    oriented by ``orient``."""
    entry = _ENTRIES[_index(labels)]
    return entry >> 6, sum(-x if entry >> i & 1 else x for i, x in enumerate(labels))


def conway(labels: tuple[int, ...]) -> LaurentPoly:
    """Conway polynomial of a girth-3 knot, from one contraction at the
    slot width of its own labels."""
    pattern = _pattern(labels)
    kinds = KNOTS[pattern][0]
    k = _slot_bits(conway_bound(labels, kinds))
    corner = off = 0
    weights = {}
    for i, x in enumerate(labels):
        m = _step(x)
        if m == 1:
            corner |= 1 << i
        elif m:
            off |= 1 << i
            weights[kinds[i], x] = _weights(m, kinds[i] == FIBONACCI, k)
    axes, subs = _SUBMASKS[off]
    corners = _corners(pattern)
    values = [_pack(corners[corner | sub], k) for sub in subs]
    nabla = _contract(values, axes, kinds, labels, weights)
    return LaurentPoly.from_packed(nabla, 0, k, 2, "z")


def census_keys(girth: int, max_abs: int, cap: int):
    """(key, conway) for the census of girth ``girth`` (2 or 3) with labels
    bounded by ``max_abs``.

    ``key(labels)`` is (components, writhe, nabla) of the rep with these
    ``reps.rep_labels``: nabla is the knot's Conway polynomial at
    z = 2^(k/2), one int, or None for a link or a knot of more than
    ``cap`` crossings with an odd label.  ``conway(nabla)`` decodes it.
    k is ``_slot_bits`` of ``conway_bound`` on six Fibonacci axes at the
    labels (max_abs,) * 6, or (max_abs, 0, 0, max_abs, 0, 0) for girth 2,
    so it holds every knot of the census (module docstring), and two
    knots have equal ints exactly when their polynomials are equal (one
    expansion in balanced slots).  An all-even knot packs the terms of
    ``closedform.conway_girth3_even``, the same polynomial as the
    table's; a term in an odd power would move a slot by 2^(k/2), which
    the identities of the decoded value refuse.

    A girth-2 rep K(p, q) is keyed as the labelling (p, 0, 0, q, 0, 0),
    whose template it is.  A K(p) that absorbed a +-1 label is a knot of
    writhe -p, its terms (``closedform.conway_single_twist``) packed at
    the same k, when p is odd, and otherwise two components of writhe
    -|p|, as ``classify.closed_invariants`` has it.

    One pass over the labels sums per-label fields: the reduced index, the
    parity pattern, the corner bits, the off-corner axes and the crossing
    count.  The weights of each axis kind at each label are made once.
    """
    labels_range = range(-max_abs, max_abs + 1)
    bound = (max_abs,) * 6 if girth == 3 else (max_abs, 0, 0, max_abs, 0, 0)
    k = _slot_bits(conway_bound(bound, FIBONACCI * 6))
    half = k >> 1
    fields = []
    for i in range(6):
        per_label = {}
        for x in labels_range:
            m = _step(x)
            per_label[x] = (
                _digit(x) * 5**i
                | (x & 1) << 14 + i
                | (m == 1) << 20 + i
                | (m not in (0, 1)) << 26 + i
                | abs(x) << 32
            )
        fields.append(per_label)
    f0, f1, f2, f3, f4, f5 = fields
    signs = [tuple(-1 if d >> i & 1 else 1 for i in range(6)) for d in range(64)]
    weights = {
        (kind, x): _weights(_step(x), kind == FIBONACCI, k)
        for kind in (AFFINE, FIBONACCI)
        for x in labels_range
    }

    def key(labels: tuple) -> tuple:
        x0, x1, x2, x3, x4, x5 = labels
        s = f0[x0] + f1[x1] + f2[x2] + f3[x3] + f4[x4] + f5[x5]
        entry = _ENTRIES[s & 0x3FFF]
        writhe = sum(map(mul, labels, signs[entry & 63]))
        if entry >> 6 != 1:
            return entry >> 6, writhe, None
        pattern = s >> 14 & 63
        if not pattern:
            even = cf.conway_girth3_even(Girth3Rep(labels[:3], labels[3:]))
            return 1, writhe, sum(c << half * e for e, c in even.terms)
        if s >> 32 > cap:
            return 1, writhe, None
        corners = _packed(pattern, k)
        corner = s >> 20 & 63
        axes, subs = _SUBMASKS[s >> 26 & 63]
        values = [corners[corner | sub] for sub in subs]
        return 1, writhe, _contract(values, axes, KNOTS[pattern][0], labels, weights)

    conway_of = functools.partial(LaurentPoly.from_packed, low=0, k=k, stride=2, tag="z")
    if girth == 3:
        return key, conway_of

    def girth2_key(labels: tuple) -> tuple:
        if len(labels) == 2:
            p, q = labels
            return key((p, 0, 0, q, 0, 0))
        (p,) = labels
        if p % 2 == 0:
            return 2, -abs(p), None
        return 1, -p, sum(c << half * e for e, c in cf.conway_single_twist(p).terms)

    return girth2_key, conway_of


def _contract(values: list, axes, kinds: str, labels, weights) -> int:
    """nabla from the packed corners that the off-corner ``axes`` span, in
    the order of their ``_SUBMASKS``: the axes are contracted with their
    weights, the lowest first.  ``weights[kind, x]`` is (w0, w1) of an axis
    of that kind at label x."""
    for i in axes:
        w0, w1 = weights[kinds[i], labels[i]]
        values = [w0 * f0 + w1 * f1 for f0, f1 in zip(values[::2], values[1::2])]
    return values[0]


def _weights(m: int, fib: bool, k: int) -> tuple[int, int]:
    """(w0, w1) with f(m) = w0 f(0) + w1 f(1), at s = 2^k on a Fibonacci axis."""
    n = m if m >= 1 else 1 - m
    if fib:
        u1, u2 = _chebyshev(n, k), _chebyshev(n - 1, k)
    else:
        u1, u2 = n, n - 1
    return (-u2, u1) if m >= 1 else (u1, -u2)


def _chebyshev(n: int, k: int) -> int:
    """U_(n-1) at c = s + 2, s = 2^k: sum_j C(n + j, 2j + 1) 2^(kj), for
    n >= 0.  Each binomial is the one before times
    (n + j + 1)(n - j - 1) / ((2j + 2)(2j + 3)), and each fits its k-bit
    slot, being at most U_(n-1) at s = 1."""
    width = k // 8
    coeff = n
    slots = []
    for j in range(n):
        slots.append(coeff.to_bytes(width, "little"))
        coeff = coeff * (n + j + 1) * (n - j - 1) // ((2 * j + 2) * (2 * j + 3))
    return int.from_bytes(b"".join(slots), "little")


def conway_bound(labels, kinds: str) -> int:
    """B = N prod_i v_i of the module docstring, a bound on ||nabla||_1 of
    every knot whose labels are no larger in absolute value, on axes of
    these kinds or affine ones."""
    bound = CORNER_NORM
    for x, kind in zip(labels, kinds):
        c = 3 if kind == FIBONACCI else 2
        u0, u1 = 0, 1  # U_-1, U_0 at s = 1
        for _ in range(abs(x) >> 1):
            u0, u1 = u1, c * u1 - u0
        bound *= u0 + u1
    return bound


def _slot_bits(bound: int) -> int:
    """k, the least multiple of 8 with bound < 2^(k-1)."""
    return 8 * ((bound.bit_length() + 8) // 8)


def _corner_rows(pattern: int) -> list[memoryview]:
    """The coefficient rows of a knot pattern's 64 corners, the constant
    term first: row j holds the coefficient of s^j of corner c at index c."""
    return [memoryview(bytes.fromhex(row)).cast("b") for row in KNOTS[pattern][1]]


@functools.cache
def _corners(pattern: int) -> tuple[tuple[int, ...], ...]:
    """The 64 corner polynomials of a knot pattern, each its coefficients
    of s^0, s^1, ... up to its last nonzero one, decoded on first use."""
    corners = []
    for coeffs in zip(*_corner_rows(pattern)):
        end = len(coeffs)
        while not coeffs[end - 1]:  # a knot's nabla has constant term 1
            end -= 1
        corners.append(coeffs[:end])
    return tuple(corners)


@functools.cache
def _packed(pattern: int, k: int) -> tuple[int, ...]:
    """The 64 corners of a knot pattern at s = 2^k: Horner's rule over the
    coefficient rows, the highest power first, one C-level pass a row."""
    *rows, values = _corner_rows(pattern)
    for row in reversed(rows):
        values = map(add, map(lshift, values, repeat(k)), row)
    return tuple(values)


def _pack(coeffs: tuple[int, ...], k: int) -> int:
    """A polynomial in s at s = 2^k, by Horner's rule."""
    value = 0
    for c in reversed(coeffs):
        value = (value << k) + c
    return value
