"""Build the frozen girth-3 table ``g3table_data.py``.

Run from the root of a checkout after any change to the templates or the
oracles (tests/test_g3table.py fails until the shipped table matches):

    PYTHONPATH=src python tests/make_g3table.py

A reduced labelling replaces each label x of (p, q, r, a, b, c) by
sign(x) * (1 if x is odd else 2), or 0.  For each of the 5^6 reduced
labellings, ``orient`` of the reduced template gives the component count
and each region's direction sign d_i, the sign of the region's first
crossing times the sign of its label.  A parity pattern is the 6-bit
number with bit i the parity of label i.  For each knot pattern,
``conway_fox`` gives the 64 corner Conway polynomials and each region's
kind (``g3table``).
"""

from __future__ import annotations

from g3table_reference import base_label, next_value
from knotpair import g3table_data
from knotpair.diagram import orient, pd_from_rep
from knotpair.g3table import AFFINE, FIBONACCI, _fields
from knotpair.oracle import conway_fox
from knotpair.reps import Girth3Rep

HEADER = '''"""Frozen girth-3 table; see ``g3table``.

Generated by ``PYTHONPATH=src python tests/make_g3table.py`` from the
templates and ``oracle.conway_fox``; do not edit by hand.

``REDUCED`` holds two hex digits per reduced labelling r, at index
sum (r_i + 2) 5^i: the byte 64 * components + sum of 2^i over the regions
i with direction sign d_i = -1.  ``KNOTS[pattern]`` is (kinds, rows) for a
knot parity pattern: the kind of each region, A(ffine) or F(ibonacci), and
the 64 corner polynomials in s = z^2, corner c having label b_i + 2 for
each bit i set in c and b_i otherwise.  Row j holds the coefficients of
s^j, lowest power first: 64 signed bytes in hex, that of corner c at
byte c.
"""
'''

# label indices of (p, q, r, a, b, c) in the order of the template's
# ladders: ``_write_template`` emits inner and outer ladders alternately
LADDERS = (0, 3, 1, 4, 2, 5)


def _rep(labels) -> Girth3Rep:
    return Girth3Rep(tuple(labels[:3]), tuple(labels[3:]))


def _conway_coeffs(labels) -> tuple[int, ...]:
    """Fox's Conway polynomial of a girth-3 knot as its z^0, z^2, ... coefficients."""
    coeffs = dict(conway_fox(pd_from_rep(_rep(labels))).terms)
    assert all(e % 2 == 0 for e in coeffs), "a knot's Conway polynomial is even"
    return tuple(coeffs.get(e, 0) for e in range(0, max(coeffs) + 1, 2))


def _kind(below, f0, f1) -> str:
    """The kind whose recurrence f(1) = c f(0) - f(-1) three points of a region obey."""
    for kind in (AFFINE, FIBONACCI):
        value = next_value(below, f0, kind == FIBONACCI)
        while value and not value[-1]:
            value.pop()
        if tuple(value) == f1:
            return kind
    raise AssertionError(f"no two-term recurrence fits {below}, {f0}, {f1}")


def _knot_entry(pattern: int):
    base = [base_label(pattern, i) for i in range(6)]
    corners = tuple(
        _conway_coeffs([base[i] + 2 * (corner >> i & 1) for i in range(6)])
        for corner in range(64)
    )
    kinds = ""
    for i in range(6):
        below = list(base)
        below[i] -= 2
        kinds += _kind(_conway_coeffs(below), corners[0], corners[1 << i])
    return kinds, corners


def _reduced_entry(reduced: tuple[int, ...]) -> int:
    """64 * components + sum of 2^i over the regions i with d_i = -1."""
    ori = orient(pd_from_rep(_rep(reduced)))
    entry = ori.n_components << 6
    first = 0  # the index of the region's first crossing
    for i in LADDERS:
        if reduced[i] and ori.signs[first] * reduced[i] < 0:
            entry |= 1 << i
        first += abs(reduced[i])
    return entry


def build_table() -> tuple[bytes, dict]:
    """(one entry per reduced labelling, {knot pattern: (kinds, corners)})."""
    entries = bytes(
        _reduced_entry(tuple(index // 5**i % 5 - 2 for i in range(6)))
        for index in range(5**6)
    )
    knots = {}
    for pattern in range(64):
        # the components depend on the parities alone
        small = [1 if pattern >> i & 1 else 2 for i in range(6)]
        if entries[_fields(small) & 0x3FFF] >> 6 == 1:
            knots[pattern] = _knot_entry(pattern)
    return entries, knots


def render(table) -> str:
    """The text of ``g3table_data.py``.  The entries and the corner rows
    are hex strings, split by lines: a module of int and tuple literals
    costs megabytes to compile."""
    entries, knots = table
    text = entries.hex()
    lines = [HEADER, "REDUCED = ("]
    lines += [f'    "{text[start:start + 100]}"' for start in range(0, len(text), 100)]
    lines += [")", "", "KNOTS = {"]
    for pattern, (kinds, corners) in knots.items():
        lines.append(f"    {pattern}: ({kinds!r}, (")
        for power in range(max(map(len, corners))):
            row = [c[power] if power < len(c) else 0 for c in corners]
            assert all(-128 <= x < 128 for x in row), "a corner coefficient fits a signed byte"
            lines.append(f'        "{bytes(x & 0xFF for x in row).hex()}",')
        lines.append("    )),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    path = g3table_data.__file__
    with open(path, "w") as f:
        f.write(render(build_table()))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
