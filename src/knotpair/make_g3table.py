"""Build the frozen girth-3 parity-pattern table ``g3table_data.py``.

Run from the root of a checkout after any change to the templates or the
oracles (tests/test_g3table.py fails until the shipped table matches):

    PYTHONPATH=src python -m knotpair.make_g3table

A parity pattern is the 6-bit number with bit i the parity of label i of
(p, q, r, a, b, c).  For every pattern the oriented template of its
reduced labels (1 for odd, 2 for even, all positive) gives the component
count.  For each of the knot patterns it also gives each region's writhe
sign, the sign of the region's first crossing, and ``conway_fox`` gives the
64 corner Conway polynomials and each region's kind (``g3table``).
"""

from __future__ import annotations

import os

from .diagram import _ladder_labels, orient, pd_from_rep
from .g3table import AFFINE, FIBONACCI, _next, base_label
from .oracle import conway_fox
from .reps import Girth3Rep

HEADER = '''"""Frozen girth-3 parity-pattern table; see ``g3table``.

Generated by ``python -m knotpair.make_g3table`` from the templates and
``oracle.conway_fox``; do not edit by hand.

``COMPONENTS[pattern]`` is the component count of a parity pattern.
``KNOTS[pattern]`` is (kinds, sigma, corners) for a knot pattern: the
kind of each region, A(ffine) or F(ibonacci); each region's writhe sign;
and the 64 corner polynomials, corner c having label b_i + 2 for each bit
i set in c and b_i otherwise.  The corners are split by spaces, and each
lists its z^0, z^2, ... coefficients split by commas.
"""
'''


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
        value = _next(below, f0, kind == FIBONACCI)
        while value and not value[-1]:
            value.pop()
        if tuple(value) == f1:
            return kind
    raise AssertionError(f"no two-term recurrence fits {below}, {f0}, {f1}")


def _knot_entry(pattern: int, signs: tuple[int, ...], small: list[int]):
    base = [base_label(pattern, i) for i in range(6)]
    sigma = [0] * 6
    first = 0
    ladders = _ladder_labels(_rep(range(6)))  # label indices in crossing order
    for i in ladders:
        sigma[i] = signs[first]
        first += small[i]
    corners = tuple(
        _conway_coeffs([base[i] + 2 * (corner >> i & 1) for i in range(6)])
        for corner in range(64)
    )
    kinds = ""
    for i in range(6):
        below = list(base)
        below[i] -= 2
        kinds += _kind(_conway_coeffs(below), corners[0], corners[1 << i])
    return kinds, tuple(sigma), corners


def build_table() -> tuple[tuple[int, ...], dict]:
    """(component count per pattern, {knot pattern: (kinds, sigma, corners)})."""
    components = []
    knots = {}
    for pattern in range(64):
        small = [1 if pattern >> i & 1 else 2 for i in range(6)]
        ori = orient(pd_from_rep(_rep(small)))
        components.append(ori.n_components)
        if ori.n_components == 1:
            knots[pattern] = _knot_entry(pattern, ori.signs, small)
    return tuple(components), knots


def render(table) -> str:
    """The text of ``g3table_data.py``.  The corner polynomials are one
    string per pattern, corners split by spaces and coefficients by commas:
    a module of int and tuple literals costs megabytes to compile."""
    components, knots = table
    lines = [HEADER, "COMPONENTS = ("]
    for start in range(0, 64, 16):
        lines.append("    " + " ".join(f"{c}," for c in components[start:start + 16]))
    lines += [")", "", "KNOTS = {"]
    for pattern, (kinds, sigma, corners) in knots.items():
        lines.append(f"    {pattern}: ({kinds!r}, {sigma!r},")
        for start in range(0, 64, 16):
            text = " ".join(",".join(map(str, c)) for c in corners[start:start + 16])
            lines.append(f'        "{text} "')
        lines[-1] += "),"
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "g3table_data.py")
    with open(path, "w") as f:
        f.write(render(build_table()))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
