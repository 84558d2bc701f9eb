"""Diagrams that no command builds, and PD JSON written out, for the tests.

The commands read PD codes (``knotpair.diagram.pd_from_json``) and build the
tree-pair templates (``pd_from_rep``).  The tests also need diagrams from
outside those families, pretzels and braid closures, made with the same
``DiagramBuilder``, and PD files to hand to the CLI.
"""

import json

from knotpair.diagram import INSIDE_HANDEDNESS, DiagramBuilder, PDCode, _ladder


def pd_to_json(pd: PDCode) -> str:
    """The PD JSON form that ``pd_from_json`` reads."""
    obj: dict = {"crossings": [list(c) for c in pd.crossings]}
    if pd.free_loops:
        obj["free_loops"] = pd.free_loops
    return json.dumps(obj)


def pretzel_pd(e1: int, e2: int, e3: int) -> PDCode:
    """Reference (e1,e2,e3) pretzel: three vertical twist regions closed up.

    Used only as an independent anchor for template calibration; the
    handedness convention here follows the inside-tree convention.
    """
    b = DiagramBuilder()
    tops = [(b.point(), b.point()) for i in range(3)]
    bots = [(b.point(), b.point()) for i in range(3)]
    for i, e in enumerate((e1, e2, e3)):
        _ladder(b, e, tops[i][0], tops[i][1], bots[i][0], bots[i][1], INSIDE_HANDEDNESS)
    for i in range(3):
        b.connect(tops[i][1], tops[(i + 1) % 3][0])
        b.connect(bots[i][1], bots[(i + 1) % 3][0])
    return b.build()


def braid_closure_pd(word: list[int], strands: int) -> PDCode:
    """Trace closure of a braid word; letter +-i crosses strands i, i+1."""
    b = DiagramBuilder()
    start = [b.point() for i in range(strands)]
    cur = list(start)
    for letter in word:
        i = abs(letter) - 1
        if not 0 <= i < strands - 1:
            raise ValueError(f"letter {letter} out of range for {strands} strands")
        nw, ne, sw, se = b.point(), b.point(), b.point(), b.point()
        b.connect(cur[i], nw)
        b.connect(cur[i + 1], ne)
        if letter > 0:
            b.add_crossing(ne, nw, sw, se)
        else:
            b.add_crossing(nw, sw, se, ne)
        cur[i], cur[i + 1] = sw, se
    for i in range(strands):
        b.connect(cur[i], start[i])
    return b.build()
