"""The PD readers' checks as they were, one crossing at a time, kept as the
reference for the C-level checks of ``knotpair.diagram.pd_from_json`` and
``validate_pd``: every refusal must be worded as these word it.
"""

import itertools
import json
import sys

from knotpair.diagram import (
    InvalidPDError,
    PDCode,
    _corner_cycles,
    _json_int,
    _LongInt,
    _other_end,
    _pieces,
)
from knotpair.record import set_field


def validate_pd(pd):
    counts = {}
    for cr in pd.crossings:
        if len(cr) != 4:
            raise InvalidPDError(f"crossing {cr!r} is not a 4-tuple")
        for a in cr:
            counts[a] = counts.get(a, 0) + 1
    bad = {a: k for a, k in counts.items() if k != 2}
    if bad:
        raise InvalidPDError(f"arcs not appearing exactly twice: {bad}")
    n = pd.n()
    if n:
        other = _other_end(itertools.chain(*pd.crossings))
        cycles = _corner_cycles(other)
        f = len(cycles)
        pieces = _pieces(other)
        if f != n + 2 or pieces > 1:
            reason = (
                f"the diagram is split into {pieces} pieces"
                if pieces > 1
                else "the code does not describe a planar diagram"
            )
            if f != n + 2:
                reason = f"region count {f} violates Euler formula (expected {n + 2}); {reason}"
            raise InvalidPDError(reason)
        set_field(pd, "corner_cycles", cycles)


def pd_from_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        obj = json.loads(text, parse_int=_json_int)
    if not isinstance(obj, dict):
        raise InvalidPDError("PD JSON must be an object with a 'crossings' list")
    crossings = obj.get("crossings")
    if not isinstance(crossings, list):
        raise InvalidPDError(f"'crossings' must be a list, got {crossings!r}")
    for i, c in enumerate(crossings):
        if isinstance(c, list) and any(type(a) is _LongInt for a in c):
            raise InvalidPDError(
                f"crossings[{i}] has an arc id of more than "
                f"{sys.get_int_max_str_digits()} digits"
            )
        # type() rather than isinstance(): JSON true/false are not arc ids
        if not (isinstance(c, list) and len(c) == 4 and all(type(a) is int for a in c)):
            raise InvalidPDError(f"crossing {c!r} is not a list of 4 integers")
    free_loops = obj.get("free_loops", 0)
    if type(free_loops) is not int or free_loops < 0:
        raise InvalidPDError(
            f"'free_loops' must be a non-negative integer, got {free_loops!r}"
        )
    pd = PDCode(tuple(tuple(c) for c in crossings), free_loops)
    validate_pd(pd)
    return pd
