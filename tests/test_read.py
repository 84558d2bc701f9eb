"""The PD readers' C-level checks against the per-crossing reference.

``pd_from_json`` and ``validate_pd`` accept a code by a few whole-list
checks and run the per-crossing loop only to word a refusal.
``read_reference`` keeps both readers as they were; every input must be
read to an equal code with equal corner cycles, or refused with the same
error and the same text, as the reference reads or refuses it.
"""

import json
import sys

import read_reference as ref
from hypothesis import example, given, settings, strategies as st

from knotpair.diagram import PDCode, pd_from_json, pd_from_rep, validate_pd
from knotpair.reps import Girth2Rep, Girth3Rep

LONG = "@long@"  # stands for an integer of more digits than int() converts


def _long_digits():
    return "9" * (sys.get_int_max_str_digits() + 1)


def _outcome(fn, arg):
    try:
        pd = fn(arg)
    except Exception as exc:  # the refusal itself is compared
        return type(exc), str(exc)
    if pd is None:  # validate_pd: what it kept on the code
        return arg.corner_cycles
    return pd, pd.free_loops, pd.corner_cycles


_label = st.integers(-3, 3).filter(bool)
_templates = st.one_of(
    st.builds(Girth2Rep, _label, _label),
    st.builds(Girth3Rep, st.tuples(*[_label] * 3), st.tuples(*[_label] * 3)),
)
# what may stand in for an arc id or a crossing
_odd = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.just(LONG),
    st.none(),
    st.lists(st.integers(0, 9), max_size=5),
    st.lists(st.lists(st.integers(0, 9), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(0, 2), max_size=1),
)


@st.composite
def _codes(draw):
    """A template's crossings as lists, with at most a few changes: an arc
    id swapped for an odd value, for a new id (seen once) or for another
    arc's id (seen three times), an id dropped or added (3- and 5-tuples),
    or a crossing swapped for an odd value; and odd free loops."""
    crossings = [list(c) for c in pd_from_rep(draw(_templates)).crossings]
    arcs = sorted({a for c in crossings for a in c})
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(crossings) - 1))
        c = crossings[i]
        kind = draw(st.sampled_from(("odd arc", "new arc", "old arc", "drop", "add", "odd")))
        if not isinstance(c, list) or not c:
            continue
        j = draw(st.integers(0, len(c) - 1))
        if kind == "odd arc":
            c[j] = draw(_odd)
        elif kind == "new arc":
            c[j] = max(arcs) + 1
        elif kind == "old arc":
            c[j] = draw(st.sampled_from(arcs))
        elif kind == "drop":
            del c[j]
        elif kind == "add":
            c.insert(j, draw(st.sampled_from(arcs)))
        else:
            crossings[i] = draw(_odd)
    obj = {"crossings": crossings}
    if draw(st.integers(0, 4)) == 0:
        obj["free_loops"] = draw(st.one_of(st.integers(-1, 2), _odd))
    return json.dumps(obj)


_random_codes = st.lists(
    st.one_of(st.lists(st.one_of(st.integers(-2, 6), _odd), max_size=6), _odd), max_size=6
).map(lambda crossings: json.dumps({"crossings": crossings}))


@settings(max_examples=250, deadline=None)
@given(st.one_of(_codes(), _random_codes))
@example('{"crossings": [[1, 2, 3, 4], [3, 4, 1, 2.0]]}')
@example('{"crossings": [[1, 2, 3, 4], [3, 4, 1, true]]}')
@example('{"crossings": [[1, 2, 3], [3, 1, 2]]}')
@example('{"crossings": [[1, 1, 2, 2, 3], [3]]}')
@example('{"crossings": [[1, 2, 3, 4], [2, 3, 4, 1], [1, 5, 6, 5]]}')
@example('{"crossings": [[1, 2, [3], 4]]}')
@example('{"crossings": [[1, 2, "3", 4]]}')
@example('{"crossings": [[1, 2, 3, 4], [3, 4, 1, 2]], "free_loops": true}')
@example('{"crossings": [[1, 2, 3, %s]]}' % _long_digits())
@example('{"crossings": [], "free_loops": %s}' % _long_digits())
def test_pd_from_json_reads_and_refuses_as_the_reference(text):
    text = text.replace(json.dumps(LONG), _long_digits())
    assert _outcome(pd_from_json, text) == _outcome(ref.pd_from_json, text)


_arc = st.one_of(st.integers(0, 5), st.booleans(), st.floats(0, 5), st.sampled_from(("1", "a")))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_arc, min_size=3, max_size=5).map(tuple), max_size=5))
@example([(1, 2, 3, 4), (3, 4, 1, True)])
@example([(1, 1, 2, 2, 3)])
@example([(1, 2, 3), (1, 2, 3)])
@example([(1, 2, 3, 4), (1, 2, 3, 4), (1, 5, 6, 7)])
def test_validate_pd_refuses_as_the_reference(crossings):
    # codes built in the program, not read from text: any hashable arc ids
    crossings = tuple(crossings)
    new, old = PDCode(crossings), PDCode(crossings)
    assert _outcome(validate_pd, new) == _outcome(ref.validate_pd, old)


def test_the_benchmark_templates_read_as_the_reference():
    for rep in (Girth2Rep(7, -5), Girth3Rep((3, -2, 4), (-1, 2, 3))):
        text = json.dumps({"crossings": [list(c) for c in pd_from_rep(rep).crossings]})
        assert _outcome(pd_from_json, text) == _outcome(ref.pd_from_json, text)
