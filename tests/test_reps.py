import itertools
import sys

import pytest

from knotpair.diagram import orient, pd_from_rep
from knotpair.laurent import jones_from_bracket
from knotpair.oracle import bracket_state_sum
from knotpair.reps import (
    Girth1Rep,
    Girth2Rep,
    Girth3Rep,
    _g3_key,
    canonicalize,
    d3_orbit,
    mirror,
    parse_rep,
)


def jones(rep):
    pd = pd_from_rep(rep)
    return jones_from_bracket(bracket_state_sum(pd), orient(pd).writhe)


def test_parse_examples():
    assert parse_rep("(3)") == Girth1Rep(3)
    assert parse_rep("(2,-2)") == Girth2Rep(2, -2)
    assert parse_rep("[0 2 2 / 0 -1 -1]") == Girth3Rep((0, 2, 2), (0, -1, -1))


@pytest.mark.parametrize(
    "template, notation, name",
    [("({})", "(p)", "p"), ("(2,{})", "(p,q)", "q"), ("[1 2 3 / 4 -{} 6]", "[p q r / a b c]", "b")],
)
def test_parse_names_a_label_too_long_to_convert(template, notation, name):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError) as err:
        parse_rep(template.format("7" * (limit + 1)))
    assert str(err.value) == f"label {name} of {notation} has more than {limit} digits"


def test_parse_round_trip_through_rendering():
    for rep in (Girth1Rep(-5), Girth2Rep(3, -2), Girth3Rep((1, 0, -2), (3, -1, 0))):
        assert parse_rep(str(rep)) == rep


def test_parse_rejects_malformed():
    for bad in ("(3", "(1,2,3)", "[1 2 / 3 4]", "noise", "[1 2 3 | 4 5 6]"):
        with pytest.raises(ValueError):
            parse_rep(bad)


def test_mirror_involution():
    reps = [Girth1Rep(4), Girth2Rep(2, 2), Girth3Rep((1, -2, 0), (2, 2, -1))]
    for rep in reps:
        assert mirror(mirror(rep)) == rep
    assert mirror(Girth2Rep(2, 2)) == Girth2Rep(-2, -2)


def test_mirror_inverts_bracket_variable():
    rep = Girth1Rep(3)
    b = bracket_state_sum(pd_from_rep(rep))
    bm = bracket_state_sum(pd_from_rep(mirror(rep)))
    assert bm == b.invert_variable()


def test_d3_orbit_membership():
    r = Girth3Rep((1, 2, 3), (4, 5, 6))
    orbit = d3_orbit(r)
    assert Girth3Rep((2, 3, 1), (5, 6, 4)) in orbit  # cyclic rotation
    assert Girth3Rep((1, 3, 2), (6, 5, 4)) in orbit  # reflection
    assert Girth3Rep((4, 6, 5), (1, 3, 2)) in orbit  # ring swap
    assert 12 % len(orbit) == 0


def test_d3_orbit_fixed_point():
    assert len(d3_orbit(Girth3Rep((2, 2, 2), (2, 2, 2)))) == 1


def test_d3_orbit_is_isotopy_on_templates():
    # every orbit member has the same oriented Jones polynomial, exactly
    r = Girth3Rep((1, 2, 3), (-1, 0, 2))
    j = jones(r)
    for member in d3_orbit(r):
        assert jones(member) == j


def test_plain_row_transposition_is_not_a_symmetry():
    # swapping the rows without the compensating reflection changes the knot
    from knotpair.oracle import conway_fox

    r = Girth3Rep((2, 2, 4), (2, 4, 2))
    swapped = Girth3Rep((2, 4, 2), (2, 2, 4))
    assert swapped not in d3_orbit(r)
    assert conway_fox(pd_from_rep(r)) != conway_fox(pd_from_rep(swapped))


def test_canonicalize_girth2_examples():
    assert canonicalize(Girth2Rep(3, -2)).key == canonicalize(Girth2Rep(-2, 3)).key
    c = canonicalize(Girth2Rep(2, -1))
    assert c.rep == Girth1Rep(3)
    assert c.key == ("g1", 3)
    c = canonicalize(Girth2Rep(2, 1))
    assert c.rep == Girth1Rep(1)
    assert c.key == ("g1", 1)


def test_canonicalize_idempotent_and_orbit_constant():
    r = Girth3Rep((1, 2, 0), (-1, -2, -3))
    key = canonicalize(r).key
    for member in d3_orbit(r):
        assert canonicalize(member).key == key
    canon = canonicalize(r).rep
    assert canonicalize(canon).key == key


def test_canonicalize_matches_oracle_jones_for_girth2():
    # the reductions are isotopies; for two-component links the Jones
    # polynomial is compared up to orientation units t^(3k)
    from knotpair.classify import jones_equal

    for p in range(-6, 7):
        for q in range(-6, 7):
            rep = Girth2Rep(p, q)
            canon = canonicalize(rep).rep
            multi = orient(pd_from_rep(rep)).n_components > 1
            assert jones_equal(jones(rep), jones(canon), unit_shift=multi), (p, q)


def test_g3_key_table_matches_orbit_minimum():
    for labels in itertools.product(range(-2, 3), repeat=6):
        rep = Girth3Rep(labels[:3], labels[3:])
        orbit_min = min(x.top + x.bottom for x in d3_orbit(rep))
        assert _g3_key(rep) == ("g3",) + orbit_min
