"""Frozen-convention proofs.

The template handedness constants, the tait label signs, and the flank
convention were each selected by the grids below; these tests are the
written record that the frozen choice is the one that works, and that
flipping any constant breaks the corresponding grid.
"""

import pytest

import knotpair.diagram as diagram
import knotpair.girth as girth_mod
from knotpair.closedform import bracket_double_twist, bracket_girth3, loop_value
from knotpair.diagram import orient, pd_from_rep
from knotpair.laurent import LaurentPoly, jones_from_bracket
from knotpair.oracle import bracket_state_sum
from knotpair.reps import Girth1Rep, Girth2Rep, Girth3Rep, canonicalize

from diagram_builders import pretzel_pd, reference_torus2_pd


def jones(pd):
    return jones_from_bracket(bracket_state_sum(pd), orient(pd).writhe)


def test_frozen_constants():
    assert diagram.INSIDE_HANDEDNESS == 1
    assert diagram.OUTSIDE_HANDEDNESS == -1
    assert diagram.GIRTH1_HANDEDNESS == 1
    assert girth_mod.LABEL_SIGN_BLACK == -1
    assert girth_mod.LABEL_SIGN_WHITE == -1
    assert girth_mod.FLANK == 3


def test_bracket_calibration_grid():
    # the defining grid: closed form == state sum for all |p|,|q| <= 3
    for p in range(-3, 4):
        for q in range(-3, 4):
            pd = pd_from_rep(Girth2Rep(p, q))
            assert bracket_state_sum(pd) == bracket_double_twist(p, q), (p, q)


def test_bracket_calibration_is_unique(monkeypatch):
    # flipping either handedness breaks the grid somewhere
    for attr in ("INSIDE_HANDEDNESS", "OUTSIDE_HANDEDNESS"):
        with monkeypatch.context() as m:
            m.setattr(diagram, attr, -getattr(diagram, attr))
            broken = False
            for p in range(-3, 4):
                for q in range(-3, 4):
                    pd = pd_from_rep(Girth2Rep(p, q))
                    if bracket_state_sum(pd) != bracket_double_twist(p, q):
                        broken = True
                        break
                if broken:
                    break
            assert broken, f"flipping {attr} should break the calibration grid"


def test_loop_value_convention():
    # Lemma-level anchors: the formula gives 1 at (0,0) and delta at (1,1),
    # matching a state sum normalized to <single circle> = 1
    assert bracket_double_twist(0, 0) == LaurentPoly.one("A")
    assert bracket_double_twist(1, 1) == loop_value()
    assert bracket_state_sum(pd_from_rep(Girth2Rep(0, 0))) == LaurentPoly.one("A")
    assert bracket_state_sum(pd_from_rep(Girth2Rep(1, 1))) == loop_value()


def test_girth1_closure_calibration():
    # K(p,+-1) = K(p-+1) is an isotopy, so the oriented invariant agrees
    for p in range(-4, 5):
        for eps in (1, -1):
            lhs = jones(pd_from_rep(Girth2Rep(p, eps)))
            rhs = jones(reference_torus2_pd(p - eps))
            assert lhs == rhs, (p, eps)


def test_girth1_handedness_is_that_of_the_padded_template(monkeypatch):
    # a K(p) is written as its padded girth-3 labelling, so no template
    # reads GIRTH1_HANDEDNESS; the frozen value is the one under which the
    # closed single ladder of the reference is the written template, and
    # the flipped value is not
    grid = [p for p in range(-4, 5) if p]
    for p in grid:
        assert reference_torus2_pd(p) == pd_from_rep(Girth1Rep(p)), p
    monkeypatch.setattr(diagram, "GIRTH1_HANDEDNESS", -diagram.GIRTH1_HANDEDNESS)
    assert any(reference_torus2_pd(p) != pd_from_rep(Girth1Rep(p)) for p in grid)


def test_writhe_convention_matches_label_sums():
    for p in range(2, 6, 2):
        for q in range(2, 6, 2):
            assert orient(pd_from_rep(Girth2Rep(p, q))).writhe == p + q
    for rep in (Girth3Rep((2, 2, 2), (2, 2, 2)), Girth3Rep((2, 4, 6), (2, 2, 4))):
        assert orient(pd_from_rep(rep)).writhe == sum(rep.top) + sum(rep.bottom)


def test_girth3_template_matches_closed_bracket():
    import random

    rng = random.Random(31)
    for _ in range(40):
        rep = Girth3Rep(
            tuple(rng.randint(-2, 2) for _ in range(3)),
            tuple(rng.randint(-2, 2) for _ in range(3)),
        )
        assert bracket_state_sum(pd_from_rep(rep)) == bracket_girth3(rep)


def test_pretzel_anchor():
    # K(p q r / s t 0) is the (p-s, q, r-t) pretzel whenever the absorbed
    # labels stay nonzero
    import random

    rng = random.Random(8)
    checked = 0
    while checked < 15:
        p, q, r = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
        s, t = rng.choice([1, -1]), rng.choice([1, -1])
        if p == s or r == t:
            continue
        assert jones(pd_from_rep(Girth3Rep((p, q, r), (s, t, 0)))) == jones(
            pretzel_pd(p - s, q, r - t)
        )
        checked += 1


def test_figure2_wheel_recovery_pins_flank_and_label_signs():
    from girth_reference import decompositions_of_girth
    from knotpair.girth import diagram_girth, rep_from_decomposition

    rep = Girth3Rep((0, 2, 2), (0, -1, -1))
    target = canonicalize(rep)
    pd = pd_from_rep(rep)
    g, _ = diagram_girth(pd)
    assert g == 3
    keys = set()
    for d in decompositions_of_girth(pd, 3):
        rec = rep_from_decomposition(d)
        if isinstance(rec, Girth3Rep):
            keys.add(canonicalize(rec))
    assert target in keys


def test_girth2_label_sign_round_trip():
    from knotpair.girth import diagram_girth, rep_from_decomposition

    for (p, q) in [(3, -2), (2, 3), (4, -3), (2, -4)]:
        pd = pd_from_rep(Girth2Rep(p, q))
        _, witness = diagram_girth(pd)
        rec = rep_from_decomposition(witness)
        assert canonicalize(rec) == canonicalize(Girth2Rep(p, q)), (p, q)
