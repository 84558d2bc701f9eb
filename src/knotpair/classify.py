"""Decision procedures: symmetry detection vs invariant separation.

A verdict never claims knot equivalence from invariant equality alone;
``Unresolved`` is a first-class outcome.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import neg

from . import closedform as cf
from . import oracle
from .laurent import LaurentPoly, packed_slots, poly_to_text
from .record import Record, set_field
from .reps import (
    Girth3Rep,
    canonicalize,
    d3_orbit,
    g3_labels,
    mirror,
    rep_labels,
    template_crossings,
)

EQUAL_BY_SYMMETRY = "EqualBySymmetry"
DISTINCT_BY_CONWAY = "DistinctByConway"
DISTINCT_BY_JONES = "DistinctByJones"
NECESSARY_CONDITION_FAILS = "NecessaryConditionFails"
UNRESOLVED = "Unresolved"

# The largest template, in crossings, whose invariants ``rep_invariants``
# computes.  Their cost grows faster than the crossing count, most for
# balanced girth-3 reps.  In-process, best of 3, on a shared 2-vCPU Xeon
# (Python 3.11.7): at 20000 crossings [3333 3333 3333 / 3333 3334 3334]
# takes 0.26 s, (19999) 0.062 s, (10000,10000) 0.018 s and (20000)
# 0.006 s; at 30000 the balanced girth-3 rep takes 0.51 s and (29999)
# 0.12 s; and (1500,300000) takes 0.24 s and 98 MB.  A larger rep is
# refused rather than computed.
CLOSED_CAP = 20000


class Verdict(Record):
    __slots__ = ("tag", "evidence", "note")

    def __init__(self, tag: str, evidence: LaurentPoly | None = None, note: str = "") -> None:
        if tag in (DISTINCT_BY_CONWAY, DISTINCT_BY_JONES):
            if evidence is None or evidence.is_zero():
                raise ValueError("distinctness verdicts need nonzero evidence")
        set_field(self, "tag", tag)
        set_field(self, "evidence", evidence)
        set_field(self, "note", note)

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.tag}
        if self.evidence is not None:
            out["evidence"] = poly_to_text(self.evidence)
        if self.note:
            out["note"] = self.note
        return out


def _require_even(labels, positive: bool = False) -> None:
    if any(x % 2 for x in labels):
        raise ValueError(f"labels must be even: {labels}")
    if positive and any(x <= 0 for x in labels):
        raise ValueError(f"labels must be positive: {labels}")


def classify_girth2_even(p: int, q: int, a: int, b: int) -> Verdict:
    """Equality test for even positive double twist knots.

    Equal exactly when {p,q} = {a,b}; otherwise the Conway coefficient
    pq/4 or the Jones span p+q separates them.
    """
    _require_even((p, q, a, b), positive=True)
    if sorted((p, q)) == sorted((a, b)):
        return Verdict(EQUAL_BY_SYMMETRY, note="{p,q} = {a,b}")
    if p * q != a * b:
        diff = cf.conway_double_twist(p, q) - cf.conway_double_twist(a, b)
        return Verdict(DISTINCT_BY_CONWAY, evidence=diff)
    if p + q != a + b:
        diff = cf.bracket_double_twist(p, q) - cf.bracket_double_twist(a, b)
        return Verdict(
            DISTINCT_BY_JONES,
            evidence=diff,
            note=f"spans {p + q} vs {a + b}",
        )
    raise AssertionError("equal sum and product force equal multisets")


def transposition_test(rep: Girth3Rep, tau: str) -> Verdict:
    """Conway comparison against a transposed bottom row (even positive)."""
    _require_even(rep.top + rep.bottom, positive=True)
    if tau not in ("swap_ab", "swap_bc", "swap_ac"):
        raise ValueError(f"not a transposition: {tau!r}")
    diff = cf.conway_diff(rep, tau)
    permuted = cf.permute_bottom(rep, tau)
    if diff.is_zero():
        assert permuted in d3_orbit(rep), "zero difference must come from symmetry"
        return Verdict(EQUAL_BY_SYMMETRY, note=f"{tau} image lies in the D3 orbit")
    assert permuted not in d3_orbit(rep)
    return Verdict(DISTINCT_BY_CONWAY, evidence=diff)


def cycle_obstruction(rep: Girth3Rep, cycle: str) -> Verdict:
    """Conway and bracket determinant obstructions for a bottom 3-cycle."""
    _require_even(rep.top + rep.bottom)
    int_det = cf.int_cycle_det(rep, cycle)
    if int_det != 0 and all(x > 0 for x in rep.top + rep.bottom):
        return Verdict(DISTINCT_BY_CONWAY, evidence=cf.conway_diff(rep, cycle))
    s_det = cf.shat_cycle_det(rep, cycle)
    if not s_det.is_zero():
        diff = cf.bracket_diff(rep, cycle)
        return Verdict(DISTINCT_BY_JONES, evidence=diff, note="S-determinant nonzero")
    return Verdict(
        UNRESOLVED,
        note="both determinant obstructions vanish (necessity only)",
    )


def row_swap_test(rep: Girth3Rep) -> Verdict:
    """Necessary condition for K(p q r/a b c) = K(a q r/p b c), all even."""
    _require_even(rep.top + rep.bottom)
    (p, q, r), (a, b, c) = rep.top, rep.bottom
    if p == a:
        return Verdict(EQUAL_BY_SYMMETRY, note="p = a: the swap is trivial")
    cond1 = q == c == 0
    cond2 = q == c and b == r
    diff = cf.bracket_diff(rep, "swap_pa")
    if not (cond1 or cond2):
        if diff.is_zero():
            raise AssertionError(
                "bracket difference vanished although the necessary condition fails"
            )
        return Verdict(NECESSARY_CONDITION_FAILS, evidence=diff)
    if diff.is_zero():
        return Verdict(
            UNRESOLVED, note="necessary condition holds and brackets agree"
        )
    return Verdict(DISTINCT_BY_JONES, evidence=diff)


# ---------------------------------------------------------------------------
# general comparison


class RepInvariants(Record):
    """Exact invariants of a representation, as tuples of slot coefficients.

    ``conway`` holds the Conway polynomial's coefficients of z^0, z^2, ...,
    or None for a link or where no closed value is available.  ``jones``
    holds the Jones polynomial's coefficients of the quarter powers low,
    low + 4, ... of t, the first and the last nonzero, so its inclusive
    span is its length.  ``bracket`` reads the Kauffman bracket off the
    same slots at the writhe.
    """

    __slots__ = ("components", "writhe", "conway", "low", "jones")

    def bracket(self) -> tuple[int, tuple[int, ...]]:
        """(low, slots) of the Kauffman bracket: (-1)^w A^(3w) times the
        Jones polynomial, w the writhe, so the Jones slots, negated when w
        is odd, at stride 4 from A^(low + 3w)."""
        w = self.writhe
        return self.low + 3 * w, tuple(map(neg, self.jones)) if w % 2 else self.jones

    def jones_poly(self) -> LaurentPoly:
        """The Jones polynomial in quarter powers of t, for a verdict."""
        return LaurentPoly.from_slots(self.jones, self.low, 4, "t")


def rep_invariants(rep) -> RepInvariants:
    """Exact invariants of a representation, all from closed forms: the
    bracket of its girth-3 labelling, packed (``closedform.bracket_girth3``),
    ``closed_invariants`` of its labels, and the Jones polynomial of the
    bracket at the writhe.

    The packed bracket is normalised to the Jones polynomial as the
    census's key is (``closedform.jones_key``) and read once into its
    slots (``laurent.packed_slots``); no polynomial is built.  Every result
    passes ``check_identities``, or raises ``AssertionError``.
    A rep whose template has more than ``CLOSED_CAP`` crossings is refused
    with ``ValueError`` before any evaluation; the count comes off its
    labels.
    """
    n = template_crossings(rep)
    if n > CLOSED_CAP:
        raise ValueError(
            f"{n} crossings exceeds the closed-form cap of {CLOSED_CAP} crossings"
        )
    value, low, k = cf.bracket_girth3(rep)
    comps, writhe, conway = closed_invariants(rep_labels(rep))
    low, value = cf.jones_key(value, low, k, writhe)
    jones = tuple(packed_slots(value, k))
    conway = None if conway is None else tuple(conway)
    check_identities(comps, conway, low, jones)
    return RepInvariants(comps, writhe, conway, low, jones)


def closed_invariants(labels: tuple) -> tuple[int, int, list[int] | None]:
    """Component count, writhe and Conway coefficients of z^0, z^2, ... of
    the rep with these ``rep_labels``, the Conway coefficients None for a
    link or where no closed value is available.

    No rep builds a template.  Every rep reads its component count and
    writhe off the frozen table of reduced labellings (``g3table``), at
    its girth-3 labelling (``reps.g3_labels``), which has the rep's
    components and writhe.  A girth-1 or girth-2 knot's Conway polynomial
    is its twist formula (``closedform.twist_slots``,
    ``closedform.double_twist_slots``).  A girth-3 knot's is the table's
    closed form (``g3table.conway_slots``, one int contraction at
    s = z^2 = 2^k, decoded): an all-even knot's through parity pattern 0,
    whose six axes are all affine, at any size, and a knot's with an odd
    label up to ``oracle.CONWAY_CAP`` crossings, the domain the Fox oracle
    answers on.  The census keys the same values by ints in one pass over
    each rep's labelling (``g3table.census_keys``).  Tests tie the table's
    all-even values to the even formula of ``closedform``.
    """
    from . import g3table  # frozen data: loaded on first use

    comps, writhe = g3table.components_and_writhe(g3_labels(labels))
    conway = None
    if comps == 1:
        if len(labels) == 1:
            conway = cf.twist_slots(*labels)
        elif len(labels) == 2:
            conway = cf.double_twist_slots(*labels)
        elif all(x % 2 == 0 for x in labels) or sum(map(abs, labels)) <= oracle.CONWAY_CAP:
            conway = g3table.conway_slots(labels)
    return comps, writhe, conway


def check_identities(comps: int, conway: Sequence[int] | None, low: int,
                     jones: Sequence[int]) -> None:
    """Raise AssertionError unless the invariants satisfy four identities.

    ``jones`` holds the Jones polynomial's coefficients of the quarter
    powers low, low + 4, ... of t, and ``conway`` the Conway polynomial's
    of z^0, z^2, ..., or None where no value is available
    (``RepInvariants`` holds both).  Each identity is exact: sums of whole
    slices, or a Horner pass over the Conway slots.

    V(1) = (-2)^(c-1) for a c-component link ties the bracket and the
    writhe to the component count; a link's V(1) is one ``sum``, and a
    link needs nothing more.  A knot's Jones polynomial lies in
    Z[t, 1/t], so low is a multiple of 4, and V(w) = 1 at
    w = e^(2 pi i/3): with S_j the sum of the coefficients of the powers
    t^n with n = j mod 3, V(w) = S0 + S1 w + S2 w^2 = (S0 - S2) + (S1 - S2) w,
    since w^2 = -1 - w.  A knot's Conway polynomial has nabla(0) = 1, and
    |V(-1)| = |nabla(2i)|, both sides being the determinant, ties the
    bracket to it; nabla(2i) = sum c_2j (-4)^j (``_nabla_2i``).  A knot's
    slots are summed once each, as the six slices r_m of the slots whose
    index is m mod 6.  Slot i holds t^(low/4 + i), so V(1) is the sum of
    all six, the S_j are the r_m + r_(m+3), rotated by low/4 mod 3, and
    V(-1) is the even r_m less the odd ones, up to the sign (-1)^(low/4).
    """
    if comps == 1:
        r0, r1, r2, r3, r4, r5 = (sum(jones[0::6]), sum(jones[1::6]), sum(jones[2::6]),
                                  sum(jones[3::6]), sum(jones[4::6]), sum(jones[5::6]))
        v1 = r0 + r1 + r2 + r3 + r4 + r5
    else:
        v1 = sum(jones)
    if v1 != (-2) ** (comps - 1):
        raise AssertionError(f"V(1) = {v1} for a {comps}-component diagram")
    if comps != 1:
        return
    if low % 4:
        raise AssertionError("knot Jones in fractional powers of t")
    thirds = [r0 + r3, r1 + r4, r2 + r5]
    k = -(low // 4) % 3
    s0, s1, s2 = thirds[k:] + thirds[:k]
    if s1 != s2 or s0 - s2 != 1:
        raise AssertionError(f"V(e^(2 pi i/3)) = {s0 - s2} + {s1 - s2} w")
    if conway is None:
        return
    if not conway or conway[0] != 1:
        raise AssertionError(f"nabla(0) = {conway[0] if conway else 0} for a knot")
    v_minus = abs(r0 + r2 + r4 - r1 - r3 - r5)
    nabla_2i = abs(_nabla_2i(conway))
    if v_minus != nabla_2i:
        raise AssertionError(f"|V(-1)| = {v_minus} but |nabla(2i)| = {nabla_2i}")


def _nabla_2i(conway: Sequence[int]) -> int:
    """nabla(2i) = sum c_2j (-4)^j of the Conway coefficients of z^0, z^2,
    ..., by Horner's rule from the top slot."""
    value = 0
    for c in reversed(conway):
        value = value * -4 + c
    return value


def jones_equal(
    j1: LaurentPoly,
    j2: LaurentPoly,
    unit_shift: bool = False,
    mirror_ok: bool = False,
) -> bool:
    """Jones equality, optionally up to t^(3k) units and mirror image.

    The unit shifts arise from re-orienting components of a link: the
    writhe moves by multiples of 4, so the normalized polynomial slides by
    t^(3k) (12 quarter-units).
    """
    candidates = [j2]
    if mirror_ok:
        candidates.append(j2.invert_variable())
    for cand in candidates:
        if j1 == cand:
            return True
        if unit_shift and not j1.is_zero() and not cand.is_zero():
            shift = j1.min_exp() - cand.min_exp()
            if shift % 12 == 0 and cand.shift(shift) == j1:
                return True
    return False


def compare(r1, r2, mirror_ok: bool = False) -> Verdict:
    """Full comparison: symmetry, then Conway, then Jones, else Unresolved."""
    c1, c2 = canonicalize(r1), canonicalize(r2)
    if c1 == c2:
        return Verdict(EQUAL_BY_SYMMETRY, note="identical canonical keys")
    if mirror_ok and canonicalize(mirror(r1)) == c2:
        return Verdict(EQUAL_BY_SYMMETRY, note="mirror images")
    inv1 = rep_invariants(r1)
    inv2 = rep_invariants(r2)
    if inv1.components != inv2.components:
        return Verdict(
            UNRESOLVED,
            note=f"component counts differ ({inv1.components} vs {inv2.components}): "
            "distinct links, but outside the polynomial verdicts",
        )
    if inv1.conway is not None and inv2.conway is not None and inv1.conway != inv2.conway:
        # Conway of a knot is mirror-invariant, so mirror_ok needs no adjustment
        diff = (LaurentPoly.from_slots(inv1.conway, 0, 2, "z")
                - LaurentPoly.from_slots(inv2.conway, 0, 2, "z"))
        return Verdict(DISTINCT_BY_CONWAY, evidence=diff)
    j1, j2 = inv1.jones_poly(), inv2.jones_poly()
    if not jones_equal(j1, j2, unit_shift=inv1.components > 1, mirror_ok=mirror_ok):
        return Verdict(DISTINCT_BY_JONES, evidence=j1 - j2)
    return Verdict(UNRESOLVED, note="all computed invariants agree")
