"""Decision procedures: symmetry detection vs invariant separation.

A verdict never claims knot equivalence from invariant equality alone;
``Unresolved`` is a first-class outcome.
"""

from __future__ import annotations

from . import closedform as cf
from . import oracle
from .laurent import LaurentPoly, jones_from_bracket, poly_to_text
from .record import Record, set_field
from .reps import (
    Girth1Rep,
    Girth2Rep,
    Girth3Rep,
    canonicalize,
    d3_orbit,
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
# computes.  Their cost grows faster than the crossing count: on a shared
# 2-vCPU Xeon, girth-1 and balanced girth-3 reps of 20000 crossings take
# 0.7-0.9 s and of 30000 1.3-1.6 s, and a 1500000-crossing girth-2 rep
# 6.7 s and 540 MB, so a larger rep is refused rather than computed.
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
    if cycle not in ("cycle_cab", "cycle_bca"):
        raise ValueError(f"not a 3-cycle: {cycle!r}")
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
    __slots__ = ("components", "conway", "bracket", "jones", "writhe")

    def __init__(
        self,
        components: int,
        conway: LaurentPoly | None,
        bracket: LaurentPoly,
        jones: LaurentPoly,
        writhe: int,
    ) -> None:
        set_field(self, "components", components)
        set_field(self, "conway", conway)
        set_field(self, "bracket", bracket)
        set_field(self, "jones", jones)
        set_field(self, "writhe", writhe)


def rep_invariants(rep) -> RepInvariants:
    """Exact invariants of a representation, all from closed forms:
    ``invariants_from_bracket`` of its closed bracket.

    Every result passes ``check_identities`` or raises ``AssertionError``.
    A rep whose template has more than ``CLOSED_CAP`` crossings is refused
    with ``ValueError`` before any evaluation; the count comes off its
    labels.
    """
    n = template_crossings(rep)
    if n > CLOSED_CAP:
        raise ValueError(
            f"{n} crossings exceeds the closed-form cap of {CLOSED_CAP} crossings"
        )
    inv = invariants_from_bracket(rep, closed_bracket(rep))
    check_identities(inv.components, inv.conway, inv.jones)
    return inv


def invariants_from_bracket(rep, bracket: LaurentPoly) -> RepInvariants:
    """The invariants of a representation around its closed bracket, unchecked:
    ``closed_invariants`` of its labels and the Jones polynomial.

    ``rep_invariants`` checks each result; the census checks each distinct
    (components, Conway, Jones) once, the only values the checks read.
    """
    comps, writhe, conway = closed_invariants(rep_labels(rep))
    jones = jones_from_bracket(bracket, writhe)
    return RepInvariants(comps, conway, bracket, jones, writhe)


def closed_invariants(labels: tuple) -> tuple[int, int, LaurentPoly | None]:
    """Component count, writhe and Conway polynomial of the rep with these
    ``rep_labels``, the Conway polynomial None for a link or where no
    closed value is available.

    No rep builds a template.  A girth-1 rep K(p) is a knot of p crossings
    of sign -sign(p) when p is odd (``GIRTH1_HANDEDNESS`` = 1), and
    otherwise two components that every crossing joins, which ``orient``
    makes -1.  A girth-2 rep K(p, q), whose template is that of the
    girth-3 labelling (p, 0, 0, q, 0, 0), and a girth-3 rep, knot or link,
    read their component count and writhe off the frozen table of reduced
    labellings (``g3table``).  A girth-1 or girth-2 knot's Conway
    polynomial is its twist formula.  A girth-3 knot's is the even formula
    when every label is even, and otherwise the table's closed form
    (``g3table.conway``, one int contraction at s = z^2 = 2^k, decoded),
    up to ``oracle.CONWAY_CAP`` crossings, the domain the Fox oracle
    answers on.  The census keys the same values by ints in one pass over
    each rep's labels (``g3table.census_keys``), a girth-2 knot's Conway
    polynomial from the table's contraction rather than its twist formula.
    """
    if len(labels) == 1:
        (p,) = labels
        if p % 2:
            return 1, -p, cf.conway_single_twist(p)
        return 2, -abs(p), None
    from . import g3table  # frozen data: loaded on first use

    if len(labels) == 2:
        p, q = labels
        comps, writhe = g3table.components_and_writhe((p, 0, 0, q, 0, 0))
        return comps, writhe, cf.conway_double_twist(p, q) if comps == 1 else None
    comps, writhe = g3table.components_and_writhe(labels)
    conway = None
    if comps == 1:
        if all(x % 2 == 0 for x in labels):
            conway = cf.conway_girth3_even(Girth3Rep(labels[:3], labels[3:]))
        elif sum(map(abs, labels)) <= oracle.CONWAY_CAP:
            conway = g3table.conway(labels)
    return comps, writhe, conway


def check_identities(comps: int, conway: LaurentPoly | None, jones: LaurentPoly) -> None:
    """Raise AssertionError unless the invariants satisfy three identities.

    V(1) = (-2)^(c-1) for a c-component link ties the bracket and the
    writhe to the component count.  A knot's Jones polynomial lies in
    Z[t, 1/t], and V(w) = 1 at w = e^(2 pi i/3): with S_j the sum of the
    coefficients of the powers t^n with n = j mod 3, V(w) = S0 + S1 w +
    S2 w^2 = (S0 - S2) + (S1 - S2) w, since w^2 = -1 - w.  For a knot with
    a Conway value, |V(-1)| = |nabla(2i)|, both being the determinant,
    ties the bracket to the Conway polynomial.  Its Conway polynomial lies
    in Z[z^2], so both sides are integers: sum c_e (-1)^(e/4) over the
    quarter-power exponents e of V, and sum c_2j (-4)^j (``_nabla_2i``).

    For a knot, one pass over the Jones terms sums the coefficients by
    exponent mod 24 and ORs the exponents together.  For e = 4n,
    e mod 24 = 4 (n mod 6) gives both n mod 3 and the sign (-1)^n; the low
    two bits of the OR are zero exactly when every exponent is an integer
    power of t.  A link needs only V(1).
    """
    sums = [0] * 24
    bits = 0
    if comps == 1:
        for e, c in jones.terms:
            sums[e % 24] += c
            bits |= e
        v1 = sum(sums)
    else:
        v1 = sum(c for _, c in jones.terms)
    if v1 != (-2) ** (comps - 1):
        raise AssertionError(f"V(1) = {v1} for a {comps}-component diagram")
    if comps != 1:
        return
    if bits & 3:
        raise AssertionError("knot Jones in fractional powers of t")
    s0, s1, s2 = sums[0] + sums[12], sums[4] + sums[16], sums[8] + sums[20]
    if s1 != s2 or s0 - s2 != 1:
        raise AssertionError(f"V(e^(2 pi i/3)) = {s0 - s2} + {s1 - s2} w")
    if conway is None:
        return
    if any(e % 2 for e, _ in conway.terms):
        raise AssertionError("knot Conway in odd powers of z")
    v_minus = sums[0] + sums[8] + sums[16] - sums[4] - sums[12] - sums[20]
    nabla_2i = _nabla_2i(conway)
    if abs(v_minus) != abs(nabla_2i):
        raise AssertionError(f"|V(-1)| = {abs(v_minus)} but |nabla(2i)| = {abs(nabla_2i)}")


def _nabla_2i(conway: LaurentPoly) -> int:
    """nabla(2i) = sum c_2j (-4)^j of a Conway polynomial in z^2, by Horner's
    rule from the top term: a gap of 2d in the exponents is one factor (-4)^d."""
    value = 0
    e_prev = conway.terms[-1][0] if conway.terms else 0
    for e, c in reversed(conway.terms):
        value = value * (-4) ** ((e_prev - e) // 2) + c
        e_prev = e
    return value * (-4) ** (e_prev // 2)


def closed_bracket(rep) -> LaurentPoly:
    """Closed-form Kauffman bracket for any girth <= 3 representation."""
    if isinstance(rep, Girth1Rep):
        return cf.bracket_single_twist(rep.p)
    if isinstance(rep, Girth2Rep):
        return cf.bracket_double_twist(rep.p, rep.q)
    if isinstance(rep, Girth3Rep):
        return cf.bracket_girth3(rep)
    raise TypeError(f"no closed bracket for {rep!r}")


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
    if c1.key == c2.key:
        return Verdict(EQUAL_BY_SYMMETRY, note="identical canonical keys")
    if mirror_ok and canonicalize(mirror(r1)).key == c2.key:
        return Verdict(EQUAL_BY_SYMMETRY, note="mirror images")
    inv1 = rep_invariants(r1)
    inv2 = rep_invariants(r2)
    if inv1.components != inv2.components:
        return Verdict(
            UNRESOLVED,
            note=f"component counts differ ({inv1.components} vs {inv2.components}): "
            "distinct links, but outside the polynomial verdicts",
        )
    if inv1.conway is not None and inv2.conway is not None:
        # Conway of a knot is mirror-invariant, so mirror_ok needs no adjustment
        diff = inv1.conway - inv2.conway
        if not diff.is_zero():
            return Verdict(DISTINCT_BY_CONWAY, evidence=diff)
    if not jones_equal(
        inv1.jones,
        inv2.jones,
        unit_shift=inv1.components > 1,
        mirror_ok=mirror_ok,
    ):
        return Verdict(DISTINCT_BY_JONES, evidence=inv1.jones - inv2.jones)
    return Verdict(UNRESOLVED, note="all computed invariants agree")
