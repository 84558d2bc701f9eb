"""Closed-form invariants for the girth 1, 2 and 3 families.

Conventions fixed by the calibration suite against the oracles:

* the double-twist Conway for odd q is the single expression
  nabla_{p-1} - ((q-1)/2) z nabla_p, valid for both signs of q.  The
  two-branch form sometimes quoted has its index shifted by one twist and
  contradicts the reduction K(p,+-1) = K(p-+1); the version here matches
  the Fox-calculus oracle on the full template grid.
* the bracket difference factor is 1 - (-A^2 - A^(-2))^2; the A^(-1)
  occasionally seen in print fails the subtraction check.
"""

from __future__ import annotations

from math import comb

from .laurent import LaurentPoly
from .reps import Girth3Rep

SAME_DIRECTION = "same_direction"
OPPOSITE_DIRECTIONS = "opposite_directions"

_Z = "z"
_A = "A"


def _z(c: int = 1, e: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial(c, e, _Z)


def loop_value() -> LaurentPoly:
    """delta = -A^2 - A^(-2), the value of an extra closed loop."""
    return LaurentPoly.from_dict({2: -1, -2: -1}, _A)


# ---------------------------------------------------------------------------
# Conway polynomials

def nabla_same(p: int) -> LaurentPoly:
    """Conway polynomial of the closed twist region with parallel strands.

    The solution of the skein recursion nabla_p = z nabla_{p-1} +
    nabla_{p-2} from nabla_0 = 0, nabla_1 = 1, written out by its
    Fibonacci-polynomial coefficients: nabla_p = sum_k C(p-1-k, k)
    z^(p-1-2k) for p >= 1.  For negative p the value is nabla_{|p|} when
    p is odd and -nabla_{|p|} when p is even.
    """
    if p < 0:
        v = nabla_same(-p)
        return v if p % 2 else -v
    return LaurentPoly.from_dict(
        {p - 1 - 2 * k: comb(p - 1 - k, k) for k in range((p + 1) // 2)}, _Z
    )


def conway_single_twist(p: int, case: str = SAME_DIRECTION) -> LaurentPoly:
    """Conway polynomial of K(p) for either orientation convention."""
    if case == SAME_DIRECTION:
        return nabla_same(p)
    if case == OPPOSITE_DIRECTIONS:
        if p % 2 != 0:
            raise ValueError("opposite directions require an even twist count")
        return _z(abs(p) // 2)  # sign(p) * (p/2) z
    raise ValueError(f"unknown orientation case {case!r}")


def conway_double_twist(p: int, q: int) -> LaurentPoly:
    """Conway polynomial of the double twist diagram K(p,q).

    Even/even labels give (pq/4) z^2 + 1; an odd label is rotated into the
    q slot and handled by the twist expansion over nabla.  For odd/odd
    pairs the diagram is a two-component link and the value refers to the
    orientation with parallel p-strands.
    """
    if p % 2 == 0 and q % 2 == 0:
        return LaurentPoly.from_dict({2: (p * q) // 4, 0: 1}, _Z)
    if q % 2 == 0:
        p, q = q, p
    # q odd now
    return nabla_same(p - 1) - ((q - 1) // 2) * (_z() * nabla_same(p))


def conway_girth3_even(rep: Girth3Rep) -> LaurentPoly:
    """Conway polynomial for the all-even girth-3 family.

    Valid (and oracle-checked) for all even labels, negative ones
    included; zero labels are degenerate twist regions and satisfy the
    same multilinear formula.
    """
    labels = rep.top + rep.bottom
    if any(x % 2 for x in labels):
        raise ValueError(f"labels must all be even, got {labels}")
    p, q, r = rep.top
    a, b, c = rep.bottom
    quartic = (p * q + p * r + q * r) * (a * b + a * c + b * c)
    quadratic = p * a + p * c + q * a + q * b + r * b + r * c
    assert quartic % 16 == 0 and quadratic % 4 == 0
    return LaurentPoly.from_dict(
        {4: quartic // 16, 2: quadratic // 4, 0: 1}, _Z
    )


BOTTOM_PERMS = {
    "swap_ab": lambda a, b, c: (b, a, c),
    "swap_bc": lambda a, b, c: (a, c, b),
    "swap_ac": lambda a, b, c: (c, b, a),
    "cycle_cab": lambda a, b, c: (c, a, b),
    "cycle_bca": lambda a, b, c: (b, c, a),
    "identity": lambda a, b, c: (a, b, c),
}


def permute_bottom(rep: Girth3Rep, perm: str) -> Girth3Rep:
    if perm not in BOTTOM_PERMS:
        raise ValueError(f"unknown bottom permutation {perm!r}")
    return Girth3Rep(rep.top, BOTTOM_PERMS[perm](*rep.bottom))


def swap_pa(rep: Girth3Rep) -> Girth3Rep:
    """Exchange the first labels of the two rings."""
    (p, q, r), (a, b, c) = rep.top, rep.bottom
    return Girth3Rep((a, q, r), (p, b, c))


def conway_diff(rep: Girth3Rep, perm: str) -> LaurentPoly:
    """Difference of all-even Conway polynomials under a bottom permutation.

    Transpositions give the product forms (p-r)(a-b)(z/2)^2 etc.; the two
    3-cycles give +-det(top / permuted bottom / ones) (z/2)^2.
    """
    p, q, r = rep.top
    a, b, c = rep.bottom
    if perm == "identity":
        return LaurentPoly.zero(_Z)
    if perm == "swap_ab":
        coeff = (p - r) * (a - b)
    elif perm == "swap_bc":
        coeff = (p - q) * (c - b)
    elif perm == "swap_ac":
        coeff = (q - r) * (a - c)
    elif perm == "cycle_cab":
        coeff = _det3_int((p, q, r), (c, a, b))
    elif perm == "cycle_bca":
        coeff = -_det3_int((p, q, r), (a, b, c))
    else:
        raise ValueError(f"unknown bottom permutation {perm!r}")
    if coeff % 4 != 0:
        raise ValueError("difference coefficient must be divisible by 4")
    return LaurentPoly.from_dict({2: coeff // 4}, _Z)


def _det3_int(row1: tuple[int, int, int], row2: tuple[int, int, int]) -> int:
    """det of (row1 / row2 / 1 1 1)."""
    p, q, r = row1
    x, y, z = row2
    return p * (y - z) - q * (x - z) + r * (x - y)


# ---------------------------------------------------------------------------
# brackets


def s_poly(p: int) -> LaurentPoly:
    """The twist-region polynomial S_p; S_0 = 0 and S_{-p}(A) = S_p(1/A)."""
    if p == 0:
        return LaurentPoly.zero(_A)
    if p < 0:
        return s_poly(-p).invert_variable()
    return LaurentPoly.from_dict(
        {3 * p + 2 - 4 * i: (-1) ** (p - i) for i in range(1, p + 1)}, _A
    )


def s_hat(p: int) -> LaurentPoly:
    """S_p A^p, the centered form with (1 - A^(4p)) = s_hat * (A^2 + A^-2)."""
    return s_poly(p).shift(p)


def bracket_double_twist(p: int, q: int) -> LaurentPoly:
    """Kauffman bracket of the double twist diagram."""
    sp, sq = s_poly(p), s_poly(q)
    return (
        loop_value() * (sp.shift(-q) + sq.shift(-p))
        + sp * sq
        + LaurentPoly.monomial(1, -p - q, _A)
    )


def sym_s(k: int, triple: tuple[int, int, int]) -> LaurentPoly:
    """The symmetric functions S^0..S^3 of a label triple."""
    if k not in range(4):
        raise ValueError(f"symmetric function index must be 0..3, got {k}")
    return _row_sym(triple, tuple(s_poly(x) for x in triple))[k]


def _row_sym(
    triple: tuple[int, int, int], s: tuple[LaurentPoly, ...]
) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
    """S^0..S^3 of a label triple, given the triple's S polynomials."""
    p, q, r = triple
    sp, sq, sr = s
    spq = sp * sq
    return (
        LaurentPoly.monomial(1, -p - q - r, _A),
        sp.shift(-q - r) + sq.shift(-p - r) + sr.shift(-p - q),
        spq.shift(-r) + (sp * sr).shift(-q) + (sq * sr).shift(-p),
        spq * sr,
    )


def bracket_girth3(rep: Girth3Rep) -> LaurentPoly:
    """Kauffman bracket of the girth-3 template, assembled per state class.

    The four blocks are weighted by powers of the loop value; the six
    adjacent cross terms sit in the constant block and the three antipodal
    cross terms carry weight delta^2.  Each row's symmetric functions and
    each label's S polynomial are computed once.
    """
    top, bot = rep.top, rep.bottom
    p, q, r = top
    a, b, c = bot
    d = loop_value()
    sp, sq, sr, sa, sb, sc = (s_poly(x) for x in top + bot)
    t0, t1, t2, t3 = _row_sym(top, (sp, sq, sr))
    b0, b1, b2, b3 = _row_sym(bot, (sa, sb, sc))

    def cross(sx: LaurentPoly, sy: LaurentPoly, rest: int) -> LaurentPoly:
        return (sx * sy).shift(rest)

    blk0 = (
        t0 * b0
        + t2 * b2
        + cross(sp, sa, -q - r - b - c)
        + cross(sp, sc, -q - r - a - b)
        + cross(sq, sa, -p - r - b - c)
        + cross(sq, sb, -p - r - a - c)
        + cross(sr, sb, -p - q - a - c)
        + cross(sr, sc, -p - q - a - b)
    )
    blk1 = t1 * b0 + t0 * b1 + t2 * b1 + t1 * b2 + t3 * b2 + t2 * b3
    blk2 = (
        t2 * b0
        + t0 * b2
        + t3 * b1
        + t1 * b3
        + t3 * b3
        + cross(sp, sb, -q - r - a - c)
        + cross(sq, sc, -p - r - a - b)
        + cross(sr, sa, -p - q - b - c)
    )
    blk3 = t3 * b0 + t0 * b3
    return blk0 + blk1 * d + blk2 * d**2 + blk3 * d**3


def bracket_diff(rep: Girth3Rep, perm: str) -> LaurentPoly:
    """Exact bracket difference under a bottom permutation or the pa swap."""
    if perm == "swap_pa":
        other = swap_pa(rep)
    else:
        other = permute_bottom(rep, perm)
    return bracket_girth3(rep) - bracket_girth3(other)


def diff_factor() -> LaurentPoly:
    """1 - (-A^2 - A^(-2))^2, the common factor of the bracket differences."""
    return LaurentPoly.one(_A) - loop_value() ** 2


def bracket_diff_formula(rep: Girth3Rep, perm: str) -> LaurentPoly:
    """Closed form of the bracket difference: A^(-w) (...) diff_factor().

    Transpositions give (S_x A^x - S_y A^y) products; the 3-cycles give
    the determinant with rows (S_p A^p ...), (permuted S A powers), ones.
    """
    p, q, r = rep.top
    a, b, c = rep.bottom
    w = sum(rep.top) + sum(rep.bottom)
    aw = LaurentPoly.monomial(1, -w, _A)
    if perm == "swap_ab":
        core = (s_hat(p) - s_hat(r)) * (s_hat(a) - s_hat(b))
    elif perm == "swap_bc":
        core = (s_hat(p) - s_hat(q)) * (s_hat(c) - s_hat(b))
    elif perm == "swap_ac":
        core = (s_hat(q) - s_hat(r)) * (s_hat(a) - s_hat(c))
    elif perm == "cycle_cab":
        core = _shat_det((p, q, r), (c, a, b))
    elif perm == "cycle_bca":
        core = -_shat_det((p, q, r), (a, b, c))
    elif perm == "identity":
        return LaurentPoly.zero(_A)
    else:
        raise ValueError(f"no closed difference form for {perm!r}")
    return aw * core * diff_factor()


def _shat_det(row1: tuple[int, int, int], row2: tuple[int, int, int]) -> LaurentPoly:
    """det of ((S_x A^x for row1) / (S_y A^y for row2) / (1 1 1))."""
    p, q, r = (s_hat(x) for x in row1)
    x, y, z = (s_hat(v) for v in row2)
    return p * (y - z) - q * (x - z) + r * (x - y)


def shat_cycle_det(rep: Girth3Rep, perm: str) -> LaurentPoly:
    """The S-determinant obstruction for a 3-cycle of the bottom labels."""
    if perm == "cycle_cab":
        return _shat_det(rep.top, BOTTOM_PERMS[perm](*rep.bottom))
    if perm == "cycle_bca":
        return _shat_det(rep.top, rep.bottom)
    raise ValueError(f"not a 3-cycle: {perm!r}")


def int_cycle_det(rep: Girth3Rep, perm: str) -> int:
    """The integer determinant controlling the Conway difference of a 3-cycle."""
    if perm == "cycle_cab":
        return _det3_int(rep.top, BOTTOM_PERMS[perm](*rep.bottom))
    if perm == "cycle_bca":
        return _det3_int(rep.top, rep.bottom)
    raise ValueError(f"not a 3-cycle: {perm!r}")
