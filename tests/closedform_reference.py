"""The bracket difference formula built from Laurent products, kept as the
reference for ``knotpair.closedform.bracket_diff_formula``, which evaluates
the same formula once at A^4 = 2^k; its core as one case per permutation
name, a product of two differences or a 3 x 3 determinant, kept as the
reference for ``closedform._perm_core``, which takes one adjacent-pair
sum for every name; the girth-2 bracket formula at A^4 = 2^k, kept as
the reference for ``bracket_double_twist``, which reads
K(p, q) as the girth-3 labelling (p, 0, 0, q, 0, 0); the girth-1 bracket
formula at A^4 = 2^k, kept as the reference for the bracket of K(p), which
``closedform.bracket_girth3`` reads off the padded pair of
``reps.g3_labels``; and the slot widths the closed forms took from bounds
on the sum of |coefficients|, kept as the reference for the widths they
now take from bounds on the largest |coefficient|.
"""

from knotpair.closedform import _q_int, diff_factor, s_hat
from knotpair.laurent import LaurentPoly
from knotpair.reps import Girth3Rep


def bracket_diff_formula(rep: Girth3Rep, perm: str) -> LaurentPoly:
    """Closed form of the bracket difference: A^(-w) (...) diff_factor().

    Transpositions give (S_x A^x - S_y A^y) products; the 3-cycles give
    the determinant with rows (S_p A^p ...), (permuted S A powers), ones.
    """
    if perm == "identity":
        return LaurentPoly.zero("A")
    core = perm_core(rep, perm, s_hat)
    if core is None:
        raise ValueError(f"no closed difference form for {perm!r}")
    w = sum(rep.top) + sum(rep.bottom)
    return LaurentPoly.monomial(1, -w, "A") * core * diff_factor()


def perm_core(rep: Girth3Rep, perm: str, f):
    """The core both difference formulas share, over f of the labels.

    A transposition gives a product of two differences, a 3-cycle
    +-_det3; any other name gives None.  f is ``int`` for the Conway
    difference, y^N [x]_u at y = 2^k for the bracket one and ``s_hat`` for
    the S-determinant, and it is evaluated only at the labels the formula
    reads.
    """
    p, q, r = rep.top
    a, b, c = rep.bottom
    if perm == "swap_ab":
        return (f(p) - f(r)) * (f(a) - f(b))
    if perm == "swap_bc":
        return (f(p) - f(q)) * (f(c) - f(b))
    if perm == "swap_ac":
        return (f(q) - f(r)) * (f(a) - f(c))
    if perm == "cycle_cab":
        return _det3((p, q, r), (c, a, b), f)
    if perm == "cycle_bca":
        return -_det3((p, q, r), (a, b, c), f)
    return None


def _det3(row1: tuple[int, int, int], row2: tuple[int, int, int], f):
    """det of (f over row1 / f over row2 / 1 1 1)."""
    p, q, r = map(f, row1)
    x, y, z = map(f, row2)
    return p * (y - z) - q * (x - z) + r * (x - y)


def bracket_single_twist(p: int) -> LaurentPoly:
    """Bracket of the closed twist region: <K(p)> = A^-p (delta + s_p).

    That is delta A^-p + S_p, linear in |p|, whose coefficients are at
    most 2 in absolute value, so they fit 8-bit slots.
    """
    k = 8
    return LaurentPoly.from_packed(*_single_twist_value(p, k), k, 4, "A")


def _single_twist_value(p: int, k: int) -> tuple[int, int]:
    """(value, low): <K(p)> = A^(-p-2) (y [p]_u - (1 + y)), times y^n at y = 2^k."""
    pp, n = _q_int(p, k)
    return (pp << k) - (((1 << k) + 1) << k * n), -p - 2 - 4 * n


def double_twist_value(p: int, q: int, k: int) -> tuple[int, int]:
    """(value, low) of <K(p,q)> = A^(-p-q) (delta (s_p + s_q) + s_p s_q + 1)
    at y = 2^k: its coefficients are the slots of value, the first at
    exponent low; the s_p s_q term carries y^1."""
    (pp, np_), (pq, nq) = _q_int(p, k), _q_int(q, k)
    d = -((1 << k) + 1)
    value = (
        (1 << k * (np_ + nq))
        + d * ((pp << k * nq) + (pq << k * np_))
        + (pp * pq << k)
    )
    return value, -p - q - 4 * (np_ + nq)


def bracket_l1_bound(labels: tuple[int, ...]) -> int:
    """Bound on the sum of |coefficients| of a girth-1 (one label), girth-2
    (two labels) or girth-3 bracket: 512 prod max(1, |x|) for six labels,
    8 prod max(1, |x|) otherwise."""
    bound = 64 * 8 if len(labels) == 6 else 4 * 2
    for x in labels:
        bound *= abs(x) or 1
    return bound


def diff_l1_bound(labels: tuple[int, ...]) -> int:
    """Bound 18 M^2, M = max(1, |label|), on the sum of |coefficients| of a
    bracket difference."""
    m = max(1, *map(abs, labels))
    return 18 * m * m


def slot_bits(bound: int) -> int:
    """The least multiple of 8, k, with bound < 2^(k-1)."""
    return 8 * ((bound.bit_length() + 8) // 8)
