"""The bracket difference formula built from Laurent products, kept as the
reference for ``knotpair.closedform.bracket_diff_formula``, which evaluates
the same formula once at A^4 = 2^k.
"""

from knotpair.closedform import _perm_core, diff_factor, s_hat
from knotpair.laurent import LaurentPoly
from knotpair.reps import Girth3Rep


def bracket_diff_formula(rep: Girth3Rep, perm: str) -> LaurentPoly:
    """Closed form of the bracket difference: A^(-w) (...) diff_factor().

    Transpositions give (S_x A^x - S_y A^y) products; the 3-cycles give
    the determinant with rows (S_p A^p ...), (permuted S A powers), ones.
    """
    if perm == "identity":
        return LaurentPoly.zero("A")
    core = _perm_core(rep, perm, s_hat)
    if core is None:
        raise ValueError(f"no closed difference form for {perm!r}")
    w = sum(rep.top) + sum(rep.bottom)
    return LaurentPoly.monomial(1, -w, "A") * core * diff_factor()
