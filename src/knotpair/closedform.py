"""Closed-form invariants for the girth 1, 2 and 3 families.

Conventions fixed by the calibration suite against the oracles:

* the double-twist Conway for odd q is the single expression
  nabla_{p-1} - ((q-1)/2) z nabla_p, valid for both signs of q.  The
  two-branch form sometimes quoted has its index shifted by one twist and
  contradicts the reduction K(p,+-1) = K(p-+1); the version here matches
  the Fox-calculus oracle on the full template grid.
* the bracket difference factor is 1 - (-A^2 - A^(-2))^2; the A^(-1)
  occasionally seen in print fails the subtraction check.

The girth-2 and girth-3 brackets and the bracket difference formula are
not assembled from Laurent products.  Each is one evaluation of its formula
at y = A^4 = 2^k in Python ints, cut into coefficients once:

* **The s-hat identity.** S_x A^x (A^2 + A^-2) = 1 - (-A^4)^x, so
  s_x = S_x A^x = A^2 [x]_u with u = -A^4 and [x]_u = (1 - u^x) / (1 - u),
  for every integer x; s_0 = 0.  The loop value is delta = -A^-2 (1 + y).
* **Residue class.** In these terms a bracket is A^(-w) F, with w the
  label sum and F a sum of products of s's and delta's.  A product with a
  s-factors and b delta-factors carries A^(2(a - b)), and a - b is even in
  every one, so it is y^((a - b)/2) times a Laurent polynomial in y: all
  exponents of the bracket are -w mod 4.
* **Integers.** For x < 0, [x]_u = (y^|x| - (-1)^x) / ((1 + y) y^|x|).
  Times y^N, N the sum of |x| over the negative labels, F becomes a
  polynomial in y.  At y = 2^k each numerator over 1 + y is one exact
  division, a power of y is a shift by k bits, and the rest is int sums
  and products.
* **Slot width.** Write |f|_1 for the sum and |f|_inf for the largest of
  the |coefficients| of f, so that |f g|_inf <= |f|_1 |g|_inf.  S_x has
  |x| coefficients, each +-1: |S_x|_1 = |x| and |S_x|_inf = 1 (0 for
  x = 0).  Expanded, the girth-3 formula is 64 products of delta^m,
  m <= 3, |delta^m|_1 <= 8, and S's of distinct labels.  Bound the S of
  the product's largest label by |.|_inf and every other factor by
  |.|_1 (delta^m by |.|_inf <= 8 if there is no S): the largest label of
  all is either that one or not in the product, so a product has
  |.|_inf <= 8 P / M, with P = prod max(1, |x|) and M = max(1, max |x|)
  over the labels.  So |bracket|_inf <= 512 P / M.
  The girth-2 bracket A^(-p-q) (delta (s_p + s_q) + s_p s_q + 1) has
  |.|_inf <= 2 + 2 + min(|p|, |q|) + 1 <= 8 P / M, and the girth-1 one
  delta A^-p + S_p has |.|_inf <= 2 <= 8 (``bracket_coefficient_bound``).
  k is the least multiple of 8 with the bound below 2^(k-1), so every
  coefficient of y^N F, which are those of the bracket, fits a k-bit slot
  with the sign bit to spare, and ``LaurentPoly.from_packed`` reads them
  off: one biased cut into bytes, then a few C-level passes that read
  every slot as a signed C integer (``laurent.unpack``).  The value is
  exact at any k; k only has to hold the largest coefficient.
* **The difference formula.**  ``bracket_diff_formula`` is A^-w times a
  core of products of two s's and 1 - delta^2 = -A^-4 (1 + y + y^2), so it
  too is one int at y = 2^k; its width bounds |.|_inf by 18 M, M the
  largest |label| (argued there).
* **The census key.** ``census_jones`` packs every bracket of one census
  at one slot width and keys its Jones polynomial by two integers
  (argued there), so a rep of the census costs int arithmetic alone and
  only a class decodes a polynomial.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .reps import Girth3Rep

_Z = "z"
_A = "A"


def _z(c: int = 1, e: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial(c, e, _Z)


def loop_value() -> LaurentPoly:
    """delta = -A^2 - A^(-2), the value of an extra closed loop."""
    return LaurentPoly.from_dict({2: -1, -2: -1}, _A)


# ---------------------------------------------------------------------------
# Conway polynomials

def conway_single_twist(p: int) -> LaurentPoly:
    """Conway polynomial of K(p), its two strands run in the same direction.

    The solution of the skein recursion nabla_p = z nabla_{p-1} +
    nabla_{p-2} from nabla_0 = 0, nabla_1 = 1, written out by its
    Fibonacci-polynomial coefficients: nabla_p = sum_k C(n-k, k) z^(n-2k)
    for p >= 1, n = p - 1, each got from the one before by the ratio
    C(n-1-k, k+1) / C(n-k, k) = (n-2k)(n-2k-1) / ((k+1)(n-k)).  For
    negative p the value is nabla_{|p|} when p is odd and -nabla_{|p|}
    when p is even.
    """
    c = -1 if p < 0 and p % 2 == 0 else 1
    p = abs(p)
    n = p - 1
    terms = []
    for k in range((p + 1) // 2):
        if k:
            c = c * (n - 2 * k + 2) * (n - 2 * k + 1) // (k * (n - k + 1))
        terms.append((n - 2 * k, c))
    return LaurentPoly.from_terms(tuple(reversed(terms)), _Z)


def conway_double_twist(p: int, q: int) -> LaurentPoly:
    """Conway polynomial of the double twist diagram K(p,q).

    Even/even labels give (pq/4) z^2 + 1; an odd label is rotated into the
    q slot and handled by the twist expansion over the single-twist
    values nabla_p = ``conway_single_twist(p)``.  For odd/odd
    pairs the diagram is a two-component link and the value refers to the
    orientation with parallel p-strands.
    """
    if p % 2 == 0 and q % 2 == 0:
        return LaurentPoly.from_dict({2: (p * q) // 4, 0: 1}, _Z)
    if q % 2 == 0:
        p, q = q, p
    # q odd now
    return conway_single_twist(p - 1) - ((q - 1) // 2) * (
        _z() * conway_single_twist(p)
    )


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
    if perm == "identity":
        return LaurentPoly.zero(_Z)
    coeff = _perm_core(rep, perm, int)
    if coeff is None:
        raise ValueError(f"unknown bottom permutation {perm!r}")
    if coeff % 4 != 0:
        raise ValueError("difference coefficient must be divisible by 4")
    return LaurentPoly.from_dict({2: coeff // 4}, _Z)


def _perm_core(rep: Girth3Rep, perm: str, f):
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


def _cycle_det(rep: Girth3Rep, perm: str, f):
    """det of (f over top / f over the bottom / 1 1 1), the bottom turned
    by cycle_cab and left as it is by cycle_bca, whose core is its negative."""
    if perm not in ("cycle_cab", "cycle_bca"):
        raise ValueError(f"not a 3-cycle: {perm!r}")
    core = _perm_core(rep, perm, f)
    return core if perm == "cycle_cab" else -core


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


# |bracket|_inf <= scale * P / M (module docstring), the scale being the
# number of products in the expanded formula times |delta^m|_1 for its
# largest m
_GIRTH2_SCALE = 4 * 2
_GIRTH3_SCALE = 64 * 8


def bracket_coefficient_bound(labels: tuple[int, ...]) -> int:
    """Bound on the largest |coefficient| of a girth-1 (one label), girth-2
    (two labels) or girth-3 bracket: scale * P / M, with P the product and
    M the largest of max(1, |x|) over the labels (module docstring)."""
    sizes = [abs(x) or 1 for x in labels]
    bound = _GIRTH3_SCALE if len(labels) == 6 else _GIRTH2_SCALE
    for x in sizes:
        bound *= x
    return bound // max(sizes)


def _slot_bits(labels: tuple[int, ...]) -> int:
    """k, the least multiple of 8 with bracket_coefficient_bound(labels) < 2^(k-1).

    P / M is the product of all but the largest max(1, |x|), so the bound
    grows with each |label|, and the k of labels no larger in absolute
    value is at most this one.
    """
    return 8 * ((bracket_coefficient_bound(labels).bit_length() + 8) // 8)


def _q_int(x: int, k: int) -> tuple[int, int]:
    """(P, n) with [x]_u = P / y^n at y = 2^k, where n = max(-x, 0)."""
    t = 1 << (k * abs(x))
    if x % 2:
        num = t + 1
    else:
        num = 1 - t if x > 0 else t - 1
    return num // ((1 << k) + 1), max(-x, 0)


def bracket_single_twist(p: int) -> LaurentPoly:
    """Bracket of the closed twist region: <K(p)> = A^-p (delta + s_p).

    That is delta A^-p + S_p, linear in |p|.  Verified against the
    state-sum oracle and against the one-crossing recurrence
    <K(p)> = A^-1 <K(p-1)> + A (-A^3)^(p-1), <K(0)> = delta.
    """
    k = _slot_bits((p,))
    return LaurentPoly.from_packed(*_single_twist_value(p, k), k, 4, _A)


def _single_twist_value(p: int, k: int) -> tuple[int, int]:
    """(value, low): <K(p)> = A^(-p-2) (y [p]_u - (1 + y)), times y^n at y = 2^k."""
    pp, n = _q_int(p, k)
    return (pp << k) - (((1 << k) + 1) << k * n), -p - 2 - 4 * n


def bracket_double_twist(p: int, q: int) -> LaurentPoly:
    """Kauffman bracket of the double twist diagram.

    <K(p,q)> = A^(-p-q) (delta (s_p + s_q) + s_p s_q + 1), evaluated once
    at y = 2^k (module docstring): the s_p s_q term carries y^1.
    """
    k = _slot_bits((p, q))
    return LaurentPoly.from_packed(*_double_twist_value(p, q, k), k, 4, _A)


def _double_twist_value(p: int, q: int, k: int) -> tuple[int, int]:
    """(value, low) of <K(p,q)> at y = 2^k: its coefficients are the slots
    of value, the first at exponent low."""
    (pp, np_), (pq, nq) = _q_int(p, k), _q_int(q, k)
    d = -((1 << k) + 1)
    value = (
        (1 << k * (np_ + nq))
        + d * ((pp << k * nq) + (pq << k * np_))
        + (pp * pq << k)
    )
    return value, -p - q - 4 * (np_ + nq)


def sym_s(k: int, triple: tuple[int, int, int]) -> LaurentPoly:
    """The symmetric functions S^0..S^3 of a label triple.

    S^i = A^(-p-q-r) e_i(s_p, s_q, s_r), built from Laurent products; the
    brackets do not use it.
    """
    if k not in range(4):
        raise ValueError(f"symmetric function index must be 0..3, got {k}")
    p, q, r = triple
    sp, sq, sr = (s_poly(x) for x in triple)
    if k == 0:
        return LaurentPoly.monomial(1, -p - q - r, _A)
    if k == 1:
        return sp.shift(-q - r) + sq.shift(-p - r) + sr.shift(-p - q)
    if k == 2:
        return (sp * sq).shift(-r) + (sp * sr).shift(-q) + (sq * sr).shift(-p)
    return sp * sq * sr


def _row(
    triple: tuple[int, int, int], k: int
) -> tuple[int, int, tuple[int, int, int], tuple[int, int, int], int]:
    """One ring's values at y = 2^k, each times y^n for n the ring's negative sum.

    Returns (T, T2, singles, shifts, n): with t_i the elementary symmetric
    functions of the ring's [x]_u and d = -(1 + y), T = t1 + d t2 + d^2 t3
    and T2 = t2 + d t3.  The three terms of t1 are singles[i] << shifts[i],
    left unshifted so that products of them are taken on the short ints
    and shifted once after.
    """
    d = -((1 << k) + 1)
    (pp, np_), (pq, nq), (pr, nr) = (_q_int(x, k) for x in triple)
    shifts = (k * (nq + nr), k * (np_ + nr), k * (np_ + nq))
    ppq = pp * pq
    e2 = (ppq << k * nr) + (pp * pr << k * nq) + (pq * pr << k * np_)
    e2d = e2 + d * (ppq * pr)
    t1 = (pp << shifts[0]) + (pq << shifts[1]) + (pr << shifts[2])
    return t1 + d * e2d, e2d, (pp, pq, pr), shifts, np_ + nq + nr


def bracket_girth3(rep: Girth3Rep) -> LaurentPoly:
    """Kauffman bracket of the girth-3 template, assembled per state class.

    <K> = A^(-w) F.  F has four blocks weighted by delta^0..delta^3: with
    t_i = e_i(s_p, s_q, s_r) and b_i likewise for the bottom ring,

        t0 b0 + t2 b2 + adj
        + delta (t1 b0 + t0 b1 + t2 b1 + t1 b2 + t3 b2 + t2 b3)
        + delta^2 (t2 b0 + t0 b2 + t3 b1 + t1 b3 + t3 b3 + anti)
        + delta^3 (t3 b0 + t0 b3),

    where adj sums s_x s_y over the six adjacent label pairs (p a, p c,
    q a, q b, r b, r c) and anti over the three antipodal ones (p b, q c,
    r a).  Put s_x = A^2 [x]_u and delta = A^-2 d, d = -(1 + y), and let
    t_i, b_i, adj and anti now stand for the same sums of the [x]_u.  A
    product then picks up y^((s-degree - delta-degree)/2) (module
    docstring), and with T = t1 + d t2 + d^2 t3, T2 = t2 + d t3 and B, B2
    likewise for the bottom, F = F0 + y F1 + y^2 F2 with

        F0 = t0 b0 + d (b0 T + t0 B + d anti)
        F1 = T B - anti - d^2 F2   (T B holds t1 b1 = adj + anti)
        F2 = T2 B2.

    F is evaluated once at y = 2^k, k = ``_slot_bits`` of the labels
    (``_girth3_value``): expanded, F is the 64 products over distinct
    labels the module docstring bounds, so its largest |coefficient| is at
    most 512 P / M and fits a k-bit slot.
    """
    labels = rep.top + rep.bottom
    k = _slot_bits(labels)
    value, low = _girth3_value(_row(rep.top, k), _row(rep.bottom, k), k, sum(labels))
    return LaurentPoly.from_packed(value, low, k, 4, _A)


def _girth3_value(top_row: tuple, bottom_row: tuple, k: int, w: int) -> tuple[int, int]:
    """(value, low) of the girth-3 bracket A^(-w) (F0 + y F1 + y^2 F2) of
    ``bracket_girth3`` at y = 2^k, from the ``_row`` of its top and bottom
    rings at that k: its coefficients are the slots of value, the first at
    exponent low.

    w is the label sum.  Any k at or above ``_slot_bits`` of the labels
    decodes to the same polynomial, so rows made at the k of a label bound
    serve every labelling within it.  Each antipodal product is taken on
    the unshifted singles of the two rows and shifted by the sum of their
    shifts.
    """
    d = -((1 << k) + 1)
    top, top2, (p, q, r), (sp, sq, sr), nt = top_row
    bot, bot2, (a, b, c), (sa, sb, sc), nb = bottom_row
    anti = (p * b << sp + sb) + (q * c << sq + sc) + (r * a << sr + sa)
    f2 = top2 * bot2
    f1 = top * bot - anti - d * d * f2
    f0 = (1 << k * (nt + nb)) + d * ((top << k * nb) + (bot << k * nt) + d * anti)
    value = f0 + (f1 << k) + (f2 << 2 * k)
    return value, -w - 4 * (nt + nb)


def census_jones(girth: int, max_abs: int):
    """(key, jones) for the census of girth ``girth`` (2 or 3) with labels
    bounded by ``max_abs``.

    ``key(labels, writhe)`` is the exact integer key (low, value) of the
    Jones polynomial of the rep with these ``reps.rep_labels`` and writhe,
    and ``jones(key)`` decodes it.  Two reps of the census have equal keys
    exactly when their Jones polynomials are equal:

    * **One slot width.** Every bracket is packed at k = ``_slot_bits``
      of the label bound m = max(max_abs, 1), taken as six labels for
      girth 3 and two for girth 2.  ``bracket_coefficient_bound`` grows
      with every |label|, so this k holds the coefficients of every rep
      whose labels are at most m.  The one other rep, a K(p) of the
      girth-2 census that absorbed a +-1 label, has |p| <= m + 1 but
      |<K(p)>|_inf <= 2 <= 8 m, inside the bound too.  With every
      |c_j| < 2^(k-1), value = sum c_j 2^(kj) has one such expansion, so at
      one k the value fixes the coefficients and the coefficients the
      value.
    * **Normalised.** The zero low slots are stripped (each leaves
      ``value & (2^k - 1) == 0``), so low is the least exponent.  The Jones
      polynomial is (-1)^w A^(-3w) times the bracket, read in quarter
      powers of t: low moves by -3w, and value is negated when w is odd.
      So (low, value) are the least exponent and the packed coefficients
      of the Jones polynomial itself.

    A girth-3 bracket is assembled from the ``_row`` of its two label
    triples, each made once and kept in a dict of this call.
    """
    m = max(max_abs, 1)
    if girth == 3:
        k = _slot_bits((m,) * 6)
        rows: dict[tuple, tuple] = {}

        def row(triple: tuple) -> tuple:
            found = rows.get(triple)
            if found is None:
                found = rows[triple] = _row(triple, k)
            return found

        def bracket(labels: tuple) -> tuple[int, int]:
            return _girth3_value(row(labels[:3]), row(labels[3:]), k, sum(labels))

    else:
        k = _slot_bits((m, m))

        def bracket(labels: tuple) -> tuple[int, int]:
            if len(labels) == 2:
                return _double_twist_value(*labels, k)
            return _single_twist_value(*labels, k)

    def key(labels: tuple, writhe: int) -> tuple[int, int]:
        value, low = bracket(labels)
        zero_slots = ((value & -value).bit_length() - 1) // k
        value >>= k * zero_slots
        return low + 4 * zero_slots - 3 * writhe, -value if writhe % 2 else value

    def jones(key: tuple[int, int]) -> LaurentPoly:
        low, value = key
        return LaurentPoly.from_packed(value, low, k, 4, "t")

    return key, jones


def bracket_diff(rep: Girth3Rep, perm: str) -> LaurentPoly:
    """Exact bracket difference under a bottom permutation or the pa swap."""
    if perm == "swap_pa":
        other = swap_pa(rep)
    else:
        other = permute_bottom(rep, perm)
    return bracket_girth3(rep) - bracket_girth3(other)


_DIFF_FACTOR = LaurentPoly.one(_A) - loop_value() ** 2


def diff_factor() -> LaurentPoly:
    """1 - (-A^2 - A^(-2))^2, the common factor of the bracket differences."""
    return _DIFF_FACTOR


def bracket_diff_formula(rep: Girth3Rep, perm: str) -> LaurentPoly:
    """Closed form of the bracket difference: A^(-w) (...) diff_factor().

    Transpositions give (s_x - s_y)(s_u - s_v) products of s_x = S_x A^x;
    the 3-cycles give the determinant with rows (s_p s_q s_r), the
    permuted bottom's s, ones (``_perm_core``).  It is one evaluation at
    y = A^4 = 2^k (module docstring):

    * **The core.**  Every term of the core is a product of two s's, and
      s_x = A^2 [x]_u, so the core is A^4 C with C the same core over the
      [x]_u.  With N the largest n of the labels' ``_q_int``, each y^N [x]_u
      is a polynomial in y, so C y^(2N) is one int.
    * **The factor.**  diff_factor() = 1 - delta^2 = -A^-4 (1 + y + y^2)
      is packed from its own terms, so the convention the calibration fixed
      is stated once.  The difference is A^(4 - 4 - w - 8N) times
      C y^(2N) (-(1 + y + y^2)).
    * **Slot width.**  [x]_u has |.|_1 = |x| and |.|_inf = 1 (module
      docstring), so with M = max(1, |label|) a product of two has
      |.|_inf <= M.  A transposition core is four such products, so
      |C|_inf <= 4M, and a 3-cycle six, so |C|_inf <= 6M; the factor has
      |.|_1 = 3, so |difference|_inf <= 6M * 3 = 18 M, and k is the least
      multiple of 8 with 18 M < 2^(k-1) (``_diff_slot_bits``).
    """
    if perm == "identity":
        return LaurentPoly.zero(_A)
    k = _diff_slot_bits(rep.top + rep.bottom)
    return LaurentPoly.from_packed(*_diff_value(rep, perm, k), k, 4, _A)


def _diff_slot_bits(labels: tuple[int, ...]) -> int:
    """k, the least multiple of 8 with 18 M < 2^(k-1), M = max(1, |label|)."""
    return 8 * (((18 * max(1, *map(abs, labels))).bit_length() + 8) // 8)


def _diff_value(rep: Girth3Rep, perm: str, k: int) -> tuple[int, int]:
    """(value, low) of ``bracket_diff_formula`` at y = 2^k: its coefficients
    are the slots of value, the first at exponent low."""
    labels = rep.top + rep.bottom
    q = {x: _q_int(x, k) for x in set(labels)}
    big_n = max(n for _, n in q.values())
    core = _perm_core(rep, perm, lambda x: q[x][0] << k * (big_n - q[x][1]))
    if core is None:
        raise ValueError(f"no closed difference form for {perm!r}")
    factor = diff_factor()
    lo = factor.min_exp()
    value = core * sum(c << k * ((e - lo) >> 2) for e, c in factor.terms)
    return value, 4 + lo - sum(labels) - 8 * big_n


def shat_cycle_det(rep: Girth3Rep, perm: str) -> LaurentPoly:
    """The S-determinant obstruction for a 3-cycle of the bottom labels."""
    return _cycle_det(rep, perm, s_hat)


def int_cycle_det(rep: Girth3Rep, perm: str) -> int:
    """The integer determinant controlling the Conway difference of a 3-cycle."""
    return _cycle_det(rep, perm, int)
