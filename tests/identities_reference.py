"""The term-by-term identity checker, kept as the reference for
``knotpair.classify.check_identities``, which reads the Jones and Conway
polynomials as slot lists and sums whole slices of them.  Both raise the
same ``AssertionError`` messages, in the same order.  ``slot_form`` reads
polynomials into the slot checker's arguments.
"""


def check_identities(comps, conway, jones) -> None:
    """Raise AssertionError unless the polynomials satisfy the four
    identities: V(1) = (-2)^(c-1); for a knot, V in Z[t, 1/t], V(w) = 1 at
    w = e^(2 pi i/3), and with a Conway polynomial, nabla in Z[z^2],
    nabla(0) = 1 and |V(-1)| = |nabla(2i)|.

    One pass over the Jones terms sums the coefficients by exponent mod 24
    and ORs the exponents together: for e = 4n, e mod 24 = 4 (n mod 6)
    gives both n mod 3 and the sign (-1)^n.
    """
    sums = [0] * 24
    bits = 0
    for e, c in jones.terms:
        sums[e % 24] += c
        bits |= e
    v1 = sum(sums)
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
    nabla_0 = dict(conway.terms).get(0, 0)
    if nabla_0 != 1:
        raise AssertionError(f"nabla(0) = {nabla_0} for a knot")
    v_minus = sums[0] + sums[8] + sums[16] - sums[4] - sums[12] - sums[20]
    nabla_2i = sum(c * (-4) ** (e // 2) for e, c in conway.terms)
    if abs(v_minus) != abs(nabla_2i):
        raise AssertionError(f"|V(-1)| = {abs(v_minus)} but |nabla(2i)| = {abs(nabla_2i)}")


def slot_form(comps, conway, jones):
    """The ``check_identities`` arguments after ``comps`` of these
    polynomials: the Conway coefficients of z^0, z^2, ... (None for None),
    and the Jones polynomial's least exponent and its coefficients at
    stride 4 from it, each read in one pass (``_slots``).

    A bracket's exponents agree mod 4, and so do the Jones polynomial's.
    A term off either stride has no slot, and raises ``AssertionError``:
    a Conway polynomial outside Z[z^2] ("knot Conway in odd powers of z"),
    or a Jones polynomial whose exponents differ by a fractional power of t.
    """
    terms = jones.terms
    low = terms[0][0] if terms else 0
    slots = _slots(terms, low, 2)
    if slots is None:
        raise AssertionError(
            "knot Jones in fractional powers of t" if comps == 1
            else "link Jones in powers of t differing by a fraction"
        )
    if conway is None:
        return None, low, slots
    nabla = _slots(conway.terms, 0, 1)
    if nabla is None:
        raise AssertionError("knot Conway in odd powers of z")
    return nabla, low, slots


def _slots(terms, low, shift):
    """The coefficients of exponents low, low + 2^shift, ... up to the top
    term, or None when a term lies below low or off that stride.

    One comprehension keeps the coefficients of the terms whose exponent
    has the low ``shift`` bits of low, so a term off the stride is one
    dropped.  Then the coefficients are the slots, unless some slot between
    two terms is zero and they are spread out by a second pass.
    """
    if not terms:
        return []
    mask = (1 << shift) - 1
    r = low & mask
    coeffs = [c for e, c in terms if e & mask == r]
    if len(coeffs) != len(terms) or terms[0][0] < low:
        return None
    n = ((terms[-1][0] - low) >> shift) + 1
    if n == len(coeffs):
        return coeffs
    slots = [0] * n
    for e, c in terms:
        slots[(e - low) >> shift] = c
    return slots
