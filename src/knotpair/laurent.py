"""Exact integer Laurent polynomials in a single formal variable.

Everything downstream (brackets in A, Conway polynomials in z, Jones
polynomials in quarter powers of t) is built on the `LaurentPoly` type
defined here.  Coefficients and exponents are plain Python integers; no
floating point ever enters an invariant computation.

Each operation passes over the terms once where it can.  A product with a
one-term operand, such as the writhe normalisation in
``jones_from_bracket``, shifts and scales the other operand's tuple, which
stays sorted; every other product is the schoolbook double loop over all
pairs of terms into a dict.  Sums and differences merge into a dict too, and
``from_dict`` sorts its items in C.

``unpack`` decodes a polynomial packed into one Python int, coefficient c_i
in the 8*width-bit slot i, as sum(c_i * 2^(8 * width * i)).  The closed-form
brackets (``closedform``) and the girth-3 Conway table (``g3table``) evaluate
at a power of 2 and read their coefficients back this way, through
``LaurentPoly.from_packed``.  Adding the bias 2^(8 * width - 1) in every slot
makes each slot's content c + 2^(8 * width - 1) lie in [1, 2^(8 * width)) when
|c| < 2^(8 * width - 1), so no slot borrows from the next.  XOR with the same
bias then flips each slot's top bit back, which leaves c mod 2^(8 * width),
the slot's coefficient in two's complement.  The whole value is cut into
bytes once with ``to_bytes``, and the slots are read in C-level passes:

* 1-, 2-, 4- and 8-byte slots are one ``memoryview.cast`` to a signed C
  type ("b", "h", "i" or "q");
* 3-, 5-, 6- and 7-byte slots are first sign-extended into 8-byte slots: one
  strided slice copy per byte of the slot, and the sign bytes (0x00 or 0xff
  by the top bit of each slot's top byte) from one ``bytes.translate`` of the
  top bytes, copied into every byte above the slot; then one cast with "q".

A cast reads the platform's byte order, so on a big-endian platform, and
for slots wider than 8 bytes, which have no C type, each slot is read by its
own ``int.from_bytes`` of the biased bytes, less the bias.  Only girth-3
brackets whose six labels are all about 1800 or more in absolute value need
such slots (past 2^63 for 512 P / M); neither the census nor any perfbench
input reaches them, so they keep that path rather than a limb-combining one.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from operator import sub

from .record import Record, set_field

# Exponents are kept inside a 64-bit-ish window so that a runaway
# computation fails loudly instead of silently chewing memory.
MAX_EXPONENT = 2**62

# ``memoryview.cast`` reads native byte order; the slot casts of ``unpack``
# need it little-endian.
_CAST_SLOTS = sys.byteorder == "little"
_CAST_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}
# ``bytes.translate`` table: a byte to the sign byte of its top bit
_SIGN_BYTES = bytes(128) + b"\xff" * 128


class TagMismatchError(ValueError):
    """Binary operation on polynomials with different variable tags."""


class LaurentPoly(Record):
    """A Laurent polynomial, stored as sorted (exponent, coefficient) pairs.

    ``terms`` never contains a zero coefficient; the zero polynomial has an
    empty ``terms`` tuple.  ``tag`` is a semantic label for the variable
    ('A' for brackets, 'z' for Conway, 't' for Jones in quarter powers)
    and must agree between operands of binary ops.
    """

    __slots__ = ("terms", "tag")

    def __init__(self, terms: tuple[tuple[int, int], ...], tag: str = "A") -> None:
        set_field(self, "terms", terms)
        set_field(self, "tag", tag)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dict(coeffs: dict[int, int], tag: str = "A") -> "LaurentPoly":
        if 0 in coeffs.values():
            coeffs = {e: c for e, c in coeffs.items() if c}
        return LaurentPoly.from_terms(tuple(sorted(coeffs.items())), tag)

    @staticmethod
    def from_terms(items: tuple[tuple[int, int], ...], tag: str = "A") -> "LaurentPoly":
        """From sorted (exponent, nonzero coefficient) pairs; checks the exponent range."""
        if items and (items[0][0] < -MAX_EXPONENT or items[-1][0] > MAX_EXPONENT):
            _raise_out_of_range(items)
        return LaurentPoly(items, tag)

    @staticmethod
    def from_packed(value: int, low: int, k: int, stride: int, tag: str) -> "LaurentPoly":
        """The polynomial whose exponent low + j * stride has the k-bit slot j
        of ``value`` as its coefficient (``unpack``; k a multiple of 8)."""
        slots = abs(value).bit_length() // k + 1
        return LaurentPoly.from_terms(unpack(value, k // 8, slots, low, stride), tag)

    @staticmethod
    def zero(tag: str = "A") -> "LaurentPoly":
        return LaurentPoly((), tag)

    @staticmethod
    def one(tag: str = "A") -> "LaurentPoly":
        return LaurentPoly(((0, 1),), tag)

    @staticmethod
    def monomial(coeff: int, exp: int, tag: str = "A") -> "LaurentPoly":
        return LaurentPoly.from_dict({exp: coeff}, tag)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no minimal exponent")
        return self.terms[0][0]

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no maximal exponent")
        return self.terms[-1][0]

    # -- ring operations ----------------------------------------------------

    def _check_tag(self, other: "LaurentPoly") -> None:
        if self.tag != other.tag:
            raise TagMismatchError(f"tag mismatch: {self.tag!r} vs {other.tag!r}")

    def _merge(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, for sign +-1: one dict pass over other's terms."""
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_tag(other)
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms:
            out[e] = get(e, 0) + sign * c
        return LaurentPoly.from_dict(out, self.tag)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._merge(other, 1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms), self.tag)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._merge(other, -1)

    def __mul__(self, other: "int | LaurentPoly") -> "LaurentPoly":
        """Product: a shift when an operand has one term, else the schoolbook loop.

        A one-term operand m x^k turns each term (e, c) of the other into
        (e + k, c m) in one pass, which keeps the order.  Raises
        ``OverflowError`` naming the first product exponent past
        ``MAX_EXPONENT``.
        """
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.tag)
            return LaurentPoly(tuple((e, c * other) for e, c in self.terms), self.tag)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_tag(other)
        terms, other_terms = self.terms, other.terms
        if len(terms) == 1:
            terms, other_terms = other_terms, terms
        if len(other_terms) == 1:
            (k, m), = other_terms
            return LaurentPoly.from_terms(tuple([(e + k, c * m) for e, c in terms]), self.tag)
        out: dict[int, int] = {}
        get = out.get
        for e1, c1 in terms:
            for e2, c2 in other_terms:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(out, self.tag)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError(f"negative power {n} of a Laurent polynomial")
        result = LaurentPoly.one(self.tag)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structural operations ----------------------------------------------

    def invert_variable(self) -> "LaurentPoly":
        """Substitute the variable by its inverse (exponent negation)."""
        return LaurentPoly(tuple(sorted((-e, c) for e, c in self.terms)), self.tag)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by variable**k."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.terms), self.tag)

    def retag(self, tag: str) -> "LaurentPoly":
        return LaurentPoly(self.terms, tag)

    def __str__(self) -> str:
        return poly_to_text(self)


def _raise_out_of_range(items: tuple[tuple[int, int], ...]) -> None:
    """Name the first exponent of the sorted items outside +-MAX_EXPONENT."""
    for e, _ in items:
        if abs(e) > MAX_EXPONENT:
            raise OverflowError(f"exponent {e} out of range")


def slot_bits(bound: int) -> int:
    """k, the least multiple of 8 with bound < 2^(k-1): the slot width at
    which ``LaurentPoly.from_packed`` reads back coefficients of absolute
    value at most ``bound``."""
    return 8 * ((bound.bit_length() + 8) // 8)


def unpack(value: int, width: int, slots: int,
           low: int, stride: int) -> tuple[tuple[int, int], ...]:
    """Sorted nonzero terms of a packed value.

    ``value`` is sum(c_i * 2^(8 * width * i)) over at most ``slots`` slots,
    each |c_i| < 2^(8 * width - 1), and slot i holds the coefficient of
    exponent low + i * stride.  The biased cut, the casts and the per-slot
    path for widths past 8 bytes are argued in the module docstring.
    """
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    if width > 8 or not _CAST_SLOTS:
        data = (value + bias).to_bytes(slots * width, "little")
        # zip over one iterator cuts the bytes into width-byte tuples
        values = map(int.from_bytes, zip(*[iter(data)] * width), repeat("little"))
        coeffs = list(map(sub, values, repeat(1 << (8 * width - 1))))
    else:
        data = ((value + bias) ^ bias).to_bytes(slots * width, "little")
        fmt = _CAST_FORMATS.get(width)
        if fmt is None:
            wide = bytearray(8 * slots)
            for j in range(width):
                wide[j::8] = data[j::width]
            signs = data[width - 1::width].translate(_SIGN_BYTES)
            for j in range(width, 8):
                wide[j::8] = signs
            data, fmt = wide, "q"
        coeffs = memoryview(data).cast(fmt).tolist()
    exps = range(low, low + slots * stride, stride)
    return tuple(compress(zip(exps, coeffs), coeffs))


# ---------------------------------------------------------------------------
# spans and the Jones substitution


def jones_from_bracket(bracket: LaurentPoly, writhe: int) -> LaurentPoly:
    """Writhe-normalize a bracket and substitute A^4 = t.

    The result is returned in the variable t^(1/4): an exponent e stands for
    t^(e/4).  Integer t powers therefore appear as exponents divisible by 4,
    and the span in t is span/4.
    """
    if bracket.tag != "A":
        raise TagMismatchError("bracket must be a polynomial in A")
    if bracket.is_zero():
        raise ValueError("bracket of a nonempty diagram cannot be zero")
    sign = -1 if writhe % 2 else 1
    normalized = bracket * LaurentPoly.monomial(sign, -3 * writhe, "A")
    return normalized.retag("t")


def jones_span_inclusive(jones: LaurentPoly) -> Fraction:
    """Degree-count span: exponent difference in t plus one.

    This is the convention under which the double twist family satisfies
    span = p + q; a one-term polynomial has inclusive span 1.  The zero
    polynomial has no span and is refused with ``ValueError``.
    """
    if jones.is_zero():
        raise ValueError("span of the zero polynomial is undefined")
    return Fraction(jones.max_exp() - jones.min_exp() + 4, 4)


# ---------------------------------------------------------------------------
# canonical text form


def poly_to_text(p: LaurentPoly, exp_denom: int = 1) -> str:
    """Canonical rendering: terms sorted by ascending exponent.

    ``exp_denom`` divides displayed exponents (4 for Jones quarter powers);
    fractional exponents render as e.g. ``t^(1/2)``.  Each term is one
    f-string such as " + 3t^2" or " - t"; once the terms are joined, the
    first one's " + " becomes "" and its " - " becomes "-".
    """
    if p.is_zero():
        return "0"
    var = p.tag
    parts: list[str] = []
    append = parts.append
    for e, c in p.terms:
        sign = " + "
        if c < 0:
            sign, c = " - ", -c
        if e == 0:
            append(f"{sign}{c}")
            continue
        mag = "" if c == 1 else c
        if e == exp_denom:
            append(f"{sign}{mag}{var}")
        elif e % exp_denom:
            g = gcd(e, exp_denom)
            append(f"{sign}{mag}{var}^({e // g}/{exp_denom // g})")
        else:
            append(f"{sign}{mag}{var}^{e // exp_denom}")
    text = "".join(parts)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def jones_to_text(p: LaurentPoly) -> str:
    """Render a Jones polynomial held in quarter powers of t."""
    return poly_to_text(p, exp_denom=4)
