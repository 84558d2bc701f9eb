"""Exact integer Laurent polynomials in a single formal variable.

Everything downstream (brackets in A, Conway polynomials in z, Jones
polynomials in quarter powers of t) is built on the `LaurentPoly` type
defined here.  Coefficients and exponents are plain Python integers; no
floating point ever enters an invariant computation.

Multiplication has two paths with identical results.  Small operands use
the schoolbook double loop.  Large ones use Kronecker substitution
(Harvey, J. Symb. Comput. 44 (2009)): evaluate each operand at x = 2^k,
multiply the two Python ints once, and read the product's coefficients
back out of its k-bit slots.

* **Stride.** Exponents are first divided by their common stride, the gcd
  of the offsets of every exponent from its operand's lowest one.  Bracket
  exponents step by 4, so a bracket packs into a quarter of the slots.
* **Slot width.** A product coefficient is a sum of at most
  min(len a, len b) products, so its magnitude is at most
  max|a| * max|b| * min(len a, len b).  k is the least multiple of 8 with
  that bound below 2^(k-1): one bit to spare for the sign.
* **Signs.** Positive and negative coefficients are packed into two
  non-negative ints, whose difference is the operand's signed value at 2^k.
* **Decode.** Adding 2^(k-1) in every slot makes each slot's content
  c + 2^(k-1) lie in [1, 2^k), so no slot borrows from the next; the sum is
  cut into k-bit slots with ``to_bytes`` and the bias is taken off again.
  ``unpack`` is this one decoder; the closed-form brackets
  (``closedform``) use it too.
* **Selection.** Kronecker runs only when both operands have at least
  ``KRONECKER_MIN_TERMS`` terms and each operand's packed length, in slots,
  is at most ``KRONECKER_MAX_FILL`` times its term count.  Below the size
  crossover the loop is faster; the fill test keeps sparse input (say, two
  terms 2^40 apart) from allocating a buffer of one slot per exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
import re

# Exponents are kept inside a 64-bit-ish window so that a runaway
# computation fails loudly instead of silently chewing memory.
MAX_EXPONENT = 2**62

# Kronecker selection (see the module docstring).  Measured crossover for
# two operands of n terms each (CPython 3.11, x86-64): for n consecutive
# terms of stride 4 with coefficients +-1, the shape of S_p, the two paths
# meet at n = 16; for n random terms spread over 2n slots, near n = 24.
# When one operand is much longer than the other, as in most large bracket
# products, Kronecker wins earlier.
KRONECKER_MIN_TERMS = 16
KRONECKER_MAX_FILL = 4


class TagMismatchError(ValueError):
    """Binary operation on polynomials with different variable tags."""


@dataclass(frozen=True)
class LaurentPoly:
    """A Laurent polynomial, stored as sorted (exponent, coefficient) pairs.

    ``terms`` never contains a zero coefficient; the zero polynomial has an
    empty ``terms`` tuple.  ``tag`` is a semantic label for the variable
    ('A' for brackets, 'z' for Conway, 't' for Jones in quarter powers,
    'x' for Chebyshev) and must agree between operands of binary ops.
    """

    terms: tuple[tuple[int, int], ...]
    tag: str = "A"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dict(coeffs: dict[int, int], tag: str = "A") -> "LaurentPoly":
        items = tuple(sorted((e, c) for e, c in coeffs.items() if c != 0))
        return LaurentPoly.from_terms(items, tag)

    @staticmethod
    def from_terms(items: tuple[tuple[int, int], ...], tag: str = "A") -> "LaurentPoly":
        """From sorted (exponent, nonzero coefficient) pairs; checks the exponent range."""
        if items and (items[0][0] < -MAX_EXPONENT or items[-1][0] > MAX_EXPONENT):
            _raise_out_of_range(items)
        return LaurentPoly(items, tag)

    @staticmethod
    def zero(tag: str = "A") -> "LaurentPoly":
        return LaurentPoly((), tag)

    @staticmethod
    def one(tag: str = "A") -> "LaurentPoly":
        return LaurentPoly(((0, 1),), tag)

    @staticmethod
    def constant(c: int, tag: str = "A") -> "LaurentPoly":
        return LaurentPoly.from_dict({0: c}, tag)

    @staticmethod
    def monomial(coeff: int, exp: int, tag: str = "A") -> "LaurentPoly":
        return LaurentPoly.from_dict({exp: coeff}, tag)

    @staticmethod
    def var(tag: str = "A") -> "LaurentPoly":
        return LaurentPoly(((1, 1),), tag)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeffs(self) -> dict[int, int]:
        return dict(self.terms)

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

    def __add__(self, other: "int | LaurentPoly") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other, self.tag)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_tag(other)
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out, self.tag)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms), self.tag)

    def __sub__(self, other: "int | LaurentPoly") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.constant(other, self.tag)
        return self + (-other)

    def __rsub__(self, other: "int | LaurentPoly") -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: "int | LaurentPoly") -> "LaurentPoly":
        """Product; by the schoolbook loop or by Kronecker substitution.

        Both give the same terms.  Kronecker substitution (module docstring)
        is chosen when both operands have at least ``KRONECKER_MIN_TERMS``
        terms and each fills at least 1/``KRONECKER_MAX_FILL`` of its slots
        after dividing out the common exponent stride.  Either path raises
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
        a, b = self.terms, other.terms
        if len(a) >= KRONECKER_MIN_TERMS and len(b) >= KRONECKER_MIN_TERMS:
            items = _kronecker_product(a, b)
            if items is not None:
                return LaurentPoly.from_terms(items, self.tag)
        out: dict[int, int] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(out, self.tag)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self.terms) == 1 and self.terms[0][1] in (1, -1):
                e, c = self.terms[0]
                return LaurentPoly.monomial(c, -e, self.tag) ** (-n)
            raise ValueError("cannot invert a non-monomial Laurent polynomial")
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

    def derivative_at_one(self) -> int:
        """d/dv evaluated at v = 1, i.e. sum of exponent * coefficient."""
        return sum(e * c for e, c in self.terms)

    def evaluate(self, x: "Fraction | int") -> Fraction:
        """Exact evaluation at a nonzero rational point."""
        x = Fraction(x)
        if x == 0 and self.terms and self.terms[0][0] < 0:
            raise ZeroDivisionError("negative exponent at x = 0")
        return sum((Fraction(c) * x**e for e, c in self.terms), Fraction(0))

    def __str__(self) -> str:
        return poly_to_text(self)


def _raise_out_of_range(items: tuple[tuple[int, int], ...]) -> None:
    """Name the first exponent of the sorted items outside +-MAX_EXPONENT."""
    for e, _ in items:
        if abs(e) > MAX_EXPONENT:
            raise OverflowError(f"exponent {e} out of range")


def _dense(terms: tuple[tuple[int, int], ...], low: int, stride: int, slots: int) -> list[int]:
    """Coefficient list: slot i holds the coefficient of exponent low + i * stride."""
    dense = [0] * slots
    for e, c in terms:
        dense[(e - low) // stride] = c
    return dense


def _pack(dense: list[int], width: int) -> int:
    """sum(c * 2^(8 * width * i)) over the slots; each |c| < 2^(8 * width)."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in dense)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in dense)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_product(a: tuple[tuple[int, int], ...],
                       b: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...] | None:
    """The product's sorted terms by one big-integer product, or None if too sparse.

    Both term tuples have at least two terms; the packing is argued in the
    module docstring.
    """
    a0, b0 = a[0][0], b[0][0]
    stride = gcd(*[e - a0 for e, _ in a], *[e - b0 for e, _ in b])
    na = (a[-1][0] - a0) // stride + 1
    nb = (b[-1][0] - b0) // stride + 1
    if na > KRONECKER_MAX_FILL * len(a) or nb > KRONECKER_MAX_FILL * len(b):
        return None
    da, db = _dense(a, a0, stride, na), _dense(b, b0, stride, nb)
    bound = max(map(abs, da)) * max(map(abs, db)) * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8  # bytes per slot: bound < 2^(8 * width - 1)
    return unpack(_pack(da, width) * _pack(db, width), width, na + nb - 1, a0 + b0, stride)


def unpack(value: int, width: int, slots: int,
           low: int, stride: int) -> tuple[tuple[int, int], ...]:
    """Sorted nonzero terms of a packed value; the inverse of ``_pack``.

    ``value`` is sum(c_i * 2^(8 * width * i)) over at most ``slots`` slots,
    each |c_i| < 2^(8 * width - 1), and slot i holds the coefficient of
    exponent low + i * stride.  The biased cut is argued in the module
    docstring.
    """
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    data = (value + bias).to_bytes(slots * width, "little")
    values = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    half = 1 << (8 * width - 1)
    exps = range(low, low + slots * stride, stride)
    return tuple((e, v - half) for e, v in zip(exps, values) if v != half)


# ---------------------------------------------------------------------------
# spec-level operation wrappers


def lp_arith(op: str, x: LaurentPoly, y: LaurentPoly | int | None = None) -> LaurentPoly:
    """Dispatch basic arithmetic by name (add|sub|mul|neg|scale)."""
    if op == "neg":
        return -x
    if y is None:
        raise ValueError(f"operation {op!r} needs a second operand")
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "scale":
        if not isinstance(y, int):
            raise ValueError("scale expects an integer")
        return x * y
    raise ValueError(f"unknown operation {op!r}")


def lp_invert_variable(x: LaurentPoly) -> LaurentPoly:
    return x.invert_variable()


def lp_extremes(x: LaurentPoly) -> tuple[int, int, int]:
    """(min exponent, max exponent, span); rejects the zero polynomial."""
    if x.is_zero():
        raise ValueError("span of the zero polynomial is undefined")
    lo, hi = x.min_exp(), x.max_exp()
    return lo, hi, hi - lo


def lp_derivative_at_one(x: LaurentPoly) -> int:
    return x.derivative_at_one()


def chebyshev_U(n: int) -> LaurentPoly:
    """Chebyshev polynomial of the second kind, U_0 = 1, U_1 = 2x."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    u_prev = LaurentPoly.one("x")
    if n == 0:
        return u_prev
    two_x = LaurentPoly.monomial(2, 1, "x")
    u = two_x
    for _ in range(n - 1):
        u_prev, u = u, two_x * u - u_prev
    return u


def chebyshev_U_explicit(n: int) -> LaurentPoly:
    """U_n via the binomial sum over (x^2 - 1)^m, used as an independent check."""
    x = LaurentPoly.var("x")
    x2m1 = x * x - 1
    total = LaurentPoly.zero("x")
    for m in range(n // 2 + 1):
        total = total + comb(n + 1, 2 * m + 1) * (x ** (n - 2 * m)) * (x2m1**m)
    return total


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


def jones_span(jones: LaurentPoly) -> Fraction:
    """Exponent difference of a Jones polynomial measured in powers of t."""
    _, _, span = lp_extremes(jones)
    return Fraction(span, 4)


def jones_span_inclusive(jones: LaurentPoly) -> Fraction:
    """Degree-count span: exponent difference in t plus one.

    This is the convention under which the double twist family satisfies
    span = p + q; a one-term polynomial has inclusive span 1.
    """
    return jones_span(jones) + 1


@dataclass(frozen=True)
class RationalLaurent:
    """A formal quotient of Laurent polynomials, never auto-reduced."""

    numerator: LaurentPoly
    denominator: LaurentPoly

    def __post_init__(self) -> None:
        if self.denominator.is_zero():
            raise ZeroDivisionError("denominator is the zero polynomial")
        if self.numerator.tag != self.denominator.tag:
            raise TagMismatchError("numerator/denominator tag mismatch")

    def equals(self, other: "RationalLaurent | LaurentPoly") -> bool:
        """Cross-multiplication equality."""
        if isinstance(other, LaurentPoly):
            other = RationalLaurent(other, LaurentPoly.one(other.tag))
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __add__(self, other: "RationalLaurent") -> "RationalLaurent":
        return RationalLaurent(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __mul__(self, other: "RationalLaurent") -> "RationalLaurent":
        return RationalLaurent(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    def __neg__(self) -> "RationalLaurent":
        return RationalLaurent(-self.numerator, self.denominator)


# ---------------------------------------------------------------------------
# canonical text form


def poly_to_text(p: LaurentPoly, exp_denom: int = 1) -> str:
    """Canonical rendering: terms sorted by ascending exponent.

    ``exp_denom`` divides displayed exponents (4 for Jones quarter powers);
    fractional exponents render as e.g. ``t^(1/2)``.
    """
    if p.is_zero():
        return "0"
    var = p.tag
    parts: list[str] = []
    for e, c in p.terms:
        frac = Fraction(e, exp_denom)
        if frac == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            if frac == 1:
                body = f"{mag}{var}"
            elif frac.denominator == 1:
                body = f"{mag}{var}^{frac.numerator}"
            else:
                body = f"{mag}{var}^({frac.numerator}/{frac.denominator})"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def jones_to_text(p: LaurentPoly) -> str:
    """Render a Jones polynomial held in quarter powers of t."""
    return poly_to_text(p, exp_denom=4)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?P<coeff>\d+)?\s*
        (?:(?P<var>[A-Za-z])
           (?:\^(?:(?P<exp>-?\d+)|\((?P<num>-?\d+)/(?P<den>\d+)\)))?
        )?\s*""",
    re.VERBOSE,
)


def poly_from_text(text: str, tag: str | None = None, exp_denom: int = 1) -> LaurentPoly:
    """Parse the canonical text form back into a polynomial.

    Raises ValueError with the offending position on malformed input.
    """
    coeffs: dict[int, int] = {}
    pos = 0
    text = text.strip()
    if text == "0":
        return LaurentPoly.zero(tag or "A")
    seen_var = None
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial at position {pos}: {text[pos:]!r}")
        if not first and m.group("sign") is None:
            raise ValueError(f"missing +/- between terms at position {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        var = m.group("var")
        if var is not None:
            if seen_var is None:
                seen_var = var
            elif seen_var != var:
                raise ValueError(f"mixed variables {seen_var!r} and {var!r}")
            if m.group("exp") is not None:
                exp = Fraction(int(m.group("exp")))
            elif m.group("num") is not None:
                exp = Fraction(int(m.group("num")), int(m.group("den")))
            else:
                exp = Fraction(1)
        else:
            exp = Fraction(0)
        scaled = exp * exp_denom
        if scaled.denominator != 1:
            raise ValueError(f"exponent {exp} not representable with denominator {exp_denom}")
        e = int(scaled)
        coeffs[e] = coeffs.get(e, 0) + sign * coeff
        pos = m.end()
        first = False
    result_tag = tag if tag is not None else (seen_var or "A")
    return LaurentPoly.from_dict(coeffs, result_tag)
