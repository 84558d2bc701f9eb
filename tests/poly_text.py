"""Polynomial text read back, and exact evaluation, for the tests.

No command reads polynomial text: the CLI prints polynomials with
``knotpair.laurent.poly_to_text`` and the tests parse that output with
``poly_from_text`` here.  ``reference_text`` is the term-by-term renderer
that ``poly_to_text`` must match.  ``evaluate`` checks closed forms at
rational points.
"""

import re
from fractions import Fraction
from math import gcd

from knotpair.laurent import MAX_EXPONENT, LaurentPoly

# the interpreter's default limit on the digits int() reads from a string
MAX_DIGITS = 4300

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?P<coeff>\d+)?\s*
        (?:(?P<var>[A-Za-z])
           (?:\^(?:(?P<exp>-?\d+)|\((?P<num>-?\d+)/(?P<den>\d+)\)))?
        )?\s*""",
    re.VERBOSE,
)


def _int(digits: str, what: str, pos: int) -> int:
    """``int(digits)``, refusing more than ``MAX_DIGITS`` digits with the
    term's position rather than the interpreter's own error."""
    if len(digits.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"{what} out of range at position {pos}")
    return int(digits)


def poly_from_text(text: str, tag: str | None = None, exp_denom: int = 1) -> LaurentPoly:
    """Parse the canonical text form back into a polynomial.

    Raises ValueError with the offending position on malformed input.
    """
    coeffs: dict[int, int] = {}
    pos = 0
    text = text.strip()
    if text == "0":
        return LaurentPoly((), tag or "A")
    seen_var = None
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial at position {pos}: {text[pos:]!r}")
        if not first and m.group("sign") is None:
            raise ValueError(f"missing +/- between terms at position {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        coeff = _int(m.group("coeff"), "coefficient", pos) if m.group("coeff") else 1
        var = m.group("var")
        if var is not None:
            if seen_var is None:
                seen_var = var
            elif seen_var != var:
                raise ValueError(f"mixed variables {seen_var!r} and {var!r}")
            if m.group("exp") is not None:
                exp = Fraction(_int(m.group("exp"), "exponent", pos))
            elif m.group("num") is not None:
                num = _int(m.group("num"), "exponent", pos)
                den = _int(m.group("den"), "exponent", pos)
                if den == 0:
                    raise ValueError(f"zero exponent denominator at position {pos}")
                exp = Fraction(num, den)
            else:
                exp = Fraction(1)
        else:
            exp = Fraction(0)
        scaled = exp * exp_denom
        if scaled.denominator != 1:
            raise ValueError(f"exponent {exp} not representable with denominator {exp_denom}")
        e = int(scaled)
        if abs(e) > MAX_EXPONENT:
            raise ValueError(f"exponent out of range at position {pos}")
        coeffs[e] = coeffs.get(e, 0) + sign * coeff
        pos = m.end()
        first = False
    result_tag = tag if tag is not None else (seen_var or "A")
    return LaurentPoly.from_dict(coeffs, result_tag)


def evaluate(p: LaurentPoly, x: "Fraction | int") -> Fraction:
    """Exact evaluation of ``p`` at a nonzero rational point."""
    x = Fraction(x)
    if x == 0 and p.terms and p.terms[0][0] < 0:
        raise ZeroDivisionError("negative exponent at x = 0")
    return sum((Fraction(c) * x**e for e, c in p.terms), Fraction(0))


def reference_text(p: LaurentPoly, exp_denom: int = 1) -> str:
    """The canonical text built term by term, with a ``divmod`` per exponent."""
    if p.is_zero():
        return "0"
    var = p.tag
    parts: list[str] = []
    for e, c in p.terms:
        whole, rest = divmod(e, exp_denom)
        if e == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            if rest:
                g = gcd(rest, exp_denom)
                body = f"{mag}{var}^({e // g}/{exp_denom // g})"
            elif whole == 1:
                body = f"{mag}{var}"
            else:
                body = f"{mag}{var}^{whole}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)
