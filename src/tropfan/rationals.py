"""Exact rational scalars and vectors, plus their string/JSON encodings.

Every geometric quantity in this package is a ``fractions.Fraction`` held in
lowest terms with a positive denominator (the Fraction class guarantees both).
Decimal literals such as "1.5" are parsed as exact decimal fractions, never
through binary floating point.  A decimal exponent above ``MAX_EXPONENT`` in
magnitude is rejected before any big integer is built: "1e999999999" would
otherwise ask for a billion-digit power of ten.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from typing import Iterable

Vec = tuple[Fraction, ...]

# Python's default int-string digit limit (sys.int_info.default_max_str_digits).
MAX_EXPONENT = 4300

_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)$")


def parse_rat(text: str) -> Fraction:
    """Parse a "p/q" or decimal literal exactly; the exponent is bounded by
    MAX_EXPONENT, and a zero denominator is a ValueError."""
    text = text.strip()
    match = _EXPONENT.search(text)
    if match:
        digits = match.group(1).replace("_", "").lstrip("0")
        # the length test keeps int() away from an arbitrarily long digit string
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise ValueError(
                f"decimal exponent of {text[:40]!r} exceeds the limit of {MAX_EXPONENT}"
            )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text[:40]!r}") from None
    except ValueError:
        raise ValueError(f"invalid rational literal {text[:40]!r}") from None


def rat(value) -> Fraction:
    """Coerce ints, "p/q" strings and decimal-literal strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"refusing to read the boolean {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rat(value)
    if isinstance(value, float):
        raise TypeError(
            "refusing to coerce a float to an exact rational; pass a string literal instead"
        )
    raise TypeError(f"cannot interpret a {type(value).__name__} as a rational")


def vec(values: Iterable) -> Vec:
    """Coerce each entry with ``rat``; a string is refused, not read digit by digit."""
    if isinstance(values, str):
        raise TypeError(f"expected a sequence of rationals, got the string {values[:40]!r}")
    return tuple(rat(v) for v in values)


def integerize(values: Iterable) -> tuple[tuple[int, ...], int]:
    """(den * values, den) for the least positive integer den making every
    entry an integer; ints and Fractions alike."""
    values = tuple(values)
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def format_rat(x: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_vec(v: Sequence[Fraction]) -> list[str]:
    return [format_rat(x) for x in v]


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n

