"""Exact rational scalars and vectors, plus their string/JSON encodings.

Every geometric quantity in this package is a ``fractions.Fraction`` held in
lowest terms with a positive denominator (the Fraction class guarantees both).
Decimal literals such as "1.5" are parsed as exact decimal fractions, never
through binary floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


def rat(value) -> Fraction:
    """Coerce ints, "p/q" strings and decimal-literal strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(
            "refusing to coerce a float to an exact rational; pass a string literal instead"
        )
    raise TypeError(f"cannot interpret {value!r} as a rational")


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


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


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n
