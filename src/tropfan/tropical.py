"""Exact evaluation of tropical signomials and tropical rational functions.

A signomial is max_i (a_i + <s_i, x>); a rational function is the difference
of two signomials.  Evaluation returns the attaining term indices alongside
the value, because everything downstream (activation patterns, classifier
signs, cone membership) is decided by exact argmax sets, never by tolerances.
Term indices are 1-based throughout, matching the reporting convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Sequence

from .rationals import Vec, integerize, rat, vec

Term = tuple[Fraction, Vec]  # (a, s): the affine form a + <s, x>


@dataclass(frozen=True)
class SignomialParams:
    terms: tuple[Term, ...]
    d: int

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a signomial needs at least one term")
        for a, s in self.terms:
            if len(s) != self.d:
                raise ValueError(f"term slope of length {len(s)} in dimension {self.d}")

    @property
    def n(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class TropicalRationalParams:
    num: SignomialParams
    den: SignomialParams

    def __post_init__(self):
        if self.num.d != self.den.d:
            raise ValueError("numerator and denominator dimensions differ")

    @property
    def d(self) -> int:
        return self.num.d

    @property
    def n(self) -> int:
        return self.num.n

    @property
    def m(self) -> int:
        return self.den.n

    def merged(self) -> SignomialParams:
        """The n+m term signomial g (+) h; numerator terms keep indices 1..n."""
        return SignomialParams(self.num.terms + self.den.terms, self.d)


def signomial(terms, d: int | None = None) -> SignomialParams:
    """Convenience constructor accepting any rational-coercible entries."""
    built = tuple((rat(a), vec(s)) for a, s in terms)
    if d is None:
        d = len(built[0][1])
    return SignomialParams(built, d)


def integer_terms(terms: Sequence[Term]) -> list[tuple[int, ...]]:
    """Rows (a_i, *s_i) of the terms scaled by one positive integer to integers."""
    flat = iter(integerize(v for a, s in terms for v in (a, *s))[0])
    return [tuple(islice(flat, 1 + len(s))) for _, s in terms]


def term_difference(hi: Sequence[int], lo: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of term_hi(x) - term_lo(x) over (w, x), from two rows of
    ``integer_terms``: the homogenized input-space row of the tie."""
    return tuple(u - v for u, v in zip(hi, lo))


def region_rows(t: tuple[int, ...], terms: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Strict rows over (w, x), from rows of ``integer_terms``, of the region
    where term t alone attains the maximum: w > 0, then term_t - term_u > 0
    for each term u of ``terms`` other than t, in order."""
    return ((1,) + (0,) * (len(t) - 1),) + tuple(term_difference(t, u) for u in terms if u != t)


def eval_signomial(params: SignomialParams, x: Sequence[Fraction]) -> tuple[Fraction, frozenset[int]]:
    """Value max_i (a_i + <s_i, x>) together with the 1-based argmax set.

    Integer terms at an integer point are evaluated in integers, with no
    Fraction arithmetic."""
    if len(x) != params.d:
        raise ValueError(f"point of length {len(x)} in dimension {params.d}")
    best: Fraction | None = None
    arg: list[int] = []
    for i, (a, s) in enumerate(params.terms, start=1):
        v = a + sum(map(mul, s, x))
        if best is None or v > best:
            best, arg = v, [i]
        elif v == best:
            arg.append(i)
    assert best is not None
    return best, frozenset(arg)


def eval_rational(theta: TropicalRationalParams, x: Sequence[Fraction]) -> Fraction:
    return eval_signomial(theta.num, x)[0] - eval_signomial(theta.den, x)[0]


def classify(theta: TropicalRationalParams, p: Sequence[Fraction]) -> int:
    """Sign of g(p) - h(p): -1, 0 or +1, exact (a tie is reported as 0)."""
    v = eval_rational(theta, p)
    return (v > 0) - (v < 0)
