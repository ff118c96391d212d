"""Exact rational linear algebra and linear programming for homogeneous cones.

The only LP ever solved here is slack maximization over a homogeneous system:

    maximize t   subject to   f.x >= 0  (nonstrict rows)
                              f.x >= t  (strict rows)
                              g.x  = 0  (equality rows)
                              0 <= t <= 1

The origin with t = 0 is always feasible, so a single-phase primal simplex
suffices.  The tableau is kept as an integer matrix with one common positive
denominator q (the previous pivot entry), and it is compact: it stores only
the nonbasic columns and the rhs, with ``nonbasic[j]`` naming the variable of
column j.  The basic columns of the full tableau are q times unit vectors, so
they carry no information.  A pivot on M[r][c] performs the classical
integer-preserving (Edmonds-Bareiss) update on every other row, objective
included,

    M'[i][j] = (M[i][j] * M[r][c] - M[i][c] * M[r][j]) // q ,

keeps row r, and then swaps columns: the entering variable's column c becomes
the leaving variable's, which holds -M[i][c] in row i and q in row r, and the
new denominator is M[r][c].  Every stored entry equals the same entry of the
full tableau, so each division is exact and no Fraction arithmetic happens in
the inner loop; ``TROPFAN_CHECK_PIVOTS=1`` checks every remainder.
Anti-cycling is by Bland's rule; Dantzig's rule is used while the objective is
moving, switching to Bland during degenerate stalls, which preserves the
termination guarantee.  Both rules break ties by variable id, never by column
position, so the pivots are those of the full tableau.

Strict feasibility of a mixed system is equivalent to optimum t > 0, and a
nonstrict row is an implied equality of the cone iff its one-row slack
maximization has optimum 0.  Cone dimension is the ambient dimension minus the
rank of the implied-equality normals, computed by fraction-free (Bareiss)
elimination.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .rationals import Vec, dot, vadd, zeros

LinearForm = Vec

_CHECK_DIVISION = bool(os.environ.get("TROPFAN_CHECK_PIVOTS"))

# Pivots spent in a degenerate stall before switching from Dantzig to Bland.
_STALL_LIMIT = 12


class PivotLimitError(RuntimeError):
    """Circuit breaker; Bland's rule makes this unreachable in theory."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Homogeneous inequalities f.x >= 0 (nonstrict) and f.x > 0 (strict)."""

    nonstrict: tuple[LinearForm, ...]
    strict: tuple[LinearForm, ...]
    ambient_dim: int

    def __post_init__(self):
        for row in self.nonstrict + self.strict:
            if len(row) != self.ambient_dim:
                raise ValueError(
                    f"row of length {len(row)} in system of ambient dimension {self.ambient_dim}"
                )


@dataclass(frozen=True)
class ConeDescriptor:
    """A cone's H-description with derived dimension and implied equalities."""

    system: ConstraintSystem
    dimension: int
    implied_equalities: frozenset[int]


def _integerize(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """Clear denominators; returns the scaled row and the scale factor."""
    den = 1
    for x in row:
        d = x.denominator
        den = den * d // gcd(den, d)
    return [int(x.numerator * (den // x.denominator)) for x in row], den


def _eliminate_checked(row: list[int], prow: list[int], c: int, piv: int, q: int) -> list[int]:
    """One non-pivot row after pivoting on ``prow[c] = piv`` with old denominator q,
    every division checked for a zero remainder."""
    f = row[c]
    out = []
    for x, p in zip(row, prow):
        v, rem = divmod(x * piv - f * p, q)
        if rem:
            raise ArithmeticError("integer pivoting produced a non-exact division")
        out.append(v)
    out[c] = -f
    return out


class _Simplex:
    """Primal simplex on  max c.x : A x <= b, x >= 0  with b >= 0.

    Variables are numbered 0..n-1 (structural) and n..n+m-1 (slacks).  The
    tableau holds the n nonbasic columns and the rhs; ``nonbasic[j]`` is the
    variable of column j and ``basis[i]`` the variable of row i.  Row m is the
    objective row, whose rhs slot holds -z.
    """

    def __init__(self, a_rows: list[list[int]], b: list[int], c: list[int]):
        m, n = len(a_rows), len(c)
        self.rows = [a_rows[i] + [b[i]] for i in range(m)] + [c + [0]]
        self.den = 1
        self.basis = list(range(n, n + m))
        self.nonbasic = list(range(n))
        self.m, self.n = m, n

    def solve(self, pivot_limit: int = 200_000) -> Fraction:
        m, n = self.m, self.n
        rows, basis, nonbasic = self.rows, self.basis, self.nonbasic
        stall = 0
        last_num, last_den = 0, 1  # z = -obj[n] / den after the previous pivot
        for _ in range(pivot_limit):
            obj = rows[m]
            # Entering column; ties and Bland's rule go by variable id, not position.
            enter = -1
            if stall >= _STALL_LIMIT:
                for j in range(n):
                    if obj[j] > 0 and (enter < 0 or nonbasic[j] < nonbasic[enter]):
                        enter = j
            else:
                best = 0
                for j in range(n):
                    v = obj[j]
                    if v > best or (v == best > 0 and nonbasic[j] < nonbasic[enter]):
                        enter, best = j, v
            if enter < 0:
                return Fraction(-obj[n], self.den)
            # Ratio test: min b_i / a_ie over a_ie > 0, Bland tie-break on basis index.
            leave = -1
            lb = lr = 0
            for i in range(m):
                a = rows[i][enter]
                if a <= 0:
                    continue
                bi = rows[i][n]
                if leave < 0 or bi * lr < lb * a or (bi * lr == lb * a and basis[i] < basis[leave]):
                    leave, lb, lr = i, bi, a
            if leave < 0:
                raise PivotLimitError("LP unbounded; slack objective is bounded by construction")
            self._pivot(leave, enter)
            # den > 0 (pivots are positive), so z moved iff the cross products differ.
            num, den = -rows[m][n], self.den
            stall = 0 if num * last_den != last_num * den else stall + 1
            last_num, last_den = num, den
        raise PivotLimitError("pivot limit exceeded")

    def _pivot(self, r: int, c: int):
        """Integer-preserving pivot on rows[r][c], then the column swap (see the
        module docstring); the checked or the plain update is chosen once."""
        rows, q = self.rows, self.den
        prow = rows[r]
        piv = prow[c]
        if _CHECK_DIVISION:
            for i, row in enumerate(rows):
                if i != r:
                    rows[i] = _eliminate_checked(row, prow, c, piv, q)
        else:
            for i, row in enumerate(rows):
                f = row[c]
                if f:
                    if i != r:
                        row = [(x * piv - f * p) // q for x, p in zip(row, prow)]
                        row[c] = -f  # the leaving variable's column
                        rows[i] = row
                elif piv != q:
                    rows[i] = [x * piv // q for x in row]
        prow[c] = q
        self.den = piv
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]

    def value_of(self, col: int) -> Fraction:
        for i in range(self.m):
            if self.basis[i] == col:
                return Fraction(self.rows[i][self.n], self.den)
        return Fraction(0)


def max_slack(
    dim: int,
    nonstrict: Sequence[LinearForm] = (),
    strict: Sequence[LinearForm] = (),
    equalities: Sequence[LinearForm] = (),
) -> tuple[Fraction, Vec]:
    """Maximize the common slack t of the strict rows; returns (t*, x*).

    x is free (encoded as a difference of nonnegatives), t is clamped to [0, 1]
    so the LP is always bounded and (0, 0) is always feasible.
    """
    a_rows: list[list[int]] = []
    b: list[int] = []

    def add(frow: Sequence[int], tcoef: int, rhs: int):
        # f.x - tcoef*t >= 0  becomes  -f.u + f.v + tcoef*t <= 0   (x = u - v)
        a_rows.append([-x for x in frow] + list(frow) + [tcoef])
        b.append(rhs)

    for f in nonstrict:
        add(_integerize(f)[0], 0, 0)
    for f in strict:
        # Scaling the row scales its slack too, so t keeps the original scale.
        fi, den = _integerize(f)
        add(fi, den, 0)
    for f in equalities:
        fi, _ = _integerize(f)
        add(fi, 0, 0)
        add([-x for x in fi], 0, 0)
    a_rows.append([0] * (2 * dim) + [1])  # t <= 1
    b.append(1)

    c = [0] * (2 * dim) + [1]
    sx = _Simplex(a_rows, b, c)
    opt = sx.solve()
    x = tuple(sx.value_of(j) - sx.value_of(dim + j) for j in range(dim))
    return opt, x


def lp_feasible(system: ConstraintSystem) -> Optional[Vec]:
    """Exact witness of the mixed system, or None when no point meets every strict row.

    A homogeneous nonstrict system always contains the origin, so infeasibility
    can only come from the strict rows.  The returned witness is re-substituted
    into every row as a guard against any arithmetic defect.
    """
    opt, x = max_slack(system.ambient_dim, system.nonstrict, system.strict)
    if opt <= 0:
        return None
    for f in system.nonstrict:
        if dot(f, x) < 0:
            raise AssertionError("LP witness violates a nonstrict row")
    for f in system.strict:
        if dot(f, x) <= 0:
            raise AssertionError("LP witness violates a strict row")
    return x


def relint_point(system: ConstraintSystem) -> tuple[Vec, frozenset[int]]:
    """A point in the relative interior of {x : nonstrict rows >= 0}, plus the implied rows.

    Strict rows are ignored: the cone geometry of this package lives entirely
    in the closed systems.  Builds the point by accumulating one positive-slack
    witness per row; rows whose slack maximization tops out at 0 are exactly
    the implied equalities, and the accumulated point is positive on every
    other row, which places it in the relative interior.
    """
    rows = system.nonstrict
    dim = system.ambient_dim
    if not rows:
        return zeros(dim), frozenset()
    opt, acc = max_slack(dim, (), rows)
    if opt > 0:
        return acc, frozenset()
    implied = set()
    for r, f in enumerate(rows):
        if dot(f, acc) > 0:
            continue
        opt_r, x = max_slack(dim, rows[:r] + rows[r + 1 :], (f,))
        if opt_r == 0:
            implied.add(r)
        else:
            acc = vadd(acc, x)
    return acc, frozenset(implied)


def implied_equalities(system: ConstraintSystem) -> frozenset[int]:
    """Indices of nonstrict rows that hold with equality at every feasible point."""
    return relint_point(system)[1]


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    mat = [_integerize(r)[0] for r in rows if any(r)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        p = next((i for i in range(row, len(mat)) if mat[i][col]), -1)
        if p < 0:
            continue
        mat[row], mat[p] = mat[p], mat[row]
        pivot = mat[row][col]
        for i in range(row + 1, len(mat)):
            f = mat[i][col]
            mat[i] = [(pivot * x - f * y) // prev for x, y in zip(mat[i], mat[row])]
        prev = pivot
        row += 1
        rank += 1
        if row == len(mat):
            break
    return rank


def describe_cone(system: ConstraintSystem) -> ConeDescriptor:
    """Dimension and implied equalities of the closed cone {nonstrict rows >= 0}."""
    _, implied = relint_point(system)
    return _descriptor_from_implied(system, implied)


def _descriptor_from_implied(system: ConstraintSystem, implied: frozenset[int]) -> ConeDescriptor:
    normals = [system.nonstrict[r] for r in sorted(implied)]
    dim = system.ambient_dim - exact_rank(normals)
    return ConeDescriptor(system=system, dimension=dim, implied_equalities=implied)


def cone_dim(system: ConstraintSystem) -> int:
    return describe_cone(system).dimension
