"""Exact rational linear algebra and linear programming for homogeneous cones.

The only LP ever solved here is slack maximization over a homogeneous system
of integer rows:

    maximize t   subject to   f.x >= 0  (nonstrict rows)
                              f.x >= t  (strict rows)
                              g.x  = 0  (equality rows)
                              0 <= t <= 1

The origin with t = 0 is always feasible, and every solve is one dual
simplex (Lemke 1954) from a dual feasible tableau: the optimum of the empty
system (t = 1, x = 0), or, in a warm solve, the optimal tableau of a system
that the new rows extend.  The rows are added in the nonbasic columns, and
each row in turn, equality rows first, pivots into the basis the free x_j
of lowest index with an entry in it; x_j has objective entry 0, so no ratio
test is needed and the tableau stays dual feasible.  The slack of a pivoted
equality row is then fixed at 0, so an equality is one row, not a pair of
opposite inequalities.  A solve that will get no further row sets its x
rows aside, since a free basic variable never leaves, and reads x back from
them at the end (see ``max_slack``).

The tableau is kept as an integer matrix with one common positive
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
the inner loop; ``TROPFAN_CHECK_PIVOTS=1`` checks every remainder.  A
negative pivot negates the updated tableau, which keeps every value, so the
denominator stays positive.  The leaving row is the most negative rhs while
the objective is moving, switching to Bland's least id during degenerate
stalls, which preserves the termination guarantee; the entering column is
the least ratio.  Both rules break ties by variable id, never by position,
so the pivots are those of the full tableau.

Every row is an integer tuple of length ``dim`` from the moment it is
built: tie rows from the integer lifts of the data points, input-space rows
from the integer terms.  So every entry point here, ``max_slack``,
``lp_feasible``, ``relint_point``, ``describe_cone`` and ``exact_rank``,
takes them as they are.  Every ``max_slack`` call but the warm node LPs of
the partition walk checks that they are: the pivot would floor a Fraction,
and a short row would shift t onto an x column.

Strict feasibility of a mixed system is equivalent to optimum t > 0.  At an
optimum of 0 the final objective row holds a Farkas certificate: integer
dual multipliers y >= 0, one per inequality row, with sum_i y_i f_i = 0
and y > 0 on some strict row.  ``relint_point`` reads the implied
equalities of a cone off such certificates, several rows per LP (Freund,
Roundy and Todd 1985), and checks each certificate exactly before it uses
it; rows in the linear span of the rows found implied are implied too.
Cone dimension is the ambient dimension minus the rank of the
implied-equality normals, the size of an integer echelon basis of them,
built as that span is.
"""

from __future__ import annotations

import os
from copy import copy
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul
from typing import Optional, Sequence

from .rationals import Vec, zeros

LinearForm = tuple[int, ...]

_CHECK_DIVISION = bool(os.environ.get("TROPFAN_CHECK_PIVOTS"))

# Pivots spent in a degenerate stall before the leaving row switches from the
# most negative rhs to Bland's least id.
_STALL_LIMIT = 12


class PivotLimitError(RuntimeError):
    """Circuit breaker; Bland's rule makes this unreachable in theory."""


def _eliminate_checked(row: list[int], prow: list[int], c: int, piv: int, q: int, lead: int) -> list[int]:
    """One non-pivot row after pivoting on ``prow[c] = piv`` with old denominator q,
    every division checked for a zero remainder."""
    f = row[c]
    out = []
    for x, p in zip(row, prow):
        v, rem = divmod(x * piv - f * p, q)
        if rem:
            raise ArithmeticError("integer pivoting produced a non-exact division")
        out.append(v)
    out[c] = lead * f
    return out


class _Simplex:
    """Dual simplex on  max t : a.(x, t) <= 0 for each added row a, t <= 1,
    x free, t >= 0.

    Variables are numbered 0..dim-1 (x), dim (t) and dim + 1 + i (the slack
    of row i; row 0 is t <= 1).  The tableau holds the nonbasic columns and
    the rhs; ``nonbasic[j]`` is the variable of column j and ``basis[i]`` the
    variable of row i.  Row m is the objective row, whose rhs slot holds -z.
    A new tableau is the optimum of the empty system: t = 1 basic, x = 0.
    """

    def __init__(self, dim: int):
        self.rows = [[0] * dim + [1, 1], [0] * dim + [-1, -1]]
        self.den = 1
        self.basis = [dim]
        self.nonbasic = list(range(dim)) + [dim + 1]
        self.m, self.n, self.dim = 1, dim + 1, dim

    def _pivot(self, r: int, c: int):
        """Integer-preserving pivot on rows[r][c], then the column swap (see the
        module docstring); the checked or the plain update is chosen once.  A
        negative pivot enters its row negated, which negates every updated
        row.  Rows are replaced, never edited, so tableau copies share them."""
        rows, q = self.rows, self.den
        prow = rows[r]
        piv = prow[c]
        lead = -1  # the leaving column holds lead * f in a row whose column c held f
        if piv < 0:
            prow, piv, lead = [-p for p in prow], -piv, 1
        if _CHECK_DIVISION:
            for i, row in enumerate(rows):
                if i != r:
                    rows[i] = _eliminate_checked(row, prow, c, piv, q, lead)
        else:
            for i, row in enumerate(rows):
                f = row[c]
                if f:
                    if i != r:
                        row = [(x * piv - f * p) // q for x, p in zip(row, prow)]
                        row[c] = lead * f  # the leaving variable's column
                        rows[i] = row
                elif piv != q:
                    rows[i] = [x * piv // q for x in row]
        rows[r] = prow = prow if lead > 0 else list(prow)
        prow[c] = -lead * q
        self.den = piv
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]

    def add_rows(self, new_rows: list[list[int]]):
        """Add rows ``a.(x, t) <= 0``, each in the current nonbasic columns; then
        each new row in turn pivots in the lowest x never pivoted in that has
        an entry in it.  That column's objective entry is 0, so the tableau
        stays dual feasible."""
        q, n, dim = self.den, self.n, self.dim
        col = {v: j for j, v in enumerate(self.nonbasic)}
        at = {v: i for i, v in enumerate(self.basis)}
        start = self.m
        for a in new_rows:  # q*a minus the basic rows' combination: the full Bareiss entry
            row = [0] * (n + 1)
            for v, coef in enumerate(a):
                if coef and v in col:
                    row[col[v]] += q * coef
                elif coef:
                    row = [e - coef * b for e, b in zip(row, self.rows[at[v]])]
            self.rows.insert(self.m, row)
            self.basis.append(dim + 1 + self.m)
            self.m += 1
        for r in range(start, self.m):
            c = next((j for j in range(dim) if self.nonbasic[j] == j and self.rows[r][j]), -1)
            if c >= 0:
                self._pivot(r, c)

    def solve(self, pivot_limit: int = 200_000) -> Fraction:
        """Re-optimize by the dual simplex; rows where some x is basic never
        leave, since x is free."""
        m, n, dim = self.m, self.n, self.dim
        rows, basis, nonbasic = self.rows, self.basis, self.nonbasic
        stall, last_num, last_den = 0, -rows[m][n], self.den
        for _ in range(pivot_limit):
            short = [i for i in range(m) if rows[i][n] < 0 and basis[i] >= dim]
            if not short:
                return Fraction(-rows[m][n], self.den)
            # Most negative rhs, or Bland's least id after a stall; ties by id.
            bland = stall >= _STALL_LIMIT
            leave = min(short, key=lambda i: (0 if bland else rows[i][n], basis[i]))
            row, obj, enter = rows[leave], rows[m], -1
            for j in range(n):  # least obj[j] / row[j] over row[j] < 0, ties by id
                a = row[j]
                if a < 0 and (enter < 0 or (obj[j] * row[enter], nonbasic[j]) < (obj[enter] * a, nonbasic[enter])):
                    enter = j
            if enter < 0:
                raise PivotLimitError("LP infeasible; the origin is feasible by construction")
            self._pivot(leave, enter)
            num, den = -rows[m][n], self.den
            stall = 0 if num * last_den != last_num * den else stall + 1
            last_num, last_den = num, den
        raise PivotLimitError("pivot limit exceeded")

    def numerators(self, count: int) -> list[int]:
        """den times the value of each variable 0..count-1 (0 when nonbasic)."""
        out = [0] * count
        for i, v in enumerate(self.basis):
            if v < count:
                out[v] = self.rows[i][self.n]
        return out

    def restrict(self, rows: list[int], cols: list[int]):
        """Keep only the given rows (the objective row stays) and columns."""
        n = self.n
        self.rows = [[self.rows[i][j] for j in cols] + [self.rows[i][n]] for i in rows + [self.m]]
        self.basis = [self.basis[i] for i in rows]
        self.nonbasic = [self.nonbasic[j] for j in cols]
        self.m, self.n = len(rows), len(cols)


def _read_back(sx: _Simplex, aside: list[tuple[int, int, list[int]]], ys: list[int]) -> list[int]:
    """q * sx.den times x, q the denominator when the rows were set aside: a
    set-aside row (j, b, a) reads q * x_j + a.y = b over the variables ys,
    nonbasic then, whose final values are their rhs over sx.den (0 when
    nonbasic).  An x_j with no row stays 0."""
    final = {v: sx.rows[i][sx.n] for i, v in enumerate(sx.basis)}
    values = [final.get(v, 0) for v in ys]
    x = [0] * sx.dim
    for j, b, a in aside:
        x[j] = b * sx.den - sum(map(mul, a, values))
    return x


def max_slack(
    dim: int,
    nonstrict: Sequence[LinearForm] = (),
    strict: Sequence[LinearForm] = (),
    equalities: Sequence[LinearForm] = (),
    duals: Optional[list[int]] = None,
    tableau: Optional[list] = None,
) -> tuple[Fraction, Vec]:
    """Maximize the common slack t of the integer strict rows; returns (t*, x*).

    Every row is a sequence of ``dim`` ints, and a call without ``tableau``
    raises ``ValueError`` on any other row; a warm call's rows, cut from
    ``Dataset.lifts`` by the partition walk, are not checked.  x is free and
    t is clamped to [0, 1], so the LP is bounded and (0, 0) is feasible.
    Every call runs the same steps on a ``_Simplex``:

    * start from the optimal tableau of the empty system (t = 1, x = 0), or
      from a copy of the one passed in ``tableau``;
    * add the rows, equalities first, then the nonstrict rows, then the
      strict rows, each in the current nonbasic columns;
    * let each row in turn pivot in the free x_j of lowest index with an
      entry in it.  The column's objective entry is 0, so no ratio test is needed and the
      tableau stays dual feasible, though not primal feasible: a strict row
      is violated at t = 1;
    * re-optimize by the dual simplex, in which a row with a basic x never
      leaves and an equality's slack, nonbasic from its pivot on, never
      enters, so it stays 0.  An equality row with no free entry left is a
      combination of earlier ones and reads 0 = 0.

    A call without ``tableau`` never gets another row.  Before the dual
    simplex it sets its x rows aside, since they never leave, and drops the
    equality slacks' columns, the rows of dependent equalities and every x
    column no row touched (that x stays 0).  A set-aside row gives
    q * x_j (q the denominator then) as its rhs minus an integer combination
    of the columns kept, so x is read back with one integer dot product over
    their final values.  A positive answer's witness is then substituted
    into every row in integers, and a nonstrict row below 0, a strict row
    not above 0 or an equality not at 0 raises ``AssertionError``.

    If a list ``duals`` is passed (and there are no equality rows), it is
    filled with one integer dual multiplier y_i >= 0 per nonstrict row, then
    per strict row, in the scale of the integer rows: minus the final
    objective-row entry of row i's slack column, 0 when that slack is basic.
    That is the optimal dual times the final denominator, which is positive,
    so the signs and the support are the dual's.  When the optimum is 0 the
    dual reads sum_i y_i f_i = 0 with y_i > 0 on some strict row, a Farkas
    certificate that no x is positive on every strict row (see
    ``relint_point``).

    If a list ``tableau`` is passed, the call is warm: the rows are added to
    the system whose optimal tableau the list holds (the empty system when it
    is empty), and the list then holds this call's, whole, x rows included.
    A warm call takes no equality rows and reads no duals.
    """
    if tableau is not None and (equalities or duals is not None):
        raise ValueError("a warm start takes inequality rows and reads no duals")
    if duals is not None and equalities:
        raise ValueError("dual multipliers are read for inequality rows only")
    if tableau is None:
        given = (*equalities, *nonstrict, *strict)
        if not set(map(len, given)) <= {dim} or not set(map(type, chain.from_iterable(given))) <= {int}:
            raise ValueError(f"every row must be a tuple of {dim} ints")
    if tableau:
        sx = copy(tableau[0])
        sx.rows, sx.basis, sx.nonbasic = list(sx.rows), list(sx.basis), list(sx.nonbasic)
    else:
        sx = _Simplex(dim)
    rows = [[-v for v in f] + [0] for f in (*equalities, *nonstrict)]
    sx.add_rows(rows + [[-v for v in f] + [1] for f in strict])  # f.x - t >= 0
    if tableau is not None:
        opt = sx.solve()
        tableau[:] = [sx]
        return opt, tuple(Fraction(v, sx.den) for v in sx.numerators(dim))

    # The ids dim + 2 .. last_eq are the equality slacks; t is basic and the
    # slack of t <= 1 nonbasic until the dual simplex starts.
    last_eq = dim + 1 + len(equalities)
    cols = [j for j, v in enumerate(sx.nonbasic) if v == dim + 1 or v > last_eq]
    q = sx.den
    aside = [(v, row[sx.n], [row[j] for j in cols]) for v, row in zip(sx.basis, sx.rows) if v < dim]
    sx.restrict([i for i, v in enumerate(sx.basis) if v == dim or v > last_eq], cols)
    ys = list(sx.nonbasic)
    opt = sx.solve()
    x = _read_back(sx, aside, ys)
    if opt > 0 and (
        any(sum(map(mul, g, x)) for g in equalities)
        or any(sum(map(mul, f, x)) < 0 for f in nonstrict)
        or any(sum(map(mul, f, x)) <= 0 for f in strict)
    ):
        raise AssertionError("LP witness violates a row of the system")
    if duals is not None:
        # Row i's slack is variable dim + 2 + i, after t <= 1.
        obj = sx.rows[sx.m]
        reduced = {v: obj[j] for j, v in enumerate(sx.nonbasic)}
        duals.extend(-reduced.get(dim + 2 + i, 0) for i in range(len(nonstrict) + len(strict)))
    den = q * sx.den
    return opt, tuple(Fraction(v, den) for v in x)


def lp_feasible(dim: int, strict: Sequence[LinearForm], nonstrict: Sequence[LinearForm] = ()) -> Optional[Vec]:
    """Exact witness of the mixed system, or None when no point meets every strict row.

    A homogeneous nonstrict system always contains the origin, so infeasibility
    can only come from the strict rows.  ``max_slack`` has substituted the
    returned witness into every row as a guard against any arithmetic defect.
    """
    opt, x = max_slack(dim, nonstrict, strict)
    return x if opt > 0 else None


def relint_point(dim: int, rows: Sequence[LinearForm]) -> tuple[Vec, frozenset[int]]:
    """A point in the relative interior of {x : rows >= 0}, plus the implied rows.

    The undecided rows U are those not yet known to be implied.  Each round
    solves one slack maximization with U strict and the known implied rows
    nonstrict.  A positive optimum's witness is positive on U and, lying in
    the cone, zero on the implied rows, so it is a relative-interior point.
    A zero optimum comes with dual multipliers y >= 0 with sum_i y_i f_i = 0
    and y_i > 0 on some row of U; on the cone each term y_i f_i.x of that
    zero sum is >= 0, so every row with y_i > 0 is implied.  Those rows join
    the implied set, and so does every undecided row in the linear span of
    the implied rows, since it vanishes wherever they do; then the next
    round starts.  The integer multipliers are checked before they are used,
    and a failed check raises.  Each zero round decides at least one row, so
    at most one round per implied row plus one is needed.
    """
    implied: list[int] = []
    span: list[tuple[int, list[int]]] = []  # echelon basis of the implied rows
    undecided = list(range(len(rows)))
    while undecided:
        y: list[int] = []
        opt, x = max_slack(dim, [rows[r] for r in implied], [rows[r] for r in undecided], duals=y)
        if opt > 0:
            return x, frozenset(implied)
        if any(v < 0 for v in y):
            raise AssertionError("implied-equality certificate has a negative multiplier")
        support = [(v, rows[r]) for v, r in zip(y, implied + undecided) if v]
        if any(sum(v * f[j] for v, f in support) for j in range(dim)):
            raise AssertionError("implied-equality certificate does not sum to zero")
        tail = list(zip(y[len(implied) :], undecided))
        found = [r for v, r in tail if v]
        if not found:
            raise AssertionError("implied-equality certificate has no undecided row")
        implied += found
        for r in found:
            _extend_span(span, rows[r])
        undecided = []
        for v, r in tail:
            if v:
                continue
            if any(_reduce(span, rows[r])):
                undecided.append(r)
            else:
                implied.append(r)  # a combination of implied rows vanishes on the cone too
    return zeros(dim), frozenset(implied)


def _reduce(span: list[tuple[int, list[int]]], row: Sequence[int]) -> Sequence[int]:
    """A nonzero multiple of row minus a combination of the echelon rows in
    ``span`` (each a pivot column and an integer row), zero on their pivots;
    it is all zero iff row lies in their span."""
    for p, b in span:
        f = row[p]
        if f:
            row = [x * b[p] - f * y for x, y in zip(row, b)]
    return row


def _extend_span(span: list[tuple[int, list[int]]], row: Sequence[int]):
    """Add row's part outside the span to the echelon rows, content removed."""
    row = _reduce(span, row)
    p = next((j for j, v in enumerate(row) if v), -1)
    if p >= 0:
        g = 0
        for v in row:
            g = gcd(g, v)
        span.append((p, [v // g for v in row]))


def exact_rank(rows: Sequence[LinearForm]) -> int:
    """Rank over Q of integer rows: the size of an integer echelon basis."""
    span: list[tuple[int, list[int]]] = []
    for row in rows:
        _extend_span(span, row)
    return len(span)


def describe_cone(dim: int, rows: Sequence[LinearForm]) -> tuple[int, frozenset[int]]:
    """(dimension, implied rows) of the closed cone {x : rows >= 0}."""
    _, implied = relint_point(dim, rows)
    return dim - exact_rank([rows[r] for r in sorted(implied)]), implied
