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
that the new rows extend.  The rows are added one at a time, equality rows
first.  Each is built against the current basis, and if it has an entry in
a free x_j, the one of lowest index pivots into the basis before the next
row is built, so that pivot updates only the rows already added.  x_j has
objective entry 0, so no ratio test is needed and the tableau stays dual
feasible.  A Bareiss tableau is fixed by its basis, so every row, pivot and
answer is that of inserting all the rows first.  The slack of a pivoted
equality row is then fixed at 0, so an equality is one row, not a pair of
opposite inequalities.  Every row stays in the tableau through the solve,
and x is read off the rhs of the rows where it is basic (see ``max_slack``);
a warm solve returns no x and leaves it in its tableau.

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
the inner loop.  A negative pivot negates the updated tableau, which keeps
every value, so the denominator stays positive.  The leaving row is the most
negative rhs while the objective is moving, switching to Bland's least id
during degenerate stalls, which preserves the termination guarantee; the
entering column is the least ratio.  Both rules break ties by variable id,
never by position, so the pivots are those of the full tableau.

Packed rows.  Each row of the n = dim + 1 columns and the rhs is stored as
one Python int (Kronecker substitution; Harvey 2009),

    P = sum_j M[i][j] * 2**(j*b) ,   j = 0..n, the rhs being digit n,

with every entry below the top one a balanced digit, |M[i][j]| < 2**(b-1).
Such a representation is unique: adding the bias B = sum_{j<n} 2**(b-1) *
2**(j*b) turns the low digits into the ordinary base-2**b digits of P + B,
so entry j < n is ((P + B) >> j*b & (2**b - 1)) - 2**(b-1), and the rhs,
which needs no bound, is (P + B) >> n*b.  Each low digit of P + B lies in
[1, 2**b - 1], so the rhs is negative exactly when P < -B: the search for
the leaving row compares each row once and decodes only the rhs of the rows
it selects.  The update above is linear in the
entries, so on packed rows it is

    P'_i = (P_i * M[r][c] - M[i][c] * P_r) // q + lead * M[i][c] * 2**(c*b) ,

three big-integer operations in C, where the last term writes the leaving
variable's column over digit c, which the update has made 0 (lead is -1,
or +1 after a negative pivot).  A row with M[i][c] = 0 becomes
P_i * M[r][c] // q, and the pivot row gets its digit c replaced.

Why this is exact.  Before the division, P_i * M[r][c] - M[i][c] * P_r
equals sum_j (M[i][j] * M[r][c] - M[i][c] * M[r][j]) * 2**(j*b) as integers,
whatever the size of those terms.  Each term is a multiple of q (the
Bareiss division is exact entrywise), so the sum is, and its quotient is
sum_j M'[i][j] * 2**(j*b) exactly.  Only the quotient is ever decoded, and
its digits are the new entries as long as each of them is balanced.  The
digit width b makes sure of that.  Every stored entry is a minor, of size
at most dim + 2, of the matrix of initial rows: each constraint row's
coefficients on (x, t) and its rhs, and the objective row (Bareiss 1968;
the unit slack columns drop out of the determinant).  Hadamard's
inequality bounds such a minor by h**((dim + 2) / 2), h the largest squared
norm of an initial row, which is below 2**((dim + 2) * bitlen(h) / 2).  So
b is that exponent, rounded up, plus the sign bit, rounded up to a multiple
of 32.  When a warm call adds rows that raise h past what b allows, the
tableau is decoded and packed again at the wider b, once.  No tolerance
enters anywhere.  ``TROPFAN_CHECK_PIVOTS=1`` decodes every packed update,
recomputes it entry by entry with every remainder checked, and raises
``ArithmeticError`` on any difference or on an entry outside the digit
width; it checks each inserted row the same way against q*a minus the
combination of the decoded basic rows, and the rows the leaving-row scan
selects against those whose decoded rhs is negative.

Every row is an integer tuple of length ``dim`` from the moment it is
built: tie rows from the integer lifts of the data points, input-space rows
from the integer terms.  So every entry point here, ``max_slack``,
``lp_feasible``, ``relint_point``, ``describe_cone`` and ``exact_rank``,
takes them as they are.  Every ``max_slack`` call but the warm node LPs of
the partition walk checks that they are: the pivot would floor a Fraction,
and a short row would shift t onto an x column.  ``relint_point`` runs the
same check first, since it may decide every row without an LP.

Strict feasibility of a mixed system is equivalent to optimum t > 0.  At an
optimum of 0 the final objective row holds a Farkas certificate: integer
dual multipliers y >= 0, one per inequality row, with sum_i y_i f_i = 0
and y > 0 on some strict row.  Every ``max_slack`` call without equality
rows, cold or warm, checks it exactly at every optimum of 0, over every row
of its tableau, as a cold call substitutes every positive witness.  The
partition walk learns from the warm ones (see ``fan``).  ``relint_point``
reads the implied equalities of a cone off such certificates, several rows
per LP (Freund, Roundy and Todd 1985);
rows in the linear span of the rows found implied are implied too.  Before
its first LP it implies each nonzero row whose exact negative is also a
row, by the certificate y = (1, 1), checked the same way: tie rows come in
such pairs wherever a point is tied to two terms.
Cone dimension is the ambient dimension minus the rank of the
implied-equality normals, the size of an integer echelon basis of them,
built as that span is.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from operator import itemgetter, mul
from typing import Optional

from .rationals import Vec, zeros

LinearForm = tuple[int, ...]

_CHECK_DIVISION = bool(os.environ.get("TROPFAN_CHECK_PIVOTS"))

# Pivots spent in a degenerate stall before the leaving row switches from the
# most negative rhs to Bland's least id.
_STALL_LIMIT = 12
_PIVOT_LIMIT = 200_000  # pivots in one solve before ``PivotLimitError``


class PivotLimitError(RuntimeError):
    """Circuit breaker; Bland's rule makes this unreachable in theory."""


def _width(h: int, dim: int) -> int:
    """Digit width for initial rows of squared norm at most h: every stored
    entry is below 2**((dim + 2) * bitlen(h) / 2) in absolute value (see the
    module docstring); one sign bit more, rounded up to a multiple of 32."""
    bits = -(-(dim + 2) * h.bit_length() // 2) + 1
    return -(-bits // 32) * 32


@lru_cache(maxsize=None)
def _bias(n: int, b: int) -> int:
    """2**(b-1) in each of the digits 0..n-1."""
    return ((1 << n * b) - 1) // ((1 << b) - 1) << (b - 1)


def _pack(entries: Sequence[int], b: int) -> int:
    """The int whose digit j is entries[j]; the last entry is the top digit."""
    P = 0
    for e in reversed(entries):
        P = (P << b) + e
    return P


def _unpack(P: int, n: int, b: int) -> list[int]:
    """The n balanced low digits of P, then its top digit."""
    U, mask, half = P + _bias(n, b), (1 << b) - 1, 1 << (b - 1)
    return [(U >> j * b & mask) - half for j in range(n)] + [U >> n * b]


class _Simplex:
    """Dual simplex on  max t : a.(x, t) <= 0 for each added row a, t <= 1,
    x free, t >= 0.

    Variables are numbered 0..dim-1 (x), dim (t) and dim + 1 + i (the slack
    of row i; row 0 is t <= 1).  The tableau holds the n = dim + 1 nonbasic
    columns and the rhs, each row packed into one int of digit width b (see
    the module docstring); ``nonbasic[j]`` is the variable of column j and
    ``basis[i]`` the variable of row i.  Row m is the objective row, whose
    rhs digit holds -z.  ``forms[i]`` is added row i as ``max_slack``
    built it, the row a Farkas certificate is checked against.  A new
    tableau is the optimum of the empty system: t = 1 basic, x = 0, packed
    for rows of squared norm up to h.
    """

    def __init__(self, dim: int, h: int):
        self.dim, self.m, self.n = dim, 1, dim + 1
        self.h = max(h, 2)  # row 0 reads t + (its slack) = 1
        self.b = _width(self.h, dim)
        row = (1 << dim * self.b) + (1 << self.n * self.b)  # 1 in the slack's column and the rhs
        self.rows = [row, -row]
        self.den = 1
        self.basis = [dim]
        self.nonbasic = list(range(dim)) + [dim + 1]
        self.forms: list[list[int]] = []

    def _pivot(self, r: int, c: int):
        """Integer-preserving pivot on entry c of row r, then the column swap,
        on packed rows (see the module docstring).  A negative pivot enters
        its row negated, which negates every updated row.  Rows are
        replaced, never edited, so tableau copies share them."""
        rows, q, B, shift = self.rows, self.den, _bias(self.n, self.b), c * self.b
        mask, half = (1 << self.b) - 1, 1 << (self.b - 1)
        old = list(rows) if _CHECK_DIVISION else None
        prow = rows[r]
        piv = ((prow + B) >> shift & mask) - half
        lead = -1  # the leaving column holds lead * f in a row whose column c held f
        if piv < 0:
            prow, piv, lead = -prow, -piv, 1
        for i, row in enumerate(rows):
            f = ((row + B) >> shift & mask) - half
            if f:
                if i != r:
                    rows[i] = (row * piv - f * prow) // q + (lead * f << shift)
            elif piv != q:
                rows[i] = row * piv // q
        rows[r] = prow + (-lead * q - piv << shift)
        if old is not None:
            self._check_pivot(old, r, c)
        self.den = piv
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]

    def _check_pivot(self, old: list[int], r: int, c: int):
        """Compare each packed row after the pivot on entry c of old row r
        with the entrywise update of the decoded rows, every division checked
        for a zero remainder and every new entry for the digit width."""
        n, b, q = self.n, self.b, self.den
        prow = _unpack(old[r], n, b)
        piv, lead = prow[c], -1
        if piv < 0:
            prow, piv, lead = [-p for p in prow], -piv, 1
        for i, (P, new) in enumerate(zip(old, self.rows)):
            want = list(prow)
            if i != r:
                row, want = _unpack(P, n, b), []
                f = row[c]
                for x, p in zip(row, prow):
                    v, rem = divmod(x * piv - f * p, q)
                    if rem:
                        raise ArithmeticError("integer pivoting produced a non-exact division")
                    want.append(v)
            want[c] = lead * row[c] if i != r else -lead * q
            if any(abs(v) >= 1 << b - 1 for v in want[:n]):
                raise ArithmeticError("a tableau entry exceeds the packed digit width")
            if _unpack(new, n, b) != want:
                raise ArithmeticError("packed row update differs from the entrywise update")

    def add_rows(self, new_rows: list[list[int]], h: int):
        """Add rows ``a.(x, t) <= 0`` one at a time.  Each row is built against
        the current basis as q*a minus the combination of the basic rows, the
        entries the full Bareiss tableau gives it, and inserted before the
        objective row; if it has an entry in an x never pivoted in, the lowest
        such x pivots in at once, before the next row is built.  So the
        pivot updates only the rows inserted so far and the objective row.
        The x column's objective entry is 0, so the tableau stays dual
        feasible.  h is the largest squared norm of a new row; if it raises
        the bound on the entries past the digit width, the tableau is first
        repacked at a wider one."""
        dim, n = self.dim, self.n
        if h > self.h:
            self.h = h
            b = _width(h, dim)
            if b > self.b:
                self.rows = [_pack(_unpack(P, n, self.b), b) for P in self.rows]
                self.b = b
        b, rows, basis = self.b, self.rows, self.basis
        B, mask, half = _bias(n, b), (1 << b) - 1, 1 << (b - 1)
        # Where each of x and t sits: a nonbasic column, or a basic row.
        col = {v: j for j, v in enumerate(self.nonbasic) if v <= dim}
        at = {v: i for i, v in enumerate(basis) if v <= dim}
        free = [j for j in range(dim) if j in col]  # x never pivoted in; x_j stays in column j until then
        for a in new_rows:
            q, m, row = self.den, self.m, 0
            for v, coef in enumerate(a):
                if coef:
                    j = col.get(v)
                    row += q * coef << j * b if j is not None else -coef * rows[at[v]]
            rows.insert(m, row)
            basis.append(dim + 1 + m)
            self.m = m + 1
            if _CHECK_DIVISION:
                self._check_row(a, m)
            if free:
                U = row + B
                c = next((j for j in free if U >> j * b & mask != half), -1)
                if c >= 0:
                    self._pivot(m, c)
                    free.remove(c)
                    del col[c]
                    at[c] = m

    def _check_row(self, a: list[int], r: int):
        """Compare the inserted row r with its entrywise Bareiss construction
        from the decoded rows above it: q*a_j in each column of an x or t,
        minus a_v times basic row v for each basic x or t."""
        n, b, dim = self.n, self.b, self.dim
        want = [self.den * a[v] if v <= dim else 0 for v in self.nonbasic] + [0]
        for v, P in zip(self.basis[:r], self.rows):
            if v <= dim and a[v]:
                want = [w - a[v] * e for w, e in zip(want, _unpack(P, n, b))]
        if any(abs(v) >= 1 << b - 1 for v in want[:n]):
            raise ArithmeticError("a tableau entry exceeds the packed digit width")
        if _unpack(self.rows[r], n, b) != want:
            raise ArithmeticError("inserted row differs from its entrywise construction")

    def copy(self) -> _Simplex:
        """A tableau a warm call can extend while this one stays as it is: the
        row, basis and column lists are copied, the packed rows shared, since
        a pivot replaces rows and never edits them; so are the given rows."""
        sx = _Simplex.__new__(_Simplex)
        sx.dim, sx.m, sx.n, sx.h, sx.b, sx.den = self.dim, self.m, self.n, self.h, self.b, self.den
        sx.rows, sx.basis, sx.nonbasic = self.rows[:], self.basis[:], self.nonbasic[:]
        sx.forms = self.forms[:]
        return sx

    def solve(self, blocked: Sequence[int] = ()) -> Fraction:
        """Re-optimize by the dual simplex.  Rows where some x is basic never
        leave, since x is free, and x never enters, since every other row is
        0 in its column; the ids in ``blocked`` never enter either, so their
        columns never move.

        The leaving-row scan compares each packed row P once with -B, B the
        bias: every low digit of P + B lies in [1, 2**b - 1], so P + B is
        negative, that is P < -B, exactly when its top digit, the rhs, is.
        Only the rows it selects have their rhs decoded, as (P + B) >> n*b.
        The ratio test decodes the leaving row and reads the objective row's
        digits only where that row is negative."""
        m, b, B = self.m, self.b, _bias(self.n, self.b)
        top, mask, half, low = self.n * b, (1 << b) - 1, 1 << (b - 1), -B
        rows, basis, nonbasic = self.rows, self.basis, self.nonbasic
        free = [i for i in range(m) if basis[i] >= self.dim]
        cols = [j for j in range(self.n) if nonbasic[j] not in blocked]
        stall, last_num, last_den = 0, -((rows[m] + B) >> top), self.den
        for _ in range(_PIVOT_LIMIT):
            short = [((P + B) >> top, basis[i], i) for i in free if (P := rows[i]) < low]
            if _CHECK_DIVISION:
                self._check_short(free, short)
            if not short:
                return Fraction(last_num, last_den)
            # Most negative rhs, or Bland's least id after a stall; ties by id.
            leave = (min(short, key=itemgetter(1)) if stall >= _STALL_LIMIT else min(short))[2]
            U, V = rows[leave] + B, rows[m] + B
            row = [(U >> s & mask) - half for s in range(0, top, b)]
            enter = ae = oe = -1
            for j in cols:  # least obj[j] / row[j] over row[j] < 0, ties by id
                a = row[j]
                if a < 0:
                    o = (V >> j * b & mask) - half
                    if enter < 0 or (o * ae, nonbasic[j]) < (oe * a, nonbasic[enter]):
                        enter, ae, oe = j, a, o
            if enter < 0:
                raise PivotLimitError("LP infeasible; the origin is feasible by construction")
            self._pivot(leave, enter)
            num, den = -((rows[m] + B) >> top), self.den
            stall = 0 if num * last_den != last_num * den else stall + 1
            last_num, last_den = num, den
        raise PivotLimitError("pivot limit exceeded")

    def _check_short(self, free: list[int], short: list[tuple[int, int, int]]):
        """Compare the (rhs, id, row) triples the leaving-row scan selected
        with the rows among ``free`` whose decoded rhs is negative."""
        n, b = self.n, self.b
        want = [(v, self.basis[i], i) for i in free if (v := _unpack(self.rows[i], n, b)[n]) < 0]
        if short != want:
            raise ArithmeticError("the negative-rhs scan differs from the decoded rhs")

    def numerators(self, count: int) -> list[int]:
        """den times the value of each variable 0..count-1 (0 when nonbasic)."""
        out, B, top = [0] * count, _bias(self.n, self.b), self.n * self.b
        for v, P in zip(self.basis, self.rows):
            if v < count:
                out[v] = (P + B) >> top
        return out

    def multipliers(self, count: int) -> list[int]:
        """den times the dual multiplier y_i >= 0 of each added row i < count:
        minus the objective-row entry of its slack's column (variable
        dim + 2 + i, after t <= 1), 0 when that slack is basic."""
        obj = _unpack(self.rows[self.m], self.n, self.b)
        reduced = {v: obj[j] for j, v in enumerate(self.nonbasic)}
        return [-reduced.get(self.dim + 2 + i, 0) for i in range(count)]


def _check_rows(dim: int, rows: Sequence[LinearForm]):
    """Raise ``ValueError`` unless every row is a sequence of ``dim`` ints."""
    if not set(map(len, rows)) <= {dim} or not set(map(type, chain.from_iterable(rows))) <= {int}:
        raise ValueError(f"every row must be a tuple of {dim} ints")


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
    * add the rows one at a time, equalities first, then the nonstrict
      rows, then the strict rows, each built against the current basis;
    * as each row is added, let it pivot in the free x_j of lowest index
      with an entry in it, before the next row is built.  The column's
      objective entry is 0, so no ratio test is needed and the tableau stays
      dual feasible, though not primal feasible: a strict row is violated
      at t = 1;
    * re-optimize by the dual simplex, in which a row with a basic x never
      leaves and an equality's slack, nonbasic from its pivot on, never
      enters, so it stays 0.  An equality row with no free entry left is a
      combination of earlier ones: it reads 0 = 0, is 0 in every column but
      the equality slacks' and keeps rhs 0, so it never leaves either;
    * read x_j off the rhs of the row where x_j is basic, over the final
      denominator; an x column no row touched never enters, so that x is 0.

    Every row stays in the tableau, x rows included, so a call without
    ``tableau`` runs exactly the steps of a warm call from an empty one.
    Around them it checks its rows and its answer and returns x as a
    tuple.  Its positive answer's witness is substituted into every row in
    integers (the numerators of x, since the denominator is positive), and
    a nonstrict row below 0, a strict row not above 0 or an equality not at
    0 raises ``AssertionError``.

    Without equality rows it reads one integer dual multiplier y_i >= 0 per
    row of the tableau (``_Simplex.multipliers``): per nonstrict row, then
    per strict row, after those of the earlier warm calls.  Each is the
    optimal dual times the final denominator, which is positive, so the
    signs and the support are the dual's.  At an optimum of 0 they must
    read sum_i y_i f_i = 0 over the rows the tableau recorded, with y_i > 0
    on some strict row, a Farkas certificate that no x is positive on every
    strict row; this is checked in integers, and a failure raises
    ``AssertionError``.  A list ``duals`` (only without equality rows) is
    filled with them at any optimum of a cold call, and at an optimum of 0
    of a warm one.

    If a list ``tableau`` is passed, the call is warm: the rows are added to
    the system whose optimal tableau the list holds (the empty system when it
    is empty), and the list then holds this call's, whole, x rows included.
    A warm call takes no equality rows and returns (t*, ()): its x stays in
    the tableau, as ``numerators(dim)`` over ``den``.
    """
    if tableau is not None and equalities:
        raise ValueError("a warm start takes inequality rows only")
    if duals is not None and equalities:
        raise ValueError("dual multipliers are read for inequality rows only")
    if tableau is None:
        _check_rows(dim, (*equalities, *nonstrict, *strict))
    rows = [[-v for v in f] + [0] for f in (*equalities, *nonstrict)]
    rows += [[-v for v in f] + [1] for f in strict]  # f.x - t >= 0
    h = max((sum(map(mul, a, a)) for a in rows), default=0)
    sx = tableau[0].copy() if tableau else _Simplex(dim, h)
    sx.forms += rows
    sx.add_rows(rows, h)
    opt = sx.solve(range(dim + 2, dim + 2 + len(equalities)))  # the equality slacks
    if not equalities and (opt == 0 or duals is not None and tableau is None):
        y = sx.multipliers(sx.m - 1)
        if opt == 0:
            _check_certificate(dim, y, sx.forms)
            if not any(v and a[dim] for v, a in zip(y, sx.forms)):  # a[dim] is 1 on a strict row
                raise AssertionError("Farkas certificate has no positive multiplier on a strict row")
        if duals is not None:
            duals.extend(y)
    if tableau is not None:
        tableau[:] = [sx]
        return opt, ()
    x = sx.numerators(dim)
    if opt > 0 and (
        any(sum(map(mul, g, x)) for g in equalities)
        or any(sum(map(mul, f, x)) < 0 for f in nonstrict)
        or any(sum(map(mul, f, x)) <= 0 for f in strict)
    ):
        raise AssertionError("LP witness violates a row of the system")
    return opt, tuple(Fraction(v, sx.den) for v in x)


def lp_feasible(dim: int, strict: Sequence[LinearForm], *, equalities: Sequence[LinearForm] = ()) -> Optional[Vec]:
    """Exact witness of the mixed system, or None when no point meets every strict row.

    The origin meets the homogeneous equalities, so infeasibility can only
    come from the strict rows.  ``max_slack`` has substituted the returned
    witness into every row as a guard against any arithmetic defect, and,
    without equalities, has checked the Farkas certificate behind a None.
    """
    opt, x = max_slack(dim, (), strict, equalities)
    return x if opt > 0 else None


def relint_point(dim: int, rows: Sequence[LinearForm]) -> tuple[Vec, frozenset[int]]:
    """A point in the relative interior of {x : rows >= 0}, plus the implied rows.

    The rows are checked as ``max_slack`` checks them, before anything else.
    First, every nonzero row whose exact negative is also a row is implied,
    with the certificate 1 * f + 1 * (-f) = 0, checked once per pair by the
    same integer checks as an LP certificate.  Then rounds: the undecided rows U
    are those not yet known to be implied, and each round solves one slack
    maximization with U strict and the known implied rows nonstrict.  A
    positive optimum's witness is positive on U and, lying in the cone, zero
    on the implied rows, so it is a relative-interior point.  A zero optimum
    comes with dual multipliers y >= 0 with sum_i y_i f_i = 0 and y_i > 0 on
    some row of U, which ``max_slack`` has checked; on the cone each term
    y_i f_i.x of that zero sum is >= 0, so every row with y_i > 0 is
    implied.  Whenever rows join the implied set, by a pair or by a round,
    so does every undecided row in the linear span of the implied rows,
    since it vanishes wherever they do.  Each zero round decides at least
    one row, so at most one round per implied row plus one is needed, and a
    system of opposite pairs and their combinations needs none.
    """
    _check_rows(dim, rows)
    implied: list[int] = []
    span: list[tuple[int, list[int]]] = []  # echelon basis of the implied rows
    undecided = list(range(len(rows)))
    pairs = _opposite_pairs(rows)
    for r, s in pairs:
        if r < s:  # each pair once: row s is -row r, so r alone extends the span
            _check_certificate(dim, (1, 1), (rows[r], rows[s]))
            _extend_span(span, rows[r])
    found = [r for r, _ in pairs]
    while True:
        if found:
            implied += found
            decided, rest = set(found), []
            for r in undecided:
                if r in decided:
                    continue
                if any(_reduce(span, rows[r])):
                    rest.append(r)
                else:
                    implied.append(r)  # a combination of implied rows vanishes on the cone too
            undecided = rest
        if not undecided:
            return zeros(dim), frozenset(implied)
        y: list[int] = []
        opt, x = max_slack(dim, [rows[r] for r in implied], [rows[r] for r in undecided], duals=y)
        if opt > 0:
            return x, frozenset(implied)
        found = [r for v, r in zip(y[len(implied) :], undecided) if v]
        for r in found:
            _extend_span(span, rows[r])


def _opposite_pairs(rows: Sequence[LinearForm]) -> list[tuple[int, int]]:
    """(r, s) for each nonzero row r whose exact negative is a row, s being
    one such row: no gcd, so a scaled multiple is no match."""
    where = {tuple(f): s for s, f in enumerate(rows)}
    pairs = []
    for r, f in enumerate(rows):
        s = where.get(tuple(-v for v in f))
        if s is not None and any(f):
            pairs.append((r, s))
    return pairs


def _check_certificate(dim: int, y: Sequence[int], forms: Sequence[LinearForm]):
    """Raise ``AssertionError`` unless the integer multipliers y are >= 0 and
    sum_i y_i f_i = 0 over the rows ``forms``."""
    if any(v < 0 for v in y):
        raise AssertionError("Farkas certificate has a negative multiplier")
    support = [(v, f) for v, f in zip(y, forms) if v]
    if any(sum(v * f[j] for v, f in support) for j in range(dim)):
        raise AssertionError("Farkas certificate does not sum to zero")


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
