"""Input-space geometry of a fixed parameter vector: region adjacencies of the
max-plus subdivision, the sign-mixed decision boundary, tropical covector
types, and a deterministic 2-D SVG rendering.

Affine cells in input space are handled through one homogenizing coordinate:
the cell {x : rows(x) >= 0} becomes the cone {(w, x) : w >= 0, rows >= 0} and
the cell has dimension one less than the cone whenever some point with w > 0
exists.  The pair (i, j) is a dual edge exactly when the set where terms i and
j jointly attain the maximum has dimension d - 1; the decision boundary checks
only the sign-mixed pairs i <= n < j of the merged terms of g (+) h.  The
terms are scaled to integers once per call, so every row, a
``term_difference`` of two of them, is an integer tuple and goes to the LP
as it is built.

One strict LP decides a pair with distinct slopes: its cell lies in the
hyperplane H where eq = term_i - term_j vanishes, competitor rows that are
multiples of eq vanish on H and are dropped, and the LP asks for a point of H
with w > 0 and every other competitor row positive.  Such a point has a
neighborhood in H inside the cell; conversely, a row that is zero at a
relative-interior point of a (d-1)-dimensional cell is zero on aff(cell) = H.
Equal slopes with a_i != a_j give an empty cell without an LP.  Identical
terms, whose cell is term i's region of any dimension, take one
``describe_cone`` call on the rows of {others >= 0, w >= 0}, which returns
the cone's dimension and its implied rows: the region is empty exactly when
the row w is among them, and otherwise has the cone's dimension minus one.

The SVG clip (d = 2) needs no LP: a sign-mixed cell with distinct slopes lies
on the line term_i = term_j, where the other terms and the window sides bound
the line parameter, so the cell meets the window in positive length exactly
when those bounds leave an open interval.  On the integer terms and window
the bounds are integer pairs compared by cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Optional, Sequence

from .geometry import describe_cone, lp_feasible
from .rationals import Vec, integerize
from .tropical import SignomialParams, TropicalRationalParams, classify as classify_point
from .tropical import eval_signomial, integer_terms, term_difference


@dataclass(frozen=True)
class DualEdge:
    i: int
    j: int
    sign_mixed: bool
    cell_dim: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("a dual edge joins distinct terms")


def _pair_cell_dim(terms: Sequence[tuple[int, ...]], i: int, j: int) -> Optional[int]:
    """Dimension of {x : term_i = term_j = max} over the integer terms, or
    None when it is empty or, for distinct slopes, below d - 1."""
    d = len(terms[0]) - 1
    w = (1,) + (0,) * d
    ti = terms[i - 1]
    eq = term_difference(ti, terms[j - 1])
    others = tuple(term_difference(ti, terms[k - 1]) for k in range(1, len(terms) + 1) if k not in (i, j))
    p = next((q for q in range(1, d + 1) if eq[q]), 0)
    if not p:  # equal slopes: the cell is empty unless the terms are identical
        if eq[0]:
            return None
        # Identical terms: the cell is term i's region, empty exactly when w
        # vanishes on the cone {others >= 0, w >= 0}.
        dim, implied = describe_cone(d + 1, others + (w,))
        return None if len(others) in implied else dim - 1
    # A row is a multiple of eq iff row[q] * eq[p] == eq[q] * row[p] for every q.
    strict = (w,) + tuple(r for r in others if any(r[q] * eq[p] != eq[q] * r[p] for q in range(d + 1)))
    return d - 1 if lp_feasible(d + 1, strict, (eq, tuple(-x for x in eq))) is not None else None


def _edges(sig: SignomialParams, pairs: Iterable[tuple[int, int]], sign_mixed: bool) -> list[DualEdge]:
    """The given pairs, in order, whose cell has dimension d - 1."""
    terms = integer_terms(sig.terms)
    edges = []
    for i, j in pairs:
        dim = _pair_cell_dim(terms, i, j)
        if dim == sig.d - 1:
            edges.append(DualEdge(i, j, sign_mixed, dim))
    return edges


def _mixed_pairs(n: int, count: int) -> Iterator[tuple[int, int]]:
    """Pairs i <= n < j of ``count`` merged term indices, in lexicographic order."""
    return product(range(1, n + 1), range(n + 1, count + 1))


def dual_edges(sig: SignomialParams) -> list[DualEdge]:
    """Pairs of terms whose regions meet in dimension d - 1, i.e. the edges of
    the dual regular subdivision of the Newton polytope."""
    return _edges(sig, combinations(range(1, sig.n + 1), 2), False)


def decision_boundary(theta: TropicalRationalParams) -> list[DualEdge]:
    """Sign-mixed dual edges of g (+) h: one endpoint a numerator term, the
    other a denominator term; these are dual to the (d-1)-cells where the
    classifier is exactly zero."""
    return _edges(theta.merged(), _mixed_pairs(theta.n, theta.n + theta.m), True)


def tropical_type(apices: Sequence[Vec], point: Vec) -> tuple[frozenset[int], ...]:
    """Per tropical hyperplane max_j (point_j + apex_j), the active index sets."""
    out = []
    for apex in apices:
        if len(apex) != len(point):
            raise ValueError("apex and point dimensions differ")
        values = [a + x for a, x in zip(apex, point)]
        best = max(values, default=None)
        out.append(frozenset(j for j, v in enumerate(values, start=1) if v == best))
    return tuple(out)


# ---------------------------------------------------------------------------
# SVG rendering (d = 2 only)


_SIG_DIGITS = 9


def _sig_digits(x: Fraction) -> str:
    """Round-half-even decimal form with ``_SIG_DIGITS`` significant digits."""
    ctx = Context(prec=_SIG_DIGITS, rounding=ROUND_HALF_EVEN)
    return format(ctx.divide(Decimal(x.numerator), Decimal(x.denominator)).normalize(ctx), "f")


def _boundary_segments(
    terms: Sequence[tuple[int, ...]], n: int, box: Sequence[int], wden: int
) -> list[tuple[Vec, Vec, int, int]]:
    """Exact decision-boundary pieces clipped to the closed window box / wden,
    one per sign-mixed pair i <= n < j of the integer merged terms whose cell
    meets the window in positive length."""
    xmin, xmax, ymin, ymax = box
    segments = []
    for i, j in _mixed_pairs(n, len(terms)):
        ti = terms[i - 1]
        c, n0, n1 = term_difference(ti, terms[j - 1])
        # Equal slopes: the cell is empty (a_i != a_j) or the region of term i,
        # drawn by the sign-mixed pair of a term tied on it with another slope.
        if n0 == n1 == 0:
            continue
        # The line c + <(n0, n1), x> = 0 is x(t) = (-c (n0, n1) + t (u0, u1)) / q.
        u0, u1, q = -n1, n0, n0 * n0 + n1 * n1
        b0, b1 = -c * n0 * wden, -c * n1 * wden
        # Each constraint reads alpha + beta * t >= 0: a window side times
        # q * wden, another term's row term_i - term_k times q.
        constraints = [(b0 - q * xmin, wden * u0), (q * xmax - b0, -wden * u0)]
        constraints += [(b1 - q * ymin, wden * u1), (q * ymax - b1, -wden * u1)]
        for k in range(1, len(terms) + 1):
            if k != i and k != j:
                e, f0, f1 = term_difference(ti, terms[k - 1])
                constraints.append((q * e - c * (f0 * n0 + f1 * n1), f0 * u0 + f1 * u1))
        # Bounds on t as (numerator, denominator >= 0), compared by
        # cross-multiplication; the window replaces -inf and +inf on both sides.
        lo, hi = (-1, 0), (1, 0)
        for alpha, beta in constraints:
            if beta > 0 and -alpha * lo[1] > lo[0] * beta:
                lo = (-alpha, beta)
            elif beta < 0 and alpha * hi[1] < hi[0] * -beta:
                hi = (alpha, -beta)
            elif beta == 0 and alpha < 0:
                break
        else:
            if lo[0] * hi[1] < hi[0] * lo[1]:
                p0, p1 = (
                    (Fraction(t * u0 - c * n0 * s, q * s), Fraction(t * u1 - c * n1 * s, q * s))
                    for t, s in (lo, hi)
                )
                segments.append((p0, p1, i, j))
    return segments


def render_svg(theta: TropicalRationalParams, data, window) -> str:
    """Deterministic SVG of the decision boundary clipped to the window, data
    points colored by classifier sign, and regions labeled by term index.

    ``window`` is (xmin, xmax, ymin, ymax) as exact rationals; clipping happens
    exactly and only the final coordinates are rounded for display.
    """
    if theta.d != 2:
        raise ValueError("rendering is only available for two-dimensional inputs")
    if data is not None and data.d != theta.d:
        raise ValueError(f"parameters in dimension {theta.d}, data in dimension {data.d}")
    xmin, xmax, ymin, ymax = window
    if xmin >= xmax or ymin >= ymax:
        raise ValueError("degenerate window")
    size = Fraction(600)
    margin = Fraction(20)

    def to_px(p: Vec) -> tuple[str, str]:
        tx = margin + (p[0] - xmin) / (xmax - xmin) * size
        ty = margin + (ymax - p[1]) / (ymax - ymin) * size
        return _sig_digits(tx), _sig_digits(ty)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="640" height="640" viewBox="0 0 640 640">',
        '<rect x="0" y="0" width="640" height="640" fill="white"/>',
        f'<rect x="{_sig_digits(margin)}" y="{_sig_digits(margin)}" width="{_sig_digits(size)}" '
        f'height="{_sig_digits(size)}" fill="none" stroke="#cccccc"/>',
    ]
    # Region labels: mean location of each uniquely-attained term on a grid.
    # Grid point (gx, gy) is (X, Y) / scale with integers X, Y; the merged
    # terms are scaled to integers too, so every argmax is over integers.
    steps = 16
    terms = integer_terms(theta.merged().terms)
    box, wden = integerize(window)
    x0, x1, y0, y1 = box
    scale = steps * wden
    scaled = SignomialParams(tuple((t[0] * scale, t[1:]) for t in terms), 2)
    label_sums: dict[int, list[int]] = {}  # term -> [sum of X, sum of Y, count]
    for gx in range(1, steps):
        X = steps * x0 + gx * (x1 - x0)
        for gy in range(1, steps):
            Y = steps * y0 + gy * (y1 - y0)
            _, arg = eval_signomial(scaled, (X, Y))
            if len(arg) == 1:
                acc = label_sums.setdefault(next(iter(arg)), [0, 0, 0])
                acc[0] += X
                acc[1] += Y
                acc[2] += 1
    for i in sorted(label_sums):
        sum_x, sum_y, count = label_sums[i]
        px, py = to_px((Fraction(sum_x, count * scale), Fraction(sum_y, count * scale)))
        kind = "g" if i <= theta.n else "h"
        idx = i if i <= theta.n else i - theta.n
        lines.append(
            f'<text x="{px}" y="{py}" font-size="16" fill="#777777" text-anchor="middle">{kind}{idx}</text>'
        )
    for p0, p1, i, j in _boundary_segments(terms, theta.n, box, wden):
        x1, y1 = to_px(p0)
        x2, y2 = to_px(p1)
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#1f4e9c" stroke-width="3"/>'
        )
    if data is not None:
        for p in data.points:
            if not (xmin <= p[0] <= xmax and ymin <= p[1] <= ymax):
                continue
            sgn = classify_point(theta, p)
            color = "#1a7f37" if sgn > 0 else "#c0392b" if sgn < 0 else "#666666"
            px, py = to_px(p)
            lines.append(f'<circle cx="{px}" cy="{py}" r="5" fill="{color}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
