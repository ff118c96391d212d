"""Input-space geometry of a fixed parameter vector: region adjacencies of the
max-plus subdivision, the sign-mixed decision boundary, tropical covector
types, and a deterministic 2-D SVG rendering.

Affine cells in input space are handled through one homogenizing coordinate:
the cell {x : rows(x) >= 0} becomes the cone {(w, x) : w >= 0, rows >= 0} and
the cell has dimension one less than the cone whenever some point with w > 0
exists.  The pair (i, j) is a dual edge exactly when the set where terms i and
j jointly attain the maximum has dimension d - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .geometry import ConstraintSystem, describe_cone, lp_feasible
from .rationals import Vec, dot
from .tropical import SignomialParams, TropicalRationalParams, classify as classify_point, eval_signomial


@dataclass(frozen=True)
class DualEdge:
    i: int
    j: int
    sign_mixed: bool
    cell_dim: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("a dual edge joins distinct terms")


def _homog_term_row(sig: SignomialParams, hi: int, lo: int) -> Vec:
    """Coefficients of term_hi(x) - term_lo(x) over (w, x)."""
    a_hi, s_hi = sig.terms[hi - 1]
    a_lo, s_lo = sig.terms[lo - 1]
    return (a_hi - a_lo,) + tuple(u - v for u, v in zip(s_hi, s_lo))


def _w_row(d: int) -> Vec:
    return (Fraction(1),) + (Fraction(0),) * d


def region_nonempty(sig: SignomialParams, i: int) -> bool:
    """Whether term i attains the maximum anywhere (the region may still be
    lower-dimensional)."""
    rows = tuple(_homog_term_row(sig, i, k) for k in range(1, sig.n + 1) if k != i)
    system = ConstraintSystem(rows, (_w_row(sig.d),), sig.d + 1)
    return lp_feasible(system) is not None


def _pair_cell_dim(sig: SignomialParams, i: int, j: int) -> Optional[int]:
    """Dimension of {x : term_i = term_j = max}, or None when empty."""
    d = sig.d
    eq = _homog_term_row(sig, i, j)
    rows = tuple(_homog_term_row(sig, i, k) for k in range(1, sig.n + 1) if k not in (i, j))
    feasible = lp_feasible(
        ConstraintSystem(rows + (eq, tuple(-x for x in eq)), (_w_row(d),), d + 1)
    )
    if feasible is None:
        return None
    cone = describe_cone(
        ConstraintSystem(rows + (eq, tuple(-x for x in eq), _w_row(d)), (), d + 1)
    )
    return cone.dimension - 1


def dual_edges(sig: SignomialParams) -> list[DualEdge]:
    """Pairs of terms whose regions meet in dimension d - 1, i.e. the edges of
    the dual regular subdivision of the Newton polytope."""
    alive = [i for i in range(1, sig.n + 1) if region_nonempty(sig, i)]
    edges = []
    for ai in range(len(alive)):
        for aj in range(ai + 1, len(alive)):
            i, j = alive[ai], alive[aj]
            dim = _pair_cell_dim(sig, i, j)
            if dim == sig.d - 1:
                edges.append(DualEdge(i, j, False, dim))
    return edges


def decision_boundary(theta: TropicalRationalParams) -> list[DualEdge]:
    """Sign-mixed dual edges of g (+) h: one endpoint a numerator term, the
    other a denominator term; these are dual to the (d-1)-cells where the
    classifier is exactly zero."""
    merged = theta.merged()
    n = theta.n
    out = []
    for e in dual_edges(merged):
        mixed = (e.i <= n) != (e.j <= n)
        if mixed:
            out.append(DualEdge(e.i, e.j, True, e.cell_dim))
    return out


def tropical_type(apices: Sequence[Vec], point: Vec) -> tuple[frozenset[int], ...]:
    """Per tropical hyperplane max_j (point_j + apex_j), the active index sets."""
    out = []
    for apex in apices:
        if len(apex) != len(point):
            raise ValueError("apex and point dimensions differ")
        best = None
        arg: list[int] = []
        for j, (a, x) in enumerate(zip(apex, point), start=1):
            v = a + x
            if best is None or v > best:
                best, arg = v, [j]
            elif v == best:
                arg.append(j)
        out.append(frozenset(arg))
    return tuple(out)


# ---------------------------------------------------------------------------
# SVG rendering (d = 2 only)


def _sig_digits(x: Fraction, digits: int = 9) -> str:
    """Round-half-even decimal form with the given significant digits."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    n, dnm = abs(x.numerator), x.denominator
    mag = len(str(n * 10**digits // dnm)) - digits  # digits before the point
    shift = digits - mag
    if shift >= 0:
        q, r = divmod(n * 10**shift, dnm)
        whole_den = dnm
    else:
        whole_den = dnm * 10 ** (-shift)
        q, r = divmod(n, whole_den)
    if 2 * r > whole_den or (2 * r == whole_den and q % 2 == 1):
        q += 1
    if shift <= 0:
        return sign + str(q * 10 ** (-shift))
    s = str(q).rjust(shift + 1, "0")
    whole, frac = s[:-shift], s[-shift:]
    frac = frac.rstrip("0")
    return sign + (f"{whole}.{frac}" if frac else whole)


def _boundary_segments(theta: TropicalRationalParams, window) -> list[tuple[Vec, Vec, int, int]]:
    """Exact decision-boundary pieces clipped to the closed window box."""
    xmin, xmax, ymin, ymax = window
    merged = theta.merged()
    segments = []
    for e in decision_boundary(theta):
        a_i, s_i = merged.terms[e.i - 1]
        a_j, s_j = merged.terms[e.j - 1]
        normal = tuple(u - v for u, v in zip(s_i, s_j))
        const = a_i - a_j
        # Line const + <normal, x> = 0; direction perpendicular to the normal.
        direction = (-normal[1], normal[0])
        if normal[0] != 0:
            base = (-const / normal[0], Fraction(0))
        else:
            base = (Fraction(0), -const / normal[1])
        lo, hi = None, None  # parameter interval, None = unbounded

        def clamp(alpha, beta, lo, hi):
            # constraint alpha + beta * t >= 0
            if beta == 0:
                return (lo, hi) if alpha >= 0 else (Fraction(1), Fraction(0))
            bound = -alpha / beta
            if beta > 0:
                lo = bound if lo is None or bound > lo else lo
            else:
                hi = bound if hi is None or bound < hi else hi
            return lo, hi

        for k in range(1, merged.n + 1):
            if k in (e.i, e.j):
                continue
            a_k, s_k = merged.terms[k - 1]
            alpha = (a_i - a_k) + dot(s_i, base) - dot(s_k, base)
            beta = dot(s_i, direction) - dot(s_k, direction)
            lo, hi = clamp(alpha, beta, lo, hi)
        for alpha, beta in (
            (base[0] - xmin, direction[0]),
            (xmax - base[0], -direction[0]),
            (base[1] - ymin, direction[1]),
            (ymax - base[1], -direction[1]),
        ):
            lo, hi = clamp(alpha, beta, lo, hi)
        if lo is None or hi is None or lo > hi:
            continue
        p0 = (base[0] + lo * direction[0], base[1] + lo * direction[1])
        p1 = (base[0] + hi * direction[0], base[1] + hi * direction[1])
        if p0 != p1:
            segments.append((p0, p1, e.i, e.j))
    return segments


def render_svg(theta: TropicalRationalParams, data, window) -> str:
    """Deterministic SVG of the decision boundary clipped to the window, data
    points colored by classifier sign, and regions labeled by term index.

    ``window`` is (xmin, xmax, ymin, ymax) as exact rationals; clipping happens
    exactly and only the final coordinates are rounded for display.
    """
    if theta.d != 2:
        raise ValueError("rendering is only available for two-dimensional inputs")
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
    merged = theta.merged()
    # Region labels: majority location of each uniquely-attained term on a grid.
    steps = 16
    label_pos: dict[int, list[Vec]] = {}
    for gx in range(1, steps):
        for gy in range(1, steps):
            x = (xmin + Fraction(gx, steps) * (xmax - xmin), ymin + Fraction(gy, steps) * (ymax - ymin))
            _, arg = eval_signomial(merged, x)
            if len(arg) == 1:
                label_pos.setdefault(next(iter(arg)), []).append(x)
    for i in sorted(label_pos):
        pts = label_pos[i]
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        px, py = to_px((cx, cy))
        kind = "g" if i <= theta.n else "h"
        idx = i if i <= theta.n else i - theta.n
        lines.append(
            f'<text x="{px}" y="{py}" font-size="16" fill="#777777" text-anchor="middle">{kind}{idx}</text>'
        )
    for p0, p1, i, j in sorted(_boundary_segments(theta, window), key=lambda s: (s[2], s[3], s[0], s[1])):
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
