"""Reference arithmetic for the output checks, written apart from tropfan.

Everything here is plain integer arithmetic on scaled copies of the inputs:
argmax sets of max-plus forms, 0/1-loss of an assignment, orientation tests.
No function calls into the library, so a defect on a timed path cannot hide
by agreeing with itself.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def _ints(values) -> list[int]:
    """The values times their common denominator (a positive scale)."""
    den = 1
    for v in values:
        d = v.denominator
        den = den * d // gcd(den, d)
    return [v.numerator * (den // v.denominator) for v in values]


def lift(points) -> list[list[int]]:
    """Each point p as the integer row c * (1, p), c > 0."""
    return [_ints((1,) + tuple(p)) for p in points]


def argmax_sets(theta, N: int, lifted) -> tuple[frozenset[int], ...]:
    """Per lifted point, the 1-based terms attaining max_i (a_i + <s_i, p>) for
    the flat parameter vector (a_1, s_1, ..., a_N, s_N)."""
    row = _ints(theta)
    width = len(row) // N
    blocks = [row[i * width : (i + 1) * width] for i in range(N)]
    out = []
    for q in lifted:
        values = [sum(b * x for b, x in zip(block, q)) for block in blocks]
        top = max(values)
        out.append(frozenset(i + 1 for i, v in enumerate(values) if v == top))
    return tuple(out)


def unique_assignment(theta, N: int, lifted):
    """The term assignment of a degree-one pattern, or None if any point ties."""
    sets = argmax_sets(theta, N, lifted)
    if any(len(s) != 1 for s in sets):
        return None
    return tuple(next(iter(s)) for s in sets)


def assignment_loss(assign, target, n: int) -> int:
    """Points whose term lies in the block opposite their target sign."""
    return sum(1 for t, c in zip(assign, target) if (c > 0) != (t <= n))


def is_wall_shape(a, b, points) -> bool:
    """Whether a and b differ only at copies of one point vector, and swap the
    same unordered pair of terms at each of them."""
    diffs = [k for k in range(len(a)) if a[k] != b[k]]
    if not diffs:
        return False
    pair = {a[diffs[0]], b[diffs[0]]}
    return all({a[k], b[k]} == pair and points[k] == points[diffs[0]] for k in diffs)


def signomial_value(terms, x):
    return max(a + sum(s_j * x_j for s_j, x_j in zip(s, x)) for a, s in terms)


def rational_value(theta, x):
    """g(x) - h(x) of tropical rational parameters, by direct evaluation."""
    return signomial_value(theta.num.terms, x) - signomial_value(theta.den.terms, x)


def separation_size(c, d) -> int:
    return sum(1 for x, y in zip(c, d) if x == -y != 0)


def _cross(p, q, r) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def has_collinear_triple(pts) -> bool:
    return any(_cross(p, q, r) == 0 for p, q, r in combinations(pts, 3))


def has_coplanar_quadruple(pts) -> bool:
    for p, q, r, s in combinations(pts, 4):
        u, v, w = ([b - a for a, b in zip(p, x)] for x in (q, r, s))
        det = (
            u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0])
        )
        if det == 0:
            return True
    return False


def has_interior_point(pts) -> bool:
    """For points in general position: one lies inside the triangle of three others."""
    for i, p in enumerate(pts):
        a, b, c = (q for j, q in enumerate(pts) if j != i)
        signs = {_cross(a, b, p) > 0, _cross(b, c, p) > 0, _cross(c, a, p) > 0}
        if len(signs) == 1:
            return True
    return False
