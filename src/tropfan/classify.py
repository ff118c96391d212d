"""Classification fans: sign partition of terms, 0/1-loss level sets, wall
adjacency, strong connectivity, and the linear (N = 2) chamber machinery.

Terms 1..n are numerator ("positive") terms, terms n+1..n+m denominator.  A
data point whose activating terms sit entirely in the wrong block is a
mistake; mixed activation sets are ties and count as correct, which is what
makes every level set a subfan.

Two maximal cones share a facet iff the bipartite graph that ties the
differing points and keeps every other point on its term is realizable.
Two maximal cones can share a facet only when all their differing data
points are the same vector and swap the same two terms; any other
difference forces codimension >= 2.  Coincident points share a term in
every maximal cone, so the candidates of a list of maximal cones are its
single-group flips: every copy of one point vector moves to another term.
Two assignments are such a flip exactly when they agree outside the group,
so each group buckets the assignments by their other entries.  Within one
call the verdicts are memoised up to a relabeling of the terms, which does
not change whether a wall exists.  A level set's cones carry strict
witnesses from the fan index: each class's witness is checked at every
point once per call, and a cone reads its class's values relabeled.  Both
witnesses of a flip put every point outside the group strictly on the same
term, and so does any positive combination of them, so their crossing X on
the tie certifies the wall when, at the group's point g alone, it keeps the
two tied terms strictly above the rest.  When a set L of third terms
reaches the tie at g, lowering the height of every term of L by one δ > 0
lowers its value at a point p by δ·c_p, c_p = lift_p[0] > 0.  Comparisons
within L stay, and every other term only gains, so a point off L stays on
its term.  The tied pair rises strictly above L at g once δ·c_g exceeds
the largest excess of L over the tie, and a point h outside the group on a
term of L stays on it while δ·c_h is below its lead over the terms outside
L.  When some δ meets all these bounds, the lowered crossing realizes the
tied graph and certifies the wall.  These integer checks settle most
walls; the rest, and every "no wall", are decided by one strict LP.

For N = 2 the fan is the arrangement of the hyperplanes of the lifted points
(1, p), a maximal covector is the assignment + -> term 1, - -> term 2, and a
monotone chamber path crosses one wall per step with the same single-group
flip and wall LP.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product
from operator import getitem, itemgetter, mul
from typing import Callable, Iterable, Optional, Sequence

from .fan import (
    ActivationPattern,
    Dataset,
    FanCone,
    _canon,
    _pattern_system,
    cone_of_graph,
    enumerate_all_cones,
    fan_index,
    is_maximal_pattern,
    lineality_dim,
    pattern_from_assignment,
)
from .geometry import exact_rank, max_slack
from .rationals import Vec
from .tropical import TropicalRationalParams, classify as classify_point

Dichotomy = tuple[int, ...]  # entries in {-1, +1}
Covector = tuple[int, ...]  # entries in {-1, 0, +1}


def parse_signs(text: str) -> Dichotomy:
    """Parse "+,-,+" style strings; "0" entries are allowed for covectors."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "+":
            out.append(1)
        elif tok == "-":
            out.append(-1)
        elif tok == "0":
            out.append(0)
        else:
            raise ValueError(f"bad sign token {tok!r}")
    return tuple(out)


def format_signs(signs: Sequence[int]) -> str:
    return ",".join("+" if s > 0 else "-" if s < 0 else "0" for s in signs)


def separation(C: Sequence[int], D: Sequence[int]) -> frozenset[int]:
    """0-based positions where the covectors carry opposite nonzero signs."""
    return frozenset(k for k, (c, d) in enumerate(zip(C, D)) if c == -d != 0)


def compose(C: Sequence[int], D: Sequence[int]) -> Covector:
    return tuple(c if c != 0 else d for c, d in zip(C, D))


def loss_of_pattern(G: ActivationPattern, target: Sequence[int], n: int, m: int) -> int:
    """Mistake count of every parameter in G's cone: points whose activation
    set lies entirely in the block opposite their target sign."""
    if G.N != n + m:
        raise ValueError("split (n, m) inconsistent with pattern")
    if len(target) != G.M:
        raise ValueError("target length differs from pattern size")
    wrong = 0
    for nb, c in zip(G.neighbors, target):
        if c > 0 and all(i > n for i in nb):
            wrong += 1
        elif c < 0 and all(i <= n for i in nb):
            wrong += 1
    return wrong


def loss_of_theta(theta: TropicalRationalParams, target: Sequence[int], data: Dataset) -> int:
    if len(target) != data.M:
        raise ValueError("target length differs from dataset size")
    return sum(
        1 for p, c in zip(data.points, target) if classify_point(theta, p) == -c
    )


# ---------------------------------------------------------------------------
# Wall adjacency


def _wall_lp(a: Sequence[int], group: Sequence[int], j: int, data: Dataset) -> bool:
    """Whether the cone of assignment ``a`` has the wall on which every point
    of ``group`` ties its term to term ``j``: the graph of ``a`` with those
    points tied is realizable."""
    tied = tuple(sorted((a[group[0]], j)))
    graph = [(k, tied if k in group else (t,)) for k, t in enumerate(a)]
    dim, strict, equalities = _pattern_system(data, graph)
    return max_slack(dim, (), strict, equalities)[0] > 0


def wall_adjacent(
    G: ActivationPattern, H: ActivationPattern, data: Dataset, n: int, m: int
) -> tuple[bool, int]:
    """(adjacent, dimension of the intersection cone) for two maximal patterns:
    adjacent when their cones meet in a facet.  A degree-one pattern that
    splits coincident points is not maximal: no wall."""
    whole = all(len(set(zip(data.points, x.assignment()))) == len(set(data.points)) for x in (G, H))
    dim = _intersection_dim(G, H, data, n + m)
    return whole and dim == (n + m) * (data.d + 1) - 1, dim


def _intersection_dim(G: ActivationPattern, H: ActivationPattern, data: Dataset, N: int) -> int:
    """Dimension of C(G) n C(H), with a rank sandwich before the LP route."""
    union = G.union(H)
    lo = lineality_dim(data, N)
    # Dropping the gauge block is injective on tie rows, whose blocks sum to zero.
    up = N * (data.d + 1) - exact_rank(_pattern_system(data, list(enumerate(union.key())))[2])
    if up <= lo:
        return lo
    return cone_of_graph(union, data).dimension


def _adjacency_edges(
    assigns: list[tuple[int, ...]],
    data: Dataset,
    N: int,
    witness: Callable[[int], tuple[Sequence[Sequence[int]], int]],
    counts: Optional[Counter] = None,
) -> list[tuple[int, int]]:
    """All wall-adjacent index pairs (x < y), sorted, within one list of
    maximal assignments; a repeated assignment gets the edges of each copy.

    Candidates are single-group flips.  For each group of coincident points
    the assignments are bucketed by their entries outside the group, so
    O(K*G) bucket keys replace all K^2 pairs, and no flipped tuple is built.
    In a bucket, (x, y) with x < y is a candidate when y holds the group on
    a term j other than x's term i.  The assignments come from a fan index,
    which puts every copy in the part of its first occurrence, so none
    splits a group and its first point's term is the whole group's.

    A wall is decided once per key and call.  The key of the flip of x's
    group to j is the partition of ``assigns[x]`` labeled by first
    occurrence (computed once per assignment), the group, and the label of
    j, -1 when j is unused; a candidate takes the smaller of its two sides'
    keys.  The key fixes the tied union graph up to a relabeling of the
    terms, both sides of a wall tie the same graph, and whether a graph is
    realizable does not change under a relabeling.  The order in which the
    buckets are read therefore changes no edge.  Nor does it change an LP
    count: the candidates of one key are relabelings of one another, so are
    their cones' witnesses, and the crossing below reads the same from
    either side, so it gives every candidate of a key the same verdict.

    ``witness(x)`` is (blocks, pad), an integer strict witness of the class
    of ``assigns[x]``: one (a, s) block per label, in order of first
    occurrence, and the height of every term the assignment leaves unused.
    It is read once per labeled partition and call, for the first cone that
    has it, as its label values and pad value at every group's point, and
    checked in integers to put every point's own label strictly above the
    other labels and, when a term is unused, the pad (``AssertionError``
    otherwise).  Each cone's values are then that class's values with label
    t at the term it labels, which is again a strict witness.  A decision
    first checks the crossing of the two cones' witnesses
    (``_crossing_is_wall``); only a crossing that fails solves ``_wall_lp``.
    ``counts``, when given, gains one count per decision under its verdict:
    "crossing", "lowered" or "lp".
    """
    by_point: dict[Vec, list[int]] = {}
    for k, p in enumerate(data.points):
        by_point.setdefault(p, []).append(k)
    groups = list(by_point.values())
    canon = [_canon(a) for a in assigns]
    labels = [dict(zip(a, c)) for a, c in zip(assigns, canon)]
    firsts = [group[0] for group in groups]
    lifts = [data.lifts[k] for k in firsts]
    classes: dict[tuple[int, ...], list[list[int]]] = {}
    tables: dict[int, tuple[list[tuple[int, ...]], list[int]]] = {}

    def values(x: int) -> tuple[list[tuple[int, ...]], list[int]]:
        # (term values, own term) at each group's point, from the class's label values
        if x not in tables:
            part, label = canon[x], labels[x]
            if part not in classes:
                blocks, pad = witness(x)
                rows = [[sum(map(mul, lift, block)) for block in blocks] for lift in lifts]
                for row, lift, group in zip(rows, lifts, groups):
                    top, low = max(row), lift[0] * pad
                    mixed = row.count(top) > 1 or any(row[part[k]] != top for k in group)
                    if mixed or (len(label) < N and low >= top):
                        raise AssertionError("a witness does not put every point strictly on its own term")
                    row.append(low)
                classes[part] = rows
            get = itemgetter(*(label.get(t, -1) for t in range(1, N + 1)))
            tables[x] = list(map(get, classes[part])), [assigns[x][k] for k in firsts]
        return tables[x]

    tally = Counter() if counts is None else counts
    memo: dict[tuple, bool] = {}
    edges = []
    for g, group in enumerate(groups):
        rest = [k for k in range(data.M) if k not in group]
        outside = itemgetter(*rest) if rest else lambda a: ()
        buckets: dict[object, list[int]] = {}
        for x, key in enumerate(map(outside, assigns)):
            buckets.setdefault(key, []).append(x)
        term = [a[group[0]] for a in assigns]
        for bucket in buckets.values():
            for n, x in enumerate(bucket[:-1]):
                i = term[x]
                for y in bucket[n + 1 :]:
                    j = term[y]
                    if j == i:
                        continue
                    key = min((canon[x], g, labels[x].get(j, -1)), (canon[y], g, labels[y].get(i, -1)))
                    wall = memo.get(key)
                    if wall is None:
                        u, own = values(x)
                        verdict = _crossing_is_wall(u, values(y)[0], own, g, j, lifts)
                        tally[verdict or "lp"] += 1
                        wall = memo[key] = bool(verdict) or _wall_lp(assigns[x], group, j, data)
                    if wall:
                        edges.append((x, y))
    edges.sort()
    return edges


def _crossing_is_wall(
    u: Sequence[Sequence[int]], v: Sequence[Sequence[int]], own: Sequence[int], g: int, j: int,
    lifts: Sequence[Sequence[int]],
) -> str:
    """How the crossing of two strict witnesses certifies the wall on which
    the group ``g`` of coincident points ties its term i = ``own[g]`` to
    term ``j``: "crossing", "lowered", or "" when it does not.

    ``u[h][t - 1]`` and ``v[h][t - 1]`` are the values of term t at the
    point of group h, whose lift is ``lifts[h]``, under integer witnesses A
    of an assignment a, which puts group h on term ``own[h]``, and B of b,
    a with group g moved to j.  Their tie values fa = A_i - A_j > 0 and
    fb = B_i - B_j < 0 at g, or an ``AssertionError`` is raised, and the
    crossing X = (-fb)·A + fa·B lies on the tie.  Every point outside the
    group is on the same term in a and b, and A and B put it strictly on
    that term when the caller has checked them, so their positive
    combination X does too; the group's copies share its lift.

    Let L be the terms other than i and j that X puts at or above the tie
    at g.  When L is empty, X realizes the tied graph: "crossing".  Else
    lower the height of every term of L by one δ > 0, which lowers its
    value at a point by δ·c, c = lift[0] > 0.  That keeps every comparison
    between two terms of L, and a term outside L only gains, so the point
    of a group h off L stays on its term.  The result realizes the tied
    graph exactly when max over L of (X_l(g) - tie) / c_g < δ <
    (X_t(h) - max over m outside L of X_m(h)) / c_h for every group h ≠ g
    whose term t lies in L: "lowered" when that interval is open, compared
    by cross-multiplication.  The check is exact and makes no LP call.
    """
    i, ug, vg = own[g], u[g], v[g]
    fa, fb = ug[i - 1] - ug[j - 1], vg[i - 1] - vg[j - 1]
    if not fa > 0 > fb:
        raise AssertionError("a witness lies off its side of the flip's tie")
    tie = fa * vg[i - 1] - fb * ug[i - 1]
    lowered = {t for t, (s, y) in enumerate(zip(ug, vg), 1) if t != i and t != j and fa * y - fb * s >= tie}
    if not lowered:
        return "crossing"
    excess, cg = max(fa * vg[t - 1] - fb * ug[t - 1] for t in lowered) - tie, lifts[g][0]
    for h, t in enumerate(own):  # own[g] = i is not lowered
        if t in lowered:
            x = [fa * y - fb * s for s, y in zip(u[h], v[h])]
            margin = x[t - 1] - max(w for m, w in enumerate(x, 1) if m not in lowered)
            if not excess * lifts[h][0] < margin * cg:
                return ""
    return "lowered"


def _union_find_components(count: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    parent = list(range(count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in edges:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    groups: dict[int, list[int]] = {}
    for x in range(count):
        groups.setdefault(find(x), []).append(x)
    return [tuple(groups[r]) for r in sorted(groups)]


# ---------------------------------------------------------------------------
# Level sets


@dataclass(frozen=True)
class LevelSetReport:
    k: int
    patterns: tuple[ActivationPattern, ...]
    components: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, int, int], ...]

    @property
    def count(self) -> int:
        return len(self.patterns)


def level_set(
    data: Dataset,
    n: int,
    m: int,
    target: Sequence[int],
    k: int,
    cap: Optional[int] = None,
    workers: int = 1,
    progress=None,
) -> LevelSetReport:
    """All maximal patterns of loss exactly k, with wall adjacency restricted
    to the level set itself and its strongly connected components.  Every
    target entry is -1 or +1.  ``progress`` gets one line before the wall
    pass and one after it, with the count of each kind of wall decision."""
    if len(target) != data.M:
        raise ValueError("target length differs from dataset size")
    if any(c not in (-1, 1) for c in target):
        raise ValueError("target entries must be -1 or +1")
    N = n + m
    index = fan_index(data, N, cap=cap, workers=workers, progress=progress)

    def relabelings(rep):
        # A part costs its negatives on a numerator term, its positives on a denominator
        # term (side 1); each split of the parts is scored once, and expanded at loss k.
        costs = [(sum(target[p] <= 0 for p in part), sum(target[p] > 0 for p in part)) for part in rep.parts]
        for side in product((0, 1), repeat=len(costs)):
            r = side.count(0)
            if r <= n and len(side) - r <= m and sum(map(getitem, costs, side)) == k:
                nums, dens = permutations(range(1, n + 1), r), permutations(range(n + 1, N + 1), len(side) - r)
                for num, den in product(nums, dens):
                    terms = (iter(num), iter(den))
                    yield tuple(next(terms[s]) for s in side)

    # Each assignment with its class, whose witness its cone reads relabeled.
    cones = sorted(
        ((get(perm), rep) for rep, perms, get in index._classes(relabelings) for perm in perms),
        key=itemgetter(0),
    )
    assigns = [a for a, _ in cones]
    if progress:
        progress(f"level {k}: {len(assigns)} maximal cones; computing wall adjacency")
    counts: Counter = Counter()
    edges = _adjacency_edges(assigns, data, N, lambda x: (cones[x][1].witness_blocks, cones[x][1].pad), counts)
    if progress:
        progress(
            f"level {k}: {sum(counts.values())} wall decisions, {counts['crossing']} certified by the"
            f" witness crossing, {counts['lowered']} by the lowered crossing, {counts['lp']} wall LPs"
        )
    ambient = N * (data.d + 1)
    components = _union_find_components(len(assigns), edges)
    return LevelSetReport(
        k=k,
        patterns=tuple(pattern_from_assignment(a, N) for a in assigns),
        components=tuple(components),
        adjacency=tuple((x, y, ambient - 1) for x, y in edges),
    )


def count_dichotomies(data: Dataset, n: int, m: int, cap: Optional[int] = None,
                      workers: int = 1) -> int:
    """Number of distinct dichotomies induced by maximal cones of the
    classification fan (the growth-function count for this dataset).  A
    class's dichotomies are the splits of its parts into + (numerator) and
    - (denominator) with at most n and m parts: an injective relabeling puts
    the parts of each side on distinct terms of that side."""

    def splits(rep):
        return (s for s in product((1, -1), repeat=len(rep.parts)) if s.count(1) <= n and s.count(-1) <= m)

    index = fan_index(data, n + m, cap=cap, workers=workers)
    return len({get(side) for _, sides, get in index._classes(splits) for side in sides})


# ---------------------------------------------------------------------------
# Linear case: N = 2 covectors and chamber walking


def covectors_linear(data: Dataset, cones: Optional[Sequence[FanCone]] = None) -> list[Covector]:
    """Covectors of every cone of the N = 2 activation fan, via the
    translation {1} -> +, {2} -> -, {1, 2} -> 0.  A caller that already has
    that fan's cones passes them as ``cones``."""
    if cones is None:
        cones = enumerate_all_cones(data, 2)
    covs = set()
    for cone in cones:
        cov = []
        for nb in cone.pattern.neighbors:
            cov.append(0 if len(nb) == 2 else (1 if 1 in nb else -1))
        covs.add(tuple(cov))
    return sorted(covs)


def chamber_path(start: Covector, target: Dichotomy, data: Dataset) -> list[Covector]:
    """Wall-connected sequence of maximal covectors from start to target whose
    separation from the target strictly shrinks at every step.

    Each step flips the first group of coincident separating points, by
    decreasing highest index, whose tie is a wall of the current cone.  Some
    group passes: a generic segment into the target leaves the current cone
    through a facet on the first hyperplane it crosses, which separates the
    two cones, and distinct points have distinct hyperplanes (1, p)."""
    if len(start) != data.M or len(target) != data.M:
        raise ValueError("covector length differs from dataset size")
    if any(s == 0 for s in start):
        raise ValueError("start must be a maximal covector")
    if any(s == 0 for s in target):
        raise ValueError("target must be a dichotomy")

    def assignment(cov: Sequence[int]) -> tuple[int, ...]:
        return tuple(1 if c > 0 else 2 for c in cov)

    if not is_maximal_pattern(pattern_from_assignment(assignment(target), 2), data):
        raise ValueError("target dichotomy is not realizable on this data")
    if not is_maximal_pattern(pattern_from_assignment(assignment(start), 2), data):
        raise ValueError("start covector is not realizable on this data")
    path = [tuple(start)]
    while separating := separation(path[-1], target):
        by_point: dict[Vec, list[int]] = {}
        for k in sorted(separating):
            by_point.setdefault(data.points[k], []).append(k)
        current = assignment(path[-1])
        for group in sorted(by_point.values(), key=lambda g: -g[-1]):
            if _wall_lp(current, group, 3 - current[group[0]], data):
                break
        else:
            raise AssertionError("no wall of the current cone separates it from the target")
        path.append(tuple(target[k] if k in group else c for k, c in enumerate(path[-1])))
    return path
