"""Independent oracles shared by the test modules.

The grid oracle certifies region adjacencies purely by evaluation and term
arithmetic: it scans an offset grid, and whenever two 4-neighbours have
distinct unique argmax terms it solves the crossing on the segment exactly.
The crossing certifies pairs only if every term attaining the maximum there is
tied along the whole crossing line (gradient differences parallel to the
line's normal); a genuine vertex of the complex fails that test, while a
degenerate lift with several terms agreeing along one line certifies every
pair among them.  Certified pairs therefore have a (d-1)-dimensional cell
through the crossing; no cone machinery is involved.

The pairwise-union oracle is the former fixpoint behind
``enumerate_all_cones``: it closes the maximal cones under pairwise
intersection until no new cone appears, then adds the lineality cone.

The pairwise wall oracle is the former quadratic filter behind
``classify._adjacency_edges``: every pair of assignments goes through
``_wall_shape``, and each survivor gets its own wall LP, with no memo.
``_wall_shape`` is the former wall-candidate rule of ``wall_adjacent``.
The flip-lookup wall oracle is the former body of
``classify._adjacency_edges``: for each assignment, group of coincident
points and other term, it builds the flipped tuple and looks it up, keys
the decision by the relabeling key of either side built afresh, and checks
a witness crossing at every data point, without checking the witnesses
themselves; a refused crossing or a call without witnesses takes the
runtime's ``classify._wall_lp``.
The all-terms wall LP is the former body of ``classify._wall_lp``: it builds
its rows over every term's block, a term that no point uses included.

The composition chamber-path oracle is the former body of
``classify.chamber_path``: covectors are signs of <theta, (1, p)>, and the
walk from D toward C picks the lowest separating point i, finds a point Z on
the wall of p_i by sign-probe LPs and blending, and recurses on the
compositions Z o D and Z o C.

The scanning covector-axiom oracle is the former body of
``matroids.om_axioms_check``: composition by composing every ordered pair of
sorted covectors, and elimination by scanning every covector for each pair
and each separating position.  It takes the length from an arbitrary member
and does not check the entries.

The scanning pattern-axiom oracle decides as the former body of
``matroids.pattern_axioms_check`` did: symmetry over every term permutation,
elimination by scanning every pattern, and a comparability graph built and
tested for every pair of patterns at every point.  The former sampled branch
for N > 5 is left out; the oracle always takes the whole symmetric group.
The comparability graph and its acyclicity test are the former
``matroids.comparability_graph`` and ``matroids.is_acyclic``; the runtime
check needs neither, since the graph is always acyclic (see
``matroids.pattern_axioms_check``).

The relative-interior pair oracle is the former body of
``dual._pair_cell_dim``: one feasibility LP with every competitor and the
tie pair nonstrict and w > 0 strict, then the cell's dimension from the
relative-interior rounds of ``describe_cone``, for every pair alike.  The
all-pairs boundary oracle applies it to every pair of merged terms g (+) h,
with no region test first, and keeps the sign-mixed edges.

The Fraction clip oracle is the former body of ``dual._boundary_segments``:
each sign-mixed line is parametrized from a Fraction base point, and each
window side and other term bounds the parameter by a pair of Fractions.

The split-column slack LP is an earlier form of ``geometry.max_slack``: x is
written as u - v with u, v >= 0 and each equality as two opposite rows, and
its own dense Fraction primal simplex under Bland's rule solves it, so it
shares no code with ``geometry._Simplex``.  The dense-tableau slack LP
solves the same LP as ``geometry.max_slack`` does today, with the same
start, x pivots and dual simplex rule, on a dense tableau of Fractions that
holds every column, basic or not.  The x rows stay in that tableau and are
updated by every pivot, so x is read off their rhs at the end instead of
being reconstructed.

The one-batch row insertion is the former body of
``geometry._Simplex.add_rows``: every new row is first built against the
basis at the start of the batch and inserted, and only then does each new
row in turn pivot in the lowest x never pivoted in that has an entry in it,
so every such pivot also updates the new rows after it.

The eager leaf oracle is the former body of ``fan._leaf_cone``: it checks
the leaf's witness in integers as the runtime does, then builds a Fraction
for every witness entry and for every point's own term value, and takes
the least of those Fractions, less one, as the padding constant.

The walk without nogoods is the former body of ``fan._nodes``, run in
one process: every child of a realizable node solves its warm LP through
``fan._child``, but the leaf its node's witness already realizes
(``fan._kept_part``), and no child is refuted without an LP.

The nested-loop labeling oracle is the former body of
``fan._FanIndex._labelings``: each assignment is filled in point by point,
part by part, for every relabeling of every class.

The Fraction tie-row oracle is the former body of ``fan._tie_row``: the row
of (a_hi - a_lo) + <s_hi - s_lo, p> in Fractions, built from the point p
rather than from its integer lift.

The split conversion oracle is the former body of ``relu.net_to_tropical``:
each weight row is split as W = W+ - W- into nonnegative parts, a zero part
scales its factor to the identity term {0: 0}, and every input multiplies
each of Y_convex and Y_concave by an inner product of two scaled factors,
so every product, inner ones included, and each merged numerator meets the
term cap.

The sampled prune oracle is the former body of ``relu._prune_signomial``:
after merging equal slopes, a term with the unique maximum at one of 64
seeded sample points is kept without an LP, and every other term is decided
by strict LPs that add, one at a time, the competitor that beats or ties it
at the last witness.

The per-row relative-interior oracle is the former body of
``geometry.relint_point``: after one slack LP with every row strict, each
row not yet positive at the accumulated point gets its own LP with that row
strict and the rest nonstrict; a zero optimum marks the row implied, and a
positive one adds its witness to the point.

The certificate-round relative-interior oracle is the later body of
``geometry.relint_point``, before opposite pairs were implied without an LP:
every round solves one slack LP with the undecided rows strict and the
implied ones nonstrict, and a zero optimum's checked dual multipliers mark
their rows implied, along with every undecided row in the span of the
implied rows.
"""

import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations, permutations, product
from operator import mul

from tropfan.classify import _wall_lp, compose, separation
from tropfan.dual import DualEdge
from tropfan.fan import (
    ActivationPattern,
    FanCone,
    _CanonicalCone,
    _child,
    _distinct,
    _kept_part,
    _leaf_cone,
    _pattern_system,
    _tie_row,
    complete_pattern,
    cone_of_graph,
    fan_index,
    pattern_from_assignment,
)
from tropfan.geometry import (
    _STALL_LIMIT,
    _bias,
    _extend_span,
    _pack,
    _reduce,
    _unpack,
    _width,
    describe_cone,
    lp_feasible,
    max_slack,
)
from tropfan.matroids import AxiomReport, AxiomResult, pattern_compose
from tropfan.rationals import dot, integerize, zeros
from tropfan.relu import ConversionResult, TermCapExceededError
from tropfan.tropical import SignomialParams, TropicalRationalParams, eval_signomial, integer_terms, term_difference


@dataclass(frozen=True)
class ComparabilityGraph:
    n_terms: int
    directed: frozenset[tuple[int, int]]
    undirected: frozenset[frozenset[int]]


def comparability_graph(G: ActivationPattern, H: ActivationPattern, p_index: int) -> ComparabilityGraph:
    """Edges j -> k for j active in G and k active in H at the point;
    undirected when both j and k are active in both patterns."""
    a, b = G.neighbors[p_index], H.neighbors[p_index]
    both = a & b
    directed = set()
    undirected = set()
    for j in a:
        for k in b:
            if j == k:
                continue
            if j in both and k in both:
                undirected.add(frozenset((j, k)))
            else:
                directed.add((j, k))
    return ComparabilityGraph(G.N, frozenset(directed), frozenset(undirected))


def is_acyclic(cg: ComparabilityGraph) -> bool:
    """Acyclicity after contracting undirected edges; a directed edge inside a
    contracted class is itself a cycle."""
    parent = list(range(cg.n_terms + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in cg.undirected:
        x, y = sorted(e)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    arcs = set()
    for j, k in cg.directed:
        a, b = find(j), find(k)
        if a == b:
            return False
        arcs.add((a, b))
    # Kahn's algorithm on the contracted digraph.
    nodes = {x for arc in arcs for x in arc}
    indeg = {x: 0 for x in nodes}
    out: dict[int, list[int]] = {x: [] for x in nodes}
    for a, b in arcs:
        indeg[b] += 1
        out[a].append(b)
    queue = [x for x in nodes if indeg[x] == 0]
    seen = 0
    while queue:
        x = queue.pop()
        seen += 1
        for y in out[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    return seen == len(nodes)


def tie_row_by_fractions(p, hi, lo, blocks, d):
    """Row of (a_hi - a_lo) + <s_hi - s_lo, p> over ``blocks`` term blocks, in Fractions."""
    width = d + 1
    row = [F(0)] * (blocks * width)
    if hi != lo:
        if hi <= blocks:
            row[(hi - 1) * width : hi * width] = (F(1), *p)
        if lo <= blocks:
            row[(lo - 1) * width : lo * width] = [-x for x in (F(1), *p)]
    return tuple(row)


def assignment_loss(assign, target, n):
    """0/1-loss of a term assignment: points whose term is in the wrong block."""
    return sum((c > 0) != (t <= n) for t, c in zip(assign, target))


def grid_boundary_pairs(sig, window, steps):
    """Set of ((i, j), crossing point) certificates found on the grid."""
    xmin, xmax, ymin, ymax = window
    ox, oy = F(1, 997), F(1, 991)  # keep grid lines off vertices
    # the last node is dropped so the offset grid stays inside the open window
    xs = [xmin + F(k, steps) * (xmax - xmin) + ox for k in range(steps)]
    ys = [ymin + F(k, steps) * (ymax - ymin) + oy for k in range(steps)]
    unique = {}
    for gx, x in enumerate(xs):
        for gy, y in enumerate(ys):
            _, arg = eval_signomial(sig, (x, y))
            if len(arg) == 1:
                unique[(gx, gy)] = next(iter(arg))
    certificates = set()
    for (gx, gy), i in unique.items():
        for nxt in ((gx + 1, gy), (gx, gy + 1)):
            j = unique.get(nxt)
            if j is None or j == i:
                continue
            p = (xs[gx], ys[gy])
            q = (xs[nxt[0]], ys[nxt[1]])
            for cert in certify_crossing(sig, p, q, i, j):
                certificates.add(cert)
    return certificates


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def certify_crossing(sig, p, q, i, j):
    a_i, s_i = sig.terms[i - 1]
    a_j, s_j = sig.terms[j - 1]

    def diff(x):
        return (a_i - a_j) + dot(s_i, x) - dot(s_j, x)

    f0, f1 = diff(p), diff(q)
    if f0 <= 0 or f1 >= 0:
        return []
    t = f0 / (f0 - f1)
    x = tuple(a + t * (b - a) for a, b in zip(p, q))
    _, arg = eval_signomial(sig, x)
    if not {i, j} <= arg:
        return []
    normal = tuple(u - v for u, v in zip(s_i, s_j))
    for k in arg - {i, j}:
        _, s_k = sig.terms[k - 1]
        grad = tuple(u - v for u, v in zip(s_k, s_i))
        if _cross2(grad, normal) != 0:
            return []  # a transversal third term: this is a vertex, not a cell
    ordered = sorted(arg)
    return [((a, b), x) for ai, a in enumerate(ordered) for b in ordered[ai + 1 :]]


def grid_pairs_only(sig, window, steps):
    return {pair for pair, _ in grid_boundary_pairs(sig, window, steps)}


def all_cones_by_pairwise_union(data, N):
    """Every cone of the fan, sorted by pattern key: the maximal cones closed
    under pairwise intersection, plus the cone of the complete pattern."""
    cones = {}
    for assign, witness in fan_index(data, N).iter_patterns_with_witness():
        G = pattern_from_assignment(assign, N)
        cones[G.key()] = FanCone(G, N * (data.d + 1), witness)
    seen_pairs = set()
    grew = True
    while grew:
        items = list(cones.values())
        grew = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                pk = (items[i].pattern.key(), items[j].pattern.key())
                if pk in seen_pairs:
                    continue
                seen_pairs.add(pk)
                union = items[i].pattern.union(items[j].pattern)
                if union.key() in cones:
                    continue
                cone = cone_of_graph(union, data)
                if cone.pattern.key() not in cones:
                    cones[cone.pattern.key()] = cone
                    grew = True
    K = complete_pattern(data.M, N)
    if K.key() not in cones:
        cones[K.key()] = cone_of_graph(K, data)
    return [cones[k] for k in sorted(cones)]


def _bbox_disjoint(pts, A, B, d):
    for j in range(d):
        if max(pts[a][j] for a in A) < min(pts[b][j] for b in B):
            return True
        if max(pts[b][j] for b in B) < min(pts[a][j] for a in A):
            return True
    return False


def _hulls_disjoint(data, A, B, memo):
    key = (frozenset(A), frozenset(B)) if len(A) <= len(B) else (frozenset(B), frozenset(A))
    hit = memo.get(key)
    if hit is not None:
        return hit
    if _bbox_disjoint(data.points, A, B, data.d):
        memo[key] = True
        return True
    # Strict separation is the strict system of the two-part partition (A, B).
    dim, rows, _ = _pattern_system(data, [(k, (1,)) for k in A] + [(k, (2,)) for k in B])
    memo[key] = max_slack(dim, (), rows)[0] > 0
    return memo[key]


def _check_leaf(data, parts):
    """The partition's canonical cone from one cold strict LP, or None."""
    dim, rows, _ = _pattern_system(data, [(k, (t,)) for t, part in enumerate(parts, start=1) for k in part])
    x = ()
    if rows:
        opt, x = max_slack(dim, (), rows)
        if opt <= 0:
            return None
    d = data.d
    blocks = [tuple(x[t * (d + 1) : (t + 1) * (d + 1)]) for t in range(len(parts) - 1)]
    blocks.append(zeros(d + 1))
    mu = [blocks[t][0] + dot(blocks[t][1:], data.points[k]) for t, part in enumerate(parts) for k in part]
    return _CanonicalCone(tuple(tuple(p) for p in parts), tuple(blocks), 1, min(mu) - 1)


def canonical_cones_by_hull_pruning(data, N):
    """The canonical cones of (data, N) in walk order, by the former walk:
    canonical set partitions into at most N parts, pruned with the necessary
    condition that the parts have pairwise disjoint convex hulls (a strict
    LP per pair, memoized), then one cold strict LP per leaf.  Independent of
    the warm tableau path."""
    parts, memo, out = [], {}, []

    def recurse(k):
        if k == data.M:
            cone = _check_leaf(data, parts)
            if cone is not None:
                out.append(cone)
            return
        for t in range(len(parts)):
            parts[t].append(k)
            if all(_hulls_disjoint(data, parts[t], other, memo) for u, other in enumerate(parts) if u != t):
                recurse(k + 1)
            parts[t].pop()
        if len(parts) < min(N, data.M):
            parts.append([k])
            recurse(k + 1)
            parts.pop()

    recurse(0)
    return out


def canonical_cones_without_nogoods(data, N):
    """The canonical cones of (data, N) in walk order, by the former walk
    over the distinct points, which solves the LP of every child but the
    kept leaves and learns nothing from an infeasible one."""
    walk, first = _distinct(data)
    R, out = min(N, walk.M), []

    def recurse(owner, tableau):
        if len(owner) == walk.M:
            out.append(_leaf_cone(data, [owner[j] for j in first], tableau))
            return
        kept = _kept_part(walk, owner, tableau) if len(owner) + 1 == walk.M else None
        for t in range(min(max(owner, default=-1) + 2, R)):
            if t == kept:
                recurse(owner + [t], tableau)
                continue
            opt, child = _child(walk, R, owner, t, tableau)
            if opt > 0:
                recurse(owner + [t], child)

    recurse([], [])
    return out


def _wall_shape(a, b, data):
    """Candidate wall data (diff positions, term pair) or None.

    A shared facet requires every differing position to carry the same point
    vector and to swap the same unordered pair of terms; otherwise the tie
    normals already have rank >= 2.
    """
    diffs = [k for k, (x, y) in enumerate(zip(a, b)) if x != y]
    if not diffs:
        return None
    k0 = diffs[0]
    pair = frozenset((a[k0], b[k0]))
    pvec = data.points[k0]
    for k in diffs[1:]:
        if frozenset((a[k], b[k])) != pair or data.points[k] != pvec:
            return None
    return diffs, tuple(sorted(pair))


def wall_lp_over_all_terms(a, diffs, pair, data, N):
    """Strict feasibility of: tie (i, j) at the differing points as an
    equality, every other competitor inequality strict, over every term's
    block.  Gauge-fixed by zeroing the last term block."""
    i, j = pair
    diffset = set(diffs)
    equalities = []
    strict = []
    for k, lift in enumerate(data.lifts):
        if k in diffset:
            equalities.append(_tie_row(lift, i, j, N - 1))
            for l in range(1, N + 1):
                if l not in (i, j):
                    strict.append(_tie_row(lift, i, l, N - 1))
        else:
            t = a[k]
            for l in range(1, N + 1):
                if l != t:
                    strict.append(_tie_row(lift, t, l, N - 1))
    opt, _ = max_slack((N - 1) * (data.d + 1), (), tuple(strict), tuple(equalities))
    return opt > 0


def adjacency_edges_by_pairs(assigns, data, N):
    """All wall-adjacent index pairs (x < y) of the assignment list, in
    lexicographic order, by one shape check and one LP per pair."""
    edges = []
    for x in range(len(assigns)):
        for y in range(x + 1, len(assigns)):
            shape = _wall_shape(assigns[x], assigns[y], data)
            if shape is None:
                continue
            diffs, pair = shape
            if wall_lp_over_all_terms(assigns[x], diffs, pair, data, N):
                edges.append((x, y))
    return edges


def _flip_key(a, g, j):
    labels = {}
    canon = tuple(labels.setdefault(t, len(labels)) for t in a)
    return canon, g, labels.get(j, -1)


def _crossing_at_every_point(va, vb, a, group, j):
    """Whether X = (-fb)·A + fa·B, from the witnesses' values ``va``, ``vb``
    at every point, keeps each point outside ``group`` strictly on its term
    in ``a`` and ties the group's i and j strictly above every other term."""
    p, i = group[0], a[group[0]]
    fa, fb = va[p][i - 1] - va[p][j - 1], vb[p][i - 1] - vb[p][j - 1]
    if not fa > 0 > fb:
        raise AssertionError("a witness lies off its side of the flip's tie")
    for k, (u, v) in enumerate(zip(va, vb)):
        x = [fa * w - fb * s for s, w in zip(u, v)]
        tied = (i, j) if k in group else (a[k],)
        top = x[tied[0] - 1]
        if any(x[t - 1] != top for t in tied):
            return False
        if not all(top > y for t, y in enumerate(x, 1) if t not in tied):
            return False
    return True


def adjacency_edges_by_flips(assigns, data, N, witness=None):
    """All wall-adjacent index pairs (x < y), sorted, by single-group flips
    looked up in a dict, one decision per relabeling key."""
    where = {}
    for x, a in enumerate(assigns):
        where.setdefault(a, []).append(x)
    by_point = {}
    for k, p in enumerate(data.points):
        by_point.setdefault(p, []).append(k)
    groups = list(by_point.values())
    width = data.d + 1
    tables = {}

    def values(x):
        if x not in tables:
            w = witness(x)
            blocks = [w[t * width : (t + 1) * width] for t in range(N)]
            tables[x] = [[sum(map(mul, lift, block)) for block in blocks] for lift in data.lifts]
        return tables[x]

    memo = {}
    edges = []
    for x, a in enumerate(assigns):
        for g, group in enumerate(groups):
            flipped = list(a)
            i = a[group[0]]
            for j in range(1, N + 1):
                if j == i:
                    continue
                for k in group:
                    flipped[k] = j
                b = tuple(flipped)
                ys = [y for y in where.get(b, ()) if y > x]
                if not ys:
                    continue
                key = min(_flip_key(a, g, j), _flip_key(b, g, i))
                wall = memo.get(key)
                if wall is None:
                    wall = witness is not None and _crossing_at_every_point(values(x), values(ys[0]), a, group, j)
                    wall = memo[key] = wall or _wall_lp(a, group, j, data)
                if wall:
                    edges.extend((x, y) for y in ys)
    edges.sort()
    return edges


def om_axioms_by_scan(covectors):
    """The four covector axioms, each decided by the exhaustive scan."""
    covs = set(tuple(c) for c in covectors)
    M = len(next(iter(covs)))
    results = []

    zero = (0,) * M
    results.append(AxiomResult("zero", zero in covs, None if zero in covs else zero))

    bad = next((c for c in sorted(covs) if tuple(-x for x in c) not in covs), None)
    results.append(AxiomResult("symmetry", bad is None, bad))

    bad = None
    for c in sorted(covs):
        for d in sorted(covs):
            if compose(c, d) not in covs:
                bad = (c, d, compose(c, d))
                break
        if bad:
            break
    results.append(AxiomResult("composition", bad is None, bad))

    bad = None
    for c in sorted(covs):
        for d in sorted(covs):
            sep = separation(c, d)
            for i in sorted(sep):
                cd = compose(c, d)
                ok = any(
                    z[i] == 0 and all(z[j] == cd[j] for j in range(M) if j not in sep)
                    for z in covs
                )
                if not ok:
                    bad = (c, d, i)
                    break
            if bad:
                break
        if bad:
            break
    results.append(AxiomResult("elimination", bad is None, bad))

    return AxiomReport(tuple(results))


def pattern_axioms_by_scan(patterns, maximal_only=False):
    """The six pattern properties, each decided by the exhaustive scan."""
    pats = list(patterns)
    M, N = pats[0].M, pats[0].N
    keys = {p.key() for p in pats}

    def have(p):
        return p.key() in keys

    results = []
    if not maximal_only:
        K = complete_pattern(M, N)
        results.append(AxiomResult("complete_graph", have(K), None if have(K) else K))
    symmetry = (
        (p, perm)
        for perm in permutations(range(1, N + 1))
        for p in pats
        if not have(p.relabel({i + 1: perm[i] for i in range(N)}))
    )
    bad = next(symmetry, None)
    results.append(AxiomResult("symmetry", bad is None, bad))
    composition = (
        (p, q, pattern_compose(p, q)) for p in pats for q in pats if not have(pattern_compose(p, q))
    )
    bad = next(composition, None)
    results.append(AxiomResult("composition", bad is None, bad))
    if not maximal_only:
        elimination = (
            (p, q, k)
            for p in pats
            for q in pats
            for k in range(M)
            if not any(f.neighbors[k] == p.neighbors[k] | q.neighbors[k] for f in pats)
        )
        bad = next(elimination, None)
        results.append(AxiomResult("elimination", bad is None, bad))
        boundary = (
            S
            for size in range(1, N + 1)
            for S in combinations(range(1, N + 1), size)
            if not have(ActivationPattern(M, N, (frozenset(S),) * M))
        )
        bad = next(boundary, None)
        results.append(AxiomResult("boundary", bad is None, bad))
    comparability = (
        (p, q, k, comparability_graph(p, q, k))
        for p in pats
        for q in pats
        for k in range(M)
        if not is_acyclic(comparability_graph(p, q, k))
    )
    bad = next(comparability, None)
    results.append(AxiomResult("comparability", bad is None, bad))
    return AxiomReport(tuple(results))


def pair_cell_dim_by_relint(sig, i, j):
    """Dimension of {x : term_i = term_j = max}, or None when empty: one
    feasibility LP with w > 0, then the relative-interior rounds of the cone."""
    d = sig.d

    def row(hi, lo):
        (a_hi, s_hi), (a_lo, s_lo) = sig.terms[hi - 1], sig.terms[lo - 1]
        return (a_hi - a_lo,) + tuple(u - v for u, v in zip(s_hi, s_lo))

    w = (1,) + (0,) * d
    eq = row(i, j)
    rows = tuple(row(i, k) for k in range(1, sig.n + 1) if k not in (i, j))
    rows = tuple(integerize(f)[0] for f in rows + (eq, tuple(-x for x in eq)))
    if max_slack(d + 1, rows, (w,))[0] == 0:
        return None
    return describe_cone(d + 1, rows + (w,))[0] - 1


def dual_edges_by_relint(sig):
    """Pairs of terms whose cell has dimension d - 1, each decided by
    ``pair_cell_dim_by_relint`` with no region test first."""
    return [
        DualEdge(i, j, False, sig.d - 1)
        for i, j in combinations(range(1, sig.n + 1), 2)
        if pair_cell_dim_by_relint(sig, i, j) == sig.d - 1
    ]


def decision_boundary_by_all_pairs(theta):
    """Dual edges of every pair of merged terms, then the sign-mixed ones."""
    n = theta.n
    return [
        DualEdge(e.i, e.j, True, e.cell_dim)
        for e in dual_edges_by_relint(theta.merged())
        if (e.i <= n) != (e.j <= n)
    ]


def boundary_segments_by_fractions(theta, window):
    """Decision-boundary pieces of the sign-mixed pairs clipped to the closed
    window, each constraint of the line parameter a pair of Fractions."""
    xmin, xmax, ymin, ymax = window
    terms = theta.merged().terms
    segments = []
    for i, j in product(range(1, theta.n + 1), range(theta.n + 1, theta.n + theta.m + 1)):
        a_i, s_i = terms[i - 1]
        a_j, s_j = terms[j - 1]
        normal = (s_i[0] - s_j[0], s_i[1] - s_j[1])
        if normal == (0, 0):
            continue
        direction = (-normal[1], normal[0])
        if normal[0] != 0:
            base = ((a_j - a_i) / normal[0], F(0))
        else:
            base = (F(0), (a_j - a_i) / normal[1])
        # Each constraint reads alpha + beta * t >= 0.
        constraints = [
            (base[0] - xmin, direction[0]),
            (xmax - base[0], -direction[0]),
            (base[1] - ymin, direction[1]),
            (ymax - base[1], -direction[1]),
        ]
        constraints += [
            (a_i - a_k + dot(s_i, base) - dot(s_k, base), dot(s_i, direction) - dot(s_k, direction))
            for k, (a_k, s_k) in enumerate(terms, start=1)
            if k not in (i, j)
        ]
        if any(alpha < 0 for alpha, beta in constraints if beta == 0):
            continue
        lo = max(-alpha / beta for alpha, beta in constraints if beta > 0)
        hi = min(-alpha / beta for alpha, beta in constraints if beta < 0)
        if lo < hi:
            p0 = (base[0] + lo * direction[0], base[1] + lo * direction[1])
            p1 = (base[0] + hi * direction[0], base[1] + hi * direction[1])
            segments.append((p0, p1, i, j))
    return segments


def max_slack_by_split_columns(dim, nonstrict=(), strict=(), equalities=()):
    """(t*, x*) of the slack LP with x = u - v and each equality as a row pair,
    solved by a dense Fraction primal simplex under Bland's rule."""
    a_rows = []
    b = []

    def add(frow, tcoef, rhs):
        # f.x - tcoef*t >= 0  becomes  -f.u + f.v + tcoef*t <= 0   (x = u - v)
        a_rows.append([-x for x in frow] + list(frow) + [tcoef])
        b.append(rhs)

    for f in nonstrict:
        add(integerize(f)[0], 0, 0)
    for f in strict:
        fi, den = integerize(f)
        add(fi, den, 0)
    for f in equalities:
        fi, _ = integerize(f)
        add(fi, 0, 0)
        add([-x for x in fi], 0, 0)
    a_rows.append([0] * (2 * dim) + [1])  # t <= 1
    b.append(1)
    values = bland_primal_simplex(a_rows, b, [0] * (2 * dim) + [1])
    return values[2 * dim], tuple(values[j] - values[dim + j] for j in range(dim))


def bland_primal_simplex(a_rows, b, c):
    """Values of the variables of  max c.v : A v <= b, v >= 0  (b >= 0) at an
    optimum, on a dense Fraction tableau with slacks: the least-index
    improving column enters, and the least ratio leaves, ties by the least
    basic index (Bland 1977)."""
    m, n = len(a_rows), len(c)
    tab = [[F(v) for v in row] + [F(int(i == k)) for k in range(m)] + [F(b[i])] for i, row in enumerate(a_rows)]
    obj = [F(v) for v in c] + [F(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            values = [F(0)] * (n + m)
            for i, v in enumerate(basis):
                values[v] = tab[i][-1]
            return values
        rows = [i for i in range(m) if tab[i][enter] > 0]
        leave = min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        dense_pivot(tab, obj, basis, leave, enter)


def dense_pivot(tab, obj, basis, r, c):
    """Pivot a dense Fraction tableau and its objective row on tab[r][c]."""
    prow = [v / tab[r][c] for v in tab[r]]
    tab[r] = prow
    for row in tab + [obj]:
        f = row[c]
        if f and row is not prow:
            row[:] = [a - f * p for a, p in zip(row, prow)]
    basis[r] = c


def max_slack_by_dense_tableau(dim, nonstrict=(), strict=(), equalities=()):
    """(t*, x*) of the slack LP with x free, on a dense Fraction tableau.

    Variables: x_0..x_{dim-1}, then t, then one slack per row (t <= 1, then
    equalities, nonstrict, strict).  The rows are integer rows, as
    ``max_slack`` takes them.  t is pivoted in on t <= 1, the optimum of the
    empty system.  Each later row, in order, then pivots in its nonzero
    free x column of lowest index.  The dual simplex leaves by the most
    negative rhs over the rows where no x is basic (Bland's least basic id
    after a stall), ties by basic id, and enters by the least ratio
    obj_j / row_j over row_j < 0, ties by variable id.  Equality slacks
    never enter.  Every row stays in the tableau, x rows included: they
    never leave, so they change no pivot.
    """
    forms = [([0] * dim, 1)] + [(g, 0) for g in (*equalities, *nonstrict)] + [(f, 1) for f in strict]
    m = len(forms)
    width = dim + 1 + m + 1  # x, t, slacks, rhs
    tab = []
    for r, (f, tcoef) in enumerate(forms):
        row = [F(-v) for v in f] + [F(tcoef)] + [F(0)] * (m + 1)
        row[dim + 1 + r] = F(1)
        tab.append(row)
    tab[0][-1] = F(1)  # t <= 1
    obj = [F(0)] * width
    obj[dim] = F(1)
    basis = [dim + 1 + r for r in range(m)]
    dense_pivot(tab, obj, basis, 0, dim)
    free = list(range(dim))
    for r in range(1, m):
        c = next((j for j in free if tab[r][j]), None)
        if c is not None:
            dense_pivot(tab, obj, basis, r, c)
            free.remove(c)

    equality_slacks = range(dim + 2, dim + 2 + len(equalities))
    enterable = [j for j in range(dim, dim + 1 + m) if j not in equality_slacks]
    stall, last = 0, F(1)
    while True:
        short = [i for i in range(m) if basis[i] >= dim and tab[i][-1] < 0]
        if not short:
            break
        if stall >= _STALL_LIMIT:
            leave = min(short, key=lambda i: basis[i])
        else:
            leave = min(short, key=lambda i: (tab[i][-1], basis[i]))
        cols = [j for j in enterable if j not in basis and tab[leave][j] < 0]
        enter = min(cols, key=lambda j: (obj[j] / tab[leave][j], j))
        dense_pivot(tab, obj, basis, leave, enter)
        z = -obj[-1]
        stall = 0 if z != last else stall + 1
        last = z
    x = [F(0)] * dim
    for i, v in enumerate(basis):
        if v < dim:
            x[v] = tab[i][-1]
    return -obj[-1], tuple(x)


def add_rows_in_one_batch(sx, new_rows, h):
    """Add rows ``a.(x, t) <= 0`` to the ``geometry._Simplex`` sx: repack for
    h if needed, insert every row built against the current basis, then let
    each new row in turn pivot in its lowest never-pivoted x."""
    dim, n = sx.dim, sx.n
    if h > sx.h:
        sx.h = h
        b = _width(h, dim)
        if b > sx.b:
            sx.rows = [_pack(_unpack(P, n, sx.b), b) for P in sx.rows]
            sx.b = b
    q, b, rows = sx.den, sx.b, sx.rows
    col = {v: j for j, v in enumerate(sx.nonbasic)}
    at = {v: i for i, v in enumerate(sx.basis)}
    start = sx.m
    for a in new_rows:
        row = 0
        for v, coef in enumerate(a):
            if coef:
                j = col.get(v)
                row += q * coef << j * b if j is not None else -coef * rows[at[v]]
        rows.insert(sx.m, row)
        sx.basis.append(dim + 1 + sx.m)
        sx.m += 1
    B, mask, half = _bias(n, b), (1 << b) - 1, 1 << (b - 1)
    for r in range(start, sx.m):
        U = rows[r] + B
        c = next((j for j in range(dim) if sx.nonbasic[j] == j and U >> j * b & mask != half), -1)
        if c >= 0:
            sx._pivot(r, c)


def leaf_cone_with_fractions(data, owner, tableau):
    """The canonical cone of the walk leaf ``owner`` with its witness blocks
    and padding constant built eagerly as Fractions."""
    sx, width, r = tableau[0], data.d + 1, max(owner) + 1
    nums = [0] * width + sx.numerators(sx.dim)  # part 0's block is zero; the tableau holds the other R - 1
    blocks = [nums[l * width : (l + 1) * width] for l in range(r)]
    parts = [[] for _ in range(r)]
    mu = []
    for k, (lift, p) in enumerate(zip(data.lifts, owner)):
        values = [sum(map(mul, lift, block)) for block in blocks]
        if max(values) != values[p] or values.count(values[p]) > 1:
            raise AssertionError("leaf witness violates a strict row")
        mu.append(F(values[p], sx.den * lift[0]))
        parts[p].append(k)
    witness = tuple(tuple(F(v, sx.den) for v in block) for block in blocks)
    return _CanonicalCone(tuple(map(tuple, parts)), witness, 1, min(mu) - 1)


def labelings_by_parts(index, relabelings=None):
    """Every assignment of the ``fan._FanIndex`` index, class by class, for
    each injective relabeling part t -> term perm[t] or for those
    ``relabelings(rep)`` yields."""
    for rep in index.reps:
        perms = relabelings(rep) if relabelings else permutations(range(1, index.N + 1), len(rep.parts))
        for perm in perms:
            assign = [0] * index.data.M
            for t, part in enumerate(rep.parts):
                for k in part:
                    assign[k] = perm[t]
            yield tuple(assign)


def relint_point_by_rows(dim, rows):
    """(point, implied rows) of {x : rows >= 0}, one slack LP per row."""
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
            acc = tuple(u + v for u, v in zip(acc, x))
    return acc, frozenset(implied)


def relint_point_by_rounds(dim, rows):
    """(point, implied rows) of {x : rows >= 0} by certificate rounds alone:
    one slack LP per round, the zero rounds' duals deciding the implied rows."""
    implied = []
    span = []  # echelon basis of the implied rows
    undecided = list(range(len(rows)))
    while undecided:
        y = []
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
                implied.append(r)
    return zeros(dim), frozenset(implied)


def _values_at(rows, x):
    """Values at x of the integer term rows, all scaled by one positive integer."""
    xi, den = integerize(x)
    return [row[0] * den + sum(r * v for r, v in zip(row[1:], xi)) for row in rows]


def _uniquely_attains(rows, idx, d):
    """Whether term idx strictly beats all others somewhere, decided by a
    strict-feasibility LP over integer rows with lazily added competitors."""
    if len(rows) == 1:
        return True
    active = []
    for _ in range(len(rows)):
        strict_rows = [(1,) + (0,) * d]  # w > 0
        strict_rows += [term_difference(rows[idx], rows[t]) for t in active]
        witness = lp_feasible(d + 1, strict_rows)
        if witness is None:
            return False
        x = tuple(xi / witness[0] for xi in witness[1:])
        values = _values_at(rows, x)
        vi = values[idx]
        best = -1
        for t, v in enumerate(values):
            if t == idx or v < vi:
                continue
            if best < 0 or v > values[best]:
                best = t
        if best < 0:
            return True
        active.append(best)
    raise AssertionError("lazy competitor loop failed to terminate")


def _max_by_slope(items):
    """Slope -> largest coefficient over (slope, coefficient) pairs."""
    out = {}
    for s, a in items:
        if s not in out or a > out[s]:
            out[s] = a
    return out


def prune_by_samples_and_lazy_lps(sig):
    """Terms of sig that uniquely attain the maximum somewhere, after merging
    equal slopes: seeded sample points first, lazy competitor LPs for the rest."""
    merged = _max_by_slope((s, a) for a, s in sig.terms)
    terms = []
    for a, s in sig.terms:
        if merged.get(s) == a:
            terms.append((a, s))
            del merged[s]
    if len(terms) == 1:
        return SignomialParams(tuple(terms), sig.d)
    rows = integer_terms(terms)
    rng = random.Random(7)
    certified = set()
    for _ in range(64):
        x = tuple(F(rng.randint(-4000, 4000), rng.randint(1, 40)) for _ in range(sig.d))
        values = _values_at(rows, x)
        top = max(values)
        arg = [t for t, v in enumerate(values) if v == top]
        if len(arg) == 1:
            certified.add(arg[0])
    keep = [t for i, t in enumerate(terms) if i in certified or _uniquely_attains(rows, i, sig.d)]
    return SignomialParams(tuple(keep), sig.d)


def covector_of(theta, data):
    """Signs of <theta, (1, p)> over the dataset, theta in R^{d+1}."""
    out = []
    for p in data.points:
        v = theta[0] + dot(theta[1:], p)
        out.append((v > 0) - (v < 0))
    return tuple(out)


def _lifted(p):
    return integerize((1, *p))[0]


def _signed_rows(data, signs):
    return tuple(
        tuple(s * x for x in _lifted(data.points[k])) for k, s in sorted(signs.items())
    )


def is_realizable_covector(cov, data):
    strict = _signed_rows(data, {k: c for k, c in enumerate(cov) if c != 0})
    eq = _signed_rows(data, {k: 1 for k, c in enumerate(cov) if c == 0})
    opt, _ = max_slack(data.d + 1, (), strict, eq)
    return opt > 0 if strict else True


def _wall_relint_theta(D_cov, S, i, data):
    """Point on the wall used by the elimination step: zero on p_i (and its
    coincident copies), strictly signed like D off the separation set, and
    nonzero on as many separation coordinates as the wall allows."""
    M = data.M
    p_i = data.points[i]
    A = frozenset(k for k in range(M) if data.points[k] == p_i)
    if not A <= S | {i}:
        bad = sorted(A - (S | {i}))
        raise ValueError(f"coincident points {bad} contradict the requested wall")
    eqs = _signed_rows(data, {k: 1 for k in sorted(A)})
    fixed = {k: D_cov[k] for k in range(M) if k not in S and k not in A}
    strict = _signed_rows(data, fixed)
    opt, theta = max_slack(data.d + 1, (), strict, eqs)
    if opt <= 0 and strict:
        raise ValueError("wall is not realizable; is the start covector maximal?")

    def val(th, k):
        return th[0] + dot(th[1:], data.points[k])

    pending = [k for k in sorted(S - A) if val(theta, k) == 0]
    for k in pending:
        if val(theta, k) != 0:
            continue
        fixed_rows = list(strict)
        direction = None
        for sign in (1, -1):
            probe = tuple(sign * x for x in _lifted(data.points[k]))
            opt2, th2 = max_slack(data.d + 1, (), tuple(fixed_rows) + (probe,), eqs)
            if opt2 > 0:
                direction = th2
                break
        if direction is None:
            continue  # forced zero on the whole wall
        # Blend in a step small enough to keep every currently nonzero value's sign.
        eps = F(1)
        for kk in range(M):
            cur, step = val(theta, kk), val(direction, kk)
            if cur != 0 and step != 0:
                bound = abs(cur) / (2 * abs(step))
                eps = min(eps, bound)
        theta = tuple(x + eps * y for x, y in zip(theta, direction))
    return theta


def chamber_path_by_composition(start, target, data):
    """Monotone chamber path from start to target by recursive composition
    with wall points, each found by slack LPs over the lifted points."""
    if len(start) != data.M or len(target) != data.M:
        raise ValueError("covector length differs from dataset size")
    if any(s == 0 for s in start):
        raise ValueError("start must be a maximal covector")
    if any(s == 0 for s in target):
        raise ValueError("target must be a dichotomy")
    if not is_realizable_covector(target, data):
        raise ValueError("target dichotomy is not realizable on this data")
    if not is_realizable_covector(start, data):
        raise ValueError("start covector is not realizable on this data")

    def walk(D_cov, C_cov):
        S = separation(C_cov, D_cov)
        if not S:
            return [D_cov]
        i = min(S)
        theta_z = _wall_relint_theta(D_cov, S, i, data)
        Z = covector_of(theta_z, data)
        ZD = compose(Z, D_cov)
        ZC = compose(Z, C_cov)
        return walk(D_cov, ZD) + walk(ZC, C_cov)

    return walk(tuple(start), tuple(target))


def net_to_tropical_by_split(net, term_cap=500_000):
    """The W+/W- construction term by term: every input multiplies Y_convex
    by W+_k g_k * W-_k h_k and Y_concave by W-_k g_k * W+_k h_k, where a zero
    part scales its factor to the identity {0: 0}, and every stored dict,
    each product, inner ones included, and each merged numerator, is checked
    against the cap once it is built."""
    d = net.d_in

    def scale(w, terms):
        if w == 0:
            return {(F(0),) * d: F(0)}
        return {tuple(w * x for x in s): w * a for s, a in terms.items()}

    def capped(out):
        if term_cap is not None and len(out) > term_cap:
            raise TermCapExceededError(f"stored term count {len(out)} exceeds cap {term_cap}")
        return out

    def prod(a, b):
        return capped(_max_by_slope(
            (tuple(x + y for x, y in zip(s1, s2)), a1 + a2) for s1, a1 in a.items() for s2, a2 in b.items()
        ))

    g_list = [{tuple(F(int(i == k)) for i in range(d)): F(0)} for k in range(d)]
    h_list = [{zeros(d): F(0)} for _ in range(d)]
    formal_n, formal_m = 1, 1
    trace = []
    for layer, (W, c) in enumerate(net.layers, start=1):
        new_g, new_h = [], []
        for row, ci in zip(W, c):
            y_convex = {zeros(d): F(0)}
            y_concave = {zeros(d): F(0)}
            for k, x in enumerate(row):
                plus, minus = max(x, F(0)), max(-x, F(0))
                y_convex = prod(y_convex, prod(scale(plus, g_list[k]), scale(minus, h_list[k])))
                y_concave = prod(y_concave, prod(scale(minus, g_list[k]), scale(plus, h_list[k])))
            new_h.append(y_concave)
            shifted = ((s, a + ci) for s, a in y_convex.items())
            new_g.append(capped(_max_by_slope(list(shifted) + list(y_concave.items()))))
        formal_m = (formal_n * formal_m) ** len(g_list)
        formal_n = 2 * formal_m
        g_list, h_list = new_g, new_h
        trace.append((layer, formal_n, formal_m, max(map(len, g_list)), max(map(len, h_list))))

    def signomial(terms):
        return SignomialParams(tuple((a, s) for s, a in sorted(terms.items())), d)

    theta = TropicalRationalParams(signomial(g_list[0]), signomial(h_list[0]))
    return ConversionResult(theta=theta, n=formal_n, m=formal_m, trace=tuple(trace))
