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

The scanning pattern-axiom oracle decides as the former body of
``matroids.pattern_axioms_check`` did: symmetry over every term permutation,
elimination by scanning every pattern, and a comparability graph built and
tested for every pair of patterns at every point.  The former sampled branch
for N > 5 is left out; the oracle always takes the whole symmetric group.

The all-pairs boundary oracle is the former body of
``dual.decision_boundary``: every dual edge of the merged signomial g (+) h,
then the sign-mixed ones kept.
"""

from fractions import Fraction as F
from itertools import combinations, permutations

from tropfan.classify import _wall_lp, _wall_shape
from tropfan.dual import DualEdge, dual_edges
from tropfan.fan import (
    ActivationPattern,
    FanCone,
    complete_pattern,
    cone_constraints,
    cone_of_graph,
    fan_index,
    pattern_from_assignment,
)
from tropfan.geometry import ConeDescriptor
from tropfan.matroids import (
    AxiomReport,
    AxiomResult,
    comparability_graph,
    is_acyclic,
    pattern_compose,
)
from tropfan.rationals import dot
from tropfan.tropical import eval_signomial


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
        csys = cone_constraints(G, data)
        cones[G.key()] = FanCone(G, ConeDescriptor(csys, csys.ambient_dim, frozenset()), witness)
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
            if _wall_lp(assigns[x], diffs, pair, data, N):
                edges.append((x, y))
    return edges


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


def decision_boundary_by_all_pairs(theta):
    """Dual edges of every pair of live merged terms, then the sign-mixed ones."""
    n = theta.n
    return [
        DualEdge(e.i, e.j, True, e.cell_dim)
        for e in dual_edges(theta.merged())
        if (e.i <= n) != (e.j <= n)
    ]
