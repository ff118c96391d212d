"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every numeric assertion is equality; the only
tolerances are the stated runtime budgets.  Three documented claims about the
nine-point and diagonal instances are contradicted by exact computation (the
cross-component intersection dimensions and the perfect-fan component count);
those assertions live in their own ``*_as_documented`` tests, which fail, with
the computed truth pinned in the companion tests right above them.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from oracles import ComparabilityGraph, assignment_loss, grid_boundary_pairs, is_acyclic
from tropfan.classify import (
    chamber_path,
    covectors_linear,
    level_set,
    parse_signs,
    separation,
    wall_adjacent,
)
from tropfan.dual import decision_boundary, dual_edges, tropical_type
from tropfan.fan import (
    complete_pattern,
    dataset,
    enumerate_all_cones,
    enumerate_maximal_cones,
    fan_index,
    lineality_dim,
    pattern_from_assignment,
    pattern_of,
)
from tropfan.geometry import describe_cone, max_slack
from tropfan.matroids import om_axioms_check, pattern_axioms_check
from tropfan.rationals import integerize
from tropfan.relu import ReluNetwork, bound_m, net_eval, net_to_tropical, prune_terms
from tropfan.tropical import SignomialParams, TropicalRationalParams, eval_rational

NINE_TARGET = parse_signs("+,+,-,-,+,-,-,+,+")


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def cov_pattern(cov):
    return pattern_from_assignment(tuple(1 if c > 0 else 2 for c in cov), 2)


# ---------------------------------------------------------------------------
# Criterion 1: linear baseline on five collinear points


def test_criterion_01_linear_baseline(five_line):
    t0 = time.perf_counter()
    covs = covectors_linear(five_line)
    maximal = [c for c in covs if all(x != 0 for x in c)]

    target = parse_signs("+,-,+,-,+")
    losses = {c: len(separation(target, c)) for c in maximal}
    minimum = min(losses.values())
    minimizers = [c for c in maximal if losses[c] == minimum]
    pairwise_non_adjacent = all(
        not wall_adjacent(cov_pattern(a), cov_pattern(b), five_line, 1, 1)[0]
        for a, b in combinations(minimizers, 2)
    )

    target2 = parse_signs("+,-,-,+,+")
    losses2 = {c: len(separation(target2, c)) for c in maximal}
    minimizers2 = [c for c in maximal if losses2[c] == min(losses2.values())]

    elapsed = time.perf_counter() - t0
    ok = (
        len(maximal) == 10
        and minimum == 2
        and len(minimizers) == 5
        and pairwise_non_adjacent
        and minimizers2 == [parse_signs("-,-,-,+,+")]
        and min(losses2.values()) == 1
        and elapsed < 1.0
    )
    report("1 linear baseline", ok, f"10 covectors, 5 loss-2 minima, unique loss-1 minimizer, {elapsed:.2f}s")
    assert len(maximal) == 10
    assert minimum == 2 and len(minimizers) == 5
    assert pairwise_non_adjacent
    assert minimizers2 == [parse_signs("-,-,-,+,+")] and min(losses2.values()) == 1
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: path bound on four collinear points


def test_criterion_02_path_bound(four_line):
    t0 = time.perf_counter()
    target = parse_signs("+,-,-,+")
    covs = [c for c in covectors_linear(four_line) if all(x != 0 for x in c)]
    losses = {c: len(separation(target, c)) for c in covs}
    minimizers = sorted(c for c in covs if losses[c] == 1)
    assert minimizers == sorted([parse_signs("+,-,-,-"), parse_signs("-,-,-,+")])

    adj = {c: set() for c in covs}
    for a, b in combinations(covs, 2):
        if wall_adjacent(cov_pattern(a), cov_pattern(b), four_line, 1, 1)[0]:
            adj[a].add(b)
            adj[b].add(a)

    src, dst = minimizers
    all_path_maxima = []

    def dfs(node, seen, worst):
        worst = max(worst, losses[node])
        if node == dst:
            all_path_maxima.append((worst, len(seen) - 2))
            return
        for nxt in adj[node]:
            if nxt not in seen:
                dfs(nxt, seen | {nxt}, worst)

    dfs(src, {src}, 0)
    bottleneck = min(w for w, _ in all_path_maxima)
    shortest_l = min(l for w, l in all_path_maxima if w == bottleneck)
    bound = 1 + (shortest_l + 1 + 1) // 2  # m + floor((l+1)/2), m = 1

    # every separation-monotone wall path attains max loss exactly 2
    monotone_maxima = []

    def dfs_monotone(node, worst):
        worst = max(worst, losses[node])
        if node == dst:
            monotone_maxima.append(worst)
            return
        for nxt in adj[node]:
            if len(separation(dst, nxt)) < len(separation(dst, node)):
                dfs_monotone(nxt, worst)

    dfs_monotone(src, 0)

    walked = chamber_path(src, dst, four_line)
    walked_max = max(len(separation(target, c)) for c in walked)

    elapsed = time.perf_counter() - t0
    ok = (
        all(w >= 2 for w, _ in all_path_maxima)
        and bottleneck == 2 == bound
        and monotone_maxima != []
        and set(monotone_maxima) == {2}
        and walked_max == 2
        and elapsed < 1.0
    )
    report("2 path bound", ok, f"bottleneck {bottleneck} == m+floor((l+1)/2) == {bound}, {elapsed:.2f}s")
    assert all(w >= 2 for w, _ in all_path_maxima)  # no path avoids loss 2
    assert bottleneck == 2 == bound
    assert set(monotone_maxima) == {2}
    assert walked_max == 2
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 3: disconnected perfect fan on the diagonal instance


@pytest.fixture(scope="module")
def diag_reports(diag4):
    target = parse_signs("+,-,-,+")
    t0 = time.perf_counter()
    rep = level_set(diag4, 2, 2, target, 0)
    dims = [
        describe_cone(12, __import__("tropfan.fan", fromlist=["cone_constraints"]).cone_constraints(g, diag4))[0]
        for g in rep.patterns
    ]
    cross = {}
    for ca, cb in combinations(range(len(rep.components)), 2):
        for x in rep.components[ca]:
            for y in rep.components[cb]:
                adjacent, dim = wall_adjacent(rep.patterns[x], rep.patterns[y], diag4, 2, 2)
                cross[(x, y)] = (adjacent, dim)
    elapsed = time.perf_counter() - t0
    return rep, dims, cross, elapsed


def test_criterion_03_disconnected_perfect_fan(diag4, diag_reports):
    rep, dims, cross, elapsed = diag_reports
    ok = (
        rep.count == 8
        and dims == [12] * 8
        and sorted(len(c) for c in rep.components) == [4, 4]
        and not any(adjacent for adjacent, _ in cross.values())
        and elapsed < 30.0
    )
    report(
        "3 disconnected perfect fan",
        ok,
        f"8 cones of dim 12 in 2 components of 4, no cross walls, {elapsed:.1f}s",
    )
    assert rep.count == 8
    assert dims == [12] * 8
    assert sorted(len(c) for c in rep.components) == [4, 4]
    assert not any(adjacent for adjacent, _ in cross.values())
    assert elapsed < 30.0


def test_criterion_03_cross_dims_computed_truth(diag4, diag_reports):
    """Exact truth: swapping only the numerator roles leaves the two cones
    sharing an 8-dimensional face (terms 1, 2 and the shared denominator term
    tie along the data line), while swapping both blocks meets in exactly the
    lineality space."""
    rep, _, cross, _ = diag_reports
    assert sorted(set(dim for _, dim in cross.values())) == [6, 8]
    # dimension 8 exactly when both middle points sit on one shared
    # denominator term: only three of the four forms are then tied along the
    # data line, leaving the fourth block free
    for (x, y), (_, dim) in cross.items():
        da = rep.patterns[x].assignment()[1:3]
        db = rep.patterns[y].assignment()[1:3]
        expected = 8 if (da == db and da[0] == da[1]) else 6
        assert dim == expected, (da, db, dim)
    assert sum(1 for _, dim in cross.values() if dim == 8) == 2


def test_criterion_03_cross_dims_as_documented(diag_reports):
    """Documented claim: every cross-component intersection has dimension 6
    (the lineality dimension).  Exact computation refutes this for the four
    numerator-swap-only pairs, which share an 8-dimensional face; see
    ``test_criterion_03_cross_dims_computed_truth`` above for the verified
    truth and the README ("Install and test") for an explicit rational
    witness."""
    _, _, cross, _ = diag_reports
    dims = sorted(set(dim for _, dim in cross.values()))
    report("3 cross-component dims as documented", dims == [6], f"documented all 6, computed {dims}")
    assert dims == [6]


# ---------------------------------------------------------------------------
# Criterion 4: nine-point level sets


@pytest.fixture(scope="module")
def nine_reports(nine_points):
    t0 = time.perf_counter()
    s0 = level_set(nine_points, 2, 2, NINE_TARGET, 0)
    s1 = level_set(nine_points, 2, 2, NINE_TARGET, 1)
    elapsed = time.perf_counter() - t0
    return s0, s1, elapsed


def _component_wall_free_of_s0(comp, s1, s0, data):
    from oracles import _wall_shape, wall_lp_over_all_terms

    for i in comp:
        a = s1.patterns[i].assignment()
        for j in range(s0.count):
            b = s0.patterns[j].assignment()
            shape = _wall_shape(a, b, data)
            if shape is not None and wall_lp_over_all_terms(a, shape[0], shape[1], data, 4):
                return False
    return True


def test_criterion_04_level_set_counts(nine_points, nine_reports):
    s0, s1, elapsed = nine_reports
    t0 = time.perf_counter()
    size20 = [c for c in s1.components if len(c) == 20]
    wall_free = [c for c in size20 if _component_wall_free_of_s0(c, s1, s0, nine_points)]
    scan_time = time.perf_counter() - t0
    total = elapsed + scan_time
    ok = (
        s0.count == 16
        and s1.count == 304
        and len(s1.components) == 28
        and len(wall_free) >= 1
        and all(len(c) == 20 for c in wall_free)
        and total < 900.0
    )
    report(
        "4 level-set counts",
        ok,
        f"S0 16 cones, S1 304 cones in 28 components, wall-free 20-cone component found, "
        f"{total:.0f}s single-threaded",
    )
    assert s0.count == 16
    assert s1.count == 304
    assert len(s1.components) == 28
    assert len(wall_free) >= 1
    assert total < 900.0


def test_criterion_04_designated_dims_computed_truth(nine_points, nine_reports):
    """Exact truth for the wall-free 20-cone component: 318 of its 320
    intersections with the perfect fan equal the lineality space (dimension
    3); two share a 4-dimensional face."""
    s0, s1, _ = nine_reports
    size20 = [c for c in s1.components if len(c) == 20]
    comp = next(c for c in size20 if _component_wall_free_of_s0(c, s1, s0, nine_points))
    dims = {}
    for i in comp:
        for j in range(s0.count):
            adjacent, dim = wall_adjacent(s1.patterns[i], s0.patterns[j], nine_points, 2, 2)
            assert not adjacent
            dims[dim] = dims.get(dim, 0) + 1
    assert lineality_dim(nine_points, 4) == 3
    assert dims == {3: 318, 4: 2}


def test_criterion_04_sigma0_components_as_documented(nine_reports):
    """Documented claim: the 16 perfect cones split into 8 strongly connected
    components.  Exact computation finds 4 components of size 4: a point
    activating two numerator terms at once is still strictly positive, so the
    within-numerator swap walls (certified by explicit rational witnesses)
    connect pairs the documentation counts as separate."""
    s0, _, _ = nine_reports
    sizes = sorted(len(c) for c in s0.components)
    report(
        "4 perfect-fan components as documented",
        len(s0.components) == 8,
        f"documented 8 components, computed {len(s0.components)} of sizes {sizes}",
    )
    assert len(s0.components) == 8


def test_criterion_04_sigma0_components_computed_truth(nine_reports):
    """Exact truth for the perfect fan: its 16 cones form 4 wall components
    of 4 cones each."""
    s0, _, _ = nine_reports
    assert s0.count == 16
    assert sorted(len(c) for c in s0.components) == [4, 4, 4, 4]


def test_criterion_04_designated_dims_as_documented(nine_points, nine_reports):
    """Documented claim: every intersection between the designated component
    and the perfect fan has dimension 3.  Exact computation finds two pairs
    meeting in dimension 4; see ``test_criterion_04_designated_dims_computed_truth``
    above for the verified truth and the README ("Install and test") for why
    this claim is kept as a failing test."""
    s0, s1, _ = nine_reports
    size20 = [c for c in s1.components if len(c) == 20]
    comp = next(c for c in size20 if _component_wall_free_of_s0(c, s1, s0, nine_points))
    dims = set()
    for i in comp:
        for j in range(s0.count):
            dims.add(wall_adjacent(s1.patterns[i], s0.patterns[j], nine_points, 2, 2)[1])
    report("4 designated intersection dims as documented", dims == {3}, f"documented all 3, computed {sorted(dims)}")
    assert dims == {3}


def test_criterion_04_worker_determinism_and_speed(nine_points):
    t0 = time.perf_counter()
    parallel = fan_index(nine_points, 4, workers=4, use_cache=False)
    elapsed = time.perf_counter() - t0
    serial = fan_index(nine_points, 4)  # cached single-threaded run
    assert sorted(parallel.iter_assignments()) == sorted(serial.iter_assignments())
    report("4 worker determinism", elapsed < 300.0, f"4-worker enumeration identical, {elapsed:.0f}s")
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 5: maximal-cone counting bound


def test_criterion_05_counting_bound():
    indep = dataset([(0, 0), (1, 0), (0, 1)])
    n_indep = len(enumerate_maximal_cones(indep, 3))

    coll = dataset([(1,), (2,), (3,)])
    patterns = enumerate_maximal_cones(coll, 2)
    rng = random.Random(17)
    sampled = set()
    for _ in range(500):
        terms = tuple(
            (F(rng.randint(-8, 8), rng.randint(1, 3)), (F(rng.randint(-8, 8), rng.randint(1, 3)),))
            for _ in range(2)
        )
        G = pattern_of(SignomialParams(terms, 1), coll)
        if G.is_degree_one():
            sampled.add(G.key())
    ok = n_indep == 27 and len(patterns) == 6 and sampled == {g.key() for g in patterns}
    report("5 counting bound", ok, f"27 cones when affinely independent, {len(patterns)} < 8 when collinear")
    assert n_indep == 27
    assert len(patterns) < 8 and len(patterns) == 6
    assert sampled == {g.key() for g in patterns}


# ---------------------------------------------------------------------------
# Criterion 6: level-set symmetry on the nine-point instance


def test_criterion_06_level_symmetry(nine_points):
    index = fan_index(nine_points, 4)
    counts = {}
    for assign in index.iter_assignments():
        k = assignment_loss(assign, NINE_TARGET, 2)
        counts[k] = counts.get(k, 0) + 1
    symmetric = all(counts.get(k, 0) == counts.get(9 - k, 0) for k in range(10))
    ok = symmetric and counts.get(9) == 16 and counts.get(8) == 304
    report("6 level symmetry", ok, f"l_k profile {[counts.get(k, 0) for k in range(10)]}")
    assert symmetric
    assert counts.get(9) == 16 and counts.get(8) == 304


# ---------------------------------------------------------------------------
# Criterion 7: axiom suites with negative controls


def test_criterion_07_axiom_suites(two_points, five_line, four_line):
    pair_sets = {}
    for label, (data, N) in {
        "2 points, 3 terms": (two_points, 3),
        "3 points, 2 terms": (dataset([(0, 0), (1, 0), (0, 1)]), 2),
    }.items():
        cones = enumerate_all_cones(data, N)
        pair_sets[label] = [c.pattern for c in cones]
        assert pattern_axioms_check(pair_sets[label]).all_passed, label

    for data in (five_line, four_line, dataset([(1,), (2,), (3,)]), dataset([(3,)])):
        assert om_axioms_check(covectors_linear(data)).all_passed

    # negative control: drop the complete pattern
    pats = pair_sets["2 points, 3 terms"]
    K = complete_pattern(2, 3)
    broken = pattern_axioms_check([p for p in pats if p != K])
    assert not broken.result("complete_graph").passed
    assert broken.result("complete_graph").witness == K

    # negative control: fabricated comparability cycle is flagged
    cycle = ComparabilityGraph(2, frozenset({(1, 2), (2, 1)}), frozenset())
    assert not is_acyclic(cycle)

    report("7 axiom suites", True, "pattern axioms, covector axioms and negative controls verified")


# ---------------------------------------------------------------------------
# Criterion 8: ReLU conversion


def test_criterion_08_relu_conversion():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    architectures = 0
    while architectures < 20:
        d_in = rng.randint(1, 3)
        hidden = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        dims = [d_in] + hidden + [1]
        layers = []
        for a, b in zip(dims, dims[1:]):
            W = tuple(tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(a)) for _ in range(b))
            c = tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(b))
            layers.append((W, c))
        net = ReluNetwork(tuple(layers))
        result = net_to_tropical(net)
        assert result.n == 2 * result.m
        assert result.m <= bound_m(net.widths[:-1])
        pruned = prune_terms(result.theta)
        for _ in range(100):
            x = tuple(F(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(d_in))
            value = net_eval(net, x)
            assert value == eval_rational(result.theta, x)
            assert value == eval_rational(pruned, x)
        architectures += 1
    elapsed = time.perf_counter() - t0
    report("8 relu conversion", elapsed < 60.0, f"20 architectures, exact equality on 100 points each, {elapsed:.1f}s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 9: decision-boundary oracle equivalence


WINDOW = (F(-4), F(4), F(-4), F(4))


def _window_restricted(theta, edges, window):
    merged = theta.merged()
    xmin, xmax, ymin, ymax = window
    out = set()
    for e in edges:
        a_i, s_i = merged.terms[e.i - 1]
        a_j, s_j = merged.terms[e.j - 1]
        eq = (a_i - a_j,) + tuple(u - v for u, v in zip(s_i, s_j))
        rows = []
        for k in range(1, merged.n + 1):
            if k in (e.i, e.j):
                continue
            a_k, s_k = merged.terms[k - 1]
            rows.append((a_i - a_k,) + tuple(u - v for u, v in zip(s_i, s_k)))
        strict = (
            (F(1), F(0), F(0)),
            (-xmin, F(1), F(0)),
            (xmax, F(-1), F(0)),
            (-ymin, F(0), F(1)),
            (ymax, F(0), F(-1)),
        )
        nonstrict = tuple(rows) + (eq, tuple(-x for x in eq))
        if max_slack(3, [integerize(f)[0] for f in nonstrict], [integerize(f)[0] for f in strict])[0] > 0:
            out.add((e.i, e.j))
    return out


def test_criterion_09_boundary_oracle():
    t0 = time.perf_counter()
    rng = random.Random(99)
    checked_thetas = 0
    zero_checks = 0
    while checked_thetas < 25:
        def term():
            return (
                F(rng.randint(-6, 6), rng.choice((1, 2))),
                (F(rng.randint(-2, 2)), F(rng.randint(-2, 2))),
            )

        num = tuple(term() for _ in range(rng.randint(1, 3)))
        den = tuple(term() for _ in range(rng.randint(1, 3)))
        theta = TropicalRationalParams(SignomialParams(num, 2), SignomialParams(den, 2))
        merged = theta.merged()
        exact = dual_edges(merged)
        exact_window = _window_restricted(theta, exact, WINDOW)
        exact_pairs = {(e.i, e.j) for e in exact}
        for steps in (24, 48, 96, 192):
            crossings = grid_boundary_pairs(merged, WINDOW, steps)
            oracle = {pair for pair, _ in crossings}
            assert oracle <= exact_pairs  # certified crossings are always real
            if oracle == exact_window:
                break
        assert oracle == exact_window, (exact_window - oracle, oracle - exact_window)
        mixed = {(e.i, e.j) for e in decision_boundary(theta)}
        assert mixed == {(i, j) for i, j in exact_pairs if (i <= theta.n) != (j <= theta.n)}
        for (i, j), x in crossings:
            if (i, j) in mixed:
                assert eval_rational(theta, x) == 0
                zero_checks += 1
        checked_thetas += 1
    elapsed = time.perf_counter() - t0
    report(
        "9 boundary oracle",
        elapsed < 60.0,
        f"25 parameter vectors, grid oracle == exact edges, {zero_checks} exact zeros, {elapsed:.1f}s",
    )
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 10: tropical hyperplane slice


def test_criterion_10_slice_property():
    rng = random.Random(31)
    for _ in range(10):
        pts = set()
        while len(pts) < rng.randint(2, 4):
            pts.add((F(rng.randint(-5, 5)), F(rng.randint(-5, 5))))
        data = dataset(sorted(pts))
        a = tuple(F(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(2))
        sig = SignomialParams(((a[0], (F(1), F(0))), (a[1], (F(0), F(1)))), 2)
        assert pattern_of(sig, data).neighbors == tropical_type(list(data.points), a)
    report("10 slice property", True, "pattern on the unit-slope slice equals the tropical covector type")
