import importlib
import random
from collections import Counter
from itertools import combinations, product

import pytest

from oracles import (
    _wall_shape,
    adjacency_edges_by_flips,
    adjacency_edges_by_pairs,
    assignment_loss,
    chamber_path_by_composition,
    wall_lp_over_all_terms,
)
from tropfan.classify import (
    _adjacency_edges,
    _crossing_is_wall,
    _union_find_components,
    chamber_path,
    count_dichotomies,
    covectors_linear,
    format_signs,
    level_set,
    loss_of_pattern,
    loss_of_theta,
    parse_signs,
    separation,
    wall_adjacent,
)
from tropfan.fan import (
    dataset,
    enumerate_maximal_cones,
    lineality_dim,
    pattern_from_assignment,
    fan_index,
    theta_from_vector,
)
from tropfan.tropical import SignomialParams, TropicalRationalParams, signomial


def cov_to_pattern(cov):
    return pattern_from_assignment(tuple(1 if c > 0 else 2 for c in cov), 2)


def test_parse_format_signs():
    assert parse_signs("+,-,0") == (1, -1, 0)
    assert format_signs((1, -1, 0)) == "+,-,0"
    with pytest.raises(ValueError):
        parse_signs("+,x")


def test_loss_single_flipped_sign():
    cov = parse_signs("-,-,-,+,+")
    target = parse_signs("+,-,-,+,+")
    G = cov_to_pattern(cov)
    assert loss_of_pattern(G, target, 1, 1) == 1


def test_loss_compatible_pattern_is_zero():
    target = parse_signs("+,-,+")
    G = cov_to_pattern(target)
    assert loss_of_pattern(G, target, 1, 1) == 0


def test_loss_all_plus():
    cov = parse_signs("+,+,+,+,+")
    target = parse_signs("+,-,-,+,+")
    assert loss_of_pattern(cov_to_pattern(cov), target, 1, 1) == 2


def test_loss_mixed_neighborhood_counts_correct():
    G = pattern_from_assignment((1,), 2)
    tied = G.union(pattern_from_assignment((2,), 2))
    assert loss_of_pattern(tied, (1,), 1, 1) == 0
    assert loss_of_pattern(tied, (-1,), 1, 1) == 0


def test_loss_dispatch(five_line):
    target = parse_signs("+,+,+,+,+")
    theta = TropicalRationalParams(signomial([(0, (1,))]), signomial([(-10, (0,))]))
    assert loss_of_theta(theta, target, five_line) == 0
    assert loss_of_pattern(cov_to_pattern(target), target, 1, 1) == 0


def test_loss_constant_on_cones(five_line):
    """Pattern loss equals parameter loss at the cone's strict witness."""
    target = parse_signs("+,-,+,-,+")
    index = fan_index(five_line, 2)
    for assign, witness in index.iter_patterns_with_witness():
        sig = theta_from_vector(witness, 2, 1)
        theta = TropicalRationalParams(
            SignomialParams(sig.terms[:1], 1), SignomialParams(sig.terms[1:], 1)
        )
        G = pattern_from_assignment(assign, 2)
        assert loss_of_theta(theta, target, five_line) == loss_of_pattern(G, target, 1, 1)


def test_level_set_small_line(five_line):
    target = parse_signs("+,-,+,-,+")
    rep2 = level_set(five_line, 1, 1, target, 2)
    assert rep2.count == 5
    assert all(len(c) == 1 for c in rep2.components)  # pairwise non-adjacent
    empty = level_set(five_line, 1, 1, target, 6)
    assert empty.count == 0


def test_level_set_refuses_a_zero_target_entry():
    """``loss_of_pattern`` never counts a 0 entry, so a level of such a target
    would mix losses; every level query refuses it."""
    D = dataset([(0, 0), (1, 1), (2, 0)])
    with pytest.raises(ValueError, match="-1 or \\+1"):
        level_set(D, 1, 1, (1, 0, -1), 1)
    with pytest.raises(ValueError, match="-1 or \\+1"):
        level_set(D, 1, 1, (1, 0, -1), 0)


def test_perfect_fan_single_point():
    D = dataset([(0, 0)])
    rep = level_set(D, 1, 1, (1,), 0)
    assert rep.count == 1
    assert rep.patterns[0].assignment() == (1,)


def test_perfect_fan_nonseparable_empty():
    D = dataset([(1,), (2,), (3,)])
    rep = level_set(D, 1, 1, parse_signs("+,-,+"), 0)
    assert rep.count == 0


def test_perfect_fan_diag4(diag4):
    target = parse_signs("+,-,-,+")
    rep = level_set(diag4, 2, 2, target, 0)
    assert rep.count == 8
    assert sorted(len(c) for c in rep.components) == [4, 4]


def test_perfect_count_bound():
    D = dataset([(0, 0), (1, 0), (0, 1), (3, 3)])
    target = parse_signs("+,+,+,-")
    rep = level_set(D, 2, 2, target, 0)
    # D+ affinely independent (3 points), D- a single point, separable
    assert rep.count == 2**3 * 2**1
    # collinear positive part cannot attain the bound
    D2 = dataset([(0, 0), (1, 1), (2, 2), (5, 0)])
    rep2 = level_set(D2, 2, 2, parse_signs("+,+,+,-"), 0)
    assert rep2.count < 2**3 * 2**1


def test_wall_adjacent_same_pattern(diag4):
    G = pattern_from_assignment((1, 3, 3, 2), 4)
    adjacent, dim = wall_adjacent(G, G, diag4, 2, 2)
    assert not adjacent and dim == 12


def test_wall_adjacent_within_component(diag4):
    G = pattern_from_assignment((1, 3, 3, 2), 4)
    H = pattern_from_assignment((1, 3, 4, 2), 4)
    adjacent, dim = wall_adjacent(G, H, diag4, 2, 2)
    assert adjacent and dim == 11


def test_wall_adjacent_full_swap_is_lineality(diag4):
    G = pattern_from_assignment((1, 3, 3, 2), 4)
    H = pattern_from_assignment((2, 4, 4, 1), 4)
    adjacent, dim = wall_adjacent(G, H, diag4, 2, 2)
    assert not adjacent
    assert dim == 6 == lineality_dim(diag4, 4)
    # the intersection is exactly the lineality cone of the complete pattern
    from tropfan.fan import cone_of_graph, complete_pattern

    cone = cone_of_graph(G.union(H), diag4)
    assert cone.pattern == complete_pattern(4, 4)


def test_wall_decision_matches_closure_dimension():
    """Dual route: the one-LP wall decision must agree with the independent
    dimension of the union's H-description on every maximal pair of a small fan."""
    from tropfan.fan import cone_constraints
    from tropfan.geometry import describe_cone

    D = dataset([(0, 0), (2, 1), (1, 3)])
    maximal = enumerate_maximal_cones(D, 3)
    ambient = 3 * 3
    for x in range(len(maximal)):
        for y in range(x + 1, len(maximal)):
            adjacent, dim = wall_adjacent(maximal[x], maximal[y], D, 2, 1)
            expected = describe_cone(ambient, cone_constraints(maximal[x].union(maximal[y]), D))[0]
            assert dim == expected
            assert adjacent == (expected == ambient - 1)


def test_minimizers_disconnected_on_five_line(five_line):
    target = parse_signs("+,-,+,-,+")
    rep = level_set(five_line, 1, 1, target, 2)
    lin = lineality_dim(five_line, 2)
    for x in range(rep.count):
        for y in range(x + 1, rep.count):
            adjacent, dim = wall_adjacent(rep.patterns[x], rep.patterns[y], five_line, 1, 1)
            assert not adjacent
            assert dim == lin  # "pairwise intersect only in the origin"


def test_sublevel_connected_when_separable(five_line):
    """For linearly separable data every sublevel set is wall-connected."""
    target = parse_signs("+,+,-,-,-")
    maximal = enumerate_maximal_cones(five_line, 2)
    for k in range(0, 6):
        sub = [g.assignment() for g in maximal if loss_of_pattern(g, target, 1, 1) <= k]
        assert len(_wall_components(five_line, 2, sub)) == 1


def test_connected_components_singleton(five_line):
    assert _wall_components(five_line, 2, [(1, 1, 1, 1, 1)]) == [(0,)]


def test_covectors_linear_counts(five_line):
    covs = covectors_linear(five_line)
    maximal = [c for c in covs if all(x != 0 for x in c)]
    assert len(maximal) == 10
    assert len(covs) == 21  # 10 chambers + 10 rays + origin
    for c in maximal:
        signs = [x for x in c]
        # threshold dichotomies: sign changes at most once along the line
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips <= 1


def test_covectors_single_point():
    covs = covectors_linear(dataset([(5,)]))
    assert sorted(covs) == [(-1,), (0,), (1,)]


def test_covectors_two_points():
    assert len(covectors_linear(dataset([(1,), (2,)]))) == 9


def test_chamber_path_identity(five_line):
    start = parse_signs("+,+,+,+,+")
    assert chamber_path(start, start, five_line) == [start]


def test_chamber_path_full_sweep(five_line):
    target = parse_signs("+,+,+,+,+")
    start = parse_signs("-,-,-,-,-")
    path = chamber_path(start, target, five_line)
    assert len(path) == 6
    seps = [len(separation(target, c)) for c in path]
    assert seps == [5, 4, 3, 2, 1, 0]
    for a, b in zip(path, path[1:]):
        adjacent, _ = wall_adjacent(cov_to_pattern(a), cov_to_pattern(b), five_line, 1, 1)
        assert adjacent


def test_chamber_path_strictly_decreasing_random(five_line):
    rng = random.Random(2)
    maximal = [c for c in covectors_linear(five_line) if 0 not in c]
    for _ in range(10):
        start, target = rng.sample(maximal, 2)
        path = chamber_path(start, target, five_line)
        seps = [len(separation(target, c)) for c in path]
        assert seps[0] == len(separation(target, start)) and seps[-1] == 0
        assert all(a > b for a, b in zip(seps, seps[1:]))
        for a, b in zip(path, path[1:]):
            adjacent, _ = wall_adjacent(cov_to_pattern(a), cov_to_pattern(b), five_line, 1, 1)
            assert adjacent


def test_chamber_path_requires_realizable_target(five_line):
    with pytest.raises(ValueError):
        chamber_path(parse_signs("+,+,+,+,+"), parse_signs("+,-,+,-,+"), five_line)


def test_chamber_path_duplicate_points_cross_together():
    D = dataset([(1,), (1,), (3,)])
    start = parse_signs("-,-,-")
    target = parse_signs("+,+,+")
    path = chamber_path(start, target, D)
    seps = [len(separation(target, c)) for c in path]
    assert all(a > b for a, b in zip(seps, seps[1:]))
    assert path[0] == start and path[-1] == target
    for cov in path:
        assert cov[0] == cov[1]  # coincident points always agree


def test_duplicate_points_flip_through_one_wall():
    """Coincident points share their tie hyperplane, so they swap together
    across a single codimension-1 wall."""
    D = dataset([(1,), (1,), (3,)])
    maximal = enumerate_maximal_cones(D, 2)
    assigns = {g.assignment() for g in maximal}
    assert assigns == {(1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)}
    G = pattern_from_assignment((1, 1, 1), 2)
    H = pattern_from_assignment((2, 2, 1), 2)
    adjacent, dim = wall_adjacent(G, H, D, 1, 1)
    assert adjacent and dim == 2 * 2 - 1
    # differing at the two coincident points AND the distinct one is not a wall
    K = pattern_from_assignment((2, 2, 2), 2)
    adjacent, _ = wall_adjacent(G, K, D, 1, 1)
    assert not adjacent


def test_chamber_path_planar_random():
    rng = random.Random(12)
    pts = [(0, 0), (3, 1), (1, 4), (5, 5), (2, 2)]
    D = dataset(pts)
    maximal = [c for c in covectors_linear(D) if 0 not in c]
    assert len(maximal) > 4
    for _ in range(8):
        start, target = rng.sample(maximal, 2)
        path = chamber_path(start, target, D)
        assert path[0] == start and path[-1] == target
        seps = [len(separation(target, c)) for c in path]
        assert all(a > b for a, b in zip(seps, seps[1:]))
        for a, b in zip(path, path[1:]):
            adjacent, _ = wall_adjacent(cov_to_pattern(a), cov_to_pattern(b), D, 1, 1)
            assert adjacent


def _path_datasets():
    """Seeded N = 2 datasets, d = 1..3, half with a coincident pair and some
    with three collinear points."""
    rng = random.Random(13)
    out = []
    for d in (1, 2, 3):
        for M in range(2, 7):
            for variant in range(4):
                pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(M)]
                if variant % 2 and M > 2:
                    pts[rng.randrange(M)] = pts[rng.randrange(M)]
                if variant >= 2 and M > 3:
                    p, q = pts[0], pts[1]
                    pts[2] = tuple(2 * y - x for x, y in zip(p, q))
                out.append(dataset(pts))
    return out


def _path_or_error(walk, start, target, data):
    try:
        return walk(start, target, data)
    except ValueError as exc:
        return str(exc)


def test_chamber_path_matches_composition_walk():
    """Same endpoints, length and errors as the former recursive walk, and
    every step a wall of the N = 2 fan."""
    rng = random.Random(5)
    for D in _path_datasets():
        tops = [tuple(1 if t == 1 else -1 for t in g.assignment())
                for g in enumerate_maximal_cones(D, 2)]
        pairs = [tuple(rng.sample(tops, 2)) for _ in range(3)]
        pairs.append((tops[0], tuple(-c for c in tops[0])))
        anything = [tuple(rng.choice((-1, 1)) for _ in range(D.M)) for _ in range(2)]
        pairs += [(tops[0], anything[0]), (anything[1], tops[-1])]
        for start, target in pairs:
            got = _path_or_error(chamber_path, start, target, D)
            want = _path_or_error(chamber_path_by_composition, start, target, D)
            if isinstance(want, str):
                assert got == want
                continue
            assert (got[0], got[-1], len(got)) == (want[0], want[-1], len(want))
            seps = [len(separation(target, c)) for c in got]
            assert all(a > b for a, b in zip(seps, seps[1:]))
            for a, b in zip(got, got[1:]):
                a2, b2 = (tuple(1 if c > 0 else 2 for c in x) for x in (a, b))
                shape = _wall_shape(a2, b2, D)
                assert shape is not None and wall_lp_over_all_terms(a2, *shape, D, 2)


def test_chamber_path_errors_match_composition_walk(five_line):
    cases = [
        ((1, 1), (1, 1, 1, 1, 1)),
        ((1, 0, 1, 1, 1), (1, 1, 1, 1, 1)),
        ((1, 1, 1, 1, 1), (1, 1, 0, 1, 1)),
        ((1, 1, 1, 1, 1), (1, -1, 1, -1, 1)),
        ((1, -1, 1, -1, 1), (1, 1, 1, 1, 1)),
    ]
    for start, target in cases:
        with pytest.raises(ValueError) as got:
            chamber_path(start, target, five_line)
        with pytest.raises(ValueError) as want:
            chamber_path_by_composition(start, target, five_line)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("points, n, m", [
    ([(0, 0), (2, 1), (1, 3)], 2, 1),
    ([(1,), (1,), (3,), (4,)], 1, 2),
    ([(0, 0), (1, 1), (2, 2), (1, 1)], 1, 1),
    ([(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)], 1, 1),
])
def test_wall_adjacent_matches_wall_shape_oracle(points, n, m):
    D = dataset(points)
    N = n + m
    maximal = enumerate_maximal_cones(D, N)
    for G in maximal:
        for H in maximal:
            a, b = G.assignment(), H.assignment()
            shape = _wall_shape(a, b, D)
            want = shape is not None and wall_lp_over_all_terms(a, *shape, D, N)
            adjacent, dim = wall_adjacent(G, H, D, n, m)
            assert adjacent == want
            if adjacent:
                assert dim == N * (D.d + 1) - 1


def test_wall_adjacent_refuses_a_split_coincident_pair():
    """A degree-one pattern that puts two copies of one point on different
    terms is not maximal; it gets no wall, in either order."""
    D = dataset([(1,), (1,), (3,)])
    G = pattern_from_assignment((1, 2, 1), 2)
    H = pattern_from_assignment((2, 2, 1), 2)
    assert wall_adjacent(G, H, D, 1, 1) == wall_adjacent(H, G, D, 1, 1) == (False, 3)


def test_count_dichotomies_line(five_line):
    assert count_dichotomies(five_line, 1, 1) == 10


def test_count_dichotomies_single_point():
    assert count_dichotomies(dataset([(3,)]), 1, 1) == 2


def test_count_dichotomies_contains_target(diag4):
    # the diagonal instance realizes its alternating target with n = m = 2
    index = fan_index(diag4, 4)
    target = parse_signs("+,-,-,+")
    dichos = set()
    from tropfan.classify import dichotomy_of_assignment

    for assign in index.iter_assignments():
        dichos.add(dichotomy_of_assignment(assign, 2))
    assert tuple(target) in dichos


def test_level_symmetry_diag4(diag4):
    target = parse_signs("+,-,-,+")
    index = fan_index(diag4, 4)
    counts = {}
    for assign in index.iter_assignments():
        k = assignment_loss(assign, target, 2)
        counts[k] = counts.get(k, 0) + 1
    for k in range(0, 5):
        assert counts.get(k, 0) == counts.get(4 - k, 0)


# ---------------------------------------------------------------------------
# Wall graph by flip lookup

COINCIDENT = [(0, 0), (1, 0), (1, 0), (0, 2)]
SPATIAL = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
NINE_TARGET = "+,+,-,-,+,-,-,+,+"


def _witness_of(index, assigns):
    """The ``witness`` argument ``level_set`` passes, for a list of the index's
    assignments: the integer witness of each one's class and relabeling."""
    of = {get(perm): (rep, perm) for rep, perms, get in index._classes() for perm in perms}
    return lambda x: index._integer_witness(*of[assigns[x]])


def _wall_components(data, N, assigns):
    """The wall components of a list of the fan index's assignments, from
    the edges and witnesses that ``level_set`` uses."""
    edges = _adjacency_edges(assigns, data, N, _witness_of(fan_index(data, N), assigns))
    return _union_find_components(len(assigns), edges)


def _seeded_coincident(d):
    """Four distinct seeded integer points in R^d plus a copy of one of them."""
    rng = random.Random(d)
    points = []
    while len(points) < 4:
        p = tuple(rng.randint(-2, 2) for _ in range(d))
        if p not in points:
            points.append(p)
    points.insert(rng.randrange(5), points[rng.randrange(4)])
    return dataset(points)


@pytest.mark.parametrize(
    "case",
    ["five_line-3", "five_line-4", "diag4-3", "diag4-4", "nine-level0", "nine-level1",
     "coincident-3", "spatial-3", "seeded1-3", "seeded1-4", "seeded2-3", "seeded2-4",
     "seeded3-3", "seeded3-4"],
)
def test_adjacency_edges_match_pairwise_oracle(case, request, monkeypatch):
    """The pairwise oracle builds every wall LP over all N term blocks, so the
    seeded cases, whose flips leave terms unused, also check that dropping an
    unused term keeps every verdict.  The edges are the same with the witness
    crossings that ``level_set`` tries first and with every crossing refused,
    so that each wall is decided by its LP alone."""
    name, arg = case.split("-")
    if name == "nine":
        data, N, n = request.getfixturevalue("nine_points"), 4, 2
        target, k = parse_signs(NINE_TARGET), int(arg[-1])
        assigns = sorted(
            a for a in fan_index(data, N).iter_assignments() if assignment_loss(a, target, n) == k
        )
    else:
        fixtures = {"coincident": dataset(COINCIDENT), "spatial": dataset(SPATIAL)}
        if name.startswith("seeded"):
            data = _seeded_coincident(int(name[-1]))
        else:
            data = fixtures[name] if name in fixtures else request.getfixturevalue(name)
        N = int(arg)
        assigns = sorted(fan_index(data, N).iter_assignments())
    witness = _witness_of(fan_index(data, N), assigns)
    edges = _adjacency_edges(assigns, data, N, witness)
    assert edges and edges == adjacency_edges_by_pairs(assigns, data, N)
    monkeypatch.setattr(importlib.import_module("tropfan.classify"), "_crossing_is_wall", lambda *args: False)
    calls = _count_wall_lps(monkeypatch)
    assert _adjacency_edges(assigns, data, N, witness) == edges and calls
    if name.startswith("seeded"):
        assert len(set(data.points)) == data.M - 1
        assert any(
            _wall_shape(a, b, data) and len(set(a) | set(b)) < N for a, b in combinations(assigns, 2)
        )


def test_adjacency_edges_match_the_flip_oracle(monkeypatch):
    """Group buckets give the flip lookup's edges and the same wall LPs on
    seeded sets with d = 1..3 and N = 2..4.  Each set has groups of 2 and 3
    coincident points, a repeated assignment and a shuffled order.  One set
    is a single point vector, so no entry lies outside the group."""
    rng = random.Random(35)
    cases = []
    for d, N in product((1, 2, 3), (2, 3, 4)):
        points = []
        while len(points) < 3:
            p = tuple(rng.randint(-2, 2) for _ in range(d))
            if p not in points:
                points.append(p)
        points += [points[0], points[1], points[1]]
        rng.shuffle(points)
        cases.append((dataset(points), N))
    cases.append((dataset([(1,), (1,), (1,)]), 3))
    calls = _count_wall_lps(monkeypatch)
    repeated_edges = 0
    for data, N in cases:
        index = fan_index(data, N)
        assigns = list(index.iter_assignments())
        assigns.append(rng.choice(assigns))
        rng.shuffle(assigns)
        witness = _witness_of(index, assigns)
        calls.clear()
        edges = _adjacency_edges(assigns, data, N, witness)
        lps = len(calls)
        calls.clear()
        assert edges and edges == adjacency_edges_by_flips(assigns, data, N, witness)
        assert lps == len(calls)
        repeated_edges += sum(assigns.count(assigns[x]) > 1 for x, _ in edges)
    assert repeated_edges > 0


def test_repeated_pattern_gets_the_edges_of_each_copy(diag4):
    maximal = enumerate_maximal_cones(diag4, 3)
    patterns = maximal + [maximal[0], maximal[5]]
    assigns = [g.assignment() for g in patterns]
    K = len(maximal)
    edges = _adjacency_edges(assigns, diag4, 3, _witness_of(fan_index(diag4, 3), assigns))
    assert edges == adjacency_edges_by_pairs(assigns, diag4, 3)
    assert (0, K) not in edges and (5, K + 1) not in edges
    neighbours = Counter(x for x, y in edges if y == K) + Counter(y for x, y in edges if x == K)
    assert neighbours == Counter(x for x, y in edges if y == 0) + Counter(y for x, y in edges if x == 0)
    assert _wall_components(diag4, 3, [assigns[0]] * 2) == [(0,), (1,)]


def _count_wall_lps(monkeypatch):
    module = importlib.import_module("tropfan.classify")
    calls = []
    original = module.max_slack

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(module, "max_slack", counting)
    return calls


def test_wall_lp_memo_is_scoped_to_one_call(nine_points, monkeypatch):
    target = parse_signs(NINE_TARGET)
    fan_index(nine_points, 4)
    calls = _count_wall_lps(monkeypatch)
    first = level_set(nine_points, 2, 2, target, 1)
    lps = len(calls)
    calls.clear()
    second = level_set(nine_points, 2, 2, target, 1)
    assert second == first
    assert len(calls) == lps > 0
    assert lps < len(first.adjacency)


def test_coincident_walls_need_fewer_lps_than_edges(monkeypatch):
    """With every witness crossing refused, each decision takes its LP, and
    the relabeling memo still makes fewer wall LPs than edges."""
    data = dataset(COINCIDENT)
    maximal = enumerate_maximal_cones(data, 3)
    monkeypatch.setattr(importlib.import_module("tropfan.classify"), "_crossing_is_wall", lambda *args: False)
    calls = _count_wall_lps(monkeypatch)
    assigns = [g.assignment() for g in maximal]
    witness = _witness_of(fan_index(data, 3), assigns)
    edges = _adjacency_edges(assigns, data, 3, witness)
    assert 0 < len(calls) < len(edges)
    lps = len(calls)
    calls.clear()
    assert _adjacency_edges(assigns, data, 3, witness) == edges and len(calls) == lps


@pytest.mark.parametrize(
    "name, N", [("diag4", 2), ("diag4", 3), ("five_line", 2), ("coincident", 3)]
)
def test_wall_graph_of_the_whole_fan_is_connected(name, N, request):
    """Maximal cones are the vertices of the activation polytope and walls are
    its edges, and the graph of a polytope is connected (Balinski 1961)."""
    data = dataset(COINCIDENT) if name == "coincident" else request.getfixturevalue(name)
    maximal = enumerate_maximal_cones(data, N)
    assert len(maximal) > 1
    assert len(_wall_components(data, N, [g.assignment() for g in maximal])) == 1


def test_block_swap_maps_level_k_to_level_M_minus_k():
    """With n = m, swapping the numerator and denominator terms is a term
    relabeling that flips every point's sign, so it maps the level-k wall graph
    onto the level-(M - k) one."""
    data = dataset([(0, 0), (4, 1), (1, 5), (-3, 2), (2, -4), (-1, -2)])
    target = parse_signs("+,-,+,-,+,-")
    M = data.M
    sizes = {}
    for k in range(M + 1):
        rep = level_set(data, 2, 2, target, k)
        sizes[k] = sorted(len(c) for c in rep.components)
    assert sum(sum(s) for s in sizes.values()) == len(list(fan_index(data, 4).iter_assignments()))
    for k in range(M + 1):
        assert sizes[k] == sizes[M - k]
    assert any(len(s) > 1 for s in sizes.values())


def test_level_set_scores_each_partition_once(nine_points):
    """The split-scored level sets equal the scan of every maximal
    assignment, in the same sorted order, for every k."""
    rng = random.Random(21)
    cases = [(nine_points, 2, 2, parse_signs(NINE_TARGET), (0, 1))]
    for _ in range(12):
        d = rng.randint(1, 3)
        points = [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(rng.randint(2, 5))]
        points.append(rng.choice(points))  # a coincident pair
        target = [rng.choice((1, -1)) for _ in points]
        cases.append((dataset(points), rng.randint(1, 2), rng.randint(1, 2), target, range(len(points) + 1)))
    sizes = []
    for data, n, m, target, levels in cases:
        index = fan_index(data, n + m)
        for k in levels:
            want = sorted(a for a in index.iter_assignments() if assignment_loss(a, target, n) == k)
            got = [G.assignment() for G in level_set(data, n, m, target, k).patterns]
            assert got == want
            sizes.append(len(got))
    assert sizes[:2] == [16, 304] and sum(sizes) > 100


# ---------------------------------------------------------------------------
# Witness crossings
#
# Every flip candidate tried so far is a wall, so equal edges alone cannot
# show a crossing check that answers "wall" too often; these tests call it on
# witnesses built by hand.  One point at the origin of R^1 gives term t the
# value a_t, so a witness over three terms is (a_1, 0, a_2, 0, a_3, 0).

ORIGIN = dataset([(0,)])


def _values(data, w):
    width = data.d + 1
    return [[sum(l * v for l, v in zip(lift, w[t : t + width])) for t in range(0, len(w), width)]
            for lift in data.lifts]


def _heights(*a):
    return tuple(x for h in a for x in (h, 0))


@pytest.mark.parametrize("third", [-1, -5])
def test_crossing_refuses_a_third_term_at_or_above_the_tie(third, monkeypatch):
    """A = (0, -10, third) is a strict witness of term 1 and B = (-10, 0, third)
    of term 2; their crossing 10·A + 10·B ties terms 1 and 2 at -100 while term
    3 is at 20·third: above the tie for -1, equal to it for -5.  Neither is a
    certificate, and the LP then finds the wall, which one point always has."""
    A, B = _heights(0, -10, third), _heights(-10, 0, third)
    assert not _crossing_is_wall(_values(ORIGIN, A)[0], _values(ORIGIN, B)[0], 1, 2)
    calls = _count_wall_lps(monkeypatch)
    assert _adjacency_edges([(1,), (2,)], ORIGIN, 3, [A, B].__getitem__) == [(0, 1)]
    assert len(calls) == 1


def test_crossing_certifies_a_tie_above_the_third_term(monkeypatch):
    A, B = _heights(0, -10, -6), _heights(-10, 0, -6)
    assert _crossing_is_wall(_values(ORIGIN, A)[0], _values(ORIGIN, B)[0], 1, 2)
    calls = _count_wall_lps(monkeypatch)
    assert _adjacency_edges([(1,), (2,)], ORIGIN, 3, [A, B].__getitem__) == [(0, 1)]
    assert calls == []


@pytest.mark.parametrize("A, B", [
    (_heights(-10, 0, -20), _heights(-10, 0, -20)),  # A wins on term 2, not on its own term 1
    (_heights(0, -10, -20), _heights(0, -10, -20)),  # B wins on term 1, not on its own term 2
    (_heights(0, 0, -20), _heights(-10, 0, -20)),  # A ties terms 1 and 2
])
def test_a_witness_off_its_side_of_the_tie_raises(A, B):
    with pytest.raises(AssertionError, match="witness"):
        _crossing_is_wall(_values(ORIGIN, A)[0], _values(ORIGIN, B)[0], 1, 2)
    with pytest.raises(AssertionError, match="witness"):
        _adjacency_edges([(1,), (2,)], ORIGIN, 3, [A, B].__getitem__)


def test_crossing_checks_the_third_term_at_every_group_point(monkeypatch):
    """Points 0 and 1 on a line; the group is point 0, and point 1 keeps term
    3 under both witnesses, which differ only in the blocks of terms 1 and 2.
    Term 3, the block (h, 10 - h), is worth h at point 0, where the crossing
    10·A + 10·B ties terms 1 and 2 at -100: h = -6 puts it below the tie and
    h = -1 above.  A copy of point 0 joins the group; it shares the point's
    lift, so the group's point gives the same verdicts for both copies, and
    ``_adjacency_edges`` takes an LP exactly when the crossing is refused."""
    calls = _count_wall_lps(monkeypatch)
    for data, a, group in ((dataset([(0,), (1,)]), (1, 3), [0]),
                           (dataset([(0,), (0,), (1,)]), (1, 1, 3), [0, 1])):
        b = tuple(2 if k in group else t for k, t in enumerate(a))
        for h, wall in ((-6, True), (-1, False)):
            A, B = (0, 0, -10, 0, h, 10 - h), (-10, 0, 0, 0, h, 10 - h)
            assert _crossing_is_wall(_values(data, A)[0], _values(data, B)[0], 1, 2) is wall
            calls.clear()
            assert _adjacency_edges([a, b], data, 3, [A, B].__getitem__) == [(0, 1)]
            assert len(calls) == (0 if wall else 1)


def test_a_witness_off_its_own_term_at_any_point_raises(monkeypatch):
    """The crossing is checked at the group's point only, so every witness is
    first checked at every point.  A = (0, 100, -10, 0, -6, 5) puts point 1 of
    a = (1, 3) on term 1, not on its own term 3, while B = (-10, 0, 0, 0, -6,
    16) is a strict witness of b = (2, 3).  The flip oracle, which checks the
    crossing at every point instead, is refused there and takes the LP.  With
    a copy of point 0, (0, 0, -10, 0, -6, 16) puts both copies on term 1, so
    it is no witness of (1, 2, 3), which splits them, although the group's
    first point is on its term and the crossing with B would pass."""
    data, assigns = dataset([(0,), (1,)]), [(1, 3), (2, 3)]
    A, B = (0, 100, -10, 0, -6, 5), (-10, 0, 0, 0, -6, 16)
    with pytest.raises(AssertionError, match="own term"):
        _adjacency_edges(assigns, data, 3, [A, B].__getitem__)
    calls = _count_wall_lps(monkeypatch)
    assert adjacency_edges_by_flips(assigns, data, 3, [A, B].__getitem__) == [(0, 1)]
    assert len(calls) == 1
    split = dataset([(0,), (0,), (1,)])
    A = (0, 0, -10, 0, -6, 16)
    assert _crossing_is_wall(_values(split, A)[0], _values(split, B)[0], 1, 2)
    with pytest.raises(AssertionError, match="own term"):
        _adjacency_edges([(1, 2, 3), (2, 2, 3)], split, 3, [A, B].__getitem__)


def test_nine_point_level_two_takes_both_branches(nine_points, monkeypatch):
    """Some level-2 decisions are certified at the crossing and some fall
    back to the LP, one LP for each crossing refused."""
    module = importlib.import_module("tropfan.classify")
    verdicts = []

    def recorded(*args):
        verdicts.append(_crossing_is_wall(*args))
        return verdicts[-1]

    monkeypatch.setattr(module, "_crossing_is_wall", recorded)
    fan_index(nine_points, 4)
    calls = _count_wall_lps(monkeypatch)
    level_set(nine_points, 2, 2, parse_signs(NINE_TARGET), 2)
    assert verdicts.count(True) > 0 and verdicts.count(False) == len(calls) > 0


def test_nine_point_wall_lps_per_level(nine_points, monkeypatch):
    """The wall LPs of the nine-point levels 0, 1 and 2.  Before witness
    crossings were tried first, one LP per memoised flip made 3, 102 and 989;
    the crossings certify every other decision.  Level 2 took 126 before the
    walk kept leaves on their node's witness, which moved one crossing."""
    target = parse_signs(NINE_TARGET)
    fan_index(nine_points, 4)
    calls = _count_wall_lps(monkeypatch)
    lps = []
    for k in (0, 1, 2):
        calls.clear()
        level_set(nine_points, 2, 2, target, k)
        lps.append(len(calls))
    assert lps == [0, 9, 125]
