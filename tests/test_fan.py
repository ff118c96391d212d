import os
import pickle
import random
from fractions import Fraction as F
from itertools import permutations, product
from math import lcm

import pytest

from oracles import (
    all_cones_by_pairwise_union,
    canonical_cones_by_hull_pruning,
    canonical_cones_without_nogoods,
    labelings_by_parts,
    leaf_cone_with_fractions,
    tie_row_by_fractions,
)
from tropfan.fan import (
    ActivationPattern,
    affine_dim,
    complete_pattern,
    cone_constraints,
    cone_of_graph,
    dataset,
    enumerate_all_cones,
    enumerate_maximal_cones,
    is_maximal_pattern,
    lineality_dim,
    pattern_from_assignment,
    pattern_of,
    polytope_vertex_of,
    theta_from_vector,
    fan_index,
    _FanIndex,
    _tie_row,
)
from tropfan.classify import level_set
from tropfan.geometry import describe_cone, exact_rank, lp_feasible
from tropfan.rationals import dot, integerize
from tropfan.tropical import SignomialParams, signomial


def random_signomial(rng, N, d, span=8):
    terms = tuple(
        (F(rng.randint(-span, span), rng.randint(1, 3)),
         tuple(F(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(d)))
        for _ in range(N)
    )
    return SignomialParams(terms, d)


def test_pattern_of_running_example(running_theta4, two_points):
    G = pattern_of(running_theta4, two_points)
    assert G.neighbors == (frozenset({1, 2}), frozenset({3}))


def test_pattern_single_term(two_points):
    sig = signomial([(0, (1, 1))])
    G = pattern_of(sig, two_points)
    assert all(nb == {1} for nb in G.neighbors)


def test_pattern_all_zero_parameters(two_points):
    sig = signomial([(0, (0, 0))] * 3)
    G = pattern_of(sig, two_points)
    assert all(nb == {1, 2, 3} for nb in G.neighbors)


def test_cone_constraints_shapes(two_points):
    single = dataset([(0, 0)])
    lone = pattern_from_assignment((1,), 1)
    assert cone_constraints(lone, single) == ()

    G = pattern_from_assignment((1,), 2)
    rows = cone_constraints(G, single)
    assert len(rows) == 1
    assert len(rows[0]) == 6
    # row is (a_1 - a_2) + <s_1 - s_2, 0> >= 0
    assert rows[0] == (1, 0, 0, -1, 0, 0)

    H = pattern_of(signomial([(0, (0, 0))] * 3), two_points)
    rows = cone_constraints(H, two_points)
    assert len(rows) == sum(len(nb) * 2 for nb in H.neighbors)


def test_cone_of_graph_complete(two_points):
    K = complete_pattern(2, 4)
    cone = cone_of_graph(K, two_points)
    assert cone.pattern == K
    assert cone.dimension == lineality_dim(two_points, 4)


def test_cone_of_graph_running(two_points):
    H = ActivationPattern(2, 4, (frozenset({1, 2}), frozenset({3})))
    cone = cone_of_graph(H, two_points)
    assert cone.pattern == H  # closure adds no edges
    assert cone.dimension == 11
    # independent dimension check: one tie row, rank 1
    rows = cone_constraints(cone.pattern, two_points)
    _, implied = describe_cone(12, rows)
    normals = [rows[r] for r in sorted(implied)]
    assert 12 - exact_rank(normals) == 11


def test_cone_of_graph_collinear_tie_forces_all_ties():
    D = dataset([(0, 0), (1, 1), (2, 2)])
    H = ActivationPattern(3, 2, (frozenset({1}), frozenset({1, 2}), frozenset({1})))
    cone = cone_of_graph(H, D)
    assert cone.pattern.neighbors == (frozenset({1, 2}),) * 3
    assert cone.dimension == lineality_dim(D, 2)


def test_is_maximal_degree_two_rejected(two_points):
    G = ActivationPattern(2, 4, (frozenset({1, 2}), frozenset({3})))
    assert not is_maximal_pattern(G, two_points)


def test_is_maximal_threshold_dichotomy(five_line):
    G = pattern_from_assignment((1, 1, 2, 2, 2), 2)
    assert is_maximal_pattern(G, five_line)


def test_is_maximal_convexity_violation():
    D = dataset([(0, 0), (1, 1), (2, 2)])
    G = pattern_from_assignment((1, 2, 1), 2)
    assert not is_maximal_pattern(G, D)


def test_non_maximal_certificates_are_checked(spoil_multipliers):
    """A degree-one pattern is refused only after its LP's Farkas
    multipliers pass the exact check in ``max_slack``; multipliers spoiled
    where they are read raise through ``is_maximal_pattern``."""
    D = dataset([(0, 0), (1, 1), (2, 2)])
    G = pattern_from_assignment((1, 2, 1), 2)
    assert not is_maximal_pattern(G, D)  # positive control: the LP's optimum is 0
    for corrupt in ("flip", "zero"):
        spoil_multipliers(corrupt)
        with pytest.raises(AssertionError, match="certificate"):
            is_maximal_pattern(G, D)


def test_enumerate_five_points_line(five_line):
    assert len(enumerate_maximal_cones(five_line, 2)) == 10


def test_enumerate_affinely_independent():
    D = dataset([(0, 0), (1, 0), (0, 1)])
    assert len(enumerate_maximal_cones(D, 3)) == 27


def test_enumerate_three_collinear_with_sampling_oracle():
    D = dataset([(1,), (2,), (3,)])
    patterns = enumerate_maximal_cones(D, 2)
    assert len(patterns) == 6
    # sampling oracle: patterns of random parameters with unique argmax per point
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        sig = random_signomial(rng, 2, 1)
        G = pattern_of(sig, D)
        if G.is_degree_one():
            seen.add(G.key())
    assert seen == {g.key() for g in patterns}


def test_enumeration_order_is_canonical(five_line):
    patterns = enumerate_maximal_cones(five_line, 2)
    keys = [g.key() for g in patterns]
    assert keys == sorted(keys)


def test_enumeration_witnesses_reproduce_patterns(five_line):
    index = fan_index(five_line, 2)
    for assign, witness in index.iter_patterns_with_witness():
        sig = theta_from_vector(witness, 2, five_line.d)
        assert pattern_of(sig, five_line).assignment() == assign


def test_all_cones_single_point():
    D = dataset([(2,)])
    cones = enumerate_all_cones(D, 2)
    keys = sorted(c.pattern.key() for c in cones)
    assert keys == [((1,),), ((1, 2),), ((2,),)]


def test_all_cones_two_points_on_line():
    D = dataset([(1,), (2,)])
    cones = enumerate_all_cones(D, 2)
    assert len(cones) == 9
    dims = sorted(c.dimension for c in cones)
    assert dims == [2, 3, 3, 3, 3, 4, 4, 4, 4]


@pytest.mark.parametrize(
    "pts, N",
    [
        ([(0, 0), (3, 0), (3, 2), (0, 2)], 2),
        ([(0, 0), (4, 0), (0, 4), (1, 1)], 2),
        ([(1,), (2,), (3,)], 2),
        ([(0, 0), (1, 0)], 3),
        ([(0, 0), (1, 0), (0, 1)], 3),
        ([(0, 0), (1, 0), (1, 0), (0, 2)], 2),
        ([(0, 0), (1, 1), (2, 2), (3, 3)], 2),
    ],
    ids=["convex4", "inner4", "line3", "two_points", "triangle-N3", "coincident4", "diag4"],
)
def test_face_descent_matches_pairwise_union(pts, N):
    D = dataset(pts)
    cones = enumerate_all_cones(D, N)
    reference = all_cones_by_pairwise_union(D, N)
    assert [(c.pattern.key(), c.dimension) for c in cones] == [
        (c.pattern.key(), c.dimension) for c in reference
    ]
    for cone in cones:
        assert pattern_of(theta_from_vector(cone.relint, N, D.d), D) == cone.pattern
        assert cone.dimension == describe_cone(N * (D.d + 1), cone_constraints(cone.pattern, D))[0]


@pytest.mark.parametrize(
    "pts, N, count",
    [
        ([(0, 0), (1, 0), (1, 0), (0, 2)], 2, 27),
        ([(0, 0), (1, 1), (2, 2), (3, 3)], 3, 217),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 2, 181),
        ([(0, 0), (1, 0), (0, 1), (1, 1)], 3, 1303),
    ],
    ids=["coincident4", "diag4-N3", "spatial5", "square-N3"],
)
def test_all_cones_satisfy_euler_relation(pts, N, count):
    """The fan is complete, so its cones tile R^n with n = N(d+1) and the
    alternating count of their dimensions is (-1)^n, the Euler
    characteristic of a complete fan.  No LP is involved in the check."""
    D = dataset(pts)
    cones = enumerate_all_cones(D, N)
    assert len(cones) == count
    assert sum((-1) ** c.dimension for c in cones) == (-1) ** (N * (D.d + 1))


def test_face_walk_relint_lp_count_is_pinned(monkeypatch):
    """The relint LPs of the face walk on four planar points, N = 2.  The
    walk calls ``cone_of_graph`` 54 times: a tried pattern plus one edge of
    its closure is never tried (64 calls without that skip, for the same
    cones).  The per-row method needs one LP per call plus one per implied
    row; certificate rounds stay below even cones plus implied rows (the
    per-row method solved 318 here).  Opposite rows, and the rows in their
    span, are implied without an LP: they decide every row of 8 calls.  The
    other 46 calls take one LP each, whose count follows the optimal basis
    the dual simplex ends at: 10 are zero rounds whose certificates decide
    every row left, and 36 end positive (without the pair rule, 81 zero
    rounds and the same 36 positive ones)."""
    from tropfan import fan, geometry

    D = dataset([(0, 0), (2, 1), (1, 3), (-1, 1)])
    lps, implied = [], []
    solve, relint = geometry.max_slack, fan.relint_point

    def solve_counted(*args, **kwargs):
        lps.append(args)
        return solve(*args, **kwargs)

    def relint_counted(dim, rows):
        point, rows = relint(dim, rows)
        implied.append(len(rows))
        return point, rows

    monkeypatch.setattr(geometry, "max_slack", solve_counted)
    monkeypatch.setattr(fan, "relint_point", relint_counted)
    cones = enumerate_all_cones(D, 2)
    assert (len(cones), len(implied), sum(implied), len(lps)) == (51, 54, 204, 46)
    assert len(lps) < sum(implied) + len(cones)


def test_all_cones_cap(diag4):
    from tropfan.fan import CapExceededError

    with pytest.raises(CapExceededError):
        enumerate_all_cones(diag4, 2, cap=16)
    assert len(enumerate_all_cones(diag4, 2, cap=17)) == 17


def test_all_cones_diag4_three_terms(diag4):
    cones = enumerate_all_cones(diag4, 3)
    assert len(cones) == 217
    assert sum(c.pattern.is_degree_one() for c in cones) == 39


def test_fan_complete_at_random_parameters(two_points):
    cones = enumerate_all_cones(two_points, 3)
    keys = {c.pattern.key() for c in cones}
    rng = random.Random(5)
    for _ in range(100):
        sig = random_signomial(rng, 3, 2)
        assert pattern_of(sig, two_points).key() in keys


def test_face_labels_are_closures_of_containing_maximal(two_points):
    cones = enumerate_all_cones(two_points, 2)
    maximal = [c.pattern for c in cones if c.pattern.is_degree_one()]
    for cone in cones:
        G = cone.pattern
        if G.is_degree_one():
            continue
        containing = [H for H in maximal if all(hn <= gn for hn, gn in zip(H.neighbors, G.neighbors))]
        assert containing
        union = containing[0]
        for H in containing[1:]:
            union = union.union(H)
        assert cone_of_graph(union, two_points).pattern == G


def test_lineality_values(nine_points, diag4):
    assert lineality_dim(nine_points, 4) == 3
    assert lineality_dim(diag4, 4) == 6
    assert lineality_dim(dataset([(2,)]), 2) == 3


def test_lineality_cross_check_with_cone_dim(diag4):
    K = complete_pattern(4, 4)
    assert describe_cone(12, cone_constraints(K, diag4))[0] == lineality_dim(diag4, 4)
    D1 = dataset([(2,)])
    K1 = complete_pattern(1, 2)
    assert describe_cone(4, cone_constraints(K1, D1))[0] == lineality_dim(D1, 2)


def test_complete_pattern_rows_all_implied(two_points):
    """The all-edges cone is the lineality space, so every row is an implied
    equality; cross-checked against the rank of the full normal matrix."""
    from tropfan.geometry import relint_point

    K = complete_pattern(2, 3)
    rows = cone_constraints(K, two_points)
    implied = relint_point(9, rows)[1]
    assert implied == frozenset(range(len(rows)))
    rank = exact_rank(rows)
    assert 9 - rank == lineality_dim(two_points, 3)


def test_cone_dims_never_below_lineality(two_points):
    lin = lineality_dim(two_points, 3)
    for cone in enumerate_all_cones(two_points, 3):
        assert cone.dimension >= lin


def test_polytope_vertex_simple():
    D = dataset([(2,)])
    G = pattern_from_assignment((1,), 2)
    assert polytope_vertex_of(G, D) == (F(1), F(2), F(0), F(0))


def test_polytope_vertices_distinct_and_counted(five_line):
    patterns = enumerate_maximal_cones(five_line, 2)
    vertices = [polytope_vertex_of(g, five_line, check=False) for g in patterns]
    assert len(set(vertices)) == len(patterns)


def test_polytope_vertex_rejects_non_maximal(five_line):
    G = pattern_from_assignment((1, 2, 1, 2, 1), 2)  # not realizable on a line
    with pytest.raises(ValueError):
        polytope_vertex_of(G, five_line)


@pytest.mark.parametrize("assign", [(1, 2), (1, 1, 2, 2, 2, 2)], ids=["two-points", "six-points"])
def test_is_maximal_rejects_a_pattern_of_another_size(five_line, assign):
    with pytest.raises(ValueError, match="sizes differ"):
        is_maximal_pattern(pattern_from_assignment(assign, 2), five_line)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("assign", [(1, 2), (1, 1, 2, 2, 2, 2)], ids=["two-points", "six-points"])
def test_polytope_vertex_rejects_a_pattern_of_another_size(five_line, assign, check):
    with pytest.raises(ValueError, match="sizes differ"):
        polytope_vertex_of(pattern_from_assignment(assign, 2), five_line, check=check)


def test_polytope_dimension_identity(five_line, two_points):
    # rank of vertex differences == (N-1)(affdim+1), and it complements the
    # lineality dimension inside N(d+1).
    for data, N in ((five_line, 2), (two_points, 3)):
        patterns = enumerate_maximal_cones(data, N)
        vertices = [polytope_vertex_of(g, data, check=False) for g in patterns]
        diffs = [tuple(x - y for x, y in zip(v, vertices[0])) for v in vertices[1:]]
        rank = exact_rank([integerize(f)[0] for f in diffs])
        assert rank == (N - 1) * (affine_dim(data) + 1)
        assert rank + lineality_dim(data, N) == N * (data.d + 1)


def test_zonotope_face_matches_two_term_fan():
    D = dataset([(0, 0), (1, 0), (0, 1)])
    N = 3
    cones = {c.pattern.key(): c for c in enumerate_all_cones(D, N)}
    two_term = enumerate_maximal_cones(D, 2)
    for pair in ((1, 2), (1, 3), (2, 3)):
        key = ((pair),) * D.M
        key = tuple(tuple(sorted(pair)) for _ in range(D.M))
        assert key in cones  # the all-{i,j} pattern exists
        # its dual face decomposes like the N = 2 activation polytope: the
        # patterns refining it within {i,j} biject with two-term maximal cones
        sub = [
            g for g in enumerate_maximal_cones(D, N)
            if all(next(iter(nb)) in pair for nb in g.neighbors)
        ]
        assert len(sub) == len(two_term)
        relabel = {pair[0]: 1, pair[1]: 2}
        assert {tuple(relabel[next(iter(nb))] for nb in g.neighbors) for g in sub} == {
            g.assignment() for g in two_term
        }


def test_count_bound_and_equality_condition():
    indep = dataset([(0, 0), (1, 0), (0, 1)])
    assert len(enumerate_maximal_cones(indep, 3)) == 3**3
    coll = dataset([(0, 0), (1, 1), (2, 2)])
    assert len(enumerate_maximal_cones(coll, 2)) < 2**3


def test_coincident_points_share_one_part():
    """The walk visits a repeated point once, and the copy joins the part of
    its first occurrence when the leaf is stored.  Coincident points can
    never be strictly separated, so only the diagonal assignments exist."""
    D = dataset([(1,), (1,)])
    patterns = enumerate_maximal_cones(D, 2)
    assert {g.assignment() for g in patterns} == {(1, 1), (2, 2)}


def test_enumeration_matches_bruteforce_fullspace_lp():
    """Dual route: the symmetry-reduced enumeration must agree with a brute
    force over every degree-one assignment, decided by the ungauged
    full-space strict system."""
    from itertools import product

    for pts, N in (
        ([(0, 0), (3, 1), (1, 3), (2, 2)], 3),
        ([(0, 0), (1, 1), (2, 2), (3, 3)], 4),
    ):
        data = dataset(pts)
        enumerated = {g.assignment() for g in enumerate_maximal_cones(data, N)}
        brute = set()
        for assign in product(range(1, N + 1), repeat=data.M):
            G = pattern_from_assignment(assign, N)
            if lp_feasible(N * (data.d + 1), cone_constraints(G, data)) is not None:
                brute.add(assign)
        assert enumerated == brute


def test_patterns_require_positive_degree():
    with pytest.raises(ValueError):
        ActivationPattern(2, 3, (frozenset({1}), frozenset()))
    with pytest.raises(ValueError):
        ActivationPattern(1, 2, (frozenset({3}),))  # term index out of range


@pytest.mark.parametrize("neighbors, message", [
    ((frozenset({0}),), "out of range"),
    ((frozenset({1, 3}),), "out of range"),
    ((frozenset({-1, 2}), frozenset()), "out of range"),
    ((frozenset(), frozenset({3})), "at least one term"),
    ((frozenset({1}),) * 3, "one neighbor set"),
])
def test_pattern_errors_keep_their_order_and_messages(neighbors, message):
    """Each point's set is checked in order, emptiness before its range."""
    with pytest.raises(ValueError, match=message):
        ActivationPattern(2 if len(neighbors) != 1 else 1, 2, neighbors)


def walk_datasets(seed=20261019, count=108):
    """(data, N) for small seeded point sets in d = 1..3 with N = 2..4: general
    integer points, a coincident pair, a collinear triple, or rational points
    (with a coincident pair every other time)."""
    rng = random.Random(seed)
    out = []
    for case in range(count):
        d, N, kind = 1 + case % 3, 2 + case // 3 % 3, case // 9 % 4
        M = rng.randint(4, 6)

        def point():
            if kind == 3:
                return tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for _ in range(d))
            return tuple(F(rng.randint(-5, 5)) for _ in range(d))

        pts = [point() for _ in range(M)]
        if kind == 1 or (kind == 3 and case % 2):
            pts[rng.randrange(1, M)] = pts[0]
        elif kind == 2:
            p, v, lam = pts[0], point(), F(rng.randint(1, 5), rng.randint(1, 3))
            pts[1:3] = [tuple(a + b for a, b in zip(p, v)), tuple(a + lam * b for a, b in zip(p, v))]
            rng.shuffle(pts)
        out.append((dataset(pts), N))
    return out


def check_walk_against_hull_pruning(data, N, monkeypatch):
    """``fan_index`` with 1 and 2 workers lists the former walk's classes in its
    order, and each class's witness, under its canonical labeling with the
    padding terms, realizes the class."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so two workers split into chunks
    want = canonical_cones_by_hull_pruning(data, N)
    oracle = _FanIndex(data, N, want)
    for workers in (1, 2):
        index = fan_index(data, N, workers=workers, use_cache=False)
        assert [rep.parts for rep in index.reps] == [cone.parts for cone in want]
        assert list(index.iter_assignments()) == list(oracle.iter_assignments())
        for rep in index.reps:
            perm = range(1, len(rep.parts) + 1)
            theta = theta_from_vector(next(index._witnesses(rep, [perm]))[1], N, data.d)
            assign = [t for k in range(data.M) for t in perm if k in rep.parts[t - 1]]
            assert pattern_of(theta, data).assignment() == tuple(assign)


def test_exact_walk_matches_hull_pruning_on_seeded_datasets(monkeypatch):
    kinds = set()
    for data, N in walk_datasets():
        check_walk_against_hull_pruning(data, N, monkeypatch)
        kinds.add((data.d, N))
    assert len(kinds) == 9


@pytest.mark.parametrize("N, count", [(3, 396), (4, 1755)])
def test_exact_walk_matches_hull_pruning_on_nine_points(nine_points, monkeypatch, N, count):
    check_walk_against_hull_pruning(nine_points, N, monkeypatch)
    assert len(fan_index(nine_points, N).reps) == count


def test_integer_leaves_match_the_eager_fraction_oracle(monkeypatch):
    """On the seeded walk datasets, with 1 and 2 workers, every leaf equals
    the eager Fraction leaf built from the same tableau: its parts, its
    integer witness blocks over its denominator, its padding constant and
    every full-space witness."""
    from tropfan import fan

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so two workers split into chunks
    for data, N in walk_datasets():
        for workers in (1, 2):
            index = fan_index(data, N, workers=workers, use_cache=False)
            with monkeypatch.context() as patch:
                patch.setattr(fan, "_leaf_cone", leaf_cone_with_fractions)
                want = fan_index(data, N, workers=workers, use_cache=False)
            assert [rep.parts for rep in index.reps] == [rep.parts for rep in want.reps]
            assert [rep.pad_a for rep in index.reps] == [rep.pad_a for rep in want.reps]
            for rep, eager in zip(index.reps, want.reps):
                assert {type(v) for block in rep.witness_blocks for v in block} == {int}
                assert type(rep.den) is int and rep.den > 0
                blocks = tuple(tuple(F(v, rep.den) for v in block) for block in rep.witness_blocks)
                assert blocks == eager.witness_blocks
            assert list(index.iter_patterns_with_witness()) == list(want.iter_patterns_with_witness())


def test_fan_builds_witness_fractions_only_where_a_witness_is_read(monkeypatch):
    """On the seeded walk datasets the walk builds one Fraction per class,
    its ``pad_a``.  A full ``iter_patterns_with_witness`` pass then builds
    each class's witness blocks once, for all of its relabelings:
    len(parts) * (d + 1) Fractions per class."""
    from tropfan import fan

    built = []

    def counted(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(fan, "Fraction", counted)
    classes = relabelings = 0
    for data, N in walk_datasets():
        index = fan_index(data, N, use_cache=False)
        assert len(built) == len(index.reps)
        built.clear()
        relabelings += len(list(index.iter_patterns_with_witness()))
        assert len(built) == sum(len(rep.parts) * (data.d + 1) for rep in index.reps)
        built.clear()
        classes += len(index.reps)
    assert relabelings > classes


def test_integer_class_survives_a_pickle_round_trip():
    """A class holds ints until a witness is read, and survives a pickle
    round trip, as ``--workers`` ships classes between processes: the copy
    equals it and gives the same witness under every relabeling."""
    data = dataset([(0, 0), (3, 1), (1, 4), (2, 2), (4, 3)])
    index = fan_index(data, 3, use_cache=False)
    rep = max(index.reps, key=lambda rep: len(rep.parts))
    copy = pickle.loads(pickle.dumps(rep))
    assert copy == rep and len(copy.witness_blocks) == len(rep.parts) == 3
    assert {type(v) for block in copy.witness_blocks for v in block} == {int}
    for perm in permutations(range(1, 4)):
        assert next(index._witnesses(copy, [perm])) == next(index._witnesses(rep, [perm]))


def labeling_cases():
    """(data, N): one point, where an itemgetter of one item returns a
    scalar, two points and the seeded walk datasets."""
    return [
        (dataset([(2,)]), 1),
        (dataset([(2,)]), 3),
        (dataset([(0,), (3,)]), 2),
        (dataset([(1, 1), (1, 1)]), 3),
        *walk_datasets(count=36),
    ]


def test_assignments_match_the_nested_loop_oracle():
    for data, N in labeling_cases():
        index = fan_index(data, N, use_cache=False)
        want = list(labelings_by_parts(index))
        assert list(index.iter_assignments()) == want
        assert [assign for assign, _ in index.iter_patterns_with_witness()] == want
    assert list(fan_index(dataset([(2,)]), 3).iter_assignments()) == [(1,), (2,), (3,)]


def test_level_set_relabelings_match_the_nested_loop_oracle(monkeypatch):
    """``level_set`` lists the assignments its relabelings select in the
    nested-loop oracle's order."""
    real, counts = _FanIndex._classes, []

    def checked(self, relabelings=None):
        classes = [(rep, list(perms), get) for rep, perms, get in real(self, relabelings)]
        got = [get(perm) for _, perms, get in classes for perm in perms]
        assert relabelings is not None and got == list(labelings_by_parts(self, relabelings))
        counts.append(len(got))
        return iter(classes)

    monkeypatch.setattr(_FanIndex, "_classes", checked)
    rng = random.Random(20261019)
    for data, N in labeling_cases():
        if N >= 2:
            target = [rng.choice((-1, 1)) for _ in range(data.M)]
            for k in range(data.M + 1):
                level_set(data, 1, N - 1, target, k)
    assert sorted(counts[:2]) == [1, 2]  # one point, one numerator and two denominator terms
    assert min(counts) == 0
    assert sum(counts) > 1000


def test_corrupted_leaf_witness_raises(monkeypatch):
    """Each leaf's witness is checked on the leaf's strict rows before it is
    stored: negated tableau values break them."""
    from tropfan import geometry

    data = dataset([(0, 0), (1, 0), (0, 1)])
    fan_index(data, 2, use_cache=False)
    numerators = geometry._Simplex.numerators
    monkeypatch.setattr(geometry._Simplex, "numerators", lambda self, count: [-v for v in numerators(self, count)])
    with pytest.raises(AssertionError, match="leaf witness"):
        fan_index(data, 2, use_cache=False)


def test_cap_exceeded():
    from tropfan.fan import CapExceededError

    # fresh dataset so the fan cache cannot satisfy the call without work
    D = dataset([(0, 7), (7, 0), (3, 5)])
    with pytest.raises(CapExceededError):
        enumerate_maximal_cones(D, 3, cap=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_cap_counts_leaves_independently_of_workers(nine_points, workers):
    """The walk reaches only realizable leaves, so the cap bounds the classes."""
    from tropfan.fan import CapExceededError

    for cap in (198, 395):
        with pytest.raises(CapExceededError):
            fan_index(nine_points, 3, cap=cap, workers=workers, use_cache=False)
    index = fan_index(nine_points, 3, cap=396, workers=workers, use_cache=False)
    assert len(index.reps) == 396


def test_cap_applies_to_cached_index(nine_points):
    from tropfan.fan import CapExceededError

    assert len(fan_index(nine_points, 3).reps) == 396
    with pytest.raises(CapExceededError):
        fan_index(nine_points, 3, cap=198)


def test_walk_past_the_cap_is_not_cached(nine_points):
    from tropfan import fan
    from tropfan.fan import CapExceededError

    data = dataset(nine_points.points[::-1])  # a fresh key, so the walk runs
    with pytest.raises(CapExceededError):
        fan_index(data, 3, cap=198)
    assert (data, 3) not in fan._FAN_CACHE
    assert len(fan_index(data, 3).reps) == 396
    assert (data, 3) in fan._FAN_CACHE


def test_fan_cache_is_bounded():
    from tropfan import fan

    keys = [(dataset([(q,)]), 2) for q in range(3 * fan._FAN_CACHE_SIZE)]
    for data, N in keys:
        fan_index(data, N)
        assert len(fan._FAN_CACHE) <= fan._FAN_CACHE_SIZE
    fan_index(*keys[-fan._FAN_CACHE_SIZE])  # a hit makes the oldest entry the newest
    fan_index(dataset([(-1,)]), 2)
    assert keys[-fan._FAN_CACHE_SIZE] in fan._FAN_CACHE
    assert keys[-fan._FAN_CACHE_SIZE + 1] not in fan._FAN_CACHE
    assert keys[0] not in fan._FAN_CACHE


@pytest.mark.parametrize("name", ["diag4", "nine_points"])
def test_tie_row_gauge_drops_the_last_block(name, request):
    data = request.getfixturevalue(name)
    N, d = 4, data.d
    for lift in data.lifts:
        for hi, lo in permutations(range(1, N + 1), 2):
            assert _tie_row(lift, hi, lo, N - 1) == _tie_row(lift, hi, lo, N)[: (N - 1) * (d + 1)]
        assert not any(_tie_row(lift, N, N + 1, N - 1))


RATIONAL_POINTS = [("1/2", "-2/3"), ("3/7", "1"), ("1/2", "-2/3"), ("-5/3", "2/7"), ("0", "3/2")]


@pytest.mark.parametrize("name", ["diag4", "nine_points", "rational"])
def test_tie_row_is_the_lift_times_the_fraction_row(name, request):
    data = dataset(RATIONAL_POINTS) if name == "rational" else request.getfixturevalue(name)
    N = 3
    for p, lift in zip(data.points, data.lifts):
        den = lcm(*(x.denominator for x in p))
        assert lift[0] == den
        for hi, lo, blocks in product(range(1, N + 2), range(1, N + 2), (N - 1, N)):
            row = _tie_row(lift, hi, lo, blocks)
            assert all(type(v) is int for v in row)
            assert row == tuple(den * v for v in tie_row_by_fractions(p, hi, lo, blocks, data.d))


def test_lifts_stay_out_of_equality_hash_and_repr():
    data = dataset(RATIONAL_POINTS)
    again = dataset(RATIONAL_POINTS)
    assert data == again and hash(data) == hash(again) and data.lifts == again.lifts
    assert "lifts" not in repr(data)


def rational_datasets(seed=20261019, count=6):
    """Points with denominators 2, 3 and 7 in d = 1..3, each set holding a
    coincident pair, and the same points times the lcm of their denominators."""
    rng = random.Random(seed)
    out = []
    for case in range(count):
        d, M = 1 + case % 3, 4 + case % 2
        pts = [tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))) for _ in range(d)) for _ in range(M)]
        pts[rng.randrange(1, M)] = pts[0]
        scale = lcm(*(x.denominator for p in pts for x in p))
        out.append((dataset(pts), dataset([tuple(scale * x for x in p) for p in pts])))
    return out


def fan_summary(data, target):
    """Everything the fan computations report that a rescaling of the points keeps."""
    n, m = 2, 1
    assigns = sorted(fan_index(data, n + m, use_cache=False).iter_assignments())
    levels = []
    for k in range(data.M + 1):
        report = level_set(data, n, m, target, k)
        levels.append(([g.key() for g in report.patterns], report.components, report.adjacency))
    cones = [
        (c.pattern.key(), c.dimension, describe_cone(2 * (data.d + 1), cone_constraints(c.pattern, data))[1])
        for c in enumerate_all_cones(data, 2)
    ]
    return assigns, levels, cones, affine_dim(data), lineality_dim(data, n + m)


def test_rational_data_matches_its_integer_multiple():
    """Tie rows come from each point's own integer lift, so rational points
    and the same points scaled to integers must give the same fans."""
    rng = random.Random(7)
    denominators = set()
    for data, scaled in rational_datasets():
        denominators |= {x.denominator for p in data.points for x in p}
        assert any(scaled.lifts[k] != data.lifts[k] for k in range(data.M))
        target = tuple(rng.choice((-1, 1)) for _ in range(data.M))
        assert fan_summary(data, target) == fan_summary(scaled, target)
    assert {2, 3, 7} <= denominators


def serial_pool(sizes: list) -> type:
    """A stand-in for ``multiprocessing.Pool`` whose ``imap`` maps lazily in
    this process and which appends the process count each pool asks for to
    ``sizes``.  Each task goes through a pickle round trip, as a real pool
    sends it, so no chunk sees what another one changed."""

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return (fn(pickle.loads(pickle.dumps(task))) for task in tasks)

    return SerialPool


def test_workers_are_clamped_to_the_cpu_count(monkeypatch, nine_points):
    """A huge --workers asks for no more processes than there are CPUs, and the
    enumeration does not depend on it.  The pool is a fake that maps serially."""
    import multiprocessing

    sizes = []
    monkeypatch.setattr(multiprocessing, "Pool", serial_pool(sizes))
    want = sorted(fan_index(nine_points, 3, use_cache=False).iter_assignments())
    got = sorted(fan_index(nine_points, 3, workers=10**6, use_cache=False).iter_assignments())
    assert got == want
    assert all(size <= (os.cpu_count() or 1) for size in sizes)


@pytest.fixture
def counted_serial_walk(monkeypatch):
    """(sizes, counts): two CPUs, so two workers split into chunks; pools
    that map in this process, so the chunks' LPs are counted too; and
    ``fan.max_slack`` counted into ``counts[-1]``."""
    import multiprocessing

    from tropfan import fan

    sizes, counts, real = [], [], fan.max_slack

    def counted(*args, **kwargs):
        counts[-1] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", serial_pool(sizes))
    monkeypatch.setattr(fan, "max_slack", counted)
    return sizes, counts


def record_walk(monkeypatch) -> tuple[list, list]:
    """(solved, kept): each child the walk solves an LP for, as (owner,
    optimum), and each leaf it keeps on its node's witness, as an owner
    list, appended as the walk makes them."""
    from tropfan import fan

    solved, kept, child, kept_part = [], [], fan._child, fan._kept_part

    def solving(data, R, owner, t, tableau):
        opt, out = child(data, R, owner, t, tableau)
        solved.append((owner + [t], opt))
        return opt, out

    def keeping(data, owner, tableau):
        t = kept_part(data, owner, tableau)
        if t is not None:
            kept.append(owner + [t])
        return t

    monkeypatch.setattr(fan, "_child", solving)
    monkeypatch.setattr(fan, "_kept_part", keeping)
    return solved, kept


def refuted_children(solved: list, kept: list, M: int, R: int) -> set[tuple[int, ...]]:
    """The children of the walk's nodes, over M distinct points into at most
    R parts, that took neither an LP nor their node's witness: those a
    learned nogood refuted.  The nodes are the root and each solved child
    above the leaves whose optimum is positive."""
    nodes = [[]] + [owner for owner, opt in solved if opt > 0 and len(owner) < M]
    children = {tuple(owner + [t]) for owner in nodes for t in range(min(max(owner, default=-1) + 2, R))}
    return children - {tuple(owner) for owner, _ in solved} - set(map(tuple, kept))


@pytest.mark.parametrize(
    "N, nodes, calls",
    [pytest.param(3, 1172, [715, 879], id="3-1172"), pytest.param(4, 4037, [2345, 2678], id="4-4037")],
)
def test_every_node_lp_is_solved_once_at_every_worker_count(
    counted_serial_walk, monkeypatch, nine_points, N, nodes, calls
):
    """Each prefix level grows from the one above and each chunk walks on from
    its node's tableau, so the nine-point walk solves each node's LP at most
    once under 1 and 2 workers.  Each of the ``nodes`` LPs the walk solved
    before it learned nogoods is now solved or refuted by one (1,394 and
    4,768 before the leaves kept on their node's witness).  The counts
    repeat run after run at each worker count, and differ between them:
    under a pool each chunk starts from a copy of the nogoods the prefix
    levels learned, while one worker keeps one store for every chunk."""
    sizes, counts = counted_serial_walk
    solved, kept = record_walk(monkeypatch)
    for workers in (1, 2, 1, 2):
        counts.append(0)
        solved.clear()
        kept.clear()
        fan_index(nine_points, N, workers=workers, use_cache=False)
        owners = [tuple(owner) for owner, _ in solved]
        assert len(set(owners)) == len(owners) == counts[-1]
        assert counts[-1] + len(refuted_children(solved, kept, nine_points.M, N)) == nodes
    assert sizes == [2, 2] and counts == calls * 2


@pytest.mark.parametrize("cap, calls", [(200, [271, 306]), (1000, [1712, 1595])])
def test_cap_stops_the_walk_at_every_worker_count(counted_serial_walk, nine_points, cap, calls):
    """The chunks are read in order as they finish, and the walk stops after
    the first one that passes the cap, so under 2 workers a cap failure at
    N = 4 solves far fewer node LPs than the whole walk's 2,678."""
    from tropfan.fan import CapExceededError

    sizes, counts = counted_serial_walk
    for workers in (1, 2):
        counts.append(0)
        with pytest.raises(CapExceededError):
            fan_index(nine_points, 4, cap=cap, workers=workers, use_cache=False)
    assert sizes == [2] and counts == calls and counts[1] < 2678


COPIES = {
    "last": lambda pts: pts + [pts[2]],
    "middle": lambda pts: pts[:3] + [pts[1]] + pts[3:],
    "three": lambda pts: pts[:2] + [pts[0]] + pts[2:] + [pts[0]],
}


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("where", COPIES)
def test_walk_visits_each_coincident_point_once(counted_serial_walk, nine_points, where, N):
    """Copies placed last, in the middle and as a group of three: the walk
    lists the former walk's classes, parts and order, and its witnesses
    realize them, under 1 and 2 workers.  It walks the distinct points
    only, so at each worker count it solves as many node LPs as the dataset
    without the copies, and the cap still counts classes."""
    from tropfan.fan import CapExceededError

    pts = list(nine_points.points[:6])
    data, distinct = dataset(COPIES[where](pts)), dataset(pts)
    want = [cone.parts for cone in canonical_cones_by_hull_pruning(data, N)]
    sizes, counts = counted_serial_walk
    for workers in (1, 2):
        counts.append(0)
        index = fan_index(data, N, workers=workers, use_cache=False)
        counts.append(0)
        fan_index(distinct, N, workers=workers, use_cache=False)
        assert counts[-2] == counts[-1] > 0
        assert [rep.parts for rep in index.reps] == want
        for rep in index.reps:
            perm = range(1, len(rep.parts) + 1)
            theta = theta_from_vector(next(index._witnesses(rep, [perm]))[1], N, data.d)
            assign = [t for k in range(data.M) for t in perm if k in rep.parts[t - 1]]
            assert pattern_of(theta, data).assignment() == tuple(assign)
        with pytest.raises(CapExceededError):
            fan_index(data, N, cap=len(want) - 1, workers=workers, use_cache=False)
        assert len(fan_index(data, N, cap=len(want), workers=workers, use_cache=False).reps) == len(want)
    assert sizes == [2] * 4


def realizes_by_fractions(data, rep) -> bool:
    """Whether rep's witness, as Fractions over its denominator, puts every
    point's own part strictly above every other part and above the padding
    constant: the canonical labeling, computed from the points themselves."""
    blocks = [[F(v, rep.den) for v in block] for block in rep.witness_blocks]
    owner = {k: t for t, part in enumerate(rep.parts) for k in part}
    for k, p in enumerate(data.points):
        values = [block[0] + sum(s * x for s, x in zip(block[1:], p)) for block in blocks]
        own = values.pop(owner[k])
        if not all(own > v for v in values + [rep.pad_a]):
            return False
    return True


def test_leaves_kept_on_their_nodes_witness(monkeypatch, nine_points):
    """At N = 4 the nine-point walk keeps some leaves on their node's witness
    with no LP, and refutes other children by learned nogoods: each of the
    4,768 nodes that took one LP apiece before either is solved, is kept or
    is refuted.  Every stored witness realizes its class."""
    from tropfan import fan

    calls, real_lp = [], fan.max_slack

    def counted(*args, **kwargs):
        calls.append(1)
        return real_lp(*args, **kwargs)

    solved, kept = record_walk(monkeypatch)
    monkeypatch.setattr(fan, "max_slack", counted)
    index = fan_index(nine_points, 4, use_cache=False)
    refuted = refuted_children(solved, kept, nine_points.M, 4)
    assert len(kept) > 0 and len(refuted) > 0 and len(calls) + len(kept) + len(refuted) == 4768
    reps = {tuple(tuple(k for k, t in enumerate(owner) if t == p) for p in range(max(owner) + 1)) for owner in kept}
    assert reps <= {rep.parts for rep in index.reps}
    assert all(realizes_by_fractions(nine_points, rep) for rep in index.reps)


def test_warm_walk_certificates_are_checked(spoil_multipliers, nine_points):
    """Every infeasible child of the walk is refused only after its warm
    Farkas multipliers, over every row of its tableau, pass the exact check
    in ``max_slack``; multipliers spoiled where they are read raise through
    ``fan_index``."""
    assert len(fan_index(nine_points, 4, use_cache=False).reps) == 1755  # positive control
    for corrupt in ("flip", "zero", "move"):
        spoil_multipliers(corrupt)
        with pytest.raises(AssertionError, match="certificate"):
            fan_index(nine_points, 4, use_cache=False)


def degenerate_sets(seed=20261021):
    """(data, N) for d = 1..3 and N = 2..4: six seeded integer points, one
    more collinear with the first two, a copy of one point and two copies of
    another, in a seeded order."""
    rng = random.Random(seed)
    out = []
    for d in (1, 2, 3):
        for N in (2, 3, 4):
            pts = set()
            while len(pts) < 6:
                pts.add(tuple(rng.randint(-4, 4) for _ in range(d)))
            pts = sorted(pts)
            rng.shuffle(pts)
            pts.append(tuple(2 * q - p for p, q in zip(pts[0], pts[1])))
            pts += [pts[2], pts[3], pts[3]]
            rng.shuffle(pts)
            out.append((dataset(pts), N))
    return out


def test_refuted_children_are_infeasible_and_the_walk_is_unchanged(counted_serial_walk, monkeypatch):
    """On seeded sets with coincident groups of 2 and 3 and a collinear
    triple, under 1 and 2 workers: the classes, their order and their
    witnesses are those of the walk without nogoods, and every child a
    learned nogood refuted is infeasible by a cold strict LP on its own
    rows."""
    from tropfan.fan import _distinct, _pattern_system
    from tropfan.geometry import max_slack

    def reps(index):
        return [(r.parts, r.witness_blocks, r.den, r.pad_a) for r in index]

    sizes, counts = counted_serial_walk
    counts.append(0)
    sets = degenerate_sets()
    want = [reps(canonical_cones_without_nogoods(data, N)) for data, N in sets]
    solved, kept = record_walk(monkeypatch)
    total = 0
    for (data, N), cones in zip(sets, want):
        walk = _distinct(data)[0]
        for workers in (1, 2):
            solved.clear()
            kept.clear()
            assert reps(fan_index(data, N, workers=workers, use_cache=False).reps) == cones
            refuted = refuted_children(solved, kept, walk.M, min(N, walk.M))
            for child in refuted:
                dim, rows, _ = _pattern_system(walk, [(k, (t + 1,)) for k, t in enumerate(child)])
                assert max_slack(dim, (), rows)[0] == 0, child
            total += len(refuted)
    assert total > 0 and 2 in sizes


def test_a_kept_leaf_in_the_wrong_part_fails_the_leaf_check(monkeypatch, nine_points):
    """A helper that names an open part other than the one the node's witness
    puts the last point in yields a leaf whose witness ``_leaf_cone``
    refuses: the integer check guards every kept leaf."""
    from tropfan import fan

    real = fan._kept_part

    def wrong(data, owner, tableau):
        t, r = real(data, owner, tableau), max(owner, default=-1) + 1
        return t if t is None or r < 2 else (t + 1) % r

    monkeypatch.setattr(fan, "_kept_part", wrong)
    with pytest.raises(AssertionError, match="leaf witness"):
        fan_index(nine_points, 4, use_cache=False)
