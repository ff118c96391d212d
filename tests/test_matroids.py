import random
from itertools import combinations, permutations

import pytest

from oracles import (
    ComparabilityGraph,
    comparability_graph,
    is_acyclic,
    om_axioms_by_scan,
    pattern_axioms_by_scan,
)
from tropfan import matroids
from tropfan.classify import covectors_linear
from tropfan.fan import (
    ActivationPattern,
    complete_pattern,
    dataset,
    enumerate_all_cones,
    pattern_from_assignment,
)
from tropfan.matroids import om_axioms_check, pattern_axioms_check, pattern_compose


def test_om_zero_only():
    report = om_axioms_check({(0,)})
    assert report.all_passed


def test_om_single_plus_fails():
    report = om_axioms_check({(1,)})
    assert not report.result("zero").passed
    assert not report.result("symmetry").passed


def test_om_realizable_arrangement():
    covs = covectors_linear(dataset([(1,), (2,)]))
    assert om_axioms_check(covs).all_passed


def test_om_all_line_datasets(five_line, four_line):
    for data in (five_line, four_line):
        assert om_axioms_check(covectors_linear(data)).all_passed


def test_om_witness_reproduces():
    covs = set(covectors_linear(dataset([(1,), (2,)])))
    covs.discard((0, 0))
    report = om_axioms_check(covs)
    assert not report.result("zero").passed
    assert report.result("zero").witness == (0, 0)


def test_om_rejects_covectors_of_different_lengths():
    with pytest.raises(ValueError, match="length"):
        om_axioms_check({(0, 0), (1,), (-1,)})


def test_om_rejects_entries_outside_the_signs():
    with pytest.raises(ValueError, match="entries"):
        om_axioms_check({(0,), (2,), (-2,)})


def _corrupted_covector_sets(count, seed):
    """Covector sets of fans on 1 to 5 random points on a line or in the
    plane, some whole and some with covectors dropped and random sign
    vectors added, so that each axiom both passes and fails among them."""
    rng = random.Random(seed)
    bases = []
    for M in range(1, 6):
        for d in (1, 2):
            points = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(M)]
            bases.append(covectors_linear(dataset(points)))
    for _ in range(count):
        base = rng.choice(bases)
        M = len(base[0])
        drop = rng.choice((0.0, 0.05, 0.2))
        covs = [c for c in base if rng.random() >= drop]
        covs += [tuple(rng.choice((-1, 0, 1)) for _ in range(M)) for _ in range(rng.randint(0, 2))]
        if covs:
            yield covs


def test_om_axioms_match_the_scanning_oracle():
    """Same reports, witnesses included, as the exhaustive scan."""
    failed, whole = set(), 0
    for covs in _corrupted_covector_sets(320, seed=19):
        got = om_axioms_check(covs)
        assert got == om_axioms_by_scan(covs), covs
        failed |= {r.name for r in got.failed()}
        whole += got.all_passed
    assert failed == {"zero", "symmetry", "composition", "elimination"}
    assert whole > 0


def test_pattern_compose_rules():
    G = ActivationPattern(1, 3, (frozenset({1, 2}),))
    H = ActivationPattern(1, 3, (frozenset({2, 3}),))
    assert pattern_compose(G, H).neighbors == (frozenset({2}),)
    G2 = ActivationPattern(1, 3, (frozenset({1}),))
    H2 = ActivationPattern(1, 3, (frozenset({3}),))
    assert pattern_compose(G2, H2).neighbors == (frozenset({1}),)


def test_pattern_compose_with_complete_graph(two_points):
    G = pattern_from_assignment((1, 3), 4)
    K = complete_pattern(2, 4)
    assert pattern_compose(G, K) == G


def test_comparability_identical_patterns():
    G = ActivationPattern(1, 3, (frozenset({1, 2}),))
    cg = comparability_graph(G, G, 0)
    assert cg.directed == frozenset()
    assert cg.undirected == {frozenset({1, 2})}
    assert is_acyclic(cg)


def test_comparability_single_arc():
    G = ActivationPattern(1, 3, (frozenset({1}),))
    H = ActivationPattern(1, 3, (frozenset({2}),))
    cg = comparability_graph(G, H, 0)
    assert cg.directed == {(1, 2)}
    assert is_acyclic(cg)


def test_comparability_fabricated_cycle_flagged():
    cg = ComparabilityGraph(2, frozenset({(1, 2), (2, 1)}), frozenset())
    assert not is_acyclic(cg)


def test_comparability_directed_edge_inside_contraction():
    cg = ComparabilityGraph(2, frozenset({(1, 2)}), frozenset({frozenset({1, 2})}))
    assert not is_acyclic(cg)


def _term_sets(N):
    return [frozenset(S) for r in range(1, N + 1) for S in combinations(range(1, N + 1), r)]


@pytest.mark.parametrize("N", range(1, 7))
def test_comparability_lemma_holds_for_every_pair_of_term_sets(N):
    """The lemma behind the unconditional comparability verdict: at one
    point, the comparability graph of any two nonempty term sets is acyclic."""
    sets = _term_sets(N)
    for a in sets:
        G = ActivationPattern(1, N, (a,))
        for b in sets:
            assert is_acyclic(comparability_graph(G, ActivationPattern(1, N, (b,)), 0)), (a, b)


def _random_pattern_sets(count, seed):
    """Small pattern sets, some closed under term permutations and some
    holding every boundary pattern, so that each property both passes and
    fails among them."""
    rng = random.Random(seed)
    for _ in range(count):
        M, N = rng.randint(1, 3), rng.randint(1, 4)
        terms = range(1, N + 1)
        subsets = _term_sets(N)
        pats = {
            ActivationPattern(M, N, tuple(rng.choice(subsets) for _ in range(M)))
            for _ in range(rng.randint(1, 5))
        }
        if rng.random() < 0.5:
            pats |= {p.relabel(dict(zip(terms, perm))) for p in pats for perm in permutations(terms)}
        if rng.random() < 0.5:
            pats |= {ActivationPattern(M, N, (S,) * M) for S in subsets}
        rng.random()  # unused; keeps the sequence of sets that seed 2024 gives
        yield sorted(pats, key=ActivationPattern.key)


def test_pattern_axioms_match_the_scanning_oracle():
    """Same verdicts as the exhaustive scan, and the same witnesses except
    for symmetry, whose witness is now a violated adjacent transposition."""
    failed = set()
    for pats in _random_pattern_sets(150, seed=2024):
        got = pattern_axioms_check(pats)
        want = pattern_axioms_by_scan(pats)
        assert [r.name for r in got.results] == [r.name for r in want.results]
        for g, w in zip(got.results, want.results):
            assert g.passed == w.passed, (g, w)
            if not w.passed:
                failed.add(w.name)
            if g.name != "symmetry":
                assert g.witness == w.witness, (g, w)
            elif not g.passed:
                p, perm = g.witness
                moved = [t for t in range(1, p.N + 1) if perm[t - 1] != t]
                assert len(moved) == 2 and moved[1] == moved[0] + 1
                assert p in pats and p.relabel(dict(zip(range(1, p.N + 1), perm))) not in pats
    # every property that can fail did fail on some set
    assert failed == {"complete_graph", "symmetry", "composition", "elimination", "boundary"}


def test_pattern_axioms_reject_mixed_shapes():
    """Checked before any property: a term beyond the first pattern's N
    used to end in ``KeyError`` while relabeling."""
    P1 = ActivationPattern(1, 2, (frozenset({1}),))
    P2 = ActivationPattern(1, 2, (frozenset({2}),))
    with pytest.raises(ValueError, match="shapes"):
        pattern_axioms_check([P1, P2, ActivationPattern(1, 3, (frozenset({3}),))])
    with pytest.raises(ValueError, match="shapes"):
        pattern_axioms_check([P1, P2, ActivationPattern(2, 2, (frozenset({1}),) * 2)])


def test_both_checks_pass_on_the_nine_point_fan(nine_points):
    """All axioms on the 279 cones of the nine-point fan with N = 2.  The
    former scans took 5 to 8 s here on 2 CPUs; the mask checks take under
    0.3 s together."""
    cones = enumerate_all_cones(nine_points, 2)
    assert len(cones) == 279
    pattern_report = pattern_axioms_check([c.pattern for c in cones])
    assert len(pattern_report.results) == 6 and pattern_report.all_passed
    om_report = om_axioms_check(covectors_linear(nine_points, cones))
    assert len(om_report.results) == 4 and om_report.all_passed


def test_pattern_axioms_build_no_comparability_graph(two_points):
    assert not {"comparability_graph", "is_acyclic", "ComparabilityGraph"} & set(vars(matroids))
    cones = enumerate_all_cones(two_points, 3)
    report = pattern_axioms_check([c.pattern for c in cones])
    assert report.all_passed and report.result("comparability").witness is None


def test_pattern_axioms_negative_control_symmetry(two_points):
    """Keep one maximal pattern with two distinct terms and drop its
    relabelings: the witness is that pattern with the first adjacent
    transposition that maps it out of the set."""
    G = pattern_from_assignment((1, 2), 3)

    def two_terms(p):
        return p.is_degree_one() and len(set(p.assignment())) == 2

    pats = [c.pattern for c in enumerate_all_cones(two_points, 3)]
    broken = [p for p in pats if p == G or not two_terms(p)]
    report = pattern_axioms_check(broken)
    assert not report.result("symmetry").passed
    assert report.result("symmetry").witness == (G, (2, 1, 3))


def test_pattern_axioms_negative_control_elimination():
    """Without the pattern {1, 2}, the union of {1} and {2} at the point has
    no pattern; composition and symmetry still hold."""
    P1 = ActivationPattern(1, 2, (frozenset({1}),))
    P2 = ActivationPattern(1, 2, (frozenset({2}),))
    report = pattern_axioms_check([P1, P2])
    assert report.result("symmetry").passed and report.result("composition").passed
    assert not report.result("elimination").passed
    assert report.result("elimination").witness == (P1, P2, 0)


def test_pattern_axioms_single_point():
    cones = enumerate_all_cones(dataset([(0,)]), 2)
    report = pattern_axioms_check([c.pattern for c in cones])
    assert report.all_passed


def test_pattern_axioms_two_points_three_terms(two_points):
    cones = enumerate_all_cones(two_points, 3)
    report = pattern_axioms_check([c.pattern for c in cones])
    assert report.all_passed, report.failed()


def test_pattern_axioms_three_points_two_terms():
    D = dataset([(0, 0), (1, 0), (0, 1)])
    cones = enumerate_all_cones(D, 2)
    report = pattern_axioms_check([c.pattern for c in cones])
    assert report.all_passed, report.failed()


def test_pattern_axioms_negative_control_missing_complete(two_points):
    cones = enumerate_all_cones(two_points, 3)
    K = complete_pattern(2, 3)
    pats = [c.pattern for c in cones if c.pattern != K]
    report = pattern_axioms_check(pats)
    assert not report.result("complete_graph").passed
    assert report.result("complete_graph").witness == K


def test_tom_boundary_types_on_slice():
    """Far along a coordinate direction every tropical hyperplane activates
    only that coordinate, so all constant types ({j},...,{j}) occur."""
    from fractions import Fraction as F

    from tropfan.dual import tropical_type

    apices = [(F(0), F(3)), (F(-2), F(1)), (F(5), F(5))]
    d = 2
    for j in range(1, d + 1):
        spread = max(abs(a[k]) for a in apices for k in range(d))
        x = tuple(F(4 * spread + 1) if k == j - 1 else F(0) for k in range(d))
        assert tropical_type(apices, x) == (frozenset({j}),) * len(apices)
