import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from oracles import (
    boundary_segments_by_fractions,
    decision_boundary_by_all_pairs,
    dual_edges_by_relint,
    grid_pairs_only,
)
from tropfan import dual, geometry
from tropfan.dual import (
    _boundary_segments,
    _sig_digits,
    decision_boundary,
    dual_edges,
    render_svg,
    tropical_type,
)
from tropfan.fan import pattern_of
from tropfan.geometry import max_slack
from tropfan.jsonio import loads, rational_from_json
from tropfan.rationals import integerize
from tropfan.relu import net_to_tropical, network, prune_terms
from tropfan.tropical import (
    SignomialParams,
    TropicalRationalParams,
    eval_rational,
    eval_signomial,
    integer_terms,
    signomial,
)

WINDOW = (F(-4), F(4), F(-4), F(4))


def clip(theta, window):
    """The integer SVG clip of theta's sign-mixed pairs to the window."""
    box, wden = integerize(window)
    return _boundary_segments(integer_terms(theta.merged().terms), theta.n, box, wden)


def window_restricted(theta, edges, window):
    """Edges whose cell meets the open window, decided by a strict LP."""
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
            (F(1), F(0), F(0)),  # w > 0
            (-xmin, F(1), F(0)),
            (xmax, F(-1), F(0)),
            (-ymin, F(0), F(1)),
            (ymax, F(0), F(-1)),
        )
        nonstrict = tuple(rows) + (eq, tuple(-x for x in eq))
        if max_slack(3, [integerize(f)[0] for f in nonstrict], [integerize(f)[0] for f in strict])[0] > 0:
            out.add((e.i, e.j))
    return out


def test_parallel_terms_no_edge():
    sig = signomial([(1, (2, 0)), (0, (2, 0))])
    assert dual_edges(sig) == []


def test_absolute_value_edge():
    sig = signomial([(0, (1,)), (0, (-1,))])
    edges = dual_edges(sig)
    assert [(e.i, e.j, e.cell_dim) for e in edges] == [(1, 2, 0)]


def test_running_example_edges(running_theta4):
    got = {(e.i, e.j) for e in dual_edges(running_theta4)}
    assert got == {(1, 2), (1, 3), (2, 3), (1, 4), (3, 4)}
    oracle = grid_pairs_only(running_theta4, WINDOW, 48)
    assert oracle == got  # every cell of this example meets the window


def test_decision_boundary_gh_identical():
    g = signomial([(0, (1, 0)), (0, (0, 1))])
    theta = TropicalRationalParams(g, g)
    got = {(e.i, e.j) for e in decision_boundary(theta)}
    # every cross pair with a nonempty (d-1)-cell; the classifier is 0 on all of R^2
    assert got == {(1, 4), (2, 3)}
    for e in decision_boundary(theta):
        assert e.sign_mixed


def test_decision_boundary_running_example(running_theta_split):
    got = {(e.i, e.j) for e in decision_boundary(running_theta_split)}
    assert got == {(1, 3), (2, 3), (1, 4)}


def test_decision_boundary_bounded_negative_cell():
    theta = TropicalRationalParams(
        signomial([(0, (1, 0)), (0, (0, 1)), (0, (-1, -1))]),
        signomial([(1, (0, 0))]),
    )
    got = {(e.i, e.j) for e in decision_boundary(theta)}
    assert got == {(1, 4), (2, 4), (3, 4)}  # three edges enclosing the negative cell
    oracle = grid_pairs_only(theta.merged(), WINDOW, 48)
    assert oracle == {(e.i, e.j) for e in dual_edges(theta.merged())}
    assert got == {(i, j) for i, j in oracle if (i <= 3) != (j <= 3)}


def test_sign_mixed_filter(running_theta_split):
    merged_edges = {(e.i, e.j) for e in dual_edges(running_theta_split.merged())}
    boundary = decision_boundary(running_theta_split)
    for e in boundary:
        assert (e.i, e.j) in merged_edges
        assert (e.i <= 2) != (e.j <= 2)


def random_theta(rng, max_terms=3):
    def term():
        return (
            F(rng.randint(-6, 6), rng.choice((1, 2))),
            (F(rng.randint(-2, 2)), F(rng.randint(-2, 2))),
        )

    num = tuple(term() for _ in range(rng.randint(1, max_terms)))
    den = tuple(term() for _ in range(rng.randint(1, max_terms)))
    return TropicalRationalParams(SignomialParams(num, 2), SignomialParams(den, 2))


def test_dual_edges_oracle_random():
    rng = random.Random(42)
    for _ in range(8):
        theta = random_theta(rng)
        merged = theta.merged()
        exact = dual_edges(merged)
        exact_window = window_restricted(theta, exact, WINDOW)
        for steps in (32, 64, 128):
            oracle = grid_pairs_only(merged, WINDOW, steps)
            assert oracle <= {(e.i, e.j) for e in exact}  # oracle never over-reports
            if oracle == exact_window:
                break
        assert oracle == exact_window


def test_zero_on_boundary_cells(running_theta_split):
    """Points solved exactly from a boundary cell's equality system evaluate
    to exactly zero."""
    from oracles import grid_boundary_pairs

    crossings = grid_boundary_pairs(running_theta_split.merged(), WINDOW, 48)
    assert crossings
    count = 0
    for (i, j), x in crossings:
        if (i <= 2) != (j <= 2):
            assert eval_rational(running_theta_split, x) == 0
            count += 1
    assert count > 0


def test_hundred_exact_points_on_one_cell(running_theta_split):
    """Parametrize a boundary cell from its tie equation and walk 100 exact
    rational points along it; the classifier is zero at every one."""
    merged = running_theta_split.merged()
    edge = next(e for e in decision_boundary(running_theta_split) if (e.i, e.j) == (1, 3))
    a_i, s_i = merged.terms[edge.i - 1]
    a_j, s_j = merged.terms[edge.j - 1]
    normal = tuple(u - v for u, v in zip(s_i, s_j))
    base = ((a_j - a_i) / normal[0], F(0))
    direction = (-normal[1], normal[0])
    from tropfan.tropical import eval_signomial

    rng = random.Random(4)
    kept = 0
    while kept < 100:
        t = F(rng.randint(-4000, 4000), 1009)
        x = (base[0] + t * direction[0], base[1] + t * direction[1])
        _, arg = eval_signomial(merged, x)
        if not {edge.i, edge.j} <= arg:
            continue  # outside the cell's extent
        assert eval_rational(running_theta_split, x) == 0
        kept += 1


def test_tropical_type_values():
    assert tropical_type([(F(0), F(0))], (F(1), F(0))) == (frozenset({1}),)
    assert tropical_type([(F(0), F(0))], (F(0), F(0))) == (frozenset({1, 2}),)
    assert tropical_type([(F(0), F(0)), (F(1), F(-1))], (F(0), F(0))) == (
        frozenset({1, 2}),
        frozenset({1}),
    )


def test_tropical_type_dimension_mismatch():
    with pytest.raises(ValueError):
        tropical_type([(F(0),)], (F(0), F(0)))


def test_slice_property_matches_pattern(two_points):
    """With unit-vector slopes the activation pattern is the tuple of tropical
    covector entries of the coefficient vector."""
    rng = random.Random(9)
    for _ in range(10):
        a = tuple(F(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(2))
        sig = SignomialParams(((a[0], (F(1), F(0))), (a[1], (F(0), F(1)))), 2)
        G = pattern_of(sig, two_points)
        types = tropical_type(list(two_points.points), a)
        assert G.neighbors == types


def test_sig_digits():
    assert _sig_digits(F(0)) == "0"
    assert _sig_digits(F(1, 3)) == "0.333333333"
    assert _sig_digits(F(20)) == "20"
    assert _sig_digits(F(-1, 8)) == "-0.125"
    assert _sig_digits(F(123456789123, 100)) == "1234567890"
    # nine significant digits below 1e-9 too, and no "-0" for a tiny negative
    assert _sig_digits(F(1, 3 * 10**9)) == "0.000000000333333333"
    assert _sig_digits(F(-1, 10**20)) == "-0.00000000000000000001"
    # halfway cases round to the even last digit
    assert _sig_digits(F(1000000005, 10**9)) == "1"
    assert _sig_digits(F(-1000000015, 10**9)) == "-1.00000002"


def test_render_svg_vertical_line():
    theta = TropicalRationalParams(signomial([(0, (1, 0))]), signomial([(0, (0, 0))]))
    svg = render_svg(theta, None, (F(-3), F(3), F(-3), F(3)))
    assert svg.count("<line") == 1
    # the boundary x = 0 maps to the pixel-space vertical midline
    assert 'x1="320" y1="620" x2="320" y2="20"' in svg or 'x1="320" y1="20" x2="320" y2="620"' in svg


def test_render_svg_deterministic(running_theta_split, two_points):
    window = (F(-3), F(3), F(-3), F(3))
    one = render_svg(running_theta_split, two_points, window)
    two = render_svg(running_theta_split, two_points, window)
    assert one == two
    assert one.count("<line") == 3  # matches the three sign-mixed edges
    assert one.count("<circle") == 2


def test_render_svg_rejects_other_dimensions():
    theta = TropicalRationalParams(signomial([(0, (1,))]), signomial([(0, (0,))]))
    with pytest.raises(ValueError):
        render_svg(theta, None, (F(-1), F(1), F(-1), F(1)))


def tied_theta(rng, d):
    """Coefficients and slope entries in {-1, 0, 1}, and about a third of the
    denominator terms copied from the numerator: many equal slopes, identical
    terms and concurrent cells."""

    def term():
        return (F(rng.randint(-1, 1)), tuple(F(rng.randint(-1, 1)) for _ in range(d)))

    num = tuple(term() for _ in range(rng.randint(1, 4)))
    den = tuple(rng.choice(num) if rng.random() < 0.3 else term() for _ in range(rng.randint(1, 3)))
    return TropicalRationalParams(SignomialParams(num, d), SignomialParams(den, d))


EQUAL_SLOPES = TropicalRationalParams(
    signomial([(0, (0, 0)), (0, (0, 1)), (0, (0, -1))]), signomial([(0, (0, 0))])
)

SPECIAL_THETAS = [
    EQUAL_SLOPES,
    # equal slopes with different coefficients: their cell is empty
    TropicalRationalParams(signomial([(1, (1, 0)), (0, (0, 1))]), signomial([(0, (1, 0))])),
    # identical numerator and denominator
    TropicalRationalParams(
        signomial([(0, (1, 0)), (0, (0, 1))]), signomial([(0, (1, 0)), (0, (0, 1))])
    ),
    # three terms with collinear slopes, all tied on the line x = 0
    TropicalRationalParams(signomial([(0, (0, 0)), (0, (2, 0))]), signomial([(0, (1, 0))])),
    # identical terms 1 and 3 whose region is empty: term 2 lies above them
    TropicalRationalParams(signomial([(0, (0, 0)), (1, (0, 0))]), signomial([(0, (0, 0))])),
]


def test_decision_boundary_matches_the_all_pairs_oracle():
    rng = random.Random(8)
    thetas = SPECIAL_THETAS + [tied_theta(rng, d) for d in (1, 2, 2, 3) for _ in range(15)]
    for theta in thetas:
        assert decision_boundary(theta) == decision_boundary_by_all_pairs(theta)


# Sides in sevenths: no cell line of a tied theta (intercepts in halves) runs
# along them, so the closed-window clip and the open-window LP agree.
OFF_WINDOW = (F(-27, 7), F(29, 7), F(-26, 7), F(30, 7))


def test_boundary_segments_are_the_window_restricted_boundary():
    rng = random.Random(11)
    for theta in SPECIAL_THETAS + [tied_theta(rng, 2) for _ in range(40)]:
        merged = theta.merged()
        segments = clip(theta, OFF_WINDOW)
        restricted = window_restricted(theta, decision_boundary(theta), OFF_WINDOW)
        distinct = {(i, j) for i, j in restricted if merged.terms[i - 1][1] != merged.terms[j - 1][1]}
        assert [(i, j) for _, _, i, j in segments] == sorted(distinct)
        for i, j in restricted - distinct:
            # an identical pair's cell is term i's region, drawn by another pair
            assert any(
                {i, j} <= eval_signomial(merged, p0)[1] and {i, j} <= eval_signomial(merged, p1)[1]
                for p0, p1, _, _ in segments
            )


def test_render_svg_solves_no_lp(monkeypatch, running_theta_split, two_points):
    calls = []
    max_slack = geometry.max_slack

    def counted(*args, **kwargs):
        calls.append(args)
        return max_slack(*args, **kwargs)

    monkeypatch.setattr(geometry, "max_slack", counted)
    render_svg(running_theta_split, two_points, WINDOW)
    assert calls == []
    decision_boundary(running_theta_split)  # positive control: the cell LPs are counted
    assert calls


def test_render_svg_equal_slopes():
    assert (1, 4) in {(e.i, e.j) for e in decision_boundary(EQUAL_SLOPES)}
    svg = render_svg(EQUAL_SLOPES, None, WINDOW)
    # the boundary y = 0 maps to the pixel-space horizontal midline
    assert 'y1="320"' in svg and 'y2="320"' in svg
    assert all('y1="320"' in line and 'y2="320"' in line for line in svg.splitlines() if "<line" in line)


def tied_line_theta(rng, d, c):
    """Terms i and j with distinct slopes, a term k with
    term_i - term_k = c (term_i - term_j), which ties i and j on their whole
    tie hyperplane, and one free term, shuffled over both blocks."""

    def term():
        return (F(rng.randint(-2, 2)), tuple(F(rng.randint(-2, 2)) for _ in range(d)))

    (a_i, s_i), (a_j, s_j) = term(), term()
    while s_i == s_j:
        a_j, s_j = term()
    k = (a_i - c * (a_i - a_j), tuple(u - c * (u - v) for u, v in zip(s_i, s_j)))
    terms = [(a_i, s_i), (a_j, s_j), k, term()]
    rng.shuffle(terms)
    split = rng.randint(1, 3)
    return TropicalRationalParams(
        SignomialParams(tuple(terms[:split]), d), SignomialParams(tuple(terms[split:]), d)
    )


EDGE_CASES = [
    # d = 1: equal slopes with different heights, and an identical g/h pair
    TropicalRationalParams(signomial([(1, (1,)), (0, (-1,))]), signomial([(0, (1,))])),
    TropicalRationalParams(signomial([(0, (1,)), (0, (-1,))]), signomial([(0, (-1,)), (2, (0,))])),
    # d = 3: the same two cases
    TropicalRationalParams(
        signomial([(1, (1, 0, 0)), (0, (0, 1, 0))]), signomial([(0, (1, 0, 0)), (0, (0, 0, 1))])
    ),
    TropicalRationalParams(
        signomial([(0, (1, 0, 0)), (0, (0, 1, 0))]), signomial([(0, (0, 1, 0)), (0, (0, 0, 1))])
    ),
]


def test_edges_match_the_relint_oracle():
    """The one strict LP per pair decides as the per-pair relative-interior
    dimension does, on ties along whole lines of either sign of the multiple."""
    rng = random.Random(12)
    multiples = (F(1, 2), F(2), F(-1), F(-1, 3))
    thetas = SPECIAL_THETAS + EDGE_CASES
    thetas += [tied_line_theta(rng, d, c) for d in (1, 2, 3) for c in multiples for _ in range(3)]
    thetas += [tied_theta(rng, d) for d in (1, 3) for _ in range(10)]
    edges = 0
    for theta in thetas:
        got = decision_boundary(theta)
        assert got == decision_boundary_by_all_pairs(theta)
        assert dual_edges(theta.merged()) == dual_edges_by_relint(theta.merged())
        edges += len(got)
    assert edges > len(thetas)


# A window whose sides have four different denominators.
MIXED_WINDOW = (F(-7, 2), F(11, 3), F(-13, 5), F(25, 7))

AXIS_THETAS = [
    # horizontal line y = -1/2 (n0 = 0) and vertical line x = 1/3 (n1 = 0)
    TropicalRationalParams(signomial([(1, (0, 2))]), signomial([(0, (0, 0))])),
    TropicalRationalParams(signomial([(-1, (3, 0)), (0, (-1, -1))]), signomial([(0, (0, 0))])),
]


def test_integer_clip_matches_the_fraction_clip():
    rng = random.Random(13)
    thetas = SPECIAL_THETAS + AXIS_THETAS + [tied_theta(rng, 2) for _ in range(40)]
    thetas += [random_theta(rng) for _ in range(20)]
    segments = 0
    for window in (WINDOW, OFF_WINDOW, MIXED_WINDOW):
        for theta in thetas:
            got = clip(theta, window)
            assert got == boundary_segments_by_fractions(theta, window)
            segments += len(got)
    assert segments > len(thetas)
    assert [(p0, p1) for p0, p1, _, _ in clip(AXIS_THETAS[0], WINDOW)] == [
        ((F(4), F(-1, 2)), (F(-4), F(-1, 2)))
    ]


README_THETA = Path(__file__).resolve().parent.parent / "data" / "running_theta.json"


def count_boundary_calls(monkeypatch):
    """Rebind dual's LP entry points so each call is tallied: a region LP
    (``lp_feasible`` with strict rows only), a pair LP (``lp_feasible`` with
    the tie as an equality) or a ``describe_cone`` call.  Returns the tally."""
    counts = {"region": 0, "pair": 0, "describe_cone": 0}
    lp_feasible, describe_cone = dual.lp_feasible, dual.describe_cone

    def counted_lp(*args, **kwargs):
        counts["pair" if "equalities" in kwargs else "region"] += 1
        return lp_feasible(*args, **kwargs)

    def counted_cone(*args, **kwargs):
        counts["describe_cone"] += 1
        return describe_cone(*args, **kwargs)

    monkeypatch.setattr(dual, "lp_feasible", counted_lp)
    monkeypatch.setattr(dual, "describe_cone", counted_cone)
    return counts


def test_boundary_lp_counts_are_pinned(monkeypatch):
    """One region LP per distinct merged term a pair asks about, a pair LP
    only where the region witnesses leave the pair open, and
    ``describe_cone`` only for identical terms whose region is empty.  The
    README theta has 2 + 2 terms with four distinct slopes: 4 region LPs,
    and the crossings of the witnesses certify its three edges, so only the
    pair (2, 4) takes a pair LP (one LP per pair took 4).  Identical g and h
    of two terms: 2 region LPs, both nonempty, so the identical pairs (1, 3)
    and (2, 4) take no ``describe_cone`` call (they took one each) and the
    crossings certify (1, 4) and (2, 3).  Equal slopes with different
    heights, (1, 3) of the second special theta, take no LP; its pair
    (2, 3) is refuted by the empty region of term 3 with no pair LP."""
    counts = count_boundary_calls(monkeypatch)
    readme = rational_from_json(loads(README_THETA.read_text()))
    for theta, edges, want in (
        (readme, [(1, 3), (1, 4), (2, 3)], (4, 1, 0)),
        (SPECIAL_THETAS[2], [(1, 4), (2, 3)], (2, 0, 0)),
        (SPECIAL_THETAS[1], [], (2, 0, 0)),
    ):
        counts.update(dict.fromkeys(counts, 0))
        assert [(e.i, e.j) for e in decision_boundary(theta)] == edges
        assert (counts["region"], counts["pair"], counts["describe_cone"]) == want


def theta_1d(g, h):
    return TropicalRationalParams(signomial(g), signomial(h))


# (theta, edges, (region LPs, pair LPs, describe_cone calls)), one per rule.
RULE_THETAS = [
    # x and -x: both regions nonempty, and the crossing of their witnesses
    # lies on the tie x = 0 with no competitor: an edge with no pair LP.
    (theta_1d([(0, (1,))], [(0, (-1,))]), [(1, 2)], (2, 0, 0)),
    # The constant 1 is above the crossing of x and -x, so (1, 3) takes the
    # pair LP, which finds {x = -x >= 1} empty.
    (theta_1d([(0, (1,)), (1, (0,))], [(0, (-1,))]), [(2, 3)], (3, 1, 0)),
    # 0 is below max(1 + x, 1 - x) everywhere and neither row 0 - (1 +- x)
    # is a multiple of the other: term 1's empty region refutes both pairs
    # before term 2 or 3 is asked about.
    (theta_1d([(0, (0,))], [(1, (1,)), (1, (-1,))]), [], (1, 0, 0)),
    # 0 never wins alone over x and -x, but in (1, 2) the competitor -x has
    # 0 - (-x) = -1 * (0 - x), lambda < 0, and in (1, 3) x has lambda = -1
    # too: the pair LP finds both edges at x = 0.
    (theta_1d([(0, (0,))], [(0, (1,)), (0, (-1,))]), [(1, 2), (1, 3)], (3, 2, 0)),
    # The mirror: 0 is term j, and the competitor of (1, 3) has
    # x - (-x) = 2 * (x - 0), lambda > 1.
    (theta_1d([(0, (1,)), (0, (-1,))], [(0, (0,))]), [(1, 3), (2, 3)], (3, 2, 0)),
    # Identical terms x and x whose region has a witness: a cell of
    # dimension d, no edge, no describe_cone call.
    (theta_1d([(0, (1,)), (0, (-1,))], [(0, (1,))]), [(2, 3)], (2, 0, 0)),
    # Identical terms 0 and 0 whose region is empty but whose cell is the
    # point x = 0: describe_cone finds the edge (1, 3).
    (theta_1d([(0, (0,)), (0, (1,))], [(0, (0,)), (0, (-1,))]), [(1, 3), (1, 4), (2, 3), (2, 4)], (3, 2, 1)),
]


@pytest.mark.parametrize("theta, edges, want", RULE_THETAS)
def test_each_pair_rule_takes_its_pinned_calls(monkeypatch, theta, edges, want):
    counts = count_boundary_calls(monkeypatch)
    got = decision_boundary(theta)
    assert [(e.i, e.j) for e in got] == edges
    assert (counts["region"], counts["pair"], counts["describe_cone"]) == want
    assert got == decision_boundary_by_all_pairs(theta)
    assert dual_edges(theta.merged()) == dual_edges_by_relint(theta.merged())


def test_empty_region_certificates_are_checked(spoil_multipliers):
    """A region reported empty is used only after its Farkas multipliers
    pass the exact check in ``max_slack``; multipliers spoiled where they are
    read raise, and the ``AssertionError`` reaches ``decision_boundary``."""
    theta = RULE_THETAS[2][0]
    assert decision_boundary(theta) == []  # positive control: term 1's region is empty
    for corrupt in ("flip", "zero"):
        spoil_multipliers(corrupt)
        with pytest.raises(AssertionError, match="certificate"):
            decision_boundary(theta)


def relu_theta(rng, widths):
    """The pruned (g, h) of a two-input ReLU net with the given layer widths,
    weights and biases in hundredths of [-3, 3]."""

    def weight():
        return F(rng.randint(-300, 300), 100)

    layers, prev = [], 2
    for width in widths:
        layers.append(([[weight() for _ in range(prev)] for _ in range(width)], [weight() for _ in range(width)]))
        prev = width
    return prune_terms(net_to_tropical(network(layers)).theta)


def test_relu_boundaries_match_the_oracles():
    """Pruned ReLU nets, most of whose h terms have an identical twin in g,
    so most sign-mixed pairs meet a shared region LP."""
    rng = random.Random(15)
    thetas = [relu_theta(rng, widths) for widths in ((3, 1), (2, 2, 1)) for _ in range(4)]
    twins = sum(t in theta.num.terms for theta in thetas for t in theta.den.terms)
    assert 2 * twins > sum(theta.m for theta in thetas)
    for theta in thetas:
        assert decision_boundary(theta) == decision_boundary_by_all_pairs(theta)
        assert dual_edges(theta.merged()) == dual_edges_by_relint(theta.merged())
