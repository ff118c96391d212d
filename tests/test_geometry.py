from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tropfan.geometry import describe_cone, exact_rank, lp_feasible, max_slack, relint_point
from tropfan.rationals import dot, integerize

small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=3)


def rows_strategy(dim, max_rows):
    row = st.tuples(*[small_rats] * dim)
    return st.lists(row, min_size=0, max_size=max_rows).map(tuple)


# --- brute-force oracle: the slack LP optimum via basic-solution enumeration


def brute_max_slack(dim, nonstrict, strict):
    """Enumerate basic solutions of the slack LP over (x, t), boxed so every
    optimal face contains a vertex; exact and independent of the simplex.

    The box bound dwarfs any Cramer ratio of the small test systems, so
    clipping never cuts below the true optimum.
    """
    box = F(10**9)
    rows = []  # (coeffs over x + t, rhs) meaning coeffs . y <= rhs
    for f in nonstrict:
        rows.append((tuple(-c for c in f) + (F(0),), F(0)))
    for f in strict:
        rows.append((tuple(-c for c in f) + (F(1),), F(0)))
    rows.append(((F(0),) * dim + (F(1),), F(1)))
    rows.append(((F(0),) * dim + (F(-1),), F(0)))  # t >= 0
    for i in range(dim):
        unit = tuple(F(1) if j == i else F(0) for j in range(dim))
        rows.append((unit + (F(0),), box))
        rows.append((tuple(-u for u in unit) + (F(0),), box))
    nvars = dim + 1
    best = F(0)  # y = 0 always feasible
    for subset in combinations(range(len(rows)), nvars):
        mat = [list(rows[i][0]) + [rows[i][1]] for i in subset]
        sol = solve_square(mat, nvars)
        if sol is None:
            continue
        if all(dot(r[0], sol) <= r[1] for r in rows):
            best = max(best, sol[-1])
    return best


def solve_square(mat, n):
    m = [row[:] for row in mat]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pe = m[col][col]
        m[col] = [x / pe for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[r][n] for r in range(n))


def integer_rows(rows):
    """Each rational row times the least positive integer that makes it integral."""
    return tuple(integerize(f)[0] for f in rows)


def check_max_slack_against_oracle(dim, nonstrict, strict, equalities):
    """Equality rows (the wall-LP shape) reach the oracle as two opposite
    inequalities.  The oracle divides, so it keeps the Fraction rows, while
    ``max_slack`` gets them scaled to integers; the optimum is 0 or 1 either way."""
    opposite = tuple(tuple(-c for c in g) for g in equalities)
    want = brute_max_slack(dim, nonstrict + equalities + opposite, strict)
    nonstrict, strict, equalities = map(integer_rows, (nonstrict, strict, equalities))
    opt, witness = max_slack(dim, nonstrict, strict, equalities)
    assert opt == want
    for f in nonstrict:
        assert dot(f, witness) >= 0
    for f in strict:
        assert dot(f, witness) >= opt
    for g in equalities:
        assert dot(g, witness) == 0


@settings(max_examples=60, deadline=None)
@given(rows_strategy(2, 3), rows_strategy(2, 3), rows_strategy(2, 1))
def test_max_slack_matches_vertex_enumeration(nonstrict, strict, equalities):
    check_max_slack_against_oracle(2, nonstrict, strict, equalities)


@settings(max_examples=30, deadline=None)
@given(rows_strategy(3, 3), rows_strategy(3, 2), rows_strategy(3, 1))
def test_max_slack_matches_vertex_enumeration_3d(nonstrict, strict, equalities):
    check_max_slack_against_oracle(3, nonstrict, strict, equalities)


def test_nonneg_halfline_feasible():
    opt, w = max_slack(1, ((1,),))
    assert opt > 0 and w[0] >= 0


def test_contradictory_strict_pair_infeasible():
    assert lp_feasible(1, ((1,), (-1,))) is None


def test_running_cone_witness(two_points, running_theta4):
    """The running pattern {p1 -> 1, p2 -> 3} admits a strict witness; the
    example parameters with the second coefficient nudged off the tie are one."""
    from tropfan.fan import cone_constraints, pattern_from_assignment

    G = pattern_from_assignment((1, 3), 4)
    rows = cone_constraints(G, two_points)
    witness = lp_feasible(G.N * (two_points.d + 1), rows)
    assert witness is not None
    nudged = (F(0), F(-1), F(1), F(-1, 10), F(0), F(0), F(-1), F(3, 2), F(1, 2), F(-2), F(0), F(2))
    for row in rows:
        assert dot(row, nudged) > 0


def test_implied_equalities_pair():
    assert relint_point(1, ((1,), (-1,)))[1] == {0, 1}


def test_implied_equalities_orthant():
    assert relint_point(2, ((1, 0), (0, 1)))[1] == frozenset()


def test_implied_equalities_monotone():
    base = ((1, 1), (-1, 0))
    bigger = base + ((0, -1),)
    before = relint_point(2, base)[1]
    after = relint_point(2, bigger)[1]
    assert {tuple(base[i]) for i in before} <= {tuple(bigger[i]) for i in after}


@settings(max_examples=40, deadline=None)
@given(rows_strategy(3, 4))
def test_relint_point_certificates(rows):
    point, implied = relint_point(3, integer_rows(rows))
    for r, f in enumerate(rows):
        v = dot(f, point)
        assert v >= 0
        if r in implied:
            assert v == 0
        else:
            assert v > 0


@settings(max_examples=30, deadline=None)
@given(rows_strategy(2, 4))
def test_implied_equalities_match_per_row_oracle(rows):
    implied = relint_point(2, integer_rows(rows))[1]
    for r, f in enumerate(rows):
        others = rows[:r] + rows[r + 1 :]
        oracle_opt = brute_max_slack(2, others, (f,))
        assert (r in implied) == (oracle_opt == 0)


def seeded_relint_systems(seed=20261018, count=360):
    """(dim, integer rows) of closed systems in dimension 1-4, built from
    rational rows in six shapes in turn: an opposite pair,
    a rescaled duplicate plus a zero row, a positive combination of rows that
    sums to zero, a single row, an all-implied subspace (each generator with
    its opposite), and plain random rows.  A single row is zero half the time."""
    import random

    rng = random.Random(seed)
    out = []
    for case in range(count):
        kind, dim = case % 6, 1 + case // 6 % 4

        def row():
            return tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim))

        def combination(forms, coefs):
            return tuple(sum((c * f[j] for c, f in zip(coefs, forms)), F(0)) for j in range(dim))

        rows = [row() for _ in range(rng.randint(1, 4))]
        if kind == 0:
            rows.append(tuple(-v for v in rng.choice(rows)))
        elif kind == 1:
            rows.append(tuple(F(rng.randint(1, 3), rng.randint(1, 2)) * v for v in rng.choice(rows)))
            rows.append((F(0),) * dim)
        elif kind == 2:
            picked = rng.sample(rows, min(len(rows), 2))
            rows.append(combination(picked, [-rng.randint(1, 3) for _ in picked]))
        elif kind == 3:
            rows = [rng.choice((rows[0], (F(0),) * dim))]
        elif kind == 4:
            gens = rows[: rng.randint(1, dim)]
            rows = [f for g in gens for f in (g, tuple(-v for v in g))]
            rows.append(combination(gens, [rng.randint(-2, 2) for _ in gens]))
        rng.shuffle(rows)
        out.append((dim, integer_rows(rows)))
    return out


def counted(lps, name, solve):
    """``solve``, adding one to ``lps[name]`` per call."""

    def wrapper(*args, **kwargs):
        lps[name] += 1
        return solve(*args, **kwargs)

    return wrapper


def test_relint_point_matches_per_row_oracle_on_seeded_systems(monkeypatch):
    """Certificate rounds find the implied set of the per-row method, with a
    point positive on every other row and zero on the implied ones, and never
    solve more LPs."""
    import oracles
    from tropfan import geometry

    lps = {"rounds": 0, "rows": 0}
    monkeypatch.setattr(geometry, "max_slack", counted(lps, "rounds", geometry.max_slack))
    monkeypatch.setattr(oracles, "max_slack", counted(lps, "rows", oracles.max_slack))
    shapes = set()
    for dim, rows in seeded_relint_systems():
        before = dict(lps)
        point, implied = relint_point(dim, rows)
        assert implied == oracles.relint_point_by_rows(dim, rows)[1]
        assert lps["rounds"] - before["rounds"] <= lps["rows"] - before["rows"]
        for r, f in enumerate(rows):
            assert dot(f, point) == 0 if r in implied else dot(f, point) > 0
        shapes.add((dim, len(rows) == 1, min(len(implied), 1) + (len(implied) == len(rows))))
    # every dimension has systems with no, some and all rows implied, single rows included
    assert shapes == {
        (d, single, k) for d in (1, 2, 3, 4) for single in (False, True) for k in (0, 1, 2) if not single or k != 1
    }
    assert lps["rounds"] < lps["rows"]


def test_relint_point_agrees_with_certificate_rounds(monkeypatch, nine_points):
    """Implying opposite pairs first changes no implied set and no dimension:
    on every seeded system and every ``cone_of_graph`` system of the
    nine-point face walk with N = 2 they equal those of the certificate-round
    oracle and of the per-row oracle, with no more LPs than the rounds take,
    and none on a system whose nonzero rows all come in opposite pairs."""
    import oracles
    from tropfan import fan, geometry

    walk, relint = [], fan.relint_point

    def recorded(dim, rows):
        walk.append((dim, rows))
        return relint(dim, rows)

    monkeypatch.setattr(fan, "relint_point", recorded)
    fan.enumerate_all_cones(nine_points, 2)
    monkeypatch.setattr(fan, "relint_point", relint)
    assert len(walk) == 952
    lps = {"pairs": 0, "oracles": 0}
    monkeypatch.setattr(geometry, "max_slack", counted(lps, "pairs", geometry.max_slack))
    monkeypatch.setattr(oracles, "max_slack", counted(lps, "oracles", oracles.max_slack))
    pair_only = 0
    for dim, rows in seeded_relint_systems() + walk:
        before = dict(lps)
        implied = relint_point(dim, rows)[1]
        spent = lps["pairs"] - before["pairs"]
        by_rounds = oracles.relint_point_by_rounds(dim, rows)[1]
        rounds = lps["oracles"] - before["oracles"]
        by_rows = oracles.relint_point_by_rows(dim, rows)[1]
        assert implied == by_rounds == by_rows
        assert spent <= rounds
        rank = exact_rank([rows[r] for r in sorted(implied)])
        assert describe_cone(dim, rows)[0] == dim - rank
        nonzero = {tuple(f) for f in rows if any(f)}
        if nonzero and all(tuple(-v for v in f) in nonzero for f in nonzero):
            assert spent == 0 and implied == set(range(len(rows)))
            pair_only += 1
    assert pair_only > 0
    assert lps["pairs"] < lps["oracles"]


CERTIFIED_SYSTEMS = {
    "cycle": ((1, 1), (-1, 0), (0, -1)),  # f1 + f2 + f3 = 0: all implied
    "pair": ((1, 0), (-1, 0), (0, 1)),  # an opposite pair and a free row
    "pair-3d": ((0, 2, -1), (1, 0, 0), (0, -4, 2), (-1, 1, 1)),
    # an opposite pair, implied without an LP, then a cycle that needs one
    "pair-cycle": ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
}


@pytest.mark.parametrize(
    "name, corrupt",
    [(name, c) for name in CERTIFIED_SYSTEMS if name != "pair" for c in ("flip", "zero")]
    + [("pair-3d", "move"), ("pair-cycle", "move")],
)
def test_relint_point_rejects_a_corrupted_certificate(spoil_multipliers, name, corrupt):
    """A multiplier with its sign flipped, set to zero, or moved onto a row
    that is not implied, where ``max_slack`` reads it, fails the exact check
    there, and the ``AssertionError`` reaches ``relint_point``, so no wrong
    implied set comes back.  The ``pair`` system is decided by its opposite
    pair, without an LP certificate; see the next test."""
    rows = CERTIFIED_SYSTEMS[name]
    assert relint_point(len(rows[0]), rows)[1]  # positive control: a certificate is read
    spoil_multipliers(corrupt)
    with pytest.raises(AssertionError, match="certificate"):
        relint_point(len(rows[0]), rows)


def test_relint_point_rejects_a_corrupted_pair_certificate(monkeypatch):
    """A pair that is not opposite fails the check of its certificate,
    1 * f + 1 * g = 0, so no LP-free implied set comes back unchecked."""
    from tropfan import geometry

    rows = CERTIFIED_SYSTEMS["pair"]
    assert relint_point(2, rows)[1] == {0, 1}  # positive control: the pair decides rows 0 and 1
    monkeypatch.setattr(geometry, "_opposite_pairs", lambda rows: [(0, 2), (2, 0)])
    with pytest.raises(AssertionError, match="certificate"):
        relint_point(2, rows)


def test_max_slack_duals_certify_a_zero_optimum():
    """On x >= 0, y >= 0, x + y > 0 strict with -x - y >= 0 the optimum is 0,
    and the multipliers are a Farkas certificate in the scale of the integer rows."""
    nonstrict = ((1, 0), (0, 1), (-1, -1))
    strict = ((3, 3),)
    y = []
    opt, _ = max_slack(2, nonstrict, strict, duals=y)
    assert opt == 0 and len(y) == 4 and min(y) >= 0 and y[3] >= 1
    assert all(sum(v * f[j] for v, f in zip(y, nonstrict + strict)) == 0 for j in range(2))
    with pytest.raises(ValueError):
        max_slack(2, nonstrict, strict, (nonstrict[0],), duals=[])


def pinned_system(name, diag4, nine_points):
    """(dim, nonstrict, strict, equalities) of a pinned slack LP: a leaf lists
    its parts (part t on term t + 1), a wall its assignment, the point that
    moves onto the tie and the tied pair."""
    from tropfan.fan import _pattern_system

    leaves = {
        "diag4-leaf": (diag4, ((0,), (1,), (2, 3))),
        "nine-leaf": (nine_points, ((3,), (1, 2, 4), (0, 7), (5, 6, 8))),
        "nine-leaf-stall": (nine_points, ((0, 2), (1, 3, 4, 6), (5, 7, 8))),
        "nine-leaf-ties": (nine_points, ((0, 2), (1, 3, 6), (4, 5), (7, 8))),
    }
    walls = {
        "nine-wall": (nine_points, (1, 1, 1, 1, 1, 3, 2, 2, 4), 6, (2, 4)),
        "diag4-wall": (diag4, (1, 2, 2, 3), 1, (2, 4)),
    }
    if name in leaves:
        data, parts = leaves[name]
        graph = [(k, (t,)) for t, part in enumerate(parts, start=1) for k in part]
    else:
        data, a, moved, pair = walls[name]
        graph = [(k, pair if k == moved else (t,)) for k, t in enumerate(a)]
    dim, strict, equalities = _pattern_system(data, graph)
    return dim, (), strict, equalities


# (opt, x) exactly as the solver returns them, derived from
# ``oracles.max_slack_by_dense_tableau`` (x free and pivoted in row by row
# from the empty system's optimum, then the same dual simplex on a dense
# Fraction tableau).  The stalling nine-point leaf (N = 3) switches to
# Bland's rule and gets another witness without the switch.  The nine-point
# wall's answer changes when the entering column's ties go by position
# instead of variable id, and the tied leaf's (N = 4) when the leaving
# row's do.
PINNED = {
    "diag4-leaf": ("1", ["4", "-4", "0", "3", "-2", "0"]),
    "nine-leaf": ("1", ["0", "-3", "7", "1", "4", "7/2", "-4", "-5", "10"]),
    "nine-leaf-stall": ("1", ["-5/2", "-5/2", "17/2", "9/2", "3/2", "5/2"]),
    "nine-leaf-ties": ("1", ["-607/9", "-400/9", "734/9", "77/9", "50/9", "59/9", "86/9", "-4/9", "41/9"]),
    "diag4-wall": ("1", ["1", "-2", "0", "-1", "1", "0", "-6", "3", "0"]),
    "nine-wall": ("1", ["593/132", "725/132", "725/132", "5/6", "-1/6", "1/3", "193/66", "-23/66", "59/33"]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pivot_rule_is_pinned(name, diag4, nine_points):
    from tropfan.rationals import format_rat, format_vec

    opt, x = max_slack(*pinned_system(name, diag4, nine_points))
    assert (format_rat(opt), format_vec(x)) == PINNED[name]


def test_cold_dual_simplex_reaches_bland_on_a_pinned_leaf(monkeypatch, diag4, nine_points):
    """The stalling leaf's pin depends on the Bland switch: without it the
    witness changes, though both witnesses meet every row."""
    from tropfan import geometry
    from tropfan.rationals import format_vec

    dim, _, strict, equalities = pinned_system("nine-leaf-stall", diag4, nine_points)
    monkeypatch.setattr(geometry, "_STALL_LIMIT", 10**9)
    opt, x = max_slack(dim, (), strict, equalities)
    assert opt == 1 and all(dot(f, x) >= 1 for f in strict)
    assert format_vec(x) != PINNED["nine-leaf-stall"][1]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_dense_tableau_oracle_gives_the_pins(name, diag4, nine_points):
    from oracles import max_slack_by_dense_tableau

    from tropfan.rationals import format_rat, format_vec

    opt, x = max_slack_by_dense_tableau(*pinned_system(name, diag4, nine_points))
    assert (format_rat(opt), format_vec(x)) == PINNED[name]


def seeded_slack_systems(count=300, seed=20240917):
    """(dim, nonstrict, strict, equalities) of small homogeneous systems,
    each row drawn rational and scaled to integers.

    The kinds cycle: dim = 1; zero columns; rank below dim (every row a
    combination of fewer than dim random forms); duplicated and dependent
    equalities; equalities only; no strict row.
    """
    import random

    rng = random.Random(seed)
    out = []
    for case in range(count):
        kind = case % 6
        dim = 1 if kind == 0 else rng.randint(2, 5)
        zero_cols = set(rng.sample(range(dim), rng.randint(1, dim - 1))) if kind == 1 else set()
        basis = [
            tuple(F(0) if j in zero_cols else F(rng.randint(-3, 3), rng.randint(1, 3)) for j in range(dim))
            for _ in range(rng.randint(1, dim - 1) if kind == 2 else dim)
        ]

        def form():
            coefs = [rng.randint(-2, 2) for _ in basis]
            return tuple(sum((c * b[j] for c, b in zip(coefs, basis)), F(0)) for j in range(dim))

        def forms(lo, hi):
            return tuple(form() for _ in range(rng.randint(lo, hi)))

        equalities = forms(0, 2)
        nonstrict, strict = forms(0, 4), forms(1, 4)
        if kind == 3:
            g, h = forms(2, 2)
            equalities = (g, g, h, tuple(2 * a - F(1, 3) * b for a, b in zip(g, h)), h)
        elif kind == 4:
            equalities, nonstrict, strict = forms(1, 3), (), ()
        elif kind == 5:
            strict = ()
        out.append((dim, *map(integer_rows, (nonstrict, strict, equalities))))
    return out


def test_max_slack_agrees_with_split_columns_on_seeded_systems():
    """Free x columns keep the split-column LP's optimum, and the witness read
    off the tableau's x rows meets every row."""
    from oracles import max_slack_by_split_columns

    optima = set()
    for dim, nonstrict, strict, equalities in seeded_slack_systems():
        opt, x = max_slack(dim, nonstrict, strict, equalities)
        assert opt in (0, 1)
        assert opt == max_slack_by_split_columns(dim, nonstrict, strict, equalities)[0]
        assert len(x) == dim
        assert all(dot(f, x) >= 0 for f in nonstrict)
        assert all(dot(g, x) == 0 for g in equalities)
        if opt == 1:
            assert all(dot(f, x) >= 1 for f in strict)
        optima.add(opt)
    assert optima == {0, 1}


def test_max_slack_agrees_with_dense_tableau_on_seeded_systems():
    from oracles import max_slack_by_dense_tableau

    for system in seeded_slack_systems():
        assert max_slack(*system) == max_slack_by_dense_tableau(*system)


def test_corrupted_cold_witness_raises(monkeypatch, nine_points):
    """A positive cold answer's witness is substituted into every row before
    it is returned: negated numerators of x must raise for a wall LP and for
    the maximality LP of a maximal pattern."""
    from tropfan import geometry
    from tropfan.classify import _wall_lp
    from tropfan.fan import is_maximal_pattern, pattern_from_assignment

    a = (1, 1, 1, 1, 1, 3, 2, 2, 4)
    G = pattern_from_assignment(a, 4)
    assert _wall_lp(a, (6,), 4, nine_points) and is_maximal_pattern(G, nine_points)
    numerators = geometry._Simplex.numerators
    monkeypatch.setattr(geometry._Simplex, "numerators", lambda *args: [-v for v in numerators(*args)])
    with pytest.raises(AssertionError, match="witness violates"):
        _wall_lp(a, (6,), 4, nine_points)
    with pytest.raises(AssertionError, match="witness violates"):
        is_maximal_pattern(G, nine_points)


def tableau_witness(tableau):
    """x of the last warm call, read off the tableau it left in ``tableau``."""
    sx = tableau[0]
    return tuple(F(v, sx.den) for v in sx.numerators(sx.dim))


def guarded_answers(cold, with_duals, warm):
    """Formatted answers of cold LPs, of cold LPs read with duals (each with
    its multipliers) and of one warm batch, rows given as lists."""
    from tropfan.rationals import format_rat, format_vec

    out = [[format_rat(opt), format_vec(x)] for opt, x in (max_slack(*system) for system in cold)]
    for dim, nonstrict, strict in with_duals:
        y = []
        opt, x = max_slack(dim, nonstrict, strict, duals=y)
        out.append([format_rat(opt), format_vec(x), y])
    dim, batches = warm
    tableau = []
    for batch in batches:
        opt, _ = max_slack(dim, (), batch, tableau=tableau)
    return out + [[format_rat(opt), format_vec(tableau_witness(tableau))]]


def guarded_child_env(package_root, parent=None):
    """A minimal environment for a child Python with the exactness guard on:
    the child imports the tropfan under ``package_root`` and this directory's
    test modules, and it writes no bytecode when the parent asked for none."""
    import os

    parent = os.environ if parent is None else parent
    env = {
        "TROPFAN_CHECK_PIVOTS": "1",
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": os.pathsep.join((package_root, os.path.dirname(os.path.abspath(__file__)))),
    }
    if "PYTHONDONTWRITEBYTECODE" in parent:
        env["PYTHONDONTWRITEBYTECODE"] = parent["PYTHONDONTWRITEBYTECODE"]
    return env


def test_guarded_child_env_passes_no_bytecode_through():
    assert guarded_child_env("root", {"PYTHONDONTWRITEBYTECODE": "1"})["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "PYTHONDONTWRITEBYTECODE" not in guarded_child_env("root", {"HOME": "/"})


def test_pivot_exactness_guard_runs(diag4, nine_points):
    """The optional per-division exactness check must accept a normal run and
    leave every answer as it is: cold wall LPs with equalities, the pinned
    leaf that switches to Bland, the seeded systems with duplicated and
    dependent equalities, whose rows stay in the tableau through every
    pivot, cold LPs read with duals (the second at optimum 0) and a warm
    batch, which makes negative pivots."""
    import json
    import os
    import subprocess
    import sys

    import tropfan

    # the child imports the same tropfan as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(tropfan.__file__)))
    cold = [pinned_system(name, diag4, nine_points) for name in ("diag4-wall", "nine-wall", "nine-leaf-stall")]
    cold += seeded_slack_systems()[3::6]  # kind 3: duplicated and dependent equalities
    dim, _, strict, equalities = pinned_system("nine-wall", diag4, nine_points)
    pairs = [*equalities, *(tuple(-v for v in g) for g in equalities)]
    with_duals = [(dim, pairs, strict), (dim, (), strict + tuple(pairs))]
    warm = (dim, [strict[b::3] for b in range(3)])
    code = (
        "import json, sys\n"
        "import tropfan.geometry\n"
        "from test_geometry import guarded_answers\n"
        "print(tropfan.geometry._CHECK_DIVISION)\n"
        "print(json.dumps(guarded_answers(*json.loads(sys.argv[1]))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([cold, with_duals, warm])],
        capture_output=True,
        text=True,
        env=guarded_child_env(package_root),
    )
    assert proc.returncode == 0, proc.stderr
    guard, answers = proc.stdout.strip().split("\n")
    assert guard == "True"
    expected = guarded_answers(cold, with_duals, warm)
    assert [a[:2] for a in expected[:2]] == [list(PINNED[n]) for n in ("diag4-wall", "nine-wall")]
    assert expected[len(cold) + 1][0] == "0" and expected[-1][0] == "1"
    assert json.loads(answers) == expected


def warm_batches(seed=20261019, count=240):
    """(dim, nonstrict, strict, batches) of seeded homogeneous systems, with the
    row indices split into 2-4 batches in a random order; every third system
    has nonstrict rows too, and some rows repeat or are integer combinations
    of others, which makes the tableaus degenerate."""
    import random

    rng = random.Random(seed)
    out = []
    for case in range(count):
        dim = rng.randint(1, 6)
        forms = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(2, 10))]
        forms += [tuple(a + 2 * b for a, b in zip(*rng.sample(forms, 2))) for _ in range(rng.randint(0, 2))]
        forms += rng.sample(forms, rng.randint(0, 2))
        cut = rng.randint(0, len(forms) // 2) if case % 3 == 0 else 0
        nonstrict, strict = forms[:cut], forms[cut:]
        order = [("n", i) for i in range(len(nonstrict))] + [("s", i) for i in range(len(strict))]
        rng.shuffle(order)
        k = rng.randint(2, 4)
        out.append((dim, nonstrict, strict, [order[b::k] for b in range(k)]))
    return out


def solve_warm(dim, nonstrict, strict, batches):
    """Optimum and witness after adding the batches one warm call at a time,
    the witness read off the last tableau."""
    tableau = []
    for batch in batches:
        opt, _ = max_slack(
            dim,
            [nonstrict[i] for kind, i in batch if kind == "n"],
            [strict[i] for kind, i in batch if kind == "s"],
            tableau=tableau,
        )
    return opt, tableau_witness(tableau)


def test_warm_batches_match_one_cold_solve():
    """Rows added in batches through the warm path give the optimum of one
    cold solve over their union, and a positive optimum's witness is strictly
    positive on every strict row."""
    optima = set()
    for dim, nonstrict, strict, batches in warm_batches():
        opt, x = solve_warm(dim, nonstrict, strict, batches)
        assert opt == max_slack(dim, nonstrict, strict)[0]
        assert len(x) == dim and all(dot(f, x) >= 0 for f in nonstrict)
        if opt > 0:
            assert all(dot(f, x) > 0 for f in strict)
        optima.add(opt)
    assert optima == {0, 1}


def test_cold_solve_equals_one_warm_call_from_an_empty_tableau():
    """A cold call runs the steps of a warm call from an empty tableau: on
    every equality-free seeded system and every warm-batch system, the two
    give the same optimum and the same witness."""
    systems = [(dim, nonstrict, strict) for dim, nonstrict, strict, equalities in seeded_slack_systems()
               if not equalities]
    systems += [(dim, nonstrict, strict) for dim, nonstrict, strict, _ in warm_batches()]
    assert len(systems) > 300
    for dim, nonstrict, strict in systems:
        tableau = []
        opt, _ = max_slack(dim, nonstrict, strict, tableau=tableau)
        assert max_slack(dim, nonstrict, strict) == (opt, tableau_witness(tableau))


def test_warm_call_returns_no_witness_and_leaves_it_in_its_tableau():
    """A warm call returns (t*, ()); its witness is read off the tableau it
    leaves, and it meets every row."""
    nonstrict, strict, tableau = [(0, 1, 0)], [(1, 0, 0), (1, 1, -1)], []
    assert max_slack(3, nonstrict, strict, tableau=tableau) == (1, ())
    x = tableau_witness(tableau)
    assert len(x) == 3 and all(type(v) is F for v in x)
    assert all(dot(f, x) >= 0 for f in nonstrict) and all(dot(f, x) >= 1 for f in strict)


def test_warm_start_refuses_equalities():
    with pytest.raises(ValueError):
        max_slack(2, (), ((1, 0),), ((0, 1),), tableau=[])


def test_warm_duals_certify_a_zero_optimum_over_every_warm_call():
    """A warm call fills ``duals`` only at an optimum of 0, with one
    multiplier per row of its tableau, in the order the warm calls added
    them; they are the Farkas certificate ``max_slack`` checked."""
    nonstrict, strict, tableau, y = ((1, 0), (0, 1)), ((3, 3),), [], []
    assert max_slack(2, nonstrict, strict, duals=y, tableau=tableau) == (1, ()) and y == []
    assert max_slack(2, ((-1, -1),), (), duals=y, tableau=tableau) == (0, ())
    rows = nonstrict + strict + ((-1, -1),)
    assert len(y) == 4 and min(y) >= 0 and y[2] >= 1
    assert all(sum(v * f[j] for v, f in zip(y, rows)) == 0 for j in range(2))


def test_warm_dual_simplex_reaches_bland_on_a_degenerate_walk(monkeypatch, nine_points):
    """Along this nine-point walk to a leaf (N = 4) the dual simplex stalls
    long enough to switch to Bland's rule: without the switch the leaf gets
    another witness.  Both witnesses meet every row, and the optimum is that
    of one cold solve."""
    from tropfan import fan, geometry

    path, rows = (0, 0, 0, 1, 1, 2, 3, 2, 1), []

    def recorded(dim, nonstrict, strict, **kwargs):
        rows.extend(strict)
        return max_slack(dim, nonstrict, strict, **kwargs)

    monkeypatch.setattr(fan, "max_slack", recorded)
    answers = []
    for limit in (geometry._STALL_LIMIT, 10**9):
        monkeypatch.setattr(geometry, "_STALL_LIMIT", limit)
        rows.clear()
        tableau = []
        for k, t in enumerate(path):
            opt, tableau = fan._child(nine_points, 4, list(path[:k]), t, tableau)
            assert opt == 1
        x = tableau_witness(tableau)
        assert all(dot(f, x) > 0 for f in rows)
        answers.append(x)
    assert answers[0] != answers[1]
    assert max_slack(len(x), (), rows)[0] == 1


def test_warm_pivots_pass_the_exactness_guard():
    """``TROPFAN_CHECK_PIVOTS=1`` checks the warm path's pivots too, negative
    dual pivots included, and the answers do not change."""
    import json
    import os
    import subprocess
    import sys

    import tropfan

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(tropfan.__file__)))
    systems = warm_batches(count=60)
    code = (
        "import json, sys\n"
        "import tropfan.geometry as g\n"
        "from test_geometry import solve_warm\n"
        "from tropfan.rationals import format_rat, format_vec\n"
        "negative = 0\n"
        "pivot = g._Simplex._pivot\n"
        "def counted(self, r, c):\n"
        "    global negative\n"
        "    negative += g._unpack(self.rows[r], self.n, self.b)[c] < 0\n"
        "    pivot(self, r, c)\n"
        "g._Simplex._pivot = counted\n"
        "answers = []\n"
        "for system in json.loads(sys.argv[1]):\n"
        "    opt, x = solve_warm(*system)\n"
        "    answers.append([format_rat(opt), format_vec(x)])\n"
        "print(g._CHECK_DIVISION, negative > 0)\n"
        "print(json.dumps(answers))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(systems)],
        capture_output=True,
        text=True,
        env=guarded_child_env(package_root),
    )
    assert proc.returncode == 0, proc.stderr
    guard, answers = proc.stdout.strip().split("\n")
    assert guard == "True True"
    from tropfan.rationals import format_rat, format_vec

    expected = []
    for dim, nonstrict, strict, batches in systems:
        opt, x = solve_warm(dim, nonstrict, strict, batches)
        expected.append([format_rat(opt), format_vec(x)])
    assert json.loads(answers) == expected



def big_warm_batches(seed=20261020, count=40):
    """(dim, nonstrict, strict, batches) whose first batch has entries in
    [-3, 3] and whose 1-3 later batches each carry rows of 2**40 to 2**60:
    integer combinations of the small rows with such coefficients, of either
    sign, plus a small random row.  So each later batch raises the largest
    row norm, and the digit width with it."""
    import random

    rng = random.Random(seed)
    out = []
    for case in range(count):
        dim = rng.randint(1, 5)
        small = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(2, 5))]
        big, batches = [], [[("s", i) for i in range(len(small))]]
        for _ in range(rng.randint(1, 3)):
            batch = []
            for _ in range(rng.randint(1, 3)):
                coefs = [rng.choice((-1, 1)) * rng.randint(1 << 40, 1 << 60) for _ in small]
                noise = [rng.randint(-3, 3) for _ in range(dim)]
                row = tuple(e + sum(c * f[j] for c, f in zip(coefs, small)) for j, e in enumerate(noise))
                batch.append(("s", len(small) + len(big)))
                big.append(row)
            batches.append(batch)
        strict = small + big
        cut = rng.randint(0, len(strict) // 3) if case % 2 else 0
        kinds = {i: "n" if i < cut else "s" for i in range(len(strict))}
        nonstrict, strict = strict[:cut], strict[cut:]
        batches = [[(kinds[i], i if i < cut else i - cut) for _, i in batch] for batch in batches]
        out.append((dim, nonstrict, strict, batches))
    return out


def test_warm_batches_with_big_entries_repack_and_match(monkeypatch):
    """Later batches of 2**40-2**60 entries widen the digits of a warm
    tableau mid-walk, and the tableau is repacked.  The answers still equal
    one cold solve, which equals the dense-tableau oracle, and every packed
    pivot passes the exactness guard, which decodes it and compares it with
    the entrywise update."""
    from oracles import max_slack_by_dense_tableau

    from tropfan import geometry

    monkeypatch.setattr(geometry, "_CHECK_DIVISION", True)
    optima = set()
    for dim, nonstrict, strict, batches in big_warm_batches():
        tableau, widths = [], []
        for batch in batches:
            opt, _ = max_slack(
                dim,
                [nonstrict[i] for kind, i in batch if kind == "n"],
                [strict[i] for kind, i in batch if kind == "s"],
                tableau=tableau,
            )
            widths.append(tableau[0].b)
        x = tableau_witness(tableau)
        assert widths == sorted(widths) and widths[-1] > widths[0]
        cold = max_slack(dim, nonstrict, strict)
        assert cold == max_slack_by_dense_tableau(dim, nonstrict, strict)
        assert opt == cold[0]
        assert all(dot(f, x) >= 0 for f in nonstrict)
        if opt > 0:
            assert all(dot(f, x) > 0 for f in strict)
        optima.add(opt)
    assert optima == {0, 1}


@pytest.mark.parametrize("b", [32, 64, 96])
def test_packed_digits_round_trip_at_the_width(b):
    """Every low digit up to 2**(b-1) - 1 in absolute value decodes as packed,
    and so does a top digit of any size; one more does not."""
    import random

    from tropfan.geometry import _pack, _unpack

    edge = (1 << b - 1) - 1
    rng = random.Random(b)
    for n in (1, 2, 5, 10):
        assert _unpack(_pack([edge] * n + [-edge], b), n, b) == [edge] * n + [-edge]
        assert _unpack(_pack([-edge] * n + [edge], b), n, b) == [-edge] * n + [edge]
        for _ in range(50):
            v = [rng.choice((edge, -edge, 0, rng.randint(-edge, edge))) for _ in range(n)]
            v.append(rng.randint(-(1 << 3 * b), 1 << 3 * b))
            assert _unpack(_pack(v, b), n, b) == v
    assert _unpack(_pack([edge + 1, 0], b), 1, b) != [edge + 1, 0]


def test_digit_width_holds_hadamards_bound():
    """A minor of at most dim + 2 rows of squared norm at most h is below
    h**((dim + 2) / 2) by Hadamard's inequality; the width leaves it a sign
    bit, in whole 32-bit words."""
    from tropfan.geometry import _width

    norms = {2, 3, 5, 100, (1 << 40) + 1} | {(1 << k) - 1 for k in range(2, 130)} | {1 << k for k in range(2, 130)}
    for dim in range(1, 13):
        for h in norms:
            b = _width(h, dim)
            assert b % 32 == 0
            assert h ** (dim + 2) < 4 ** (b - 1)


def test_nine_point_walk_pivot_counts_are_pinned(monkeypatch, nine_points):
    """The packed rows leave the pivot sequence alone: the nine-point walk
    makes 1,267 pivots at N = 3, all at 32-bit digits with entries of at most
    14 bits, and 7,627 at N = 4, where the rows of later points widen the
    digits to 64 bits.  (2,002 and 11,261 before the leaves that their
    node's witness realizes were kept without an LP, then 1,996 and 11,238
    before children were refuted by learned certificates.)"""
    from tropfan import geometry
    from tropfan.fan import fan_index

    pivot = geometry._Simplex._pivot

    def counted(self, r, c):
        seen["pivots"] += 1
        pivot(self, r, c)
        seen["widths"].add(self.b)
        if "bits" in seen:
            entries = [abs(v) for P in self.rows for v in geometry._unpack(P, self.n, self.b)[: self.n]]
            seen["bits"] = max(seen["bits"], max(entries).bit_length())

    monkeypatch.setattr(geometry._Simplex, "_pivot", counted)
    seen = {"pivots": 0, "widths": set(), "bits": 0}
    fan_index(nine_points, 3, use_cache=False)
    assert seen == {"pivots": 1267, "widths": {32}, "bits": 14}
    seen = {"pivots": 0, "widths": set()}
    fan_index(nine_points, 4, use_cache=False)
    assert seen == {"pivots": 7627, "widths": {32, 64}}


def insertion_batches(seed=20261023, count=160):
    """(dim, batches) of seeded batches of rows ``a.(x, t) <= 0``, each dim
    ints and a t coefficient of 0 or 1.  The first batch starts a tableau and
    the later ones extend it.  Batches mix random rows with zero rows,
    repeated rows and integer combinations of earlier rows; in every fourth
    case the later batches scale their rows by 2**40 to 2**60, which widens
    the digits and repacks the tableau."""
    import random

    rng = random.Random(seed)
    out = []
    for case in range(count):
        dim, seen, batches = rng.randint(1, 6), [], []
        for k in range(rng.randint(2, 4)):
            scale = rng.randint(1 << 40, 1 << 60) if case % 4 == 3 and k else 1
            batch = []
            for _ in range(rng.randint(1, 2 * dim + 1)):
                kind = rng.random()
                if kind < 0.1:
                    a = [0] * (dim + 1)
                elif kind < 0.25 and seen:
                    a = list(rng.choice(seen))
                elif kind < 0.45 and len(seen) > 1:
                    u, v, c = *rng.sample(seen, 2), rng.choice((-2, -1, 1, 3))
                    a = [x + c * y for x, y in zip(u, v)]
                else:
                    a = [rng.randint(-3, 3) * scale for _ in range(dim)] + [rng.randint(0, 1)]
                batch.append(a)
                seen.append(a)
            batches.append(batch)
        out.append((dim, batches))
    return out


def test_row_at_a_time_insertion_matches_the_one_batch_oracle():
    """Each row built against the current basis and its x pivoted in at once
    gives the tableau of inserting the whole batch first: equal rows, basis,
    columns, denominator, digit width and row count after every batch, and
    after the dual simplex that readies the tableau for the next batch.  The
    cases cover zero rows, dependent rows that pivot nothing while an x is
    still free, batches where no x is free, and repacks."""
    from oracles import add_rows_in_one_batch

    from tropfan.geometry import _Simplex

    def state(sx):
        return sx.rows, sx.basis, sx.nonbasic, sx.den, sx.b, sx.m

    seen = set()
    for dim, batches in insertion_batches():
        norms = [max(sum(v * v for v in a) for a in batch) for batch in batches]
        sx = _Simplex(dim, norms[0])
        ref = sx.copy()
        for batch, h in zip(batches, norms):
            free = [j for j in range(dim) if sx.nonbasic[j] == j]
            b = sx.b
            sx.add_rows(batch, h)
            add_rows_in_one_batch(ref, batch, h)
            assert state(sx) == state(ref)
            left = [j for j in range(dim) if sx.nonbasic[j] == j]
            seen.add("repack" if sx.b > b else "same width")
            seen.add("no free x" if not free else "free x")
            if any(not any(a) for a in batch):
                seen.add("zero row")
            if left and sum(map(any, batch)) > len(free) - len(left):
                seen.add("dependent row")
            sx.solve()
            ref.solve()
            assert state(sx) == state(ref)
    assert seen == {"repack", "same width", "no free x", "free x", "zero row", "dependent row"}


def test_x_pivots_touch_only_the_rows_inserted_so_far(monkeypatch):
    """Every pivot made inside ``add_rows`` is on the row just inserted, in
    the column of an x never pivoted in, while the tableau holds only the
    rows inserted so far and the objective row.  The one-batch oracle makes
    the same number of x pivots on the same systems."""
    from oracles import add_rows_in_one_batch

    from tropfan import geometry

    add, pivot = geometry._Simplex.add_rows, geometry._Simplex._pivot
    inside, counts = [], []

    def counting(insert):
        def adding(self, new_rows, h):
            inside.append((self.m, len(new_rows), insert is add))
            insert(self, new_rows, h)
            inside.pop()

        return adding

    def pivoting(self, r, c):
        if inside:
            counts[-1] += 1
            start, count, ours = inside[-1]
            if ours:
                assert r == self.m - 1 and len(self.rows) == self.m + 1 and self.m - start <= count
                assert c < self.dim and self.nonbasic[c] == c and geometry._unpack(self.rows[r], self.n, self.b)[c]
        pivot(self, r, c)

    monkeypatch.setattr(geometry._Simplex, "_pivot", pivoting)
    for insert in (add, add_rows_in_one_batch):
        monkeypatch.setattr(geometry._Simplex, "add_rows", counting(insert))
        counts.append(0)
        for system in seeded_slack_systems():
            max_slack(*system)
        for system in warm_batches(count=60):
            solve_warm(*system)
    assert counts[0] == counts[1] > 500


def test_inserted_row_guard_catches_a_corrupted_row(monkeypatch):
    """``TROPFAN_CHECK_PIVOTS=1`` compares each inserted row with q*a minus
    the combination of the decoded basic rows: a row off by one in its rhs
    or in a column raises, and the row as built passes."""
    from tropfan import geometry

    monkeypatch.setattr(geometry, "_CHECK_DIVISION", True)
    a = [-2, 6, 1]  # twice the first row in x, so it pivots no x in
    sx = geometry._Simplex(2, 41)
    sx.add_rows([[-1, 3, 1], a], 41)
    assert sx.basis[1:] == [0, 5]
    row = sx.rows[2]
    sx._check_row(a, 2)
    for digit in (sx.n, 1):
        sx.rows[2] = row + (1 << digit * sx.b)
        with pytest.raises(ArithmeticError, match="entrywise construction"):
            sx._check_row(a, 2)


@pytest.mark.parametrize("b", [32, 64, 96])
def test_negative_rhs_is_a_packed_row_below_minus_the_bias(b):
    """With the low digits at their extremes, +-(2**(b-1) - 1), a packed row
    P is below -B exactly when its rhs is negative, and (P + B) >> n*b is
    the rhs."""
    from itertools import product

    from tropfan.geometry import _bias, _pack, _unpack

    edge = (1 << b - 1) - 1
    for n in (1, 2, 3):
        B = _bias(n, b)
        for low in product((-edge, edge), repeat=n):
            for rhs in (-1, 0, 1):
                P = _pack([*low, rhs], b)
                assert _unpack(P, n, b) == [*low, rhs]
                assert (P < -B) == (rhs < 0)
                assert (P + B) >> n * b == rhs


def test_negative_rhs_scan_guard_catches_a_disagreeing_decode(monkeypatch):
    """``TROPFAN_CHECK_PIVOTS=1`` compares the rows the leaving-row scan
    selects with the rows whose decoded rhs is negative.  A decode that
    negates every rhs keeps every other guard consistent, since the updates
    are linear, but not that one."""
    from tropfan import geometry

    rows = ((1, 2), (3, -1), (-1, 1))
    want = max_slack(2, (), rows)
    monkeypatch.setattr(geometry, "_CHECK_DIVISION", True)
    assert max_slack(2, (), rows) == want and want[0] > 0
    unpack = geometry._unpack
    monkeypatch.setattr(geometry, "_unpack", lambda P, n, b: [*unpack(P, n, b)[:n], -unpack(P, n, b)[n]])
    with pytest.raises(ArithmeticError, match="negative-rhs scan"):
        max_slack(2, (), rows)


def test_cone_dim_empty_system():
    assert describe_cone(12, ())[0] == 12


def test_cone_dim_hyperplane_in_dim3():
    assert describe_cone(3, ((1, 0, 0), (-1, 0, 0)))[0] == 2


def test_cone_dim_never_exceeds_ambient_minus_implied_rank():
    rows = ((1, 1), (-1, -1), (1, 0))
    dimension, implied = describe_cone(2, rows)
    normals = [rows[i] for i in implied]
    assert dimension <= 2 - exact_rank(normals)


def test_exact_rank():
    assert exact_rank([(1, 2), (2, 4)]) == 1
    assert exact_rank([(1, 2), (0, 1), (3, 1)]) == 2
    assert exact_rank([]) == 0
    assert exact_rank([(0, 0)]) == 0


MALFORMED_ROWS = {"fraction": ((F(1, 2), 1),), "short": ((1,),)}


@pytest.mark.parametrize("kind", MALFORMED_ROWS)
@pytest.mark.parametrize(
    "call",
    [
        lambda rows: lp_feasible(2, rows),
        lambda rows: lp_feasible(2, ((1, 1),), equalities=rows),
        lambda rows: relint_point(2, rows),
        lambda rows: describe_cone(2, rows),
    ],
    ids=["lp_feasible-strict", "lp_feasible-nonstrict", "relint_point", "describe_cone"],
)
def test_entry_points_reject_rows_that_are_not_dim_ints(kind, call):
    """A Fraction entry would be floored by the pivot and a short row would
    put t's coefficient on an x column, so a cold solve refuses both."""
    with pytest.raises(ValueError, match="ints"):
        call(MALFORMED_ROWS[kind])


@pytest.mark.parametrize(
    "dim, rows", [(3, ((1, 0), (-1, 0))), (2, ((F(1, 2), 0), (F(-1, 2), 0)))], ids=["short", "fraction"]
)
@pytest.mark.parametrize("entry", [relint_point, describe_cone], ids=["relint_point", "describe_cone"])
def test_pair_only_rows_are_checked_without_an_lp(entry, dim, rows):
    """An opposite pair is implied without an LP, so the row check must come
    first: a short pair would be read as implied, and a Fraction pair would
    reach the integer echelon span."""
    with pytest.raises(ValueError, match="ints"):
        entry(dim, rows)


@pytest.mark.parametrize("kind", MALFORMED_ROWS)
def test_wall_lp_rejects_a_malformed_equality_row(kind):
    """The wall-LP shape: strict rows plus equality rows, one of them bad."""
    with pytest.raises(ValueError, match="ints"):
        max_slack(2, (), ((1, 0),), ((0, 1),) + MALFORMED_ROWS[kind])


@settings(max_examples=30, deadline=None)
@given(rows_strategy(3, 5))
def test_rank_agrees_with_fraction_elimination(rows):
    """Bareiss rank against a plain Fraction Gaussian elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = 3
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        for r in range(row + 1, len(mat)):
            if mat[r][col] != 0:
                f = mat[r][col] / mat[row][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
        row += 1
        rank += 1
    assert exact_rank(integer_rows(rows)) == rank


def test_every_lp_row_is_integer(monkeypatch, running_theta_split):
    """A warm ``max_slack`` call does not check its rows, and its pivot would
    floor a Fraction entry, so every row that reaches it from the fan,
    classify, dual and relu entry points must already be a tuple of ints, on
    rational data and parameters too."""
    import importlib

    from tropfan.dual import decision_boundary
    from tropfan.relu import prune_terms

    geometry, fan, classify = (importlib.import_module(f"tropfan.{m}") for m in ("geometry", "fan", "classify"))
    calls = {}

    def guarded(name, solve):
        def wrapper(dim, nonstrict=(), strict=(), equalities=(), duals=None, tableau=None):
            calls[name] = calls.get(name, 0) + 1
            for row in (*nonstrict, *strict, *equalities):
                assert all(type(v) is int for v in row), (name, row)
            return solve(dim, nonstrict, strict, equalities, duals, tableau)

        return wrapper

    for module in (geometry, fan, classify):
        monkeypatch.setattr(module, "max_slack", guarded(module.__name__, module.max_slack))
    plane = fan.dataset([("1/2", "1/3"), ("2/7", "-1"), ("1/2", "1/3"), ("-3/2", "2")])
    line = fan.dataset([("1/2",), ("2/3",), ("3/7",)])
    fan.fan_index(plane, 3, use_cache=False)
    classify.level_set(plane, 2, 1, (1, -1, 1, -1), 1)
    classify.chamber_path((1, 1, 1), (-1, -1, -1), line)
    fan.enumerate_all_cones(plane, 2)
    decision_boundary(running_theta_split)
    prune_terms(running_theta_split)
    assert set(calls) == {"tropfan.geometry", "tropfan.fan", "tropfan.classify"}
