"""Seeded inputs, timed operations and output checks of the four workloads.

Every workload builds one *round*: a fixed list of operations drawn from the
seed.  A run repeats the round until the timed part reaches ``--seconds``, and
only whole rounds are run, so two runs of one seed do the same work in the
same mix and per-round counts repeat exactly.

The library is always called through module attributes looked up at call
time (``fan.fan_index``, not a name imported once), so that the tracer in
``tracer.py`` can rebind those attributes from outside.  Modules are taken from
``importlib``: ``tropfan.classify`` as a package attribute is the re-exported
``tropical.classify`` function, not the module.

Each check uses its own arithmetic (``oracle.py``) or a library function that
is not on the timed path; none reruns the code being timed as its oracle.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import perm

import oracle

fan = importlib.import_module("tropfan.fan")
classify = importlib.import_module("tropfan.classify")
dual = importlib.import_module("tropfan.dual")
relu = importlib.import_module("tropfan.relu")
matroids = importlib.import_module("tropfan.matroids")

COORD = 20  # integer coordinates are drawn from [-COORD, COORD]


# ---------------------------------------------------------------------------
# Point sets


def _distinct(pts) -> bool:
    return len(set(pts)) == len(pts)


def general_planar(rng: random.Random, M: int) -> list[tuple[int, int]]:
    """M distinct integer points in the plane, no three collinear."""
    while True:
        pts = [(rng.randint(-COORD, COORD), rng.randint(-COORD, COORD)) for _ in range(M)]
        if _distinct(pts) and not oracle.has_collinear_triple(pts):
            return pts


def general_spatial(rng: random.Random, M: int) -> list[tuple[int, int, int]]:
    """M distinct integer points in R^3, no four coplanar."""
    while True:
        pts = [tuple(rng.randint(-COORD, COORD) for _ in range(3)) for _ in range(M)]
        if _distinct(pts) and not oracle.has_coplanar_quadruple(pts):
            return pts


def with_coincident(rng: random.Random, M: int) -> list[tuple[int, int]]:
    """M - 1 points in general position plus a second copy of one of them."""
    pts = general_planar(rng, M - 1)
    pts.append(pts[rng.randrange(M - 1)])
    return pts


def with_collinear(rng: random.Random, M: int) -> list[tuple[int, int]]:
    """Three points on one lattice line plus M - 3 points in general position."""
    while True:
        base = (rng.randint(-8, 8), rng.randint(-8, 8))
        step = (rng.randint(-4, 4), rng.randint(-4, 4))
        if step == (0, 0):
            continue
        line = [(base[0] + t * step[0], base[1] + t * step[1]) for t in (-2, 0, 3)]
        pts = line + general_planar(rng, M - 3)
        if _distinct(pts):
            return pts


SHIFT = 5  # translations of moved point sets are drawn from [-SHIFT, SHIFT]


def moved(rng: random.Random, pts) -> list[tuple[int, ...]]:
    """``pts`` translated by a seeded integer vector, in the same order.

    An affine map of the data is an invertible linear map of the parameters,
    so the activation fan keeps its classes and cones: the moved set is a new
    exact input of the same complexity.  Only translations are used because
    the partition walk and the simplex's pivot rule follow the order of the
    points and the signs of the coordinates: enumerating one 7-point dataset
    took up to 30% longer with its points reordered and up to 13% longer
    reflected in an axis, while translated copies took as long as the same
    input timed again (within 4%).
    """
    shift = [rng.randint(-SHIFT, SHIFT) for _ in pts[0]]
    return [tuple(x + t for x, t in zip(p, shift)) for p in pts]


def relu_layers(rng: random.Random, widths) -> list:
    """(weights, biases) per layer of a two-input net, in hundredths of
    [-3, 3]; coarser grids give many ties and degenerate boundaries."""

    def weight():
        return Fraction(rng.randint(-300, 300), 100)

    layers, prev = [], 2
    for w in widths:
        layers.append(([[weight() for _ in range(prev)] for _ in range(w)],
                       [weight() for _ in range(w)]))
        prev = w
    return layers


def convex_quad(rng: random.Random) -> list[tuple[int, int]]:
    while True:
        pts = general_planar(rng, 4)
        if not oracle.has_interior_point(pts):
            return pts


def triangle_with_inner(rng: random.Random) -> list[tuple[int, int]]:
    while True:
        pts = general_planar(rng, 4)
        if oracle.has_interior_point(pts):
            return pts


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Op:
    """One timed operation: a label for reports and the generated inputs."""

    label: str
    args: tuple


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.round: list[Op] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> list[str]:
        """Problems found in ``result``; empty when the output is correct."""
        raise NotImplementedError


class FanEnum(Workload):
    """Each op enumerates the activation fan of a fresh dataset, bypassing the
    fan cache (mirrors ``enum-fan``).

    Op cost depends on the point configuration, and between random datasets
    of one kind it varies enough to move a round's median op by 9-18%.  So
    the configurations are drawn once from a fixed pool seed, and ``--seed``
    translates each of them, which keeps its fan's combinatorics (see
    ``moved``).
    """

    name = "fan-enum"
    # (generator, points, N, ops per round).  Six ops take ~2 s: four of 7
    # planar points with N = 4, 9 planar points with N = 3 and 7 planar points
    # with a collinear triple.  Two kinds take ~1 s and two ~4 s, so the
    # median op is a middle one of the ~2 s ops, not the cheapest of them.
    MIX = (
        ("planar", 7, 4, 4),
        ("planar", 9, 3, 1),
        ("collinear", 7, 4, 1),
        ("spatial", 6, 4, 1),
        ("coincident", 7, 4, 1),
        ("spatial", 8, 3, 1),
        ("coincident", 8, 4, 1),
    )
    PROBES = 48  # random parameter vectors whose patterns must be enumerated
    POOL = "fan-enum:pool"

    def setup(self):
        gens = {
            "planar": general_planar,
            "spatial": general_spatial,
            "coincident": with_coincident,
            "collinear": with_collinear,
        }
        pool = random.Random(self.POOL)
        for kind, M, N, count in self.MIX:
            for _ in range(count):
                data = fan.dataset(moved(self.rng, gens[kind](pool, M)))
                probes = tuple(
                    tuple(self.rng.randint(-30, 30) for _ in range(N * (data.d + 1)))
                    for _ in range(self.PROBES)
                )
                self.round.append(Op(f"{kind}-{M}pts-N{N}", (data, N, probes)))

    def run(self, op):
        data, N, _ = op.args
        index = fan.fan_index(data, N, use_cache=False)
        return index, sorted(index.iter_assignments())

    def check(self, op, result):
        data, N, probes = op.args
        index, assigns = result
        problems = []
        expected = sum(perm(N, len(rep.parts)) for rep in index.reps)
        if len(assigns) != expected or len(set(assigns)) != len(assigns):
            problems.append(f"{len(assigns)} assignments, {expected} expected, all distinct")
        lifted = oracle.lift(data.points)
        for assign, witness in index.iter_patterns_with_witness():
            if oracle.unique_assignment(witness, N, lifted) != assign:
                problems.append(f"witness of {assign} does not realize it")
                break
        known = set(assigns)
        for theta in probes:
            assign = oracle.unique_assignment(theta, N, lifted)
            if assign is not None and assign not in known:
                problems.append(f"pattern {assign} of a random parameter is missing")
                break
        return problems


class LevelWalls(Workload):
    """One dataset is enumerated in setup; each op is the level set of one
    loss k with its wall adjacency (mirrors ``levels``).

    Op cost follows the level's size and its walls, which vary between random
    datasets even at one size.  So the dataset is drawn once from a fixed
    pool seed and ``--seed`` moves it (see ``moved``).  Every seed then has
    the same level sizes and walls on new exact inputs.
    """

    name = "level-walls"
    M, N, n = 7, 4, 2
    POOL = "level-walls:pool"
    # Target sizes of the level sets (cones).  A round is k = 0, 1, 2 on the
    # target whose levels 1 and 2 come closest to them, so the median op is
    # the level-1 op and every run has one level above 1,000 cones.
    LEVEL1, LEVEL2 = 300, 1020

    def setup(self):
        pool = random.Random(self.POOL)
        self.data = fan.dataset(moved(self.rng, general_planar(pool, self.M)))
        index = fan.fan_index(self.data, self.N)  # fills the fan cache the ops hit
        self.assigns = list(index.iter_assignments())
        # Loss depends only on the dichotomy an assignment induces.
        dichotomies = Counter(tuple(1 if t <= self.n else -1 for t in a) for a in self.assigns)
        self.sizes = {}
        for target in product((1, -1), repeat=self.M):
            if 1 in target and -1 in target:
                sizes = Counter()
                for dich, count in dichotomies.items():
                    sizes[sum(1 for x, y in zip(dich, target) if x != y)] += count
                self.sizes[target] = sizes
        targets = list(self.sizes)
        pool.shuffle(targets)  # ties break in the pool's order, alike for every seed

        def miss(target, k, want):
            return abs(self.sizes[target][k] - want) / want

        main = min(targets, key=lambda t: miss(t, 1, self.LEVEL1) + miss(t, 2, self.LEVEL2))
        self.round = [Op(f"k{k}", (self.data, main, k)) for k in (0, 1, 2)]

    def run(self, op):
        data, target, k = op.args
        return classify.level_set(data, self.n, self.N - self.n, target, k)

    def check(self, op, report):
        data, target, k = op.args
        problems = []
        want = sorted(a for a in self.assigns if oracle.assignment_loss(a, target, self.n) == k)
        got = [p.assignment() for p in report.patterns]
        if got != want:
            problems.append(f"level {k} has {len(got)} cones, {len(want)} counted directly")
        if report.count != self.sizes[target][self.M - k]:
            problems.append(f"level {k} size {report.count} != level {self.M - k} size")
        for x, y, _ in report.adjacency:
            if not oracle.is_wall_shape(got[x], got[y], data.points):
                problems.append(f"edge {x}-{y} is not a one-point term swap")
                break
        members = sorted(i for comp in report.components for i in comp)
        if members != list(range(report.count)):
            problems.append("components do not partition the level")
        return problems


class ReluBoundary(Workload):
    """Each op converts a seeded two-input ReLU net, prunes it and computes and
    renders its decision boundary (mirrors ``relu-convert --prune`` followed
    by ``boundary --svg``).

    Op cost grows steeply with the number of terms that survive pruning, and
    that number varies several-fold between random nets of one architecture.
    So the nets are drawn once from a fixed pool seed, and ``--seed``
    reparametrizes each of them without changing the function it computes up
    to a symmetry of the input square: a signed permutation of the inputs,
    hidden-neuron permutations, and positive rescalings of hidden neurons by
    1/2 or 2 (ReLU is positively homogeneous).  Every seed then presents new
    rational inputs of the same complexity.
    """

    name = "relu-boundary"
    ARCHS = (((3, 1), 16), ((2, 2, 1), 16), ((3, 2, 1), 8))  # (widths, nets per round)
    POOL = "relu-boundary:pool"
    SCALES = (Fraction(1, 2), Fraction(1), Fraction(2))
    WINDOW = (Fraction(-4), Fraction(4), Fraction(-4), Fraction(4))
    SAMPLES = 12  # seeded points where network and tropical values must agree
    # Rendering twice costs as much as the op, so the byte-identity check runs
    # on the first net of each architecture only.

    def setup(self):
        pool = random.Random(self.POOL)
        for widths, count in self.ARCHS:
            for i in range(count):
                net = relu.network(self._reparametrized(relu_layers(pool, widths)))
                data = fan.dataset([self._point(4) for _ in range(6)])
                samples = tuple(self._point(40) for _ in range(self.SAMPLES))
                label = "x".join(map(str, widths))
                self.round.append(Op(f"net-{label}", (net, data, samples, i == 0)))

    def _point(self, bound: int) -> tuple[Fraction, Fraction]:
        return tuple(Fraction(self.rng.randint(-10 * bound, 10 * bound), 10) for _ in range(2))

    def _reparametrized(self, layers):
        rng = self.rng
        perm = rng.sample(range(2), 2)
        signs = [rng.choice((1, -1)) for _ in range(2)]
        W, c = layers[0]
        layers[0] = ([[signs[j] * row[perm[j]] for j in range(2)] for row in W], c)
        for l in range(len(layers) - 1):
            (W, c), (W_next, c_next) = layers[l], layers[l + 1]
            order = rng.sample(range(len(W)), len(W))
            scale = [rng.choice(self.SCALES) for _ in W]
            layers[l] = ([[x * s for x in W[k]] for k, s in zip(order, scale)],
                         [c[k] * s for k, s in zip(order, scale)])
            layers[l + 1] = ([[row[k] / s for k, s in zip(order, scale)] for row in W_next], c_next)
        return layers

    def run(self, op):
        net, data, _, _ = op.args
        conversion = relu.net_to_tropical(net)
        pruned = relu.prune_terms(conversion.theta)
        edges = dual.decision_boundary(pruned)
        svg = dual.render_svg(pruned, data, self.WINDOW)
        return conversion.theta, pruned, edges, svg

    def check(self, op, result):
        net, data, samples, rerender = op.args
        theta, pruned, edges, svg = result
        problems = []
        for x in samples:
            want = relu.net_eval(net, x)
            if oracle.rational_value(theta, x) != want or oracle.rational_value(pruned, x) != want:
                problems.append(f"tropical value differs from the network at {x}")
                break
        if pruned.n > theta.n or pruned.m > theta.m:
            problems.append("pruning added terms")
        if any((e.i <= pruned.n) == (e.j <= pruned.n) for e in edges):
            problems.append("a boundary edge joins two terms of one block")
        if rerender and dual.render_svg(pruned, data, self.WINDOW) != svg:
            problems.append("two renderings of one boundary differ")
        return problems


class AllFaces(Workload):
    """Each op computes every cone of a four-point planar fan with N = 2, checks
    the pattern and oriented-matroid axioms and walks a chamber path (mirrors
    ``check-axioms --n 1 --m 1`` followed by ``path``)."""

    name = "all-faces"
    N = 2
    SHAPES = (("convex", convex_quad), ("inner", triangle_with_inner)) * 2

    def setup(self):
        for kind, gen in self.SHAPES:
            data = fan.dataset(gen(self.rng))
            self.round.append(Op(f"{kind}-4pts", (data, self.rng.randrange(1 << 16))))

    def run(self, op):
        data, pick = op.args
        cones = fan.enumerate_all_cones(data, self.N)
        pattern_report = matroids.pattern_axioms_check([c.pattern for c in cones])
        covectors = classify.covectors_linear(data)
        om_report = matroids.om_axioms_check(covectors)
        maximal = [c for c in covectors if 0 not in c]
        start = maximal[pick % len(maximal)]
        target = tuple(-s for s in start)
        path = classify.chamber_path(start, target, data)
        return cones, pattern_report, covectors, om_report, start, target, path

    def check(self, op, result):
        data, _ = op.args
        cones, pattern_report, covectors, om_report, start, target, path = result
        problems = []
        if len(pattern_report.results) != 6 or not pattern_report.all_passed:
            problems.append("pattern properties fail or are missing")
        if len(om_report.results) != 4 or not om_report.all_passed:
            problems.append("oriented-matroid axioms fail or are missing")
        if len(covectors) != len(cones):
            problems.append(f"{len(covectors)} covectors for {len(cones)} cones")
        lifted = oracle.lift(data.points)
        for cone in cones:
            if oracle.argmax_sets(cone.relint, self.N, lifted) != cone.pattern.neighbors:
                problems.append(f"relative-interior point misses pattern {cone.pattern.key()}")
                break
        seps = [oracle.separation_size(c, target) for c in path]
        if path[0] != start or path[-1] != target:
            problems.append("chamber path has the wrong ends")
        if any(b >= a for a, b in zip(seps, seps[1:])):
            problems.append(f"separations {seps} do not strictly decrease")
        return problems


WORKLOADS = {w.name: w for w in (FanEnum, LevelWalls, ReluBoundary, AllFaces)}
