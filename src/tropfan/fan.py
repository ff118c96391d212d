"""Activation patterns, activation cones, and enumeration of the activation fan.

A pattern records, for each data point, the set of terms attaining the max.
Its cone in parameter space R^{N(d+1)} is cut out by the homogeneous rows
(a_{i*} - a_i) + <s_{i*} - s_i, p> >= 0 over edges (p, i*) and competitors i.

Full-dimensional cones correspond exactly to degree-one patterns whose system
is strictly feasible.  Enumeration walks canonical set partitions of the data
into at most N groups (term labels are interchangeable, so each unordered
partition is LP-checked once and then expanded to all injective labelings).
The walk is exact: a node, a partition of the first k points, is expanded
only when its own strict LP is feasible.  The part of point 0 is gauge-fixed
to zero, so every node has the same columns and a child only adds rows.
Every LP here runs the one dual simplex of ``geometry.max_slack``; a child
starts it from a copy of its parent's optimal tableau
(``max_slack(tableau=...)``) instead of the empty system's, and a leaf's
witness is read off its tableau and checked in integers.  The leaf is kept
in integers as well: its witness blocks become Fractions only when first
read, and each class maps a relabeling to its assignment with one
``itemgetter`` over the part of each point.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import ExitStack
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, permutations
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .geometry import exact_rank, max_slack, relint_point
from .rationals import LazyTuple, Vec, integerize, vec, zeros
from .tropical import SignomialParams, TropicalRationalParams, eval_signomial


class CapExceededError(RuntimeError):
    """Enumeration hit the configured candidate cap."""


@dataclass(frozen=True)
class Dataset:
    """Points in R^d; ``lifts[k]`` is (1, p_k) times the least positive
    integer making it integral, the row every tie row is cut from."""

    points: tuple[Vec, ...]
    d: int
    lifts: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.points:
            raise ValueError("dataset needs at least one point")
        for p in self.points:
            if len(p) != self.d:
                raise ValueError(f"point of length {len(p)} in dimension {self.d}")
        object.__setattr__(self, "lifts", tuple(integerize((1, *p))[0] for p in self.points))

    @property
    def M(self) -> int:
        return len(self.points)


def dataset(points, d: int | None = None) -> Dataset:
    pts = tuple(vec(p) for p in points)
    return Dataset(pts, len(pts[0]) if d is None and pts else d)


@dataclass(frozen=True)
class ActivationPattern:
    """Bipartite graph on data positions x term indices; terms are 1-based."""

    M: int
    N: int
    neighbors: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.neighbors) != self.M:
            raise ValueError("one neighbor set per data point required")
        for nb in self.neighbors:
            if not nb:
                raise ValueError("every data point must activate at least one term")
            if not all(1 <= i <= self.N for i in nb):
                raise ValueError("term index out of range")

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical sort key: per-point neighbor sets in ascending order."""
        return tuple(tuple(sorted(nb)) for nb in self.neighbors)

    def is_degree_one(self) -> bool:
        return all(len(nb) == 1 for nb in self.neighbors)

    def assignment(self) -> tuple[int, ...]:
        if not self.is_degree_one():
            raise ValueError("assignment is only defined for degree-one patterns")
        return tuple(next(iter(nb)) for nb in self.neighbors)

    def union(self, other: "ActivationPattern") -> "ActivationPattern":
        if (self.M, self.N) != (other.M, other.N):
            raise ValueError("pattern shapes differ")
        return ActivationPattern(
            self.M, self.N, tuple(a | b for a, b in zip(self.neighbors, other.neighbors))
        )

    def relabel(self, perm: dict[int, int]) -> "ActivationPattern":
        return ActivationPattern(
            self.M, self.N, tuple(frozenset(perm[i] for i in nb) for nb in self.neighbors)
        )


def pattern_from_assignment(assign: Sequence[int], N: int) -> ActivationPattern:
    return ActivationPattern(len(assign), N, tuple(frozenset((t,)) for t in assign))


def complete_pattern(M: int, N: int) -> ActivationPattern:
    full = frozenset(range(1, N + 1))
    return ActivationPattern(M, N, (full,) * M)


@dataclass(frozen=True)
class FanCone:
    """A cone of the fan: its closure pattern, which fixes its H-description
    (``cone_constraints``), its dimension and a relative-interior point."""

    pattern: ActivationPattern
    dimension: int
    relint: Vec


def _as_signomial(theta) -> SignomialParams:
    if isinstance(theta, TropicalRationalParams):
        return theta.merged()
    if isinstance(theta, SignomialParams):
        return theta
    raise TypeError("expected signomial or tropical rational parameters")


def pattern_of(theta, data: Dataset) -> ActivationPattern:
    """Activation pattern of the parameters on the data; rational parameters
    are flattened with numerator terms first."""
    sig = _as_signomial(theta)
    if sig.d != data.d:
        raise ValueError(f"parameters in dimension {sig.d}, data in dimension {data.d}")
    nbrs = tuple(eval_signomial(sig, p)[1] for p in data.points)
    return ActivationPattern(data.M, sig.n, nbrs)


def theta_from_vector(v: Sequence[Fraction], N: int, d: int) -> SignomialParams:
    """Inverse of the block layout (a_1, s_1, ..., a_N, s_N)."""
    if len(v) != N * (d + 1):
        raise ValueError("parameter vector has wrong length")
    terms = []
    for i in range(N):
        block = v[i * (d + 1) : (i + 1) * (d + 1)]
        terms.append((block[0], tuple(block[1:])))
    return SignomialParams(tuple(terms), d)


def _tie_row(lift: tuple[int, ...], hi: int, lo: int, blocks: int) -> tuple[int, ...]:
    """Integer row of (a_hi - a_lo) + <s_hi - s_lo, p> over ``blocks`` term
    blocks, scaled by the positive integer of p's lift.

    A term index above ``blocks`` is the gauge-fixed zero block and adds
    nothing, so ``blocks = N - 1`` drops the last term's block.
    """
    width = len(lift)
    row = [0] * (blocks * width)
    if hi != lo:
        if hi <= blocks:
            row[(hi - 1) * width : hi * width] = lift
        if lo <= blocks:
            row[(lo - 1) * width : lo * width] = [-x for x in lift]
    return tuple(row)


def _pattern_system(
    data: Dataset, active: Sequence[tuple[int, tuple[int, ...]]]
) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(dim, strict, equalities) of the bipartite graph ``active``: one
    (point k, sorted tuple of tied terms) per point, in row order.

    The graph's cone is realizable (some parameter has exactly this pattern
    on these points) iff the system is strictly feasible.  The used terms are
    renumbered 1..r in increasing order and block r is gauge-fixed to zero,
    which the all-blocks lineality makes lossless.  Point k ties its first
    term to each other tied term (equalities) and beats every other used
    term (strict).  A term the graph never uses is left out: its block can
    be set low enough that it never wins.
    """
    used = sorted({t for _, tied in active for t in tied})
    label = {t: r for r, t in enumerate(used, start=1)}
    blocks = len(used) - 1
    strict: list[tuple[int, ...]] = []
    equalities: list[tuple[int, ...]] = []
    for k, tied in active:
        lift, ties = data.lifts[k], [label[t] for t in tied]
        for l in label.values():
            if l != ties[0]:
                (equalities if l in ties else strict).append(_tie_row(lift, ties[0], l, blocks))
    return blocks * (data.d + 1), tuple(strict), tuple(equalities)


def _check_sizes(G: ActivationPattern, data: Dataset):
    if G.M != data.M:
        raise ValueError("pattern and dataset sizes differ")


def _cone_rows(G: ActivationPattern) -> Iterator[tuple[int, int, int]]:
    """(point k, edge term i*, competitor i) for each row of G's cone, in
    ``cone_constraints`` row order."""
    for k, nb in enumerate(G.neighbors):
        for i_star in sorted(nb):
            for i in range(1, G.N + 1):
                if i != i_star:
                    yield k, i_star, i


def cone_constraints(G: ActivationPattern, data: Dataset) -> tuple[tuple[int, ...], ...]:
    """Integer rows, each >= 0 on the activation cone of G in R^{N(d+1)}.

    Row order is (point, edge term ascending, competitor ascending); the count
    is sum_p deg(p) * (N - 1).
    """
    _check_sizes(G, data)
    return tuple(_tie_row(data.lifts[k], i_star, i, G.N) for k, i_star, i in _cone_rows(G))


def cone_of_graph(H: ActivationPattern, data: Dataset) -> FanCone:
    """The fan cone cut out by H's inequalities, labeled by its closure pattern.

    A row that is >= 0 on the cone vanishes on all of it exactly when it
    vanishes at a relative-interior point, so the implied rows that
    ``relint_point`` certifies are the ties there: the closure adds term i
    to point k for each implied row (k, i*, i).  The dimension is the
    ambient dimension minus the rank of the implied rows.
    """
    dim, rows = H.N * (data.d + 1), cone_constraints(H, data)
    point, implied = relint_point(dim, rows)
    nbrs = [set(nb) for nb in H.neighbors]
    for r, (k, _, i) in enumerate(_cone_rows(H)):
        if r in implied:
            nbrs[k].add(i)
    closure = ActivationPattern(H.M, H.N, tuple(frozenset(nb) for nb in nbrs))
    return FanCone(closure, dim - exact_rank([rows[r] for r in implied]), point)


# ---------------------------------------------------------------------------
# Enumeration of maximal cones


class _WitnessBlocks(LazyTuple):
    """A leaf's witness blocks as a tuple of tuples of Fractions, built on
    first read from the blocks' integer values, one after another in one
    list, and their common denominator; the list is then dropped.
    ``enum-fan``, ``levels`` and ``dichotomies`` never read them, and only
    ints are pickled until then."""

    __slots__ = ("_nums", "_den", "_width")

    def __init__(self, nums: list[int], den: int, width: int):
        self._nums, self._den, self._width, self._x = nums, den, width, None

    def _build(self) -> tuple[Vec, ...]:
        nums, self._nums = self._nums, None
        den, w = self._den, self._width
        return tuple(tuple(Fraction(v, den) for v in nums[i : i + w]) for i in range(0, len(nums), w))

    def __len__(self) -> int:
        return len(self._nums) // self._width if self._x is None else len(self._x)


@dataclass(frozen=True)
class _CanonicalCone:
    """One strictly feasible unordered partition plus a strict witness.

    ``witness_blocks`` holds one (a, s) block per part under the canonical
    labeling part t -> term t+1; ``pad_a`` is a constant low enough that
    padding terms (a, 0) never reach the max on any data point.  A leaf of
    the walk is checked and kept in integers, and its ``witness_blocks`` are
    a ``_WitnessBlocks``, whose Fractions are built on first read.
    """

    parts: tuple[tuple[int, ...], ...]
    witness_blocks: Sequence[Vec]
    pad_a: Fraction


def _child(data: Dataset, R: int, owner: list[int], t: int, tableau: list) -> tuple[Fraction, list]:
    """(optimum, tableau) of the node that puts point k = len(owner)
    into part t of the node ``owner`` (owner[j] is the part of point j, and
    t = the number of open parts opens a new one), solved warm from the
    node's tableau.

    Part 0 holds point 0 and its block is gauge-fixed to zero, so x holds
    the blocks of parts 1..R-1 at every node.  Point k must beat every other
    open part, and a new part adds the row of each earlier point, whose own
    part must beat it.  A leaf's rows are then those of its partition.
    """
    lift, r = data.lifts[len(owner)], max(owner, default=-1) + 1
    # Part p is term p, and part 0 is term R, past the R - 1 blocks: the zero block.
    rows = [_tie_row(lift, t or R, l or R, R - 1) for l in range(r) if l != t]
    if t == r:
        rows += [_tie_row(data.lifts[j], p or R, t, R - 1) for j, p in enumerate(owner)]
    child = list(tableau)
    opt, _ = max_slack((R - 1) * (data.d + 1), (), rows, tableau=child)
    return opt, child


def _nodes(data: Dataset, R: int, owner: list[int], tableau: list, depth: int) -> Iterator[tuple[list[int], list]]:
    """(owner, tableau) of each realizable partition of the first ``depth``
    points below a node, depth first, children in canonical order (the open
    parts, then a new part while fewer than R are open); each node's LP is
    solved once, warm from its parent's tableau."""
    if len(owner) == depth:
        yield owner, tableau
        return
    for t in range(min(max(owner, default=-1) + 2, R)):
        opt, child = _child(data, R, owner, t, tableau)
        if opt > 0:
            yield from _nodes(data, R, owner + [t], child, depth)


def _leaf_cone(data: Dataset, R: int, owner: list[int], tableau: list) -> _CanonicalCone:
    """The leaf's canonical cone, once its witness is checked in integers: at
    each point its part's term must beat every other part's term in the
    tableau's rhs values, or an ``AssertionError`` is raised.  The witness
    blocks are those values over the tableau's denominator, kept in
    integers until first read (``_WitnessBlocks``).  ``pad_a`` is one less
    than the least value of a point's own term, over the points, found by
    integer cross-multiplication; it is the one Fraction built here."""
    sx, width, r = tableau[0], data.d + 1, max(owner) + 1
    nums = [0] * width + sx.numerators((r - 1) * width)  # part 0's block is zero
    blocks = [nums[l * width : (l + 1) * width] for l in range(r)]
    parts: list[list[int]] = [[] for _ in range(r)]
    # The least values[p] / lift[0] so far, as two ints: point 0 is in part 0, whose block is zero.
    low, low_lift = 0, 1
    for k, (lift, p) in enumerate(zip(data.lifts, owner)):
        values = [sum(map(mul, lift, block)) for block in blocks]
        v = values[p]
        if max(values) != v or values.count(v) > 1:
            raise AssertionError("leaf witness violates a strict row")
        if v * low_lift < low * lift[0]:
            low, low_lift = v, lift[0]
        parts[p].append(k)
    pad_a = Fraction(low, sx.den * low_lift) - 1
    return _CanonicalCone(tuple(map(tuple, parts)), _WitnessBlocks(nums, sx.den, width), pad_a)


def _chunk_worker(args) -> list[_CanonicalCone]:
    """Realizable leaves below one prefix node, walked on from the tableau
    the node already holds, in walk order.  At most ``cap + 1`` are walked:
    one past the cap already shows that the fan passes it."""
    data, R, owner, tableau, cap = args
    leaves = _nodes(data, R, owner, tableau, data.M)
    return [_leaf_cone(data, R, *leaf) for leaf in islice(leaves, None if cap is None else cap + 1)]


def _enumerate_canonical(
    data: Dataset, N: int, cap: Optional[int], workers: int, progress: Optional[Callable[[str], None]]
) -> list[_CanonicalCone]:
    """Canonical cones in walk order.  The chunks are the nodes of the first
    depth with at least 4 per worker, each level grown from the one above;
    each walks on from its node's tableau, through ``map`` or a process
    pool's ``imap`` by the worker count, and is read as it finishes.  The
    walk stops after the first chunk that takes the total past ``cap``."""
    workers = min(workers, os.cpu_count() or 1)
    R = min(N, data.M)
    if progress:
        progress(f"enumerating canonical partitions of {data.M} points into <= {N} groups")
    depth, level = 0, [([], [])]
    while depth < data.M and len(level) < 4 * workers:
        depth += 1
        level = [node for owner, tableau in level for node in _nodes(data, R, owner, tableau, depth)]
    tasks = [(data, R, owner, tableau, cap) for owner, tableau in level]
    cones: list[_CanonicalCone] = []
    with ExitStack() as stack:
        if workers > 1:
            import multiprocessing as mp
            chunks = stack.enter_context(mp.Pool(workers)).imap(_chunk_worker, tasks)
        else:
            chunks = map(_chunk_worker, tasks)
        for chunk in chunks:
            cones += chunk
            if cap is not None and len(cones) > cap:
                break
    return cones


class _FanIndex:
    """Enumerated maximal cones of (data, N), stored as canonical partitions.
    The walk reaches only realizable leaves, so ``reps`` holds one per leaf."""

    def __init__(self, data: Dataset, N: int, reps: list[_CanonicalCone]):
        self.data = data
        self.N = N
        self.reps = reps

    def _classes(self, relabelings=None) -> Iterator[tuple[_CanonicalCone, Iterable[tuple[int, ...]], Callable]]:
        """(rep, perms, get) for each canonical partition: the injective
        relabelings part t -> term perm[t], or those ``relabelings(rep)``
        yields, and the map from a perm to its assignment, one itemgetter
        over the part of each point (a 1-tuple slice for one point, where
        an itemgetter of one item returns a scalar)."""
        M = self.data.M
        for rep in self.reps:
            owner = [0] * M
            for t, part in enumerate(rep.parts):
                for k in part:
                    owner[k] = t
            perms = relabelings(rep) if relabelings else permutations(range(1, self.N + 1), len(rep.parts))
            yield rep, perms, itemgetter(*owner) if M > 1 else itemgetter(slice(0, 1))

    def iter_assignments(self, relabelings=None) -> Iterator[tuple[int, ...]]:
        """All degree-one maximal patterns as 1-based term assignments (see ``_classes``)."""
        return chain.from_iterable(map(get, perms) for _, perms, get in self._classes(relabelings))

    def witness_for(self, rep: _CanonicalCone, perm: Sequence[int]) -> Vec:
        """Full-space strict witness for the relabeling part t -> term perm[t]."""
        d = self.data.d
        blocks: list[Vec] = [(rep.pad_a,) + zeros(d)] * self.N
        for t, term in enumerate(perm):
            blocks[term - 1] = rep.witness_blocks[t]
        return tuple(x for b in blocks for x in b)

    def iter_patterns_with_witness(self) -> Iterator[tuple[tuple[int, ...], Vec]]:
        classes = self._classes()
        return ((get(perm), self.witness_for(rep, perm)) for rep, perms, get in classes for perm in perms)


_FAN_CACHE_SIZE = 8
_FAN_CACHE: OrderedDict[tuple[Dataset, int], _FanIndex] = OrderedDict()  # least recent first


def fan_index(
    data: Dataset,
    N: int,
    cap: Optional[int] = None,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    use_cache: bool = True,
) -> _FanIndex:
    """Enumerated maximal cones of (data, N).  ``cap`` bounds the number of
    realizable classes over all chunks, whatever ``workers`` is; passing it
    raises ``CapExceededError`` here alone, on fresh and cached indexes
    alike, before anything is cached.  The cache keeps the
    ``_FAN_CACHE_SIZE`` most recently used indexes."""
    key = (data, N)
    index = _FAN_CACHE.get(key) if use_cache else None
    if index is None:
        index = _FanIndex(data, N, _enumerate_canonical(data, N, cap, workers, progress))
    if cap is not None and len(index.reps) > cap:
        raise CapExceededError("candidate cap exceeded during fan enumeration")
    if use_cache:
        _FAN_CACHE[key] = index
        _FAN_CACHE.move_to_end(key)
        if len(_FAN_CACHE) > _FAN_CACHE_SIZE:
            _FAN_CACHE.popitem(last=False)
    return index


def enumerate_maximal_cones(
    data: Dataset,
    N: int,
    cap: Optional[int] = None,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> list[ActivationPattern]:
    """All degree-one patterns with strictly feasible cones, in canonical
    lexicographic order of their assignment sequences."""
    if N < 1:
        raise ValueError("N must be at least 1")
    index = fan_index(data, N, cap=cap, workers=workers, progress=progress)
    assigns = sorted(index.iter_assignments())
    return [pattern_from_assignment(a, N) for a in assigns]


def is_maximal_pattern(G: ActivationPattern, data: Dataset) -> bool:
    """True iff every degree is 1 and the all-strict competitor system is
    strictly feasible (so the cone is full-dimensional)."""
    _check_sizes(G, data)
    if not G.is_degree_one():
        return False
    dim, rows, _ = _pattern_system(data, list(enumerate(G.key())))
    return not rows or max_slack(dim, (), rows)[0] > 0


def enumerate_all_cones(
    data: Dataset,
    N: int,
    cap: Optional[int] = None,
    workers: int = 1,
) -> list[FanCone]:
    """Every cone of the fan, sorted by pattern key, found by face descent.

    The walk starts from the maximal cones.  A facet of the cone of a closure
    pattern G is its intersection with the hyperplane of one row (k, i*, i),
    i not in G's neighbors of point k, and that intersection is the cone of G
    plus the edge (k, i).  So each popped cone tries every single added edge,
    and every face, the lineality cone included, is reached through a chain of
    facets.  ``cap`` bounds the maximal-cone leaves and then the cone count.

    When ``cone_of_graph(H)`` returns the closure P, every pattern H + e
    with e an edge of P not in H is marked tried as well: its cone lies
    between the cones of P and H, which are equal, so its closure is P.
    """
    index = fan_index(data, N, cap=cap, workers=workers)
    cones: dict[tuple, FanCone] = {}
    for assign, witness in index.iter_patterns_with_witness():
        G = pattern_from_assignment(assign, N)
        cones[G.key()] = FanCone(G, N * (data.d + 1), witness)
    tried = set(cones)
    todo = list(cones.values())
    while todo:
        nbrs = todo.pop().pattern.neighbors
        for k, nb in enumerate(nbrs):
            for i in range(1, N + 1):
                if i in nb:
                    continue
                H = ActivationPattern(data.M, N, nbrs[:k] + (nb | {i},) + nbrs[k + 1 :])
                key = H.key()
                if key in tried:
                    continue
                tried.add(key)
                cone = cone_of_graph(H, data)
                for j, (h, c) in enumerate(zip(H.neighbors, cone.pattern.neighbors)):
                    for t in c - h:
                        tried.add(key[:j] + (tuple(sorted(h | {t})),) + key[j + 1 :])
                if cone.pattern.key() not in cones:
                    cones[cone.pattern.key()] = cone
                    tried.add(cone.pattern.key())
                    todo.append(cone)
                    if cap is not None and len(cones) > cap:
                        raise CapExceededError("cone cap exceeded")
    return [cones[k] for k in sorted(cones)]


def affine_dim(data: Dataset) -> int:
    return exact_rank(data.lifts) - 1


def lineality_dim(data: Dataset, N: int) -> int:
    """(d+1) + (N-1)(d - dim aff(D)); the largest subspace inside every cone."""
    return (data.d + 1) + (N - 1) * (data.d - affine_dim(data))


def polytope_vertex_of(G: ActivationPattern, data: Dataset, check: bool = True) -> Vec:
    """Vertex of the activation polytope dual to a maximal cone: the sum over
    points p of the block vector placing (1, p) in the slot of p's term."""
    _check_sizes(G, data)
    if check and not is_maximal_pattern(G, data):
        raise ValueError("pattern is not maximal")
    N, d = G.N, data.d
    out = [Fraction(0)] * (N * (d + 1))
    for p, nb in zip(data.points, G.neighbors):
        i = next(iter(nb))
        base = (i - 1) * (d + 1)
        out[base] += 1
        for j, x in enumerate(p):
            out[base + 1 + j] += x
    return tuple(out)
