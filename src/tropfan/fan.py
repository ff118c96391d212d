"""Activation patterns, activation cones, and enumeration of the activation fan.

A pattern records, for each data point, the set of terms attaining the max.
Its cone in parameter space R^{N(d+1)} is cut out by the homogeneous rows
(a_{i*} - a_i) + <s_{i*} - s_i, p> >= 0 over edges (p, i*) and competitors i.

Full-dimensional cones correspond exactly to degree-one patterns whose system
is strictly feasible.  Enumeration walks canonical set partitions of the data
into at most N groups (term labels are interchangeable, so each unordered
partition is LP-checked once and then expanded to all injective labelings).
The walk is exact: a node, a partition of the first k points, is expanded
only when its own strict LP is feasible.  It runs over the distinct point
vectors only, since coincident points share a part in every realizable
partition; each copy joins the part of its first occurrence when a leaf is
stored.  The part of point 0 is gauge-fixed to zero, so every node has the
same columns and a child only adds rows.  Every LP here runs the one dual
simplex of ``geometry.max_slack``; a child starts it from a copy of its
parent's optimal tableau (``max_slack(tableau=...)``) instead of the empty
system's.  A leaf whose parent's own witness already puts the last point in
its part takes no LP and keeps that tableau.  Every leaf's witness is read
off its tableau and checked in integers at every point.  The leaf is kept
in integers as well: its witness blocks become Fractions only where a
witness is read, and each class maps a relabeling to its assignment with
one ``itemgetter`` over the part of each point.

Every "no" of the walk is a checked certificate.  An infeasible child's
warm LP ends with Farkas multipliers y >= 0, one per row of its tableau,
that ``max_slack`` checks in integers: sum_i y_i f_i = 0, and y > 0 on some
strict row.  Its support S, the points of the rows with y_i > 0, and the
child's partition restricted to S, pi up to relabeling, form a nogood
(S, pi): it refutes, with no LP, every later child whose partition
restricted to S is pi.  That is sound:

* every tie row is +lift at one block and -lift at another, so its blocks
  sum to zero.  A certificate that vanishes off the gauge-fixed block of
  part 0 therefore vanishes on it too, and so holds in the full space of
  all R blocks, where any one block can be dropped again;
* every part that carries a supported row holds a point of S.  Otherwise
  its block of sum_i y_i f_i would read sum y * lift = 0 over the rows it
  loses, whose lifts have positive first entries.  So each supported row
  is "the part of j beats the part of j'" for points j, j' of S in
  different parts, and every node whose partition restricted to S is pi
  has it, with its parts relabeled;
* relabeling parts permutes blocks, so the same multipliers refute that
  node.

Two distinct points alone never make a certificate (their lifts would be
parallel), so S has at least three points.  ``_Nogoods`` stores each
nogood under its largest point k, and every node that places point k
looks it up there.
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
from .rationals import Vec, integerize, vec, zeros
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
            if min(nb) < 1 or max(nb) > self.N:
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


@dataclass(frozen=True)
class _CanonicalCone:
    """One strictly feasible unordered partition plus a strict witness.

    ``witness_blocks`` holds one (a, s) block per part under the canonical
    labeling part t -> term t+1, over the common denominator ``den``;
    ``pad`` over ``den`` is a constant low enough that padding terms
    (pad / den, 0) never reach the max on any data point.  A leaf of the
    walk keeps its blocks and pad in integers; they become Fractions only
    where a witness is read.
    """

    parts: tuple[tuple[int, ...], ...]
    witness_blocks: tuple[tuple[int, ...], ...]
    den: int
    pad: int


def _child(data: Dataset, R: int, owner: list[int], t: int, tableau: list) -> tuple[Fraction, list]:
    """(optimum, tableau) of the node that puts point k = len(owner)
    into part t of the node ``owner`` (owner[j] is the part of point j, and
    t = the number of open parts opens a new one), solved warm from the
    node's tableau.  At an optimum of 0 the list is instead the Farkas
    multipliers ``max_slack`` checked, one per row of the tableau in the
    order they were added (see ``_row_points``).

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
    child, y = list(tableau), []
    opt, _ = max_slack((R - 1) * (data.d + 1), (), rows, duals=y, tableau=child)
    return opt, child if opt > 0 else y


def _row_points(owner: list[int]) -> list[int]:
    """The point of each row of the node ``owner``'s tableau, in the order
    ``_child`` added them along the path from the root."""
    points, r = [], 0
    for k, t in enumerate(owner):
        if t < r:
            points += [k] * (r - 1)
        else:
            points += [k] * r + list(range(k))
            r += 1
    return points


def _canon(parts: Iterable[int]) -> tuple[int, ...]:
    """The parts relabeled in order of first occurrence, the same for any
    two sequences that differ by a relabeling of the parts only."""
    seen: dict[int, int] = {}
    return tuple([seen.setdefault(p, len(seen)) for p in parts])


class _Nogoods:
    """The nogoods the walk learned (see the module docstring for why a
    nogood refutes).

    A nogood (S, pi) with largest point k is stored under k and its rest, S
    without k.  The patterns of the nogoods on one rest share one
    ``itemgetter`` and one dict, keyed by the rest's partition up to
    relabeling, that maps it to the block-mate of k in each pi: a point of
    the rest, or None when k is alone in pi.  A node that places point k
    reads the rests stored under k only, one lookup each.
    """

    def __init__(self):
        self.stored: dict[int, dict[tuple[int, ...], tuple[itemgetter, dict]]] = {}
        self.canon: dict[tuple[int, ...], tuple[int, ...]] = {}  # each tuple of parts once through ``_canon``

    def refuted(self, owner: list[int], parts: range) -> set[int]:
        """The parts of ``parts`` that a learned nogood refutes for point k
        = len(owner) below the node ``owner``: the part of k's block-mate,
        or, when k is alone, every part outside the rest's parts, a new one
        included."""
        out, canon = set(), self.canon
        for get, patterns in self.stored.get(len(owner), {}).values():
            values = get(owner)
            key = canon.get(values)
            if key is None:
                key = canon[values] = _canon(values)
            for mate in patterns.get(key, ()):
                out |= _refuted_by(owner, mate, values, parts)
        return out

    def learn(self, child: list[int], y: list[int], parts: range) -> set[int]:
        """Store the nogood of the infeasible child ``child``, whose
        certificate y ``max_slack`` checked, and return the parts of
        ``parts`` it refutes for the child's last point.  Its support holds
        that point, since the child's parent is realizable, and at least two
        others (see the module docstring), so the rest's ``itemgetter``
        returns a tuple."""
        *rest, k = sorted({j for j, v in zip(_row_points(child), y, strict=True) if v})
        rest = tuple(rest)
        values = tuple(child[j] for j in rest)
        mate = next((j for j in rest if child[j] == child[k]), None)
        _, patterns = self.stored.setdefault(k, {}).setdefault(rest, (itemgetter(*rest), {}))
        patterns.setdefault(_canon(values), set()).add(mate)
        return _refuted_by(child, mate, values, parts)


def _refuted_by(owner: list[int], mate: Optional[int], values: tuple[int, ...], parts: range) -> set[int]:
    """The parts of ``parts`` a matching nogood refutes below the node
    ``owner``, whose rest holds the parts ``values``: the part of the
    block-mate ``mate``, or every part outside ``values`` when it is None."""
    return {owner[mate]} if mate is not None else {t for t in parts if t not in values}


def _witness_blocks(data: Dataset, owner: list[int], tableau: list) -> list[list[int]]:
    """The (a, s) block of each open part in the tableau's witness, as its
    rhs numerators over the tableau's denominator; part 0's is zero."""
    width, r = data.d + 1, max(owner) + 1
    nums = [0] * width + tableau[0].numerators((r - 1) * width)
    return [nums[l * width : (l + 1) * width] for l in range(r)]


def _kept_part(data: Dataset, owner: list[int], tableau: list) -> Optional[int]:
    """The open part where the node's own witness puts point k = len(owner)
    strictly above every other open part, or None (no part yet, or a tie).
    The witness is strict on the node's rows, so it is one for that child as
    well, whose new rows only ask point k to beat the other open parts."""
    if not owner:
        return None
    lift = data.lifts[len(owner)]
    values = [sum(map(mul, lift, block)) for block in _witness_blocks(data, owner, tableau)]
    top = max(values)
    return values.index(top) if values.count(top) == 1 else None


def _children(
    data: Dataset, R: int, owner: list[int], tableau: list, nogoods: _Nogoods
) -> Iterator[tuple[list[int], list]]:
    """(owner, tableau) of each realizable child of a node, in canonical
    order (the open parts, then a new part while fewer than R are open),
    each child's LP solved when it is reached, warm from the node's tableau.
    A child that a learned nogood refutes takes no LP, and an infeasible
    child's checked certificate becomes a nogood.  When the children are
    leaves, the one in the part ``_kept_part`` names is yielded with the
    node's own tableau and no LP; ``_leaf_cone`` checks that witness at
    every point, and an ``AssertionError`` is raised if a nogood refutes
    that leaf, since then a witness and a certificate disagree."""
    parts = range(min(max(owner, default=-1) + 2, R))
    refuted = nogoods.refuted(owner, parts)
    kept = _kept_part(data, owner, tableau) if len(owner) + 1 == data.M else None
    for t in parts:
        if t in refuted:
            if t == kept:
                raise AssertionError("kept leaf witness contradicts a checked certificate")
            continue
        if t == kept:
            yield owner + [t], tableau
            continue
        opt, child = _child(data, R, owner, t, tableau)
        if opt > 0:
            yield owner + [t], child
        else:
            refuted |= nogoods.learn(owner + [t], child, parts)


def _nodes(
    data: Dataset, R: int, owner: list[int], tableau: list, depth: int, nogoods: _Nogoods
) -> Iterator[tuple[list[int], list]]:
    """(owner, tableau) of each realizable partition of the first ``depth``
    points below a node, depth first (see ``_children``).  The children
    iterators of the nodes on the current path sit on one stack, so no walk
    recurses, and each is read only when the walk reaches it, so every LP is
    solved exactly when a recursive walk would solve it."""
    stack = [iter([(owner, tableau)])]
    while stack:
        for owner, tableau in stack[-1]:
            if len(owner) == depth:
                yield owner, tableau
            elif len(owner) + 1 == depth:
                yield from _children(data, R, owner, tableau, nogoods)
            else:
                stack.append(_children(data, R, owner, tableau, nogoods))
                break
        else:
            stack.pop()


def _leaf_cone(data: Dataset, owner: list[int], tableau: list) -> _CanonicalCone:
    """The leaf's canonical cone, once its witness is checked in integers: at
    each point its part's term must beat every other part's term in the
    tableau's rhs values, or an ``AssertionError`` is raised.  The witness
    blocks are those values, kept in integers with the tableau's
    denominator.  A point's own term takes the value v / (lift[0] * den).
    ``pad`` is the least v // lift[0] over the points, minus ``den``, so
    pad / den is below each of those values, and one less than the least of
    them when every lift[0] is 1, as on integer points."""
    sx, blocks = tableau[0], _witness_blocks(data, owner, tableau)
    parts: list[list[int]] = [[] for _ in blocks]
    low = 0  # point 0 is in part 0, whose block is zero
    for k, (lift, p) in enumerate(zip(data.lifts, owner)):
        values = [sum(map(mul, lift, block)) for block in blocks]
        v = values[p]
        if max(values) != v or values.count(v) > 1:
            raise AssertionError("leaf witness violates a strict row")
        low = min(low, v // lift[0])
        parts[p].append(k)
    return _CanonicalCone(tuple(map(tuple, parts)), tuple(map(tuple, blocks)), sx.den, low - sx.den)


def _distinct(data: Dataset) -> tuple[Dataset, tuple[int, ...]]:
    """(walk, first): the distinct point vectors of ``data`` in order of
    first occurrence (``data`` itself when there are no copies), and for
    each point of ``data`` the index in ``walk`` of its vector."""
    index: dict[Vec, int] = {}
    first = tuple(index.setdefault(p, len(index)) for p in data.points)
    return (data if len(index) == data.M else Dataset(tuple(index), data.d)), first


def _chunk_worker(args) -> list[_CanonicalCone]:
    """Realizable leaves below one prefix node of the walk over the distinct
    points, walked on from the tableau the node already holds and with the
    nogoods the task carries, in walk order, each stored with every copy in
    the part of its first occurrence.
    At most ``cap + 1`` are walked: one past the cap already shows that the
    fan passes it."""
    data, walk, first, R, owner, tableau, cap, nogoods = args
    leaves = islice(_nodes(walk, R, owner, tableau, walk.M, nogoods), None if cap is None else cap + 1)
    return [_leaf_cone(data, [owner[j] for j in first], tableau) for owner, tableau in leaves]


def _enumerate_canonical(
    data: Dataset, N: int, cap: Optional[int], workers: int, progress: Optional[Callable[[str], None]]
) -> list[_CanonicalCone]:
    """Canonical cones in walk order.  The walk runs over the distinct point
    vectors only: coincident points can never be strictly separated, so a
    copy lies in the part of its first occurrence in every realizable
    partition, and adds only rows its first occurrence already has.  The
    chunks are the nodes of the first depth with at least 4 per worker,
    each level grown from the one above; each walks on from its node's
    tableau, through ``map`` or a process pool's ``imap`` by the worker
    count, and is read as it finishes.  The walk stops after the first
    chunk that takes the total past ``cap``.  One store of nogoods serves
    the prefix levels and, at one worker, every chunk in order; a pool
    pickles each chunk's task, so each chunk gets its own copy of the
    prefix levels' store.  So the cones are the same at every worker count,
    and the LP counts repeat at each worker count but differ between
    them."""
    workers = min(workers, os.cpu_count() or 1)
    walk, first = _distinct(data)
    R = min(N, walk.M)
    if progress:
        progress(f"enumerating canonical partitions of {data.M} points ({walk.M} distinct) into <= {N} groups")
    depth, level, nogoods = 0, [([], [])], _Nogoods()
    while depth < walk.M and len(level) < 4 * workers:
        depth += 1
        level = [node for owner, tableau in level for node in _nodes(walk, R, owner, tableau, depth, nogoods)]
    tasks = [(data, walk, first, R, owner, tableau, cap, nogoods) for owner, tableau in level]
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
        relabelings part t -> term perm[t], or the per-part tuples
        ``relabelings(rep)`` yields, and the map from such a tuple to its
        per-point tuple, one itemgetter over the part of each point (a
        1-tuple slice for one point, where an itemgetter of one returns a scalar)."""
        M = self.data.M
        for rep in self.reps:
            owner = [0] * M
            for t, part in enumerate(rep.parts):
                for k in part:
                    owner[k] = t
            perms = relabelings(rep) if relabelings else permutations(range(1, self.N + 1), len(rep.parts))
            yield rep, perms, itemgetter(*owner) if M > 1 else itemgetter(slice(0, 1))

    def iter_assignments(self) -> Iterator[tuple[int, ...]]:
        """All degree-one maximal patterns as 1-based term assignments (see ``_classes``)."""
        return chain.from_iterable(map(get, perms) for _, perms, get in self._classes())

    def _witnesses(self, rep: _CanonicalCone, perms: Iterable[Sequence[int]]) -> Iterator[tuple[Sequence[int], Vec]]:
        """(perm, rep's full-space strict witness under the relabeling part
        t -> term perm[t]) for each perm: block t at term perm[t] and the
        pad block (pad, 0, ..., 0) at every term it leaves unused, so that
        term never reaches the max, all over ``den`` as Fractions.  rep's
        blocks and pad become Fractions once, for all."""
        blocks = [tuple(Fraction(v, rep.den) for v in block) for block in rep.witness_blocks]
        pad = (Fraction(rep.pad, rep.den),) + zeros(self.data.d)
        for perm in perms:
            full = [pad] * self.N
            for term, block in zip(perm, blocks):
                full[term - 1] = block
            yield perm, tuple(chain.from_iterable(full))

    def iter_patterns_with_witness(self) -> Iterator[tuple[tuple[int, ...], Vec]]:
        classes = self._classes()
        return ((get(perm), x) for rep, perms, get in classes for perm, x in self._witnesses(rep, perms))


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
    ``_FAN_CACHE_SIZE`` most recently used indexes.  N below 1 raises
    ``ValueError``."""
    if N < 1:
        raise ValueError("N must be at least 1")
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
