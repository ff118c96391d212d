"""Axiom verification for covector sets and activation-pattern sets.

Covector sets are checked against the four oriented-matroid covector axioms
(zero, symmetry, composition, elimination).  Pattern sets are checked against
the six properties realized by activation fans: complete graph, relabeling
symmetry, composition, per-point elimination, boundary patterns, and
acyclicity of comparability graphs.  Failures carry a witness that reproduces
the violation.

Every verdict is exact and nothing is sampled.  Both checks work on bit
masks, so that each step on a pair is a few integer operations and each
existence test is one hash lookup:

* A covector is the pair of sign masks ``(plus, minus)``, bit j for
  position j.  With ``free`` the zero set of C, the composition C o D is
  ``(plus_C | plus_D & free, minus_C | minus_D & free)`` and the separation
  set is ``plus_C & minus_D | minus_C & plus_D``.
* A pattern is the tuple of its points' neighbor masks, bit t for term t.
  Composition per point is ``a & b or a``, and an adjacent transposition of
  terms swaps two bits.

``om_axioms_check`` says how elimination is indexed by separation set;
``pattern_axioms_check`` says why adjacent transpositions suffice for
symmetry and why comparability, which holds for any two patterns, needs no
graph.  Both loop in the order of the former exhaustive scans (sorted
covectors, patterns in the order given) and build a witness only when a
check fails, so the reported witness is the first violation in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable

from .classify import Covector, compose
from .fan import ActivationPattern, complete_pattern


@dataclass(frozen=True)
class AxiomResult:
    name: str
    passed: bool
    witness: object = None


@dataclass(frozen=True)
class AxiomReport:
    results: tuple[AxiomResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failed(self) -> list[AxiomResult]:
        return [r for r in self.results if not r.passed]

    def result(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def _sign_masks(covs: list[Covector]) -> list[tuple[int, int]]:
    """``(plus, minus)`` of each covector: bit j is set where entry j is +1
    (plus) or -1 (minus)."""
    masks = []
    for c in covs:
        plus = minus = 0
        for j, x in enumerate(c):
            if x == 1:
                plus |= 1 << j
            elif x == -1:
                minus |= 1 << j
        masks.append((plus, minus))
    return masks


def _zeros_by_rest(masks: list[tuple[int, int]], sep: int) -> dict[tuple[int, int], int]:
    """For separation set ``sep``: the masks of each covector Z restricted to
    the positions outside ``sep``, mapped to the OR of Z's zeros inside it."""
    index: dict[tuple[int, int], int] = {}
    for plus, minus in masks:
        rest = (plus & ~sep, minus & ~sep)
        index[rest] = index.get(rest, 0) | sep & ~(plus | minus)
    return index


def om_axioms_check(covectors: Iterable[Covector]) -> AxiomReport:
    """Check the four covector axioms on a finite set of sign vectors.

    The covectors must have one length and entries in {-1, 0, +1}, else
    ``ValueError``.  Each is encoded as its ``(plus, minus)`` sign masks.

    * Zero and symmetry are one lookup each among the masks.
    * Composition looks C o D up for every ordered pair, skipping each C
      with no zero entry, for which C o D = C.
    * Elimination asks, for every pair C, D with separation set S != 0 and
      every i in S, for a covector Z with Z_i = 0 that agrees with C o D
      outside S.  Whether Z fits depends on i only through Z_i = 0, so one
      dict per distinct S, built on first use, maps Z's masks outside S to
      the OR of the zeros inside S of every Z with those masks.  The pair
      passes when S lies inside the value looked up for C o D, and otherwise
      the witness index is the lowest bit of S that the value misses.

    Pairs run over the sorted covectors and i over S in ascending order, the
    order of the former scan, so each witness is the first violation in it:
    the missing zero vector, a covector whose negation is missing,
    ``(C, D, C o D)``, or ``(C, D, i)``.
    """
    covs = sorted(set(tuple(c) for c in covectors))
    if not covs:
        raise ValueError("empty covector set")
    M = len(covs[0])
    if any(len(c) != M for c in covs):
        raise ValueError("covectors differ in length")
    if not set(chain.from_iterable(covs)) <= {-1, 0, 1}:
        raise ValueError("covector entries must be -1, 0 or +1")
    masks = _sign_masks(covs)
    present = set(masks)
    full = (1 << M) - 1
    results = []

    has_zero = (0, 0) in present
    results.append(AxiomResult("zero", has_zero, None if has_zero else (0,) * M))

    bad = next((c for c, (p, m) in zip(covs, masks) if (m, p) not in present), None)
    results.append(AxiomResult("symmetry", bad is None, bad))

    bad = None
    for c, (cp, cm) in zip(covs, masks):
        free = full & ~(cp | cm)
        if not free:
            continue
        for d, (dp, dm) in zip(covs, masks):
            if (cp | dp & free, cm | dm & free) not in present:
                bad = (c, d, compose(c, d))
                break
        if bad:
            break
    results.append(AxiomResult("composition", bad is None, bad))

    bad = None
    by_sep: dict[int, dict[tuple[int, int], int]] = {}
    for c, (cp, cm) in zip(covs, masks):
        free = full & ~(cp | cm)
        for d, (dp, dm) in zip(covs, masks):
            sep = cp & dm | cm & dp
            if not sep:
                continue
            zeros = by_sep.get(sep)
            if zeros is None:
                zeros = by_sep[sep] = _zeros_by_rest(masks, sep)
            rest = ((cp | dp & free) & ~sep, (cm | dm & free) & ~sep)
            missed = sep & ~zeros.get(rest, 0)
            if missed:
                bad = (c, d, (missed & -missed).bit_length() - 1)
                break
        if bad:
            break
    results.append(AxiomResult("elimination", bad is None, bad))

    return AxiomReport(tuple(results))


def pattern_compose(G: ActivationPattern, H: ActivationPattern) -> ActivationPattern:
    """Per point: G's set if disjoint from H's, else the intersection."""
    if (G.M, G.N) != (H.M, H.N):
        raise ValueError("pattern shapes differ")
    nbrs = []
    for a, b in zip(G.neighbors, H.neighbors):
        both = a & b
        nbrs.append(a if not both else both)
    return ActivationPattern(G.M, G.N, tuple(nbrs))


def _term_mask(terms: Iterable[int]) -> int:
    """Bit t set for each term t."""
    mask = 0
    for t in terms:
        mask |= 1 << t
    return mask


def pattern_axioms_check(patterns: Iterable[ActivationPattern]) -> AxiomReport:
    """Check the six activation-pattern properties on an enumerated set.

    The patterns must share one shape (M, N), else ``ValueError``.  The
    report lists complete graph, symmetry, composition, elimination,
    boundary and comparability, in that order.

    Each pattern is the tuple of its points' term masks, and the set is a
    hash set of those tuples.  Each property is decided exactly, once:

    * Symmetry is checked on the N-1 adjacent transpositions only.  They
      generate the symmetric group, and a relabeling maps the finite set
      injectively into itself, hence onto itself; so the set is closed under
      every term permutation iff it is closed under each generator.  A
      transposition swaps two bits of each mask.  A failing witness is
      ``(pattern, permutation)`` with the first violated transposition.
    * Composition skips each p whose points all have degree one, for which
      p o q = p.
    * Elimination asks whether ``p[k] | q[k]`` is one of point k's masks.
      That depends only on the two masks at point k, so each point's
      distinct masks are paired once; only a failing pair sends the check
      through the patterns to find the first witness ``(p, q, k)``.
    * Comparability holds for every pair of patterns at every point, so it
      is reported as passed without building a graph.  Lemma: in the
      comparability graph of G and H at point p every arc j -> k has j in
      G(p) and k in H(p), and undirected edges join only terms common to
      both.  So after contracting the undirected edges each class is one
      term or a set of common terms, and a class on a cycle, having an arc
      out and an arc in, holds a common term either way.  All common terms
      form one class, so a cycle could only be an arc inside it; but every
      edge between two common terms is undirected.  Hence the graph is
      always acyclic.
    """
    pats = list(patterns)
    if not pats:
        raise ValueError("empty pattern set")
    M, N = pats[0].M, pats[0].N
    if any((p.M, p.N) != (M, N) for p in pats):
        raise ValueError("pattern shapes differ")
    rows = [tuple(map(_term_mask, p.neighbors)) for p in pats]
    keys = set(rows)
    results = []

    K = None if (_term_mask(range(1, N + 1)),) * M in keys else complete_pattern(M, N)
    results.append(AxiomResult("complete_graph", K is None, K))

    bad = None
    masks = set(chain.from_iterable(rows))
    for i in range(1, N):
        both = 3 << i
        swap = {a: a ^ both if (a >> i ^ a >> i + 1) & 1 else a for a in masks}
        p = next((p for p, r in zip(pats, rows) if tuple(map(swap.get, r)) not in keys), None)
        if p is not None:
            bad = (p, tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, N + 1)))
            break
    results.append(AxiomResult("symmetry", bad is None, bad))

    bad = None
    for p, r in zip(pats, rows):
        if all(a & (a - 1) == 0 for a in r):
            continue
        q = next(
            (q for q, s in zip(pats, rows) if tuple(a & b or a for a, b in zip(r, s)) not in keys),
            None,
        )
        if q is not None:
            bad = (p, q, pattern_compose(p, q))
            break
    results.append(AxiomResult("composition", bad is None, bad))

    bad = None
    at_point = [set(col) for col in zip(*rows)]
    unjoined = [{a: {b for b in U if a | b not in U} for a in U} for U in at_point]
    for p, r in zip(pats, rows):
        misses = [unjoined[k][a] for k, a in enumerate(r)]
        if not any(misses):
            continue
        bad = next(
            ((p, q, k) for q, s in zip(pats, rows) for k in range(M) if s[k] in misses[k]),
            None,
        )
        if bad:
            break
    results.append(AxiomResult("elimination", bad is None, bad))

    terms = range(1, N + 1)
    subsets = (S for size in terms for S in combinations(terms, size))
    bad = next((S for S in subsets if (_term_mask(S),) * M not in keys), None)
    results.append(AxiomResult("boundary", bad is None, bad))

    results.append(AxiomResult("comparability", True))

    return AxiomReport(tuple(results))
