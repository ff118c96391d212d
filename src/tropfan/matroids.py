"""Axiom verification for covector sets and activation-pattern sets.

Covector sets are checked against the four oriented-matroid covector axioms
(zero, symmetry, composition, elimination).  Pattern sets are checked against
the six properties realized by activation fans: complete graph, relabeling
symmetry, composition, per-point elimination, boundary patterns, and
acyclicity of comparability graphs.  Failures carry a witness that reproduces
the violation.

Every verdict is exact and nothing is sampled; ``pattern_axioms_check`` says
why adjacent transpositions suffice for symmetry and why comparability, which
holds for any two patterns, needs no graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .classify import Covector, compose, separation
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


def om_axioms_check(covectors: Iterable[Covector]) -> AxiomReport:
    covs = set(tuple(c) for c in covectors)
    if not covs:
        raise ValueError("empty covector set")
    M = len(next(iter(covs)))
    results = []

    zero = (0,) * M
    results.append(AxiomResult("zero", zero in covs, None if zero in covs else zero))

    bad = next((c for c in sorted(covs) if tuple(-x for x in c) not in covs), None)
    results.append(AxiomResult("symmetry", bad is None, bad))

    bad = None
    for c in sorted(covs):
        for d in sorted(covs):
            if compose(c, d) not in covs:
                bad = (c, d, compose(c, d))
                break
        if bad:
            break
    results.append(AxiomResult("composition", bad is None, bad))

    bad = None
    for c in sorted(covs):
        for d in sorted(covs):
            sep = separation(c, d)
            for i in sorted(sep):
                cd = compose(c, d)
                ok = any(
                    z[i] == 0 and all(z[j] == cd[j] for j in range(M) if j not in sep)
                    for z in covs
                )
                if not ok:
                    bad = (c, d, i)
                    break
            if bad:
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


def pattern_axioms_check(
    patterns: Iterable[ActivationPattern],
    maximal_only: bool = False,
) -> AxiomReport:
    """Check the six activation-pattern properties on an enumerated set.

    With ``maximal_only`` the checks requiring non-maximal members (complete
    graph, boundary, elimination) are skipped; composition, symmetry and
    comparability remain meaningful on the degree-one patterns alone.

    Each property is decided exactly, once:

    * Symmetry is checked on the N-1 adjacent transpositions only.  They
      generate the symmetric group, and a relabeling maps the finite set
      injectively into itself, hence onto itself; so the set is closed under
      every term permutation iff it is closed under each generator.  A
      failing witness is ``(pattern, permutation)`` with a transposition.
    * Elimination looks ``p[k] | q[k]`` up among point k's neighbor sets.
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
    keys = {p.key() for p in pats}
    results = []

    def have(p: ActivationPattern) -> bool:
        return p.key() in keys

    if not maximal_only:
        K = complete_pattern(M, N)
        results.append(AxiomResult("complete_graph", have(K), None if have(K) else K))

    bad = None
    for i in range(1, N):
        perm = tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, N + 1))
        mapping = {t + 1: perm[t] for t in range(N)}
        bad = next(((p, perm) for p in pats if not have(p.relabel(mapping))), None)
        if bad:
            break
    results.append(AxiomResult("symmetry", bad is None, bad))

    bad = None
    for p in pats:
        for q in pats:
            r = pattern_compose(p, q)
            if not have(r):
                bad = (p, q, r)
                break
        if bad:
            break
    results.append(AxiomResult("composition", bad is None, bad))

    if not maximal_only:
        at_point = [{f.neighbors[k] for f in pats} for k in range(M)]
        bad = next(
            (
                (p, q, k)
                for p in pats
                for q in pats
                for k in range(M)
                if p.neighbors[k] | q.neighbors[k] not in at_point[k]
            ),
            None,
        )
        results.append(AxiomResult("elimination", bad is None, bad))

        bad = None
        for size in range(1, N + 1):
            for S in combinations(range(1, N + 1), size):
                p = ActivationPattern(M, N, (frozenset(S),) * M)
                if not have(p):
                    bad = S
                    break
            if bad:
                break
        results.append(AxiomResult("boundary", bad is None, bad))

    results.append(AxiomResult("comparability", True))

    return AxiomReport(tuple(results))
