"""ReLU feedforward networks and their conversion to tropical rational form.

The conversion follows the difference-of-convex recursion: each neuron's
output max(sum_k w_k f_k + c, 0) with f_k = g_k - h_k becomes

    g' = max(Y_convex + c, Y_concave),   h' = Y_concave,

where Y_convex sums |w_k| g_k over the inputs with w_k > 0 and |w_k| h_k over
those with w_k < 0, and Y_concave the mirrored combination; a zero weight adds
nothing.  Sums of signomials expand distributively into products of term
sets, and identical monomials produced by the expansion are merged as they
appear, which keeps the stored representation far below the formal count.
The formal counts are those of the entrywise split W = W+ - W- into
nonnegative parts with disjoint support, Y_convex = W+ g + W- h, where input
k contributes the n_k m_k formal terms of W+_k g_k + W-_k h_k whatever its
weight: the denominator gets prod_k n_k m_k formal terms and the numerator
exactly twice that.  ConversionResult reports the formal counts (these
satisfy the n = 2m contract and the architecture bound) alongside the stored
sizes per layer.  One rule caps the stored sizes: ``_best_terms`` builds each
signomial the conversion keeps, every product and every neuron's merged
numerator g', and raises ``TermCapExceededError`` as it is about to store term
number cap + 1.  ``TERM_CAP`` is the default cap of the library and the CLI.
The formal counts and ``bound_m`` are powers of two whose exponents roughly
double with each layer, so they are built from their exponents, and one of
more than ``COUNT_DIGITS`` decimal digits raises ``ValueError`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import lp_feasible
from .rationals import Vec, dot, vec, zeros
from .tropical import SignomialParams, TropicalRationalParams, integer_terms, region_rows


TERM_CAP = 500_000
COUNT_DIGITS = 4300  # Python's default limit on converting an int to a string
# 2**e has more than COUNT_DIGITS digits exactly when e reaches this.
_COUNT_EXPONENT_LIMIT = (10**COUNT_DIGITS).bit_length()


class TermCapExceededError(RuntimeError):
    """Stored term count outgrew the configured cap during conversion."""


@dataclass(frozen=True)
class ReluNetwork:
    """Layers of (weights, biases); ReLU is applied after every layer,
    including the last, and the output is scalar."""

    layers: tuple[tuple[tuple[Vec, ...], Vec], ...]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        prev = self.d_in if self.layers[0][0] else 0  # an empty W is refused below
        for W, c in self.layers:
            if len(W) != len(c) or not W:
                raise ValueError("weight row count must match bias length")
            for row in W:
                if len(row) != prev:
                    raise ValueError("layer input width mismatch")
            prev = len(W)
        if prev != 1:
            raise ValueError("output layer must have width 1")

    @property
    def d_in(self) -> int:
        return len(self.layers[0][0][0])

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(len(W) for W, _ in self.layers)


def network(layers) -> ReluNetwork:
    built = []
    for W, c in layers:
        built.append((tuple(vec(row) for row in W), vec(c)))
    return ReluNetwork(tuple(built))


def net_eval(net: ReluNetwork, x: Sequence[Fraction]) -> Fraction:
    if len(x) != net.d_in:
        raise ValueError(f"input of length {len(x)}, network expects {net.d_in}")
    cur = tuple(x)
    for W, c in net.layers:
        cur = tuple(
            max(ci + dot(row, cur), Fraction(0)) for row, ci in zip(W, c)
        )
    return cur[0]


@dataclass(frozen=True)
class ConversionResult:
    theta: TropicalRationalParams
    n: int  # formal numerator term count of the construction; always 2 * m
    m: int  # formal denominator term count
    trace: tuple[tuple[int, int, int, int, int], ...]
    # trace rows: (layer, formal_n, formal_m, stored_n, stored_m)


def _best_terms(terms, cap: int | None = None) -> dict:
    """Slope -> largest coefficient over the (coefficient, slope) pairs.
    Storing slope number cap + 1 raises ``TermCapExceededError``, before the
    rest of ``terms`` is read: the conversion's one term-cap check."""
    out: dict = {}
    for a, s in terms:
        prev = out.get(s)
        if prev is None:
            if cap is not None and len(out) >= cap:
                raise TermCapExceededError(f"stored term count exceeds cap {cap}")
            out[s] = a
        elif a > prev:
            out[s] = a
    return out


def _scale_terms(w: Fraction, terms: dict) -> dict:
    return {tuple(w * x for x in s): w * a for s, a in terms.items()}


def _prod_terms(a: dict, b: dict, cap: int | None) -> dict:
    return _best_terms(
        ((a1 + a2, tuple(x + y for x, y in zip(s1, s2))) for s1, a1 in a.items() for s2, a2 in b.items()), cap
    )


def _times(a: dict, b: dict, one: dict, cap: int | None) -> dict:
    """a times b, where a product with the identity ``one`` = {0: 0} is the
    other factor."""
    if a == one:
        return b
    return a if b == one else _prod_terms(a, b, cap)


def _power_of_two(exponent: int) -> int:
    """2**exponent, a formal count; ``ValueError`` when it would have more
    than ``COUNT_DIGITS`` decimal digits."""
    if exponent >= _COUNT_EXPONENT_LIMIT:
        raise ValueError(f"a formal term count would have more than {COUNT_DIGITS} digits")
    return 1 << exponent


def _dict_to_signomial(terms: dict, d: int) -> SignomialParams:
    ordered = tuple(sorted(terms.items(), key=lambda kv: kv[0]))
    return SignomialParams(tuple((a, s) for s, a in ordered), d)


def net_to_tropical(net: ReluNetwork, term_cap: int | None = TERM_CAP) -> ConversionResult:
    """Exact tropical rational parameters with the same values as the network.

    The per-layer recursion keeps, for every neuron, the convex pair (g, h)
    with f = g - h.  A weight w != 0 on input k multiplies Y_convex by
    |w| g_k and Y_concave by |w| h_k, the two swapped when w < 0; a zero
    weight multiplies neither.  Both start at the identity {0: 0}, and a
    product with it is the other factor, not a new product, and a row of
    zero weights leaves both at the identity.  Each product and each merged
    numerator g' raises ``TermCapExceededError`` as it is about to store
    term number ``term_cap`` + 1 (None: no cap); a factor is a scaled
    signomial of the previous layer, held to the cap already.  The formal
    counts follow the W+/W- product expansion of the module docstring and do
    not depend on the weights; each layer's are built before its neurons,
    and raise ``ValueError`` past ``COUNT_DIGITS`` digits.
    """
    d = net.d_in
    # Neuron state: (g terms, h terms) as slope -> coefficient dicts; the
    # inputs are x_k = g_k - h_k with g_k = {e_k: 0} and h_k = {0: 0}.
    one = {zeros(d): Fraction(0)}
    g_list: list[dict] = [{vec(int(i == k) for i in range(d)): Fraction(0)} for k in range(d)]
    h_list: list[dict] = [one] * d
    exp_n, exp_m = 0, 0  # per-neuron counts 2**exp_n and 2**exp_m, identical across a layer
    trace = []
    for layer_index, (W, c) in enumerate(net.layers, start=1):
        exp_m = (exp_n + exp_m) * len(g_list)  # m' = (n m)**width
        exp_n = exp_m + 1
        formal_n, formal_m = _power_of_two(exp_n), _power_of_two(exp_m)
        new_g: list[dict] = []
        new_h: list[dict] = []
        for row, ci in zip(W, c):
            y_convex = y_concave = one
            for w, g, h in zip(row, g_list, h_list):
                if w < 0:
                    w, g, h = -w, h, g
                if w:
                    y_convex = _times(y_convex, _scale_terms(w, g), one, term_cap)
                    y_concave = _times(y_concave, _scale_terms(w, h), one, term_cap)
            new_h.append(y_concave)
            shifted = [(a + ci, s) for s, a in y_convex.items()]
            new_g.append(_best_terms(shifted + [(a, s) for s, a in y_concave.items()], term_cap))
        g_list, h_list = new_g, new_h
        trace.append(
            (
                layer_index,
                formal_n,
                formal_m,
                max(len(g) for g in g_list),
                max(len(h) for h in h_list),
            )
        )
    theta = TropicalRationalParams(
        _dict_to_signomial(g_list[0], d), _dict_to_signomial(h_list[0], d)
    )
    return ConversionResult(theta=theta, n=formal_n, m=formal_m, trace=tuple(trace))


def bound_m(hidden_dims: Sequence[int]) -> int:
    """Architecture bound on the denominator term count of the construction:
    2 raised to sum_{k=1}^{L-1} 2^(L-1-k) prod_{l=k}^{L-1} d_l, where the
    d_l are the hidden widths (empty sequence: a single layer, bound 1).
    ``ValueError`` when the bound would have more than ``COUNT_DIGITS``
    digits; the sum stops as soon as it shows that."""
    dims = list(hidden_dims)
    exponent, prod = 0, 1
    for k in range(len(dims), 0, -1):  # k = L-1 down to 1; no term is negative
        prod *= dims[k - 1]
        exponent += prod << (len(dims) - k)
        if exponent >= _COUNT_EXPONENT_LIMIT:
            break
    return _power_of_two(exponent)


# ---------------------------------------------------------------------------
# Term pruning


def _prune_signomial(sig: SignomialParams) -> SignomialParams:
    """Keep term i exactly when one strict LP finds a point of its
    ``region_rows``: scaled by 1/w, x is a point where term i alone attains
    the maximum, and the strict rows define an open set, so the LP decides
    the question exactly.  ``max_slack`` checks the Farkas certificate of
    each term dropped."""
    merged = _best_terms(sig.terms)  # same slope: keep the (dominating) max coefficient
    terms = []
    for a, s in sig.terms:  # original order, first winning occurrence per slope
        if merged.get(s) == a:
            terms.append((a, s))
            del merged[s]
    rows = integer_terms(terms)  # distinct, as the slopes are
    keep = [term for term, row in zip(terms, rows) if lp_feasible(sig.d + 1, region_rows(row, rows)) is not None]
    if not keep:
        raise AssertionError("upper envelope lost all terms")
    return SignomialParams(tuple(keep), sig.d)


def prune_terms(theta: TropicalRationalParams) -> TropicalRationalParams:
    """Drop terms that never uniquely attain their signomial's maximum; the
    represented function is unchanged and the operation is idempotent."""
    return TropicalRationalParams(_prune_signomial(theta.num), _prune_signomial(theta.den))
