import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tropfan.relu import (
    ReluNetwork,
    TermCapExceededError,
    bound_m,
    net_eval,
    net_to_tropical,
    network,
    prune_terms,
)
from tropfan import relu
from tropfan.jsonio import conversion_to_json, network_from_json
from tropfan.tropical import TropicalRationalParams, eval_rational, signomial

from oracles import net_to_tropical_by_split, prune_by_samples_and_lazy_lps


def rnd_fraction(rng, span=8):
    return F(rng.randint(-span, span), rng.choice((1, 2, 4)))


def random_network(rng, d_in, hidden):
    dims = [d_in] + list(hidden) + [1]
    layers = []
    for a, b in zip(dims, dims[1:]):
        W = tuple(tuple(rnd_fraction(rng) for _ in range(a)) for _ in range(b))
        c = tuple(rnd_fraction(rng) for _ in range(b))
        layers.append((W, c))
    return ReluNetwork(tuple(layers))


def rnd_point(rng, d):
    return tuple(F(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(d))


def test_net_eval_negative_clamps():
    net = network([(((1,),), (0,))])
    assert net_eval(net, (F(-2),)) == 0


def test_net_eval_two_inputs():
    net = network([((("2", "-3"),), ("1",))])
    assert net_eval(net, (F(0), F(0))) == 1
    assert net_eval(net, (F(1), F(1))) == 0


def test_net_eval_relu_applied_at_output():
    # last layer always clamps: outputs are never negative
    net = network([(((1,),), (0,)), (((-5,),), (0,))])
    assert net_eval(net, (F(3),)) == 0


def test_shape_validation():
    with pytest.raises(ValueError):
        network([(((1, 2),), (0,)), (((1, 1),), (0,))])  # width chain broken
    with pytest.raises(ValueError):
        network([(((1,), (2,)), (0, 0))])  # output width 2


def test_base_case_parameters():
    net = network([((("2", "-3"),), ("1",))])
    result = net_to_tropical(net)
    assert set(result.theta.num.terms) == {(F(1), (F(2), F(0))), (F(0), (F(0), F(3)))}
    assert set(result.theta.den.terms) == {(F(0), (F(0), F(3)))}
    assert (result.n, result.m) == (2, 1)


def test_two_layer_formal_counts():
    rng = random.Random(0)
    net = random_network(rng, 2, [2])
    result = net_to_tropical(net)
    assert (result.n, result.m) == (8, 4)
    assert result.m <= bound_m(net.widths[:-1])


def test_zero_network():
    net = network([(((0, 0), (0, 0)), (0, 0)), (((0, 0),), (0,))])
    result = net_to_tropical(net)
    for x in ((F(0), F(0)), (F(3), F(-7)), (F(-1, 2), F(5, 3))):
        assert eval_rational(result.theta, x) == 0 == net_eval(net, x)


def test_bound_m_values():
    assert bound_m([]) == 1
    assert bound_m([2]) == 4
    # sum_{k=1}^{2} 2^(2-k) prod_{l=k}^{2} d_l = 2*4 + 2 = 10 for two width-2
    # hidden layers, so the bound is 2^10
    assert bound_m([2, 2]) == 1024
    assert bound_m([3, 3]) == 2**21


def test_pointwise_equality_random_architectures():
    rng = random.Random(123)
    for _ in range(6):
        hidden = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        net = random_network(rng, rng.randint(1, 3), hidden)
        result = net_to_tropical(net)
        assert result.n == 2 * result.m
        assert result.m <= bound_m(net.widths[:-1])
        for _ in range(25):
            x = rnd_point(rng, net.d_in)
            assert net_eval(net, x) == eval_rational(result.theta, x)


def test_prune_dominated_term():
    theta = TropicalRationalParams(
        signomial([(0, (1,)), (-1, (1,))]), signomial([(0, (0,))])
    )
    pruned = prune_terms(theta)
    assert pruned.num.terms == ((F(0), (F(1),)),)


def test_prune_noop_on_irredundant():
    theta = TropicalRationalParams(
        signomial([(0, (1,)), (0, (-1,))]), signomial([(0, (0,))])
    )
    assert prune_terms(theta) == theta


def test_prune_preserves_and_idempotent():
    rng = random.Random(7)
    net = random_network(rng, 2, [2, 2])
    result = net_to_tropical(net)
    pruned = prune_terms(result.theta)
    assert pruned.n <= result.theta.n and pruned.m <= result.theta.m
    for _ in range(100):
        x = rnd_point(rng, 2)
        assert eval_rational(result.theta, x) == eval_rational(pruned, x)
    assert prune_terms(pruned) == pruned


# Hand-made signomials: a single term; duplicate slopes; a term that ties the
# maximum only on a line or a point; collinear slopes with the middle term
# below, touching or above the chord of its neighbours.
PRUNE_CASES = [
    signomial([(3, (1,))]),
    signomial([(0, (1,)), (2, (1,)), (1, (1,)), (0, (-1,))]),
    signomial([(0, (1,)), (0, (0,)), (0, (-1,))]),
    signomial([(0, (1, 0)), (0, (0, 0)), (0, (-1, 0)), (0, (0, 1))]),
    signomial([(0, (1, 0)), (0, (0, 1)), (0, (-1, -1)), (0, (0, 0))]),
    signomial([(0, (0, 0)), (-1, (1, 1)), (0, (2, 2))]),
    signomial([(0, (0, 0)), (0, (1, 1)), (0, (2, 2))]),
    signomial([(0, (0, 0)), (1, (1, 1)), (0, (2, 2))]),
    signomial([(0, (1, 0, 0)), (0, (0, 1, 0)), (0, (0, 0, 1)), (0, (0, 0, 0)), (-1, (1, 0, 0))]),
]


def random_signomial(rng, d):
    """Few small integer slopes and half-integer heights, so duplicate slopes
    and ties along lower-dimensional sets are common."""
    terms = [
        (F(rng.randint(-4, 4), 2), tuple(rng.randint(-2, 2) for _ in range(d)))
        for _ in range(rng.randint(1, 7))
    ]
    return signomial(terms)


def test_prune_matches_the_sampled_oracle():
    rng = random.Random(31)
    sigs = PRUNE_CASES + [random_signomial(rng, d) for d in (1, 2, 3) for _ in range(40)]
    for sig in sigs:
        assert relu._prune_signomial(sig) == prune_by_samples_and_lazy_lps(sig)
    for _ in range(6):
        net = random_network(rng, rng.randint(1, 3), [rng.randint(1, 2) for _ in range(rng.randint(0, 2))])
        theta = net_to_tropical(net).theta
        want = TropicalRationalParams(
            prune_by_samples_and_lazy_lps(theta.num), prune_by_samples_and_lazy_lps(theta.den)
        )
        assert prune_terms(theta) == want


def test_prune_solves_one_lp_per_distinct_slope(monkeypatch):
    calls = []
    inner = relu.lp_feasible

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(relu, "lp_feasible", counted)
    rng = random.Random(5)
    for sig in PRUNE_CASES + [random_signomial(rng, d) for d in (1, 2, 3) for _ in range(10)]:
        calls.clear()
        relu._prune_signomial(sig)
        assert len(calls) == len({s for _, s in sig.terms})
    calls.clear()
    prune_terms(TropicalRationalParams(PRUNE_CASES[1], PRUNE_CASES[2]))
    assert len(calls) == 2 + 3


def test_dropped_term_certificates_are_checked(spoil_multipliers):
    """A term is dropped only after its region LP's Farkas multipliers pass
    the exact check in ``max_slack``: the middle term of x, 0, -x never wins
    alone, and multipliers spoiled where they are read raise through
    ``prune_terms``."""
    theta = TropicalRationalParams(PRUNE_CASES[2], PRUNE_CASES[0])
    assert prune_terms(theta).num.n == 2  # positive control: one term is dropped
    for corrupt in ("flip", "zero"):
        spoil_multipliers(corrupt)
        with pytest.raises(AssertionError, match="certificate"):
            prune_terms(theta)


def test_term_cap():
    rng = random.Random(1)
    net = random_network(rng, 3, [3, 3])
    with pytest.raises(TermCapExceededError):
        net_to_tropical(net, term_cap=4)


def test_formal_counts_past_the_digit_limit_raise_before_they_are_built():
    """A width-1 net's formal counts are m = 2**(2**(L-1) - 1) and n = 2m
    after L layers, and 2**e has more than 4,300 digits from e = 14,285 on.
    So 14 layers convert, 15 raise ``ValueError``, and so does ``bound_m``
    from 14 hidden layers on; a million hidden layers are refused as fast."""
    assert relu._COUNT_EXPONENT_LIMIT == 14285 and 2**14284 < 10**4300 < 2**14285
    assert relu._power_of_two(14284) == 2**14284
    with pytest.raises(ValueError, match="more than 4300 digits"):
        relu._power_of_two(14285)
    result = net_to_tropical(network([([[1]], [0])] * 14))
    assert (result.n, result.m) == (2**8192, 2**8191)
    assert result.trace[-1][1:3] == (2**8192, 2**8191)
    for layers in (15, 16, 64):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            net_to_tropical(network([([[1]], [0])] * layers))
    assert bound_m([1] * 13) == 2**8191
    for hidden in ([1] * 14, [3] * 10**6):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            bound_m(hidden)


def test_merged_numerator_is_held_to_the_term_cap():
    """Every product of this net has at most 2 terms, and its merged numerator
    has 4: a cap of 3 raises there, and a cap of 4 binds nowhere."""
    net = network_from_json(
        {
            "layers": [
                {"W": [["3", "0"], ["3", "0"], ["-3", "-1"]], "c": ["1", "0", "0"]},
                {"W": [["3", "3", "-1"]], "c": ["0"]},
            ]
        }
    )
    uncapped = net_to_tropical(net, term_cap=None)
    assert (uncapped.theta.num.n, uncapped.theta.den.n) == (4, 2)
    with pytest.raises(TermCapExceededError):
        net_to_tropical(net, term_cap=3)
    assert conversion_to_json(net_to_tropical(net, term_cap=4)) == conversion_to_json(uncapped)


def test_a_product_past_the_cap_stops_at_term_cap_plus_one(monkeypatch):
    """A product of 10 x 10 terms with 100 distinct slopes, under a cap of 5,
    raises after reading 6 of its pairs, not after building all 100."""
    read = []
    best_terms = relu._best_terms

    def counted(terms, cap=None):
        def reading():
            for pair in terms:
                read.append(pair)
                yield pair

        return best_terms(reading(), cap)

    monkeypatch.setattr(relu, "_best_terms", counted)
    a = {(F(i),): F(0) for i in range(10)}
    b = {(F(100 * j),): F(j) for j in range(10)}
    with pytest.raises(TermCapExceededError):
        relu._prod_terms(a, b, 5)
    assert len(read) == 6
    read.clear()
    assert len(relu._prod_terms(a, b, None)) == len(read) == 100


def hundredths_network(rng, d_in, hidden, zero_row):
    """Weights and biases in hundredths of [-3, 3], about a quarter of the
    weights zero; with ``zero_row`` one weight row is zero throughout."""
    def weight():
        return F(rng.randint(-300, 300), 100)

    dims = [d_in] + list(hidden) + [1]
    layers = []
    for a, b in zip(dims, dims[1:]):
        W = [[weight() if rng.random() < 0.75 else F(0) for _ in range(a)] for _ in range(b)]
        c = [weight() for _ in range(b)]
        layers.append((W, c))
    if zero_row:
        W = rng.choice(layers)[0]
        W[rng.randrange(len(W))] = [F(0)] * len(W[0])
    return network(layers)


def conversion_or_cap(convert, net, cap):
    try:
        return conversion_to_json(convert(net, cap))
    except TermCapExceededError:
        return "cap exceeded"


def test_conversion_matches_the_split_oracle():
    """One product per nonzero weight gives the W+/W- construction's terms,
    counts and trace, and exceeds a term cap on exactly the same nets."""
    rng = random.Random(20)
    nets = [
        hundredths_network(rng, rng.randint(1, 3), [rng.randint(1, 3) for _ in range(i % 3)], i % 6 == 0)
        for i in range(72)
    ]
    assert any(all(x == 0 for x in row) for net in nets for W, _ in net.layers for row in W)
    for net in nets:
        assert conversion_to_json(net_to_tropical(net)) == conversion_to_json(net_to_tropical_by_split(net))
        for cap in range(1, 9):
            got, want = (conversion_or_cap(f, net, cap) for f in (net_to_tropical, net_to_tropical_by_split))
            assert got == want


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2), st.integers(1, 2), st.data())
def test_conversion_identity_hypothesis(depth_hidden, d_in, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    hidden = [rng.randint(1, 2) for _ in range(depth_hidden)]
    net = random_network(rng, d_in, hidden)
    result = net_to_tropical(net)
    x = rnd_point(rng, d_in)
    assert net_eval(net, x) == eval_rational(result.theta, x)
