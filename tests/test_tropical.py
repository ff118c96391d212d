from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from tropfan.tropical import (
    SignomialParams,
    TropicalRationalParams,
    classify,
    eval_rational,
    eval_signomial,
    signomial,
)

rats = st.fractions(min_value=-50, max_value=50, max_denominator=8)


def brute_max(terms, x):
    """Independent re-evaluation: raw affine forms, no shared code path."""
    vals = [a + sum(si * xi for si, xi in zip(s, x)) for a, s in terms]
    top = max(vals)
    return top, frozenset(i + 1 for i, v in enumerate(vals) if v == top)


def test_single_term():
    sig = signomial([(0, (1,))])
    assert eval_signomial(sig, (F(2),)) == (F(2), frozenset({1}))


def test_running_example_point1(running_theta4):
    value, arg = eval_signomial(running_theta4, (F(0), F(0)))
    assert value == 0 and arg == {1, 2}


def test_running_example_point2(running_theta4):
    value, arg = eval_signomial(running_theta4, (F(1), F(0)))
    assert (value, arg) == (F(1, 2), frozenset({3}))


def test_rational_trivial():
    g = signomial([(0, (1,))])
    theta = TropicalRationalParams(g, g)
    assert eval_rational(theta, (F(5),)) == 0
    assert classify(theta, (F(5),)) == 0


def test_rational_running_example(running_theta_split):
    assert eval_rational(running_theta_split, (F(0), F(0))) == 1
    assert eval_rational(running_theta_split, (F(1), F(0))) == F(-1, 2)
    assert classify(running_theta_split, (F(0), F(0))) == 1
    assert classify(running_theta_split, (F(1), F(0))) == -1


def test_dimension_mismatch(running_theta4, running_theta_split):
    with pytest.raises(ValueError):
        eval_signomial(running_theta4, (F(0),))
    with pytest.raises(ValueError):
        eval_rational(running_theta_split, (F(0),))


@st.composite
def signomials_and_points(draw, d=2, max_terms=5):
    nterms = draw(st.integers(1, max_terms))
    terms = [(draw(rats), tuple(draw(rats) for _ in range(d))) for _ in range(nterms)]
    x = tuple(draw(rats) for _ in range(d))
    return SignomialParams(tuple(terms), d), x


@given(signomials_and_points())
def test_reevaluation_oracle(sig_x):
    sig, x = sig_x
    value, arg = eval_signomial(sig, x)
    bvalue, barg = brute_max(sig.terms, x)
    assert value == bvalue and arg == barg
    assert arg  # never empty
    for i in arg:
        a, s = sig.terms[i - 1]
        assert a + sum(si * xi for si, xi in zip(s, x)) == value


@given(signomials_and_points(), signomials_and_points())
def test_classify_zero_iff_mixed_argmax(gx, hx):
    g, x = gx
    h, _ = hx
    theta = TropicalRationalParams(g, h)
    merged = theta.merged()
    _, arg = eval_signomial(merged, x)
    mixed = any(i <= g.n for i in arg) and any(i > g.n for i in arg)
    assert (classify(theta, x) == 0) == mixed


@given(
    st.tuples(rats, rats, rats, rats),
    st.tuples(rats, rats),
)
def test_tropical_distributivity(coeffs, x):
    """max(a,b) + max(c,d) equals the four-term product expansion, realized
    through signomial evaluation."""
    a, b, c, d = coeffs
    left = signomial([(a, (1,)), (b, (0,))])
    right = signomial([(c, (2,)), (d, (0,))])
    product = signomial(
        [(a + c, (3,)), (a + d, (1,)), (b + c, (2,)), (b + d, (0,))]
    )
    point = (x[0],)
    assert (
        eval_signomial(left, point)[0] + eval_signomial(right, point)[0]
        == eval_signomial(product, point)[0]
    )


def test_merged_indexing(running_theta_split):
    merged = running_theta_split.merged()
    assert merged.n == 4
    assert merged.terms[:2] == running_theta_split.num.terms
