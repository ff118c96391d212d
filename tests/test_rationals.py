from fractions import Fraction as F

import pytest

from tropfan.rationals import integerize, rat, vec


def test_integerize_clears_the_least_common_denominator():
    assert integerize((F(1, 2), F(-2, 3), 3, F(0))) == ((3, -4, 18, 0), 6)
    assert integerize((F(4, 6), F(1, 3))) == ((2, 1), 3)


def test_integerize_leaves_integer_rows_alone():
    ints, den = integerize((F(5), -7, 0))
    assert (ints, den) == ((5, -7, 0), 1)
    assert all(type(v) is int for v in ints)


def test_integerize_of_nothing():
    assert integerize(()) == ((), 1)
    assert integerize(iter([F(1, 7)])) == ((1,), 7)


def test_integerize_scales_by_a_positive_integer():
    values = (F(-3, 14), F(5, 21), F(0), F(1, 6))
    ints, den = integerize(values)
    assert den == 42 and all(type(v) is int for v in ints)
    assert ints == tuple(den * v for v in values)


@pytest.mark.parametrize("value, kind", [([1], "list"), ({"a": 1}, "dict"), (None, "NoneType")])
def test_rat_error_names_the_type_only(value, kind):
    with pytest.raises(TypeError) as err:
        rat(value)
    assert str(err.value) == f"cannot interpret a {kind} as a rational"


def test_parse_error_cuts_the_literal_short():
    with pytest.raises(ValueError) as err:
        rat("y" * 10_000)
    assert len(str(err.value)) < 100


def test_vec_refuses_a_string():
    """A string is not a sequence of rationals: "12" is not (1, 2)."""
    with pytest.raises(TypeError, match="string '12'"):
        vec("12")
    assert vec(["1", "2"]) == (F(1), F(2))
