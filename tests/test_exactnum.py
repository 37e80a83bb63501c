import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thompsonf import arith, as_dyadic, format_number, midpoint, parse_coordinate, parse_number
from thompsonf.errors import DivisionByZero, MalformedNumber, OutOfRange
from thompsonf.exactnum import MAX_CARET_EXPONENT, format_dyadic

rationals = st.fractions(min_value=-100, max_value=100)
coordinates = st.fractions(min_value=0, max_value=1)


def test_parse_literal():
    assert parse_number("3/4") == Fraction(3, 4)


def test_parse_reduces():
    assert parse_number("6/8") == Fraction(3, 4)


def test_parse_caret_form():
    assert parse_number("7/2^3") == Fraction(7, 8)
    assert parse_number("0/2^0") == 0


def test_parse_integers():
    assert parse_number("0") == 0
    assert parse_number("1") == 1
    assert parse_number("42") == 42
    assert parse_number("-3") == -3


@pytest.mark.parametrize(
    "bad", ["", "1/", "/2", "a", "1 /2", "1/ 2", "3.5", "1/0", "1/2^", "2^3", "+1"]
)
def test_parse_rejects_bad_syntax(bad):
    with pytest.raises(MalformedNumber):
        parse_number(bad)


@pytest.mark.parametrize("bad", [0, 1, None, b"1/2", ["1/2"]])
def test_parse_rejects_non_string_tokens(bad):
    with pytest.raises(MalformedNumber):
        parse_number(bad)


def test_parse_caret_exponent_bound():
    assert parse_number(f"1/2^{MAX_CARET_EXPONENT}") == Fraction(1, 2**MAX_CARET_EXPONENT)
    assert parse_number(f"1/2^000{MAX_CARET_EXPONENT}").denominator.bit_length() == (
        MAX_CARET_EXPONENT + 1
    )
    with pytest.raises(MalformedNumber, match="caret exponent above 4096"):
        parse_number(f"1/2^{MAX_CARET_EXPONENT + 1}")
    # far past the int() digit limit: refused by length, never parsed
    with pytest.raises(MalformedNumber):
        parse_number("1/2^" + "9" * 10_000)


def test_parse_coordinate_range():
    assert parse_coordinate("1") == 1
    with pytest.raises(OutOfRange):
        parse_coordinate("3/2")
    with pytest.raises(OutOfRange):
        parse_coordinate("-1/2")


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_number(format_number(x)) == x


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=2**80))
def test_format_dyadic_matches_format_number(e, n):
    n %= (1 << e) + 1
    assert format_dyadic(n, e) == format_number(Fraction(n, 2**e))


def test_format_endpoints():
    assert format_number(Fraction(0)) == "0"
    assert format_number(Fraction(1)) == "1"
    assert format_number(Fraction(2, 4)) == "1/2"


def test_as_dyadic_examples():
    assert as_dyadic(Fraction(3, 4)) == (3, 2)
    assert as_dyadic(Fraction(1, 3)) is None
    assert as_dyadic(Fraction(0)) == (0, 0)
    assert as_dyadic(Fraction(1)) == (1, 0)


def test_as_dyadic_requires_coordinate():
    with pytest.raises(OutOfRange):
        as_dyadic(Fraction(3, 2))


@given(coordinates)
def test_as_dyadic_iff_power_of_two_denominator(x):
    d = as_dyadic(x)
    den = x.denominator
    if den & (den - 1) == 0:
        assert d is not None
        assert Fraction(d.p, 2**d.q) == x
        assert d.q == 0 or d.p % 2 == 1
        assert d.value == x
    else:
        assert d is None


@given(rationals, rationals)
def test_arith_matches_fraction_ops(a, b):
    assert arith(a, b, "add") == a + b
    assert arith(a, b, "sub") == a - b
    assert arith(a, b, "mul") == a * b
    assert arith(a, b, "min") == min(a, b)
    assert arith(a, b, "max") == max(a, b)
    assert arith(a, b, "midpoint") == (a + b) / 2
    assert arith(a, b, "compare") == (a > b) - (a < b)
    if b != 0:
        assert arith(a, b, "div") == a / b


def test_arith_examples():
    assert arith(Fraction(1, 2), Fraction(1), "midpoint") == Fraction(3, 4)
    assert midpoint(Fraction(1, 2), Fraction(1)) == Fraction(3, 4)
    assert arith(Fraction(1), Fraction(1, 8), "sub") == Fraction(7, 8)
    assert arith(Fraction(5, 8), Fraction(2, 3), "compare") == -1


def test_arith_division_by_zero():
    with pytest.raises(DivisionByZero):
        arith(Fraction(1), Fraction(0), "div")


def test_arith_unknown_op():
    with pytest.raises(ValueError):
        arith(Fraction(1), Fraction(1), "pow")


def test_big_integer_cross_check():
    # lowest-terms results cross-checked against raw integer formulas by
    # cross-multiplication, over 10^4 random pairs
    rng = random.Random(20260810)
    for _ in range(10_000):
        n1, d1 = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        n2, d2 = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        a, b = Fraction(n1, d1), Fraction(n2, d2)
        s = arith(a, b, "add")
        assert s.numerator * (d1 * d2) == (n1 * d2 + n2 * d1) * s.denominator
        p = arith(a, b, "mul")
        assert p.numerator * (d1 * d2) == (n1 * n2) * p.denominator
        c = arith(a, b, "compare")
        assert c == ((n1 * d2 > n2 * d1) - (n1 * d2 < n2 * d1))
