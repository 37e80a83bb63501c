from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thompsonf import format_number, parse_coordinate, parse_number
from thompsonf.errors import PRECONDITION_ERRORS, MalformedNumber, NumberTooLong, OutOfRange
from thompsonf.exactnum import (
    MAX_CARET_EXPONENT,
    MAX_NUMBER_DIGITS,
    format_dyadic,
    format_int,
)

rationals = st.fractions(min_value=-100, max_value=100)


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


@pytest.mark.parametrize(
    "make", [lambda n: "3" * n, lambda n: "-" + "3" * n, lambda n: "1/" + "3" * n]
)
def test_parse_digit_bound(make):
    assert parse_number(make(MAX_NUMBER_DIGITS)).numerator != 0
    with pytest.raises(MalformedNumber, match=f"more than {MAX_NUMBER_DIGITS} digits"):
        parse_number(make(MAX_NUMBER_DIGITS + 1))
    # far past Python's int() digit limit: refused by length, never converted
    with pytest.raises(MalformedNumber):
        parse_number(make(50_000))


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


def test_format_digit_bound():
    widest = 10**MAX_NUMBER_DIGITS - 1
    assert parse_number(format_number(Fraction(-1, widest))) == Fraction(-1, widest)
    for n in (widest + 1, -widest - 1):
        with pytest.raises(NumberTooLong, match=f"more than {MAX_NUMBER_DIGITS} digits"):
            format_int(n)
    with pytest.raises(NumberTooLong):
        format_number(Fraction(1, widest + 1))
    with pytest.raises(NumberTooLong):
        format_dyadic(1, 4 * MAX_NUMBER_DIGITS)
    assert issubclass(NumberTooLong, PRECONDITION_ERRORS)


def test_format_endpoints():
    assert format_number(Fraction(0)) == "0"
    assert format_number(Fraction(1)) == "1"
    assert format_number(Fraction(2, 4)) == "1/2"

