"""Exact rational coordinates: parsing and serialization.

Every coordinate in this package is an arbitrary-precision rational kept in
lowest terms; nothing in the core ever touches floating point.  Coordinates
cross the package boundary as :class:`fractions.Fraction` (aliased
``ExactNumber``), since the group maps rationals to rationals and marked
sets may legitimately contain non-dyadic points such as 1/3.  Group
elements, whose coordinates are all dyadic, store them internally as
integers over a common power of two and serialize them with
:func:`format_dyadic`.

Serialization is the string ``"p/q"`` in lowest terms, with bare integers for
whole values (``"0"``, ``"1"``).  The accepted input grammar is
``INT | INT "/" INT | INT "/2^" INT`` with no whitespace inside a token, at
most :data:`MAX_NUMBER_DIGITS` digits in the integer part and in a plain
denominator, and a caret exponent of at most :data:`MAX_CARET_EXPONENT`.
Integers print through :func:`format_int`, which refuses more than
:data:`MAX_NUMBER_DIGITS` digits, so every printed number parses back.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MalformedNumber, NumberTooLong, OutOfRange

ExactNumber = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Largest q accepted in "p/2^q": far above any depth the toolkit meets, and
# refused before 2**q is built.
MAX_CARET_EXPONENT = 4096

# Most digits accepted in an integer part or a plain denominator: Python's
# default int-conversion limit, checked here so that a longer token is a
# MalformedNumber whatever that limit is set to.  2**MAX_CARET_EXPONENT has
# 1234 digits, so every value the caret form reaches prints back within it.
MAX_NUMBER_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_NUMBER_DIGITS

_NUMBER_RE = re.compile(r"(-?\d+)(?:/(?:2\^(\d+)|([1-9]\d*)))?\Z")


def parse_number(text: str) -> Fraction:
    """Parse ``"p"``, ``"p/q"`` or ``"p/2^q"`` into an exact rational.

    The result is in lowest terms.  Raises :class:`MalformedNumber` on
    anything outside the grammar, including a non-string token, a zero
    denominator, an integer part or plain denominator longer than
    :data:`MAX_NUMBER_DIGITS` and a caret exponent above
    :data:`MAX_CARET_EXPONENT`.
    """
    if not isinstance(text, str):
        raise MalformedNumber(f"not a number token: {text!r}")
    m = _NUMBER_RE.match(text)
    if m is None:
        raise MalformedNumber(f"not a number token: {text!r}")
    whole, caret_exp, denom = m.groups()
    # digit counts are compared before int(), which has its own limit
    if max(len(whole.lstrip("-")), len(denom or "")) > MAX_NUMBER_DIGITS:
        raise MalformedNumber(f"more than {MAX_NUMBER_DIGITS} digits in {text[:40]!r}")
    if caret_exp is not None:
        # the digit count is compared first, so a huge exponent is never parsed
        q = caret_exp.lstrip("0") or "0"
        if len(q) > len(str(MAX_CARET_EXPONENT)) or int(q) > MAX_CARET_EXPONENT:
            raise MalformedNumber(
                f"caret exponent above {MAX_CARET_EXPONENT} in {text[:40]!r}"
            )
        return Fraction(int(whole), 2 ** int(q))
    if denom is not None:
        return Fraction(int(whole), int(denom))
    return Fraction(int(whole))


def parse_coordinate(text: str) -> Fraction:
    """Parse a number and require 0 <= value <= 1."""
    value = parse_number(text)
    if not ZERO <= value <= ONE:
        raise OutOfRange(f"coordinate {text!r} outside [0,1]")
    return value


def format_int(n: int) -> str:
    """Decimal n, refused before ``str()`` past :data:`MAX_NUMBER_DIGITS` digits."""
    if abs(n) < _DIGIT_BOUND:
        return str(n)
    raise NumberTooLong(f"a result has more than {MAX_NUMBER_DIGITS} digits")


def format_number(x: Fraction) -> str:
    """Serialize in lowest terms: ``"p/q"``, or bare ``"p"`` for integers."""
    if x.denominator == 1:
        return format_int(x.numerator)
    return f"{format_int(x.numerator)}/{format_int(x.denominator)}"


def format_dyadic(n: int, e: int) -> str:
    """Serialize n / 2^e in lowest terms, exactly as :func:`format_number` would."""
    if n == 0:
        return "0"
    common = min((n & -n).bit_length() - 1, e)
    n >>= common
    e -= common
    return format_int(n) if e == 0 else f"{format_int(n)}/{format_int(1 << e)}"


def is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0

