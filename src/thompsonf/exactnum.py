"""Exact rational coordinates with a checked dyadic view.

Every coordinate in this package is an arbitrary-precision rational kept in
lowest terms; nothing in the core ever touches floating point.  Coordinates
cross the package boundary as :class:`fractions.Fraction` (aliased
``ExactNumber``); the dyadic representation p/2^q is a view obtained
through :func:`as_dyadic`, since the group maps rationals to rationals and
marked sets may legitimately contain non-dyadic points.  Group elements,
whose coordinates are all dyadic, store them internally as integers over a
common power of two and serialize them with :func:`format_dyadic`.

Serialization is the string ``"p/q"`` in lowest terms, with bare integers for
whole values (``"0"``, ``"1"``).  The accepted input grammar is
``INT | INT "/" INT | INT "/2^" INT`` with no whitespace inside a token and
a caret exponent of at most :data:`MAX_CARET_EXPONENT`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import DivisionByZero, MalformedNumber, OutOfRange

ExactNumber = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# Largest q accepted in "p/2^q": far above any depth the toolkit meets, and
# refused before 2**q is built.
MAX_CARET_EXPONENT = 4096

_NUMBER_RE = re.compile(r"(-?\d+)(?:/(?:2\^(\d+)|([1-9]\d*)))?\Z")


class DyadicForm(NamedTuple):
    """Canonical ``p / 2**q`` with q = 0 or p odd (and p = 0 forcing q = 0)."""

    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, 2**self.q)


def parse_number(text: str) -> Fraction:
    """Parse ``"p"``, ``"p/q"`` or ``"p/2^q"`` into an exact rational.

    The result is in lowest terms.  Raises :class:`MalformedNumber` on
    anything outside the grammar, including a non-string token, a zero
    denominator and a caret exponent above :data:`MAX_CARET_EXPONENT`.
    """
    if not isinstance(text, str):
        raise MalformedNumber(f"not a number token: {text!r}")
    m = _NUMBER_RE.match(text)
    if m is None:
        raise MalformedNumber(f"not a number token: {text!r}")
    whole, caret_exp, denom = m.groups()
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


def format_number(x: Fraction) -> str:
    """Serialize in lowest terms: ``"p/q"``, or bare ``"p"`` for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_dyadic(n: int, e: int) -> str:
    """Serialize n / 2^e in lowest terms, exactly as :func:`format_number` would."""
    if n == 0:
        return "0"
    common = min((n & -n).bit_length() - 1, e)
    n >>= common
    e -= common
    return str(n) if e == 0 else f"{n}/{1 << e}"


def is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def as_dyadic(x: Fraction) -> DyadicForm | None:
    """Return the canonical (p, q) with x = p/2^q, or None if x is not dyadic.

    A None result is an ordinary signal, not a failure.  Requires
    0 <= x <= 1 (coordinates are the only dyadic context).
    """
    if not ZERO <= x <= ONE:
        raise OutOfRange(f"as_dyadic expects a coordinate in [0,1], got {x}")
    if not is_power_of_two(x.denominator):
        return None
    # Fraction keeps lowest terms, so p is odd unless q = 0; 0 -> (0, 0).
    return DyadicForm(x.numerator, x.denominator.bit_length() - 1)


def midpoint(a: Fraction, b: Fraction) -> Fraction:
    return (a + b) / 2


_ARITH_OPS = frozenset(
    {"add", "sub", "mul", "div", "min", "max", "midpoint", "compare"}
)


def arith(a: Fraction, b: Fraction, op: str) -> Fraction | int:
    """Exact binary arithmetic dispatch.

    ``compare`` returns -1, 0 or 1; every other op returns a Fraction in
    lowest terms.  ``div`` by zero raises :class:`DivisionByZero`.
    """
    if op not in _ARITH_OPS:
        raise ValueError(f"unknown op {op!r}")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise DivisionByZero("exact division by zero")
        return a / b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    if op == "midpoint":
        return midpoint(a, b)
    return (a > b) - (a < b)
