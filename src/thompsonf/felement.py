"""Elements of Thompson's group F as exact piecewise-linear homeomorphisms.

An element is stored as its canonical breakpoint list in scaled integers:
an exponent e and integer tuples X and Y, so that breakpoint i is
(X_i / 2^e, Y_i / 2^e), from (0, 0) to (2^e, 2^e), strictly increasing in
both coordinates.  Every coordinate of an element of F is dyadic and every
slope a power of two, so nothing else is needed: segment i has slope
2^s_i, stored as the integer shift s_i.  The form is canonical because e
is the smallest exponent that works and no interior breakpoint sits where
the slope does not change, which makes equality, hashing and serialization
plain integer operations.  ``breaks`` is the same list as exact fractions,
derived on demand; tree pairs are another derived view.

``FElement(...)`` validates outside input.  Results computed here (compose,
invert, partition pairs) are valid by construction and go through one
trusted constructor that only canonicalises.

Composition is a linear merge: the breakpoints of g . f lie among the
breakpoints of f together with f^-1 of the breakpoints of g, so a
two-pointer walk over f's range breakpoints and g's domain breakpoints
visits each piece of g . f once, in order.  Both elements are first
brought to one working scale fine enough that every preimage and image on
the way is an integer, so the walk needs integer shifts only.

Partition pairs: an order-preserving bijection between two standard dyadic
partitions of equal cardinality extends affinely to an element of F.  The
reverse direction, :func:`to_minimal_pair`, subdivides [0,1] greedily; a
leaf is acceptable when the element is affine on it and maps it onto a
standard dyadic interval.  Acceptability is hereditary under subdivision,
so the greedy result is the unique minimal pair.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Literal, Mapping, Sequence

from .errors import (
    CardinalityMismatch,
    DomainNotContained,
    InvalidElement,
    MalformedInput,
    OutOfRange,
    TooFewPoints,
)
from .exactnum import ONE, ZERO, format_dyadic, is_power_of_two, parse_coordinate
from .partition import DyadicPartition, MarkedSet, i_n

Side = Literal["left", "right"]


def _shift(v: int, k: int) -> int:
    """v * 2^k, for a v that 2^-k divides when k < 0."""
    return v << k if k >= 0 else v >> -k


class FElement:
    """A group element in canonical scaled-integer breakpoint form."""

    __slots__ = ("_e", "_xs", "_ys", "_shifts", "_minpair", "_key")

    _e: int
    _xs: tuple[int, ...]
    _ys: tuple[int, ...]
    _shifts: tuple[int, ...]

    def __init__(self, breaks: Iterable[tuple[Fraction | int, Fraction | int]]) -> None:
        pts = sorted({(Fraction(a), Fraction(b)) for a, b in breaks})
        if not pts or pts[0] != (ZERO, ZERO) or pts[-1] != (ONE, ONE):
            raise InvalidElement("breakpoints must run from (0,0) to (1,1)")
        for (a1, b1), (a2, b2) in zip(pts, pts[1:]):
            if a1 == a2 or b1 >= b2:
                raise InvalidElement("coordinates must be strictly increasing")
        for a, b in pts:
            if not (is_power_of_two(a.denominator) and is_power_of_two(b.denominator)):
                raise InvalidElement(f"non-dyadic breakpoint ({a}, {b})")

        slopes = [
            (b2 - b1) / (a2 - a1) for (a1, b1), (a2, b2) in zip(pts, pts[1:])
        ]
        for s in slopes:
            if not (is_power_of_two(s.numerator) and is_power_of_two(s.denominator)):
                raise InvalidElement(f"slope {s} is not a power of two")

        xs, ys = _scaled([a for a, _ in pts], [b for _, b in pts])
        shifts = [s.numerator.bit_length() - s.denominator.bit_length() for s in slopes]
        _fill(self, xs, ys, shifts)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FElement is immutable")

    @property
    def breaks(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The canonical breakpoints as exact fractions, from (0,0) to (1,1)."""
        d = 1 << self._e
        return tuple((Fraction(x, d), Fraction(y, d)) for x, y in zip(self._xs, self._ys))

    # -- equality is equality of canonical forms ---------------------------
    # X ends at 2^e, so (X, Y) determines e.

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FElement):
            return NotImplemented
        return self._xs == other._xs and self._ys == other._ys

    def __hash__(self) -> int:
        return hash((self._xs, self._ys))

    def _formatted(self) -> list[tuple[str, str]]:
        e = self._e
        return [(format_dyadic(x, e), format_dyadic(y, e)) for x, y in zip(self._xs, self._ys)]

    def __repr__(self) -> str:
        pairs = ",".join(f"({a},{b})" for a, b in self._formatted())
        return f"FElement[{pairs}]"

    @property
    def canonical_key(self) -> bytes:
        """Injective, run-stable byte encoding of the canonical form."""
        if self._key is None:
            text = ";".join(f"{a}:{b}" for a, b in self._formatted())
            object.__setattr__(self, "_key", text.encode("ascii"))
        return self._key

    def is_identity(self) -> bool:
        return len(self._xs) == 2

    # -- evaluation ---------------------------------------------------------

    def apply(self, t: Fraction) -> Fraction:
        """Exact image of t in [0,1]."""
        if not 0 <= t.numerator <= t.denominator:
            raise OutOfRange(f"apply expects a point of [0,1], got {t}")
        return _map_point(t, self._e, self._xs, self._ys, self._shifts, 1)

    __call__ = apply

    def apply_inverse(self, y: Fraction) -> Fraction:
        """Exact preimage of y in [0,1]."""
        if not 0 <= y.numerator <= y.denominator:
            raise OutOfRange(f"apply_inverse expects a point of [0,1], got {y}")
        return _map_point(y, self._e, self._ys, self._xs, self._shifts, -1)

    # -- group structure ----------------------------------------------------

    def __mul__(self, other: "FElement") -> "FElement":
        return compose(self, other)

    def __invert__(self) -> "FElement":
        return invert(self)

    def __pow__(self, k: int) -> "FElement":
        # repeated squaring; powers of one element commute
        base = self if k >= 0 else invert(self)
        k = abs(k)
        out = identity()
        while k:
            if k & 1:
                out = compose(out, base)
            k >>= 1
            if k:
                base = compose(base, base)
        return out

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"breaks": [[a, b] for a, b in self._formatted()]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FElement":
        try:
            raw = data["breaks"]
        except (KeyError, TypeError):
            raise InvalidElement("expected an object with a 'breaks' array")
        if not isinstance(raw, list) or not all(
            isinstance(pt, list) and len(pt) == 2 and all(isinstance(c, str) for c in pt)
            for pt in raw
        ):
            raise InvalidElement("'breaks' must be an array of [x, y] number-string pairs")
        return cls((parse_coordinate(a), parse_coordinate(b)) for a, b in raw)


def _scaled(
    xs: Sequence[Fraction], ys: Sequence[Fraction]
) -> tuple[list[int], list[int]]:
    """Dyadic coordinates as integers over 2^e, for the smallest e that works."""
    # a denominator 2^k has bit length k + 1
    bits = max(c.denominator.bit_length() for c in (*xs, *ys))
    return (
        [c.numerator << (bits - c.denominator.bit_length()) for c in xs],
        [c.numerator << (bits - c.denominator.bit_length()) for c in ys],
    )


def _fill(f: FElement, xs: Sequence[int], ys: Sequence[int], shifts: Sequence[int]) -> None:
    """Store the canonical form of a valid breakpoint list in f.

    The points run from (0, 0) to (2^e, 2^e) for some e, strictly
    increasing, and segment i has slope 2^shifts[i].  Interior points where
    the slope does not change are dropped, then the common power of two is
    stripped.
    """
    e = xs[-1].bit_length() - 1
    kinks = [i for i in range(1, len(shifts)) if shifts[i] != shifts[i - 1]]
    if len(kinks) < len(shifts) - 1:
        xs = [xs[0]] + [xs[i] for i in kinks] + [xs[-1]]
        ys = [ys[0]] + [ys[i] for i in kinks] + [ys[-1]]
        shifts = [shifts[0]] + [shifts[i] for i in kinks]
    bits = 0
    for v in (*xs, *ys):
        bits |= v
    # the last X is 2^e, so at most e trailing zeros are common
    common = (bits & -bits).bit_length() - 1
    if common:
        e -= common
        xs = [v >> common for v in xs]
        ys = [v >> common for v in ys]
    setter = object.__setattr__
    setter(f, "_e", e)
    setter(f, "_xs", tuple(xs))
    setter(f, "_ys", tuple(ys))
    setter(f, "_shifts", tuple(shifts))
    setter(f, "_minpair", None)
    setter(f, "_key", None)


def _element(xs: Sequence[int], ys: Sequence[int], shifts: Sequence[int]) -> FElement:
    """Trusted constructor for internal results: canonicalises, never validates."""
    f = object.__new__(FElement)
    _fill(f, xs, ys, shifts)
    return f


def _map_point(
    t: Fraction, e: int, us: tuple[int, ...], vs: tuple[int, ...], shifts: tuple[int, ...], sign: int
) -> Fraction:
    """Image of t under the map with breakpoints (us_i, vs_i) / 2^e and slopes 2^(sign * s_i)."""
    p, q = t.numerator, t.denominator
    scaled = p << e  # t * 2^e * q
    i = min(bisect_right(us, scaled // q), len(us) - 1) - 1
    s = sign * shifts[i]
    d = scaled - us[i] * q
    if s >= 0:
        return Fraction(vs[i] * q + (d << s), q << e)
    return Fraction((vs[i] * q << -s) + d, q << (e - s))


@dataclass(frozen=True)
class PartitionPair:
    """Two standard dyadic partitions of equal cardinality."""

    domain: DyadicPartition
    range: DyadicPartition

    def __post_init__(self) -> None:
        if len(self.domain) != len(self.range):
            raise CardinalityMismatch(
                f"|domain| = {len(self.domain)} but |range| = {len(self.range)}"
            )

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain.to_strings(),
            "range": self.range.to_strings(),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PartitionPair":
        if not isinstance(data, dict) or not all(
            isinstance(data.get(key), list) for key in ("domain", "range")
        ):
            raise MalformedInput("a partition pair needs 'domain' and 'range' arrays")
        return cls(
            DyadicPartition.from_strings(data["domain"]),
            DyadicPartition.from_strings(data["range"]),
        )


@lru_cache(maxsize=1)
def identity() -> FElement:
    return FElement(((ZERO, ZERO), (ONE, ONE)))


def from_pair(pair: PartitionPair) -> FElement:
    """The element agreeing with the order-preserving bijection domain -> range."""
    # Both partitions are standard, so every coordinate is dyadic, each
    # interval width is a power of two and so is every slope.
    xs, ys = _scaled(pair.domain.points, pair.range.points)
    shifts = [
        (ys[i + 1] - ys[i]).bit_length() - (xs[i + 1] - xs[i]).bit_length()
        for i in range(len(xs) - 1)
    ]
    return _element(xs, ys, shifts)


def _rescaled(f: FElement, w: int) -> tuple[list[int], list[int]]:
    """f's breakpoint coordinates at scale 2^w, for w >= f's exponent."""
    k = w - f._e
    return [x << k for x in f._xs], [y << k for y in f._ys]


def compose(g: FElement, f: FElement) -> FElement:
    """Canonical form of g after f (f is applied first).

    Walks f's range breakpoints and g's domain breakpoints in one merge.
    Each step ends one piece of g . f at the next of them, m, where the
    piece has slope 2^(s_f + s_g); the new breakpoint is (f^-1(m), g(m)).
    """
    fs, gs = f._shifts, g._shifts
    # A preimage under f of a point at scale 2^max(e_f, e_g) needs at most
    # max(s_f) more bits, an image under g at most max(-s_g) more.
    w = max(f._e, g._e) + max(0, max(fs)) + max(0, -min(gs))
    fx, fy = _rescaled(f, w)
    gx, gy = _rescaled(g, w)
    xs, ys, shifts = [0], [0], []
    i = j = 0
    while i < len(fs):
        a, b = fy[i + 1], gx[j + 1]
        if a <= b:
            xs.append(fx[i + 1])
            ys.append(gy[j + 1] if a == b else gy[j] + _shift(a - gx[j], gs[j]))
        else:
            xs.append(fx[i] + _shift(b - fy[i], -fs[i]))
            ys.append(gy[j + 1])
        shifts.append(fs[i] + gs[j])
        if a <= b:
            i += 1
        if b <= a:
            j += 1
    return _element(xs, ys, shifts)


def invert(f: FElement) -> FElement:
    return _element(f._ys, f._xs, [-s for s in f._shifts])


def to_minimal_pair(f: FElement) -> PartitionPair:
    """The unique minimal-cardinality partition pair representing f.

    Greedy subdivision of [0,1]: keep a leaf once f is affine on it and its
    image is a standard dyadic interval, otherwise split at the midpoint.
    Identity yields ({0,1},{0,1}).
    """
    if f._minpair is not None:
        return f._minpair

    shifts = f._shifts
    # A leaf of depth at least e + max(0, s) inside a segment of slope 2^s
    # is acceptable, so no leaf is deeper than e + max(s) and no image is
    # finer than that plus max(-s).
    w = f._e + max(0, max(shifts)) + max(0, -min(shifts))
    xs, ys = _rescaled(f, w)

    def image(a: int) -> int:
        i = min(bisect_right(xs, a), len(xs) - 1) - 1
        return ys[i] + _shift(a - xs[i], shifts[i])

    def acceptable(a: int, b: int) -> bool:
        i = bisect_right(xs, a) - 1
        if xs[i + 1] < b:  # a breakpoint strictly inside (a, b)
            return False
        # affine on [a, b], so the image width is a power of two
        return image(a) % _shift(b - a, shifts[i]) == 0

    one = 1 << w
    domain = [0, one]
    stack = [(0, one)]
    while stack:
        a, b = stack.pop()
        if not acceptable(a, b):
            m = (a + b) >> 1
            domain.append(m)
            stack.append((a, m))
            stack.append((m, b))
            if len(domain) > 1 << 20:
                raise InvalidElement("subdivision did not terminate")
    domain.sort()
    pair = PartitionPair(
        DyadicPartition._from_sorted(Fraction(a, one) for a in domain),
        DyadicPartition._from_sorted(Fraction(image(a), one) for a in domain),
    )
    object.__setattr__(f, "_minpair", pair)
    return pair


GENERATOR_NAMES = ("x0", "x1", "x0^-1", "x1^-1")


@lru_cache(maxsize=1)
def generator_table() -> dict[str, FElement]:
    """The four standard generators, keyed by name, in audit order."""
    x0 = from_pair(
        PartitionPair(
            DyadicPartition.from_strings(["0", "1/2", "3/4", "1"]),
            DyadicPartition.from_strings(["0", "1/4", "1/2", "1"]),
        )
    )
    x1 = from_pair(
        PartitionPair(
            DyadicPartition.from_strings(["0", "1/2", "3/4", "7/8", "1"]),
            DyadicPartition.from_strings(["0", "1/2", "5/8", "3/4", "1"]),
        )
    )
    return {"x0": x0, "x1": x1, "x0^-1": invert(x0), "x1^-1": invert(x1)}


def generators() -> tuple[FElement, FElement, FElement, FElement]:
    """(x0, x1, x0^-1, x1^-1); "generator" downstream always means these four."""
    table = generator_table()
    return tuple(table[name] for name in GENERATOR_NAMES)  # type: ignore[return-value]


def act_marked(f: FElement, X: MarkedSet, side: Side = "left") -> MarkedSet:
    """Pointwise image of a marked set: f.X under f, X.f under f^-1.

    The side conventions make both versions genuine actions:
    (X.f).g = X.(fg) and f.(g.X) = (fg).X.  Both maps are increasing, so
    the image points come out sorted and distinct.
    """
    mapper = f.apply if side == "left" else f.apply_inverse
    return MarkedSet._from_sorted(mapper(x) for x in X.points)


def act_partition(g: FElement, T: DyadicPartition) -> DyadicPartition:
    """Partial left action on standard dyadic partitions.

    Defined only when the domain of g's minimal pair is contained in T;
    the image is then again standard.
    """
    if not to_minimal_pair(g).domain.issubset(T):
        raise DomainNotContained(
            "the minimal domain partition of g is not contained in T"
        )
    return DyadicPartition._from_sorted(g.apply(t) for t in T.points)


def f_of_partition(T: DyadicPartition) -> FElement:
    """The element represented by (base, T) with the size-matched base partition."""
    if len(T) < 3:
        raise TooFewPoints("the correspondence needs |T| >= 3")
    return from_pair(PartitionPair(i_n(len(T) - 3), T))


def evaluate_word(
    names: Iterable[str], gens: Mapping[str, FElement] | None = None
) -> FElement:
    """Product of named generators, left to right (rightmost applied first).

    Names are looked up in ``gens``, by default the generator table.
    """
    table = generator_table() if gens is None else gens
    try:
        elems = [table[name] for name in names]
    except KeyError as exc:
        raise InvalidElement(f"unknown generator {exc.args[0]!r}") from None
    return reduce(compose, elems, identity())
