"""Marked subsets of [0,1] and standard dyadic partitions.

A *marked set* is a finite subset of [0,1] containing both endpoints.  A
*standard dyadic partition* is a marked set whose consecutive points are
p/2^q and (p+1)/2^q for non-negative integers p, q; equivalently, its
intervals are the leaves of a full binary subdivision tree of [0,1].

The central operator here is :func:`t_of`: the maximal standard dyadic
partition each of whose half-open leaf intervals [s, t) contains a point of
the given marked set.  It is computed by greedy top-down subdivision, which
is validity-preserving by construction and reaches the maximum because any
partition satisfying the leaf condition has every ancestor interval occupied
on both halves.  Each leaf carries the index range of the sorted points in
it, so one bisection inside that range decides the split.

``MarkedSet(...)`` and ``DyadicPartition(...)`` validate outside input.
Results valid by construction (``t_of``, ``common_refinement``, images under
the group, minimal pairs) go through the trusted ``_from_sorted``, which
takes sorted distinct points unchecked.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, TypeVar

from .errors import InvalidMarkedSet, NotStandardPartition
from .exactnum import ONE, ZERO, format_number, is_power_of_two, parse_coordinate

_M = TypeVar("_M", bound="MarkedSet")


class MarkedSet:
    """A finite subset of [0,1] containing 0 and 1, stored sorted.

    Immutable and hashable; input order and duplicates are irrelevant, as
    befits a set.
    """

    __slots__ = ("points",)

    points: tuple[Fraction, ...]

    def __init__(self, points: Iterable[Fraction | int]) -> None:
        pts = sorted({Fraction(p) for p in points})
        if len(pts) < 2 or pts[0] != ZERO or pts[-1] != ONE:
            raise InvalidMarkedSet(
                "need a finite subset of [0,1] containing both 0 and 1, got "
                f"{[format_number(Fraction(p)) for p in pts]}"
            )
        object.__setattr__(self, "points", tuple(pts))

    @classmethod
    def _from_sorted(cls: type[_M], points: Iterable[Fraction]) -> _M:
        """Trusted constructor for internal results: sorted distinct points, unchecked."""
        X = object.__new__(cls)
        object.__setattr__(X, "points", tuple(points))
        return X

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MarkedSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.points)

    def __contains__(self, x: object) -> bool:
        i = bisect_left(self.points, x)
        return i < len(self.points) and self.points[i] == x

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkedSet):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"{type(self).__name__}([{', '.join(self.to_strings())}])"

    def issubset(self, other: "MarkedSet") -> bool:
        return all(p in other for p in self.points)

    def to_strings(self) -> list[str]:
        return [format_number(p) for p in self.points]

    @classmethod
    def from_strings(cls: type[_M], items: Iterable[str]) -> _M:
        return cls(parse_coordinate(s) for s in items)


def _pair_is_standard(a: Fraction, b: Fraction) -> bool:
    # [a, b] = [p/2^q, (p+1)/2^q]  iff  b-a = 1/2^q and a is a multiple
    # of 1/2^q; denominators are powers of two in lowest terms.
    gap = b - a
    return (
        gap.numerator == 1
        and is_power_of_two(gap.denominator)
        and gap.denominator % a.denominator == 0
        and is_power_of_two(a.denominator)
    )


class DyadicPartition(MarkedSet):
    """A marked set whose consecutive points are p/2^q, (p+1)/2^q."""

    __slots__ = ()

    def __init__(self, points: Iterable[Fraction | int]) -> None:
        super().__init__(points)
        pts = self.points
        for a, b in zip(pts, pts[1:]):
            if not _pair_is_standard(a, b):
                raise NotStandardPartition(
                    f"[{format_number(a)}, {format_number(b)}] is not a standard dyadic interval"
                )


def mesh(X: MarkedSet) -> Fraction:
    """Largest gap between consecutive points of X."""
    pts = X.points
    return max(b - a for a, b in zip(pts, pts[1:]))


def is_standard(X: MarkedSet) -> bool:
    """True iff X satisfies the standard-dyadic-partition invariant."""
    pts = X.points
    return all(_pair_is_standard(a, b) for a, b in zip(pts, pts[1:]))


@lru_cache(maxsize=None)
def i_n(n: int) -> DyadicPartition:
    """The base partition {1 - 2^-i : 0 <= i <= n+1} together with 1.

    Has exactly n + 3 points; gaps halve from 1/2 down to 2^-(n+1), with the
    final gap repeated.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    points = [ONE - Fraction(1, 2**i) for i in range(n + 2)]
    points.append(ONE)
    return DyadicPartition._from_sorted(points)


def t_of(X: MarkedSet) -> DyadicPartition:
    """Maximal standard dyadic partition whose half-open leaves all meet X.

    Greedy subdivision: starting from the single leaf [0,1), split a leaf
    [a,b) at its midpoint whenever both halves contain a point of X.  Leaf
    membership is half-open, so 1 never witnesses any leaf.  The degenerate
    X = {0,1} yields {0,1}.
    """
    xs = X.points[:-1]  # every point but 1 lies in [0, 1)
    boundaries = [ZERO, ONE]
    # (a, b, lo, hi): the leaf [a, b) holds exactly the points xs[lo:hi]
    stack = [(ZERO, ONE, 0, len(xs))]
    while stack:
        a, b, lo, hi = stack.pop()
        m = (a + b) / 2
        j = bisect_left(xs, m, lo, hi)
        if lo < j < hi:
            boundaries.append(m)
            stack.append((a, m, lo, j))
            stack.append((m, b, j, hi))
    boundaries.sort()
    return DyadicPartition._from_sorted(boundaries)


def common_refinement(S: DyadicPartition, T: DyadicPartition) -> DyadicPartition:
    """Union of the two point sets, again a standard dyadic partition."""
    return DyadicPartition._from_sorted(sorted(set(S.points).union(T.points)))
