"""Desk-scale diagnostics: tower growth, measure monotonicity, balls.

Two cited obstructions to cheap Folner sequences in F are runnable here as
consistency instruments.  The tower bound says a C^-n-Folner set must have
at least exp_n(0) elements (0, 1, 2, 4, 16, 65536, ...); the constant C is
the caller's to supply, since only its existence is asserted.  The
monotonicity property concerns invariant measures on standard dyadic
partitions: almost every partition meets a nested-interval chain with
strictly monotone counts.  Exactly invariant finitely supported measures
cannot exist, so the instrument pairs the monotone-count mass of a candidate
measure with its invariance defect; neither PASS nor FAIL proves anything
about the group.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DomainNotContained,
    InvalidChain,
    InvalidMeasure,
    MalformedInput,
    OutOfRange,
    RadiusTooLarge,
    TowerTooTall,
)
from .exactnum import ONE, ZERO, format_int, format_number, parse_coordinate
from .felement import (
    GENERATOR_NAMES,
    FElement,
    act_partition,
    compose,
    generator_table,
    identity,
)
from .partition import DyadicPartition

MAX_TOWER_HEIGHT = 6
# ball(8) has 11237 elements; each further radius roughly triples that
MAX_RADIUS = 8


def tower(n: int) -> int:
    """Iterated exponential at zero: 0, 1, 2, 4, 16, 65536, 2**65536.

    Heights beyond 6 are refused; the next value has no feasible
    representation.
    """
    if n < 0:
        raise OutOfRange("tower height must be non-negative")
    if n > MAX_TOWER_HEIGHT:
        raise TowerTooTall(f"refusing tower height {n} > {MAX_TOWER_HEIGHT}")
    value = 0
    for _ in range(n):
        value = 2**value
    return value


@dataclass(frozen=True)
class TowerVerdict:
    n: int
    bound: int
    observed_size: int
    consistent: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "bound": format_int(self.bound),
            "observed_size": self.observed_size,
            "consistent": self.consistent,
        }


def tower_check(size: int, defect: Fraction, c: Fraction) -> TowerVerdict:
    """Compare a measured Folner set against the tower lower bound.

    n is the largest integer with c^-n >= defect (clamped at 0 when the
    defect exceeds 1).  PASS never certifies anything; FAIL flags a set
    contradicting the bound for this particular c.
    """
    if defect <= 0:
        raise OutOfRange("defect must be positive")
    if c <= 1:
        raise OutOfRange("the constant must exceed 1")
    n = 0
    while defect * c ** (n + 1) <= 1:
        n += 1
        if n > MAX_TOWER_HEIGHT:
            raise TowerTooTall(
                f"defect {format_number(defect)} pushes the bound beyond "
                f"tower({MAX_TOWER_HEIGHT})"
            )
    bound = tower(n)
    return TowerVerdict(n, bound, size, size >= bound)


@dataclass(frozen=True)
class FiniteMeasure:
    """Finitely supported probability measure on standard dyadic partitions."""

    entries: tuple[tuple[DyadicPartition, Fraction], ...]

    def __post_init__(self) -> None:
        if len({T for T, _ in self.entries}) != len(self.entries):
            raise InvalidMeasure("duplicate support points")
        if any(w <= 0 for _, w in self.entries):
            raise InvalidMeasure("weights must be positive")
        if sum((w for _, w in self.entries), ZERO) != ONE:
            raise InvalidMeasure("weights must sum to 1 exactly")

    @classmethod
    def from_json_list(cls, data: object) -> "FiniteMeasure":
        if not isinstance(data, list) or not all(
            isinstance(item, dict)
            and isinstance(item.get("partition"), list)
            and "weight" in item
            for item in data
        ):
            raise MalformedInput(
                "a measure must be an array of {partition, weight} objects"
            )
        return cls(
            tuple(
                (
                    DyadicPartition.from_strings(item["partition"]),
                    # weights are rationals in (0,1], so the coordinate
                    # parser applies
                    parse_coordinate(item["weight"]),
                )
                for item in data
            )
        )

    def to_json_list(self) -> list[dict]:
        return [
            {"partition": T.to_strings(), "weight": format_number(w)}
            for T, w in self.entries
        ]


@dataclass(frozen=True)
class IntervalChain:
    """Disjoint closed intervals, strictly ordered, inside the open unit interval."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise InvalidChain("empty chain")
        prev_hi = ZERO
        for lo, hi in self.intervals:
            if lo > hi:
                raise InvalidChain(f"interval [{lo}, {hi}] is inverted")
            if lo <= prev_hi:
                raise InvalidChain("intervals must be strictly separated, away from 0")
            prev_hi = hi
        if prev_hi >= ONE:
            raise InvalidChain("chain must stay strictly below 1")

    @classmethod
    def from_json_list(cls, data: object) -> "IntervalChain":
        if not isinstance(data, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in data
        ):
            raise MalformedInput("a chain must be an array of [lo, hi] pairs")
        return cls(
            tuple((parse_coordinate(lo), parse_coordinate(hi)) for lo, hi in data)
        )

    def to_json_list(self) -> list[list[str]]:
        return [[format_number(lo), format_number(hi)] for lo, hi in self.intervals]


def _strictly_monotone(counts: Sequence[int]) -> bool:
    increasing = all(a < b for a, b in zip(counts, counts[1:]))
    decreasing = all(a > b for a, b in zip(counts, counts[1:]))
    return increasing or decreasing


def monotonicity_mass(mu: FiniteMeasure, chain: IntervalChain) -> Fraction:
    """Total weight of support partitions with strictly monotone chain counts.

    Counts use closed-interval membership of partition points.
    """
    if len(chain.intervals) < 2:
        raise InvalidChain("monotonicity needs a chain of length >= 2")
    mass = ZERO
    for T, w in mu.entries:
        counts = [
            bisect_right(T.points, hi) - bisect_left(T.points, lo)
            for lo, hi in chain.intervals
        ]
        if _strictly_monotone(counts):
            mass += w
    return mass


def invariance_defect(mu: FiniteMeasure, g: FElement) -> Fraction:
    """Total-variation distance between mu and its pushforward under g.

    The action on partitions is partial; mass sitting where g is undefined
    is pushed outside the space entirely and therefore contributes in full.
    """
    pushed: dict[DyadicPartition, Fraction] = {}
    lost = ZERO
    for T, w in mu.entries:
        try:
            image = act_partition(g, T)
        except DomainNotContained:
            lost += w
            continue
        pushed[image] = pushed.get(image, ZERO) + w
    original = dict(mu.entries)
    total = ZERO
    for T in original.keys() | pushed.keys():
        total += abs(original.get(T, ZERO) - pushed.get(T, ZERO))
    return (total + lost) / 2


def ball_with_witnesses(r: int) -> dict[FElement, tuple[str, ...]]:
    """Breadth-first ball of radius r with a shortest witness word per element.

    Deterministic: each level multiplies its frontier by the generators in
    a fixed order, so every element keeps the first word that reached it.
    """
    if r < 0:
        raise OutOfRange("radius must be non-negative")
    if r > MAX_RADIUS:
        raise RadiusTooLarge(f"radius {r} exceeds the limit {MAX_RADIUS}")
    table = generator_table()
    seen: dict[FElement, tuple[str, ...]] = {identity(): ()}
    frontier: list[FElement] = [identity()]
    for _ in range(r):
        level, frontier = frontier, []
        for elem in level:
            for name in GENERATOR_NAMES:
                product = compose(elem, table[name])
                if product not in seen:
                    seen[product] = seen[elem] + (name,)
                    frontier.append(product)
    return seen


def ball(r: int) -> frozenset[FElement]:
    """All elements expressible as words of length <= r in the generators."""
    return frozenset(ball_with_witnesses(r))
