"""Seeded randomized verification suites behind the ``verify`` command.

Each suite draws its cases from one ``random.Random(seed)`` stream, records
the number of failures, and keeps the first counterexample in fully
serialized form.  Case inputs are generated up front and checked in order,
so the same seed and case count give a byte-identical report.

Random marked sets follow a fixed recipe, documented in the CLI help: the
uniform 1/16 grid plus up to sixteen extra dyadics p/2^q with q <= 10.
The grid alone already guarantees mesh at most 1/16.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .errors import ToolkitError
from .exactnum import ONE, ZERO
from .felement import (
    GENERATOR_NAMES,
    FElement,
    PartitionPair,
    act_marked,
    act_partition,
    compose,
    evaluate_word,
    f_of_partition,
    from_pair,
    generator_table,
    identity,
    invert,
    to_minimal_pair,
)
from .folner import defect_elements, defect_marked, reduce_to_f
from .partition import DyadicPartition, MarkedSet, i_n, is_standard, mesh, t_of

GRID_16 = [Fraction(k, 16) for k in range(17)]
MAX_EXTRA_POINTS = 16
MAX_EXTRA_EXPONENT = 10


def random_dyadic(rng: random.Random, max_exponent: int = MAX_EXTRA_EXPONENT) -> Fraction:
    q = rng.randint(0, max_exponent)
    return Fraction(rng.randint(0, 2**q), 2**q)


def random_mesh_set(rng: random.Random) -> MarkedSet:
    """Grid-plus-jitter marked set; mesh is at most 1/16 by construction."""
    extras = [random_dyadic(rng) for _ in range(rng.randint(0, MAX_EXTRA_POINTS))]
    return MarkedSet(GRID_16 + extras)


def _split_leaves(rng: random.Random, points: list[Fraction], splits: int) -> None:
    # adjacent pairs are always standard leaves, so midpoints stay standard
    for _ in range(splits):
        i = rng.randrange(len(points) - 1)
        points.insert(i + 1, (points[i] + points[i + 1]) / 2)


def random_refinement(
    rng: random.Random, base: DyadicPartition, max_points: int
) -> DyadicPartition:
    """A random standard partition containing ``base``, at most max_points points."""
    points = list(base.points)
    _split_leaves(rng, points, rng.randint(0, max(0, max_points - len(points))))
    return DyadicPartition(points)


def random_standard_partition(rng: random.Random, max_splits: int = 10) -> DyadicPartition:
    points = [ZERO, ONE]
    _split_leaves(rng, points, rng.randint(0, max_splits))
    return DyadicPartition(points)


def random_pair(rng: random.Random, max_splits: int = 10) -> PartitionPair:
    splits = rng.randint(0, max_splits)
    domain_points, range_points = [ZERO, ONE], [ZERO, ONE]
    _split_leaves(rng, domain_points, splits)
    _split_leaves(rng, range_points, splits)
    return PartitionPair(DyadicPartition(domain_points), DyadicPartition(range_points))


def random_word(rng: random.Random, max_length: int = 12) -> list[str]:
    return [rng.choice(GENERATOR_NAMES) for _ in range(rng.randint(0, max_length))]


def random_family(rng: random.Random, max_size: int = 50) -> frozenset[MarkedSet]:
    return frozenset(random_mesh_set(rng) for _ in range(rng.randint(1, max_size)))


def _corrupted_table() -> dict[str, FElement]:
    """Negative-control fixture: a valid element wired in under x1's name."""
    table = dict(generator_table())
    bad = from_pair(
        PartitionPair(
            DyadicPartition.from_strings(["0", "1/2", "3/4", "7/8", "1"]),
            DyadicPartition.from_strings(["0", "1/4", "1/2", "3/4", "1"]),
        )
    )
    table["x1"] = bad
    table["x1^-1"] = invert(bad)
    return table


def _safe(check: Callable[..., bool]) -> Callable[..., bool]:
    """A library error raised mid-check counts as a plain failure."""

    def wrapped(*args):
        try:
            return check(*args)
        except ToolkitError:
            return False

    return wrapped


class _Suite:
    def __init__(self, name: str) -> None:
        self.name = name
        self.cases = 0
        self.failures = 0
        self.counterexample: dict | None = None

    def record(self, ok: bool, witness: Callable[[], dict]) -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = witness()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "counterexample": self.counterexample,
        }


def _suite_generator_sanity(table: dict[str, FElement]) -> _Suite:
    suite = _Suite("generator_sanity")
    x0, x1 = table["x0"], table["x1"]
    checks: list[tuple[str, bool]] = [
        ("x0 pair", to_minimal_pair(x0).to_json_dict()
         == {"domain": ["0", "1/2", "3/4", "1"], "range": ["0", "1/4", "1/2", "1"]}),
        ("x1 pair", to_minimal_pair(x1).to_json_dict()
         == {"domain": ["0", "1/2", "3/4", "7/8", "1"],
             "range": ["0", "1/2", "5/8", "3/4", "1"]}),
        ("x0 at 3/4", x0.apply(Fraction(3, 4)) == Fraction(1, 2)),
        ("x1 fixes 1/3", x1.apply(Fraction(1, 3)) == Fraction(1, 3)),
        ("x0 inverse at 1/2", invert(x0).apply(Fraction(1, 2)) == Fraction(3, 4)),
        ("base partition sizes", all(len(i_n(n)) == n + 3 for n in range(9))),
        ("f of x0 range partition",
         f_of_partition(DyadicPartition.from_strings(["0", "1/4", "1/2", "1"])) == x0),
        ("f of x1 range partition",
         f_of_partition(DyadicPartition.from_strings(["0", "1/2", "5/8", "3/4", "1"])) == x1),
        ("f of base partition is identity", f_of_partition(i_n(1)) == identity()),
    ]
    for label, ok in checks:
        suite.record(ok, lambda label=label: {"check": label})
    return suite


def _commutator(a: FElement, b: FElement) -> FElement:
    return compose(compose(invert(a), invert(b)), compose(a, b))


def _suite_defining_relations(table: dict[str, FElement]) -> _Suite:
    suite = _Suite("defining_relations")
    x0, x1 = table["x0"], table["x1"]
    u = compose(x0, invert(x1))
    v1 = compose(compose(invert(x0), x1), x0)
    v2 = compose(compose(invert(x0) ** 2, x1), x0**2)
    for label, v in (("short", v1), ("long", v2)):
        value = _commutator(u, v)
        suite.record(
            value == identity(),
            lambda label=label, value=value: {
                "relation": label,
                "value": value.to_json_dict(),
            },
        )
    return suite


def _suite_pair_roundtrip(rng: random.Random, cases: int) -> _Suite:
    suite = _Suite("pair_roundtrip")
    pairs = [random_pair(rng) for _ in range(cases)]

    @_safe
    def check(pair: PartitionPair) -> bool:
        f = from_pair(pair)
        return from_pair(to_minimal_pair(f)) == f

    for pair in pairs:
        suite.record(check(pair), lambda pair=pair: {"pair": pair.to_json_dict()})
    return suite


def _suite_group_axioms(
    rng: random.Random, table: dict[str, FElement], cases: int
) -> _Suite:
    suite = _Suite("group_axioms")
    words = [tuple(random_word(rng) for _ in range(3)) for _ in range(cases)]

    @_safe
    def check(triple: tuple[list[str], ...]) -> bool:
        a, b, c = (evaluate_word(w, table) for w in triple)
        assoc = compose(compose(a, b), c) == compose(a, compose(b, c))
        inv = compose(a, invert(a)) == identity() == compose(invert(a), a)
        ident = compose(a, identity()) == a == compose(identity(), a)
        return assoc and inv and ident

    for triple in words:
        suite.record(
            check(triple),
            lambda triple=triple: {"words": [list(w) for w in triple]},
        )
    return suite


def _suite_action_composition(
    rng: random.Random, table: dict[str, FElement], cases: int
) -> _Suite:
    suite = _Suite("partition_action_composition")
    inputs = []
    for _ in range(cases):
        name = rng.choice(GENERATOR_NAMES)
        g = table[name]
        T = random_refinement(rng, to_minimal_pair(g).domain, 24)
        inputs.append((name, g, T))

    @_safe
    def check(g: FElement, T: DyadicPartition) -> bool:
        image = act_partition(g, T)
        return is_standard(image) and compose(g, f_of_partition(T)) == f_of_partition(
            image
        )

    for name, g, T in inputs:
        suite.record(
            check(g, T),
            lambda name=name, T=T: {"generator": name, "partition": T.to_strings()},
        )
    return suite


def _suite_action_commutes(
    rng: random.Random, table: dict[str, FElement], cases: int
) -> _Suite:
    suite = _Suite("action_commutes_with_max_partition")
    inputs = [
        (rng.choice(GENERATOR_NAMES), random_mesh_set(rng)) for _ in range(cases)
    ]

    @_safe
    def check(g: FElement, X: MarkedSet) -> bool:
        return act_partition(g, t_of(X)) == t_of(act_marked(g, X))

    for name, X in inputs:
        suite.record(
            check(table[name], X),
            lambda name=name, X=X: {"generator": name, "marked_set": X.to_strings()},
        )
    return suite


def _suite_mesh_bound(rng: random.Random, cases: int) -> _Suite:
    suite = _Suite("max_partition_mesh_bound")
    inputs = [random_mesh_set(rng) for _ in range(cases)]
    required = i_n(2)

    @_safe
    def check(X: MarkedSet) -> bool:
        T = t_of(X)
        return mesh(T) <= Fraction(1, 8) and required.issubset(T)

    for X in inputs:
        suite.record(check(X), lambda X=X: {"marked_set": X.to_strings()})
    return suite


def _suite_family_reduction(
    rng: random.Random, table: dict[str, FElement], cases: int
) -> _Suite:
    suite = _Suite("family_reduction_identity")
    families = [random_family(rng) for _ in range(cases)]

    def check(Z: frozenset[MarkedSet]) -> tuple[bool, str]:
        try:
            elements, report = reduce_to_f(Z, gens=table)
        except ToolkitError as exc:
            return False, str(exc)
        if not all(ok for _, ok in report.identity_checks):
            return False, "set identity"
        delta = defect_marked(Z, gens=table, side="left").max_defect
        measured = defect_elements(elements, gens=table, side="left").max_defect
        bound = delta * report.family_size / report.element_count
        if measured > bound:
            return False, "defect bound"
        return True, ""

    for Z in families:
        ok, reason = check(Z)
        suite.record(
            ok,
            lambda Z=Z, reason=reason: {
                "reason": reason,
                "family": [X.to_strings() for X in sorted(Z, key=lambda m: m.points)],
            },
        )
    return suite


def run_suites(seed: int, cases: int, corrupt: bool = False) -> dict:
    """Run every suite and return the deterministic report document."""
    rng = random.Random(seed)
    table = _corrupted_table() if corrupt else dict(generator_table())
    family_cases = max(1, cases // 10)

    suites = [
        _suite_generator_sanity(table),
        _suite_defining_relations(table),
        _suite_pair_roundtrip(rng, cases),
        _suite_group_axioms(rng, table, cases),
        _suite_action_composition(rng, table, cases),
        _suite_action_commutes(rng, table, cases),
        _suite_mesh_bound(rng, cases),
        _suite_family_reduction(rng, table, family_cases),
    ]
    # the report holds no timing or host detail, so equal arguments give
    # equal bytes
    return {
        "config": {"seed": seed, "cases": cases, "corrupt": corrupt},
        "suites": [s.to_json_dict() for s in suites],
        "all_passed": all(s.failures == 0 for s in suites),
    }
