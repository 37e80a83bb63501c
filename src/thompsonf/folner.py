"""Folner-defect audits and the mesh-bounded reduction to group elements.

Families are finite sets: of group elements (deduplicated by canonical
form) or of marked sets (deduplicated by point-list equality).  A defect
audit counts, per generator, the symmetric difference between a family and
its translate, normalized by family size; all counts are exact.

Side conventions (stated in every report): ``left`` acts by g itself,
``right`` by g^-1.  Acting by the inverse is what makes the right version a
genuine right action, and it makes a right audit over inverted generators
literally identical to a left audit.

The reduction pipeline turns a family of marked sets with mesh at most 1/16
into a family of group elements via X -> f_{T(X)}, verifying exactly the
set identity that makes small defects transfer: the image of the family
under a generator corresponds to left translation of the reduced family.
The map can collide in principle, so the report carries both cardinalities
and the audited bound uses the literal ratio.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import EmptyFamily, MalformedInput, MeshTooLarge, OutOfRange
from .exactnum import MAX_CARET_EXPONENT, ONE, ZERO, format_number
from .felement import (
    FElement,
    Side,
    act_marked,
    compose,
    f_of_partition,
    generator_table,
    invert,
)
from .partition import MarkedSet, mesh, t_of

MESH_BOUND = Fraction(1, 16)
POST_ACTION_MESH_BOUND = Fraction(1, 8)
# Largest z_family index: its member 1 - 2^-(n+2) must parse back, so
# n + 2 stays within the caret-exponent bound.
MAX_Z_INDEX = MAX_CARET_EXPONENT - 2

ElementSet = frozenset[FElement]
MarkedFamily = frozenset[MarkedSet]


@dataclass(frozen=True)
class GeneratorDefect:
    name: str
    count: int
    defect: Fraction

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "defect": format_number(self.defect),
        }


@dataclass(frozen=True)
class FolnerReport:
    """Per-generator symmetric-difference counts for one family audit."""

    family_size: int
    side: str
    entries: tuple[GeneratorDefect, ...]
    mesh_max: Fraction | None = None

    @property
    def max_defect(self) -> Fraction:
        return max(e.defect for e in self.entries)

    def to_json_dict(self) -> dict:
        doc = {
            "family_size": self.family_size,
            "side": self.side,
            "generators": [e.to_json_dict() for e in self.entries],
            "max_defect": format_number(self.max_defect),
        }
        doc["mesh_max"] = None if self.mesh_max is None else format_number(self.mesh_max)
        return doc


@dataclass(frozen=True)
class CertificateVerdict:
    """Strict comparison of an audited defect against a target epsilon."""

    passed: bool
    epsilon: Fraction
    max_defect: Fraction
    mesh_max: Fraction | None
    mesh_ok: bool | None

    def to_json_dict(self) -> dict:
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "epsilon": format_number(self.epsilon),
            "max_defect": format_number(self.max_defect),
            "mesh_max": None if self.mesh_max is None else format_number(self.mesh_max),
            "mesh_ok": self.mesh_ok,
        }


@dataclass(frozen=True)
class ReductionReport:
    """Bookkeeping for one run of the reduction pipeline."""

    family_size: int
    element_count: int
    collision_count: int
    mesh_input: Fraction
    mesh_after_action: Fraction
    identity_checks: tuple[tuple[str, bool], ...]

    def to_json_dict(self) -> dict:
        return {
            "family_size": self.family_size,
            "element_count": self.element_count,
            "collision_count": self.collision_count,
            "mesh_input": format_number(self.mesh_input),
            "mesh_after_action": format_number(self.mesh_after_action),
            "identity_checks": {name: ok for name, ok in self.identity_checks},
        }


def _named_generators(
    gens: Mapping[str, FElement] | None,
) -> list[tuple[str, FElement]]:
    table = generator_table() if gens is None else gens
    return list(table.items())


def defect_elements(
    A: Iterable[FElement],
    gens: Mapping[str, FElement] | None = None,
    side: Side = "left",
) -> FolnerReport:
    """Exact symmetric-difference audit of a set of group elements.

    Left side translates by g, right side by g^-1 (always on the left,
    which is what makes the right version an action).
    """
    family = frozenset(A)
    if not family:
        raise EmptyFamily("cannot audit an empty element family")
    entries = []
    for name, g in _named_generators(gens):
        h = g if side == "left" else invert(g)
        translated = frozenset(compose(h, a) for a in family)
        count = len(family ^ translated)
        entries.append(GeneratorDefect(name, count, Fraction(count, len(family))))
    return FolnerReport(len(family), side, tuple(entries))


def defect_marked(
    Z: Iterable[MarkedSet],
    gens: Mapping[str, FElement] | None = None,
    side: Side = "left",
) -> FolnerReport:
    """Exact symmetric-difference audit of a family of marked sets."""
    family = frozenset(Z)
    if not family:
        raise EmptyFamily("cannot audit an empty marked family")
    entries = []
    for name, g in _named_generators(gens):
        moved = frozenset(act_marked(g, X, side) for X in family)
        count = len(family ^ moved)
        entries.append(GeneratorDefect(name, count, Fraction(count, len(family))))
    return FolnerReport(len(family), side, tuple(entries), mesh_max=mesh_max(family))


def z_family(A: Iterable[int]) -> MarkedFamily:
    """The three-point family {0, 1 - 2^-(n+2), 1} for each n in A.

    Indices run from 0 to :data:`MAX_Z_INDEX`, so every member written out
    can be read back.
    """
    indices = set(A)
    if not indices:
        raise EmptyFamily("z_family needs at least one index")
    if any(n < 0 for n in indices):
        raise OutOfRange("z_family indices must be non-negative")
    if any(n > MAX_Z_INDEX for n in indices):
        raise OutOfRange(f"z_family indices must be at most {MAX_Z_INDEX}")
    return frozenset(
        MarkedSet((ZERO, ONE - Fraction(1, 2 ** (n + 2)), ONE)) for n in indices
    )


def mesh_max(Z: Iterable[MarkedSet]) -> Fraction:
    family = list(Z)
    if not family:
        raise EmptyFamily("mesh_max of an empty family")
    return max(mesh(X) for X in family)


def reduce_to_f(
    Z: Iterable[MarkedSet],
    gens: Mapping[str, FElement] | None = None,
) -> tuple[ElementSet, ReductionReport]:
    """Map a mesh-bounded marked family to elements via X -> f_{T(X)}.

    Requires every member to have mesh at most 1/16; after one generator
    action the mesh stays at most 1/8 (generator slopes are at most 2),
    and both bounds are checked.  For each generator the exact set identity
    between "act then reduce" and "reduce then left-translate" is verified
    and recorded.
    """
    family = sorted(frozenset(Z), key=lambda X: X.points)
    mesh_input = mesh_max(family)  # refuses an empty family
    if mesh_input > MESH_BOUND:
        raise MeshTooLarge(
            f"family mesh {format_number(mesh_input)} exceeds "
            f"{format_number(MESH_BOUND)}"
        )

    reduced = [f_of_partition(t_of(X)) for X in family]
    elements = frozenset(reduced)

    checks = []
    mesh_after = ZERO
    for name, g in _named_generators(gens):
        moved = [act_marked(g, X) for X in family]
        mesh_after = max(mesh_after, mesh_max(moved))
        lhs = frozenset(f_of_partition(t_of(Y)) for Y in moved)
        rhs = frozenset(compose(g, fe) for fe in reduced)
        checks.append((name, lhs == rhs))
    if mesh_after > POST_ACTION_MESH_BOUND:
        raise MeshTooLarge(
            f"post-action mesh {format_number(mesh_after)} exceeds "
            f"{format_number(POST_ACTION_MESH_BOUND)}"
        )

    report = ReductionReport(
        family_size=len(family),
        element_count=len(elements),
        collision_count=len(family) - len(elements),
        mesh_input=mesh_input,
        mesh_after_action=mesh_after,
        identity_checks=tuple(checks),
    )
    return elements, report


def folner_certificate(report: FolnerReport, epsilon: Fraction) -> CertificateVerdict:
    """PASS iff the audited max defect is strictly below epsilon."""
    mesh_ok = None if report.mesh_max is None else report.mesh_max <= MESH_BOUND
    return CertificateVerdict(
        passed=report.max_defect < epsilon,
        epsilon=epsilon,
        max_defect=report.max_defect,
        mesh_max=report.mesh_max,
        mesh_ok=mesh_ok,
    )


# -- family file format (JSON lines, one member per line) -------------------


def parse_family_line(text: str) -> MarkedSet | FElement:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad JSON line: {exc}") from None
    if isinstance(data, list):
        return MarkedSet.from_strings(data)
    if isinstance(data, dict):
        return FElement.from_json_dict(data)
    raise MalformedInput("family line must be an array or a breaks object")


def load_family_text(text: str) -> tuple[str, list[MarkedSet] | list[FElement]]:
    """Parse JSON-lines content into a homogeneous family.

    Returns ("marked", members) or ("elements", members).
    """
    members = [parse_family_line(line) for line in text.splitlines() if line.strip()]
    if not members:
        raise EmptyFamily("family file has no members")
    kinds = {type(m) is FElement for m in members}
    if len(kinds) > 1:
        raise MalformedInput("family file mixes marked sets and elements")
    kind = "elements" if kinds.pop() else "marked"
    return kind, members


def family_to_lines(family: Iterable[MarkedSet] | Iterable[FElement]) -> list[str]:
    """Deterministic JSON-lines serialization, sorted canonically."""
    members = list(family)
    if members and isinstance(members[0], FElement):
        members.sort(key=lambda f: f.canonical_key)
        return [json.dumps(f.to_json_dict(), sort_keys=True) for f in members]
    members.sort(key=lambda X: X.points)
    return [json.dumps(X.to_strings()) for X in members]
