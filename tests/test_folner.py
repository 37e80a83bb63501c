import random
from fractions import Fraction

import pytest

from thompsonf import (
    MarkedSet,
    compose,
    defect_elements,
    defect_marked,
    f_of_partition,
    folner_certificate,
    generator_table,
    generators,
    identity,
    invert,
    mesh,
    mesh_max,
    reduce_to_f,
    t_of,
    z_family,
)
from thompsonf.errors import EmptyFamily, MalformedInput, MeshTooLarge, OutOfRange
from thompsonf.folner import MESH_BOUND, family_to_lines, load_family_text
from thompsonf.verify import random_family
from oracles import quadratic_symmetric_difference, reduced_pair_equal

F = Fraction
X0, X1, X0I, X1I = generators()
GRID = MarkedSet(F(k, 16) for k in range(17))


class TestDefectElements:
    def test_singleton_identity_family(self):
        report = defect_elements({identity()}, gens={"x0": X0})
        assert report.entries[0].count == 2
        assert report.entries[0].defect == 2

    def test_identity_generator_gives_zero(self):
        A = {X0, X1, compose(X0, X1)}
        report = defect_elements(A, gens={"e": identity()})
        assert report.max_defect == 0

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            defect_elements(set())

    def test_matches_quadratic_oracle(self):
        from thompsonf import ball

        A = sorted(ball(2), key=lambda f: f.canonical_key)
        report = defect_elements(A)
        for entry, (name, g) in zip(report.entries, generator_table().items()):
            assert entry.name == name
            translated = [compose(g, a) for a in A]
            assert entry.count == quadratic_symmetric_difference(
                A, translated, reduced_pair_equal
            )

    def test_side_swap_with_inverted_generators(self):
        A = {identity(), X0, compose(X1, X0)}
        left = defect_elements(A, side="left")
        inverted = {name: invert(g) for name, g in generator_table().items()}
        right = defect_elements(A, gens=inverted, side="right")
        assert [e.count for e in left.entries] == [e.count for e in right.entries]


class TestDefectMarked:
    def test_z_family_translation_counts(self):
        report = defect_marked(z_family(range(16)))
        assert report.family_size == 16
        assert all(entry.count == 2 for entry in report.entries)
        assert report.max_defect == F(2, 16)
        assert report.max_defect <= F(4, 16)

    def test_endpoint_only_member_is_fixed(self):
        report = defect_marked({MarkedSet([0, 1])}, gens={"x0": X0})
        assert report.max_defect == 0

    def test_identity_generator(self):
        report = defect_marked({MarkedSet([0, F(1, 3), 1])}, gens={"e": identity()})
        assert report.max_defect == 0

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            defect_marked(frozenset())

    def test_shift_defect_transfers(self):
        # families indexed by integers inherit the integer shift defect;
        # all four generators act as index shifts up to one off-family image
        rng = random.Random(31)
        for _ in range(30):
            A = {rng.randint(0, 14) for _ in range(rng.randint(1, 12))}
            eps = F(len(A ^ {a + 1 for a in A}), len(A))
            report = defect_marked(z_family(A))
            assert report.max_defect <= 2 * eps

    def test_side_swap_with_inverted_generators(self):
        Z = z_family({0, 1, 4})
        left = defect_marked(Z, side="left")
        inverted = {name: invert(g) for name, g in generator_table().items()}
        right = defect_marked(Z, gens=inverted, side="right")
        assert [e.count for e in left.entries] == [e.count for e in right.entries]

    def test_matches_quadratic_oracle(self):
        rng = random.Random(32)
        Z = sorted(random_family(rng, max_size=40), key=lambda X: X.points)
        report = defect_marked(Z)
        for entry, (_, g) in zip(report.entries, generator_table().items()):
            moved = [MarkedSet(g.apply(x) for x in X.points) for X in Z]
            count = quadratic_symmetric_difference(
                Z, moved, lambda a, b: a.points == b.points
            )
            assert entry.count == count


class TestZFamily:
    def test_index_zero(self):
        (member,) = z_family({0})
        assert member.to_strings() == ["0", "3/4", "1"]

    def test_index_one(self):
        (member,) = z_family({1})
        assert member.to_strings() == ["0", "7/8", "1"]

    def test_mesh_violates_reduction_bound(self):
        for member in z_family(range(8)):
            assert mesh(member) >= F(3, 4) > MESH_BOUND

    def test_rejects_negative(self):
        with pytest.raises(OutOfRange):
            z_family({-1})

    def test_rejects_empty(self):
        with pytest.raises(EmptyFamily):
            z_family(set())


class TestMeshMax:
    def test_single(self):
        assert mesh_max({MarkedSet([0, F(1, 2), 1])}) == F(1, 2)

    def test_grids(self):
        assert mesh_max({GRID}) == F(1, 16)

    def test_z_family(self):
        assert mesh_max(z_family({0, 1, 2})) == F(15, 16)

    def test_empty(self):
        with pytest.raises(EmptyFamily):
            mesh_max([])


class TestReduce:
    def test_grid_family_reduces_to_one_element(self):
        elements, report = reduce_to_f({GRID})
        assert len(elements) == 1
        assert report.family_size == 1
        assert report.collision_count == 0
        assert next(iter(elements)) == f_of_partition(t_of(GRID))
        assert all(ok for _, ok in report.identity_checks)
        assert report.mesh_after_action <= F(1, 8)

    def test_collisions_are_counted(self):
        # adding 1/3 to the grid does not move the maximal partition, so
        # both members reduce to the same element
        doubled = {GRID, MarkedSet(list(GRID.points) + [F(1, 3)])}
        assert t_of(MarkedSet(list(GRID.points) + [F(1, 3)])) == t_of(GRID)
        elements, report = reduce_to_f(doubled)
        assert report.family_size == 2
        assert report.element_count == 1
        assert report.collision_count == 1

    def test_mesh_gate(self):
        with pytest.raises(MeshTooLarge):
            reduce_to_f(z_family(range(4)))

    def test_identity_chain_and_defect_bound(self):
        rng = random.Random(33)
        for _ in range(15):
            Z = random_family(rng, max_size=30)
            elements, report = reduce_to_f(Z)
            assert all(ok for _, ok in report.identity_checks)
            assert report.mesh_input <= F(1, 16)
            assert report.mesh_after_action <= F(1, 8)
            delta = defect_marked(Z).max_defect
            measured = defect_elements(elements).max_defect
            assert measured <= delta * report.family_size / report.element_count


class TestCertificate:
    def test_zero_defect_passes(self):
        report = defect_marked({MarkedSet([0, 1])}, gens={"x0": X0})
        verdict = folner_certificate(report, F(1, 2))
        assert verdict.passed
        assert verdict.to_json_dict()["verdict"] == "PASS"

    def test_strictness(self):
        report = defect_elements({identity()}, gens={"x0": X0})
        assert report.max_defect == 2
        assert not folner_certificate(report, F(1)).passed
        assert not folner_certificate(report, F(2)).passed  # strict comparison
        assert folner_certificate(report, F(3)).passed

    def test_z_family_64(self):
        report = defect_marked(z_family(range(64)))
        verdict = folner_certificate(report, F(4, 64) + F(1, 64))
        assert report.max_defect == F(2, 64)
        assert verdict.passed
        assert verdict.mesh_ok is False  # mesh outcome is reported alongside

    def test_element_reports_have_no_mesh_outcome(self):
        verdict = folner_certificate(defect_elements({identity()}), F(10))
        assert verdict.mesh_max is None
        assert verdict.mesh_ok is None


class TestFamilyIO:
    def test_marked_round_trip(self):
        Z = z_family({0, 1, 2})
        kind, members = load_family_text("\n".join(family_to_lines(Z)))
        assert kind == "marked"
        assert frozenset(members) == Z

    def test_element_round_trip(self):
        A = frozenset({X0, X1, identity()})
        kind, members = load_family_text("\n".join(family_to_lines(A)))
        assert kind == "elements"
        assert frozenset(members) == A

    def test_mixed_kinds_rejected(self):
        lines = family_to_lines({GRID}) + family_to_lines({X0})
        with pytest.raises(MalformedInput):
            load_family_text("\n".join(lines))

    def test_empty_rejected(self):
        with pytest.raises(EmptyFamily):
            load_family_text("\n   \n")

    def test_deterministic_serialization(self):
        Z = z_family({3, 1, 2})
        assert family_to_lines(Z) == family_to_lines(sorted(Z, key=lambda X: X.points))
