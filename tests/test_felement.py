import random
from fractions import Fraction

import pytest

from thompsonf import (
    DyadicPartition,
    FElement,
    MarkedSet,
    PartitionPair,
    act_marked,
    act_partition,
    compose,
    f_of_partition,
    from_pair,
    generator_table,
    generators,
    i_n,
    identity,
    invert,
    is_standard,
    mesh,
    t_of,
    to_minimal_pair,
)
from thompsonf.errors import (
    CardinalityMismatch,
    DomainNotContained,
    InvalidElement,
    OutOfRange,
    TooFewPoints,
)
from thompsonf.verify import random_mesh_set, random_pair, random_refinement, random_word

from oracles import minimal_pair_by_enumeration, reduced_pair_equal, reduced_pair_key

F = Fraction
X0, X1, X0I, X1I = generators()


def pair_of(domain, codomain):
    return PartitionPair(
        DyadicPartition.from_strings(domain), DyadicPartition.from_strings(codomain)
    )


def slopes(f):
    return tuple((b2 - b1) / (a2 - a1) for (a1, b1), (a2, b2) in zip(f.breaks, f.breaks[1:]))


def word(names):
    out = identity()
    table = generator_table()
    for name in names:
        out = compose(out, table[name])
    return out


class TestConstruction:
    def test_from_pair_first_generator(self):
        f = from_pair(pair_of(["0", "1/2", "3/4", "1"], ["0", "1/4", "1/2", "1"]))
        assert f == X0
        assert slopes(f) == (F(1, 2), F(1), F(2))

    def test_from_pair_second_generator(self):
        f = from_pair(
            pair_of(["0", "1/2", "3/4", "7/8", "1"], ["0", "1/2", "5/8", "3/4", "1"])
        )
        assert f == X1
        assert slopes(f) == (F(1), F(1, 2), F(1), F(2))

    def test_from_pair_identity(self):
        assert from_pair(pair_of(["0", "1/2", "1"], ["0", "1/2", "1"])) == identity()

    def test_cardinality_mismatch(self):
        with pytest.raises(CardinalityMismatch):
            pair_of(["0", "1/2", "1"], ["0", "1/4", "1/2", "1"])

    def test_redundant_breakpoints_removed(self):
        f = FElement([(0, 0), (F(1, 4), F(1, 4)), (1, 1)])
        assert f == identity()
        assert len(f.breaks) == 2

    def test_rejects_non_dyadic(self):
        with pytest.raises(InvalidElement):
            FElement([(0, 0), (F(1, 3), F(1, 2)), (1, 1)])

    def test_rejects_bad_slope(self):
        # slope 3/2 on the first segment
        with pytest.raises(InvalidElement):
            FElement([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])

    def test_rejects_non_monotone(self):
        with pytest.raises(InvalidElement):
            FElement([(0, 0), (F(1, 2), F(3, 4)), (F(3, 4), F(1, 2)), (1, 1)])

    def test_rejects_missing_endpoints(self):
        with pytest.raises(InvalidElement):
            FElement([(F(1, 4), F(1, 4)), (1, 1)])

    def test_json_round_trip(self):
        data = X1.to_json_dict()
        assert data["breaks"][0] == ["0", "0"]
        assert FElement.from_json_dict(data) == X1

    @pytest.mark.parametrize(
        "data",
        [
            {"breaks": [["0"], ["1", "1"]]},
            {"breaks": [[0, 0], [1, 1]]},
            {"breaks": [["0", "0", "0"], ["1", "1"]]},
            {"breaks": ["00", "11"]},
            {"breaks": 5},
        ],
    )
    def test_json_malformed_breaks(self, data):
        with pytest.raises(InvalidElement):
            FElement.from_json_dict(data)


class TestApply:
    def test_last_segment(self):
        assert X0.apply(F(7, 8)) == F(3, 4)

    def test_fixed_endpoint(self):
        assert X0.apply(F(0)) == 0
        assert X0.apply(F(1)) == 1

    def test_identity_on_lower_half(self):
        assert X1.apply(F(1, 3)) == F(1, 3)

    def test_non_dyadic_argument(self):
        # marked sets may contain non-dyadic rationals; apply must be exact
        assert X0.apply(F(1, 3)) == F(1, 6)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            X0.apply(F(3, 2))

    def test_inverse_evaluation(self):
        rng = random.Random(7)
        for _ in range(50):
            t = F(rng.randint(0, 256), 256)
            assert X1.apply_inverse(X1.apply(t)) == t


class TestGroupOps:
    def test_compose_with_inverse(self):
        assert compose(X0, invert(X0)) == identity()

    def test_compose_identity(self):
        assert compose(identity(), X1) == X1
        assert compose(X1, identity()) == X1

    def test_invert_examples(self):
        assert invert(identity()) == identity()
        assert invert(invert(X1)) == X1
        assert invert(X0).apply(F(1, 2)) == F(3, 4)

    def test_inverse_is_swapped_pair(self):
        assert invert(X0) == from_pair(
            pair_of(["0", "1/4", "1/2", "1"], ["0", "1/2", "3/4", "1"])
        )

    def test_composition_pointwise_on_grid(self):
        rng = random.Random(8)
        for _ in range(25):
            f, g = word(random_word(rng, 6)), word(random_word(rng, 6))
            h = compose(g, f)
            for k in range(0, 65, 7):
                t = F(k, 64)
                assert h.apply(t) == g.apply(f.apply(t))

    @pytest.mark.parametrize("k", range(-9, 10))
    def test_power_is_repeated_composition(self, k):
        f = compose(X1, invert(X0))
        base = f if k >= 0 else invert(f)
        expected = identity()
        for _ in range(abs(k)):
            expected = compose(expected, base)
        assert f**k == expected

    def test_defining_relations(self):
        def comm(a, b):
            return compose(compose(invert(a), invert(b)), compose(a, b))

        u = compose(X0, invert(X1))
        assert comm(u, compose(compose(invert(X0), X1), X0)) == identity()
        assert comm(u, compose(compose(invert(X0) ** 2, X1), X0**2)) == identity()

    def test_group_axioms_random_words(self):
        rng = random.Random(9)
        for _ in range(100):
            a, b, c = (word(random_word(rng)) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))
            assert compose(a, invert(a)) == identity() == compose(invert(a), a)
            assert compose(a, identity()) == a == compose(identity(), a)

    def test_closure_of_invariants(self):
        # composition and inversion land on canonical forms that revalidate
        rng = random.Random(10)
        for _ in range(50):
            f = word(random_word(rng))
            assert FElement(f.breaks) == f
            assert FElement(invert(f).breaks) == invert(f)


class TestMinimalPair:
    def test_identity(self):
        pair = to_minimal_pair(identity())
        assert pair.domain.to_strings() == ["0", "1"]
        assert pair.range.to_strings() == ["0", "1"]

    def test_first_generator(self):
        pair = to_minimal_pair(X0)
        assert pair.domain.to_strings() == ["0", "1/2", "3/4", "1"]
        assert pair.range.to_strings() == ["0", "1/4", "1/2", "1"]

    def test_square_of_generator_vs_enumeration(self):
        f = compose(X0, X0)
        pair = to_minimal_pair(f)
        # frozen from the exhaustive depth<=3 search
        assert pair.domain.to_strings() == ["0", "1/2", "3/4", "7/8", "1"]
        assert pair.range.to_strings() == ["0", "1/8", "1/4", "1/2", "1"]
        oracle = minimal_pair_by_enumeration(f, 3)
        assert (oracle.domain.points, oracle.range.points) == (
            pair.domain.points,
            pair.range.points,
        )

    def test_round_trip_random_pairs(self):
        rng = random.Random(11)
        for _ in range(100):
            f = from_pair(random_pair(rng))
            assert from_pair(to_minimal_pair(f)) == f


class TestActions:
    def test_marked_translation_shift(self):
        X = MarkedSet([0, 1 - F(1, 8), 1])
        assert act_marked(X0, X) == MarkedSet([0, 1 - F(1, 4), 1])

    def test_marked_identity(self):
        X = MarkedSet([0, F(1, 3), F(7, 8), 1])
        assert act_marked(identity(), X) == X

    def test_marked_fixed_points(self):
        X = MarkedSet([0, F(1, 2), 1])
        assert act_marked(X1, X) == X

    def test_marked_right_side_uses_inverse(self):
        X = MarkedSet([0, F(3, 4), 1])
        assert act_marked(X0, X, side="right") == act_marked(invert(X0), X)
        assert len(act_marked(X0, X)) == len(X)

    def test_partition_action(self):
        T = DyadicPartition.from_strings(["0", "1/2", "3/4", "7/8", "1"])
        image = act_partition(X0, T)
        assert image.to_strings() == ["0", "1/4", "1/2", "3/4", "1"]

    def test_action_on_own_domain_gives_range(self):
        for g in generators():
            pair = to_minimal_pair(g)
            assert act_partition(g, pair.domain) == pair.range

    def test_partial_action_undefined(self):
        with pytest.raises(DomainNotContained):
            act_partition(X1, DyadicPartition([0, F(1, 2), 1]))

    def test_action_composition_law(self):
        rng = random.Random(12)
        table = generator_table()
        for _ in range(100):
            name = rng.choice(list(table))
            g = table[name]
            T = random_refinement(rng, to_minimal_pair(g).domain, 24)
            image = act_partition(g, T)
            assert is_standard(image)
            assert compose(g, f_of_partition(T)) == f_of_partition(image)

    def test_action_commutes_with_max_partition(self):
        rng = random.Random(13)
        for _ in range(100):
            X = random_mesh_set(rng)
            for g in generators():
                assert act_partition(g, t_of(X)) == t_of(act_marked(g, X))

    def test_composition_through_partition_action(self):
        T = i_n(2)
        lhs = compose(X0, f_of_partition(T))
        rhs = f_of_partition(act_partition(X0, T))
        assert act_partition(X0, T).to_strings() == ["0", "1/4", "1/2", "3/4", "1"]
        assert lhs == rhs == X0


class TestPartitionCorrespondence:
    def test_base_partition_is_identity(self):
        assert f_of_partition(i_n(1)) == identity()

    def test_generators_from_their_ranges(self):
        assert f_of_partition(DyadicPartition.from_strings(["0", "1/4", "1/2", "1"])) == X0
        assert (
            f_of_partition(DyadicPartition.from_strings(["0", "1/2", "5/8", "3/4", "1"]))
            == X1
        )

    def test_rejects_trivial_partition(self):
        with pytest.raises(TooFewPoints):
            f_of_partition(DyadicPartition([0, 1]))


class TestCanonicalKey:
    def test_identity_key_stable(self):
        assert identity().canonical_key == compose(X0, invert(X0)).canonical_key

    def test_generators_distinct(self):
        assert X0.canonical_key != X1.canonical_key

    def test_keys_agree_with_reduced_pairs_on_small_ball(self):
        from thompsonf import ball

        elements = sorted(ball(2), key=lambda f: f.canonical_key)
        keys = [f.canonical_key for f in elements]
        assert len(set(keys)) == len(elements)
        # independent canonicalization: reduced-pair equality
        pair_keys = {reduced_pair_key(f) for f in elements}
        assert len(pair_keys) == len(elements)
        for i, f in enumerate(elements):
            for g in elements[i + 1 :]:
                assert not reduced_pair_equal(f, g)
