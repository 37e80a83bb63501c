import random
from fractions import Fraction

import pytest

from thompsonf import (
    DyadicPartition,
    FiniteMeasure,
    IntervalChain,
    act_partition,
    ball,
    ball_with_witnesses,
    compose,
    defect_elements,
    evaluate_word,
    generators,
    i_n,
    identity,
    invariance_defect,
    invert,
    monotonicity_mass,
    tower,
    tower_check,
)
from thompsonf.errors import (
    InvalidChain,
    InvalidMeasure,
    OutOfRange,
    RadiusTooLarge,
    TowerTooTall,
)

from oracles import word_ball_size

F = Fraction
X0, X1, X0I, X1I = generators()


class TestTower:
    def test_values(self):
        assert [tower(n) for n in range(6)] == [0, 1, 2, 4, 16, 65536]

    def test_height_six(self):
        assert tower(6) == 2**65536

    def test_recurrence_and_monotonicity(self):
        for n in range(1, 6):
            assert tower(n + 1) == 2 ** tower(n)
            assert tower(n + 1) > tower(n)

    def test_refuses_height_seven(self):
        with pytest.raises(TowerTooTall):
            tower(7)

    def test_refuses_negative(self):
        with pytest.raises(OutOfRange):
            tower(-1)


class TestTowerCheck:
    def test_large_defect_clamps_to_zero(self):
        verdict = tower_check(1, F(2), F(3, 2))
        assert verdict.n == 0
        assert verdict.bound == 0
        assert verdict.consistent

    def test_exact_power_boundary(self):
        c = F(2)
        verdict = tower_check(10, 1 / c**3, c)
        assert verdict.n == 3
        assert verdict.bound == 4
        assert verdict.consistent

    def test_inconsistent_set_flagged(self):
        verdict = tower_check(3, F(1, 8), F(2))
        assert verdict.n == 3 and verdict.bound == 4
        assert not verdict.consistent

    def test_preconditions(self):
        with pytest.raises(OutOfRange):
            tower_check(5, F(0), F(2))
        with pytest.raises(OutOfRange):
            tower_check(5, F(1, 2), F(1))

    def test_microscopic_defect_refused(self):
        with pytest.raises(TowerTooTall):
            tower_check(10, F(1, 2**100), F(2))

    def test_json_uses_string_bound(self):
        doc = tower_check(20, F(1, 16), F(2)).to_json_dict()
        assert doc == {"n": 4, "bound": "16", "observed_size": 20, "consistent": True}


def point_mass(points):
    return FiniteMeasure(((DyadicPartition(points), F(1)),))


class TestMeasureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidMeasure):
            FiniteMeasure(((i_n(1), F(1, 2)),))

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidMeasure):
            FiniteMeasure(((i_n(1), F(3, 2)), (i_n(2), F(-1, 2))))

    def test_duplicate_support_rejected(self):
        with pytest.raises(InvalidMeasure):
            FiniteMeasure(((i_n(1), F(1, 2)), (i_n(1), F(1, 2))))

    def test_json_round_trip(self):
        mu = FiniteMeasure(((i_n(1), F(1, 4)), (i_n(2), F(3, 4))))
        assert FiniteMeasure.from_json_list(mu.to_json_list()) == mu


class TestChainValidation:
    def test_must_start_after_zero(self):
        with pytest.raises(InvalidChain):
            IntervalChain(((F(0), F(1, 4)),))

    def test_must_end_before_one(self):
        with pytest.raises(InvalidChain):
            IntervalChain(((F(1, 4), F(1)),))

    def test_must_be_separated(self):
        with pytest.raises(InvalidChain):
            IntervalChain(((F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))))

    def test_json_round_trip(self):
        chain = IntervalChain(((F(1, 4), F(3, 8)), (F(5, 8), F(7, 8))))
        assert IntervalChain.from_json_list(chain.to_json_list()) == chain


class TestMonotonicityMass:
    CHAIN = IntervalChain(((F(1, 4), F(3, 8)), (F(5, 8), F(7, 8))))

    def test_flat_counts_do_not_count(self):
        mu = point_mass([0, F(1, 2), 1])
        assert monotonicity_mass(mu, self.CHAIN) == 0

    def test_strictly_increasing_counts(self):
        mu = point_mass([0, F(1, 2), F(3, 4), F(7, 8), 1])
        chain = IntervalChain(((F(1, 4), F(3, 8)), (F(5, 8), F(15, 16))))
        assert monotonicity_mass(mu, chain) == 1

    def test_needs_two_intervals(self):
        with pytest.raises(InvalidChain):
            monotonicity_mass(point_mass([0, 1]), IntervalChain(((F(1, 4), F(1, 2)),)))

    def test_additive_over_support(self):
        parts = [
            DyadicPartition([0, F(1, 2), 1]),
            DyadicPartition([0, F(1, 2), F(3, 4), F(7, 8), 1]),
            DyadicPartition([0, F(1, 4), F(1, 2), 1]),
        ]
        weights = [F(1, 2), F(1, 3), F(1, 6)]
        mu = FiniteMeasure(tuple(zip(parts, weights)))
        total = monotonicity_mass(mu, self.CHAIN)
        split = sum(
            w if monotonicity_mass(point_mass(T.points), self.CHAIN) == 1 else F(0)
            for T, w in zip(parts, weights)
        )
        assert total == split

    def test_mass_in_unit_interval(self):
        from thompsonf.verify import random_standard_partition

        rng = random.Random(41)
        for _ in range(10):
            parts = list({random_standard_partition(rng) for _ in range(3)})
            weights = [F(1, len(parts))] * len(parts)
            mu = FiniteMeasure(tuple(zip(parts, weights)))
            mass = monotonicity_mass(mu, self.CHAIN)
            assert 0 <= mass <= 1


class TestInvarianceDefect:
    def test_identity_never_moves_mass(self):
        mu = FiniteMeasure(((i_n(1), F(1, 2)), (i_n(4), F(1, 2))))
        assert invariance_defect(mu, identity()) == 0

    def test_wholly_undefined_support(self):
        mu = point_mass([0, F(1, 2), 1])
        assert invariance_defect(mu, X1) == 1

    def test_two_point_orbit(self):
        # explicit pushforward table: {T: 1/2, gT: 1/2} maps to
        # {gT: 1/2, ggT: 1/2}, total variation 1/2
        T = i_n(2)
        gT = act_partition(X0, T)
        assert act_partition(X0, gT) not in (T, gT)
        mu = FiniteMeasure(((T, F(1, 2)), (gT, F(1, 2))))
        assert invariance_defect(mu, X0) == F(1, 2)


class TestBall:
    def test_radius_zero(self):
        assert ball(0) == frozenset({identity()})

    def test_radius_one(self):
        assert len(ball(1)) == 5
        assert ball(1) == frozenset({identity(), X0, X1, X0I, X1I})

    def test_radius_two_matches_word_oracle(self):
        assert len(ball(2)) == word_ball_size(2)

    def test_nondecreasing_and_closed_under_inversion(self):
        sizes = []
        for r in range(4):
            B = ball(r)
            sizes.append(len(B))
            assert all(invert(f) in B for f in B)
        assert sizes == sorted(sizes)

    def test_witness_words_evaluate_back(self):
        for f, word in ball_with_witnesses(3).items():
            assert len(word) <= 3
            assert evaluate_word(word) == f

    def test_radius_limit(self):
        with pytest.raises(RadiusTooLarge):
            ball(9)
        with pytest.raises(RadiusTooLarge, match="radius 9 exceeds the limit 8"):
            ball_with_witnesses(9)

    def test_negative_radius(self):
        with pytest.raises(OutOfRange):
            ball(-1)

    def test_ball_defect_feeds_tower_check(self):
        B = ball(3)
        report = defect_elements(B)
        assert report.max_defect > 0
        verdict = tower_check(len(B), report.max_defect, F(2))
        assert verdict.consistent
