import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kwise_kemeny import (
    BinomialPrefixTable,
    GuardError,
    Ranking,
    kendall_tau,
    kwise_distance,
    position_weighted_kendall_tau,
    profile_distance,
)
from oracles import kwise_distance_naive

R1 = Ranking([0, 1, 2])
R2 = Ranking([0, 2, 1])
R3 = Ranking([1, 0, 2])


def ranking_pairs(max_m=9):
    return st.integers(2, max_m).flatmap(
        lambda m: st.tuples(
            st.permutations(range(m)).map(Ranking),
            st.permutations(range(m)).map(Ranking),
        )
    )


class TestBinomialPrefixTable:
    @pytest.mark.parametrize("m", [2, 5, 12, 20])
    def test_matches_direct_binomials(self, m):
        for k in range(2, m + 1):
            table = BinomialPrefixTable(m, k)
            for p in range(m - 1):
                expected = sum(math.comb(p, i) for i in range(k - 1))
                assert table.prefix_below(p) == expected

    def test_validates_k(self):
        with pytest.raises(ValueError):
            BinomialPrefixTable(5, 1)
        with pytest.raises(ValueError):
            BinomialPrefixTable(5, 6)


class TestKendallTau:
    def test_identical_is_zero(self):
        assert kendall_tau(R1, R1) == 0

    def test_adjacent_swap(self):
        assert kendall_tau(R1, R3) == 1
        assert kendall_tau(R1, R2) == 1

    def test_reverse_is_all_pairs(self):
        r = Ranking(range(6))
        assert kendall_tau(r, Ranking(r.order[::-1])) == 6 * 5 // 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau(R1, Ranking([0, 1]))


class TestKwiseDistance:
    def test_three_candidate_values(self):
        table = BinomialPrefixTable(3, 3)
        assert kwise_distance(R1, R2, 3, table) == 1
        assert kwise_distance(R1, R3, 3, table) == 2
        assert kwise_distance_naive(R1, R2, 3) == 1
        assert kwise_distance_naive(R1, R3, 3) == 2

    def test_self_distance_is_zero(self):
        for k in (2, 3):
            assert kwise_distance_naive(R1, R1, k) == 0

    def test_exhaustive_small(self):
        import itertools

        m = 4
        tables = {k: BinomialPrefixTable(m, k) for k in range(2, m + 1)}
        for a in itertools.permutations(range(m)):
            ra = Ranking(a)
            for b in itertools.permutations(range(m)):
                rb = Ranking(b)
                for k in range(2, m + 1):
                    assert kwise_distance(ra, rb, k, tables[k]) == (
                        kwise_distance_naive(ra, rb, k)
                    )

    @settings(max_examples=120)
    @given(st.data())
    def test_matches_naive(self, data):
        r, r2 = data.draw(ranking_pairs(max_m=7))
        k = data.draw(st.integers(2, r.m))
        table = BinomialPrefixTable(r.m, k)
        assert kwise_distance(r, r2, k, table) == kwise_distance_naive(r, r2, k)

    def test_matches_naive_at_larger_m(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            m = int(rng.integers(8, 13))
            k = int(rng.integers(2, 6))  # naive budget allows m <= 20 here
            r, r2 = Ranking(rng.permutation(m)), Ranking(rng.permutation(m))
            table = BinomialPrefixTable(m, k)
            assert kwise_distance(r, r2, k, table) == kwise_distance_naive(r, r2, k)

    @settings(max_examples=150)
    @given(ranking_pairs(max_m=12))
    def test_k2_equals_kendall_tau(self, pair):
        r, r2 = pair
        table = BinomialPrefixTable(r.m, 2)
        assert kwise_distance(r, r2, 2, table) == kendall_tau(r, r2)

    @settings(max_examples=80)
    @given(st.data())
    def test_monotone_in_k(self, data):
        r, r2 = data.draw(ranking_pairs(max_m=8))
        values = [
            kwise_distance(r, r2, k, BinomialPrefixTable(r.m, k))
            for k in range(2, r.m + 1)
        ]
        assert values == sorted(values)

    def test_table_mismatch_rejected(self):
        table = BinomialPrefixTable(3, 2)
        with pytest.raises(ValueError, match="table"):
            kwise_distance(R1, R2, 3, table)

    def test_naive_budget_guard(self):
        big = Ranking(range(21))
        with pytest.raises(GuardError, match="m <= 20"):
            kwise_distance_naive(big, big, 3)
        mid = Ranking(range(16))
        with pytest.raises(GuardError, match="m <= 15"):
            kwise_distance_naive(mid, mid, 6)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            kwise_distance_naive(R1, R2, 4)
        with pytest.raises(ValueError):
            kwise_distance_naive(R1, R2, 1)


class TestMetricAxioms:
    def test_random_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            m = int(rng.integers(2, 11))
            k = int(rng.integers(2, m + 1))
            table = BinomialPrefixTable(m, k)
            a, b, c = (Ranking(rng.permutation(m)) for _ in range(3))
            dab = kwise_distance(a, b, k, table)
            dba = kwise_distance(b, a, k, table)
            dac = kwise_distance(a, c, k, table)
            dbc = kwise_distance(b, c, k, table)
            assert dab >= 0
            assert dab == dba
            assert (dab == 0) == (a == b)
            assert dac <= dab + dbc


class TestProfileDistance:
    def test_tension_profile_values(self, tension_profile):
        assert profile_distance(R1, tension_profile, 3) == 201
        assert profile_distance(R1, tension_profile, 2) == 150

    def test_unanimous_profile(self):
        from kwise_kemeny import Profile

        p = Profile(4, [(Ranking([2, 0, 3, 1]), 9)])
        assert profile_distance(Ranking([2, 0, 3, 1]), p, 3) == 0

    def test_dimension_mismatch(self, tension_profile):
        with pytest.raises(ValueError):
            profile_distance(Ranking([0, 1]), tension_profile, 2)


class TestPositionWeighted:
    def test_uniform_weights_reduce_to_kendall(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            r, r2 = Ranking(rng.permutation(m)), Ranking(rng.permutation(m))
            value = position_weighted_kendall_tau(r, r2, [1.0] * m)
            assert value == pytest.approx(kendall_tau(r, r2))

    def test_sqrt2_counterexample(self):
        weights = (1.0, math.sqrt(2.0), 1.0)
        value = position_weighted_kendall_tau(
            Ranking([0, 1, 2]), Ranking([2, 0, 1]), weights
        )
        expected = (1 + math.sqrt(2.0)) * (math.sqrt(2.0) + 1) / 2
        assert abs(value - expected) < 1e-9
        # strictly below the 3-wise distance of the same pair (which is 3)
        assert value != 3

    def test_self_distance(self):
        assert position_weighted_kendall_tau(R1, R1, [1.0, 2.0, 0.5]) == 0.0

    def test_validates_weights(self):
        with pytest.raises(ValueError):
            position_weighted_kendall_tau(R1, R2, [1.0, 1.0])
        with pytest.raises(ValueError):
            position_weighted_kendall_tau(R1, R2, [2.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            position_weighted_kendall_tau(R1, R2, [1.0, -1.0, 1.0])

    def test_zero_displacement_uses_position_weight(self):
        # c2 sits at position 2 in both rankings but belongs to two
        # discordant pairs, so its cost falls back to the weight there.
        # Hand evaluation with w=(1,5,1,1), prefix sums (1,6,7,8):
        # cost(c1)=7/3, cost(c2)=5, cost(c3)=3, cost(c4)=1; discordant
        # pairs {c1,c2},{c1,c3},{c1,c4},{c2,c3} give 35/3+7+7/3+15 = 36.
        value = position_weighted_kendall_tau(
            Ranking([0, 1, 2, 3]), Ranking([2, 1, 3, 0]), [1.0, 5.0, 1.0, 1.0]
        )
        assert value == pytest.approx(36.0)
