import math

import numpy as np
import pytest

from kwise_kemeny import (
    BinomialPrefixTable,
    GuardError,
    Profile,
    Ranking,
    brute_force_consensus,
    build_dp_table,
    dp_consensus,
    enumerate_consensus,
    full_mask,
    mask_members,
    mask_of,
    placement_cost,
    profile_distance,
)
from kwise_kemeny.solver import solve_components
from conftest import random_profile


def triple_sum_placement_cost(subset, candidate, profile, k):
    """Definition-level oracle: sum binomials over each voter's restriction."""
    members = mask_members(subset)
    total = 0
    for ranking, count in profile.groups:
        restriction = [c for c in ranking.order if subset >> c & 1]
        rank_of = {c: i + 1 for i, c in enumerate(restriction)}
        for above in restriction[: rank_of[candidate] - 1]:
            pool = len(members) - rank_of[above] - 1
            total += count * sum(math.comb(pool, i) for i in range(k - 1))
    return total


def restricted_distance(order, subset, profile, k):
    """Distance of a subset ranking to the restricted profile."""
    members = mask_members(subset)
    if len(members) == 1:
        return 0
    dense = {c: i for i, c in enumerate(members)}
    sub_profile = profile.restrict(subset)
    sub_ranking = Ranking([dense[c] for c in order])
    return profile_distance(sub_ranking, sub_profile, min(k, len(members)))


class TestPlacementCost:
    def test_singleton_costs_nothing(self, tension_profile):
        table = BinomialPrefixTable(3, 3)
        assert placement_cost(mask_of([1]), 1, tension_profile, 3, table) == 0

    def test_pair_counts_opposing_voters(self, tension_profile):
        table = BinomialPrefixTable(3, 3)
        assert placement_cost(mask_of([0, 1]), 0, tension_profile, 3, table) == 51

    def test_full_set_value(self, tension_profile):
        table = BinomialPrefixTable(3, 3)
        subset = full_mask(3)
        value = placement_cost(subset, 0, tension_profile, 3, table)
        assert value == triple_sum_placement_cost(subset, 0, tension_profile, 3)
        assert value == 153

    def test_matches_oracle_randomly(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(2, 8))
            profile = random_profile(rng, m, int(rng.integers(1, 10)))
            k = int(rng.integers(2, m + 1))
            table = BinomialPrefixTable(m, k)
            subset = int(rng.integers(1, 1 << m))
            members = mask_members(subset)
            candidate = int(rng.choice(members))
            assert placement_cost(subset, candidate, profile, k, table) == (
                triple_sum_placement_cost(subset, candidate, profile, k)
            )

    def test_rejects_outsider(self, tension_profile):
        table = BinomialPrefixTable(3, 3)
        with pytest.raises(ValueError):
            placement_cost(mask_of([0, 1]), 2, tension_profile, 3, table)


class TestDecompositionIdentity:
    def test_cost_splits_off_top_candidate(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 60:
            m = int(rng.integers(3, 8))
            profile = random_profile(rng, m, int(rng.integers(2, 12)))
            k = int(rng.integers(2, m + 1))
            table = BinomialPrefixTable(m, k)
            subset = int(rng.integers(1, 1 << m))
            members = list(mask_members(subset))
            if len(members) < 2:
                continue
            rng.shuffle(members)
            top, rest = members[0], members[1:]
            total = restricted_distance(members, subset, profile, k)
            tail = restricted_distance(rest, subset ^ (1 << top), profile, k)
            cost = placement_cost(subset, top, profile, k, table)
            assert total == tail + cost
            checked += 1


class TestBruteForce:
    def test_tension_three_wise(self, tension_profile):
        result = brute_force_consensus(tension_profile, 3)
        assert result.optimum == 201
        assert [r.to_one_based() for r in result.rankings] == [(1, 2, 3)]
        assert result.count == 1

    def test_tension_pairwise(self, tension_profile):
        result = brute_force_consensus(tension_profile, 2)
        assert [r.to_one_based() for r in result.rankings] == [(2, 3, 1)]

    def test_unanimous(self):
        profile = Profile(4, [(Ranking([3, 1, 0, 2]), 5)])
        result = brute_force_consensus(profile, 4)
        assert result.optimum == 0
        assert result.rankings == (Ranking([3, 1, 0, 2]),)

    def test_guard(self):
        profile = Profile.from_rankings(9, [Ranking(range(9))])
        with pytest.raises(GuardError, match="m <= 8"):
            brute_force_consensus(profile, 2)

    def test_single_candidate(self):
        profile = Profile(1, [(Ranking([0]), 3)])
        result = brute_force_consensus(profile, 2)
        assert result.optimum == 0 and result.rankings[0].m == 1

    def test_optimum_matches_direct_scoring(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            profile = random_profile(rng, m, int(rng.integers(1, 8)))
            k = int(rng.integers(2, m + 1))
            result = brute_force_consensus(profile, k)
            import itertools

            best = min(
                profile_distance(Ranking(p), profile, k)
                for p in itertools.permutations(range(m))
            )
            assert result.optimum == best
            for ranking in result.rankings:
                assert profile_distance(ranking, profile, k) == best


class TestDpConsensus:
    def test_tension_three_wise(self, tension_profile):
        result = dp_consensus(tension_profile, 3)
        assert result.optimum == 201
        assert result.rankings[0].to_one_based() == (1, 2, 3)
        assert result.stats.states == 8

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            m = int(rng.integers(2, 8))
            profile = random_profile(rng, m, int(rng.integers(1, 12)))
            for k in range(2, m + 1):
                dp = dp_consensus(profile, k)
                brute = brute_force_consensus(profile, k)
                assert dp.optimum == brute.optimum
                assert dp.rankings[0] in brute.rankings

    def test_single_candidate(self):
        profile = Profile(1, [(Ranking([0]), 2)])
        assert dp_consensus(profile, 2).rankings[0] == Ranking([0])

    def test_m_cap(self):
        profile = Profile.from_rankings(31, [Ranking(range(31))])
        with pytest.raises(GuardError, match="cap"):
            dp_consensus(profile, 3)

    def test_k_validation(self, tension_profile):
        with pytest.raises(ValueError):
            dp_consensus(tension_profile, 1)
        with pytest.raises(ValueError):
            dp_consensus(tension_profile, 4)


class TestDpTableInvariants:
    def test_bellman_conditions(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            m = int(rng.integers(2, 7))
            profile = random_profile(rng, m, int(rng.integers(1, 9)))
            k = int(rng.integers(2, m + 1))
            prefix = BinomialPrefixTable(m, k)
            table = build_dp_table(profile, k)
            values, argmin = table.values, table.argmin
            assert values[0] == 0
            for state in range(1, 1 << m):
                best = None
                winners = 0
                for c in mask_members(state):
                    cost = placement_cost(state, c, profile, k, prefix)
                    total = values[state ^ (1 << c)] + cost
                    assert values[state] <= total
                    if best is None or total < best:
                        best, winners = total, 1 << c
                    elif total == best:
                        winners |= 1 << c
                assert values[state] == best
                assert int(argmin[state]) == winners

    def test_context_shifts_costs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = int(rng.integers(3, 8))
            profile = random_profile(rng, m, int(rng.integers(1, 9)))
            k = int(rng.integers(2, m + 1))
            prefix = BinomialPrefixTable(m, k)
            all_mask = full_mask(m)
            subset = int(rng.integers(1, 1 << m))
            context = int(rng.integers(0, 1 << m)) & ~subset
            table = build_dp_table(profile, k, subset=subset, context=context)
            local = mask_members(subset)
            state = int(rng.integers(1, 1 << len(local)))
            global_state = mask_of(local[j] for j in mask_members(state))
            j = mask_members(state)[0]
            cost = placement_cost(
                global_state, local[j], profile, k, prefix, context=context
            )
            rest = state ^ (1 << j)
            assert table.values[state] <= table.values[rest] + cost


class TestEnumerate:
    def test_unique_consensus(self, tension_profile):
        result = enumerate_consensus(tension_profile, 3)
        assert result.count == 1
        assert not result.truncated
        assert result.rankings[0].to_one_based() == (1, 2, 3)

    def test_opposite_pair_ties(self):
        profile = Profile.from_rankings(2, [Ranking([0, 1]), Ranking([1, 0])])
        result = enumerate_consensus(profile, 2)
        assert result.count == 2
        assert set(result.rankings) == {Ranking([0, 1]), Ranking([1, 0])}

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            m = int(rng.integers(2, 8))
            profile = random_profile(rng, m, int(rng.integers(1, 10)))
            k = int(rng.integers(2, m + 1))
            enum = enumerate_consensus(profile, k)
            brute = brute_force_consensus(profile, k)
            assert enum.count == brute.count
            assert set(enum.rankings) == set(brute.rankings)

    def test_truncation(self):
        # two opposite voters make every ranking optimal at k = 2
        profile = Profile.from_rankings(
            4, [Ranking([0, 1, 2, 3]), Ranking([3, 2, 1, 0])]
        )
        result = enumerate_consensus(profile, 2, limit=10)
        assert result.count == 24
        assert result.truncated
        assert len(result.rankings) == 10
        full = enumerate_consensus(profile, 2, limit=100)
        assert not full.truncated
        assert len(full.rankings) == 24

    def test_limit_validation(self, tension_profile):
        with pytest.raises(ValueError):
            enumerate_consensus(tension_profile, 2, limit=0)


class TestSolveComponents:
    def test_dp_reports_first_enumerated_order(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            m = int(rng.integers(2, 8))
            profile = random_profile(rng, m, int(rng.integers(1, 10)))
            k = int(rng.integers(2, m + 1))
            plain = dp_consensus(profile, k)
            first = enumerate_consensus(profile, k, limit=1)
            assert plain.rankings == first.rankings
            assert (plain.count, plain.truncated) == (1, False)
            assert first.truncated == (first.count > 1)

    def test_largest_component_recorded(self, six_profile):
        assert dp_consensus(six_profile, 3).stats.largest_component == 6
        pieces = (mask_of([0, 1]), mask_of([2, 3, 4]), mask_of([5]))
        result = solve_components(six_profile, 3, pieces)
        assert result.stats.largest_component == 3
        assert result.stats.states == 4 + 8 + 2

    def test_component_guard_messages(self):
        profile = Profile.from_rankings(32, [Ranking(range(32))])
        with pytest.raises(GuardError, match="component of size 31"):
            solve_components(profile, 3, (full_mask(31), 1 << 31))
        with pytest.raises(GuardError, match="m=32 exceeds the 2\\^m state cap"):
            solve_components(profile, 3, (full_mask(32),))

    def test_limit_validation(self, six_profile):
        with pytest.raises(ValueError, match="limit"):
            solve_components(six_profile, 3, (full_mask(6),), limit=0)
