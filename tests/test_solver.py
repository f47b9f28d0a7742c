import gc
import hashlib
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    profile_distance,
)
from kwise_kemeny.core import PairCounts
from kwise_kemeny.majority import solve
from kwise_kemeny.sampling import MallowsParams, mallows_sample
from kwise_kemeny import solver
from kwise_kemeny.solver import (
    DpTable,
    _layered_min,
    _layers,
    _moment_costs,
    _subset_sum_costs,
    count_table_optima,
    enumerate_table_orders,
    solve_components,
)
from conftest import argmin_sets, mask_of, random_profile, restrict_profile
from oracles import (
    binary_costs,
    binary_moment_costs,
    block_costs,
    dense_subset_sum_costs,
    from_rankings,
    second_walk_count,
)


# SHA-256 of the dtype, shape and bytes of the predecessor ranks and the
# states of every layer of _blocks(nloc, min(nloc, _SMALL_PLAN)) for nloc
# 1-22, in order
BLOCKS_SHA256 = "dd6dce1d27a877080f4db25408c8bce85df13a2fbf2c6af8f055c73cbfbd5e12"


def placement_cost(subset, candidate, profile, k, table, context=0):
    """Cost of ranking ``candidate`` first among ``subset`` (plus context),
    by one scan of each voter group: the scalar reference for the cost rows.

    Sums, over every voter and every candidate c' that the voter prefers to
    ``candidate`` within the restriction, the number of subsets of size at
    most k that ``candidate`` would top while the voter tops them with c'.
    """
    if not subset >> candidate & 1:
        raise ValueError(f"candidate {candidate} not in subset")
    if subset & context:
        raise ValueError("subset and context must be disjoint")
    pool = subset | context
    s = pool.bit_count()
    total = 0
    for ranking, count in profile.groups:
        acc = 0
        position = 0  # 1-based rank within the restriction
        for x in ranking.order:
            if not pool >> x & 1:
                continue
            position += 1
            if x == candidate:
                break
            acc += table.prefix_below(s - position - 1)
        total += count * acc
    return total


def weighted_profile(rng, m, groups):
    """Random rankings with multiplicities above one."""
    return Profile(m, [
        (Ranking(rng.permutation(m)), int(rng.integers(2, 6)))
        for _ in range(groups)
    ])


def random_piece(rng, m):
    """A non-empty subset and a disjoint context."""
    subset = int(rng.integers(1, 1 << m))
    return subset, int(rng.integers(0, 1 << m)) & ~subset


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


def held_karp(profile, k, subset, context):
    """Plain-Python subset DP over ``placement_cost``: values and argmin
    sets indexed like ``DpTable`` (bit j stands for the j-th member)."""
    local = mask_members(subset)
    prefix = BinomialPrefixTable(profile.m, k)
    values, argmin = [0], [0]
    for state in range(1, 1 << len(local)):
        members = mask_members(state)
        pool = mask_of(local[j] for j in members)
        totals = {
            j: values[state ^ 1 << j]
            + placement_cost(pool, local[j], profile, k, prefix, context)
            for j in members
        }
        best = min(totals.values())
        values.append(best)
        argmin.append(mask_of(j for j, total in totals.items() if total == best))
    return values, argmin


def packed(rest, j):
    """``rest`` (a state without member j) as an index of cost row j."""
    return rest & ((1 << j) - 1) | rest >> (j + 1) << j


def table_held_karp(cost):
    """Plain-Python subset DP over a cost table (row j indexed by the other
    members, packed): values and argmin sets indexed like ``DpTable``."""
    values, argmin = [0], [0]
    for state in range(1, 1 << cost.shape[0]):
        totals = {
            j: values[state ^ 1 << j] + int(cost[j, packed(state ^ 1 << j, j)])
            for j in mask_members(state)
        }
        best = min(totals.values())
        values.append(best)
        argmin.append(mask_of(j for j, total in totals.items() if total == best))
    return values, argmin


def count_orders(argmin):
    """Optimal orders encoded by argmin sets, one state at a time (the
    reference for ``count_table_optima``)."""
    counts = [1] + [0] * (len(argmin) - 1)
    for state in range(1, len(argmin)):
        choices = int(argmin[state])
        while choices:
            low = choices & -choices
            counts[state] += counts[state ^ low]
            choices ^= low
    return counts[-1]


def random_cost_table(rng, nloc, levels):
    """Cost rows drawn from ``levels`` small values: few levels, many ties."""
    return rng.integers(0, levels, (nloc, 1 << (nloc - 1))).astype(np.int32)


def restricted_distance(order, subset, profile, k):
    """Distance of a subset ranking to the restricted profile."""
    members = mask_members(subset)
    if len(members) == 1:
        return 0
    dense = {c: i for i, c in enumerate(members)}
    sub_profile = restrict_profile(profile, subset)
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
        profile = from_rankings(9, [Ranking(range(9))])
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
        profile = from_rankings(31, [Ranking(range(31))])
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
            values = table.values
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
                assert table.choices(state) == winners

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

    def test_layer_slices_leave_table_unchanged(self, monkeypatch):
        # tier-1 sizes fit a layer in one slice; split layers into many
        rng = np.random.default_rng(18)
        for m, k in ((9, 3), (11, 5)):
            profile = weighted_profile(rng, m, 6)
            whole = build_dp_table(profile, k)
            monkeypatch.setattr(solver, "_LAYER_SLICE", 7)
            sliced = build_dp_table(profile, k)
            sliced_count = count_table_optima(sliced)
            monkeypatch.undo()
            assert np.array_equal(sliced.values, whole.values)
            assert argmin_sets(sliced) == argmin_sets(whole)
            assert sliced_count == count_table_optima(whole)


class TestTableMemory:
    def test_build_peak_at_m16(self):
        # cost table and values, plus 1 MiB of slice temporaries: no plan
        # buffers, no argmin table; counting is allowed two int64 rows of
        # the widest layer's counts
        m = 16
        profile = mallows_sample(MallowsParams(Ranking.identity(m), 1.0, 50, 1))
        entries = (m << (m - 1)) + (1 << m)
        for k in (2, 3, m):
            build_dp_table(profile, k)  # caches filled outside the measure
            for counted in (False, True):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    table = build_dp_table(profile, k)
                    if counted:
                        count_table_optima(table)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                assert table.values.dtype == np.int32
                counts = 2 * 8 * math.comb(m, m // 2) if counted else 0
                assert peak <= 4 * entries + counts + (1 << 20)

    @pytest.mark.parametrize("m", [14, 18, 20])
    def test_builder_temporaries(self, m):
        # the temporaries of the k <= 3 builder and of the k = m product
        # route stay within _BUFFER_BYTES, the working set of the k >= 4
        # passes, well below the table: a table-sized temporary makes the
        # heap page-fault in again between solves; at m = 18 and 20 the
        # product route has cross-group sweeps
        profile = mallows_sample(MallowsParams(Ranking.identity(m), 1.0, 50, 1))
        counts = PairCounts(profile)
        for k, build in ((2, _moment_costs), (3, _moment_costs), (m, _subset_sum_costs)):
            args = (counts, k, tuple(range(m)), 0, np.int32)
            build(*args)  # caches filled outside the measure
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                table = build(*args)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak - table.nbytes <= solver._BUFFER_BYTES


class TestColexWalk:
    def test_plans_follow_definitions(self):
        for nloc in range(1, 12):
            colex = sorted(range(1 << nloc), key=lambda s: mask_members(s)[::-1])
            layers = [[s for s in colex if s.bit_count() == level]
                      for level in range(nloc + 1)]
            rank = [{s: r for r, s in enumerate(layer)} for layer in layers]
            for level, (states, rows) in enumerate(_layers(nloc), 1):
                assert states.tolist() == layers[level]
                assert len(rows) == 2
                previous, member = rows
                assert previous.shape == member.shape == (level, len(states))
                for i, state in enumerate(layers[level]):
                    for slot, j in enumerate(mask_members(state)):
                        rest = state ^ 1 << j
                        assert previous[slot, i] == rank[level - 1][rest]
                        assert member[slot, i] == j

    def test_matches_held_karp(self):
        rng = np.random.default_rng(51)
        for trial in range(24):
            m = int(rng.integers(2, 10))
            profile = weighted_profile(rng, m, int(rng.integers(1, 5)))
            subset, context = random_piece(rng, m)
            if trial % 4 == 0:
                subset, context = full_mask(m), 0
            for k in range(2, m + 1):
                table = build_dp_table(profile, k, subset, context)
                values, argmin = held_karp(profile, k, subset, context)
                assert table.values.tolist() == values
                assert argmin_sets(table) == argmin

    def test_ties_match_held_karp(self):
        # few voters in opposite orders leave many tied placements
        rng = np.random.default_rng(52)
        for m in (4, 7, 9):
            order = rng.permutation(m)
            profile = Profile(m, [(Ranking(order), 2), (Ranking(order[::-1]), 2)])
            for k in (2, 3, m):
                table = build_dp_table(profile, k)
                values, argmin = held_karp(profile, k, full_mask(m), 0)
                assert table.values.tolist() == values
                assert argmin_sets(table) == argmin
                assert count_table_optima(table) == count_orders(argmin)


class TestBlockWalk:
    """Tables wider than the walk's 10-bit low part, whose blocks have rows
    (high bits), against the state loops: tie-heavy pieces with contexts,
    high parts wider than the low part and blocks split into slices."""

    @staticmethod
    def piece(rng, m, nloc):
        """A subset of ``nloc`` of the m candidates and a random context."""
        subset = mask_of(rng.choice(m, nloc, replace=False).tolist())
        return subset, int(rng.integers(0, 1 << m)) & ~subset

    @staticmethod
    def check(cost, nloc):
        """The walk and the optimum count over binary cost rows against the
        state loop."""
        values, argmin = table_held_karp(cost)
        expected = count_orders(argmin)
        block = block_costs(cost)
        walked = _layered_min(block, nloc)
        table = DpTable(tuple(range(nloc)), 0, block, walked)
        assert walked.tolist() == values
        assert argmin_sets(table) == argmin
        assert count_table_optima(table) == expected

    @pytest.mark.parametrize("nloc", [11, 12, 13])
    def test_matches_held_karp(self, nloc):
        rng = np.random.default_rng(70 + nloc)
        m = nloc + 2
        profile = weighted_profile(rng, m, 3)
        for k in (2, 3, m):
            subset, context = self.piece(rng, m, nloc)
            values, argmin = held_karp(profile, k, subset, context)
            table = build_dp_table(profile, k, subset, context)
            assert table.values.tolist() == values
            assert argmin_sets(table) == argmin
            assert count_table_optima(table) == count_orders(argmin)

    def test_matches_table_held_karp_at_14(self):
        rng = np.random.default_rng(74)
        order = rng.permutation(16)
        profile = Profile(16, [(Ranking(order), 2), (Ranking(order[::-1]), 3)])
        for k in (2, 3):
            subset, context = self.piece(rng, 16, 14)
            self.check(binary_costs(build_dp_table(profile, k, subset, context)), 14)

    @pytest.mark.parametrize("nloc", [7, 9, 12])
    def test_generated_high_plans(self, monkeypatch, nloc):
        # production tables have a high part wider than the low part only
        # past 2 * _SMALL_PLAN bits
        monkeypatch.setattr(solver, "_SMALL_PLAN", 3)
        rng = np.random.default_rng(75 + nloc)
        for levels in (2, 5):
            self.check(random_cost_table(rng, nloc, levels), nloc)

    def test_blocks_pinned(self):
        # the predecessor ranks and states of the block plans of nloc
        # 1-22, byte for byte
        digest = hashlib.sha256()
        for nloc in range(1, 23):
            for part in solver._blocks(nloc, min(nloc, solver._SMALL_PLAN)):
                for layer in part:
                    for array in (layer[0], layer[-1]):
                        if array is not None:
                            digest.update(f"{array.dtype.str} {array.shape}".encode())
                            digest.update(array.tobytes())
        assert digest.hexdigest() == BLOCKS_SHA256

    def test_sliced_blocks(self, monkeypatch):
        # three high bits: blocks of up to three rows, one row per slice
        # wherever a row holds more than seven states
        rng = np.random.default_rng(76)
        profile = weighted_profile(rng, 13, 4)
        for k in (3, 5):
            whole = build_dp_table(profile, k)
            monkeypatch.setattr(solver, "_LAYER_SLICE", 7)
            sliced = build_dp_table(profile, k)
            sliced_count = count_table_optima(sliced)
            monkeypatch.undo()
            assert np.array_equal(sliced.values, whole.values)
            assert argmin_sets(sliced) == argmin_sets(whole)
            assert sliced_count == count_table_optima(whole)
            self.check(binary_costs(whole), 13)


class TestCountInWalk:
    """The optimum count (over tight states, or by the tally pass where
    layers fill up) against the second-walk oracle and the state loop, on
    tie-heavy profiles: tables of one block row (<= 10 candidates) and
    blocks with high bits."""

    @staticmethod
    def check(m, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(m)
        profile = Profile(m, [(Ranking(order), 2), (Ranking(order[::-1]), 2)])
        for k in (2, 3, m):
            table = build_dp_table(profile, k)
            values, argmin = table_held_karp(binary_costs(table))
            assert table.values.tolist() == values
            assert argmin_sets(table) == argmin
            expected = count_orders(argmin)
            if k == 2:  # every pair is split evenly: all m! orders are optimal
                assert expected == math.factorial(m)
            assert count_table_optima(table) == expected
            assert second_walk_count(table) == expected
            assert enumerate_consensus(profile, k, 1).count == expected

    @pytest.mark.parametrize("m", [4, 7, 9, 11, 13, 14])
    def test_matches_oracle(self, m):
        self.check(m, 80 + m)

    @pytest.mark.parametrize("m", [4, 9, 11, 14])
    def test_exact_ints_in_walk(self, monkeypatch, m):
        monkeypatch.setattr(solver, "_INT64_COUNTS", 2)
        self.check(m, 90 + m)


class TestCountOptima:
    """The optimum count over random tie-heavy cost tables (tight states,
    or the tally pass where layers fill up) against the state loop over
    the table's argmin sets."""

    @staticmethod
    def check(cost):
        nloc = cost.shape[0]
        values, argmin = table_held_karp(cost)
        expected = count_orders(argmin)
        block = block_costs(cost)
        table = DpTable(tuple(range(nloc)), 0, block, _layered_min(block, nloc))
        assert table.values.tolist() == values and argmin_sets(table) == argmin
        assert count_table_optima(table) == expected
        return expected

    def test_matches_state_loop(self):
        rng = np.random.default_rng(61)
        for nloc in range(1, 13):
            for levels in (2, 4):
                self.check(random_cost_table(rng, nloc, levels))

    def test_every_member_optimal(self, monkeypatch):
        # zero costs: every order is optimal, nloc! of them; a low bound
        # moves the later layers to exact Python ints
        for nloc in (1, 5, 9, 12):
            cost = np.zeros((nloc, 1 << (nloc - 1)), np.int32)
            assert self.check(cost) == math.factorial(nloc)
            monkeypatch.setattr(solver, "_INT64_COUNTS", 1 << 10)
            assert self.check(cost) == math.factorial(nloc)
            monkeypatch.undo()

    def test_wide_route_matches_state_loop(self, monkeypatch):
        monkeypatch.setattr(solver, "_INT64_COUNTS", 2)
        rng = np.random.default_rng(62)
        for nloc in (3, 8, 11):
            self.check(random_cost_table(rng, nloc, 2))


class TestCountParity:
    """The optimum count over tight states and by the tally pass (the
    budget patched to 0: every table tallies; to a huge value: none does)
    against the second-walk oracle, and against brute force on whole
    tables of at most 8 candidates."""

    @staticmethod
    def check(monkeypatch, table, brute=None):
        expected = second_walk_count(table)
        if brute is not None:
            assert expected == brute
        for budget in (0, 1 << 40):
            monkeypatch.setattr(solver, "_TIGHT_BUDGET", budget)
            assert count_table_optima(table) == expected
        monkeypatch.undo()
        return expected

    @pytest.mark.parametrize("m", [5, 7, 12, 16])
    def test_mallows(self, monkeypatch, m):
        rng = np.random.default_rng(120 + m)
        for phi in (0.5, 0.8, 1.0):
            profile = mallows_sample(MallowsParams(Ranking.identity(m), phi, 15, m))
            for k in sorted({2, 3, 4, m}):
                brute = brute_force_consensus(profile, k).count if m <= 8 else None
                self.check(monkeypatch, build_dp_table(profile, k), brute)
                subset, context = TestBlockWalk.piece(rng, m, m - 2)
                self.check(monkeypatch, build_dp_table(profile, k, subset, context))

    @pytest.mark.parametrize("m", [8, 12, 14])
    def test_reversed_ballots(self, monkeypatch, m):
        # at k = 2 every order ties, so the layers fill up: the wide route
        profile = Profile(m, [(Ranking(range(m)), 1), (Ranking(range(m)[::-1]), 1)])
        for k in (2, 3):
            brute = brute_force_consensus(profile, k).count if m <= 8 else None
            table = build_dp_table(profile, k)
            expected = self.check(monkeypatch, table, brute)
            assert count_table_optima(table) == expected
            if k == 2:
                assert expected == math.factorial(m)
                # the tally pass over blocks split into slices of one row
                monkeypatch.setattr(solver, "_LAYER_SLICE", 7)
                assert count_table_optima(table) == expected
                monkeypatch.undo()

    def test_solves_free_their_tables(self, monkeypatch):
        # with the collector off, every table of a counted solve is freed
        # when the solve returns: nothing on the count or readback path
        # holds a table in a reference cycle
        built = []

        def build(*args):
            table = build_dp_table(*args)
            built.append(weakref.ref(table))
            return table

        monkeypatch.setattr(solver, "build_dp_table", build)
        m = 12
        profiles = [
            mallows_sample(MallowsParams(Ranking.identity(m), 0.8, 50, 1)),
            Profile(m, [(Ranking(range(m)), 1), (Ranking(range(m)[::-1]), 1)]),
        ]
        enabled = gc.isenabled()
        gc.disable()
        try:
            for profile in profiles:  # tight states, then the tally pass
                for k in (2, 3):
                    solve_components(profile, k, (full_mask(m),), 3, count_optima=True)
            alive = [ref() is not None for ref in built]
        finally:
            if enabled:
                gc.enable()
        assert alive == [False] * 4


class TestChoices:
    """``DpTable.choices`` against the Held-Karp oracle on every state, on
    tie-heavy profiles, with and without a context, in int32 and in
    int64."""

    @staticmethod
    def check(profile, k, subset, context):
        values, argmin = held_karp(profile, k, subset, context)
        table = build_dp_table(profile, k, subset, context)
        assert table.values.tolist() == values
        assert argmin_sets(table) == argmin
        return table.values.dtype

    @pytest.mark.parametrize("m", [4, 7, 9])
    def test_matches_held_karp(self, monkeypatch, m):
        rng = np.random.default_rng(100 + m)
        order = rng.permutation(m)
        profile = Profile(m, [(Ranking(order), 2), (Ranking(order[::-1]), 2)])
        below = mask_of(order[-2:].tolist())  # two candidates below the rest
        pieces = [(full_mask(m), 0), (full_mask(m) & ~below, below)]
        for k in (2, 3, m):
            for subset, context in pieces:
                assert self.check(profile, k, subset, context) == np.int32
                monkeypatch.setattr(solver, "_table_dtype", lambda *_: np.int64)
                assert self.check(profile, k, subset, context) == np.int64
                monkeypatch.undo()


class TestTableDtype:
    # n * sum_{i=2..k} C(m, i) just below and just above 2^31
    CASES = [(4, 3, 10), (5, 2, 10), (6, 6, 57)]

    @staticmethod
    def near_bound_profile(rng, m, n):
        """Mostly one ranking, so placement costs reach toward the bound."""
        order = rng.permutation(m)
        share = n // 7
        return Profile(m, [
            (Ranking(order), n - 2 * share),
            (Ranking(order[::-1]), share),
            (Ranking(rng.permutation(m)), share),
        ])

    def test_bound_picks_dtype(self, monkeypatch):
        rng = np.random.default_rng(71)
        for m, k, per_voter in self.CASES:
            below = (2**31 - 1) // per_voter
            for n, dtype in ((below, np.int32), (below + 1, np.int64)):
                assert (n * per_voter < 2**31) == (dtype is np.int32)
                profile = self.near_bound_profile(rng, m, n)
                table = build_dp_table(profile, k)
                assert table.values.dtype == dtype
                values, argmin = held_karp(profile, k, full_mask(m), 0)
                assert table.values.tolist() == values
                assert argmin_sets(table) == argmin
                # the majority's last candidate placed first costs near the bound
                majority = max(profile.groups, key=lambda group: group[1])[0]
                last = majority.order[-1]
                prefix = BinomialPrefixTable(m, k)
                assert placement_cost(full_mask(m), last, profile, k, prefix) > 2**29
                brute = brute_force_consensus(profile, k)
                exact = enumerate_consensus(profile, k)
                assert exact.optimum == table.optimum == brute.optimum
                assert exact.count == count_table_optima(table) == brute.count
                for ranking in exact.rankings:
                    assert profile_distance(ranking, profile, k) == table.optimum
                monkeypatch.setattr(solver, "_table_dtype", lambda *_: np.int64)
                wide = build_dp_table(profile, k)
                monkeypatch.undo()
                assert wide.values.dtype == np.int64
                assert np.array_equal(wide.values, table.values)
                assert argmin_sets(wide) == argmin


class TestGoldenTables:
    # SHA-256 of the dtype, shape and bytes of build_dp_table(...).cost, then
    # of .values: Mallows profiles (phi 0.8, n 50, seed m) over every
    # candidate at k = m (k = 4 at m = 1, the k >= 4 builder on one
    # candidate); nine of 14 candidates above a context of four at k = 14;
    # a multiplicity profile at m = 10 whose totals need int64; 14 of 16
    # candidates of such a profile above the other two, at k = nloc +
    # |context| and at k = 4 (several betas); and Yates' route over every
    # candidate at k = m - 1, m = 16 and 18
    DIGESTS = {
        "m1": "19ca6b713b85af5f2f3c24f810ca96c4f931c36d2852a67215c3ee8e35a6c57b",
        "m2": "0451cca9789e4ef7161c9fa45c95de0881edf043c9cc5e6b57b5da9dc672de6f",
        "m5": "2668050bbfbdc3cf230566f4b532856277a491916b3e117b885bcdaef16e5cf7",
        "m10": "468ae93a12a860f1536ecb3843bf3ff01784e36f426e051a5da1debdcc9bc88e",
        "m11": "aca51f6531af720c31ac440abb58f3bad462081f041ef1f6df926a4d6b4ecb3c",
        "m14": "9365c063b85aa51b3362b3e2432d240a57fdb50215f96cde55ead1f056fcd644",
        "m16": "99b98036690c561e70d261996bc92e73b0a0100dc16cde33faf052e32e422d97",
        "m18": "bdb48bfa9bba2b818182c1a1c480211f3196b727c6df1a93ffc262148a0459a1",
        "m20": "6f940487c0e9d3450d98298de6b668bb439ebd91367b732df825a39e796a9e46",
        "context": "779a9fce8a741442552c54c4c3593b10ddc6ab020021cd2f1eafbd87514dd6e2",
        "int64": "6b3e65901d95dbbef79f90db3eb1468252ecdafb9987400c78349da6e8cea0d7",
        "int64-context": "d0824b4b8cbd89d39aad5db9f97124c749441cb98c64d8bf31636140842370c6",
        "int64-k4": "a09a9128bf8ca37016eb958853104484a3ddc185f1529674e7f1feb0c59ed040",
        "m16-k15": "59012d5b605058c8d35c2fd048e9a5d217cfc30f26c658472dd3ebaf2c8ee21e",
        "m18-k17": "fcc90238b3878906d01bb69a319939dbe9b98d61e02f610dd34decd2c6fffc15",
    }

    @staticmethod
    def table(name):
        if name == "context":
            profile = mallows_sample(MallowsParams(Ranking.identity(14), 0.8, 50, 14))
            return build_dp_table(profile, 14, mask_of(range(9)), mask_of(range(9, 13)))
        if name == "int64":
            rng = np.random.default_rng(10)
            profile = Profile(10, [(Ranking(rng.permutation(10)), int(rng.integers(1, 1 << 33)))
                                   for _ in range(7)])
            return build_dp_table(profile, 10)
        if name.startswith("int64-"):
            rng = np.random.default_rng(16)
            profile = Profile(16, [(Ranking(rng.permutation(16)), int(rng.integers(1, 1 << 33)))
                                   for _ in range(7)])
            k = 16 if name == "int64-context" else 4
            return build_dp_table(profile, k, mask_of(range(14)), mask_of(range(14, 16)))
        m, _, k = name[1:].partition("-k")
        m = int(m)
        profile = mallows_sample(MallowsParams(Ranking.identity(m), 0.8, 50, m))
        return build_dp_table(profile, int(k) if k else 4 if m == 1 else m)

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_tables_pinned(self, name):
        table = self.table(name)
        assert table.cost.dtype == (np.int64 if name.startswith("int64") else np.int32)
        digest = hashlib.sha256()
        for array in (table.cost, table.values):
            digest.update(f"{array.dtype.str} {array.shape}".encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.DIGESTS[name]


class TestEnumerate:
    def test_unique_consensus(self, tension_profile):
        result = enumerate_consensus(tension_profile, 3)
        assert result.count == 1
        assert not result.truncated
        assert result.rankings[0].to_one_based() == (1, 2, 3)

    def test_opposite_pair_ties(self):
        profile = from_rankings(2, [Ranking([0, 1]), Ranking([1, 0])])
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
        profile = from_rankings(
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
        profile = from_rankings(32, [Ranking(range(32))])
        with pytest.raises(GuardError, match="a subset of 31 candidates"):
            solve_components(profile, 3, (full_mask(31), 1 << 31))
        with pytest.raises(GuardError, match="m=32 exceeds the 2\\^m state cap"):
            solve_components(profile, 3, (full_mask(32),))

    def test_limit_validation(self, six_profile):
        with pytest.raises(ValueError, match="limit"):
            solve_components(six_profile, 3, (full_mask(6),), limit=0)

    @staticmethod
    def table_pieces(profile, k, pieces, limit, count_optima):
        """``solve_components`` with a DP table for every piece: optimum,
        rankings, count, truncation and states."""
        optimum = states = 0
        count, orders, later = 1, [], full_mask(profile.m)
        for piece in pieces:
            later ^= piece
            table = build_dp_table(profile, k, piece, later)
            optimum += table.optimum
            states += len(table.values)
            count *= count_table_optima(table)
            orders.append(enumerate_table_orders(table, limit or 1))
        rankings = tuple(
            Ranking([c for order in combo for c in order])
            for combo in itertools.islice(itertools.product(*orders), limit or 1)
        )
        if not count_optima:
            count = len(rankings)
        return optimum, rankings, count, count > len(rankings), states

    def test_small_components_match_tables(self):
        # components of one and two candidates, solved in closed form,
        # against their DP tables; reversed ballots tie many pairs
        rng = np.random.default_rng(34)
        for trial in range(30):
            m = int(rng.integers(2, 9))
            order = rng.permutation(m)
            profile = (Profile(m, [(Ranking(order), 2), (Ranking(order[::-1]), 2)])
                       if trial % 3 == 0 else weighted_profile(rng, m, int(rng.integers(1, 6))))
            k = int(rng.integers(2, m + 1))
            members, pieces = rng.permutation(m).tolist(), []
            while members:
                size = int(rng.integers(1, 4))
                pieces.append(mask_of(members[:size]))
                members = members[size:]
            for limit in (None, 1, 3, 50):
                for count_optima in (False, True):
                    result = solve_components(profile, k, tuple(pieces), limit, count_optima)
                    assert (
                        result.optimum, result.rankings, result.count,
                        result.truncated, result.stats.states,
                    ) == self.table_pieces(profile, k, pieces, limit, count_optima)


class TestCostRows:
    def test_rows_match_placement_cost(self):
        rng = np.random.default_rng(41)
        cases = []
        for trial in range(40):
            m = int(rng.integers(2, 10))
            subset, context = random_piece(rng, m)
            if trial % 8 == 0:  # every row at full width
                subset, context = full_mask(m), 0
            cases.append((weighted_profile(rng, m, int(rng.integers(1, 8))),
                          subset, context))
        # a context that splits the voters into several counts of context
        # members below a placed candidate, with 4 <= k < the pool size
        profile = weighted_profile(rng, 8, 9)
        context = mask_of([5, 6, 7])
        below = {sum(r.inverse[j] < r.inverse[x] for x in (5, 6, 7))
                 for r, _ in profile.groups for j in range(5)}
        assert len(below) > 2
        cases.append((profile, full_mask(8) & ~context, context))
        for profile, subset, context in cases:
            m = profile.m
            counts = PairCounts(profile)
            local = mask_members(subset)
            for k in range(2, m + 1):
                prefix = BinomialPrefixTable(m, k)
                expected = np.zeros((len(local), 1 << (len(local) - 1)), np.int64)
                for j, candidate in enumerate(local):
                    others = [c for c in local if c != candidate]
                    for packed in range(expected.shape[1]):
                        members = mask_of(
                            c for i, c in enumerate(others) if packed >> i & 1
                        )
                        expected[j, packed] = placement_cost(
                            members | 1 << candidate, candidate, profile, k,
                            prefix, context=context,
                        )
                routes = [_subset_sum_costs] + [_moment_costs] * (k <= 3)
                for route in routes:
                    for dtype in (np.int32, np.int64):
                        rows = route(counts, k, local, context, dtype)
                        assert rows.dtype == dtype
                        assert np.array_equal(binary_costs(rows), expected)

    def test_block_order_matches_binary_oracles(self, monkeypatch):
        # every entry of both builders' tables against the binary oracles,
        # mapped through the plans of _blocks: nloc 1-14 with random
        # contexts, both dtypes, with the walk's low part at 10 bits and at
        # 3 (high parts wider than the low part); k = nloc + |context| - 1
        # takes Yates' route, k = nloc + |context| the product route
        rng = np.random.default_rng(45)
        for small in (solver._SMALL_PLAN, 3):
            monkeypatch.setattr(solver, "_SMALL_PLAN", small)
            for nloc in range(1, 15):
                m = nloc + 3
                counts = PairCounts(weighted_profile(rng, m, 5))
                local = tuple(sorted(rng.choice(m, nloc, replace=False).tolist()))
                context = int(rng.integers(0, 1 << m)) & ~mask_of(local)
                pool = nloc + context.bit_count()
                for k in sorted({2, 3, 4, max(2, nloc), max(2, pool - 1), max(2, pool)}):
                    routes = [_subset_sum_costs] + [_moment_costs] * (k <= 3)
                    oracle = binary_moment_costs if k <= 3 else dense_subset_sum_costs
                    for dtype in (np.int32, np.int64):
                        expected = block_costs(oracle(counts, k, local, context, dtype))
                        for route in routes:
                            block = route(counts, k, local, context, dtype)
                            assert block.dtype == dtype
                            assert np.array_equal(block, expected)

    def test_moment_and_subset_sum_tables_identical(self):
        rng = np.random.default_rng(42)
        for m in range(2, 13):
            profile = weighted_profile(rng, m, int(rng.integers(1, 12)))
            counts = PairCounts(profile)
            subset, context = random_piece(rng, m)
            if m % 3 == 0:
                subset, context = full_mask(m), 0
            local = mask_members(subset)
            for k in (2, 3) if m >= 3 else (2,):
                moment = _moment_costs(counts, k, local, context, np.int64)
                transformed = _subset_sum_costs(counts, k, local, context, np.int32)
                assert np.array_equal(moment, transformed)
                values = _layered_min(moment, len(local))
                table = build_dp_table(profile, k, subset, context)
                assert np.array_equal(values, table.values)
                assert table_held_karp(binary_costs(moment))[1] == argmin_sets(table)
                moment_table = DpTable(local, context, moment, values)
                assert count_table_optima(moment_table) == count_table_optima(table)
                other = _layered_min(transformed, len(local))
                assert np.array_equal(other, table.values)

    def test_expanded_low_bits_match_dense_route(self, monkeypatch):
        # nloc 1-14 with the low bits the size rule picks (up to 5 here),
        # then with none and with all of _LOW_BITS (the count above, equal
        # to and below nloc - 1), the walk's low part at 10 bits and at 3;
        # above a four-member context leaving at least three betas (k = m - 1
        # takes Yates' route, k = m the product route) and over all of m =
        # nloc candidates; _BUFFER_BYTES at its default, at one chunk (every
        # group one chunk, cross-group sweeps of one bit) and at the table
        # (one group)
        rng = np.random.default_rng(44)
        cases = []
        for nloc in range(1, 15):
            m = nloc + 4
            profile = weighted_profile(rng, m, 9)
            local = tuple(sorted(rng.choice(m, nloc, replace=False).tolist()))
            context = full_mask(m) & ~mask_of(local)
            betas = {sum(r.inverse[j] < r.inverse[x] for x in mask_members(context))
                     for r, _ in profile.groups for j in local}
            assert len(betas) >= 3
            cases.append((PairCounts(profile), local, context, sorted({4, 5, m - 1, m})))
            cases.append((PairCounts(weighted_profile(rng, nloc, 9)), tuple(range(nloc)), 0,
                          sorted({4, max(4, nloc - 1), max(4, nloc)})))
        checks = [(counts, local, context, k, dtype,
                   dense_subset_sum_costs(counts, k, local, context, dtype))
                  for counts, local, context, ks in cases for k in ks
                  for dtype in (np.int32, np.int64)]
        rule, default = solver._expanded_bits, solver._BUFFER_BYTES
        for small, expand in itertools.product((solver._SMALL_PLAN, 3), (None, 0, solver._LOW_BITS)):
            monkeypatch.setattr(solver, "_SMALL_PLAN", small)
            monkeypatch.setattr(solver, "_expanded_bits", rule if expand is None else
                                lambda groups, bits: min(expand, bits))
            for counts, local, context, k, dtype, expected in checks:
                nloc, size = len(local), np.dtype(dtype).itemsize
                for buffer in (default, (nloc << small) * size, (nloc << nloc) * size):
                    monkeypatch.setattr(solver, "_BUFFER_BYTES", buffer)
                    rows = _subset_sum_costs(counts, k, local, context, dtype)
                    assert rows.dtype == dtype
                    assert np.array_equal(binary_costs(rows), expected)
            for counts, local, context, _ in cases:
                for k in (2, 3):
                    assert np.array_equal(
                        _subset_sum_costs(counts, k, local, context, np.int64),
                        _moment_costs(counts, k, local, context, np.int64),
                    )

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def test_wide_counts_match_dense_route_and_brute_force(self, data):
        # multiplicities up to 2^33 take the tables to int64; k from 4 to m
        # takes either route on a random piece
        m = data.draw(st.integers(4, 8))
        multiplicity = st.integers(1, 9) | st.integers(1 << 28, 1 << 33)
        groups = data.draw(st.lists(st.tuples(st.permutations(range(m)), multiplicity),
                                    min_size=1, max_size=5))
        profile = Profile(m, [(Ranking(order), count) for order, count in groups])
        candidates = st.sets(st.integers(0, m - 1))
        subset = mask_of(data.draw(candidates.filter(bool)))
        context = mask_of(data.draw(candidates)) & ~subset
        k = data.draw(st.integers(4, m))
        counts, local = PairCounts(profile), mask_members(subset)
        dtype = solver._table_dtype(counts.n, m, k)
        expected = block_costs(dense_subset_sum_costs(counts, k, local, context, dtype))
        assert np.array_equal(_subset_sum_costs(counts, k, local, context, dtype), expected)
        assert dp_consensus(profile, k).optimum == brute_force_consensus(profile, k).optimum

    def test_expanded_bits_rule(self):
        # groups x 2^low stays within 1/16 of the rows; 50 voter groups at
        # m = 18 expand all of _LOW_BITS
        assert solver._expanded_bits(50, 17) == solver._LOW_BITS
        for groups in (1, 2, 7, 50, 400, 5000):
            for bits in range(30):
                low = solver._expanded_bits(groups, bits)
                assert 0 <= low <= min(solver._LOW_BITS, bits)
                assert low == 0 or groups << low <= 1 << (bits - 4)

    def test_partitioned_equals_full_dp(self):
        for m in (6, 10, 14):
            for phi in (0.5, 0.9):
                sigma = Ranking.identity(m)
                profile = mallows_sample(MallowsParams(sigma, phi, 30, 700 + m))
                for k in (2, 3, 4, m):
                    full = dp_consensus(profile, k).optimum
                    # at k >= 4 the exhaustive digraph needs the opt-in; its
                    # components, solved with context, take the k >= 4 route
                    modes = ("pre", "pre-refined") if k <= 3 else ("pre",)
                    for mode in modes:
                        result = solve(profile, k, mode, allow_exponential=k > 3)
                        assert result.optimum == full
                        assert profile_distance(
                            result.rankings[0], profile, k
                        ) == full

    def test_ordered_partitions_match_constrained_brute_force(self):
        import itertools

        rng = np.random.default_rng(43)
        for _ in range(25):
            m = int(rng.integers(2, 7))
            profile = weighted_profile(rng, m, int(rng.integers(1, 6)))
            k = int(rng.integers(2, m + 1))
            block_of = dict(zip(rng.permutation(m).tolist(), rng.integers(0, m, m)))
            pieces = [
                mask_of(c for c, b in block_of.items() if b == i) for i in range(m)
            ]
            pieces = tuple(p for p in pieces if p)
            rank = {c: i for i, p in enumerate(pieces) for c in mask_members(p)}
            best = min(
                profile_distance(Ranking(order), profile, k)
                for order in itertools.permutations(range(m))
                if [rank[c] for c in order] == sorted(rank[c] for c in order)
            )
            result = solve_components(profile, k, pieces, count_optima=True)
            assert result.optimum == best
            assert result.stats.states == sum(1 << p.bit_count() for p in pieces)


class TestAccumulationGuard:
    def test_exact_bound(self):
        # one voter disagrees on at most C(3,2) + C(3,3) = 4 contest sets
        ranking = Ranking([0, 1, 2])
        below = Profile(3, [(ranking, (1 << 60) - 1)])
        assert dp_consensus(below, 3).optimum == 0
        assert brute_force_consensus(below, 3).optimum == 0
        at = Profile(3, [(ranking, 1 << 60)])
        for solver in (dp_consensus, brute_force_consensus):
            with pytest.raises(GuardError, match="overflow"):
                solver(at, 3)

    def test_large_counts_stay_exact(self):
        split = Profile(3, [
            (Ranking([0, 1, 2]), (1 << 58) + 1),
            (Ranking([2, 1, 0]), 1 << 58),
        ])
        for k in (2, 3):
            assert dp_consensus(split, k).optimum == (
                brute_force_consensus(split, k).optimum
            )
