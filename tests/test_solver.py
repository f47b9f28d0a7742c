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
    _plan,
    _subset_sum_costs,
    count_table_optima,
    solve_components,
)
from conftest import mask_of, random_profile, restrict_profile


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


def random_argmin(rng, nloc, ties):
    """Argmin sets drawn as random non-empty subsets of each state."""
    states = np.arange(1 << nloc)
    keep = rng.random((1 << nloc, nloc)) < ties
    drawn = (keep << np.arange(nloc)).sum(axis=1) & states
    lowest = states & -states
    return np.where(drawn == 0, lowest, drawn).astype(np.uint32)


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

    def test_layer_slices_leave_table_unchanged(self, monkeypatch):
        # tier-1 sizes fit a layer in one slice; split layers into many
        rng = np.random.default_rng(18)
        for m, k in ((9, 3), (11, 5)):
            profile = weighted_profile(rng, m, 6)
            whole = build_dp_table(profile, k)
            monkeypatch.setattr(solver, "_LAYER_SLICE", 7)
            sliced = build_dp_table(profile, k)
            monkeypatch.undo()
            assert np.array_equal(sliced.values, whole.values)
            assert np.array_equal(sliced.argmin, whole.argmin)


class TestColexWalk:
    def test_plans_follow_definitions(self):
        for nloc in range(1, 12):
            colex = sorted(range(1 << nloc), key=lambda s: mask_members(s)[::-1])
            layers = [[s for s in colex if s.bit_count() == level]
                      for level in range(nloc + 1)]
            rank = [{s: r for r, s in enumerate(layer)} for layer in layers]
            plans = [_layers(nloc)] + [_plan(nloc)] * (nloc <= solver._SMALL_PLAN)
            for plan in plans:
                for level, (states, (previous, flat, bits)) in enumerate(plan, 1):
                    assert states.tolist() == layers[level]
                    for i, state in enumerate(layers[level]):
                        for slot, j in enumerate(mask_members(state)):
                            rest = state ^ 1 << j
                            packed = rest & ((1 << j) - 1) | rest >> (j + 1) << j
                            assert previous[slot, i] == rank[level - 1][rest]
                            assert flat[slot, i] == packed * nloc + j
                            assert bits[slot, i] == 1 << j

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
                assert table.argmin.tolist() == argmin

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
                assert table.argmin.tolist() == argmin
                assert count_table_optima(table) == count_orders(argmin)


class TestCountInWalk:
    """The count taken during the DP walk against the second-walk oracle
    and the state loop, on tie-heavy profiles: cached plans (<= 10
    candidates) and plans built per table."""

    @staticmethod
    def check(m, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(m)
        profile = Profile(m, [(Ranking(order), 2), (Ranking(order[::-1]), 2)])
        for k in (2, 3, m):
            counted = build_dp_table(profile, k, count_optima=True)
            argmin = counted.argmin.tolist()
            expected = count_orders(argmin)
            if k == 2:  # every pair is split evenly: all m! orders are optimal
                assert expected == math.factorial(m)
            assert counted.count == expected
            assert count_table_optima(counted) == expected
            assert enumerate_consensus(profile, k, 1).count == expected
            plain = build_dp_table(profile, k)
            assert plain.count is None
            assert np.array_equal(plain.values, counted.values)
            assert np.array_equal(plain.argmin, counted.argmin)

    @pytest.mark.parametrize("m", [4, 7, 9, 11, 13, 14])
    def test_matches_oracle(self, m):
        self.check(m, 80 + m)

    @pytest.mark.parametrize("m", [4, 9, 11, 14])
    def test_exact_ints_in_walk(self, monkeypatch, m):
        monkeypatch.setattr(solver, "_INT64_COUNTS", 2)
        self.check(m, 90 + m)


class TestCountOptima:
    def test_matches_state_loop(self):
        rng = np.random.default_rng(61)
        for nloc in range(1, 13):
            for ties in (0.3, 0.7):
                argmin = random_argmin(rng, nloc, ties)
                table = DpTable(tuple(range(nloc)), 0, np.zeros(1 << nloc), argmin)
                assert count_table_optima(table) == count_orders(argmin)

    def test_every_member_optimal(self, monkeypatch):
        # argmin[S] = S: every order is optimal, nloc! of them; a low bound
        # moves the later layers to exact Python ints
        for nloc in (1, 5, 9, 12):
            argmin = np.arange(1 << nloc, dtype=np.uint32)
            table = DpTable(tuple(range(nloc)), 0, np.zeros(1 << nloc), argmin)
            assert count_table_optima(table) == math.factorial(nloc)
            monkeypatch.setattr(solver, "_INT64_COUNTS", 1 << 10)
            assert count_table_optima(table) == math.factorial(nloc)
            monkeypatch.undo()

    def test_wide_route_matches_state_loop(self, monkeypatch):
        monkeypatch.setattr(solver, "_INT64_COUNTS", 2)
        rng = np.random.default_rng(62)
        for nloc in (3, 8, 11):
            argmin = random_argmin(rng, nloc, 0.8)
            table = DpTable(tuple(range(nloc)), 0, np.zeros(1 << nloc), argmin)
            assert count_table_optima(table) == count_orders(argmin)


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
                assert table.argmin.tolist() == argmin
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
                assert np.array_equal(wide.argmin, table.argmin)


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
        with pytest.raises(GuardError, match="a subset of 31 candidates"):
            solve_components(profile, 3, (full_mask(31), 1 << 31))
        with pytest.raises(GuardError, match="m=32 exceeds the 2\\^m state cap"):
            solve_components(profile, 3, (full_mask(32),))

    def test_limit_validation(self, six_profile):
        with pytest.raises(ValueError, match="limit"):
            solve_components(six_profile, 3, (full_mask(6),), limit=0)


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
        below = {sum(r.prefers(j, x) for x in (5, 6, 7))
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
                        assert np.array_equal(rows, expected)

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
                values, argmin, count = _layered_min(moment, len(local), True)
                table = build_dp_table(profile, k, subset, context)
                assert np.array_equal(values, table.values)
                assert np.array_equal(argmin, table.argmin)
                assert count == count_table_optima(table)
                _, other_argmin, uncounted = _layered_min(transformed, len(local))
                assert np.array_equal(other_argmin, table.argmin)
                assert uncounted is None and table.count is None

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
