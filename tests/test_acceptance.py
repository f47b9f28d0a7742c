"""Acceptance suite.

Each test covers one exit criterion at its stated tolerance and prints one
"ACCEPTANCE <id>: PASS/FAIL" line (visible with ``pytest -s``).
"""

import contextlib
import itertools
import math
import time

import numpy as np

from kwise_kemeny import (
    BinomialPrefixTable,
    MallowsParams,
    Profile,
    Ranking,
    brute_force_consensus,
    dp_consensus,
    enumerate_consensus,
    kendall_tau,
    kwise_digraph,
    kwise_distance,
    mallows_sample,
    mask_members,
    partitioned_dp,
    position_weighted_kendall_tau,
    preprocess,
    profile_distance,
    refine_digraph,
    scc_decompose,
    solve,
)
from kwise_kemeny.majority import PairCounts, best_triple_advantage
from conftest import arc_view, random_profile
from oracles import (
    best_advantage_exhaustive,
    from_rankings,
    kwise_distance_naive,
    setwise_advantage,
)


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def consensus_set(profile, k):
    result = enumerate_consensus(profile, k)
    assert not result.truncated
    return frozenset(result.rankings)


def sign_test_p(successes: int, failures: int) -> float:
    """One-sided binomial tail P[X >= successes] with X ~ Bin(n, 1/2)."""
    n = successes + failures
    return sum(math.comb(n, i) for i in range(successes, n + 1)) / 2.0**n


# ---------------------------------------------------------------------------
# 1. fixed-instance fixtures


class TestFixedInstances:
    def test_1a_three_wise_distance_and_unique_consensus(self, tension_profile):
        with criterion("1a"):
            target = Ranking([0, 1, 2])
            assert profile_distance(target, tension_profile, 3) == 201
            result = enumerate_consensus(tension_profile, 3)
            assert result.optimum == 201
            assert result.count == 1
            assert result.rankings == (target,)

    def test_1b_pairwise_consensus(self, tension_profile):
        with criterion("1b"):
            result = enumerate_consensus(tension_profile, 2)
            assert result.count == 1
            assert result.rankings[0].to_one_based() == (2, 3, 1)

    def test_1c_three_ranking_distances(self):
        with criterion("1c"):
            r1, r2, r3 = Ranking([0, 1, 2]), Ranking([0, 2, 1]), Ranking([1, 0, 2])
            table = BinomialPrefixTable(3, 3)
            assert kwise_distance(r1, r2, 3, table) == 1
            assert kwise_distance(r1, r3, 3, table) == 2
            assert kendall_tau(r1, r2) == 1
            assert kendall_tau(r1, r3) == 1

    def test_1d_majority_digraphs(self, six_profile):
        with criterion("1d"):
            arcs = arc_view(kwise_digraph(six_profile, 2))
            pairwise = {(c + 1, d + 1): weight for (c, d), (weight, _) in arcs.items()}
            assert pairwise == {
                (1, 2): 10, (1, 3): 10, (1, 4): 10, (1, 5): 10, (1, 6): 6,
                (2, 4): 8, (2, 5): 10, (2, 6): 6, (3, 5): 10, (3, 6): 6,
                (4, 3): 2, (4, 5): 10, (4, 6): 6, (5, 6): 6,
            }
            arcs = arc_view(kwise_digraph(six_profile, 3))
            triple = {(c + 1, d + 1): weight for (c, d), (weight, _) in arcs.items()}
            assert triple == {
                (1, 2): 48, (1, 3): 48, (1, 4): 48, (1, 5): 48, (1, 6): 30,
                (2, 3): 1, (2, 4): 28, (2, 5): 32, (2, 6): 20,
                (3, 4): 1, (3, 5): 27, (3, 6): 16,
                (4, 3): 4, (4, 5): 25, (4, 6): 14,
                (5, 6): 6, (6, 5): 2,
            }

    def test_1e_components_refinement_and_solution(self, six_profile):
        with criterion("1e"):
            graph = kwise_digraph(six_profile, 3)
            order = scc_decompose(graph)
            assert [mask_members(c) for c in order.components] == [
                (0,), (1,), (2, 3), (4, 5),
            ]
            refined = refine_digraph(graph, six_profile)
            assert set(arc_view(graph)) - set(arc_view(refined)) == {(2, 3), (5, 4)}
            final = scc_decompose(refined)
            result = partitioned_dp(six_profile, 3, final)
            assert result.rankings[0].to_one_based() == (1, 2, 4, 3, 5, 6)
            assert result.optimum == dp_consensus(six_profile, 3).optimum

    def test_1f_position_weighted_counterexample(self):
        with criterion("1f"):
            r = Ranking([0, 1, 2])
            r2 = Ranking([2, 0, 1])
            weights = (1.0, math.sqrt(2.0), 1.0)
            value = position_weighted_kendall_tau(r, r2, weights)
            expected = (1.0 + math.sqrt(2.0)) * (math.sqrt(2.0) + 1.0) / 2.0
            assert abs(value - expected) < 1e-9
            assert kwise_distance(r, r2, 3, BinomialPrefixTable(3, 3)) == 3


# ---------------------------------------------------------------------------
# 2. oracle equivalences


class TestOracleEquivalence:
    def test_2a_closed_form_matches_enumeration(self):
        with criterion("2a"):
            rng = np.random.default_rng(201)
            m = 7
            for k in range(2, m + 1):
                table = BinomialPrefixTable(m, k)
                for _ in range(500):
                    r = Ranking(rng.permutation(m))
                    r2 = Ranking(rng.permutation(m))
                    assert kwise_distance(r, r2, k, table) == (
                        kwise_distance_naive(r, r2, k)
                    )

    def test_2b_dp_matches_brute_force(self):
        with criterion("2b"):
            rng = np.random.default_rng(202)
            for _ in range(100):
                m = int(rng.integers(2, 8))
                profile = random_profile(rng, m, int(rng.integers(1, 21)))
                for k in range(2, m + 1):
                    assert (
                        dp_consensus(profile, k).optimum
                        == brute_force_consensus(profile, k).optimum
                    )

    def test_2c_preprocessing_preserves_optimum(self):
        with criterion("2c"):
            m, n = 12, 50
            sigma = Ranking.identity(m)
            for phi in (0.5, 0.8, 0.95):
                for i in range(50):
                    seed = int(
                        np.random.SeedSequence(
                            (203, int(phi * 100), i)
                        ).generate_state(1, np.uint64)[0]
                    )
                    profile = mallows_sample(MallowsParams(sigma, phi, n, seed))
                    expected = dp_consensus(profile, 3).optimum
                    assert solve(profile, 3, "pre").optimum == expected
                    assert (
                        solve(profile, 3, "pre-refined").optimum
                        == expected
                    )

    def test_2d_greedy_witness_matches_exhaustive(self):
        with criterion("2d"):
            rng = np.random.default_rng(204)
            for _ in range(20):
                m = 8
                profile = random_profile(rng, m, int(rng.integers(2, 16)))
                counts = PairCounts(profile)
                for c, d in itertools.permutations(range(m), 2):
                    greedy, witness = best_triple_advantage(
                        profile, c, d, counts=counts
                    )
                    exhaustive, _ = best_advantage_exhaustive(profile, c, d, 3)
                    assert greedy == exhaustive
                    # the witness really attains the reported weight
                    assert setwise_advantage(profile, witness, c, d, 3) == greedy


# ---------------------------------------------------------------------------
# 3. axiom suite


class TestAxioms:
    def test_3_unanimity(self):
        with criterion("3-unanimity"):
            rng = np.random.default_rng(301)
            for _ in range(100):
                m = int(rng.integers(3, 6))
                c, d = (int(x) for x in rng.choice(m, size=2, replace=False))
                rankings = []
                for _ in range(int(rng.integers(1, 9))):
                    order = list(rng.permutation(m))
                    pc, pd = order.index(c), order.index(d)
                    if pc > pd:
                        order[pc], order[pd] = order[pd], order[pc]
                    rankings.append(Ranking(order))
                profile = from_rankings(m, rankings)
                k = int(rng.integers(2, m + 1))
                for ranking in consensus_set(profile, k):
                    assert ranking.inverse[c] < ranking.inverse[d]

    def test_3_dominated_suffix(self):
        with criterion("3-dominated-suffix"):
            rng = np.random.default_rng(302)
            for _ in range(100):
                m = int(rng.integers(4, 7))
                block_size = int(rng.integers(1, m - 1))
                candidates = list(rng.permutation(m))
                block = tuple(candidates[:block_size])
                others = candidates[block_size:]
                rankings = []
                for _ in range(int(rng.integers(1, 7))):
                    prefix = list(rng.permutation(others))
                    rankings.append(Ranking(prefix + list(block)))
                profile = from_rankings(m, rankings)
                k = int(rng.integers(2, m + 1))
                for ranking in consensus_set(profile, k):
                    assert ranking.order[-block_size:] == block

    def test_3_reinforcement(self):
        with criterion("3-reinforcement"):
            rng = np.random.default_rng(303)
            tested = 0
            attempts = 0
            while tested < 100 and attempts < 800:
                attempts += 1
                m = int(rng.integers(3, 5))
                k = int(rng.integers(2, m + 1))
                sigma = Ranking.identity(m)
                first = mallows_sample(
                    MallowsParams(sigma, 0.5, int(rng.integers(2, 7)),
                                  int(rng.integers(0, 2**63)))
                )
                second = mallows_sample(
                    MallowsParams(sigma, 0.5, int(rng.integers(2, 7)),
                                  int(rng.integers(0, 2**63)))
                )
                shared = consensus_set(first, k) & consensus_set(second, k)
                if not shared:
                    continue
                tested += 1
                combined = Profile(m, first.groups + second.groups)
                assert consensus_set(combined, k) == shared
            assert tested >= 100

    def test_3_neutrality(self):
        with criterion("3-neutrality"):
            rng = np.random.default_rng(304)
            for _ in range(100):
                m = int(rng.integers(2, 6))
                profile = random_profile(rng, m, int(rng.integers(1, 9)))
                k = int(rng.integers(2, m + 1))
                image = list(rng.permutation(m))
                relabeled = Profile(m, [
                    (Ranking([image[c] for c in r.order]), count)
                    for r, count in profile.groups
                ])
                expected = {
                    Ranking([image[c] for c in r.order])
                    for r in consensus_set(profile, k)
                }
                assert set(consensus_set(relabeled, k)) == expected

    def test_3_monotonicity_swap_formula(self):
        with criterion("3-monotonicity-swap"):
            rng = np.random.default_rng(305)
            for _ in range(100):
                m = int(rng.integers(3, 9))
                k = int(rng.integers(2, m + 1))
                table = BinomialPrefixTable(m, k)
                r = Ranking(rng.permutation(m))
                voter = Ranking(rng.permutation(m))
                pos = int(rng.integers(0, m - 1))
                upper = voter.order[pos]      # ranked just above `lower`
                lower = voter.order[pos + 1]
                swapped_order = list(voter.order)
                swapped_order[pos], swapped_order[pos + 1] = lower, upper
                swapped = Ranking(swapped_order)
                before = kwise_distance(r, voter, k, table)
                after = kwise_distance(r, swapped, k, table)
                if r.inverse[lower] < r.inverse[upper]:
                    pool = voter.below_set(upper) & r.below_set(lower)
                    assert after - before == -table.prefix_below(pool.bit_count())
                else:
                    pool = voter.below_set(lower) & r.below_set(upper)
                    assert after - before == table.prefix_below(pool.bit_count())


# ---------------------------------------------------------------------------
# 4. statistical trends


def _trend_profiles(m, phi, count, n, tag):
    sigma = Ranking.identity(m)
    out = []
    for i in range(count):
        seed = int(
            np.random.SeedSequence((tag, m, i)).generate_state(1, np.uint64)[0]
        )
        out.append(mallows_sample(MallowsParams(sigma, phi, n, seed)))
    return out


class TestTrends:
    def test_4i_consensus_count_shrinks_with_k(self):
        with criterion("4i"):
            for m in (6, 8, 10):
                profiles = _trend_profiles(m, 1.0, 50, 50, tag=401)
                counts = {
                    k: [enumerate_consensus(p, k).count for p in profiles]
                    for k in (2, 3, m)
                }
                avg = {k: sum(v) / len(v) for k, v in counts.items()}
                assert avg[2] >= avg[3] >= avg[m]
                assert avg[2] > avg[m]
                decreases = increases = 0
                for low, high in ((2, 3), (3, m)):
                    for a, b in zip(counts[low], counts[high]):
                        if a > b:
                            decreases += 1
                        elif a < b:
                            increases += 1
                assert sign_test_p(decreases, increases) < 0.05

    def test_4ii_largest_component_grows_with_dispersion(self):
        with criterion("4ii"):
            m = 10
            averages = []
            for phi in (0.5, 0.8, 0.95):
                sizes = []
                for profile in _trend_profiles(m, phi, 50, 50, tag=402):
                    _, order = preprocess(profile, 3, refine=True)
                    sizes.append(order.largest)
                averages.append(sum(sizes) / len(sizes))
            assert averages[0] < averages[1] < averages[2]

    def test_4iii_preprocessing_speedup(self):
        with criterion("4iii"):
            profiles = _trend_profiles(14, 0.5, 10, 50, tag=403)
            dp_total = 0.0
            pre_total = 0.0
            for profile in profiles:
                started = time.perf_counter()
                plain = dp_consensus(profile, 3)
                dp_total += time.perf_counter() - started
                started = time.perf_counter()
                pre = solve(profile, 3, "pre")
                pre_total += time.perf_counter() - started
                assert pre.optimum == plain.optimum
            print(f"dp/pre = {dp_total / pre_total:.2f} (per profile: dp "
                  f"{dp_total / len(profiles) * 1e3:.3f} ms, pre "
                  f"{pre_total / len(profiles) * 1e3:.3f} ms)")
            assert dp_total >= 5.0 * pre_total, f"dp/pre = {dp_total / pre_total:.2f}"


# ---------------------------------------------------------------------------
# 5. performance sanity


class TestPerformance:
    def test_5_dp_within_budget(self):
        with criterion("5"):
            profile = mallows_sample(
                MallowsParams(Ranking.identity(14), 1.0, 50, 500)
            )
            started = time.perf_counter()
            result = dp_consensus(profile, 7)
            elapsed = time.perf_counter() - started
            assert elapsed < 60.0
            assert result.stats.states == 2**14
