import heapq
import itertools
import json
import sys

import numpy as np
import pytest

from kwise_kemeny import (
    BinomialPrefixTable,
    GuardError,
    InternalCheckError,
    PairCounts,
    Profile,
    Ranking,
    dp_consensus,
    enumerate_consensus,
    full_mask,
    kwise_digraph,
    kwise_distance,
    mask_members,
    partitioned_dp,
    preprocess,
    profile_distance,
    refine_digraph,
    scc_decompose,
    serialize_profile,
    solve,
    to_dot,
)
from kwise_kemeny import solver
from kwise_kemeny.cli import main
from kwise_kemeny.majority import (
    SccOrder,
    _best_advantage,
    _mask_rows,
    _placement_costs,
    _row_masks,
    best_triple_advantage,
)
from kwise_kemeny.sampling import MallowsParams, mallows_sample
from conftest import (
    arc_view,
    component_index,
    digraph_of,
    mask_of,
    random_profile,
    top_choice,
)
from oracles import (
    best_advantage_exhaustive,
    from_rankings,
    kwise_distance_naive,
    prefers_by_positions,
    setwise_advantage,
    setwise_support,
)

# Arc weights of the six-candidate fixture's majority digraphs (1-based ids).
PAIRWISE_ARCS = {
    (1, 2): 10, (1, 3): 10, (1, 4): 10, (1, 5): 10, (1, 6): 6,
    (2, 4): 8, (2, 5): 10, (2, 6): 6,
    (3, 5): 10, (3, 6): 6,
    (4, 3): 2, (4, 5): 10, (4, 6): 6,
    (5, 6): 6,
}
TRIPLEWISE_ARCS = {
    (1, 2): 48, (1, 3): 48, (1, 4): 48, (1, 5): 48, (1, 6): 30,
    (2, 3): 1, (2, 4): 28, (2, 5): 32, (2, 6): 20,
    (3, 4): 1, (3, 5): 27, (3, 6): 16,
    (4, 3): 4, (4, 5): 25, (4, 6): 14,
    (5, 6): 6, (6, 5): 2,
}


def arcs_one_based(graph):
    return {(c + 1, d + 1): weight for (c, d), (weight, _) in arc_view(graph).items()}


def naive_triple_support(profile, subset, winner, loser):
    members = mask_members(subset)
    total = 0
    for ranking, count in profile.groups:
        for size in (2, 3):
            for combo in itertools.combinations(members, size):
                if winner in combo and loser in combo:
                    if top_choice(ranking, mask_of(combo)) == winner:
                        total += count
    return total


def exhaustive_best(profile, c, d, k):
    """Definition-level maximum over every contest set containing the pair."""
    m = profile.m
    rest = [x for x in range(m) if x not in (c, d)]
    best = None
    best_set = None
    for size in range(len(rest) + 1):
        for extra in itertools.combinations(rest, size):
            subset = mask_of((c, d) + extra)
            value = setwise_advantage(profile, subset, c, d, k)
            if best is None or value > best:
                best, best_set = value, subset
    return best, best_set


def tarjan_order(graph):
    """The per-arc route `scc_decompose` replaced: iterative Tarjan
    over adjacency lists, then a heap Kahn over the condensation's arcs."""
    m = graph.m
    adjacency = [[] for _ in range(m)]
    for c, d in arc_view(graph):
        adjacency[c].append(d)
    index_of, lowlink, on_stack = [-1] * m, [0] * m, [False] * m
    stack, comp_id, components, work = [], [0] * m, [], []
    ticket = itertools.count()

    def visit(v):
        index_of[v] = lowlink[v] = next(ticket)
        stack.append(v)
        on_stack[v] = True
        work.append((v, iter(adjacency[v])))

    for root in range(m):
        if index_of[root] >= 0:
            continue
        visit(root)
        while work:
            v, successors = work[-1]
            for w in successors:
                if index_of[w] < 0:
                    visit(w)
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index_of[v]:
                    mask = 0
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp_id[w] = len(components)
                        mask |= 1 << w
                        if w == v:
                            break
                    components.append(mask)
    succ = [set() for _ in components]
    indegree = [0] * len(components)
    for c, d in arc_view(graph):
        a, b = comp_id[c], comp_id[d]
        if a != b and b not in succ[a]:
            succ[a].add(b)
            indegree[b] += 1
    keys = [(mask & -mask).bit_length() for mask in components]
    heap = [(keys[i], i) for i in range(len(components)) if indegree[i] == 0]
    heapq.heapify(heap)
    ordered = []
    while heap:
        _, i = heapq.heappop(heap)
        ordered.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(heap, (keys[j], j))
    unique = all(ordered[i + 1] in succ[ordered[i]] for i in range(len(ordered) - 1))
    return SccOrder(tuple(components[i] for i in ordered), unique)


def constrained_max(profile, counts, c, d, k, forced_in, forced_out):
    if k == 2:
        return counts.above[c, d] - counts.above[d, c]
    if k == 3:
        return best_triple_advantage(
            profile, c, d, forced_in=forced_in, forced_out=forced_out, counts=counts
        )[0]
    return best_advantage_exhaustive(
        profile, c, d, k, forced_in=forced_in, forced_out=forced_out
    )[0]


def refine_oracle(graph, profile):
    """The per-arc refinement loop `refine_digraph` replaced: every
    intra-component arc re-maximized by a scalar call with mask
    constraints, Tarjan after each pass.  Returns the graph and its order."""
    m = graph.m
    counts = PairCounts.of(profile)
    dominators = [
        sum(1 << x for x in range(m) if x != c and counts.above[x, c] == counts.n)
        for c in range(m)
    ]
    arcs = arc_view(graph)
    order = tarjan_order(graph)
    while True:
        comp_of = component_index(order)
        earlier, acc = [], 0
        for mask in order.components:
            earlier.append(acc)
            acc |= mask
        removed = []
        for (c, d), _ in sorted(arcs.items()):
            i = comp_of[c]
            if comp_of[d] != i:
                continue
            pair = 1 << c | 1 << d
            forced_in = full_mask(m) & ~(earlier[i] | order.components[i])
            forced_out = (earlier[i] | dominators[c] | dominators[d]) & ~pair
            if forced_in & forced_out:
                raise InternalCheckError("refinement constraints overlap")
            weight = constrained_max(
                profile, counts, c, d, graph.k, forced_in, forced_out
            )
            if weight <= 0:
                removed.append((c, d))
        if not removed:
            return digraph_of(m, graph.k, arcs), order
        for pair in removed:
            del arcs[pair]
        order = tarjan_order(digraph_of(m, graph.k, arcs))


class TestPairCounts:
    def test_complementary_counts(self, six_profile):
        counts = PairCounts(six_profile)
        for c in range(6):
            for d in range(6):
                if c != d:
                    assert counts.above[c, d] + counts.above[d, c] == counts.n

    def test_unanimous_above(self, six_profile):
        counts = PairCounts(six_profile)
        dominators = counts.above == counts.n  # [x, c]: every voter prefers x to c
        # every voter ranks c1 above c2, c3, c4 and c5
        assert np.flatnonzero(dominators[:, 4]).tolist() == [0, 1, 2, 3]
        assert not dominators[:, 0].any()

    def test_counts_match_definition(self):
        rng = np.random.default_rng(80)
        # float32 products up to n < 2^24, int64 beyond
        for scale in (1, 1 << 18, 1 << 40):
            m = 5
            groups = [
                (Ranking(rng.permutation(m)), int(rng.integers(1, 9)) * scale)
                for _ in range(7)
            ]
            profile = Profile(m, groups)
            counts = PairCounts(profile)
            for c, d, x in itertools.product(range(m), repeat=3):
                expected = sum(
                    n for r, n in profile.groups
                    if r.inverse[c] < min(r.inverse[d], r.inverse[x])
                )
                assert counts.joint[c, d, x] == expected
                if d == x:
                    assert counts.above[c, d] == expected

    def test_prefers_from_narrow_positions(self):
        # positions compare as uint8 up to 255 candidates, uint16 beyond
        rng = np.random.default_rng(81)
        for m in (1, 5, 255, 256, 300):
            profile = Profile(m, [(Ranking(rng.permutation(m)), 2) for _ in range(3)])
            counts = PairCounts(profile)
            assert counts.positions.dtype == np.int64
            assert np.array_equal(
                counts.prefers, prefers_by_positions(counts.positions)
            )

    def test_shared_within_block_only(self, six_profile):
        other = Profile(6, six_profile.groups[:2])
        with PairCounts.shared(six_profile) as held:
            assert PairCounts.of(six_profile) is held
            with PairCounts.shared(six_profile) as inner:
                assert inner is held
            assert PairCounts.of(other) is not PairCounts.of(other)
        assert PairCounts.of(six_profile) is not held


class TestPairwiseDigraph:
    def test_six_profile_matches_fixture(self, six_profile):
        graph = kwise_digraph(six_profile, 2)
        assert arcs_one_based(graph) == PAIRWISE_ARCS
        for (c, d), (_, witness) in arc_view(graph).items():
            assert witness == mask_of([c, d])

    def test_unanimous_profile_is_complete(self):
        profile = Profile(4, [(Ranking([1, 3, 0, 2]), 7)])
        graph = kwise_digraph(profile, 2)
        assert len(graph.arcs) == 6
        assert all(weight == 7 for weight, _ in arc_view(graph).values())

    def test_balanced_profile_has_no_arcs(self):
        profile = from_rankings(
            3, [Ranking([0, 1, 2]), Ranking([2, 1, 0])]
        )
        assert arc_view(kwise_digraph(profile, 2)) == {}


class TestTripleSupport:
    def test_pair_only_counts_preferences(self, six_profile):
        counts = PairCounts(six_profile)
        for c, d in itertools.permutations(range(6), 2):
            assert setwise_support(six_profile, mask_of([c, d]), c, d, 3) == (
                counts.above[c, d]
            )

    def test_known_margin(self, six_profile):
        subset = mask_of([1, 2, 3])
        margin = setwise_support(six_profile, subset, 2, 3, 3) - setwise_support(
            six_profile, subset, 3, 2, 3
        )
        assert margin == 1

    def test_matches_naive_enumeration(self, six_profile):
        rng = np.random.default_rng(8)
        for _ in range(40):
            m = int(rng.integers(2, 7))
            profile = random_profile(rng, m, int(rng.integers(1, 8)))
            c, d = rng.choice(m, size=2, replace=False)
            extra = int(rng.integers(0, 1 << m)) & ~(1 << int(c)) & ~(1 << int(d))
            subset = extra | mask_of([int(c), int(d)])
            assert setwise_support(profile, subset, int(c), int(d), 3) == (
                naive_triple_support(profile, subset, int(c), int(d))
            )

    def test_requires_pair_in_subset(self, six_profile):
        with pytest.raises(ValueError):
            setwise_support(six_profile, mask_of([0, 1]), 0, 2, 3)

    def test_antisymmetry_of_advantage(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            profile = random_profile(rng, m, int(rng.integers(1, 9)))
            k = int(rng.integers(2, m + 1))
            c, d = (int(x) for x in rng.choice(m, size=2, replace=False))
            subset = (int(rng.integers(0, 1 << m)) | mask_of([c, d]))
            forward = setwise_advantage(profile, subset, c, d, k)
            backward = setwise_advantage(profile, subset, d, c, k)
            assert forward == -backward


class TestBestTripleAdvantage:
    def test_six_profile_digraph_matches_fixture(self, six_profile):
        graph = kwise_digraph(six_profile, 3)
        assert arcs_one_based(graph) == TRIPLEWISE_ARCS

    def test_witness_for_counter_arc(self, six_profile):
        weight, witness = best_triple_advantage(six_profile, 3, 2)
        assert weight == 4
        assert witness == mask_of([2, 3, 4])

    def test_weight_dominates_random_sets(self, six_profile):
        rng = np.random.default_rng(77)
        counts = PairCounts(six_profile)
        for c, d in itertools.permutations(range(6), 2):
            weight, witness = best_triple_advantage(six_profile, c, d, counts=counts)
            assert weight == setwise_advantage(six_profile, witness, c, d, 3)
            for _ in range(200):
                subset = int(rng.integers(0, 64)) | mask_of([c, d])
                assert setwise_advantage(six_profile, subset, c, d, 3) <= weight

    def test_matches_exhaustive_maximum(self):
        rng = np.random.default_rng(4)
        for _ in range(12):
            m = int(rng.integers(3, 7))
            profile = random_profile(rng, m, int(rng.integers(1, 9)))
            counts = PairCounts(profile)
            for c, d in itertools.permutations(range(m), 2):
                weight, _ = best_triple_advantage(profile, c, d, counts=counts)
                best, _ = exhaustive_best(profile, c, d, 3)
                assert weight == best


class TestBestAdvantageExhaustive:
    def test_k2_weight_is_set_independent(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            profile = random_profile(rng, m, int(rng.integers(1, 9)))
            counts = PairCounts(profile)
            c, d = (int(x) for x in rng.choice(m, size=2, replace=False))
            free = full_mask(m) & ~mask_of([c, d])
            forced_in = int(rng.integers(0, 1 << m)) & free
            forced_out = int(rng.integers(0, 1 << m)) & free & ~forced_in
            weight, witness = best_advantage_exhaustive(
                profile, c, d, 2, forced_in=forced_in, forced_out=forced_out
            )
            assert weight == counts.above[c, d] - counts.above[d, c]
            assert witness == mask_of([c, d]) | forced_in

    def test_k3_matches_greedy(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            m = int(rng.integers(3, 8))
            profile = random_profile(rng, m, int(rng.integers(1, 9)))
            counts = PairCounts(profile)
            for c, d in itertools.permutations(range(m), 2):
                exhaustive = best_advantage_exhaustive(profile, c, d, 3)
                greedy = best_triple_advantage(profile, c, d, counts=counts)
                assert exhaustive[0] == greedy[0]

    def test_constrained_query(self, six_profile):
        weight, witness = best_advantage_exhaustive(
            six_profile,
            2,
            3,
            3,
            forced_in=mask_of([4, 5]),
            forced_out=mask_of([0, 1]),
        )
        assert weight == -4
        assert witness == mask_of([2, 3, 4, 5])

    def test_guard_on_free_candidates(self):
        profile = from_rankings(23, [Ranking(range(23))])
        with pytest.raises(GuardError, match="NP-hard"):
            best_advantage_exhaustive(profile, 0, 1, 4)

    def test_forced_sets_validated(self, six_profile):
        with pytest.raises(ValueError):
            best_advantage_exhaustive(six_profile, 0, 1, 3, forced_in=mask_of([0]))
        with pytest.raises(ValueError):
            best_advantage_exhaustive(
                six_profile, 0, 1, 3, forced_in=mask_of([2]), forced_out=mask_of([2])
            )


class TestPlacementCostAdvantage:
    @staticmethod
    def check_reader(rng, ks, force=lambda size, dtype: None):
        """The best advantage read off the placement costs of a random
        component above a random context, against the exhaustive search
        with forced_in = the context and forced_out = the rest plus the
        exclusions, for 300 arcs; ``force(size, dtype)`` runs before each
        table is built."""
        arcs = 0
        while arcs < 300:
            m = int(rng.integers(3, 9))
            profile = random_profile(rng, m, int(rng.integers(1, 6)))
            if rng.random() < 0.25:
                profile = Profile(m, [
                    *profile.groups,
                    *((Ranking(r.order[::-1]), n) for r, n in profile.groups),
                ])
            elif rng.random() < 0.25:
                profile = Profile(m, [(r, n << 33) for r, n in profile.groups])
            counts = PairCounts(profile)
            for k in ks(m):
                size = int(rng.integers(2, m + 1))
                component = mask_of(rng.choice(m, size, replace=False).tolist())
                context = int(rng.integers(0, 1 << m)) & ~component
                members = mask_members(component)
                force(size, solver._table_dtype(counts.n, m, k))
                table = _placement_costs(counts, k, members, context)
                for i, j in itertools.permutations(range(size), 2):
                    if rng.random() < 0.5:
                        continue
                    c, d = members[i], members[j]
                    pair = mask_of([c, d])
                    excluded = int(rng.integers(0, 1 << m) & rng.integers(0, 1 << m))
                    excluded &= component & ~pair
                    weight, rest = _best_advantage(table, i, j, mask_of(
                        [x for x, y in enumerate(members) if excluded >> y & 1]))
                    witness = pair | context | mask_of(
                        [members[x] for x in mask_members(rest)])
                    forced_out = full_mask(m) & ~(component | context) | excluded
                    assert (weight, witness) == best_advantage_exhaustive(
                        profile, c, d, k, forced_in=context, forced_out=forced_out
                    )
                    arcs += 1

    def test_reader_matches_exhaustive_search(self):
        # k in {2, 3, 4, m}; with reversed ballots every contest set ties,
        # and counts of 2^33 take int64 tables
        self.check_reader(np.random.default_rng(66), lambda m: sorted({2, 3, 4, m} - {m + 1}))

    @pytest.mark.parametrize("groups", ["chunk", "table"])
    def test_reader_at_k_m_by_groups(self, monkeypatch, groups):
        # Yates' route (k = m - 1) and the product route (k = m) with
        # chunks of 2^3 states and _BUFFER_BYTES at one chunk (every group
        # one chunk, cross-group sweeps of one bit) or at the whole table
        # (one group)
        monkeypatch.setattr(solver, "_SMALL_PLAN", 3)

        def force(size, dtype):
            states = 3 if groups == "chunk" else size - 1
            monkeypatch.setattr(solver, "_BUFFER_BYTES", (size << states) * np.dtype(dtype).itemsize)

        self.check_reader(np.random.default_rng(67), lambda m: [m - 1, m] if m >= 5 else [m],
                          force)


class TestKwiseDigraph:
    def test_k2_equals_pairwise(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            profile = random_profile(rng, m, int(rng.integers(1, 10)))
            arcs = arc_view(kwise_digraph(profile, 2))
            for c, d in itertools.permutations(range(m), 2):
                weight, witness = best_advantage_exhaustive(profile, c, d, 2)
                if weight > 0:
                    assert arcs[(c, d)] == (weight, witness)
                else:
                    assert (c, d) not in arcs

    def test_k3_equals_greedy_witness(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            m = int(rng.integers(3, 8))
            profile = Profile(m, [
                (Ranking(rng.permutation(m)), int(rng.integers(1, 5)))
                for _ in range(int(rng.integers(1, 9)))
            ])
            arcs = arc_view(kwise_digraph(profile, 3))
            for c, d in itertools.permutations(range(m), 2):
                weight, witness = best_triple_advantage(profile, c, d)
                if weight > 0:
                    assert arcs[(c, d)] == (weight, witness)
                    assert best_advantage_exhaustive(profile, c, d, 3)[0] == weight
                else:
                    assert (c, d) not in arcs

    def test_k4_needs_opt_in(self, six_profile):
        with pytest.raises(GuardError, match="force"):
            kwise_digraph(six_profile, 4)

    def test_k4_matches_definition_when_forced(self):
        rng = np.random.default_rng(51)
        profile = random_profile(rng, 5, 6)
        arcs = arc_view(kwise_digraph(profile, 4, allow_exponential=True))
        for c, d in itertools.permutations(range(5), 2):
            best, _ = exhaustive_best(profile, c, d, 4)
            if best > 0:
                assert arcs[(c, d)][0] == best
            else:
                assert (c, d) not in arcs

    def test_zero_weight_arcs_excluded(self):
        # Opposite voters cancel pairwise, but a third candidate can still
        # lift a triple advantage: only (c1,c2) and (c3,c2) reach weight 1,
        # and their zero-weight reversals are excluded.
        profile = from_rankings(
            3, [Ranking([0, 1, 2]), Ranking([2, 1, 0])]
        )
        graph = kwise_digraph(profile, 3)
        assert arcs_one_based(graph) == {(1, 2): 1, (3, 2): 1}
        for (c, d), (weight, witness) in arc_view(graph).items():
            assert weight > 0
            assert setwise_advantage(profile, witness, c, d, 3) == weight


class TestSccDecompose:
    def test_six_profile_components(self, six_profile):
        order = scc_decompose(kwise_digraph(six_profile, 3))
        assert [mask_members(mask) for mask in order.components] == [
            (0,), (1,), (2, 3), (4, 5),
        ]
        assert order.order_unique
        assert order.largest == 2

    def test_arcless_graph(self):
        graph = digraph_of(3, 2, {})
        order = scc_decompose(graph)
        assert [mask_members(c) for c in order.components] == [(0,), (1,), (2,)]
        assert not order.order_unique

    def test_full_cycle_single_component(self):
        profile = from_rankings(
            3, [Ranking([0, 1, 2]), Ranking([1, 2, 0]), Ranking([2, 0, 1])]
        )
        order = scc_decompose(kwise_digraph(profile, 2))
        assert order.components == (full_mask(3),)
        assert order.order_unique

    def test_single_candidate(self):
        order = scc_decompose(digraph_of(1, 2, {}))
        assert order.components == (1,)
        assert order.order_unique

    def test_long_chain_within_recursion_limit(self):
        m = 3000
        assert m > sys.getrecursionlimit()
        path = {(c, c + 1): (1, 0b11 << c) for c in range(m - 1)}
        order = scc_decompose(digraph_of(m, 2, path))
        assert order.components == tuple(1 << c for c in range(m))
        assert order.order_unique
        cycle = {**path, (m - 1, 0): (1, 1 | 1 << (m - 1))}
        order = scc_decompose(digraph_of(m, 2, cycle))
        assert order.components == (full_mask(m),)

    def test_components_are_mutual_reachability_classes(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            m = int(rng.integers(1, 13))
            adjacent = rng.random((m, m)) < rng.uniform(0.05, 0.4)
            np.fill_diagonal(adjacent, False)
            arcs = {
                (int(c), int(d)): (1, 1 << int(c) | 1 << int(d))
                for c, d in zip(*np.nonzero(adjacent))
            }
            reach = adjacent | np.eye(m, dtype=bool)
            for via in range(m):  # Warshall's transitive closure
                reach |= reach[:, via : via + 1] & reach[via]
            order = scc_decompose(digraph_of(m, 2, arcs))
            classes = {mask_of(np.flatnonzero(reach[c] & reach[:, c]).tolist())
                       for c in range(m)}
            assert set(order.components) == classes
            assert order == tarjan_order(digraph_of(m, 2, arcs))
            position = component_index(order)
            assert all(position[c] <= position[d] for c, d in arcs)


    def test_order_matches_tarjan_oracle(self):
        # relabelled graphs, so member ids need not follow the order; dense
        # and sparse, with and without cycles
        rng = np.random.default_rng(62)
        for _ in range(60):
            m = int(rng.integers(2, 40))
            ranks = rng.permutation(m)
            forward = ranks[:, None] < ranks[None, :]
            adjacent = rng.random((m, m)) < rng.uniform(0.02, 0.6)
            back = rng.random((m, m)) < rng.uniform(0.0, 0.1)
            adjacent = adjacent & forward | back & ~forward
            np.fill_diagonal(adjacent, False)
            graph = digraph_of(m, 2, {
                (int(c), int(d)): (1, 1 << int(c) | 1 << int(d))
                for c, d in zip(*np.nonzero(adjacent))
            })
            assert scc_decompose(graph) == tarjan_order(graph)
        # successor rows of about and beyond 64 bits
        for m in (63, 64, 65, 130):
            adjacent = rng.random((m, m)) < 0.05
            np.fill_diagonal(adjacent, False)
            graph = digraph_of(m, 2, {
                (int(c), int(d)): (1, 1 << int(c) | 1 << int(d))
                for c, d in zip(*np.nonzero(adjacent))
            })
            assert scc_decompose(graph) == tarjan_order(graph)


class TestRowMasks:
    def test_round_trip(self):
        rng = np.random.default_rng(64)
        for m in (1, 8, 63, 64, 65, 130):
            bits = rng.random((6, m)) < 0.5
            bits[0] = True  # the top bit included
            bits[1] = False
            masks = _row_masks(bits)
            assert masks == [sum(1 << int(x) for x in np.flatnonzero(row)) for row in bits]
            assert masks[0] == full_mask(m) and masks[1] == 0
            assert np.array_equal(_mask_rows(masks, m), bits)
            assert _row_masks(bits.T) == _row_masks(bits.T.copy())  # strided
        assert _row_masks(np.zeros((0, 5), bool)) == []


class TestRefine:
    def test_six_profile_refinement(self, six_profile):
        graph = kwise_digraph(six_profile, 3)
        refined = refine_digraph(graph, six_profile)
        removed = set(arc_view(graph)) - set(arc_view(refined))
        assert removed == {(2, 3), (5, 4)}
        order = scc_decompose(refined)
        assert [mask_members(c) for c in order.components] == [
            (0,), (1,), (3,), (2,), (4,), (5,),
        ]
        assert order.order_unique
        result = partitioned_dp(six_profile, 3, order)
        assert result.rankings[0].to_one_based() == (1, 2, 4, 3, 5, 6)

    def test_acyclic_graph_unchanged(self):
        profile = Profile(4, [(Ranking([0, 1, 2, 3]), 5)])
        graph = kwise_digraph(profile, 3)
        assert arc_view(refine_digraph(graph, profile)) == arc_view(graph)

    def test_accumulation_guarded(self):
        # a digraph of the same candidates, refined against a profile whose
        # totals could overflow int64
        graph = kwise_digraph(Profile(4, [(Ranking([0, 1, 2, 3]), 5)]), 3)
        heavy = Profile(4, [(Ranking([0, 1, 2, 3]), 1 << 62), (Ranking([3, 2, 1, 0]), 1)])
        with pytest.raises(GuardError, match="64-bit accumulation"):
            refine_digraph(graph, heavy)

    def test_k4_refinement_guards_the_component(self):
        # one ballot ranks every x above x + 1, ..., 20, so every arc of the
        # cycle 0 -> 2 -> 1 -> 3 -> 4 -> ... -> 20 -> 0 has a unanimous
        # dominator of its pair besides the pair, which would leave at most
        # 20 candidates to search; the component still holds 21
        m = 21
        profile = Profile(m, [(Ranking(range(m)), 1)])
        cycle = [0, 2, 1, *range(3, m), 0]
        graph = digraph_of(m, 4, {
            (c, d): (1, mask_of([c, d])) for c, d in zip(cycle, cycle[1:])
        })
        with pytest.raises(GuardError, match="21 candidates, the pair included"):
            refine_digraph(graph, profile)

    def test_refined_solve_keeps_optimum(self):
        rng = np.random.default_rng(60)
        for _ in range(15):
            m = int(rng.integers(3, 9))
            profile = random_profile(rng, m, int(rng.integers(2, 12)))
            plain = dp_consensus(profile, 3).optimum
            assert solve(profile, 3, "pre-refined").optimum == plain


class TestRefineOracle:
    """`refine_digraph` against the per-arc loop it replaced."""

    @staticmethod
    def check_cli(capsys, tmp_path, profile, k):
        path = tmp_path / "profile.txt"
        path.write_text(serialize_profile(profile))
        argv = ["digraph", "--input", str(path), "--k", str(k), "--refine"]
        assert main(argv + ["--force-exponential"] * (k > 3)) == 0
        payload = json.loads(capsys.readouterr().out)
        graph = kwise_digraph(profile, k, allow_exponential=True)
        expected, order = refine_oracle(graph, profile)
        arcs = [
            (a["from"] - 1, a["to"] - 1, a["weight"], mask_of(x - 1 for x in a["witness"]))
            for a in payload["arcs"]
        ]
        assert arcs == [
            (c, d, weight, witness)
            for (c, d), (weight, witness) in arc_view(expected).items()
        ]
        components = [mask_of(c - 1 for c in ids) for ids in payload["components"]]
        assert tuple(components) == order.components
        assert payload["order_unique"] == order.order_unique
        return len(graph.arcs) - len(arcs)

    def test_cli_matches_oracle_on_sampled_profiles(self, capsys, tmp_path):
        removed = {2: 0, 3: 0}
        for m in (4, 8, 12, 20, 30):
            for phi in (0.5, 0.7, 0.85, 0.95):
                seed = 100 * m + int(phi * 100)
                profile = mallows_sample(MallowsParams(Ranking.identity(m), phi, 30, seed))
                for k in (2, 3):
                    removed[k] += self.check_cli(capsys, tmp_path, profile, k)
        assert removed[2] == 0  # every arc of kwise_digraph has a positive margin
        assert removed[3] > 0

    def test_cli_matches_oracle_at_large_m(self, capsys, tmp_path):
        for m, n, phi in ((60, 50, 0.8), (100, 60, 0.7)):
            profile = mallows_sample(MallowsParams(Ranking.identity(m), phi, n, m))
            for k in (2, 3):
                self.check_cli(capsys, tmp_path, profile, k)

    def test_cli_matches_oracle_at_k4(self, capsys, tmp_path):
        rng = np.random.default_rng(63)
        for m in (4, 5, 6, 7, 8):
            for k in sorted({4, m}):
                profile = random_profile(rng, m, int(rng.integers(3, 12)))
                self.check_cli(capsys, tmp_path, profile, k)

    def test_non_positive_margin_dropped_at_k2(self):
        # c1 ties c2 and c3 two to two; c2 beats c3 three to one
        profile = from_rankings(
            3, [Ranking(order) for order in ([0, 1, 2], [2, 1, 0], [0, 1, 2], [1, 2, 0])]
        )
        graph = digraph_of(3, 2, {
            (c, d): (1, 1 << c | 1 << d)
            for c, d in itertools.permutations(range(3), 2)
        })
        refined = refine_digraph(graph, profile)
        assert set(arc_view(refined)) == {(1, 2)}
        expected, order = refine_oracle(graph, profile)
        assert arc_view(refined) == arc_view(expected)
        assert refined.order == order == scc_decompose(refined)

    def test_inconsistent_digraph_raises_on_both_routes(self):
        # c1 tops every ballot, yet the hand-built arcs put it after {c2, c3}
        profile = Profile(3, [(Ranking([0, 1, 2]), 2), (Ranking([0, 2, 1]), 1)])
        graph = digraph_of(3, 3, {
            (1, 2): (1, 0b110), (2, 1): (1, 0b110), (1, 0): (1, 0b011),
        })
        with pytest.raises(InternalCheckError, match="overlap"):
            refine_digraph(graph, profile)
        with pytest.raises(InternalCheckError):
            refine_oracle(graph, profile)

    def test_hand_built_digraphs_match_oracle(self):
        rng = np.random.default_rng(64)
        raised = kept = 0
        for _ in range(80):
            m = int(rng.integers(2, 9))
            k = int(rng.integers(2, min(m, 4) + 1))
            profile = random_profile(rng, m, int(rng.integers(1, 8)))
            adjacent = rng.random((m, m)) < rng.uniform(0.2, 0.8)
            np.fill_diagonal(adjacent, False)
            arcs = {
                (c, d): (int(rng.integers(1, 9)), 1 << c | 1 << d)
                for c, d in zip(*(axis.tolist() for axis in np.nonzero(adjacent)))
            }
            graph = digraph_of(m, k, arcs)
            try:
                expected, order = refine_oracle(graph, profile)
            except InternalCheckError:
                with pytest.raises(InternalCheckError):
                    refine_digraph(graph, profile)
                raised += 1
                continue
            refined = refine_digraph(graph, profile)
            assert arc_view(refined) == arc_view(expected)
            assert refined.order == order
            kept += 1
        assert raised > 0 and kept > 0


class TestPartitionedDp:
    def test_six_profile_matches_plain_dp(self, six_profile):
        _, order = preprocess(six_profile, 3)
        result = partitioned_dp(six_profile, 3, order)
        plain = dp_consensus(six_profile, 3)
        assert result.optimum == plain.optimum
        consistent = {
            (1, 2, 3, 4, 5, 6),
            (1, 2, 3, 4, 6, 5),
            (1, 2, 4, 3, 5, 6),
            (1, 2, 4, 3, 6, 5),
        }
        assert result.rankings[0].to_one_based() in consistent

    def test_single_component_equals_dp(self):
        profile = from_rankings(
            3, [Ranking([0, 1, 2]), Ranking([1, 2, 0]), Ranking([2, 0, 1])]
        )
        order = scc_decompose(kwise_digraph(profile, 2))
        assert order.components == (full_mask(3),)
        result = partitioned_dp(profile, 2, order)
        plain = dp_consensus(profile, 2)
        assert result.optimum == plain.optimum
        assert result.rankings == plain.rankings

    def test_mallows_equivalence(self):
        for seed, phi in [(1, 0.5), (2, 0.8), (3, 0.95)]:
            for m in (6, 8, 10):
                profile = mallows_sample(
                    MallowsParams(Ranking.identity(m), phi, 30, seed)
                )
                plain = dp_consensus(profile, 3).optimum
                assert solve(profile, 3, "pre").optimum == plain
                assert solve(profile, 3, "pre-refined").optimum == plain

    def test_component_validation(self, six_profile):
        with pytest.raises(ValueError):
            partitioned_dp(six_profile, 3, SccOrder((mask_of([0, 1]),), True))
        with pytest.raises(ValueError):
            partitioned_dp(
                six_profile,
                3,
                SccOrder((mask_of([0, 1, 2]), mask_of([2, 3, 4, 5])), True),
            )

    def test_enumeration_via_limit(self, six_profile):
        _, order = preprocess(six_profile, 3)
        result = partitioned_dp(six_profile, 3, order, limit=100)
        assert result.count == len(result.rankings)
        for ranking in result.rankings:
            assert profile_distance(ranking, six_profile, 3) == result.optimum

    def test_consistency_when_order_is_forced(self):
        # When the component order is unique and every cross-component pair
        # has a strictly positive advantage on all contest sets, every
        # optimal ranking respects the component order.
        rng = np.random.default_rng(70)
        checked = 0
        for _ in range(60):
            m = int(rng.integers(3, 6))
            profile = random_profile(rng, m, int(rng.integers(2, 9)))
            graph, order = preprocess(profile, 3)
            if not order.order_unique or len(order.components) < 2:
                continue
            comp_of = component_index(order)
            strict = True
            for c, d in itertools.permutations(range(m), 2):
                if comp_of[c] < comp_of[d]:
                    reverse_max, _ = best_advantage_exhaustive(profile, d, c, 3)
                    if reverse_max >= 0:  # min advantage of (c, d) not positive
                        strict = False
                        break
            if not strict:
                continue
            checked += 1
            for ranking in enumerate_consensus(profile, 3).rankings:
                positions = [comp_of[c] for c in ranking.order]
                assert positions == sorted(positions)
        assert checked >= 5


class TestSolvePreprocessed:
    def test_tension_profile(self, tension_profile):
        result = solve(tension_profile, 3, "pre")
        assert result.optimum == 201
        assert result.rankings[0].to_one_based() == (1, 2, 3)

    def test_matches_dp_on_random_profiles(self):
        rng = np.random.default_rng(90)
        for _ in range(25):
            m = int(rng.integers(2, 10))
            profile = random_profile(rng, m, int(rng.integers(1, 14)))
            expected = dp_consensus(profile, 3 if m >= 3 else 2).optimum
            k = 3 if m >= 3 else 2
            assert solve(profile, k, "pre").optimum == expected
            assert solve(profile, k, "pre-refined").optimum == expected

    def test_k4_requires_opt_in(self, six_profile):
        with pytest.raises(GuardError):
            solve(six_profile, 4, "pre")
        result = solve(six_profile, 4, "pre", allow_exponential=True)
        assert result.optimum == dp_consensus(six_profile, 4).optimum


class TestSolve:
    def test_limit_counts_in_every_mode(self):
        rng = np.random.default_rng(91)
        for _ in range(15):
            m = int(rng.integers(3, 8))
            profile = random_profile(rng, m, int(rng.integers(1, 10)))
            exact = enumerate_consensus(profile, 3).count
            assert solve(profile, 3, "dp", limit=1).count == exact
            assert solve(profile, 3, "brute", limit=1).count == exact
            for mode, refine in (("pre", False), ("pre-refined", True)):
                _, order = preprocess(profile, 3, refine)
                result = solve(profile, 3, mode, limit=1)
                assert result.count == partitioned_dp(profile, 3, order).count
                assert result.stats.largest_component == order.largest

    def test_component_cap_applies_to_solved_components(self):
        # 60 candidates: far above the 2^m cap, yet every refined component
        # is small enough for the DP
        sigma = Ranking.identity(60)
        profile = mallows_sample(MallowsParams(sigma, 0.8, 50, 60))
        result = solve(profile, 3, "pre-refined")
        assert result.stats.largest_component <= 30
        assert profile_distance(result.rankings[0], profile, 3) == result.optimum
        with pytest.raises(GuardError, match="m=60 exceeds the 2\\^m state cap"):
            solve(profile, 3, "dp")

    def test_largest_component_of_plain_modes(self, six_profile):
        for mode in ("brute", "dp"):
            assert solve(six_profile, 3, mode).stats.largest_component == 6

    def test_unknown_mode_rejected(self, six_profile):
        with pytest.raises(ValueError, match="unknown solver mode"):
            solve(six_profile, 3, "fastest")


class TestOneCandidate:
    def test_no_contest_for_any_k(self):
        profile = Profile(1, [(Ranking([0]), 3)])
        only = Ranking([0])
        for k in (2, 3, 5):
            assert kwise_distance(only, only, k, BinomialPrefixTable(1, k)) == 0
            assert kwise_distance_naive(only, only, k) == 0
            assert profile_distance(only, profile, k) == 0
        for k in (2, 3):
            graph = kwise_digraph(profile, k)
            assert arc_view(graph) == {}
            assert scc_decompose(graph).components == (1,)
            refined, order = preprocess(profile, k, refine=True)
            assert arc_view(refined) == {} and order.components == (1,)


class TestDotExport:
    def test_plain_rendering_is_stable(self, six_profile):
        graph = kwise_digraph(six_profile, 2)
        dot = to_dot(graph)
        assert dot.startswith("digraph majority {\n  rankdir=LR;\n  c1;\n")
        assert '  c4 -> c3 [label="2"];' in dot
        assert dot == to_dot(kwise_digraph(six_profile, 2))

    def test_clustered_rendering(self, six_profile):
        graph, order = preprocess(six_profile, 3)
        dot = to_dot(graph, order)
        assert "subgraph cluster_2 {" in dot
        assert '    label="B3";' in dot
        lines = dot.splitlines()
        edge_lines = [ln for ln in lines if "->" in ln]
        assert edge_lines == sorted(edge_lines)
