"""Reference oracles that only the tests use.

The scalar ones compute a quantity of the paper from its definition, one
voter group at a time, so the array routes of the library can be checked
against them.  The others are array routes the library replaced, kept so
that the routes replacing them can be checked for equal results.
"""

import itertools
import math

import numpy as np

from kwise_kemeny import (
    BinomialPrefixTable,
    GuardError,
    Profile,
    Ranking,
    full_mask,
    mask_members,
    solver,
)
from kwise_kemeny.core import Mask, validate_k
from kwise_kemeny.distance import _check_same_m
from kwise_kemeny.majority import EXHAUSTIVE_FREE_BOUND, _check_forced
from kwise_kemeny.solver import _layers, _other_bits, _subset_weights


def from_rankings(m: int, rankings) -> Profile:
    """The profile of ``rankings``, one voter each."""
    return Profile(m, [(ranking, 1) for ranking in rankings])


def dict_merged_groups(groups) -> tuple:
    """The canonical (ranking, count) groups of ``groups`` as ``Profile``
    built them before it sorted order matrices: identical rankings merged
    in a dict, the merged groups sorted by their order tuples."""
    merged = {}
    for ranking, count in groups:
        merged[ranking] = merged.get(ranking, 0) + count
    return tuple(sorted(merged.items(), key=lambda group: group[0].order))


# Enumeration budget for the naive subset walk.
_NAIVE_M_SMALL_K = 20
_NAIVE_M_LARGE_K = 15


def kwise_distance_naive(r: Ranking, r2: Ranking, k: int) -> int:
    """The k-wise distance by enumerating every subset of size 2..k."""
    m = _check_same_m(r, r2)
    validate_k(m, k)
    limit = _NAIVE_M_SMALL_K if k <= 5 else _NAIVE_M_LARGE_K
    if m > limit:
        raise GuardError(
            f"naive subset enumeration refused: m={m} exceeds the bound "
            f"(m <= {_NAIVE_M_SMALL_K} for k <= 5, m <= {_NAIVE_M_LARGE_K} otherwise)"
        )
    pos1, pos2 = r.inverse, r2.inverse
    count = 0
    for size in range(2, min(k, m) + 1):
        for combo in itertools.combinations(range(m), size):
            top1 = min(combo, key=pos1.__getitem__)
            top2 = min(combo, key=pos2.__getitem__)
            if top1 != top2:
                count += 1
    return count


def _check_pair_in_subset(subset: int, winner: int, loser: int) -> None:
    if winner == loser:
        raise ValueError("candidates must be distinct")
    if not (subset >> winner & 1 and subset >> loser & 1):
        raise ValueError("both candidates must belong to the contest set")


def setwise_support(
    profile: Profile,
    subset: int,
    winner: int,
    loser: int,
    k: int,
    table: BinomialPrefixTable | None = None,
) -> int:
    """Number of (voter, set) pairs where ``winner`` tops a subset of
    ``subset`` of size at most k containing both candidates.

    A voter preferring the winner to the loser tops every such set whose
    further members come from the winner's dominated members of
    ``subset``; at k = 3 that is the pair itself plus one set per dominated
    member.
    """
    _check_pair_in_subset(subset, winner, loser)
    if table is None:  # sets larger than m do not exist, so k > m counts as m
        table = BinomialPrefixTable(profile.m, min(k, profile.m))
    rest = subset & ~(1 << winner | 1 << loser)
    total = 0
    for ranking, count in profile.groups:
        if ranking.inverse[winner] < ranking.inverse[loser]:
            pool = (ranking.below_set(winner) & rest).bit_count()
            total += count * table.prefix_below(pool)
    return total


def setwise_advantage(profile: Profile, subset: int, c: int, d: int, k: int) -> int:
    """Net advantage of c over d on contest sets within ``subset``."""
    table = BinomialPrefixTable(profile.m, k)
    return setwise_support(profile, subset, c, d, k, table) - setwise_support(
        profile, subset, d, c, k, table
    )


def best_advantage_exhaustive(
    profile: Profile,
    c: int,
    d: int,
    k: int,
    forced_in: Mask = 0,
    forced_out: Mask = 0,
) -> tuple[int, Mask]:
    """Maximal k-wise advantage by enumerating every admissible contest set.

    Deciding whether the maximum is positive is NP-hard for k >= 4, so the
    number of free candidates is guarded; the search is exact within the
    bound.  Ties resolve to the smallest witness in subset-mask order.
    """
    m = profile.m
    if c == d:
        raise ValueError("candidates must be distinct")
    _check_forced(c, d, forced_in, forced_out)
    if m - forced_in.bit_count() - forced_out.bit_count() > EXHAUSTIVE_FREE_BOUND:
        raise GuardError(
            "exhaustive witness search refused: "
            f"{m} candidates minus {forced_in.bit_count()} forced-in and "
            f"{forced_out.bit_count()} forced-out exceeds the bound of "
            f"{EXHAUSTIVE_FREE_BOUND} (the maximization is NP-hard for k >= 4)"
        )
    validate_k(m, k)
    table = BinomialPrefixTable(m, k)
    lookup = table.as_array()
    free = mask_members(full_mask(m) & ~(1 << c | 1 << d | forced_in | forced_out))
    subsets = np.arange(1 << len(free), dtype=np.uint32)
    advantage = np.zeros(len(subsets), dtype=np.int64)
    fixed_members = forced_in
    for ranking, count in profile.groups:
        if ranking.inverse[c] < ranking.inverse[d]:
            sign, pool = count, ranking.below_set(c)
        else:
            sign, pool = -count, ranking.below_set(d)
        base = (pool & fixed_members).bit_count()
        local = 0
        for j, x in enumerate(free):
            if pool >> x & 1:
                local |= 1 << j
        pools = np.bitwise_count(subsets & np.uint32(local)).astype(np.int64) + base
        advantage += sign * lookup[pools]
    best = int(np.argmax(advantage))
    witness = 1 << c | 1 << d | forced_in
    for j, x in enumerate(free):
        if best >> j & 1:
            witness |= 1 << x
    return int(advantage[best]), witness


def binary_moment_costs(counts, k, candidates, context, dtype):
    """The cost rows of ``solver._moment_costs`` in binary order: row j over
    the subsets of the other members, packed as in ``_other_bits``, filled
    by subset-sum doubling over all of them at once."""
    nloc = len(candidates)
    cand = np.array(candidates, dtype=np.intp)
    pool = np.concatenate((cand, np.array(mask_members(context), dtype=np.intp)))
    a = counts.above.T[cand[:, None], pool]  # a[j, x]: voters preferring x to j
    base = a[:, nloc:].sum(axis=1)
    linear = a[:, :nloc]
    if k == 3:
        union = counts.n - counts.joint[cand][:, pool][:, :, pool]
        to_ctx = union[:, :, nloc:].sum(axis=2)
        # sum_{x<y in C} u = (sum_{x,y in C} u - sum_{x in C} a[x]) / 2
        base += (to_ctx[:, nloc:].sum(axis=1) - base) // 2
        linear = linear + to_ctx[:, :nloc]
    cost = np.empty((nloc, 1 << (nloc - 1)), dtype=dtype, order="F")
    cost[:, 0] = base
    if nloc == 1:
        return cost
    rows = np.arange(nloc)[:, None]
    others = _other_bits(nloc)
    linear = linear[rows, others].astype(dtype)
    if k == 3:
        # unions[j, i, b]: u[x_i, x_b] over the members other than j
        unions = union[rows[:, :, None], others[:, :, None], others[:, None, :]]
        unions = unions.astype(dtype)
    for i in range(nloc - 1):
        low, block = cost[:, : 1 << i], cost[:, 1 << i : 2 << i]
        if k == 3 and i:
            # block[T] = sum_{y in T} u[x_i, y] over T within the lower bits
            block[:, 0] = 0
            weights = unions[:, i, :i]
            for bit in range(i):
                np.add(
                    block[:, : 1 << bit],
                    weights[:, bit : bit + 1],
                    out=block[:, 1 << bit : 2 << bit],
                )
            block += low
        else:
            block[:] = low
        block += linear[:, i : i + 1]
    return cost


def block_index(nloc):
    """Per entry of a cost table in block order, its flat index in the
    state-major binary table (``binary.T.flat``), built through the views
    of ``solver._cost_regions`` as ``_subset_sum_costs`` builds its chunk
    permutation: chunk A holds the low members' rows of the high parts 2A
    and 2A + 1 (the low plan's ``packed * nloc + j`` of ``_run_order``, the
    second row a high bit further), then the runs of the high members over
    rest A (the low states), at A times the chunk's size."""
    low = min(nloc, solver._SMALL_PLAN)
    own, order, _, _ = solver._run_order(nloc, low)
    if nloc == low:
        return own
    index = np.empty(nloc << (nloc - 1), np.intp)
    rows, runs = solver._cost_regions(index, nloc)
    rows[:] = own, own + (nloc << low - 1)
    runs[:] = order * nloc + np.arange(low, nloc)[:, None]
    chunks = index.reshape(len(rows), -1)
    chunks += np.arange(len(rows))[:, None] * chunks.shape[1]
    return index


def _members(size):
    """The nloc of a cost table of ``size`` entries, nloc * 2^(nloc - 1)."""
    nloc = 1
    while nloc << (nloc - 1) < size:
        nloc += 1
    return nloc


def binary_costs(table):
    """The costs of a ``DpTable`` (or of a cost table in block order) as
    binary rows: ``[j, packed]``, the cost of placing member j first above
    the other members in ``packed`` (``_other_bits``)."""
    cost = getattr(table, "cost", table)
    nloc = _members(len(cost))
    binary = np.empty_like(cost)
    binary[block_index(nloc)] = cost
    return binary.reshape(-1, nloc).T


def block_costs(binary):
    """Binary cost rows ``[j, packed]`` as a cost table in block order."""
    return np.ascontiguousarray(binary.T).reshape(-1)[block_index(binary.shape[0])]


def dense_subset_sum_costs(counts, k, candidates, context, dtype):
    """The cost rows of ``solver._subset_sum_costs`` with every bit of the
    superset-sum done by dense doubling passes: per distinct beta, a
    histogram of the groups' below-sets, its superset-sum, scaled by h;
    then a subset-sum of the total."""
    nloc = len(candidates)
    h = _subset_weights(counts.m, k).astype(dtype)
    pos = counts.positions[:, list(candidates)]
    below = pos[:, _other_bits(nloc)] > pos[:, :, None]  # [g, j, bit]
    masks = (below << np.arange(nloc - 1)).sum(axis=2)
    ctx = counts.positions[:, mask_members(context)]
    beta = (ctx[:, None, :] > pos[:, :, None]).sum(axis=2)
    rows = np.broadcast_to(np.arange(nloc), masks.shape)
    weights = np.broadcast_to(counts.counts.astype(dtype)[:, None], masks.shape)
    size = np.bitwise_count(np.arange(1 << (nloc - 1)))
    total = np.zeros((len(size), nloc), dtype=dtype)  # state-major: total[T, j]
    for value in set(beta.ravel().tolist()):
        part = np.zeros_like(total)
        chosen = beta == value
        np.add.at(part, (masks[chosen], rows[chosen]), weights[chosen])
        for i in range(nloc - 1):  # superset-sum, one doubling step per bit
            pairs = part.reshape(-1, 2, nloc << i)
            pairs[:, 0] += pairs[:, 1]
        total += part * h[size, value, None]
    for i in range(nloc - 1):  # subset-sum
        pairs = total.reshape(-1, 2, nloc << i)
        pairs[:, 1] += pairs[:, 0]
    return (counts.n * h[0, size + context.bit_count(), None] - total).T


def prefers_by_positions(positions):
    """``PairCounts.prefers`` compared in the positions' own dtype:
    ``[g, c, x]`` is whether group g ranks c above x."""
    return positions[:, :, None] < positions[:, None, :]


def second_walk_count(table):
    """The optimum count of a ``DpTable`` by a second walk of the layer
    plans, bottom-up over every state: a state's count sums those of its
    slots whose value plus cost meets its own (the count the DP walk took
    before counting moved to the tight states)."""
    nloc, values = len(table.candidates), table.values
    cost = binary_costs(table).T.reshape(-1)
    counts = np.ones(nloc, dtype=np.int64)  # layer 1: one order per state
    for level, (states, (previous, member)) in enumerate(_layers(nloc)[1:], 2):
        if math.factorial(level) >= 1 << 63:
            counts = counts.astype(object)
        rest = states ^ 1 << member
        packed = rest & (1 << member) - 1 | rest >> 1 & -(1 << member)
        allowed = values[rest] + cost[packed * nloc + member] == values[states]
        counts = np.where(allowed, counts[previous], 0).sum(axis=0)
    return int(counts[0])
