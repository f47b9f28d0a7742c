"""Reference oracles that only the tests use.

The scalar ones compute a quantity of the paper from its definition, one
voter group at a time, so the array routes of the library can be checked
against them.  The others are array routes the library replaced, kept so
that the routes replacing them can be checked for equal results.
"""

import math

import numpy as np

from kwise_kemeny import BinomialPrefixTable, Profile, mask_members
from kwise_kemeny.solver import _layers, _other_bits, _subset_weights


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
        if ranking.prefers(winner, loser):
            pool = (ranking.below_set(winner) & rest).bit_count()
            total += count * table.prefix_below(pool)
    return total


def setwise_advantage(profile: Profile, subset: int, c: int, d: int, k: int) -> int:
    """Net advantage of c over d on contest sets within ``subset``."""
    table = BinomialPrefixTable(profile.m, k)
    return setwise_support(profile, subset, c, d, k, table) - setwise_support(
        profile, subset, d, c, k, table
    )


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
    counts = np.ones(nloc, dtype=np.int64)  # layer 1: one order per state
    for level, (states, (previous, flat)) in enumerate(_layers(nloc)[1:], 2):
        if math.factorial(level) >= 1 << 63:
            counts = counts.astype(object)
        rest = values[states ^ 1 << flat % nloc]
        allowed = rest + table.cost.T.flat[flat] == values[states]
        counts = np.where(allowed, counts[previous], 0).sum(axis=0)
    return int(counts[0])
