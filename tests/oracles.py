"""Scalar reference oracles that only the tests use.

Each one computes a quantity of the paper from its definition, one voter
group at a time, so the array routes of the library can be checked
against it.
"""

from kwise_kemeny import BinomialPrefixTable, Profile


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
