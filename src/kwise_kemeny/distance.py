"""Setwise generalizations of the Kendall tau distance.

The k-wise Kendall tau distance between two rankings counts the subsets of
candidates of size at most k whose top choice differs between the rankings
(singletons and the empty set never disagree, so sizes 2..k matter).  For
k = 2 this is the classic Kendall tau.  Two routes are provided: a direct
enumeration over subsets (`kwise_distance_naive`, the reference oracle) and
an O(m^3) closed form (`kwise_distance`) that counts, for every pair ordered
oppositely by the two rankings, the subsets the pair tops together.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import GuardError, Profile, Ranking, validate_k

# Enumeration budget for the naive subset walk.
_NAIVE_M_SMALL_K = 20
_NAIVE_M_LARGE_K = 15


class BinomialPrefixTable:
    """Prefix sums of binomial coefficients shared by the setwise formulas.

    Entry ``p`` holds sum_{i=0}^{k-2} C(p, i) for p in 0..m-2, i.e. the
    number of ways to extend a fixed disagreeing pair with at most k-2
    further candidates drawn from a pool of size p.  Built row by row with
    Pascal's rule in O(mk).
    """

    __slots__ = ("m", "k", "_prefix")

    def __init__(self, m: int, k: int):
        if m < 2:
            raise ValueError("table requires at least two candidates")
        validate_k(m, k)
        cap = k - 2
        # row[i] = C(p, i) for i <= cap, updated in place per Pascal's rule
        row = [0] * (cap + 1)
        row[0] = 1
        prefix = [1]  # p = 0: only the empty extension
        for p in range(1, m - 1):
            for i in range(min(p, cap), 0, -1):
                row[i] += row[i - 1]
            prefix.append(sum(row))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_prefix", tuple(prefix))

    def __setattr__(self, name, value):
        raise AttributeError("BinomialPrefixTable is immutable")

    def prefix_below(self, pool: int) -> int:
        """sum_{i=0}^{k-2} C(pool, i); ``pool`` must lie in [0, m-2]."""
        return self._prefix[pool]

    def as_array(self) -> np.ndarray:
        return np.array(self._prefix, dtype=np.int64)


def _check_same_m(r: Ranking, r2: Ranking) -> int:
    if r.m != r2.m:
        raise ValueError(f"rankings disagree on m: {r.m} vs {r2.m}")
    return r.m


def kendall_tau(r: Ranking, r2: Ranking) -> int:
    """Number of candidate pairs ordered oppositely by ``r`` and ``r2``."""
    m = _check_same_m(r, r2)
    count = 0
    # inversions of r2-positions read in r-order
    seq = [r2.inverse[c] for c in r.order]
    for i in range(m):
        si = seq[i]
        for j in range(i + 1, m):
            if seq[j] < si:
                count += 1
    return count


def kwise_distance_naive(r: Ranking, r2: Ranking, k: int) -> int:
    """Reference oracle: enumerate every subset of size 2..k directly."""
    import itertools

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
    for size in range(2, k + 1):
        for combo in itertools.combinations(range(m), size):
            top1 = min(combo, key=pos1.__getitem__)
            top2 = min(combo, key=pos2.__getitem__)
            if top1 != top2:
                count += 1
    return count


def kwise_distance(
    r: Ranking, r2: Ranking, k: int, table: BinomialPrefixTable
) -> int:
    """k-wise Kendall tau distance via the closed form.

    For each pair (c, c') with c above c' in ``r`` but below in ``r2``, the
    disagreeing subsets are {c, c'} plus at most k-2 candidates ranked below
    c in ``r`` and below c' in ``r2``; the prefix table counts them.
    """
    m = _check_same_m(r, r2)
    validate_k(m, k)
    if table.m != m or table.k != k:
        raise ValueError(
            f"binomial table built for (m={table.m}, k={table.k}), "
            f"needed (m={m}, k={k})"
        )
    below1 = [r.below_set(c) for c in range(m)]
    below2 = [r2.below_set(c) for c in range(m)]
    pos1, pos2 = r.inverse, r2.inverse
    total = 0
    for c in range(m):
        b1 = below1[c]
        for c2 in range(m):
            if c2 == c:
                continue
            if pos1[c] < pos1[c2] and pos2[c2] < pos2[c]:
                total += table.prefix_below((b1 & below2[c2]).bit_count())
    return total


def profile_distance(r: Ranking, profile: Profile, k: int) -> int:
    """Multiplicity-weighted sum of k-wise distances from ``r`` to a profile."""
    if r.m != profile.m:
        raise ValueError(f"ranking has m={r.m}, profile has m={profile.m}")
    table = BinomialPrefixTable(profile.m, k)
    return sum(
        count * kwise_distance(r, other, k, table)
        for other, count in profile.groups
    )


def position_weighted_kendall_tau(
    r: Ranking, r2: Ranking, weights: Sequence[float]
) -> float:
    """Kendall tau with position-dependent swap costs.

    ``weights[i]`` is the cost of swapping the candidates at positions i and
    i+1 (1-based positions i+1 and i+2); ``weights[0]`` must be 1.  Each
    discordant pair contributes the product of the two candidates' average
    displacement costs.  A candidate whose position coincides in both
    rankings contributes the weight at that position (continuity limit of
    the displacement ratio).  With all weights equal to 1 this reduces to
    the plain Kendall tau distance.
    """
    m = _check_same_m(r, r2)
    if len(weights) != m:
        raise ValueError(f"expected {m} weights, got {len(weights)}")
    if not math.isclose(weights[0], 1.0):
        raise ValueError("the first weight must be 1")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    # prefix[i] = w_1 + ... + w_i with 1-based rank i
    prefix = [0.0]
    for w in weights:
        prefix.append(prefix[-1] + w)

    def displacement_cost(c: int) -> float:
        i = r.inverse[c] + 1
        j = r2.inverse[c] + 1
        if i == j:
            return weights[i - 1]
        return (prefix[i] - prefix[j]) / (i - j)

    pos1, pos2 = r.inverse, r2.inverse
    total = 0.0
    for c in range(m):
        for c2 in range(c + 1, m):
            if (pos1[c] < pos1[c2]) != (pos2[c] < pos2[c2]):
                total += displacement_cost(c) * displacement_cost(c2)
    return total
