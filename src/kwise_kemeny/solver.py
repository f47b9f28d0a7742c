"""Exact consensus-ranking solvers.

Two independent routes compute a ranking minimizing the k-wise distance to a
profile: full enumeration of the m! rankings (`brute_force_consensus`, the
oracle, guarded at m <= 8) and a dynamic program over candidate subsets
(O(2^m m^2 n)).  The DP peels the first-placed candidate: the optimal cost
of ordering a subset S is the best, over c in S, of the cost of placing c
above the rest plus the optimal cost of S without c.

`build_dp_table` also accepts a *context* mask of candidates known to be
ranked below every candidate of S; placement costs are then charged against
the restriction to S plus the context.  `solve_components` is the one loop
that runs the DP: it solves an ordered partition of the candidates piece by
piece, each with the later pieces as context, and concatenates the pieces'
optimal orders.  `dp_consensus` and `enumerate_consensus` call it with the
whole candidate set as a single piece; the component-wise solver in
:mod:`kwise_kemeny.majority` calls it with the strongly connected components.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    GuardError,
    MAX_CANDIDATES,
    Mask,
    Profile,
    Ranking,
    full_mask,
    mask_members,
    popcount_array,
    validate_k,
)
from .distance import BinomialPrefixTable

BRUTE_FORCE_MAX_M = 8
DEFAULT_ENUMERATION_LIMIT = 10_000

_INF = np.int64(1) << np.int64(62)


@dataclass(frozen=True)
class SolveStats:
    """Work counters for one solve: DP states (or rankings) expanded, wall
    time, and the size of the largest candidate set solved as one piece."""

    states: int
    millis: float
    largest_component: int


@dataclass(frozen=True)
class ConsensusResult:
    """Optimum value plus the optimal rankings a solver materialized.

    ``count`` is the number of optimal rankings the solver established in
    its search space (the number reported when optima are not counted, as
    by the plain DP; the exact total for enumeration, brute force and the
    component-wise solver).
    ``rankings`` holds the ones actually built; ``truncated`` marks that
    the list is known to omit further optimal rankings.
    """

    optimum: int
    rankings: tuple[Ranking, ...]
    count: int
    truncated: bool
    stats: SolveStats


@dataclass(frozen=True)
class DpTable:
    """Subset table of the consensus dynamic program.

    ``values[S]`` is the optimal restricted cost for the local submask ``S``
    (bit j of ``S`` stands for ``candidates[j]``); ``argmin[S]`` is the
    bitmask of candidates that can be placed first at no extra cost.
    """

    candidates: tuple[int, ...]
    context: Mask
    values: np.ndarray
    argmin: np.ndarray

    @property
    def optimum(self) -> int:
        return int(self.values[-1])


def placement_cost(
    subset: Mask,
    candidate: int,
    profile: Profile,
    k: int,
    table: BinomialPrefixTable,
    context: Mask = 0,
) -> int:
    """Cost of ranking ``candidate`` first among ``subset`` (plus context).

    Sums, over every voter and every candidate c' that the voter prefers to
    ``candidate`` within the restriction, the number of subsets of size at
    most k that ``candidate`` would top while the voter tops them with c'.
    One O(m) scan of each voter group.
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


def _cumulative_cost_table(table: BinomialPrefixTable, m: int) -> np.ndarray:
    """``G[s, q]``: cost of q restriction members above the placed candidate.

    G(s, q) = sum_{p=1..q} F(s - p - 1) where s is the restriction size and
    F the binomial prefix sum; rows/cols outside q <= s - 1 are unused.
    """
    F = table.as_array()  # F[p], p in 0..m-2
    H = np.zeros(m, dtype=np.int64)
    H[1:] = np.cumsum(F[: m - 1])
    G = np.zeros((m + 1, m + 1), dtype=np.int64)
    for s in range(1, m + 1):
        q = np.arange(s)
        G[s, :s] = H[s - 1] - H[s - 1 - q]
    return G


def build_dp_table(
    profile: Profile, k: int, subset: Mask | None = None, context: Mask = 0
) -> DpTable:
    """Run the subset DP over ``subset`` (default: all candidates)."""
    m = profile.m
    if subset is None:
        subset = full_mask(m)
    if subset & context:
        raise ValueError("subset and context must be disjoint")
    candidates = mask_members(subset)
    nloc = len(candidates)
    if nloc == 0:
        raise ValueError("empty subset")
    if m > MAX_CANDIDATES or nloc > MAX_CANDIDATES:
        raise GuardError(
            f"subset DP refused: m={m} exceeds the 2^m state cap "
            f"(m <= {MAX_CANDIDATES})"
        )
    validate_k(m, k)
    # costs accumulate in int64; a profile contributes at most n * 2^m
    if profile.n << m >= 1 << 62:
        raise GuardError(
            f"disagreement totals for n={profile.n}, m={m} would overflow "
            "64-bit accumulation"
        )
    table = BinomialPrefixTable(m, k)
    groups = profile.groups
    n_groups = len(groups)
    b = context.bit_count()

    # Per (group, local candidate): the locally-compressed mask of subset
    # members the group ranks above it, and the count of context members
    # above it (a constant shift of the restriction rank).
    above_local = np.zeros((n_groups, nloc), dtype=np.uint32)
    above_fixed = np.zeros((n_groups, nloc), dtype=np.int64)
    for g, (ranking, _) in enumerate(groups):
        for j, c in enumerate(candidates):
            above = ranking.above_set(c)
            above_fixed[g, j] = (above & context).bit_count()
            local = 0
            for jj, cc in enumerate(candidates):
                if above >> cc & 1:
                    local |= 1 << jj
            above_local[g, j] = local

    counts = profile.counts_array()
    G = _cumulative_cost_table(table, m)
    G_flat = G.ravel()
    stride = m + 1

    size = 1 << nloc
    masks = np.arange(size, dtype=np.uint32)
    local_sizes = popcount_array(masks).astype(np.int64)
    row_base = (local_sizes + b) * stride

    cost = np.zeros((nloc, size), dtype=np.int64)
    for j in range(nloc):
        acc = cost[j]
        for g in range(n_groups):
            q = popcount_array(masks & above_local[g, j]).astype(np.int64)
            acc += counts[g] * G_flat[row_base + q + above_fixed[g, j]]

    values = np.zeros(size, dtype=np.int64)
    argmin = np.zeros(size, dtype=np.uint32)
    bit_weights = np.uint32(1) << np.arange(nloc, dtype=np.uint32)
    layer_of = np.argsort(local_sizes, kind="stable")
    layer_counts = np.bincount(local_sizes, minlength=nloc + 1)
    offsets = np.concatenate(([0], np.cumsum(layer_counts)))
    for level in range(1, nloc + 1):
        states = layer_of[offsets[level] : offsets[level + 1]]
        totals = np.full((len(states), nloc), _INF, dtype=np.int64)
        for j in range(nloc):
            in_set = (states >> j) & 1 == 1
            idx = states[in_set]
            totals[in_set, j] = values[idx ^ (1 << j)] + cost[j][idx]
        best = totals.min(axis=1)
        values[states] = best
        minimal = totals == best[:, None]
        argmin[states] = (minimal * bit_weights).sum(axis=1).astype(np.uint32)
    return DpTable(candidates, context, values, argmin)


def count_table_optima(table: DpTable) -> int:
    """Exact number of distinct optimal orders encoded by the argmin sets."""
    size = len(table.argmin)
    counts = [0] * size
    counts[0] = 1
    argmin = table.argmin
    for state in range(1, size):
        choices = int(argmin[state])
        total = 0
        while choices:
            low = choices & -choices
            total += counts[state ^ low]
            choices ^= low
        counts[state] = total
    return counts[size - 1]


def enumerate_table_orders(table: DpTable, limit: int) -> list[tuple[int, ...]]:
    """Up to ``limit`` optimal orders, in peel-lexicographic order."""
    results: list[tuple[int, ...]] = []
    full = len(table.values) - 1
    stack: list[tuple[int, tuple[int, ...]]] = [(full, ())]
    while stack and len(results) < limit:
        state, prefix = stack.pop()
        if state == 0:
            results.append(prefix)
            continue
        choices = int(table.argmin[state])
        branches = []
        while choices:
            low = choices & -choices
            j = low.bit_length() - 1
            branches.append((state ^ low, prefix + (table.candidates[j],)))
            choices ^= low
        stack.extend(reversed(branches))
    return results


def _elapsed_ms(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


def solve_components(
    profile: Profile,
    k: int,
    components: tuple[Mask, ...],
    limit: int | None = None,
    count_optima: bool = False,
) -> ConsensusResult:
    """Subset DP over an ordered partition of the candidates.

    Each component is solved with every later component fixed below it, and
    the optimal orders of the pieces are concatenated.  ``limit=None``
    reports one ranking (the lowest-id choice at every step); otherwise up
    to ``limit`` rankings in peel-lexicographic order.  With
    ``count_optima`` the result's ``count`` is the exact number of optimal
    rankings consistent with the component order; without it, the number
    of rankings reported.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    started = time.perf_counter()
    m = profile.m
    if m == 1:  # one ranking, no contest of two candidates
        stats = SolveStats(1, _elapsed_ms(started), 1)
        return ConsensusResult(0, (Ranking.identity(1),), 1, False, stats)
    union = 0
    for mask in components:
        if union & mask:
            raise ValueError("components overlap")
        union |= mask
        # a lone component is the whole set, which build_dp_table guards
        if len(components) > 1 and mask.bit_count() > MAX_CANDIDATES:
            raise GuardError(
                f"component of size {mask.bit_count()} exceeds the DP cap "
                f"({MAX_CANDIDATES})"
            )
    if union != full_mask(m):
        raise ValueError("components do not partition the candidate set")

    optimum = states = 0
    count = 1
    pieces: list[list[tuple[int, ...]]] = []
    later = union  # candidates of the components not yet solved
    for component in components:
        later ^= component
        table = build_dp_table(profile, k, subset=component, context=later)
        optimum += table.optimum
        states += len(table.values)
        if count_optima:
            count *= count_table_optima(table)
        pieces.append(enumerate_table_orders(table, limit or 1))
    rankings = tuple(
        Ranking([c for piece in combo for c in piece])
        for combo in itertools.islice(itertools.product(*pieces), limit or 1)
    )
    if not count_optima:
        count = len(rankings)
    largest = max(mask.bit_count() for mask in components)
    stats = SolveStats(states, _elapsed_ms(started), largest)
    return ConsensusResult(optimum, rankings, count, count > len(rankings), stats)


def dp_consensus(profile: Profile, k: int) -> ConsensusResult:
    """Exact consensus by subset dynamic programming; one ranking reported."""
    return solve_components(profile, k, (full_mask(profile.m),))


def enumerate_consensus(
    profile: Profile, k: int, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> ConsensusResult:
    """All optimal rankings (depth-first over argmin branches), up to ``limit``."""
    return solve_components(
        profile, k, (full_mask(profile.m),), limit, count_optima=True
    )


# ---------------------------------------------------------------------------
# brute force oracle

_perm_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _perm_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    if m not in _perm_cache:
        perms = np.array(list(itertools.permutations(range(m))), dtype=np.int8)
        count = len(perms)
        pos = np.empty_like(perms)
        pos[np.arange(count)[:, None], perms] = np.arange(m, dtype=np.int8)
        # below[p, c, x]: candidate x ranked below c in permutation p
        below = pos[:, None, :] > pos[:, :, None]
        _perm_cache[m] = (perms, below)
    return _perm_cache[m]


def brute_force_consensus(profile: Profile, k: int) -> ConsensusResult:
    """Exact consensus by scoring all m! rankings with the k-wise distance."""
    started = time.perf_counter()
    m = profile.m
    if m > BRUTE_FORCE_MAX_M:
        raise GuardError(
            f"brute force refused: m={m} exceeds the bound m <= "
            f"{BRUTE_FORCE_MAX_M} ({BRUTE_FORCE_MAX_M}! = 40320 rankings)"
        )
    if m == 1:
        return solve_components(profile, k, (1,))
    validate_k(m, k)
    if profile.n << m >= 1 << 62:
        raise GuardError(
            f"disagreement totals for n={profile.n}, m={m} would overflow "
            "64-bit accumulation"
        )
    perms, below = _perm_tables(m)
    prefix = BinomialPrefixTable(m, k).as_array()
    lookup = np.zeros(m, dtype=np.int64)  # pad: pools larger than m-2 never disagree
    lookup[: m - 1] = prefix
    below_i16 = below.astype(np.int16)
    dist = np.zeros(len(perms), dtype=np.int64)
    for ranking, count in profile.groups:
        pos2 = np.array(ranking.inverse, dtype=np.int16)
        below2 = pos2[None, :] > pos2[:, None]  # below2[c, x]: x below c
        shared = np.matmul(below_i16, below2.T.astype(np.int16))
        disagree = below & below2.T[None, :, :]
        dist += count * np.where(disagree, lookup[shared], 0).sum(axis=(1, 2))
    optimum = int(dist.min())
    winners = np.flatnonzero(dist == optimum)
    rankings = tuple(Ranking(perms[i]) for i in winners)
    stats = SolveStats(len(perms), _elapsed_ms(started), m)
    return ConsensusResult(optimum, rankings, len(rankings), False, stats)
