"""Exact consensus-ranking solvers.

Two independent routes compute a ranking minimizing the k-wise distance to a
profile: full enumeration of the m! rankings (`brute_force_consensus`, the
oracle, guarded at m <= 8) and a dynamic program over candidate subsets,
the Held-Karp-style DP of Betzler et al. (TCS 2009).  The DP peels the
first-placed candidate: the optimal cost of ordering a subset S is the
best, over c in S, of the cost of placing c above the rest plus the optimal
cost of S without c.

The table work is O(m 2^m).  The placement costs read the ballots only
through statistics built once per solve: for k <= 3 a voter's cost is a
polynomial of degree <= 2 in the number of pool members it ranks above the
placed candidate, so O(n m^3) pair and triple counts give every cost row;
for k >= 4 it is a truncated binomial sum that expands over subsets, so
Yates' subset-sum (zeta) transforms of a histogram of the voters' rankings
give every row in O(m^2 2^(m-1)) additions, whatever n is.

The min/argmin runs one popcount layer at a time over states in colex
order, where the states of layer L with top member t are the first
C(t, L - 1) states of layer L - 1 plus t: each layer's plan (predecessor
ranks, cost indices, member bits) is block copies of the previous one plus
one offset per block (:func:`_layers`).  The optimum count, if asked for,
is taken in the same walk.  Cost tables and DP values are int32 when
n * sum_{i=2..k} C(m, i), which bounds every entry and partial sum, is
below 2^31, else int64.

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

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    GuardError,
    MAX_CANDIDATES,
    Mask,
    PairCounts,
    Profile,
    Ranking,
    full_mask,
    iter_mask,
    mask_members,
    validate_k,
)
from .distance import BinomialPrefixTable

BRUTE_FORCE_MAX_M = 8
DEFAULT_ENUMERATION_LIMIT = 10_000


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
    ``count`` is the number of optimal orders, if the DP counted them.
    """

    candidates: tuple[int, ...]
    context: Mask
    values: np.ndarray
    argmin: np.ndarray
    count: int | None = None

    @property
    def optimum(self) -> int:
        return int(self.values[-1])


@functools.lru_cache(maxsize=32)
def _subset_weights(m: int, k: int) -> np.ndarray:
    """``h[u, beta]`` = sum_{i=1..k-1} C(beta, i - u), zero for u >= k.

    Row 0 is H[t] = sum_{i=1..k-1} C(t, i): a voter ranking t pool members
    below the placed candidate pays H[pool size] - H[t].  By Vandermonde,
    H[r + beta] is the sum of h(|V|, beta) over the subsets V of r members,
    which splits a voter's H term over the local members it ranks below
    the placed candidate, beta being its context members below it.
    """
    h = np.array(
        [
            [sum(math.comb(beta, i - u) for i in range(max(u, 1), k))
             for beta in range(m)]
            for u in range(m)
        ],
        dtype=np.int64,
    )
    h.flags.writeable = False
    return h


def _disagreement_bound(n: int, m: int, k: int) -> int:
    """``n * sum_{i=2..k} C(m, i)``: one voter disagrees with a ranking on
    at most every contest set of size 2..k, so this bounds every distance,
    DP table entry and partial sum."""
    return n * sum(math.comb(m, i) for i in range(2, min(k, m) + 1))


def _check_accumulation(n: int, m: int, k: int) -> None:
    """Refuse a profile whose distance totals could overflow int64 (the
    guard keeps :func:`_disagreement_bound` below 2^62)."""
    if _disagreement_bound(n, m, k) >= 1 << 62:
        raise GuardError(
            f"disagreement totals for n={n}, m={m} would overflow "
            "64-bit accumulation"
        )


def _table_dtype(n: int, m: int, k: int) -> type:
    """int32 for cost tables and DP values when the bound allows, else int64."""
    return np.int32 if _disagreement_bound(n, m, k) < 1 << 31 else np.int64


def _other_bits(nloc: int) -> np.ndarray:
    """``others[j, i]``: local index of bit i of row j's half-size index.

    Row j of a cost table is indexed by the subset T of the other local
    candidates, packed into nloc - 1 bits: bit i stands for local i below j
    and for local i + 1 from j on.
    """
    i = np.arange(nloc - 1)
    return i[None, :] + (i[None, :] >= np.arange(nloc)[:, None])


def _moment_costs(
    counts: PairCounts,
    k: int,
    candidates: tuple[int, ...],
    context: Mask,
    dtype: type,
) -> np.ndarray:
    """Cost rows for k <= 3 from the pair statistics alone.

    With P the pool above which candidate j is placed (the rest of the
    subset plus the context), a voter with q pool members above j pays q at
    k = 2 and q*|P| - q(q - 1)/2 at k = 3.  Summed over voters that is

        sum_{x in P} a[x] + [k = 3] * sum_{x < y in P} u[x, y]

    with a[x] the voters preferring x to j and u[x, y] = n - joint[j, x, y]
    the voters preferring x or y to j.  Context terms fold into a constant
    and a linear term; the rest is filled in by subset-sum doubling.
    """
    nloc = len(candidates)
    cand = np.array(candidates, dtype=np.intp)
    pool = np.concatenate((cand, np.array(mask_members(context), dtype=np.intp)))
    a = counts.above[pool][:, cand].T  # a[j, x]: voters preferring x to j
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


def _subset_sums(table: np.ndarray, supersets: bool = False) -> None:
    """In place, entry T of a state-major table becomes the sum over the
    subsets (or supersets) of T, one contiguous doubling step per bit."""
    src, dst = (1, 0) if supersets else (0, 1)
    for i in range(table.shape[0].bit_length() - 1):
        pairs = table.reshape(-1, 2, table.shape[1] << i)
        pairs[:, dst] += pairs[:, src]


def _subset_sum_costs(
    counts: PairCounts,
    k: int,
    candidates: tuple[int, ...],
    context: Mask,
    dtype: type,
) -> np.ndarray:
    """Cost rows for any k by subset-sum transforms, reading no ballot.

    With B_g the local members that voter group g ranks below j and beta_g
    its context members below j (:func:`_subset_weights`),

        cost_j(T) = n H[|T| + b] - sum_{V subset of T} W_j(V),
        W_j(V) = sum_g count_g h(|V|, beta_g) [V subset of B_g].

    A histogram of the B_g per distinct beta goes through a superset-sum
    and is scaled by h; the total goes through a subset-sum.  Every term
    is nonnegative, so the accumulation guard bounds each partial sum.
    """
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
    total = None  # state-major: total[T, j]
    for value in set(beta.ravel().tolist()):
        part = np.zeros((len(size), nloc), dtype=dtype)
        chosen = beta == value
        np.add.at(part, (masks[chosen], rows[chosen]), weights[chosen])
        _subset_sums(part, supersets=True)
        part *= h[size, value, None]
        total = part if total is None else np.add(total, part, out=total)
    _subset_sums(total)
    np.subtract(counts.n * h[0, size + context.bit_count(), None], total, out=total)
    return total.T


# States per slice.  It bounds the DP's per-slice temporaries to a few
# hundred KB, which stay in cache and reuse heap pages instead of being
# mapped and faulted afresh on each slice.
_LAYER_SLICE = 1 << 12


def _layers(nloc: int):
    """The DP's popcount layers 1..nloc as plans over colex-ordered states.

    Per layer L: ``states``, the binary masks of its C(nloc, L) states, and
    a plan of shape (3, L, C(nloc, L)) over each state's members in
    ascending slots: ``plan[0]``, the colex rank in layer L - 1 of the state
    without that member; ``plan[1]``, the flat index of its cost entry in a
    state-major cost table (the other members packed as in
    :func:`_other_bits`, times nloc, plus the member); ``plan[2]``, the
    member's bit.

    In colex order the states of layer L whose top member is t are the
    first C(t, L - 1) states of layer L - 1, plus t.  So each plan is block
    copies of the one before, one per top member: in the lower slots the
    rank gains C(t, L - 1) and the cost index nloc << (t - 1) (t moves
    into packed bit t - 1); the top slot's predecessor is the copied state
    itself (an ``arange``) and its cost index is ``state * nloc + t``.

    Entries are int32 while the flat cost indices fit, else intp.  Plans
    alternate between the two rows of one buffer allocated per call, so a
    layer's plan stays valid until the layer after next is produced.
    """
    index = np.int32 if nloc << (nloc - 1) < 1 << 31 else np.intp
    widest = max(level * math.comb(nloc, level) for level in range(1, nloc + 1))
    buffers = np.empty((2, 3 * widest), index)
    ramp = np.arange(math.comb(nloc - 1, (nloc - 1) // 2), dtype=index)
    states = np.zeros(1, dtype=index)
    plan = None
    for level in range(1, nloc + 1):
        size = math.comb(nloc, level)
        new = buffers[level & 1][: 3 * level * size].reshape(3, level, size)
        tops = np.arange(level - 1, nloc, dtype=index)
        counts = [math.comb(top, level - 1) for top in range(level - 1, nloc)]
        if level > 1:
            shifts = np.zeros((3, len(counts), 1, 1), index)
            shifts[0, :, 0, 0] = counts
            shifts[1, :, 0, 0] = nloc << (tops - 1)
            start = 0
            for i, count in enumerate(counts):
                block = new[:, :-1, start : start + count]
                np.add(plan[:, :, :count], shifts[:, i], out=block)
                start += count
        # the top slot: the copied states themselves, plus the top member
        np.concatenate([ramp[:count] for count in counts], out=new[0, -1])
        top = np.repeat(tops, counts)
        copied = states[new[0, -1]]
        np.multiply(copied, nloc, out=new[1, -1])
        new[1, -1] += top
        np.left_shift(1, top, out=new[2, -1])
        states = copied | new[2, -1]
        plan = new
        yield states, plan


# Small tables are solved by the thousand in preprocessed solves; their
# layer plans are cheap to keep, as intp, which numpy indexes without a
# conversion.
_SMALL_PLAN = 10


@functools.lru_cache(maxsize=None)
def _small_layers(nloc: int) -> tuple:
    layers = tuple(
        (states.astype(np.intp), tuple(plan.astype(np.intp)))
        for states, plan in _layers(nloc)
    )
    for states, plan in layers:
        for part in (states, *plan):
            part.flags.writeable = False
    return layers


def _plan(nloc: int):
    """The layer plans of an nloc-candidate table (see :func:`_layers`)."""
    return _small_layers(nloc) if nloc <= _SMALL_PLAN else _layers(nloc)


# Layer counts below this bound are held in fixed-width integers.
_INT64_COUNTS = 1 << 63


def _layered_min(
    cost: np.ndarray, nloc: int, count_optima: bool = False
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Values, argmin sets and, if asked, the optimum count of the subset
    DP, one popcount layer at a time.

    A layer's values are computed in colex order from the previous layer's
    (a small array that stays in cache), then scattered once into the
    binary-indexed table.  Values take the cost table's dtype.  A state's
    count is the sum of the counts of the predecessors its argmin set
    allows; a layer-L count is at most L!, so counts are int32 while
    L! < 2^31, int64 while L! < 2^63 and exact Python ints from there on.
    """
    size = 1 << nloc
    values = np.zeros(size, dtype=cost.dtype)
    argmin = np.zeros(size, dtype=np.uint32)
    flat_cost = cost.T.reshape(-1)
    widest = math.comb(nloc, nloc // 2)
    layer_values = np.zeros((2, widest), cost.dtype)
    choices = np.empty(widest, np.intp)
    counts = np.ones(1, np.int32)  # layer 0: the empty state, one order
    for level, (states, (previous, flat, bits)) in enumerate(_plan(nloc), 1):
        done = layer_values[~level & 1]
        current = layer_values[level & 1, : len(states)]
        chosen = choices[: len(states)]
        if count_optima:  # a layer-L count is at most L!
            most = math.factorial(level)
            kind = (object if most >= _INT64_COUNTS
                    else np.int32 if most < 1 << 31 else np.int64)
            done_counts = counts.astype(kind, copy=False)
            counts = np.empty(len(states), kind)
        for first in range(0, len(states), _LAYER_SLICE):
            part = slice(first, first + _LAYER_SLICE)
            totals = done[previous[:, part]]
            totals += flat_cost[flat[:, part]]
            best = np.minimum.reduce(totals, axis=0, out=current[part])
            ties = totals == best  # the member slots in the argmin set
            np.bitwise_or.reduce(bits[:, part] * ties, axis=0, out=chosen[part])
            if count_optima:
                del totals  # dead here; the count's gather takes its place
                counts[part] = (done_counts[previous[:, part]] * ties).sum(axis=0)
        values[states] = current
        argmin[states] = chosen
    return values, argmin, int(counts[0]) if count_optima else None


def _check_solvable(m: int, n: int, k: int, nloc: int) -> None:
    """Guards of a DP over ``nloc`` of ``m`` candidates with ``n`` voters."""
    if nloc > MAX_CANDIDATES:
        solved = f"m={m}" if nloc == m else f"a subset of {nloc} candidates"
        raise GuardError(
            f"subset DP refused: {solved} exceeds the 2^m state cap "
            f"(m <= {MAX_CANDIDATES})"
        )
    validate_k(m, k)
    _check_accumulation(n, m, k)


def build_dp_table(
    profile: Profile,
    k: int,
    subset: Mask | None = None,
    context: Mask = 0,
    count_optima: bool = False,
) -> DpTable:
    """Run the subset DP over ``subset`` (default: all candidates), and
    count its optimal orders if ``count_optima`` is set.

    The placement costs depend on the ballots only through
    :class:`PairCounts` (shared with the caller through
    :meth:`PairCounts.shared`).  At k <= 3 they come from its pair and
    triple counts alone; at k >= 4 from subset-sum transforms of its
    position matrix.
    Only the rows the DP reads are filled: for each candidate j, the
    subsets that contain j.
    """
    m = profile.m
    if subset is None:
        subset = full_mask(m)
    if subset & context:
        raise ValueError("subset and context must be disjoint")
    candidates = mask_members(subset)
    nloc = len(candidates)
    if nloc == 0:
        raise ValueError("empty subset")
    _check_solvable(m, profile.n, k, nloc)
    counts = PairCounts.of(profile)
    costs = _moment_costs if k <= 3 else _subset_sum_costs
    dtype = _table_dtype(counts.n, m, k)
    cost = costs(counts, k, candidates, context, dtype)
    return DpTable(candidates, context, *_layered_min(cost, nloc, count_optima))


def count_table_optima(table: DpTable) -> int:
    """Exact number of distinct optimal orders encoded by the argmin sets,
    by a second walk of the layer plans: the reference for the count that
    :func:`_layered_min` takes during the DP, which solves use."""
    nloc = len(table.candidates)
    counts = np.ones(nloc, dtype=np.int64)  # layer 1: one order per state
    layers = itertools.islice(_plan(nloc), 1, None)
    for level, (states, (previous, _, bits)) in enumerate(layers, 2):
        if math.factorial(level) >= _INT64_COUNTS:
            counts = counts.astype(object)
        allowed = table.argmin[states] & bits
        counts = np.where(allowed, counts[previous], 0).sum(axis=0)
    return int(counts[0])


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


def _singleton_costs(
    counts: PairCounts, k: int, components: tuple[Mask, ...]
) -> np.ndarray:
    """``cost[c]``: the optimum of every one-candidate component {c}.

    It is the cost of placing c above the later components: a voter group
    ranking t of their b members below c pays ``H[b] - H[t]``.
    """
    rank = [0] * counts.m
    for i, mask in enumerate(components):
        for c in iter_mask(mask):
            rank[c] = i
    later = np.less.outer(rank, rank)  # later[c, x]: x in a later component
    # below[c, g]: members of later components that group g ranks below c
    prefers = counts.prefers.transpose(1, 0, 2)
    below = np.matmul(prefers, later[:, :, None].astype(prefers.dtype))
    H = _subset_weights(counts.m, k)[0]
    paid = H[below[:, :, 0].astype(np.intp)] @ counts.counts
    return counts.n * H[later.sum(axis=1)] - paid


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
    if m == 1:  # one ranking, no contest of two candidates, so any k >= 2
        if k < 2:
            validate_k(m, k)
        stats = SolveStats(1, _elapsed_ms(started), 1)
        return ConsensusResult(0, (Ranking.identity(1),), 1, False, stats)
    union = 0
    for mask in components:
        if union & mask:
            raise ValueError("components overlap")
        union |= mask
    if union != full_mask(m):
        raise ValueError("components do not partition the candidate set")
    largest = max(mask.bit_count() for mask in components)
    # before any table: the largest component's size, k and the totals
    _check_solvable(m, profile.n, k, largest)

    optimum = states = 0
    count = 1
    pieces: list[list[tuple[int, ...]]] = []
    later = union  # candidates of the components not yet solved
    with PairCounts.shared(profile) as counts:
        alone = _singleton_costs(counts, k, components)
        for component in components:
            later ^= component
            if component & (component - 1) == 0:  # one candidate, one order
                optimum += int(alone[component.bit_length() - 1])
                states += 2
                pieces.append([(component.bit_length() - 1,)])
                continue
            table = build_dp_table(profile, k, component, later, count_optima)
            optimum += table.optimum
            states += len(table.values)
            if count_optima:
                count *= table.count
            pieces.append(enumerate_table_orders(table, limit or 1))
    rankings = tuple([
        Ranking([c for piece in combo for c in piece])
        for combo in itertools.islice(itertools.product(*pieces), limit or 1)
    ])
    if not count_optima:
        count = len(rankings)
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
    _check_accumulation(profile.n, m, k)
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
    rankings = tuple([Ranking(perms[i]) for i in winners])
    stats = SolveStats(len(perms), _elapsed_ms(started), m)
    return ConsensusResult(optimum, rankings, len(rankings), False, stats)
