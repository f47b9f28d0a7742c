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
give every row in O(m^2 2^(m-1)) additions, whatever n is (on large tables,
the lowest bits of the superset-sum by expanding each group's entries).
When k >= nloc + |context|, as at k = m, every pool is a contest set, a
voter's cost is a product over the pool's members, and one transform with
the kernel [[1, 1], [1, 2]] replaces both sums.  Every such transform runs
one pass schedule, on cache-sized groups of chunks (:func:`_grouped_passes`).

The min walks blocks of states H | L, L the lowest 10 bits, each part in
colex order by a cached layer plan (predecessor ranks, members;
:func:`_layers`): a block (|H|, |L|) takes one row and one column gather of
its two neighbours.  The cost table is kept in that block order
(:func:`_cost_regions`): per high part H, one row of the low members'
placement costs, and per high member and rest of the high part, one run
over the low states, each low layer a contiguous slice of them.  The walk
reads whole rows and runs by index.  The table is built chunk by chunk,
each chunk holding the entries of 2^10 consecutive states of a state-major
table: at k <= 3 chunk 0 is gathered and the others follow by doubling on
whole chunks, at k >= 4 each chunk of the state-major transforms moves into
place as its group's passes end.  The walk keeps values only: readback
and the optimum count follow argmin sets (:meth:`DpTable.choices`) down
from the full set.
Cost tables and DP values are int32 when n * sum_{i=2..k} C(m, i), which
bounds every entry and partial sum, is below 2^31, else int64.

`build_dp_table` also accepts a *context* mask of candidates known to be
ranked below every candidate of S; placement costs are then charged against
the restriction to S plus the context.  `solve_components` is the one loop
that runs the DP: it solves an ordered partition of the candidates piece by
piece, each with the later pieces as context (pieces of one or two
candidates in closed form), and concatenates the pieces' optimal orders.
`dp_consensus` and `enumerate_consensus` call it with the whole candidate
set as a single piece; the component-wise solver in
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
    component-wise solver, which count each table's tight paths).
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
    (bit j of ``S`` stands for ``candidates[j]``), built from ``cost``, the
    cost of placing each member j of each state S first, above S - j: one
    entry per (state, member) pair, ``nloc * 2^(nloc - 1)`` in all, kept in
    the walk's block order (:func:`_cost_regions`).  Its optimal orders are
    read back and counted through :meth:`choices`.
    """

    candidates: tuple[int, ...]
    context: Mask
    cost: np.ndarray
    values: np.ndarray

    @property
    def optimum(self) -> int:
        return int(self.values[-1])

    @functools.cached_property
    def _regions(self) -> tuple:
        return _cost_regions(self.cost, len(self.candidates))

    def choices(self, state: int) -> int:
        """The bitmask of the members j of ``state`` with
        ``values[S - j] + cost_j(S - j) == values[S]``: those that can be
        placed first at no extra cost, in Python ints."""
        low = min(len(self.candidates), _SMALL_PLAN)
        lows, columns, at, first = _low_state(low, state & (1 << low) - 1)
        rows, runs = self._regions
        high, value = state >> low, self.values.item
        best, chosen, paid = value(state), 0, rows[high >> 1, high & 1].item
        for j in lows:  # slot s of the layer: run s of the row
            chosen |= (value(state ^ 1 << j) + paid(at) == best) << j
            at += columns
        for t in mask_members(high):
            rest = high ^ 1 << t
            packed = rest & (1 << t) - 1 | rest >> t + 1 << t
            chosen |= (value(state ^ 1 << low + t) + runs.item(packed, t, first) == best) << low + t
        return chosen


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


@functools.lru_cache(maxsize=None)
def _other_bits(nloc: int) -> np.ndarray:
    """``others[j, i]``: local index of bit i of member j's packed index.

    The costs of placing member j first are indexed by the subset T of the
    other members, packed into nloc - 1 bits: bit i stands for member i
    below j and for member i + 1 from j on (the state-major order of the
    k >= 4 transforms; within the high part, the rests of
    :func:`_cost_regions`).
    """
    i = np.arange(nloc - 1)
    others = i[None, :] + (i[None, :] >= np.arange(nloc)[:, None])
    others.flags.writeable = False
    return others


def _doubled(table: np.ndarray, steps, pair=None) -> None:
    """Subset-sum doubling in place over the state-major rows of ``table``,
    from row 0: row T | 2^i becomes row T plus ``steps[i]`` and, unless
    ``pair`` is None, plus ``pair(i, b)`` for each bit b of T, for the rows
    T below 2^i (``steps`` may be an iterator)."""
    for i, step in enumerate(steps):
        low, block = table[: 1 << i], table[1 << i : 2 << i]
        if pair is not None and i:
            block[0] = step
            for b in range(i):
                np.add(block[: 1 << b], pair(i, b), out=block[1 << b : 2 << b])
            block += low
        else:
            np.add(low, step, out=block)


def _moment_costs(
    counts: PairCounts,
    k: int,
    candidates: tuple[int, ...],
    context: Mask,
    dtype: type,
) -> np.ndarray:
    """Cost runs for k <= 3 from the pair statistics alone.

    With P the pool above which candidate j is placed (the rest of the
    subset plus the context), a voter with q pool members above j pays q at
    k = 2 and q*|P| - q(q - 1)/2 at k = 3.  Summed over voters that is

        sum_{x in P} a[x] + [k = 3] * sum_{x < y in P} u[x, y]

    with a[x] the voters preferring x to j and u[x, y] = n - joint[j, x, y]
    the voters preferring x or y to j.  Context terms fold into a constant
    and a linear term.  The table is built by whole chunks
    (:func:`_cost_regions`).  Chunk 0 is gathered from every member's costs
    over the subsets of the low bits and high member 0 (:func:`_run_order`).
    Bit s of a chunk's index adds one high member to each pool: high member
    s + 1 for the rows, the member of packed bit s of the rest for a high
    member's runs.  So chunk A | 2^s, for A below 2^s, is chunk A plus what
    that member adds to chunk 0's pools (gathered the same way; at k = 2 a
    constant per member), and at k = 3 plus its pairs with A's members: one
    doubling (:func:`_doubled`).
    """
    nloc = len(candidates)
    cand = np.array(candidates, dtype=np.intp)
    pool = np.concatenate((cand, np.array(mask_members(context), dtype=np.intp)))
    a = counts.above.T[cand[:, None], pool]  # a[j, x]: voters preferring x to j
    base = a[:, nloc:].sum(axis=1)
    linear = a[:, :nloc]
    pairs = None
    if k == 3:
        union = counts.n - counts.joint[cand][:, pool][:, :, pool]
        to_ctx = union[:, :, nloc:].sum(axis=2)
        # sum_{x<y in C} u = (sum_{x,y in C} u - sum_{x in C} a[x]) / 2
        base += (to_ctx[:, nloc:].sum(axis=1) - base) // 2
        linear = linear + to_ctx[:, :nloc]
        pairs = np.ascontiguousarray(union[:, :nloc, :nloc].transpose(1, 2, 0), dtype)  # [x, y, j]
    linear = linear.astype(dtype)
    low = min(nloc, _SMALL_PLAN)
    high = nloc - low
    _, _, index, member = _run_order(nloc, low)
    # [T, j]: member j's costs over the subsets T of the low bits and high
    # member 0; below, what one chunk bit adds over them
    bits = min(nloc, low + 1)
    table = np.empty((1 << bits, nloc), dtype)
    table[0] = base
    _doubled(table, linear[:, :bits].T.copy(), None if pairs is None else lambda i, b: pairs[i, b])
    cost = np.empty(nloc << (nloc - 1), dtype)
    chunks = cost.reshape(-1, len(index))
    table.take(index, out=chunks[0], mode="clip")
    if high < 2:
        return cost
    # adding[j, s]: the member that chunk bit s, packed bit low + s of the
    # other members, adds to member j's pool
    rows, adding = np.arange(nloc), _other_bits(nloc)[:, low:]
    buffer = np.empty(len(index), dtype)
    buffer_rows, buffer_runs = _cost_regions(buffer, nloc)

    def spread(value):  # a constant per member, in a chunk's layout
        buffer_rows[0] = value[:low].take(member)
        buffer_runs[0] = value[low:, None]
        return buffer

    if pairs is None:
        _doubled(chunks, map(spread, linear[rows[:, None], adding].T))
        return cost

    def steps():
        step = np.empty_like(buffer)
        for y in adding.T:
            table[0] = linear[rows, y]
            _doubled(table, pairs[np.arange(bits)[:, None], y, rows])
            yield table.take(index, out=step, mode="clip")

    crossed = pairs[adding[:, :, None], adding[:, None, :], rows[:, None, None]]
    _doubled(chunks, steps(), lambda s, r: spread(crossed[:, s, r]))
    return cost


_LOW_BITS = 7


def _expanded_bits(groups: int, bits: int) -> int:
    """How many of the lowest bits (up to ``_LOW_BITS``) of a 2^bits-row
    superset-sum to expand per voter group instead of by dense passes: as
    many as keep groups * 2^low within about 1/16 of the rows."""
    return min(_LOW_BITS, max(0, bits - 4 - groups.bit_length()))


# The working set of _grouped_passes and the bound on _product_terms'
# scatter temporaries.  A larger temporary, freed with the table, lets the
# C allocator return the heap to the system between solves, and the next
# table page-faults in again.
_BUFFER_BYTES = 1 << 19


def _grouped_passes(flat: np.ndarray, nloc: int, first: int, kernel, blocks: bool) -> None:
    """In place over a flat state-major ``[T, j]`` table, one doubling pass
    per bit i of T from ``first``, on the rows (T, T | 2^i) as pairs:
    ``pair[dst] += pair[src]`` for each ``(dst, src)`` of ``kernel``, so
    ``((1, 0),)`` sums over subsets, ``((0, 1),)`` over supersets and
    ``((0, 1), (1, 0))`` applies [[1, 1], [1, 2]].  The passes commute, so
    each stays in a group of 2^s chunks of 2^b states, b = min(nloc - 1,
    ``_SMALL_PLAN``), the most within ``_BUFFER_BYTES``: the bits from
    split = ``_SMALL_PLAN`` + s up s at a time on slabs of 2^s rows one
    chunk wide, then the rest a group at a time, after which, with
    ``blocks``, each chunk moves into its rows and runs (:func:`_cost_regions`).
    """
    bits = nloc - 1
    chunk = nloc << min(bits, _SMALL_PLAN)
    s = max(1, _BUFFER_BYTES // (chunk * flat.itemsize)).bit_length() - 1
    split = min(bits, _SMALL_PLAN + s)
    for start in range(max(first, split), bits, max(1, s)):
        for slab in flat.reshape(-1, 1 << min(max(1, s), bits - start), nloc << start):
            for c in range(0, slab.shape[1], chunk):
                for i in range(slab.shape[0].bit_length() - 1):
                    pairs = slab[:, c : c + chunk].reshape(-1, 2, 1 << i, chunk)
                    for dst, src in kernel:
                        pairs[:, dst] += pairs[:, src]
    source, buffer = (_block_source(nloc), np.empty(chunk, flat.dtype)) if blocks else (None, None)
    for group in flat.reshape(-1, nloc << split):
        for i in range(first, split):
            pairs = group.reshape(-1, 2, nloc << i)
            for dst, src in kernel:
                pairs[:, dst] += pairs[:, src]
        for part in group.reshape(-1, chunk) if blocks else ():
            part.take(source, out=buffer, mode="clip")
            part[:] = buffer


def _subset_sum_terms(
    counts: PairCounts,
    k: int,
    candidates: tuple[int, ...],
    context: Mask,
    dtype: type,
    low: int,
) -> np.ndarray:
    """The terms ``n h(|V|, b) - W_j(V)`` of :func:`_subset_sum_costs`,
    state-major and flat: ``[V, j]``, V packed as in :func:`_other_bits`.

    Per distinct beta, each group adds its count at B_hi | V for every V
    within its ``low`` bits B_lo, dense passes over the higher bits finish
    the superset-sum (:func:`_grouped_passes`), and it is scaled by h.
    Every term is nonnegative (h(u, beta) grows with beta <= b), so the
    accumulation guard bounds each partial sum of their subset-sum.
    """
    nloc = len(candidates)
    h = _subset_weights(counts.m, k).astype(dtype)
    pos = counts.positions[:, list(candidates)]
    below = pos[:, _other_bits(nloc)] > pos[:, :, None]  # [g, j, bit]
    masks = below @ (1 << np.arange(nloc - 1))
    ctx = counts.positions[:, mask_members(context)]
    beta = (ctx[:, None, :] > pos[:, :, None]).sum(axis=2).ravel()
    # entry e = g * nloc + j, once per V within its low bits
    found = np.flatnonzero(np.arange(1 << low) & ~masks[:, :, None] == 0)
    entry = found >> low
    index = (masks.ravel()[entry] >> low << low | found % (1 << low)) * nloc + entry % nloc
    weights = np.repeat(counts.counts.astype(dtype), nloc)[entry]
    size = np.bitwise_count(np.arange(1 << (nloc - 1)))
    # the betas after the first share one buffer
    flat = np.zeros(nloc << (nloc - 1), dtype)
    total = part = flat.reshape(len(size), nloc)
    for i, value in enumerate(set(beta.tolist())):
        if i == 1:
            part = np.zeros_like(total)
        elif i:
            part[...] = 0
        chosen = beta[entry] == value
        np.add.at(part.reshape(-1), index[chosen], weights[chosen])
        _grouped_passes(part.reshape(-1), nloc, low, ((0, 1),), False)  # superset sums
        part *= h[size, value, None]
        if i:
            total += part
    np.subtract(counts.n * h[size, context.bit_count(), None], total, out=total)
    return flat


def _product_terms(
    counts: PairCounts,
    candidates: tuple[int, ...],
    context: Mask,
    dtype: type,
    low: int,
) -> np.ndarray:
    """The product transform's input when k >= nloc + b, flat and
    state-major: ``[T, j]``, T packed as in :func:`_other_bits`.

    Every pool is then a contest set, so H[t] = 2^t - 1 and

        cost_j(T) = n 2^(|T| + b) - sum_g count_g 2^beta_g 2^|T & B_g|,

    a sum of products over the bits of T: one factor per bit, 2 on the bits
    of B (all of them for the first term), else 1.  Each group adds its
    weight times 2^|T_lo & B_lo| at B_hi | T_lo for every T_lo over the
    ``low`` bits; one pass per higher bit with the kernel [[1, 1], [1, 2]]
    finishes the products (:func:`_subset_sum_costs`).  Every partial sum
    lies within n 2^(nloc - 1 + b), below the bound of :func:`_table_dtype`
    at k >= 3.
    """
    nloc, bits = len(candidates), len(candidates) - 1
    pos = counts.positions[:, list(candidates)]
    masks = (pos[:, _other_bits(nloc)] > pos[:, :, None]) @ (1 << np.arange(bits))
    ctx = counts.positions[:, mask_members(context)]
    beta = (ctx[:, None, :] > pos[:, :, None]).sum(axis=2)
    weights = (-counts.counts[:, None] << beta).astype(dtype)  # [g, j]
    lows = np.arange(1 << low)
    flat = np.zeros(nloc << bits, dtype)
    # the first term: B all ones, the last 2^low rows, the same for every j
    ones = np.int64(counts.n << context.bit_count()) << np.bitwise_count(lows)
    flat.reshape(-1, nloc)[-len(lows):] = ones.astype(dtype)[:, None]
    # the groups' entries, as many members at a time as keep their indices
    # and values within half the buffer (the index expressions' broadcasting
    # buffers take about a quarter); 1-D operands keep np.add.at fast
    entries = len(weights) << low
    step = max(1, _BUFFER_BYTES // (2 * entries * (8 + flat.itemsize)))
    for j in range(0, nloc, step):
        part = masks[:, j : j + step, None]
        spread = weights[:, j : j + step, None] << np.bitwise_count(part & lows)
        # in place from here: the peak is one index and one value per entry
        index = part >> low << low | lows
        index *= nloc
        index += np.arange(j, j + part.shape[1])[:, None]
        np.add.at(flat, index.ravel(), spread.ravel())
        del spread, index  # before the next batch's
    return flat


def _block_source(nloc: int) -> np.ndarray:
    """Where each entry of a block-order chunk comes from in its state-major order."""
    if nloc <= _SMALL_PLAN:
        return _run_order(nloc, nloc)[0]
    own, order, _, _ = _run_order(nloc, _SMALL_PLAN)
    source = np.empty(nloc << _SMALL_PLAN, np.intp)
    rows, runs = _cost_regions(source, nloc)
    rows[0] = own, own + (nloc << _SMALL_PLAN - 1)
    runs[0] = order * nloc + np.arange(_SMALL_PLAN, nloc)[:, None]
    return source


def _subset_sum_costs(
    counts: PairCounts,
    k: int,
    candidates: tuple[int, ...],
    context: Mask,
    dtype: type,
    blocks: bool = True,
) -> np.ndarray:
    """Cost runs for any k by subset-sum transforms, reading no ballot: in
    block order (:func:`_cost_regions`), or without ``blocks`` state-major,
    ``[T, j]`` with T packed as in :func:`_other_bits`.

    Two routes, picked by k, nloc and b = |context| alone.  At k >= nloc +
    b every pool is a contest set, and one product transform gives the
    costs (:func:`_product_terms`).  Below that, Yates' route: with B_g the
    local members that voter group g ranks below j and beta_g its context
    members below j (:func:`_subset_weights`),

        cost_j(T) = n H[|T| + b] - sum_{V subset of T} W_j(V)
                  = sum_{V subset of T} (n h(|V|, b) - W_j(V)),
        W_j(V) = sum_g count_g h(|V|, beta_g) [V subset of B_g],

    by Vandermonde: a subset-sum of the terms (:func:`_subset_sum_terms`).
    Both expand the lowest bits per group (:func:`_expanded_bits`) and run
    their dense passes by :func:`_grouped_passes`.
    """
    nloc = len(candidates)
    low = _expanded_bits(len(counts.counts), nloc - 1)
    if k >= nloc + context.bit_count():
        flat = _product_terms(counts, candidates, context, dtype, low)
        _grouped_passes(flat, nloc, low, ((0, 1), (1, 0)), blocks)
    else:
        flat = _subset_sum_terms(counts, k, candidates, context, dtype, low)
        _grouped_passes(flat, nloc, 0, ((1, 0),), blocks)  # subset sums
    return flat


# States per slice of a DP block, in whole rows: the walk's temporaries stay
# a few hundred KB, in cache and on reused heap pages.
_LAYER_SLICE = 1 << 12


def _layers(nloc: int) -> list:
    """The DP's popcount layers 1..nloc as plans over colex-ordered states.

    Per layer L: ``states``, the binary masks of its C(nloc, L) states, and
    a plan of shape (2, L, C(nloc, L)) over each state's members in
    ascending slots: ``plan[0]``, the colex rank in layer L - 1 of the state
    without that member; ``plan[1]``, the member.

    In colex order the states of layer L whose top member is t are the
    first C(t, L - 1) states of layer L - 1, plus t.  So each plan is block
    copies of the one before, one per top member: in the lower slots the
    rank gains C(t, L - 1) and the member stays; the top slot's predecessor
    is the copied state itself (an ``arange``) and its member is t.

    Every layer is built in fresh intp arrays, which numpy indexes without
    a conversion; :func:`_blocks` keeps them.
    """
    layers, states = [], np.zeros(1, np.intp)
    plan = np.zeros((2, 0, 1), np.intp)  # layer 0: the empty set, no slots
    for level in range(1, nloc + 1):
        tops = range(level - 1, nloc)
        counts = [math.comb(top, level - 1) for top in tops]
        lower = [plan[:, :, :count] + np.array([count, 0])[:, None, None]
                 for count in counts]
        # the top slot: the copied states themselves, plus the top member
        ranks = np.concatenate([np.arange(count) for count in counts])
        top = np.repeat(tops, counts)
        plan = np.concatenate((np.concatenate(lower, axis=2), np.stack((ranks, top))[:, None]),
                              axis=1)
        states = states[ranks] | 1 << top
        layers.append((states, plan))
    return layers


# The width of the walk's low part: a table of up to this many candidates
# is one row of blocks, a wider one adds rows over its higher bits.
_SMALL_PLAN = 10


@functools.lru_cache(maxsize=None)
def _blocks(nloc: int, low: int) -> tuple:
    """Per layer of the low and high parts' plans (:func:`_layered_min`):
    predecessor ranks, members and the rests of the part's members packed
    below them (:func:`_other_bits`), numbered within the part, and the
    states in place.  High member t's costs in the states L | H are run
    ``[packed(H - t), t]`` of :func:`_cost_regions`; the low plan orders
    its rows and runs (:func:`_run_order`)."""
    def part(bits, offset):
        empty = np.zeros((0, 1), np.intp)
        layers = [(None, empty, empty, np.zeros(1, np.intp))]  # layer 0: the empty set
        for states, (previous, member) in _layers(bits):
            rest = states ^ 1 << member
            packed = rest & (1 << member) - 1 | rest >> 1 & -(1 << member)
            layers.append((previous, member, packed, states << offset))
        for array in itertools.chain(*(layer[1:] for layer in layers)):
            array.flags.writeable = False
        return layers

    return part(low, 0), part(nloc - low, low)


@functools.lru_cache(maxsize=None)
def _segments(low: int) -> tuple:
    """Where low layer c = 0..low begins, and the last one ends, in a row of
    :func:`_cost_regions` (c runs of C(low, c) entries per layer) and in
    a run (C(low, c) entries per layer)."""
    sizes = [math.comb(low, c) for c in range(low + 1)]
    rows = itertools.accumulate((c * size for c, size in enumerate(sizes)), initial=0)
    return tuple(rows), tuple(itertools.accumulate(sizes, initial=0))


@functools.lru_cache(maxsize=None)
def _low_state(low: int, state: int) -> tuple:
    """Low state L's members, the size C(low, |L|) of its layer, and where
    the layer holds L in a row and in a run of :func:`_cost_regions`."""
    members = mask_members(state)
    rank = sum(math.comb(x, i) for i, x in enumerate(members, 1))  # colex
    row, run = (starts[len(members)] + rank for starts in _segments(low))
    return members, math.comb(low, len(members)), row, run


def _cost_regions(cost: np.ndarray, nloc: int) -> tuple:
    """The rows and runs of a cost table in block order, with b =
    min(nloc, ``_SMALL_PLAN``) low bits and h high ones.

    ``rows[H >> 1, H & 1]``, for each subset H of the high bits: the costs
    of placing a low member first in the states H | L, low layer by low
    layer; in layer c, one run over the layer's states per slot of the low
    plan (:func:`_blocks`, :func:`_run_order`).
    ``runs[rest, t]``: the costs of placing high member b + t first over
    the states L | rest, ``rest`` the other high bits packed
    (:func:`_other_bits`), in colex order layer by layer
    (:func:`_segments`).  The table is 2^(h - 1) chunks, chunk A holding
    rows 2A and 2A + 1 and the runs of rest A: the entries that the chunk
    of 2^b states A << b holds in a state-major table.  The walk reads a
    block's costs as rows and runs by index, each sliced to the block's
    layer.
    """
    low = min(nloc, _SMALL_PLAN)
    width = low << low >> 1
    if nloc == low:
        return cost.reshape(1, 1, width), cost[:0].reshape(0, 0, 1 << low)
    chunks = cost.reshape(-1, nloc << low)
    return (chunks[:, : 2 * width].reshape(-1, 2, width),
            chunks[:, 2 * width :].reshape(-1, nloc - low, 1 << low))


@functools.lru_cache(maxsize=None)
def _run_order(nloc: int, low: int) -> tuple:
    """The order of :func:`_cost_regions`, read off the low plan of
    :func:`_blocks` layer after layer: per entry of a row, ``packed * nloc
    + j`` (j the member placed, ``packed`` the other low members of the
    state: the state-major order of the k >= 4 transforms); per entry of a
    run, the low state; per entry of a chunk, ``T * nloc + j``, T the
    members of j's pool among the low bits and high member 0 (in row
    2A + 1); per entry of a row, the member j."""
    lows = _blocks(nloc, low)[0]  # layer 0 has no slots
    member = np.concatenate([layer[1].ravel() for layer in lows])
    packed = np.concatenate([layer[2].ravel() for layer in lows])
    rest = np.concatenate([(layer[3] ^ 1 << layer[1]).ravel() for layer in lows])
    order = np.concatenate([layer[3] for layer in lows])
    index = rest * nloc + member
    if nloc > low:
        tops = np.arange(low, nloc)[:, None]
        index = np.concatenate((index, index + (nloc << low), (order * nloc + tops).ravel()))
    return packed * nloc + member, order, index, member  # writeable: take copies read-only indices


def _layered_min(cost: np.ndarray, nloc: int) -> np.ndarray:
    """Values of the subset DP, one block at a time.

    A state is H | L, L its low b = min(nloc, ``_SMALL_PLAN``) bits; block
    (a, c), the states with |H| = a and |L| = c, is a (C(h, a), C(b, c))
    array (one row, dropped, at h = 0) scattered once into the table.
    Placing a low member first gathers columns of block (a, c - 1) by the
    low plan, a high one rows of block (a - 1, c) by the high plan; the
    costs are whole rows and runs of the table (:func:`_cost_regions`),
    sliced to layer c.
    """
    low, wide = min(nloc, _SMALL_PLAN), nloc > _SMALL_PLAN  # wide: blocks have rows
    lows, highs = _blocks(nloc, low)
    cost_rows, cost_runs = _cost_regions(cost, nloc) if wide else (None, None)
    row_starts, run_starts = _segments(low)
    values = np.empty(1 << nloc, dtype=cost.dtype)
    for a, (high_previous, tops, rests, high_states) in enumerate(highs):
        if wide:
            owners = high_states >> low + 1, high_states >> low & 1  # cost rows
        row = []
        for c, (low_previous, _, _, low_states) in enumerate(lows):
            in_row = slice(row_starts[c], row_starts[c + 1])
            block = np.zeros((len(high_states), len(low_states))[not wide:], cost.dtype)
            step = max(1, _LAYER_SLICE // len(low_states))
            for first in range(0, len(high_states), step):
                rows = slice(first, first + step) if wide else ...
                best = block[rows]
                # clip: the plans' ranks are in range by construction
                if c:  # a low member placed first
                    left = (row[-1][rows].take(low_previous, axis=1, mode="clip") if wide
                            else row[-1][low_previous])
                    paid = (cost_rows[owners[0][rows], owners[1][rows], in_row] if wide
                            else cost[in_row])  # one row: the whole table
                    left += paid.reshape(left.shape)
                    np.minimum.reduce(left, axis=-2, out=best)
                if a:  # a high member placed first
                    up = above[c].take(high_previous[:, rows], axis=0, mode="clip")
                    up += cost_runs[rests[:, rows], tops[:, rows],
                                    run_starts[c] : run_starts[c + 1]]
                    if c:
                        np.minimum(best, np.minimum.reduce(up, axis=0), out=best)
                    else:
                        np.minimum.reduce(up, axis=0, out=best)
            values[high_states[:, None] | low_states if wide else low_states] = block
            row.append(block)
        above = row
    return values


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
) -> DpTable:
    """Run the subset DP over ``subset`` (default: all candidates).

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
    return DpTable(candidates, context, cost, _layered_min(cost, nloc))


# Tight states per candidate in one layer up to which the optimum count
# walks them in Python, and the bound below which its tally uses int64.
_TIGHT_BUDGET = 2
_INT64_COUNTS = 1 << 63


def count_table_optima(table: DpTable, choices=None) -> int:
    """Exact number of optimal orders: the paths of tight steps (placing a
    member of ``choices(state)``) from the full set down to the empty set,
    counted layer by layer from the top in Python ints: optimal orders pass
    few states.  Past ``_TIGHT_BUDGET`` states per candidate in one layer
    (many orders tie), one pass over the blocks of :func:`_layered_min`
    tallies every state instead: the sum of the counts of the states one
    member smaller whose value plus the member's cost meets its own, the
    costs read as the walk reads them.
    """
    choices, nloc = choices or table.choices, len(table.candidates)
    layer = {(1 << nloc) - 1: 1}
    while len(layer) <= _TIGHT_BUDGET * nloc:
        if 0 in layer:
            return layer[0]
        below: dict[int, int] = {}
        for state, paths in layer.items():
            for j in mask_members(choices(state)):
                below[state ^ 1 << j] = below.get(state ^ 1 << j, 0) + paths
        layer = below
    kind = object if math.factorial(nloc) >= _INT64_COUNTS else np.int64
    counts, values = np.zeros(1 << nloc, kind), table.values
    counts[0] = 1  # the empty state: one order
    low = min(nloc, _SMALL_PLAN)
    lows, highs = _blocks(nloc, low)
    cost_rows, cost_runs = _cost_regions(table.cost, nloc)
    row_starts, run_starts = _segments(low)
    for a, (_, tops, rests, high_states) in enumerate(highs):
        owners = high_states >> low + 1, high_states >> low & 1
        for c, (_, members, _, low_states) in enumerate(lows):
            in_row = slice(row_starts[c], row_starts[c + 1])
            in_run = slice(run_starts[c], run_starts[c + 1])
            states = high_states[:, None] | low_states
            step = max(1, _LAYER_SLICE // len(low_states))
            for first in range(0, len(high_states), step) if a + c else ():
                rows = slice(first, first + step)
                sides = []  # (placed members, their costs), slots on axis 0
                if c:
                    paid = cost_rows[owners[0][rows], owners[1][rows], in_row]
                    paid = paid.reshape(-1, *members.shape)
                    sides.append((members[:, None, :], paid.transpose(1, 0, 2)))
                if a:
                    paid = cost_runs[rests[:, rows], tops[:, rows], in_run]
                    sides.append((low + tops[:, rows, None], paid))
                tally, best = 0, values.take(states[rows])
                for member, paid in sides:
                    rest = states[rows] ^ 1 << member
                    tight = values.take(rest) + paid == best
                    tally = tally + np.add.reduce(counts.take(rest) * tight, axis=0)
                counts[states[rows]] = tally
    return int(counts[-1])


def enumerate_table_orders(
    table: DpTable, limit: int, choices=None
) -> list[tuple[int, ...]]:
    """Up to ``limit`` optimal orders, in peel-lexicographic order, through
    ``choices`` (default: a cache of :meth:`DpTable.choices`)."""
    results: list[tuple[int, ...]] = []
    choices_of = choices or functools.cache(table.choices)
    full = len(table.values) - 1
    stack: list[tuple[int, tuple[int, ...]]] = [(full, ())]
    while stack and len(results) < limit:
        state, prefix = stack.pop()
        if state == 0:
            results.append(prefix)
            continue
        stack.extend(reversed([(state ^ 1 << j, prefix + (table.candidates[j],))
                               for j in mask_members(choices_of(state))]))
    return results


def _elapsed_ms(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


def _small_costs(
    counts: PairCounts, k: int, components: tuple[Mask, ...]
) -> tuple[int, list]:
    """Closed forms for the components of one or two candidates, singles in
    one array pass and pairs in another: their summed optimum, and per
    component its optimal orders, peel-lexicographic (the lower id first),
    or None for a larger one.  ``alone[c]`` places c above the later
    components: a voter group ranking t of their b members below c pays
    ``H[b] - H[t]``; the pair {x, y} costs ``over[x] + alone[y]`` in the
    order (x, y), ``over[x]`` placing x above y as well.
    """
    rank, singles, pairs, pieces = [0] * counts.m, [], [], []
    for i, mask in enumerate(components):
        members = mask_members(mask)
        for c in members:
            rank[c] = i
        singles += members if len(members) == 1 else ()
        pairs += [(i, *members)] if len(members) == 2 else []
        pieces.append([members] if len(members) == 1 else None)
    later = np.less.outer(rank, rank)  # later[c, x]: x in a later component
    # below[c, g]: members of later components that group g ranks below c
    prefers = counts.prefers.transpose(1, 0, 2)
    below = np.matmul(prefers, later[:, :, None].astype(prefers.dtype))[:, :, 0]
    H = _subset_weights(counts.m, k)[0]
    size = later.sum(axis=1)
    alone = counts.n * H[size] - H[below.astype(np.intp)] @ counts.counts
    optimum = int(alone[singles].sum())
    if pairs:  # over[x] for every pair, then over[y]
        index, x, y = np.array(pairs).T
        ends, partners = np.concatenate((x, y)), np.concatenate((y, x))
        below = below[ends] + prefers[ends, :, partners]
        over = counts.n * H[size[ends] + 1] - H[below.astype(np.intp)] @ counts.counts
        first, second = over[: len(x)] + alone[y], over[len(x) :] + alone[x]
        best = np.minimum(first, second)
        optimum += int(best.sum())
        for i, a, b, f, s in np.stack((index, x, y, first == best, second == best), 1).tolist():
            pieces[i] = [(a, b)] * f + [(b, a)] * s
    return optimum, pieces


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

    optimum = states = placed = 0
    count = 1
    pieces: list = [None] * len(components)  # each piece's optimal orders
    with PairCounts.shared(profile) as counts:
        if any(mask.bit_count() <= 2 for mask in components):
            optimum, pieces = _small_costs(counts, k, components)
        for i, component in enumerate(components):
            placed |= component
            orders = pieces[i]
            if orders is None:
                table = build_dp_table(profile, k, component, union ^ placed)
                optimum += table.optimum
                choices = functools.cache(table.choices)  # shared by count and readback
                if count_optima:
                    count *= count_table_optima(table, choices)
                orders = enumerate_table_orders(table, limit or 1, choices)
            else:  # one or two orders, in closed form
                count *= len(orders)
            states += 1 << component.bit_count()
            pieces[i] = orders[: limit or 1]
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

@functools.lru_cache(maxsize=None)
def _perm_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int8)
    count = len(perms)
    pos = np.empty_like(perms)
    pos[np.arange(count)[:, None], perms] = np.arange(m, dtype=np.int8)
    # below[p, c, x]: candidate x ranked below c in permutation p
    below = pos[:, None, :] > pos[:, :, None]
    return perms, below


def brute_force_consensus(profile: Profile, k: int) -> ConsensusResult:
    """Exact consensus by scoring all m! rankings with the k-wise distance."""
    started = time.perf_counter()
    m = profile.m
    if m > BRUTE_FORCE_MAX_M:
        raise GuardError(
            f"brute force refused: m={m} exceeds the bound m <= "
            f"{BRUTE_FORCE_MAX_M} ({BRUTE_FORCE_MAX_M}! = 40320 rankings)"
        )
    validate_k(m, k)
    _check_accumulation(profile.n, m, k)
    perms, below = _perm_tables(m)
    prefix = BinomialPrefixTable(m, k).as_array()
    lookup = np.zeros(m, dtype=np.int64)  # pad: pools larger than m-2 never disagree
    lookup[: m - 1] = prefix[: m - 1]
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
