"""Setwise majority digraphs and the divide-and-conquer preprocessing.

For an ordered candidate pair (c, c') and a contest set S containing both,
the *setwise advantage* of c over c' is the number of (voter, subset) pairs
where c tops a subset of S of size at most k containing both candidates,
minus the symmetric count for c'.  An arc (c, c') enters the k-wise majority
digraph when some S gives a strictly positive advantage; the arc weight is
the maximum advantage and the maximizing S is kept as the arc's witness.

At k = 3 every candidate outside the pair contributes to the advantage
independently, so the maximizing set is found greedily in polynomial time;
`kwise_digraph` applies that rule to all pairs in one array pass, and
`best_triple_advantage`, the rule for one pair, is the tests' scalar
reference.  For k >= 4 the maximization is NP-hard, and every set is tried
on the subset DP's cost table, left state-major (`_placement_costs`): with
cost_j(T) the cost of placing j above T plus a context C, the advantage of
c over d on R + {c, d} + C is cost_d(R + c) - cost_d(R) - cost_c(R + d) +
cost_c(R).
At k <= 3 these increments are additive in R, which is the greedy rule.

A topological order of the digraph's strongly connected components splits
the aggregation problem: some consensus ranking orders the components that
way, so each component is solved by the subset DP with all later components
fixed below it (`partitioned_dp`, a call of the shared component loop
`solver.solve_components`).  `refine_digraph` sharpens the split by
re-maximizing intra-component arcs under the placement constraints implied
by the component order and by unanimous dominance, dropping arcs whose
constrained advantage is no longer positive.

A `KwiseDigraph` holds its arcs as arrays at every k: the (c, d) pairs in
ascending order, their weights, and one boolean row per arc whose members,
with the pair, form the arc's witness.  Both steps read only these arrays.
`scc_decompose` runs Kosaraju's searches on one successor and one
predecessor bitmask per vertex, then Kahn's algorithm on the components.  A
refinement pass is one array expression over the intra-component arcs: at
k = 3 it reads rows of the gains ``joint[c, d, x] - joint[d, c, x]`` that
`kwise_digraph` also uses, at k = 2 only the margins, and for k >= 4 one
table of placement costs per component; the order changes only when a
component splits.

`solve` is the single entry point that dispatches on the solve mode
(`brute`, `dp`, `pre`, `pre-refined`); the CLI and the bench harness both
call it.
"""

from __future__ import annotations

import functools
import heapq
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    GuardError,
    InternalCheckError,
    Mask,
    PairCounts,
    Profile,
    full_mask,
    mask_members,
    validate_k,
)
from .solver import (
    ConsensusResult,
    _check_accumulation,
    _subset_sum_costs,
    _table_dtype,
    brute_force_consensus,
    dp_consensus,
    enumerate_consensus,
    solve_components,
)

EXHAUSTIVE_FREE_BOUND = 20
SOLVE_MODES = ("brute", "dp", "pre", "pre-refined")


@dataclass(frozen=True, eq=False)
class KwiseDigraph:
    """Weighted arc set of the k-wise majority digraph, held as arrays.

    ``arcs`` is an (a, 2) intp array of (c, d) rows in ascending order,
    ``weights`` the int64 arc weights and ``witnesses`` a boolean (a, m)
    array.  An arc's witness set is its pair plus the members of its row;
    the row may or may not hold the pair itself (at k = 2 every row is
    empty).  ``order``, when set, is the digraph's component order as
    `scc_decompose` computes it; `refine_digraph` sets it, because its
    fixed point has just computed it.
    """

    m: int
    k: int
    arcs: np.ndarray
    weights: np.ndarray
    witnesses: np.ndarray
    order: "SccOrder | None" = field(default=None, repr=False)


@dataclass(frozen=True)
class SccOrder:
    """Strongly connected components in a topological order of the condensation."""

    components: tuple[Mask, ...]
    order_unique: bool

    @property
    def largest(self) -> int:
        return max(mask.bit_count() for mask in self.components)

    @functools.cached_property
    def _rank(self) -> np.ndarray:
        """``_rank[c]``: the position of c's component."""
        m = sum(map(int.bit_count, self.components))
        return _mask_rows(list(self.components), m).argmax(axis=0)


def _check_forced(c: int, d: int, forced_in: Mask, forced_out: Mask) -> None:
    pair = 1 << c | 1 << d
    if forced_in & pair or forced_out & pair:
        raise ValueError("forced sets must not contain the candidate pair")
    if forced_in & forced_out:
        raise ValueError("forced_in and forced_out must be disjoint")


def best_triple_advantage(
    profile: Profile,
    c: int,
    d: int,
    forced_in: Mask = 0,
    forced_out: Mask = 0,
    counts: PairCounts | None = None,
) -> tuple[int, Mask]:
    """Maximal 3-wise advantage of c over d and the witness set attaining it.

    At k = 3 each further candidate x changes the advantage by an additive
    amount independent of the other members, so the maximum over all contest
    sets respecting the constraints keeps exactly the candidates with a
    positive contribution.
    """
    if c == d:
        raise ValueError("candidates must be distinct")
    _check_forced(c, d, forced_in, forced_out)
    if counts is None:
        counts = PairCounts.of(profile)
    # the margin, plus what each further member x of the contest set adds
    weight = int(counts.above[c, d] - counts.above[d, c])
    gains = (counts.joint[c, d] - counts.joint[d, c]).tolist()
    weight += sum(gains[x] for x in mask_members(forced_in))
    witness = 1 << c | 1 << d | forced_in
    blocked = witness | forced_out
    for x, gain in enumerate(gains):
        if gain > 0 and not blocked >> x & 1:
            weight += gain
            witness |= 1 << x
    return weight, witness


def _placement_costs(
    counts: PairCounts, k: int, members: tuple[int, ...], context: Mask
) -> np.ndarray:
    """``[T, j]``: the cost of placing ``members[j]`` above the members T
    (packed as in `solver._other_bits`) plus ``context``, the DP's cost
    table left state-major; guarded first."""
    if len(members) > EXHAUSTIVE_FREE_BOUND:
        raise GuardError(
            f"witness search refused: {len(members)} candidates, the pair included, exceed "
            f"the bound of {EXHAUSTIVE_FREE_BOUND} (the maximization is NP-hard for k >= 4)")
    dtype = _table_dtype(counts.n, counts.m, k)
    return _subset_sum_costs(counts, k, members, context, dtype, blocks=False).reshape(
        -1, len(members))


def _best_advantage(
    table: np.ndarray, c: int, d: int, excluded: Mask = 0
) -> tuple[int, Mask]:
    """Maximal advantage of member c over member d of ``table`` on R + {c, d}
    + context, R within the other members outside ``excluded``, and the first
    R attaining it in subset-mask order (a mask of members).  Column j paired
    with and without member x gives cost_j(R + x) - cost_j(R) in subset-mask
    order of the members other than j and x; a half keeps the order's rest."""
    def added(j, x):  # int64: the increments' difference can leave int32
        pairs = table[:, j].reshape(-1, 2, 1 << x - (x > j))
        return np.subtract(pairs[:, 1], pairs[:, 0], dtype=np.int64).reshape(-1)

    gain = added(d, c) - added(c, d)
    others = [x for x in range(table.shape[1]) if x != c and x != d]
    for i in reversed(range(len(others))):
        if excluded >> others[i] & 1:
            gain = gain.reshape(-1, 2, 1 << i)[:, 0]
    best = int(gain.argmax())  # into the flattened gains: R's subset mask
    allowed = [x for x in others if not excluded >> x & 1]
    return int(gain.flat[best]), sum(1 << x for i, x in enumerate(allowed) if best >> i & 1)


def _row_masks(bits: np.ndarray) -> list[Mask]:
    """The bitmask of each row of a boolean matrix (column x is bit x)."""
    if bits.shape[1] < 63:  # one exact int64 product
        return (bits @ (1 << np.arange(bits.shape[1]))).tolist()
    rows = np.packbits(bits, axis=1, bitorder="little")
    width, data = rows.shape[1], rows.tobytes()
    return [
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, len(data), width)
    ]


def _mask_rows(masks: list[Mask], m: int) -> np.ndarray:
    """Inverse of `_row_masks`: one boolean row of m columns per mask."""
    width = (m + 7) // 8
    data = b"".join(mask.to_bytes(width, "little") for mask in masks)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)
    bits = np.unpackbits(packed, axis=1, count=m, bitorder="little")
    return bits.view(bool)


def kwise_digraph(
    profile: Profile, k: int, allow_exponential: bool = False
) -> KwiseDigraph:
    """Majority digraph at order ``k``; arcs keep weight and witness set.

    At k = 2 an arc carries the positive pairwise margin and the pair is its
    witness.  At k = 3 all arcs come from one pass over the triple counts:
    the greedy rule of `best_triple_advantage`, applied to every pair.  At
    k >= 4 every pair is read off one table of placement costs.
    """
    m = profile.m
    validate_k(m, k)
    _check_accumulation(profile.n, m, k)  # arc weights are int64 sums
    if k > 3 and not allow_exponential:
        raise GuardError(
            f"constructing the {k}-wise majority digraph requires an "
            "exponential witness search (NP-hard for k >= 4); "
            "pass allow_exponential=True / --force-exponential to proceed"
        )
    counts = PairCounts.of(profile)
    weights = counts.above - counts.above.T
    if k == 3:
        # useful[c, d, x]: what x adds to c's 3-wise advantage over d (the
        # additivity `best_triple_advantage` uses), kept where positive;
        # useful[c, d, c] = -above[d, c] never is; x = d adds above[c, d], taken back
        useful = counts.joint - counts.joint.transpose(1, 0, 2)
        weights += np.maximum(useful, 0, out=useful).sum(axis=2) - counts.above
    elif k > 3:  # every pair off one table; a row holds the pair and its best R
        table = _placement_costs(counts, k, tuple(range(m)), 0)
        found = [(0, 0) if c == d else _best_advantage(table, c, d)
                 for c in range(m) for d in range(m)]
        weights = np.array([weight for weight, _ in found], np.int64).reshape(m, m)
        rows = _mask_rows([rest for _, rest in found], m).reshape(m, m, m)
        useful = rows | np.eye(m, dtype=bool)[:, None] | np.eye(m, dtype=bool)
    arc_at = np.nonzero(weights > 0)
    arcs = np.stack(arc_at, axis=1)
    witnesses = useful[arc_at] > 0 if k >= 3 else np.zeros((len(arcs), m), dtype=bool)
    return KwiseDigraph(m, k, arcs, weights[arc_at], witnesses)


# ---------------------------------------------------------------------------
# strongly connected components


def scc_decompose(graph: KwiseDigraph) -> SccOrder:
    """Strongly connected components in a canonical topological order.

    Components are ordered by Kahn's algorithm with the smallest member id
    as tie-break, so the output is deterministic.  ``order_unique`` holds
    iff every pair of consecutive components is joined by an arc, i.e. the
    condensation admits a single topological order.
    """
    return _kahn(_strong(*_masks(graph.m, graph.arcs)))


def _masks(m: int, pairs: np.ndarray) -> tuple[list[Mask], list[Mask]]:
    """The successors and the predecessors of each vertex, as masks."""
    adjacent = np.zeros((m, m), dtype=bool)
    adjacent[pairs[:, 0], pairs[:, 1]] = True
    return _row_masks(adjacent), _row_masks(adjacent.T)


def _strong(
    successors: list[Mask], predecessors: list[Mask]
) -> list[tuple[Mask, Mask, Mask]]:
    """(lowest member, members, inflow) of each strongly connected component.

    Kosaraju's two searches run on bitmasks: the successors and the
    predecessors of each vertex are one mask each, so a step of either
    search handles a vertex, not an arc.  The second search also collects
    each component's predecessors as a mask, its inflow, which is all
    Kahn's algorithm needs of the condensation.
    """
    # first search: vertices in the order their depth-first visits finish
    finished: list[int] = []
    unvisited = full_mask(len(successors))
    while unvisited:
        low = unvisited & -unvisited
        unvisited ^= low
        path = [low.bit_length() - 1]
        while path:
            ahead = successors[path[-1]] & unvisited
            if ahead:
                low = ahead & -ahead
                unvisited ^= low
                path.append(low.bit_length() - 1)
            else:
                finished.append(path.pop())
    # second search, latest finish first: the unassigned vertices that
    # reach a root form its component
    found: list[tuple[Mask, Mask, Mask]] = []
    unassigned = full_mask(len(successors))
    for root in reversed(finished):
        if not unassigned >> root & 1:
            continue
        component = frontier = 1 << root
        inflow = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            before = predecessors[low.bit_length() - 1]
            inflow |= before
            new = before & unassigned & ~component
            component |= new
            frontier |= new
        unassigned ^= component
        found.append((component & -component, component, inflow & ~component))
    return found


def _kahn(waiting: list[tuple[Mask, Mask, Mask]]) -> SccOrder:
    """The components `_strong` found, in Kahn's order: pop components in
    smallest-member order; one with an unplaced predecessor waits on the
    lowest such vertex until that is placed."""
    heapq.heapify(waiting)
    parked: dict[Mask, list[tuple[Mask, Mask, Mask]]] = {}
    ordered: list[tuple[Mask, Mask]] = []
    placed = 0
    while waiting:
        entry = heapq.heappop(waiting)
        _, component, inflow = entry
        blocking = inflow & ~placed
        if blocking:
            parked.setdefault(blocking & -blocking, []).append(entry)
            continue
        ordered.append((component, inflow))
        placed |= component
        while parked and component:
            low = component & -component
            component ^= low
            for entry in parked.pop(low, ()):
                heapq.heappush(waiting, entry)
    unique = all(
        inflow & before for (before, _), (_, inflow) in zip(ordered, ordered[1:])
    )
    # tuple([...]), not tuple(<generator>): the latter resizes a 10-slot
    # tuple, and each call would leave one more block on a tuple freelist.
    return SccOrder(tuple([component for component, _ in ordered]), unique)


# ---------------------------------------------------------------------------
# refinement


def refine_digraph(graph: KwiseDigraph, profile: Profile) -> KwiseDigraph:
    """Drop intra-component arcs whose constrained advantage is not positive.

    For an arc (c, d) inside a component, a witness set realizable in a
    ranking consistent with the component order must contain every candidate
    of the later components (they end up below the pair) and cannot contain
    candidates of earlier components or unanimous dominators of the pair
    (they can never be below it).  The advantage is re-maximized under these
    constraints and the arc removed when the maximum drops to zero or below.
    Removals can split components, so passes repeat until a fixed point.

    A pass is one array expression over the intra-component arcs.  On
    R + {c, d} + C, C the forced-in candidates, the advantage of c over d is
    cost_d(R + c) - cost_d(R) - cost_c(R + d) + cost_c(R) in the DP's
    placement costs above C.  At k <= 3 the increments are additive in R:
    the 3-wise weight is the margin, plus ``g = joint[c, d] - joint[d, c]``
    over the forced-in candidates, plus the positive g over the free ones
    (`best_triple_advantage`); at k = 2 the margin alone, so a pass only
    drops hand-built arcs.  At k >= 4 one table per component, the later
    ones as context, gives each arc's best R outside its forced-out row, so
    a component of more than `EXHAUSTIVE_FREE_BOUND` candidates is refused
    even where unanimous dominators would leave fewer to search.  A pass
    that drops arcs clears them from the vertex bitmasks and reruns
    Kosaraju's searches: no split component is the fixed point, else Kahn's
    algorithm gives the next order, which the result carries.
    """
    m, k = graph.m, graph.k
    _check_accumulation(profile.n, m, k)
    counts = PairCounts.of(profile)
    successors, predecessors = _masks(m, graph.arcs)  # a pass clears dropped arcs
    order = _kahn(_strong(successors, predecessors))
    source, target = graph.arcs.T
    # the arcs inside a component, and which of them a pass checks: those
    # not dropped and still inside one (components only split)
    inside = np.flatnonzero(order._rank[source] == order._rank[target])
    if not len(inside):  # no arc to check
        return replace(graph, order=order)
    c, d = source[inside], target[inside]
    keep, alive = np.ones(len(source), dtype=bool), np.ones(len(inside), dtype=bool)
    dominated = counts.above.T == counts.n  # [c, x]: every voter prefers x to c
    dominators = dominated[c] | dominated[d]  # forced out, unless in the pair
    margin = counts.above[c, d] - counts.above[d, c]
    if k == 3:  # g, and the positive g of the candidates that may be free
        gains = counts.joint[c, d] - counts.joint[d, c]  # g[c, d, c] <= 0
        free = np.where(dominators | (np.arange(m) == d[:, None]), 0, np.maximum(gains, 0))
    # k >= 4: one table per component and context, built at its first arc
    costs = functools.cache(lambda part, below: _placement_costs(
        counts, k, mask_members(part), below))
    while True:
        rank = order._rank
        own = rank[c][:, None]
        forced_in = rank > own
        if (forced_in & dominators).any():
            raise InternalCheckError("refinement constraints overlap; digraph inconsistent")
        weight = margin
        if k == 3:
            weight = margin + (gains * forced_in + free * (rank == own)).sum(axis=1)
        elif k > 3:
            at = np.flatnonzero(alive)
            parts = [order.components[r] for r in own[at, 0].tolist()]
            forced_out = ((rank < own) | dominators) & ~np.eye(m, dtype=bool)[[c, d]].any(axis=0)
            arcs = zip(c[at].tolist(), d[at].tolist(), parts, _row_masks(forced_in[at]),
                       _row_masks(forced_out[at]))
            weight = np.ones(len(c), np.int64)
            weight[at] = [_constrained_max(costs, *arc) for arc in arcs]
        dropped = (weight <= 0) & alive
        if not dropped.any():
            break
        keep[inside[dropped]] = False
        for x, y in zip(c[dropped].tolist(), d[dropped].tolist()):
            successors[x] &= ~(1 << y)
            predecessors[y] &= ~(1 << x)
        parts = _strong(successors, predecessors)
        if len(parts) == len(order.components):
            break  # no component split: the order, and so every weight, stays
        order = _kahn(parts)
        alive &= ~dropped & (order._rank[c] == order._rank[d])
        dominators[~alive] = False  # a pass checks no other arc
    parts = (graph.arcs, graph.weights, graph.witnesses)
    return KwiseDigraph(m, k, *(part.compress(keep, axis=0) for part in parts), order)


def _constrained_max(
    costs, c: int, d: int, part: Mask, forced_in: Mask, forced_out: Mask
) -> int:
    """One arc's constrained weight at k >= 4, read off ``costs(part, forced_in)``
    (``perfbench/tracing.py`` counts these calls as arcs checked)."""
    members = mask_members(part)
    excluded = sum(1 << i for i, x in enumerate(members) if forced_out >> x & 1)
    table = costs(part, forced_in)
    return _best_advantage(table, members.index(c), members.index(d), excluded)[0]


# ---------------------------------------------------------------------------
# component-wise solving


def partitioned_dp(
    profile: Profile, k: int, order: SccOrder, limit: int | None = None
) -> ConsensusResult:
    """Solve each component with later components fixed below it, concatenate.

    The sum of the per-component optima equals the global optimum, because
    some consensus ranking is consistent with the component order.  The
    reported ``count`` is the number of optimal rankings consistent with
    that order (the product over components).
    """
    return solve_components(profile, k, order.components, limit, count_optima=True)


def preprocess(
    profile: Profile,
    k: int,
    refine: bool = False,
    allow_exponential: bool = False,
) -> tuple[KwiseDigraph, SccOrder]:
    """Build the k-wise majority digraph and its component order."""
    graph = kwise_digraph(profile, k, allow_exponential=allow_exponential)
    if refine:  # refinement orders the components itself
        graph = refine_digraph(graph, profile)
    return graph, graph.order or scc_decompose(graph)


def solve(
    profile: Profile,
    k: int,
    mode: str = "dp",
    limit: int | None = None,
    allow_exponential: bool = False,
) -> ConsensusResult:
    """Consensus ranking by one of :data:`SOLVE_MODES`.

    ``limit=None`` reports one optimal ranking; an int reports up to that
    many, and then ``count`` is exact in every mode (``dp`` only counts the
    optima when a limit is given).  ``brute`` always reports every
    minimizer.  The ``pre`` modes build the k-wise majority digraph (refined
    for ``pre-refined``) and solve its components; their ``count`` is the
    number of optima consistent with the component order, and their
    ``stats.millis`` includes the preprocessing.
    """
    if mode not in SOLVE_MODES:
        raise ValueError(
            f"unknown solver mode {mode!r}; expected one of {SOLVE_MODES}"
        )
    if mode == "brute":
        return brute_force_consensus(profile, k)
    # m = 1: the DP answers any k >= 2; the digraph would refuse k >= 4
    if mode == "dp" or profile.m == 1:
        if limit is None:
            return dp_consensus(profile, k)
        return enumerate_consensus(profile, k, limit)
    started = time.perf_counter()
    # k and the totals' bound first: the shared counts are int64
    validate_k(profile.m, k)
    _check_accumulation(profile.n, profile.m, k)
    with PairCounts.shared(profile):
        _, order = preprocess(profile, k, mode == "pre-refined", allow_exponential)
        result = partitioned_dp(profile, k, order, limit)
    millis = (time.perf_counter() - started) * 1000.0
    return replace(result, stats=replace(result.stats, millis=millis))


# ---------------------------------------------------------------------------
# DOT export


def to_dot(graph: KwiseDigraph, order: SccOrder | None = None) -> str:
    """Graphviz rendering with byte-stable ordering.

    Nodes ascend by candidate id (labeled c1..cm); edges sort by id pairs.
    When a component order is given, nodes are grouped into one cluster per
    component.
    """
    lines = ["digraph majority {", "  rankdir=LR;"]
    if order is None:
        for c in range(graph.m):
            lines.append(f"  c{c + 1};")
    else:
        for i, mask in enumerate(order.components):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="B{i + 1}";')
            for c in mask_members(mask):
                lines.append(f"    c{c + 1};")
            lines.append("  }")
    for (c, d), weight in zip(graph.arcs.tolist(), graph.weights.tolist()):
        lines.append(f'  c{c + 1} -> c{d + 1} [label="{weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
