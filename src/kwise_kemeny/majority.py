"""Setwise majority digraphs and the divide-and-conquer preprocessing.

For an ordered candidate pair (c, c') and a contest set S containing both,
the *setwise advantage* of c over c' is the number of (voter, subset) pairs
where c tops a subset of S of size at most k containing both candidates,
minus the symmetric count for c'.  An arc (c, c') enters the k-wise majority
digraph when some S gives a strictly positive advantage; the arc weight is
the maximum advantage and the maximizing S is kept as the arc's witness.

At k = 3 every candidate outside the pair contributes to the advantage
independently, so the maximizing set is found greedily in polynomial time
(`best_triple_advantage`).  For k >= 4 the maximization is intractable and
only a guarded exhaustive search is offered (`best_advantage_exhaustive`).

A topological order of the digraph's strongly connected components splits
the aggregation problem: some consensus ranking orders the components that
way, so each component is solved by the subset DP with all later components
fixed below it (`partitioned_dp`, a call of the shared component loop
`solver.solve_components`).  `refine_digraph` sharpens the split by
re-maximizing intra-component arcs under the placement constraints implied
by the component order and by unanimous dominance, dropping arcs whose
constrained advantage is no longer positive.

`solve` is the single entry point that dispatches on the solve mode
(`brute`, `dp`, `pre`, `pre-refined`); the CLI and the bench harness both
call it.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .core import (
    GuardError,
    InternalCheckError,
    Mask,
    Profile,
    bit,
    full_mask,
    iter_mask,
    mask_members,
    mask_of,
    popcount_array,
    validate_k,
)
from .distance import BinomialPrefixTable
from .solver import (
    ConsensusResult,
    brute_force_consensus,
    dp_consensus,
    enumerate_consensus,
    solve_components,
)

EXHAUSTIVE_FREE_BOUND = 20
SOLVE_MODES = ("brute", "dp", "pre", "pre-refined")


@dataclass(frozen=True)
class Arc:
    weight: int
    witness: Mask


@dataclass(frozen=True)
class KwiseDigraph:
    """Weighted arc set of the k-wise majority digraph."""

    m: int
    k: int
    arcs: Mapping[tuple[int, int], Arc]

    def arc_items(self) -> list[tuple[tuple[int, int], Arc]]:
        return sorted(self.arcs.items())

    def successors(self, c: int) -> list[int]:
        return sorted(d for (a, d) in self.arcs if a == c)

    def without(self, removed: Iterable[tuple[int, int]]) -> "KwiseDigraph":
        gone = set(removed)
        kept = {pair: arc for pair, arc in self.arcs.items() if pair not in gone}
        return KwiseDigraph(self.m, self.k, kept)


@dataclass(frozen=True)
class SccOrder:
    """Strongly connected components in a topological order of the condensation."""

    components: tuple[Mask, ...]
    order_unique: bool

    @property
    def largest(self) -> int:
        return max(mask.bit_count() for mask in self.components)

    def component_of(self) -> dict[int, int]:
        index: dict[int, int] = {}
        for i, mask in enumerate(self.components):
            for c in iter_mask(mask):
                index[c] = i
        return index


class PairCounts:
    """Voter-count statistics the digraph constructions run on.

    ``above[c, x]`` counts voters preferring c to x; ``joint[c, d, x]``
    counts voters preferring c to d and c to x.
    """

    __slots__ = ("m", "n", "above", "joint")

    def __init__(self, profile: Profile):
        m = profile.m
        counts = profile.counts_array()
        positions = profile.positions_matrix()
        prefers = (positions[:, :, None] < positions[:, None, :]).astype(np.int64)
        above = np.einsum("g,gcx->cx", counts, prefers)
        joint = np.einsum("g,gcd,gcx->cdx", counts, prefers, prefers)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", int(counts.sum()))
        object.__setattr__(self, "above", above)
        object.__setattr__(self, "joint", joint)

    def __setattr__(self, name, value):
        raise AttributeError("PairCounts is immutable")

    def margin(self, c: int, d: int) -> int:
        return int(self.above[c, d] - self.above[d, c])

    def contributions(self, c: int, d: int) -> list[int]:
        """Advantage gained on (c, d) triples by adding each x to the contest set."""
        return (self.joint[c, d] - self.joint[d, c]).tolist()

    def unanimous_above(self, c: int) -> Mask:
        """Mask of candidates every voter prefers to ``c``."""
        mask = 0
        for x in range(self.m):
            if x != c and self.above[x, c] == self.n:
                mask |= 1 << x
        return mask


def _check_pair_in_subset(subset: Mask, winner: int, loser: int) -> None:
    if winner == loser:
        raise ValueError("candidates must be distinct")
    if not (subset >> winner & 1 and subset >> loser & 1):
        raise ValueError("both candidates must belong to the contest set")


def setwise_support(
    profile: Profile,
    subset: Mask,
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
    rest = subset & ~(bit(winner) | bit(loser))
    total = 0
    for ranking, count in profile.groups:
        if ranking.prefers(winner, loser):
            pool = (ranking.below_set(winner) & rest).bit_count()
            total += count * table.prefix_below(pool)
    return total


def setwise_advantage(
    profile: Profile, subset: Mask, c: int, d: int, k: int
) -> int:
    """Net advantage of c over d on contest sets within ``subset``."""
    table = BinomialPrefixTable(profile.m, k)
    return setwise_support(profile, subset, c, d, k, table) - setwise_support(
        profile, subset, d, c, k, table
    )


def _check_forced(c: int, d: int, forced_in: Mask, forced_out: Mask) -> None:
    pair = bit(c) | bit(d)
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
        counts = PairCounts(profile)
    gains = counts.contributions(c, d)
    weight = counts.margin(c, d) + sum(gains[x] for x in iter_mask(forced_in))
    witness = bit(c) | bit(d) | forced_in
    blocked = witness | forced_out
    for x, gain in enumerate(gains):
        if gain > 0 and not blocked >> x & 1:
            weight += gain
            witness |= 1 << x
    return weight, witness


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
    free = mask_members(full_mask(m) & ~(bit(c) | bit(d) | forced_in | forced_out))
    subsets = np.arange(1 << len(free), dtype=np.uint32)
    advantage = np.zeros(len(subsets), dtype=np.int64)
    fixed_members = forced_in
    for ranking, count in profile.groups:
        if ranking.prefers(c, d):
            sign, pool = count, ranking.below_set(c)
        else:
            sign, pool = -count, ranking.below_set(d)
        base = (pool & fixed_members).bit_count()
        local = 0
        for j, x in enumerate(free):
            if pool >> x & 1:
                local |= 1 << j
        pools = popcount_array(subsets & np.uint32(local)).astype(np.int64) + base
        advantage += sign * lookup[pools]
    best = int(np.argmax(advantage))
    witness = bit(c) | bit(d) | forced_in
    for j, x in enumerate(free):
        if best >> j & 1:
            witness |= 1 << x
    return int(advantage[best]), witness


def kwise_digraph(
    profile: Profile, k: int, allow_exponential: bool = False
) -> KwiseDigraph:
    """Majority digraph at order ``k``; arcs keep weight and witness set.

    At k = 2 an arc carries the positive pairwise margin and the pair is its
    witness.
    """
    m = profile.m
    validate_k(m, k)
    if k > 3 and not allow_exponential:
        raise GuardError(
            f"constructing the {k}-wise majority digraph requires an "
            "exponential witness search (NP-hard for k >= 4); "
            "pass allow_exponential=True / --force-exponential to proceed"
        )
    counts = PairCounts(profile) if k <= 3 else None
    arcs: dict[tuple[int, int], Arc] = {}
    for c in range(m):
        for d in range(m):
            if c == d:
                continue
            if k == 2:
                weight, witness = counts.margin(c, d), bit(c) | bit(d)
            elif k == 3:
                weight, witness = best_triple_advantage(profile, c, d, counts=counts)
            else:
                weight, witness = best_advantage_exhaustive(profile, c, d, k)
            if weight > 0:
                arcs[(c, d)] = Arc(weight, witness)
    return KwiseDigraph(m, k, arcs)


# ---------------------------------------------------------------------------
# strongly connected components


def scc_decompose(graph: KwiseDigraph) -> SccOrder:
    """Tarjan components, then a canonical topological order of the condensation.

    Components are ordered by Kahn's algorithm with the smallest member id
    as tie-break, so the output is deterministic.  ``order_unique`` holds
    iff every pair of consecutive components is joined by an arc, i.e. the
    condensation admits a single topological order.
    """
    m = graph.m
    adjacency: dict[int, list[int]] = {c: graph.successors(c) for c in range(m)}
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    def connect(v: int) -> None:
        nonlocal counter
        index_of[v] = lowlink[v] = counter
        counter += 1
        stack.append(v)
        on_stack.add(v)
        for w in adjacency[v]:
            if w not in index_of:
                connect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in on_stack:
                lowlink[v] = min(lowlink[v], index_of[w])
        if lowlink[v] == index_of[v]:
            component = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.append(w)
                if w == v:
                    break
            components.append(component)

    for v in range(m):
        if v not in index_of:
            connect(v)

    comp_id = {c: i for i, comp in enumerate(components) for c in comp}
    succ: list[set[int]] = [set() for _ in components]
    indegree = [0] * len(components)
    for (c, d) in graph.arcs:
        a, b_ = comp_id[c], comp_id[d]
        if a != b_ and b_ not in succ[a]:
            succ[a].add(b_)
            indegree[b_] += 1
    keys = [min(comp) for comp in components]
    heap = [(keys[i], i) for i in range(len(components)) if indegree[i] == 0]
    heapq.heapify(heap)
    ordered: list[int] = []
    while heap:
        _, i = heapq.heappop(heap)
        ordered.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(heap, (keys[j], j))
    masks = tuple(mask_of(components[i]) for i in ordered)
    unique = all(
        ordered[i + 1] in succ[ordered[i]] for i in range(len(ordered) - 1)
    )
    return SccOrder(masks, unique)


# ---------------------------------------------------------------------------
# refinement


def _constrained_max(
    profile: Profile,
    counts: PairCounts,
    c: int,
    d: int,
    k: int,
    forced_in: Mask,
    forced_out: Mask,
) -> int:
    if k == 2:
        return counts.margin(c, d)
    if k == 3:
        weight, _ = best_triple_advantage(
            profile, c, d, forced_in=forced_in, forced_out=forced_out, counts=counts
        )
        return weight
    weight, _ = best_advantage_exhaustive(
        profile, c, d, k, forced_in=forced_in, forced_out=forced_out
    )
    return weight


def refine_digraph(
    graph: KwiseDigraph, profile: Profile, order: SccOrder | None = None
) -> KwiseDigraph:
    """Drop intra-component arcs whose constrained advantage is not positive.

    For an arc (c, d) inside a component, a witness set realizable in a
    ranking consistent with the component order must contain every candidate
    of the later components (they end up below the pair) and cannot contain
    candidates of earlier components or unanimous dominators of the pair
    (they can never be below it).  The advantage is re-maximized under these
    constraints and the arc removed when the maximum drops to zero or below.
    Removals can split components, so passes repeat until a fixed point.
    """
    counts = PairCounts(profile)
    dominators = [counts.unanimous_above(c) for c in range(graph.m)]
    if order is None:
        order = scc_decompose(graph)
    for _ in range(max(1, graph.m * graph.m)):
        comp_of = order.component_of()
        earlier = _prefix_masks(order.components)
        removed: list[tuple[int, int]] = []
        for (c, d), _arc in graph.arc_items():
            i = comp_of[c]
            if comp_of[d] != i:
                continue
            pair = bit(c) | bit(d)
            forced_in = full_mask(graph.m) & ~(earlier[i] | order.components[i])
            forced_out = (earlier[i] | dominators[c] | dominators[d]) & ~pair
            if forced_in & forced_out:
                raise InternalCheckError(
                    "refinement constraints overlap; digraph inconsistent"
                )
            weight = _constrained_max(
                profile, counts, c, d, graph.k, forced_in, forced_out
            )
            if weight <= 0:
                removed.append((c, d))
        if not removed:
            return graph
        graph = graph.without(removed)
        order = scc_decompose(graph)
    return graph


def _prefix_masks(components: tuple[Mask, ...]) -> list[Mask]:
    out = [0] * len(components)
    acc = 0
    for i, mask in enumerate(components):
        out[i] = acc
        acc |= mask
    return out


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
    order = scc_decompose(graph)
    if refine:
        graph = refine_digraph(graph, profile, order)
        order = scc_decompose(graph)
    return graph, order


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
    if mode == "dp" or profile.m == 1:  # one candidate: nothing to preprocess
        if limit is None:
            return dp_consensus(profile, k)
        return enumerate_consensus(profile, k, limit)
    started = time.perf_counter()
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
    for (c, d), arc in graph.arc_items():
        lines.append(f'  c{c + 1} -> c{d + 1} [label="{arc.weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
