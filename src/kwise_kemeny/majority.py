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
reference.  For k >= 4 the maximization is intractable and only a guarded
exhaustive search is offered (`best_advantage_exhaustive`).

A topological order of the digraph's strongly connected components splits
the aggregation problem: some consensus ranking orders the components that
way, so each component is solved by the subset DP with all later components
fixed below it (`partitioned_dp`, a call of the shared component loop
`solver.solve_components`).  `refine_digraph` sharpens the split by
re-maximizing intra-component arcs under the placement constraints implied
by the component order and by unanimous dominance, dropping arcs whose
constrained advantage is no longer positive.

The digraph's arcs are arrays (`_ArcTable`), and both steps read them as
arrays.  `scc_decompose` runs Kosaraju's searches on one successor and one
predecessor bitmask per vertex.  A refinement pass is one array expression
over the intra-component arcs: at k = 3 it reads the gains tensor
``joint[c, d, x] - joint[d, c, x]`` that `kwise_digraph` also uses, at k = 2
only the margins, and for k >= 4 it passes the same constraint rows to the
exhaustive search arc by arc.

`solve` is the single entry point that dispatches on the solve mode
(`brute`, `dp`, `pre`, `pre-refined`); the CLI and the bench harness both
call it.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field, replace
from collections.abc import Iterator, Mapping
from typing import NamedTuple

import numpy as np

from .core import (
    GuardError,
    InternalCheckError,
    Mask,
    PairCounts,
    Profile,
    bit,
    full_mask,
    iter_mask,
    mask_members,
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


class Arc(NamedTuple):
    weight: int
    witness: Mask


class _ArcTable(Mapping):
    """Arcs of a digraph held as arrays; the ``Arc`` objects are made on the
    first lookup.  Splitting into components and refining read only the
    arrays, so a preprocessed solve makes no per-arc objects.

    ``pairs`` is an (arcs, 2) array of (c, d) rows in ascending order,
    ``weights`` the arc weights and ``rows`` a boolean (arcs, m) matrix of
    each witness's members (the pair itself may be left out), or None when
    every witness is just its pair.
    """

    def __init__(
        self, pairs: np.ndarray, weights: np.ndarray, rows: np.ndarray | None
    ):
        self.pairs = pairs
        self.weights = weights
        self.rows = rows
        self._arcs: dict[tuple[int, int], Arc] | None = None

    @classmethod
    def of(cls, m: int, arcs: Mapping[tuple[int, int], Arc]) -> "_ArcTable":
        """The arcs of any mapping as a table."""
        if isinstance(arcs, cls):
            return arcs
        items = sorted(arcs.items())
        pairs = np.array([pair for pair, _ in items], dtype=np.intp).reshape(-1, 2)
        weights = np.array([arc.weight for _, arc in items], dtype=np.int64)
        rows = _mask_rows([arc.witness for _, arc in items], m)
        return cls(pairs, weights, rows)

    def subset(self, keep: np.ndarray) -> "_ArcTable":
        """The arcs selected by a boolean vector, in the same order."""
        rows = None if self.rows is None else self.rows[keep]
        return _ArcTable(self.pairs[keep], self.weights[keep], rows)

    def _pair_tuples(self) -> list[tuple[int, int]]:
        return list(map(tuple, self.pairs.tolist()))

    def _table(self) -> dict[tuple[int, int], Arc]:
        if self._arcs is None:
            pairs = self._pair_tuples()
            extras = (
                itertools.repeat(0) if self.rows is None else _row_masks(self.rows)
            )
            witnesses = (
                extra | 1 << c | 1 << d for (c, d), extra in zip(pairs, extras)
            )
            self._arcs = dict(
                zip(pairs, map(Arc, self.weights.tolist(), witnesses))
            )
        return self._arcs

    def __getitem__(self, pair: tuple[int, int]) -> Arc:
        return self._table()[pair]

    def items(self):  # not ItemsView, which looks up every arc on its own
        return self._table().items()

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pair_tuples())

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class KwiseDigraph:
    """Weighted arc set of the k-wise majority digraph.

    ``order``, when set, is the digraph's component order as
    `scc_decompose` computes it; `refine_digraph` sets it, because its
    fixed point has just computed it.
    """

    m: int
    k: int
    arcs: Mapping[tuple[int, int], Arc]
    order: "SccOrder | None" = field(default=None, compare=False, repr=False)

    def arc_items(self) -> list[tuple[tuple[int, int], Arc]]:
        return sorted(self.arcs.items())


@dataclass(frozen=True)
class SccOrder:
    """Strongly connected components in a topological order of the condensation."""

    components: tuple[Mask, ...]
    order_unique: bool

    @property
    def largest(self) -> int:
        return max(mask.bit_count() for mask in self.components)


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
        counts = PairCounts.of(profile)
    # the margin, plus what each further member x of the contest set adds
    weight = int(counts.above[c, d] - counts.above[d, c])
    gains = (counts.joint[c, d] - counts.joint[d, c]).tolist()
    weight += sum(gains[x] for x in iter_mask(forced_in))
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
        pools = np.bitwise_count(subsets & np.uint32(local)).astype(np.int64) + base
        advantage += sign * lookup[pools]
    best = int(np.argmax(advantage))
    witness = bit(c) | bit(d) | forced_in
    for j, x in enumerate(free):
        if best >> j & 1:
            witness |= 1 << x
    return int(advantage[best]), witness


def _row_masks(bits: np.ndarray) -> list[Mask]:
    """The bitmask of each row of a boolean matrix (column x is bit x)."""
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
    the greedy rule of `best_triple_advantage`, applied to every pair.
    """
    m = profile.m
    validate_k(m, k)
    if k > 3 and not allow_exponential:
        raise GuardError(
            f"constructing the {k}-wise majority digraph requires an "
            "exponential witness search (NP-hard for k >= 4); "
            "pass allow_exponential=True / --force-exponential to proceed"
        )
    if k > 3:
        arcs: dict[tuple[int, int], Arc] = {}
        for c in range(m):
            for d in range(m):
                if c != d:
                    weight, witness = best_advantage_exhaustive(profile, c, d, k)
                    if weight > 0:
                        arcs[(c, d)] = Arc(weight, witness)
        return KwiseDigraph(m, k, arcs)
    counts = PairCounts.of(profile)
    weights = counts.above - counts.above.T
    if k == 3:
        # gains[c, d, x]: what x adds to c's 3-wise advantage over d (the
        # additivity `best_triple_advantage` uses), kept where positive
        gains = counts.joint - counts.joint.transpose(1, 0, 2)
        useful = gains > 0
        every = np.arange(m)
        useful[every, :, every] = False
        useful[:, every, every] = False
        weights += (gains * useful).sum(axis=2)
    arc_at = np.nonzero(weights > 0)
    pairs = np.stack(arc_at, axis=1)
    rows = useful[arc_at] if k == 3 else None
    return KwiseDigraph(m, k, _ArcTable(pairs, weights[arc_at], rows))


# ---------------------------------------------------------------------------
# strongly connected components


def scc_decompose(graph: KwiseDigraph) -> SccOrder:
    """Strongly connected components in a canonical topological order.

    Components are ordered by Kahn's algorithm with the smallest member id
    as tie-break, so the output is deterministic.  ``order_unique`` holds
    iff every pair of consecutive components is joined by an arc, i.e. the
    condensation admits a single topological order.
    """
    return _components(graph.m, _ArcTable.of(graph.m, graph.arcs).pairs)


def _components(m: int, pairs: np.ndarray) -> SccOrder:
    """`scc_decompose` of the digraph with arcs ``pairs`` on m vertices.

    Kosaraju's two searches run on bitmasks: the successors and the
    predecessors of each vertex are one mask each, so a step of either
    search handles a vertex, not an arc.  The second search also collects
    each component's predecessors as a mask, which is all Kahn's algorithm
    needs of the condensation.
    """
    adjacent = np.zeros((m, m), dtype=bool)
    adjacent[pairs[:, 0], pairs[:, 1]] = True
    successors = _row_masks(adjacent)
    predecessors = _row_masks(adjacent.T)
    # first search: vertices in the order their depth-first visits finish
    finished: list[int] = []
    unvisited = full_mask(m)
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
    waiting: list[tuple[Mask, Mask, Mask]] = []  # (lowest member, members, inflow)
    unassigned = full_mask(m)
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
        waiting.append((component & -component, component, inflow & ~component))
    # Kahn: pop components in smallest-member order; one with an unplaced
    # predecessor waits on the lowest such vertex until that is placed
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

    A pass is one array expression over the intra-component arcs.  With the
    gains ``g[c, d, x] = joint[c, d, x] - joint[d, c, x]`` of `kwise_digraph`,
    the constrained 3-wise weight is the margin, plus g over the forced-in
    candidates, plus the positive g over the free ones: the greedy rule of
    `best_triple_advantage`.  At k = 2 the weight is the margin alone, so a
    pass never removes an arc of `kwise_digraph`'s output, whose arcs all
    have a positive margin; it only drops hand-built arcs that do not.  For
    k >= 4 the same constraint rows go to `best_advantage_exhaustive`, one
    arc at a time.  The result carries its component order.
    """
    m, k = graph.m, graph.k
    counts = PairCounts.of(profile)
    table = _ArcTable.of(m, graph.arcs)
    if order is None:
        order = _components(m, table.pairs)
    source, target = table.pairs.T
    dominated = counts.above == counts.n  # [x, c]: every voter prefers x to c
    every = np.arange(m)
    keep = np.ones(len(source), dtype=bool)
    # arcs that may lie inside a component; components only split, so this
    # set only shrinks
    inside = np.arange(len(source))
    while True:
        rank = _mask_rows(list(order.components), m).argmax(axis=0)
        inside = inside[rank[source[inside]] == rank[target[inside]]]
        c, d = source[inside], target[inside]
        own = rank[c][:, None]
        pair = (every == c[:, None]) | (every == d[:, None])
        forced_in = rank > own
        forced_out = ((rank < own) | dominated[:, c].T | dominated[:, d].T) & ~pair
        if (forced_in & forced_out).any():
            raise InternalCheckError(
                "refinement constraints overlap; digraph inconsistent"
            )
        weight = counts.above[c, d] - counts.above[d, c]
        if k == 3:
            gains = counts.joint[c, d] - counts.joint[d, c]
            free = ~(forced_in | forced_out | pair)  # g[c, d, d] is above[c, d]
            weight += (gains * forced_in).sum(axis=1)
            weight += (np.maximum(gains, 0) * free).sum(axis=1)
        elif k > 3:
            weight = np.array([
                _constrained_max(profile, k, *arc)
                for arc in zip(
                    c.tolist(), d.tolist(),
                    _row_masks(forced_in), _row_masks(forced_out),
                )
            ], dtype=np.int64)
        dropped = weight <= 0
        if not dropped.any():
            break
        keep[inside[dropped]] = False
        inside = inside[~dropped]
        order = _components(m, table.pairs[keep])
    return KwiseDigraph(m, k, table.subset(keep), order)


def _constrained_max(
    profile: Profile, k: int, c: int, d: int, forced_in: Mask, forced_out: Mask
) -> int:
    """One arc's constrained weight at k >= 4, by exhaustive search
    (``perfbench/tracing.py`` counts these calls as arcs checked)."""
    return best_advantage_exhaustive(profile, c, d, k, forced_in, forced_out)[0]


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
        order = graph.order
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
    for (c, d), arc in graph.arc_items():
        lines.append(f'  c{c + 1} -> c{d + 1} [label="{arc.weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
