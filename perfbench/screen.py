"""The benchmark's own component sizes of the refined k-wise majority digraph.

``pre-refined-m30`` redraws a profile whose refined digraph has a component
too large for the subset DP to fit in memory.  That rule must not read the
program under test: a change to the program's refinement would otherwise
change which profiles are measured.  So the screen computes the components
here, from the profile file alone, following the definitions of the paper
for k = 2 and k = 3:

* the advantage of c over d is the pairwise margin plus, at k = 3, each
  other candidate's positive contribution (voters preferring c to d and to
  x, minus voters preferring d to c and to x);
* an arc (c, d) exists when that advantage is positive;
* components are the strongly connected components, in Kahn's topological
  order with the smallest member as tie-break;
* refinement re-maximizes each intra-component arc with later components
  forced into the contest set and earlier components and unanimous
  dominators of the pair forced out, drops arcs whose maximum is no longer
  positive, and repeats until nothing is dropped.
"""

from __future__ import annotations

import heapq
from pathlib import Path

import numpy as np


def read_profile(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Positions (groups x candidates, 0 = top) and voter counts of a
    ``count: id,id,...`` profile file."""
    rows, counts = [], []
    lines = [line.strip() for line in path.read_text().splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    m = int(lines[0].split()[0])
    for line in lines[1:]:
        head, _, rest = line.partition(":")
        ids = [int(tok) - 1 for tok in rest.split(",")]
        position = np.empty(m, dtype=np.int64)
        position[ids] = np.arange(m)
        rows.append(position)
        counts.append(int(head))
    return np.array(rows), np.array(counts, dtype=np.int64)


def components(arcs: set[tuple[int, int]], m: int) -> list[set[int]]:
    """Strongly connected components in Kahn's order, smallest member first."""
    reach = np.eye(m, dtype=bool)
    for c, d in arcs:
        reach[c, d] = True
    for x in range(m):  # transitive closure (Warshall)
        reach |= reach[:, [x]] & reach[[x], :]
    comp_of, comps = {}, []
    for c in range(m):
        if c not in comp_of:
            members = {d for d in range(m) if reach[c, d] and reach[d, c]}
            for d in members:
                comp_of[d] = len(comps)
            comps.append(members)
    succ = [set() for _ in comps]
    indegree = [0] * len(comps)
    for c, d in arcs:
        a, b = comp_of[c], comp_of[d]
        if a != b and b not in succ[a]:
            succ[a].add(b)
            indegree[b] += 1
    heap = [(min(comps[i]), i) for i in range(len(comps)) if indegree[i] == 0]
    heapq.heapify(heap)
    ordered = []
    while heap:
        _, i = heapq.heappop(heap)
        ordered.append(comps[i])
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(heap, (min(comps[j]), j))
    return ordered


def refined_component_sizes(path: Path, k: int) -> list[int]:
    """Sizes of the refined digraph's components at k = 2 or 3."""
    if k not in (2, 3):
        raise ValueError(f"the screen covers k = 2 and 3, not {k}")
    positions, counts = read_profile(path)
    m = positions.shape[1]
    prefers = (positions[:, :, None] < positions[:, None, :]).astype(np.int64)
    above = np.einsum("g,gcx->cx", counts, prefers)
    margin = above - above.T
    # gain[c, d, x]: advantage of c over d gained by adding x to the contest set
    joint = np.einsum("g,gcd,gcx->cdx", counts, prefers, prefers)
    gain = joint - joint.transpose(1, 0, 2) if k == 3 else np.zeros((m, m, m), np.int64)
    dominators = above.T == counts.sum()  # dominators[c, x]: every voter puts x above c
    np.fill_diagonal(dominators, False)

    def advantage(c: int, d: int, forced_in, forced_out) -> int:
        free = np.ones(m, dtype=bool)
        free[[c, d]] = False
        free &= ~forced_in & ~forced_out
        row = gain[c, d]
        return int(margin[c, d] + row[forced_in].sum() + row[free & (row > 0)].sum())

    none = np.zeros(m, dtype=bool)
    arcs = {(c, d) for c in range(m) for d in range(m)
            if c != d and advantage(c, d, none, none) > 0}
    while True:
        order = components(arcs, m)
        index = np.empty(m, dtype=np.int64)
        for i, comp in enumerate(order):
            index[list(comp)] = i
        removed = set()
        for c, d in arcs:
            i = index[c]
            if index[d] != i:
                continue
            forced_in = index > i
            forced_out = (index < i) | dominators[c] | dominators[d]
            forced_out[[c, d]] = False
            if advantage(c, d, forced_in, forced_out) <= 0:
                removed.add((c, d))
        if not removed:
            return [len(comp) for comp in order]
        arcs -= removed
