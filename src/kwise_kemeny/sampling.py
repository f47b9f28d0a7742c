"""Random preference-profile generators.

`mallows_sample` draws rankings whose probability is proportional to
phi^(Kendall tau distance to a reference ranking sigma) by repeated
insertion (Doignon, Pekec & Regenwetter, Psychometrika 2004): the j-th
candidate of sigma goes into the partial ranking at a slot chosen with
probability proportional to phi^(new inversions), which realizes the law
exactly.  phi = 1 gives the impartial culture (uniform) distribution.

Voter v draws from a child stream of the seed (spawn key v), so results do
not depend on sampling order.  Each voter draws its m insertion variates
in one call, ``random(m)`` or, at phi = 1, ``integers([1, ..., m])``;
both consume the stream exactly as m scalar calls do.  Step j's slots are
one ``searchsorted`` over all voters with the same float products as a
voter-by-voter draw, so the batched sampler is byte-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Profile, Ranking

#: Identifier of the RNG recorded in experiment reports.
RNG_ALGORITHM = "numpy-PCG64"


@dataclass(frozen=True)
class MallowsParams:
    sigma: Ranking
    phi: float
    n: int
    seed: int

    def __post_init__(self):
        if not 0 < self.phi <= 1:
            raise ValueError(f"phi must lie in (0, 1], got {self.phi}")
        if self.n < 1:
            raise ValueError("voter count must be positive")


def _voter_rng(seed: int, voter: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(voter,)))


def mallows_sample(params: MallowsParams) -> Profile:
    """n independent rankings from the Mallows law around ``params.sigma``."""
    m, n, phi = params.sigma.m, params.n, params.phi
    if phi == 1.0:
        highs = np.arange(1, m + 1)
        slots = np.array([_voter_rng(params.seed, v).integers(highs) for v in range(n)])
    else:
        draws = np.array([_voter_rng(params.seed, v).random(m) for v in range(n)])
        slots = np.empty((n, m), np.intp)
        for j in range(m):  # slot p costs j - p new inversions
            total = (phi ** np.arange(j, -1, -1, dtype=np.float64)).cumsum()
            slots[:, j] = np.searchsorted(total, draws[:, j] * total[-1], side="right")
    # positions[v, j]: where sigma's j-th candidate stands in voter v's ranking
    # so far; inserting at slot p moves every candidate at p or lower down one
    positions = np.empty((n, m), np.intp)
    for j in range(m):
        placed = positions[:, :j]
        placed += placed >= slots[:, j, None]
        positions[:, j] = slots[:, j]
    orders = np.empty_like(positions)
    orders[np.arange(n)[:, None], positions] = params.sigma.order
    return Profile._of_orders(orders, [1] * n)


def impartial_culture(m: int, n: int, seed: int) -> Profile:
    """n rankings drawn uniformly from the m! permutations."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    orders = np.array([_voter_rng(seed, v).permutation(m) for v in range(n)])
    return Profile._of_orders(orders, [1] * n)
