import numpy as np
import pytest

from kwise_kemeny import Profile, Ranking, SccOrder, mask_members, parse_profile

# 100 voters, 3 candidates: the Condorcet winner (c2) tops only 3 ballots
# while c1 tops 49, so pairwise and setwise aggregation pull apart.
TENSION_TEXT = "3 100\n49: 1,2,3\n48: 3,2,1\n3: 2,3,1\n"

# 10 voters, 6 candidates; its 3-wise majority digraph has two non-trivial
# strongly connected components ({c3,c4} and {c5,c6}).
SIX_TEXT = (
    "6 10\n"
    "4: 1,2,4,3,5,6\n"
    "4: 1,3,2,4,5,6\n"
    "1: 6,1,2,4,3,5\n"
    "1: 6,1,4,3,2,5\n"
)


@pytest.fixture
def tension_profile() -> Profile:
    return parse_profile(TENSION_TEXT)


@pytest.fixture
def six_profile() -> Profile:
    return parse_profile(SIX_TEXT)


def random_profile(rng: np.random.Generator, m: int, n: int) -> Profile:
    return Profile.from_rankings(m, [Ranking(rng.permutation(m)) for _ in range(n)])


@pytest.fixture
def profile_factory():
    return random_profile


# Stand-ins for views of the data model that only the tests use.


def mask_of(candidates) -> int:
    """The bitmask of an iterable of candidate ids."""
    return sum(1 << c for c in set(candidates))


def restrict(ranking: Ranking, subset: int) -> tuple[int, ...]:
    """The members of a non-empty ``subset`` in ``ranking``'s order."""
    members = tuple([c for c in ranking.order if subset >> c & 1])
    if not members:
        raise ValueError("empty contest set")
    return members


def top_choice(ranking: Ranking, subset: int) -> int:
    """The most preferred member of a non-empty ``subset``."""
    return restrict(ranking, subset)[0]


def restrict_profile(profile: Profile, subset: int) -> Profile:
    """The profile restricted to ``subset``, candidates reindexed densely."""
    dense = {c: i for i, c in enumerate(mask_members(subset))}
    return Profile(len(dense), [
        (Ranking([dense[c] for c in restrict(ranking, subset)]), count)
        for ranking, count in profile.groups
    ])


def component_index(order: SccOrder) -> dict[int, int]:
    """Candidate id to the position of its component in ``order``."""
    return {
        c: i for i, mask in enumerate(order.components) for c in mask_members(mask)
    }
