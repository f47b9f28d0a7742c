"""Election data model: candidates, rankings, profiles and subset masks.

Candidates are dense integer ids ``0..m-1``.  A subset of candidates is a
plain ``int`` bitmask (``Mask``) with bit ``c`` set iff candidate ``c`` is a
member; this is what every subset-indexed table in the solvers runs on.
All types here are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

#: Hard cap on the candidate count for any operation that allocates a table
#: with one entry per candidate subset (2^m states).
MAX_CANDIDATES = 30

Mask = int


class ProfileParseError(ValueError):
    """Malformed profile file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GuardError(RuntimeError):
    """An operation refused to run because it would exceed a resource guard."""


class InternalCheckError(RuntimeError):
    """A cross-checked internal invariant failed; indicates a bug."""


def validate_k(m: int, k: int) -> None:
    """Reject a contest-set size bound outside ``2 <= k <= m``."""
    if not 2 <= k <= m:
        raise ValueError(f"k must satisfy 2 <= k <= m, got k={k}, m={m}")


# ---------------------------------------------------------------------------
# bitmask helpers


def bit(candidate: int) -> Mask:
    return 1 << candidate


def full_mask(m: int) -> Mask:
    return (1 << m) - 1


def mask_of(candidates: Iterable[int]) -> Mask:
    mask = 0
    for c in candidates:
        mask |= 1 << c
    return mask


def mask_members(mask: Mask) -> tuple[int, ...]:
    """Set bits of ``mask`` in ascending order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def iter_mask(mask: Mask) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount_array(values: np.ndarray) -> np.ndarray:
    """Elementwise popcount of an unsigned integer array."""
    return np.bitwise_count(values)


# ---------------------------------------------------------------------------
# rankings


class Ranking:
    """A strict total order of candidates ``0..m-1``.

    ``order[p]`` is the candidate at position ``p`` (position 0 = most
    preferred); ``inverse[c]`` is the position of candidate ``c``.
    """

    __slots__ = ("order", "inverse")

    def __init__(self, order: Sequence[int]):
        order = tuple(int(c) for c in order)
        m = len(order)
        if m < 1:
            raise ValueError("ranking must contain at least one candidate")
        if sorted(order) != list(range(m)):
            raise ValueError(f"not a permutation of 0..{m - 1}: {order}")
        inverse = [0] * m
        for pos, c in enumerate(order):
            inverse[c] = pos
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "inverse", tuple(inverse))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Ranking is immutable")

    @property
    def m(self) -> int:
        return len(self.order)

    @classmethod
    def identity(cls, m: int) -> "Ranking":
        return cls(range(m))

    @classmethod
    def from_one_based(cls, ids: Iterable[int]) -> "Ranking":
        return cls([int(i) - 1 for i in ids])

    def to_one_based(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.order)

    def rank_of(self, candidate: int) -> int:
        """0-based position of ``candidate`` (0 = most preferred)."""
        return self.inverse[candidate]

    def prefers(self, c: int, other: int) -> bool:
        return self.inverse[c] < self.inverse[other]

    def top_choice(self, subset: Mask) -> int:
        """The most preferred member of ``subset``."""
        if subset == 0:
            raise ValueError("empty contest set")
        best = -1
        best_pos = len(self.order)
        for c in iter_mask(subset):
            pos = self.inverse[c]
            if pos < best_pos:
                best_pos = pos
                best = c
        return best

    def restrict(self, subset: Mask) -> tuple[int, ...]:
        """Members of ``subset`` in this ranking's order (dense positions)."""
        if subset == 0:
            raise ValueError("empty contest set")
        return tuple(c for c in self.order if subset >> c & 1)

    def below_set(self, candidate: int) -> Mask:
        """Bitmask of candidates ranked strictly below ``candidate``."""
        mask = 0
        for c in self.order[self.inverse[candidate] + 1 :]:
            mask |= 1 << c
        return mask

    def above_set(self, candidate: int) -> Mask:
        """Bitmask of candidates ranked strictly above ``candidate``."""
        mask = 0
        for c in self.order[: self.inverse[candidate]]:
            mask |= 1 << c
        return mask

    def apply_relabel(self, image: Sequence[int]) -> "Ranking":
        """Rename candidates: ``c`` becomes ``image[c]``, order preserved."""
        return Ranking([image[c] for c in self.order])

    def __len__(self) -> int:
        return len(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ranking) and self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"Ranking({list(self.order)})"


# ---------------------------------------------------------------------------
# profiles


class Profile:
    """A multiset of voter rankings with multiplicities.

    Identical rankings are merged and groups are kept in a canonical
    (lexicographic) order, so structurally equal profiles compare equal.
    """

    __slots__ = ("m", "groups")

    def __init__(self, m: int, groups: Iterable[tuple[Ranking, int]]):
        m = int(m)
        if m < 1:
            raise ValueError("candidate count must be at least 1")
        merged: dict[Ranking, int] = {}
        for ranking, count in groups:
            if ranking.m != m:
                raise ValueError(
                    f"ranking over {ranking.m} candidates in a profile with m={m}"
                )
            count = int(count)
            if count < 1:
                raise ValueError("group count must be positive")
            merged[ranking] = merged.get(ranking, 0) + count
        if not merged:
            raise ValueError("profile must contain at least one voter")
        canonical = tuple(sorted(merged.items(), key=lambda g: g[0].order))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "groups", canonical)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Profile is immutable")

    @classmethod
    def from_rankings(cls, m: int, rankings: Iterable[Ranking]) -> "Profile":
        return cls(m, [(r, 1) for r in rankings])

    @property
    def n(self) -> int:
        return sum(count for _, count in self.groups)

    def counts_array(self) -> np.ndarray:
        return np.array([count for _, count in self.groups], dtype=np.int64)

    def positions_matrix(self) -> np.ndarray:
        """``pos[g, c]`` = position of candidate ``c`` in group ``g``."""
        return np.array([r.inverse for r, _ in self.groups], dtype=np.int64)

    def relabel(self, image: Sequence[int]) -> "Profile":
        """Apply a candidate renaming to every voter ranking."""
        return Profile(self.m, [(r.apply_relabel(image), c) for r, c in self.groups])

    def restrict(self, subset: Mask) -> "Profile":
        """Restriction to ``subset`` with candidates reindexed densely."""
        members = mask_members(subset)
        if not members:
            raise ValueError("empty contest set")
        dense = {c: i for i, c in enumerate(members)}
        groups = [
            (Ranking([dense[c] for c in r.restrict(subset)]), count)
            for r, count in self.groups
        ]
        return Profile(len(members), groups)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Profile)
            and self.m == other.m
            and self.groups == other.groups
        )

    def __hash__(self) -> int:
        return hash((self.m, self.groups))

    def __repr__(self) -> str:
        return f"Profile(m={self.m}, n={self.n}, groups={len(self.groups)})"


# ---------------------------------------------------------------------------
# profile file format
#
# Text format (UTF-8): first non-comment line "m n"; each following
# non-comment line "count: i1,i2,...,im" with 1-based candidate indices,
# most preferred first.  Lines starting with "#" are comments.


def parse_profile(text: str) -> Profile:
    """Parse the native profile file format."""
    m: int | None = None
    declared_n: int | None = None
    groups: list[tuple[Ranking, int]] = []
    total = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m is None:
            parts = line.split()
            if len(parts) != 2:
                raise ProfileParseError(
                    f"expected header 'm n', got {line!r}", line_no
                )
            try:
                m, declared_n = int(parts[0]), int(parts[1])
            except ValueError:
                raise ProfileParseError(
                    f"non-integer header fields in {line!r}", line_no
                ) from None
            if m < 1 or declared_n < 1:
                raise ProfileParseError("m and n must be positive", line_no)
            continue
        ranking, count = _parse_group_line(line, line_no, expect_m=m)
        groups.append((ranking, count))
        total += count
    if m is None:
        raise ProfileParseError("empty profile file")
    if total != declared_n:
        raise ProfileParseError(
            f"header declares n={declared_n} voters but groups sum to {total}"
        )
    return Profile(m, groups)


def parse_soc(text: str) -> Profile:
    """Parse a PrefLib strict-order-complete (.soc) file.

    Metadata lines beginning with "#" are skipped; every remaining line is
    "count: i1,i2,..." with 1-based candidate indices.  The candidate count
    is inferred from the first ranking line.
    """
    m: int | None = None
    groups: list[tuple[Ranking, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        ranking, count = _parse_group_line(line, line_no, expect_m=m)
        if m is None:
            m = ranking.m
        groups.append((ranking, count))
    if not groups:
        raise ProfileParseError("no ranking lines found")
    return Profile(m, groups)


def _parse_group_line(
    line: str, line_no: int, expect_m: int | None
) -> tuple[Ranking, int]:
    head, sep, rest = line.partition(":")
    if not sep:
        raise ProfileParseError(f"expected 'count: ranking', got {line!r}", line_no)
    try:
        count = int(head.strip())
    except ValueError:
        raise ProfileParseError(f"invalid voter count {head.strip()!r}", line_no) from None
    if count < 1:
        raise ProfileParseError(f"voter count must be positive, got {count}", line_no)
    try:
        ids = [int(tok.strip()) for tok in rest.split(",")]
    except ValueError:
        raise ProfileParseError(f"invalid candidate index in {rest.strip()!r}", line_no) from None
    if expect_m is not None and len(ids) != expect_m:
        raise ProfileParseError(
            f"ranking lists {len(ids)} candidates, expected {expect_m}", line_no
        )
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise ProfileParseError(f"not a permutation of 1..{len(ids)}: {rest.strip()}", line_no)
    return Ranking.from_one_based(ids), count


def serialize_profile(profile: Profile) -> str:
    """Inverse of :func:`parse_profile` (parse(serialize(p)) == p)."""
    lines = [f"{profile.m} {profile.n}"]
    for ranking, count in profile.groups:
        ids = ",".join(str(i) for i in ranking.to_one_based())
        lines.append(f"{count}: {ids}")
    return "\n".join(lines) + "\n"


def load_profile(path: str) -> Profile:
    """Read a profile file; ``.soc`` files use the PrefLib reader."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if str(path).endswith(".soc"):
        return parse_soc(text)
    return parse_profile(text)
