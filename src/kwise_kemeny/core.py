"""Election data model: candidates, rankings, profiles, subset masks, the
pair statistics of a profile and the profile file readers.

Candidates are dense integer ids ``0..m-1``.  A subset of candidates is a
plain ``int`` bitmask (``Mask``) with bit ``c`` set iff candidate ``c`` is a
member; this is what every subset-indexed table in the solvers runs on.
Its helpers are ``full_mask`` and ``mask_members``; one bit is ``1 << c``.
``validate_k`` is the one rule for k: 2 <= k <= m, except that a
one-candidate profile contests nothing and takes any k >= 2.
All types here are immutable after construction (``PairCounts`` builds its
triple counts once, on first use) and safe to share between threads.
Rankings and profiles hold only what the library itself reads; the tests
keep their own helpers (restriction, relabelling, a profile of unit-count
rankings).  A profile holds arrays (orders, positions, counts) in one
canonical order, whichever way it was built; ``Profile.groups`` is built on
first read.
"""

from __future__ import annotations

import contextlib
import contextvars
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
    """Reject a contest-set size bound outside ``2 <= k <= m``; with one
    candidate there is no contest, and any k >= 2 is accepted."""
    if k < 2 or k > m > 1:
        raise ValueError(f"k must satisfy 2 <= k <= m, got k={k}, m={m}")


# ---------------------------------------------------------------------------
# bitmask helpers


def full_mask(m: int) -> Mask:
    return (1 << m) - 1


def mask_members(mask: Mask) -> tuple[int, ...]:
    """Set bits of ``mask`` in ascending order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


# ---------------------------------------------------------------------------
# rankings


class Ranking:
    """A strict total order of candidates ``0..m-1``.

    ``order[p]`` is the candidate at position ``p`` (position 0 = most
    preferred); ``inverse[c]`` is the position of candidate ``c``.
    """

    __slots__ = ("order", "inverse")

    def __init__(self, order: Sequence[int]):
        order = tuple([int(c) for c in order])
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

    @classmethod
    def _of_permutation(
        cls, order: tuple[int, ...], inverse: tuple[int, ...]
    ) -> "Ranking":
        """A ranking of ``order`` with its ``inverse``, both of which the
        caller has already checked (a permutation of ``0..m-1``, m >= 1)."""
        ranking = object.__new__(cls)
        object.__setattr__(ranking, "order", order)
        object.__setattr__(ranking, "inverse", inverse)
        return ranking

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
        return tuple([c + 1 for c in self.order])

    def below_set(self, candidate: int) -> Mask:
        """Bitmask of candidates ranked strictly below ``candidate``."""
        mask = 0
        for c in self.order[self.inverse[candidate] + 1 :]:
            mask |= 1 << c
        return mask

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
    The constructor, the file readers and the samplers all reach that order
    by one sort and fold (:meth:`_set`).  ``n`` is the number of voters.  A
    profile holds its groups as arrays: the orders, their inverses (the
    int64 position matrix that :class:`PairCounts` reads) and the counts as
    Python ints; ``groups``, the (``Ranking``, count) pairs, is built on
    first read.
    """

    __slots__ = ("m", "n", "_orders", "_positions", "_counts", "_groups")

    def __init__(self, m: int, groups: Iterable[tuple[Ranking, int]]):
        m = int(m)
        if m < 1:
            raise ValueError("candidate count must be at least 1")
        orders, counts = [], []
        for ranking, count in groups:
            if ranking.m != m:
                raise ValueError(
                    f"ranking over {ranking.m} candidates in a profile with m={m}"
                )
            count = int(count)
            if count < 1:
                raise ValueError("group count must be positive")
            orders.append(ranking.order)
            counts.append(count)
        if not counts:
            raise ValueError("profile must contain at least one voter")
        self._set(np.array(orders, np.int64), counts)

    def _set(self, orders: np.ndarray, counts: Sequence[int]) -> "Profile":
        """Hold the rows of a (ballots, m) matrix of checked permutations
        with positive ``counts``: rows put in canonical order by sorting them
        as big-endian byte strings, equal neighbours merged with their counts
        summed as Python ints (exact beyond 2^63)."""
        keys = orders.astype(">u4").view(f"S{4 * orders.shape[1]}").ravel()
        order = keys.argsort(kind="stable")
        keys, counts = keys[order], [counts[i] for i in order.tolist()]
        new = np.concatenate(([True], keys[1:] != keys[:-1]))  # unlike the row before
        for i in reversed(np.flatnonzero(~new).tolist()):  # fold repeats into it
            counts[i - 1] += counts.pop(i)
        orders = orders[order[new]]
        positions = np.empty(orders.shape, np.int64)  # the inverses, by one scatter
        positions[np.arange(len(orders))[:, None], orders] = np.arange(orders.shape[1])
        orders.flags.writeable = positions.flags.writeable = False
        values = (orders.shape[1], sum(counts), orders, positions, tuple(counts), None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Profile is immutable")

    @classmethod
    def _of_orders(cls, orders: np.ndarray, counts: Sequence[int]) -> "Profile":
        """The profile of the rows of ``orders`` with ``counts``, as
        :meth:`_set` takes them, built without ``Ranking`` objects."""
        return object.__new__(cls)._set(orders, counts)

    @property
    def groups(self) -> tuple[tuple[Ranking, int], ...]:
        """The (ranking, count) groups in canonical order."""
        if self._groups is None:
            object.__setattr__(self, "_groups", tuple([
                (Ranking._of_permutation(tuple(order), tuple(inverse)), count)
                for order, inverse, count in zip(
                    self._orders.tolist(), self._positions.tolist(), self._counts)
            ]))
        return self._groups

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Profile)
            and self.m == other.m
            and self.groups == other.groups
        )

    def __hash__(self) -> int:
        return hash((self.m, self.groups))

    def __repr__(self) -> str:
        return f"Profile(m={self.m}, n={self.n}, groups={len(self._counts)})"


class PairCounts:
    """Voter-count statistics of a profile, shared by the digraph
    constructions and the subset DP.

    ``above[c, x]`` counts voters preferring c to x; ``joint[c, d, x]``
    counts voters preferring c to both d and x (so ``joint[c, x, x]`` is
    ``above[c, x]``), built on first use.  ``counts`` are the profile's group
    multiplicities and ``positions[g, c]`` is the position of candidate c in
    group g, both read off the profile's arrays (never its ``groups``);
    ``prefers[g, c, x]`` is 1 where group g ranks c above x, in a dtype
    whose products with the counts are exact.
    """

    __slots__ = ("m", "n", "counts", "positions", "prefers", "above", "_joint")

    def __init__(self, profile: Profile):
        m = profile.m
        counts = np.array(profile._counts, dtype=np.int64)
        positions = profile._positions
        n = profile.n
        prefers, weights = self._prefers(positions, counts, n)
        above = weights @ prefers.reshape(len(counts), m * m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "prefers", prefers)
        object.__setattr__(self, "above", above.reshape(m, m).astype(np.int64))
        object.__setattr__(self, "_joint", None)

    @staticmethod
    def _prefers(
        positions: np.ndarray, counts: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``prefers[g, c, x]`` (group g ranks c above x) and the counts, in
        a dtype whose products are exact: every sum of products is an
        integer in [0, n], so float32 BLAS products are exact below 2^24."""
        dtype = np.float32 if n < 1 << 24 else np.int64
        positions = positions.astype(np.min_scalar_type(positions.shape[1]))
        prefers = (positions[:, :, None] < positions[:, None, :]).astype(dtype)
        return prefers, counts.astype(dtype)

    @classmethod
    def of(cls, profile: Profile) -> "PairCounts":
        """The counts of ``profile``: those held by an enclosing
        :meth:`shared` block for the same profile object, else new ones."""
        held = _held_counts.get()
        if held is not None and held[0] is profile:
            return held[1]
        return cls(profile)

    @classmethod
    @contextlib.contextmanager
    def shared(cls, profile: Profile) -> Iterator["PairCounts"]:
        """Within the block, :meth:`of` returns one instance for ``profile``,
        so the stages of one solve build the statistics once."""
        counts = cls.of(profile)
        token = _held_counts.set((profile, counts))
        try:
            yield counts
        finally:
            _held_counts.reset(token)

    @property
    def joint(self) -> np.ndarray:
        if self._joint is None:
            prefers = self.prefers
            # joint[c] = sum over groups of count * outer(prefers[c], prefers[c])
            weighted = prefers.transpose(1, 2, 0) * self.counts.astype(prefers.dtype)
            joint = np.matmul(weighted, prefers.transpose(1, 0, 2))
            object.__setattr__(self, "_joint", joint.astype(np.int64))
        return self._joint

    def __setattr__(self, name, value):
        raise AttributeError("PairCounts is immutable")


_held_counts: contextvars.ContextVar[tuple[Profile, PairCounts] | None] = (
    contextvars.ContextVar("held_pair_counts", default=None)
)


# ---------------------------------------------------------------------------
# profile file format
#
# Text format (UTF-8, with or without a byte-order mark): first non-comment
# line "m n"; each following non-comment line "count: i1,i2,...,im" with
# 1-based candidate indices, most preferred first.  Lines starting with "#"
# are comments.
#
# Both readers take the header and comment lines one by one, then read the
# ballot lines by two routes: as one array, or, where the array route
# refuses them, line by line up to the first bad line.


def parse_profile(text: str) -> Profile:
    """Parse the native profile file format."""
    lines = _content_lines(text)
    if not lines:
        raise ProfileParseError("empty profile file")
    line_no, line = lines[0]
    parts = line.split()
    if len(parts) != 2:
        raise ProfileParseError(f"expected header 'm n', got {line!r}", line_no)
    try:
        m, declared_n = int(parts[0]), int(parts[1])
    except ValueError:
        raise ProfileParseError(
            f"non-integer header fields in {line!r}", line_no
        ) from None
    if m < 1 or declared_n < 1:
        raise ProfileParseError("m and n must be positive", line_no)
    orders, counts = _read_ballots(lines[1:], m)
    total = sum(counts)
    if total != declared_n:
        raise ProfileParseError(
            f"header declares n={declared_n} voters but groups sum to {total}"
        )
    return Profile._of_orders(orders, counts)


def parse_soc(text: str) -> Profile:
    """Parse a PrefLib strict-order-complete (.soc) file.

    Metadata lines beginning with "#" are skipped; every remaining line is
    "count: i1,i2,..." with 1-based candidate indices.  The candidate count
    is inferred from the first ranking line.
    """
    orders, counts = _read_ballots(_content_lines(text), None)
    if not counts:
        raise ProfileParseError("no ranking lines found")
    return Profile._of_orders(orders, counts)


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped line) of each non-blank, non-comment line."""
    return [
        (line_no, line)
        for line_no, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]


def _read_ballots(
    ballots: list[tuple[int, str]], m: int | None
) -> tuple[np.ndarray, list[int]]:
    """The 0-based (ballots, m) order matrix and the counts of the
    ``count: i1,...,im`` lines ``ballots``; ``m`` is None for a .soc file,
    whose first line sets it.

    Once spaces and tabs around each field are stripped, rankings of ASCII
    digits and commas, with as many fields on every line and none empty,
    are parsed by one ``np.fromstring`` call (ids past int64 saturate), and
    their widths and permutations are checked as arrays.  Ballots that this
    screen or these checks refuse are read line by line, each id as ``int``
    parses it, and the first malformed line raises its error.
    """
    if not ballots:
        return np.empty((0, 0), np.int64), []
    fields = [line.partition(":") for _, line in ballots]
    rests = [rest.strip() for _, _, rest in fields]
    text = ",".join(rests).encode()
    if b" " in text or b"\t" in text:
        text = b",".join([field.strip(b" \t") for field in text.split(b",")])
    with contextlib.suppress(ValueError):  # a count that int() refuses
        counts = [int(head) for head, _, _ in fields]
        if (min(counts) >= 1 and len({rest.count(",") for rest in rests}) == 1  # not ragged
                and not text.translate(None, b"0123456789,") and b",," not in b",%s," % text):
            orders = np.fromstring(text, np.int64, sep=",").reshape(len(rests), -1) - 1
            width = orders.shape[1]
            if (m is None or width == m) and (np.sort(orders, axis=1) == np.arange(width)).all():
                return orders, counts
    counts, rows = [], []
    for line_no, line in ballots:
        count, ids = _check_ballot_line(line, line_no, m)
        m = len(ids)
        counts.append(count)
        rows.append(ids)
    return np.array(rows, np.int64), counts


def _check_ballot_line(
    line: str, line_no: int, expect_m: int | None
) -> tuple[int, list[int]]:
    """The count and the 0-based ids of one ballot line, checked."""
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
        ids = [int(tok.strip()) - 1 for tok in rest.split(",")]
    except ValueError:
        raise ProfileParseError(f"invalid candidate index in {rest.strip()!r}", line_no) from None
    if expect_m is not None and len(ids) != expect_m:
        raise ProfileParseError(
            f"ranking lists {len(ids)} candidates, expected {expect_m}", line_no
        )
    if sorted(ids) != list(range(len(ids))):
        raise ProfileParseError(f"not a permutation of 1..{len(ids)}: {rest.strip()}", line_no)
    return count, ids


def serialize_profile(profile: Profile) -> str:
    """Inverse of :func:`parse_profile` (parse(serialize(p)) == p)."""
    lines = [f"{profile.m} {profile.n}"]
    for ranking, count in profile.groups:
        ids = ",".join(str(i) for i in ranking.to_one_based())
        lines.append(f"{count}: {ids}")
    return "\n".join(lines) + "\n"


def load_profile(path: str) -> Profile:
    """Read a profile file; ``.soc`` files use the PrefLib reader."""
    with open(path, "r", encoding="utf-8-sig") as handle:  # a byte-order mark is dropped
        text = handle.read()
    if str(path).endswith(".soc"):
        return parse_soc(text)
    return parse_profile(text)
