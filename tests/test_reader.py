"""The array profile readers against the per-line reader they replaced.

``oracle_parse_profile`` and ``oracle_parse_soc`` are the line-by-line
readers as they were before ballots were read as one array: every field
through ``int``, one public ``Ranking`` per ballot.  Valid files must give
equal profiles, malformed ones the same message and line number.
"""

from __future__ import annotations

import numpy as np
import pytest

from kwise_kemeny import Profile, Ranking, parse_profile, parse_soc
from kwise_kemeny.core import ProfileParseError


def oracle_parse_profile(text: str) -> Profile:
    m = declared_n = None
    groups = []
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
        ranking, count = _oracle_group_line(line, line_no, m)
        groups.append((ranking, count))
        total += count
    if m is None:
        raise ProfileParseError("empty profile file")
    if total != declared_n:
        raise ProfileParseError(
            f"header declares n={declared_n} voters but groups sum to {total}"
        )
    return Profile(m, groups)


def oracle_parse_soc(text: str) -> Profile:
    m = None
    groups = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        ranking, count = _oracle_group_line(line, line_no, m)
        if m is None:
            m = ranking.m
        groups.append((ranking, count))
    if not groups:
        raise ProfileParseError("no ranking lines found")
    return Profile(m, groups)


def _oracle_group_line(line, line_no, expect_m):
    head, sep, rest = line.partition(":")
    if not sep:
        raise ProfileParseError(f"expected 'count: ranking', got {line!r}", line_no)
    try:
        count = int(head.strip())
    except ValueError:
        raise ProfileParseError(
            f"invalid voter count {head.strip()!r}", line_no
        ) from None
    if count < 1:
        raise ProfileParseError(f"voter count must be positive, got {count}", line_no)
    try:
        ids = [int(tok.strip()) - 1 for tok in rest.split(",")]
    except ValueError:
        raise ProfileParseError(
            f"invalid candidate index in {rest.strip()!r}", line_no
        ) from None
    if expect_m is not None and len(ids) != expect_m:
        raise ProfileParseError(
            f"ranking lists {len(ids)} candidates, expected {expect_m}", line_no
        )
    if sorted(ids) != list(range(len(ids))):
        raise ProfileParseError(
            f"not a permutation of 1..{len(ids)}: {rest.strip()}", line_no
        )
    return Ranking(ids), count


READERS = (
    (parse_profile, oracle_parse_profile),
    (parse_soc, oracle_parse_soc),
)


def outcome(reader, text):
    """The profile a reader returns, or its error's (text, line)."""
    try:
        return reader(text)
    except ProfileParseError as exc:
        return (str(exc), exc.line)


def assert_same(text):
    for reader, oracle in READERS:
        got, want = outcome(reader, text), outcome(oracle, text)
        assert got == want, (reader.__name__, text)
        if isinstance(want, Profile):
            for (ours, _), (theirs, _) in zip(got.groups, want.groups):
                assert ours.inverse == theirs.inverse


def random_files(rng: np.random.Generator, m: int) -> tuple[str, str]:
    """A valid native file and the same ballots as a .soc file, in a random
    mix of the spellings both readers accept."""
    ballots = []
    for _ in range(int(rng.integers(1, 8))):
        ids = (rng.permutation(m) + 1).tolist()
        ballots.append((ids, int(rng.integers(1, 6))))
    ballots += ballots[: int(rng.integers(0, 3))]  # duplicate ballots
    colon = (":", " : ", ":  ", "\t:")[int(rng.integers(4))]
    comma = (",", ", ", " ,", " , ")[int(rng.integers(4))]
    lines = []
    for ids, count in ballots:
        if rng.random() < 0.3:
            lines.append(("# a comment", "", "   ")[int(rng.integers(3))])
        lines.append(f"{count}{colon}{comma.join(map(str, ids))}")
    total = sum(count for _, count in ballots)
    newline = ("\n", "\r\n")[int(rng.integers(2))]
    header = f"# generated{newline}{m} {total}" if rng.random() < 0.5 else f"{m}  {total}"
    return newline.join([header, *lines]) + newline, newline.join(lines) + newline


class TestValidFiles:
    def test_random_files(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            for text in random_files(rng, int(rng.integers(1, 12))):
                assert_same(text)

    def test_single_candidate(self):
        assert_same("1 3\n2: 1\n1 : 1\n")
        assert parse_soc("3: 1\r\n") == oracle_parse_soc("3: 1\r\n")

    def test_int_spellings(self):
        # int() accepts a sign, underscores and non-ASCII digits
        assert_same("2 11\n+1: 2, 1\n1_0: ١,2\n")
        # tabs and spaces around ids, which int() strips
        assert_same("3 3\n1:  1 , 2 , 3\n2: 3,\t2 ,1\n")
        # the same around an id past int64
        assert_same("3 3\n1:\t1 , 2 ,\t99999999999999999999\n2: 3, 2, 1\n")

    def test_counts_beyond_int64(self):
        big = 1 << 63
        assert_same(f"2 {big + 1}\n{big}: 1,2\n1: 2,1\n")


BAD_BALLOTS = [
    "2: 1,2",  # short row
    "2: 1,2,3,1",  # extra token
    "2: 1,x,3",  # non-integer token
    "2: 1,,3",  # empty token
    "2: 1 2,3",  # two numbers in one field
    "0: 1,2,3",  # count 0
    "-1: 1,2,3",  # negative count
    "two: 1,2,3",  # non-integer count
    "2: 0,1,2",  # id 0
    "2: 1,2,4",  # id m + 1
    "2: 1,1,3",  # duplicate id
    "2 1,2,3",  # no colon
    "1,1: 2,3",  # colon after a comma
    "2: 1:2,3",  # second colon
    "2:",  # no ranking
    "2: 1,2,99999999999999999999",  # id beyond int64
    "2: 1,2\n2: 3,1,2,1",  # ragged rows whose field total is a multiple of m
    "2: 1,2,3,",  # trailing comma
    "2: 1,2\t3",  # a tab inside a field
    "2:  1 , 3 , 1 ",  # spaces around every id
    "2: 1 ,2 3",  # a space inside a field next to a stripped one
    "2: 1, ,3",  # a field left empty after stripping
]


class TestMalformedFiles:
    @pytest.mark.parametrize("bad", BAD_BALLOTS)
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_first_bad_line_reported(self, bad, where):
        good = ["3: 1,2,3", "# note", "1: 3,1,2"]
        body = good[:where] + [bad] + good[where:]
        assert_same("\n".join(["3 6", *body]) + "\n")

    def test_bad_line_before_wrong_total(self):
        assert_same("3 99\n1: 1,2,3\n1: 1,2\n")

    @pytest.mark.parametrize(
        "text",
        [
            "3 5\n2: 1,2,3\n",  # wrong voter total
            "3 2\n",  # header only
            "",
            "# only a comment\n\n",
            "3\n1: 1,2,3\n",
            "3 x\n1: 1,2,3\n",
            "0 1\n1: 1\n",
            "2 5\n2: 2,1\n\n3 : 1,2\n2: 1\n",  # ragged after valid rows
            "2 3\n99999999999999999999: 1,2\n",  # count beyond int64
            "3 3\n1: 1,2\n1: 1,2,3,1\n1: 3,2,1\n",  # ragged, 3 fields a row on average
            "1: 2,1,3\n1: 1,2\n1: 3,2,1,3\n",  # the same in a .soc file
        ],
    )
    def test_file_errors(self, text):
        assert_same(text)
