import numpy as np
import pytest
from hypothesis import given, strategies as st

from kwise_kemeny import (
    MallowsParams,
    Profile,
    ProfileParseError,
    Ranking,
    mallows_sample,
    mask_members,
    parse_profile,
    parse_soc,
    serialize_profile,
)
from conftest import mask_of, restrict, restrict_profile, top_choice
from oracles import dict_merged_groups

rankings = st.integers(1, 7).flatmap(
    lambda m: st.permutations(range(m)).map(Ranking)
)


def masks_of(r: Ranking) -> st.SearchStrategy:
    return st.sets(st.sampled_from(range(r.m)), min_size=1).map(mask_of)


class TestRanking:
    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            Ranking([0, 0, 2])
        with pytest.raises(ValueError):
            Ranking([1, 2, 3])
        with pytest.raises(ValueError):
            Ranking([])

    @given(rankings)
    def test_inverse_round_trip(self, r):
        assert [r.order[r.inverse[c]] for c in range(r.m)] == list(range(r.m))
        assert [r.inverse[r.order[p]] for p in range(r.m)] == list(range(r.m))

    def test_one_based_round_trip(self):
        r = Ranking.from_one_based([3, 1, 2])
        assert r.order == (2, 0, 1)
        assert r.to_one_based() == (3, 1, 2)

    def test_immutable(self):
        r = Ranking([0, 1])
        with pytest.raises(AttributeError):
            r.order = (1, 0)


class TestTopChoice:
    """``conftest.top_choice``, which the majority tests' support oracle uses."""

    def test_examples(self):
        r = Ranking([0, 1, 2])  # c1 > c2 > c3
        assert top_choice(r, mask_of([1, 2])) == 1
        assert top_choice(r, mask_of([2])) == 2
        assert top_choice(Ranking([2, 1, 0]), mask_of([0, 1, 2])) == 2

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty contest set"):
            top_choice(Ranking([0, 1, 2]), 0)

    @given(st.data())
    def test_top_is_minimal_member(self, data):
        r = data.draw(rankings)
        subset = data.draw(masks_of(r))
        top = top_choice(r, subset)
        assert subset >> top & 1
        for c in mask_members(subset):
            assert r.inverse[top] <= r.inverse[c]

    @given(st.data())
    def test_restriction_preserves_top(self, data):
        r = data.draw(rankings)
        subset = data.draw(masks_of(r))
        inner = data.draw(
            st.sets(st.sampled_from(mask_members(subset)), min_size=1).map(mask_of)
        )
        restricted = restrict(r, subset)
        assert restricted[0] == top_choice(r, subset)
        first_inner = next(c for c in restricted if inner >> c & 1)
        assert first_inner == top_choice(r, inner)


class TestRestrict:
    """``conftest.restrict``, behind the solver tests' restricted distances."""

    def test_examples(self):
        r = Ranking([0, 1, 2])
        assert restrict(r, mask_of([0, 2])) == (0, 2)
        assert restrict(r, mask_of([0, 1, 2])) == (0, 1, 2)
        with pytest.raises(ValueError):
            restrict(r, 0)

    def test_six_profile_tails(self, six_profile):
        subset = mask_of([2, 3, 4, 5])  # candidates c3..c6
        tails = {
            group.order: restrict(group, subset)
            for group, _ in six_profile.groups
        }
        assert tails[(0, 1, 3, 2, 4, 5)] == (3, 2, 4, 5)
        assert tails[(0, 2, 1, 3, 4, 5)] == (2, 3, 4, 5)
        assert tails[(5, 0, 1, 3, 2, 4)] == (5, 3, 2, 4)
        assert tails[(5, 0, 3, 2, 1, 4)] == (5, 3, 2, 4)


class TestBelowSet:
    def test_examples(self):
        r = Ranking([0, 1, 2])
        assert r.below_set(2) == 0
        assert r.below_set(0) == mask_of([1, 2])
        assert r.below_set(1) == mask_of([2])

    @given(rankings)
    def test_size_matches_position(self, r):
        for c in range(r.m):
            assert r.below_set(c).bit_count() == r.m - 1 - r.inverse[c]


class TestProfile:
    def test_merges_duplicates(self):
        p = parse_profile("3 4\n2: 1,2,3\n2: 1,2,3\n")
        assert len(p.groups) == 1
        assert p.groups[0][1] == 4

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            Profile(2, [(Ranking([0, 1]), 0)])

    def test_requires_voters(self):
        with pytest.raises(ValueError):
            Profile(2, [])

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            Profile(3, [(Ranking([0, 1]), 1)])

    def test_order_matrix_route_matches_dict_route(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            m = int(rng.integers(1, 9))
            ballots = int(rng.integers(1, 40))
            orders = np.array([rng.permutation(m) for _ in range(ballots)])
            repeats = orders[: int(rng.integers(0, ballots + 1))]
            orders = np.concatenate((orders, repeats))
            counts = [int(c) for c in rng.integers(1, 6, len(orders))]
            if trial % 3 == 0:
                counts[0] = (1 << 64) + 7  # beyond int64, merged exactly
            built = Profile._of_orders(orders, counts)
            groups = [(Ranking(o), c) for o, c in zip(orders, counts)]
            expected = dict_merged_groups(groups)
            assert built.groups == expected
            assert Profile(m, groups) == built
            assert built.n == sum(counts)
            for (got, _), (want, _) in zip(built.groups, expected):
                assert type(got.order[0]) is int
                assert got.inverse == want.inverse
                assert hash(got) == hash(want)


class TestParse:
    def test_tension_profile(self, tension_profile):
        assert tension_profile.m == 3
        assert tension_profile.n == 100
        counts = dict(
            (g.order, c) for g, c in tension_profile.groups
        )
        assert counts[(0, 1, 2)] == 49
        assert counts[(2, 1, 0)] == 48
        assert counts[(1, 2, 0)] == 3

    def test_single_candidate(self):
        p = parse_profile("1 1\n1: 1\n")
        assert p.m == 1 and p.n == 1

    def test_comments_and_blanks_skipped(self):
        p = parse_profile("# header comment\n\n2 3\n# mid comment\n3: 2,1\n")
        assert p.n == 3

    def test_non_permutation_rejected_with_line(self):
        with pytest.raises(ProfileParseError, match="line 2"):
            parse_profile("3 2\n2: 1,1,3\n")

    def test_inconsistent_m(self):
        with pytest.raises(ProfileParseError, match="line 3"):
            parse_profile("3 4\n2: 1,2,3\n2: 1,2\n")

    def test_bad_header(self):
        with pytest.raises(ProfileParseError, match="line 1"):
            parse_profile("three candidates\n1: 1\n")

    def test_voter_total_mismatch(self):
        with pytest.raises(ProfileParseError, match="sum"):
            parse_profile("2 5\n2: 1,2\n")

    def test_missing_colon(self):
        with pytest.raises(ProfileParseError, match="line 2"):
            parse_profile("2 2\n2 1,2\n")

    def test_matches_public_constructor(self):
        # the parser builds rankings without the public constructor's
        # second permutation check; the result must not differ
        rng = np.random.default_rng(12)
        for _ in range(40):
            m = int(rng.integers(1, 12))
            groups = []
            for _ in range(int(rng.integers(1, 9))):
                ids = (rng.permutation(m) + 1).tolist()
                groups.append((ids, int(rng.integers(1, 5))))
            groups += groups[: int(rng.integers(0, 3))]  # repeated ballots
            body = "".join(
                f"{count}: " + " , ".join(map(str, ids)) + "\n"
                for ids, count in groups
            )
            total = sum(count for _, count in groups)
            expected = Profile(
                m, [(Ranking.from_one_based(ids), count) for ids, count in groups]
            )
            for parsed in (parse_profile(f"{m} {total}\n{body}"), parse_soc(body)):
                assert parsed == expected
                for (got, _), (want, _) in zip(parsed.groups, expected.groups):
                    assert type(got) is Ranking
                    assert got.inverse == want.inverse
                    assert hash(got) == hash(want)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1: 1,1,3", "line 2: not a permutation of 1..3: 1,1,3"),
            ("1: 0,1,2", "line 2: not a permutation of 1..3: 0,1,2"),
            ("1: 1,2,4", "line 2: not a permutation of 1..3: 1,2,4"),
            ("1: 1,2", "line 2: ranking lists 2 candidates, expected 3"),
        ],
    )
    def test_bad_ballot_messages(self, line, message):
        with pytest.raises(ProfileParseError) as caught:
            parse_profile(f"3 1\n{line}\n")
        assert str(caught.value) == message
        assert caught.value.line == 2

    def test_soc_skips_metadata(self):
        text = (
            "# FILE NAME: toy.soc\n"
            "# NUMBER ALTERNATIVES: 3\n"
            "# ALTERNATIVE NAME 1: a\n"
            "2: 1,2,3\n"
            "1: 3,2,1\n"
        )
        p = parse_soc(text)
        assert p.m == 3 and p.n == 3

    def test_soc_requires_rankings(self):
        with pytest.raises(ProfileParseError):
            parse_soc("# only metadata\n")


class TestSerialize:
    def test_round_trip_fixture(self, tension_profile):
        assert parse_profile(serialize_profile(tension_profile)) == tension_profile

    def test_round_trip_sampled(self):
        profile = mallows_sample(MallowsParams(Ranking.identity(6), 0.8, 50, 21))
        assert parse_profile(serialize_profile(profile)) == profile

    @given(
        st.integers(1, 5).flatmap(
            lambda m: st.lists(
                st.tuples(st.permutations(range(m)).map(Ranking), st.integers(1, 9)),
                min_size=1,
                max_size=6,
            ).map(lambda groups: Profile(m, groups))
        )
    )
    def test_round_trip_property(self, profile):
        assert parse_profile(serialize_profile(profile)) == profile


class TestNumpyViews:
    def test_restrict_reindexes_densely(self, six_profile):
        sub = restrict_profile(six_profile, mask_of([2, 3, 4, 5]))
        assert sub.m == 4
        assert sub.n == six_profile.n
