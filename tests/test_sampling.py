import hashlib
import itertools
import math

import numpy as np
import pytest

from kwise_kemeny import (
    MallowsParams,
    PairCounts,
    Profile,
    Ranking,
    impartial_culture,
    kendall_tau,
    mallows_sample,
    serialize_profile,
)
from kwise_kemeny.cli import main
from kwise_kemeny.sampling import _voter_rng
from oracles import from_rankings


def analytic_mean_distance(m: int, phi: float) -> float:
    """E[Kendall tau to the mode]: sum over insertion steps of the expected
    number of new inversions, d ~ phi^d / Z_j on {0..j-1}."""
    total = 0.0
    for j in range(2, m + 1):
        weights = [phi**d for d in range(j)]
        z = sum(weights)
        total += sum(d * w for d, w in zip(range(j), weights)) / z
    return total


def mean_distance_to(profile: Profile, sigma: Ranking) -> float:
    total = sum(
        count * kendall_tau(ranking, sigma) for ranking, count in profile.groups
    )
    return total / profile.n


def oracle_insert_position(rng, length: int, phi: float) -> int:
    """0-based insertion slot among ``length`` + 1 choices; slot p costs
    ``length - p`` new inversions and has weight phi^(length - p)."""
    if phi == 1.0:
        return int(rng.integers(length + 1))
    weights = phi ** np.arange(length, -1, -1, dtype=np.float64)
    total = weights.cumsum()
    u = rng.random() * total[-1]
    return int(np.searchsorted(total, u, side="right"))


def oracle_rim_ranking(sigma: Ranking, phi: float, rng) -> Ranking:
    """One voter's repeated insertion, one scalar draw per candidate."""
    order: list[int] = []
    for candidate in sigma.order:
        order.insert(oracle_insert_position(rng, len(order), phi), candidate)
    return Ranking(order)


def oracle_mallows_sample(params: MallowsParams) -> Profile:
    """The voter-by-voter sampler that the batched one replaced."""
    rankings = [
        oracle_rim_ranking(params.sigma, params.phi, _voter_rng(params.seed, v))
        for v in range(params.n)
    ]
    return from_rankings(params.sigma.m, rankings)


class TestMallows:
    @pytest.mark.parametrize("phi", [1.0, 0.999, 0.95, 0.8, 0.5, 0.3, 1e-3])
    def test_batched_draw_matches_voter_by_voter_oracle(self, phi):
        rng = np.random.default_rng(int(phi * 1000))
        for seed in range(20):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(1, 61))
            sigma = Ranking(rng.permutation(m))
            params = MallowsParams(sigma, phi, n, seed)
            assert mallows_sample(params) == oracle_mallows_sample(params)

    def test_seed_determinism(self):
        params = MallowsParams(Ranking([2, 0, 1, 3]), 0.6, 80, 424242)
        a, b = mallows_sample(params), mallows_sample(params)
        assert serialize_profile(a) == serialize_profile(b)

    def test_different_seeds_differ(self):
        sigma = Ranking.identity(6)
        a = mallows_sample(MallowsParams(sigma, 0.9, 50, 1))
        b = mallows_sample(MallowsParams(sigma, 0.9, 50, 2))
        assert serialize_profile(a) != serialize_profile(b)

    def test_phi_validation(self):
        sigma = Ranking.identity(3)
        with pytest.raises(ValueError):
            MallowsParams(sigma, 0.0, 5, 0)
        with pytest.raises(ValueError):
            MallowsParams(sigma, 1.5, 5, 0)
        with pytest.raises(ValueError):
            MallowsParams(sigma, 0.5, 0, 0)

    def test_uniform_limit_has_balanced_pairs(self):
        # phi = 1: each pair is inverted relative to sigma half the time
        m, n = 5, 10_000
        sigma = Ranking.identity(m)
        profile = mallows_sample(MallowsParams(sigma, 1.0, n, 7))
        stats = PairCounts(profile)
        positions, counts = stats.positions, stats.counts
        for a in range(m):
            for b in range(a + 1, m):
                inverted = int(counts[positions[:, a] > positions[:, b]].sum())
                assert abs(inverted / n - 0.5) < 0.05

    def test_low_dispersion_concentrates_on_mode(self):
        m, n = 5, 1000
        sigma = Ranking([3, 1, 4, 0, 2])
        profile = mallows_sample(MallowsParams(sigma, 0.01, n, 3))
        mean = mean_distance_to(profile, sigma)
        assert mean < 0.1
        assert abs(mean - analytic_mean_distance(m, 0.01)) < 0.05

    def test_mean_distance_tracks_analytic_value(self):
        m, n = 6, 4000
        sigma = Ranking.identity(m)
        for phi in (0.3, 0.7, 1.0):
            profile = mallows_sample(MallowsParams(sigma, phi, n, 11))
            expected = analytic_mean_distance(m, phi)
            sd = math.sqrt(m * (m - 1) / 2) / math.sqrt(n)  # crude bound
            assert abs(mean_distance_to(profile, sigma) - expected) < 5 * sd

    @pytest.mark.parametrize("m,phi,seed", [(3, 0.5, 13), (4, 0.6, 14)])
    def test_exact_law_at_small_m(self, m, phi, seed):
        # frequencies of all m! rankings match phi^distance / Z within
        # three-sigma multinomial bounds
        n = 100_000
        sigma = Ranking.identity(m)
        profile = mallows_sample(MallowsParams(sigma, phi, n, seed))
        z = 1.0
        for j in range(2, m + 1):
            z *= sum(phi**d for d in range(j))
        observed = {ranking.order: count for ranking, count in profile.groups}
        for perm in itertools.permutations(range(m)):
            p = phi ** kendall_tau(Ranking(perm), sigma) / z
            expected = n * p
            tolerance = 3 * math.sqrt(n * p * (1 - p))
            assert abs(observed.get(perm, 0) - expected) <= tolerance


class TestImpartialCulture:
    def test_matches_one_permutation_per_voter(self):
        for m, n, seed in ((1, 3, 0), (4, 30, 1), (9, 17, 2)):
            rankings = [Ranking(_voter_rng(seed, v).permutation(m)) for v in range(n)]
            assert impartial_culture(m, n, seed) == from_rankings(m, rankings)

    def test_seed_determinism(self):
        assert serialize_profile(impartial_culture(5, 40, 9)) == serialize_profile(
            impartial_culture(5, 40, 9)
        )

    def test_single_candidate(self):
        profile = impartial_culture(1, 4, 0)
        assert profile.m == 1
        assert profile.n == 4
        assert profile.groups == ((Ranking([0]), 4),)

    def test_uniform_frequencies(self):
        n = 60_000
        profile = impartial_culture(3, n, 5)
        assert len(profile.groups) == 6
        for _, count in profile.groups:
            assert abs(count / n - 1 / 6) < 0.02

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            impartial_culture(0, 5, 0)
        with pytest.raises(ValueError):
            impartial_culture(3, 0, 0)


def _stepped(m: int, step: int) -> str:
    """A 1-based reference ranking visiting the candidates ``step`` apart."""
    return ",".join(str(step * i % m + 1) for i in range(m))


# SHA-256 of ``kwise-kemeny sample`` stdout: (model, m, n, phi, sigma step
# or None for the identity, seed, digest).  These pin the sampled bytes, so
# a rewrite of the samplers (or another numpy) must draw the same profiles.
GOLDEN_SAMPLES = [
    ("mallows", 1, 3, "1.0", None, 100,
     "f9dee5acaceadb1a3f4e8ebfccf66c0a532c2b19dd333d053d2e7d3c53f6f5a5"),
    ("mallows", 1, 3, "0.05", None, 102,
     "f9dee5acaceadb1a3f4e8ebfccf66c0a532c2b19dd333d053d2e7d3c53f6f5a5"),
    ("mallows", 5, 40, "1.0", None, 103,
     "a7ca0584396f699a350fbfe98035ab2d13fb0d8edca30b445a772db5ef7186ed"),
    ("mallows", 5, 40, "0.8", None, 104,
     "6cb2232910c717cf1ae0225e102c3f9f9fb925705a9c2b0f6b38902f623476df"),
    ("mallows", 5, 40, "0.05", None, 105,
     "71628479d7173ebe9799a18782954a469040c9dc855c4575427d41298575e6fc"),
    ("mallows", 14, 60, "1.0", None, 106,
     "e795b97768b5854e729ad261f68b3c2951bb39f363b44a164945d506e3bea9f0"),
    ("mallows", 14, 60, "0.8", None, 107,
     "1284e38ce0e9f4fa5285f55822b7c652f11d7e72aadd6874a0d8ff252c77eacf"),
    ("mallows", 14, 60, "0.05", None, 108,
     "040c00f1f1e0baecec1a4c79e5bfc1b2f263cad6024bbe4340b4e98ade4dafe9"),
    ("mallows", 30, 50, "1.0", None, 109,
     "7cb34bd94f743bfb630b17aa723dc3aef1c6ab5c97d8c64520dfb2177447f380"),
    ("mallows", 30, 50, "0.8", None, 110,
     "652d1837b92b13246983a124e2caf9d8aa1d80c3a1ea59b5aebd63ed0c0063c2"),
    ("mallows", 30, 50, "0.05", None, 111,
     "9e892b9ce68be72dfb5b50beaddc09e6feccd8d39e9d7c6b59dbd7dcb0ef0f76"),
    ("mallows", 5, 40, "0.8", 2, 112,
     "cbf378ada92c957fcdc8f491f523c14540c10e8ad6b605b3c0a95b8d51c35500"),
    ("mallows", 14, 60, "1.0", 3, 113,
     "262216b237bc90dc5cc021033cb36614bf9c76b82079275625e175e84dbad2aa"),
    ("mallows", 14, 60, "0.05", 5, 114,
     "bccfcbd8b8aadfae84003661ccbe7b665226ef7110694cd73e276ca889b5b9db"),
    ("mallows", 30, 50, "0.8", 7, 115,
     "84d785cf00e7b3cf5e6bee0576788f26e157e4bd60e43099820b729ceb2cc166"),
    ("mallows", 30, 50, "0.05", 11, 116,
     "ee2fcd2e4132daff8a8e93984743c3bab3f32e555255d032ee094f947c2f3d9b"),
    ("ic", 1, 4, None, None, 117,
     "5d74a6080a6b11cf2dc15d48127cca03d977e52336ed5799b429e87085099bbf"),
    ("ic", 7, 50, None, None, 118,
     "4393cf2d3ba201faf3398e3a783ea88c1aaf9ea29ded5fb4efedae350a450c60"),
    ("ic", 30, 40, None, None, 119,
     "c2e5f97d50d92c132edfeddca3b94a465226e014eb21c1d1ad33d383f7b566c8"),
]


@pytest.mark.parametrize(
    "model,m,n,phi,step,seed,digest",
    GOLDEN_SAMPLES,
    ids=[f"{case[0]}-m{case[1]}-phi{case[3]}-step{case[4]}" for case in GOLDEN_SAMPLES],
)
def test_sample_bytes_are_pinned(capsys, model, m, n, phi, step, seed, digest):
    argv = ["sample", "--model", model, "--m", str(m), "--n", str(n),
            "--seed", str(seed)]
    if phi is not None:
        argv += ["--phi", phi]
    if step is not None:
        argv += ["--sigma", _stepped(m, step)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
