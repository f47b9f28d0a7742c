"""The public surface: growing or cutting it shows up here as a diff."""

import importlib

import kwise_kemeny

PUBLIC = [
    "Arc",
    "BinomialPrefixTable",
    "ConsensusResult",
    "DpTable",
    "ExperimentConfig",
    "ExperimentReport",
    "GuardError",
    "InternalCheckError",
    "KwiseDigraph",
    "MAX_CANDIDATES",
    "MallowsParams",
    "Mask",
    "PairCounts",
    "Profile",
    "ProfileParseError",
    "RNG_ALGORITHM",
    "Ranking",
    "SccOrder",
    "SolveStats",
    "__version__",
    "best_advantage_exhaustive",
    "best_triple_advantage",
    "bit",
    "brute_force_consensus",
    "build_dp_table",
    "dp_consensus",
    "enumerate_consensus",
    "full_mask",
    "impartial_culture",
    "kendall_tau",
    "kwise_digraph",
    "kwise_distance",
    "kwise_distance_naive",
    "load_profile",
    "mallows_sample",
    "mask_members",
    "parse_profile",
    "parse_soc",
    "partitioned_dp",
    "position_weighted_kendall_tau",
    "preprocess",
    "profile_distance",
    "refine_digraph",
    "run_bench",
    "scc_decompose",
    "serialize_profile",
    "solve",
    "to_dot",
]

# (module, name) pairs deleted because nothing outside their own tests used them
DELETED = [
    ("core", "mask_of"),
    ("core", "popcount_array"),
    ("core", "Ranking.rank_of"),
    ("core", "Ranking.top_choice"),
    ("core", "Ranking.restrict"),
    ("core", "Ranking.above_set"),
    ("core", "Ranking.apply_relabel"),
    ("core", "Profile.relabel"),
    ("core", "Profile.restrict"),
    ("core", "PairCounts.margin"),
    ("core", "PairCounts.contributions"),
    ("majority", "SccOrder.component_of"),
    ("majority", "setwise_support"),
    ("majority", "setwise_advantage"),
    ("majority", "_check_pair_in_subset"),
    ("bench", "default_grid"),
    ("bench", "_MODE_ALIASES"),
]


def test_all_is_pinned():
    assert sorted(kwise_kemeny.__all__) == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(kwise_kemeny, name)]
    assert missing == []


def test_deleted_names_are_gone():
    for module, name in DELETED:
        owner, _, attribute = name.rpartition(".")
        place = importlib.import_module(f"kwise_kemeny.{module}")
        if owner:  # a method: the package exports the same class object
            place = getattr(place, owner)
        else:
            assert not hasattr(kwise_kemeny, attribute), name
        assert not hasattr(place, attribute), f"{module}.{name}"
