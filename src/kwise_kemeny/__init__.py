"""k-wise Kemeny rank aggregation toolkit.

Distances over setwise contests, exact consensus solvers (subset DP and a
brute-force oracle), majority-digraph preprocessing with SCC decomposition
and refinement, Mallows/impartial-culture samplers, and a reproducible
benchmark harness with a command-line front end.
"""

__version__ = "0.1.0"

from .core import (
    GuardError,
    InternalCheckError,
    MAX_CANDIDATES,
    Profile,
    ProfileParseError,
    Ranking,
    full_mask,
    load_profile,
    mask_members,
    parse_profile,
    parse_soc,
    serialize_profile,
)
from .distance import (
    BinomialPrefixTable,
    kendall_tau,
    kwise_distance,
    position_weighted_kendall_tau,
    profile_distance,
)
from .solver import (
    ConsensusResult,
    DpTable,
    SolveStats,
    brute_force_consensus,
    build_dp_table,
    dp_consensus,
    enumerate_consensus,
)
from .majority import (
    KwiseDigraph,
    PairCounts,
    SccOrder,
    kwise_digraph,
    partitioned_dp,
    preprocess,
    refine_digraph,
    scc_decompose,
    solve,
    to_dot,
)
from .sampling import (
    RNG_ALGORITHM,
    MallowsParams,
    impartial_culture,
    mallows_sample,
)
from .bench import (
    ExperimentConfig,
    ExperimentReport,
    run_bench,
)

__all__ = [
    "__version__",
    "GuardError",
    "InternalCheckError",
    "MAX_CANDIDATES",
    "Profile",
    "ProfileParseError",
    "Ranking",
    "full_mask",
    "load_profile",
    "mask_members",
    "parse_profile",
    "parse_soc",
    "serialize_profile",
    "BinomialPrefixTable",
    "kendall_tau",
    "kwise_distance",
    "position_weighted_kendall_tau",
    "profile_distance",
    "ConsensusResult",
    "DpTable",
    "SolveStats",
    "brute_force_consensus",
    "build_dp_table",
    "dp_consensus",
    "enumerate_consensus",
    "KwiseDigraph",
    "PairCounts",
    "SccOrder",
    "kwise_digraph",
    "partitioned_dp",
    "preprocess",
    "refine_digraph",
    "scc_decompose",
    "solve",
    "to_dot",
    "RNG_ALGORITHM",
    "MallowsParams",
    "impartial_culture",
    "mallows_sample",
    "ExperimentConfig",
    "ExperimentReport",
    "run_bench",
]
