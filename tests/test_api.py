"""The public surface: growing or cutting it shows up here as a diff."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import kwise_kemeny
from oracles import best_advantage_exhaustive

PUBLIC = [
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
    "PairCounts",
    "Profile",
    "ProfileParseError",
    "RNG_ALGORITHM",
    "Ranking",
    "SccOrder",
    "SolveStats",
    "__version__",
    "brute_force_consensus",
    "build_dp_table",
    "dp_consensus",
    "enumerate_consensus",
    "full_mask",
    "impartial_culture",
    "kendall_tau",
    "kwise_digraph",
    "kwise_distance",
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
    ("core", "bit"),
    ("core", "iter_mask"),
    ("core", "Profile.counts_array"),
    ("core", "Profile.positions_matrix"),
    ("bench", "normalize_mode"),
    ("cli", "_parser"),
    ("solver", "_perm_cache"),
    ("majority", "Arc"),
    ("majority", "KwiseDigraph.arc_items"),
    ("solver", "DpTable.argmin"),
    ("solver", "DpTable.count"),
    ("solver", "_plan"),
    ("solver", "_small_layers"),
    ("solver", "_double_rows"),
    ("solver", "_run_index"),
    ("majority", "best_advantage_exhaustive"),
    ("distance", "kwise_distance_naive"),
    ("distance", "_NAIVE_M_SMALL_K"),
    ("distance", "_NAIVE_M_LARGE_K"),
    ("core", "Ranking.prefers"),
    ("core", "Profile.from_rankings"),
    ("core", "_raise_ballot_error"),
]

# (module, function, parameter) triples removed from a signature
DELETED_PARAMETERS = [
    ("solver", "build_dp_table", "count_optima"),
    ("solver", "_layered_min", "count_optima"),
    ("majority", "refine_digraph", "order"),
]

# (module, name) pairs kept in their module but no longer exported
UNEXPORTED = [
    ("majority", "best_triple_advantage"),
    ("core", "Mask"),
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


def test_deleted_parameters_are_gone():
    for module, function, parameter in DELETED_PARAMETERS:
        place = importlib.import_module(f"kwise_kemeny.{module}")
        signature = inspect.signature(getattr(place, function))
        assert parameter not in signature.parameters, f"{module}.{function}"


def test_unexported_names_stay_in_their_modules():
    for module, name in UNEXPORTED:
        assert not hasattr(kwise_kemeny, name), name
        place = importlib.import_module(f"kwise_kemeny.{module}")
        assert hasattr(place, name), f"{module}.{name}"


def _imports_unused(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names in string constants, which covers quoted annotations such as
    # "SccOrder | None"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_modules_use_every_import():
    # the package's modules and the tests' own, oracles included
    root = Path(__file__).parents[1]
    unused = {}
    for folder in (Path(kwise_kemeny.__file__).parent, root / "tests"):
        for path in sorted(folder.glob("*.py")):
            if path.name != "__init__.py":
                names = _imports_unused(ast.parse(path.read_text(encoding="utf-8")))
                if names:
                    unused[str(path.relative_to(root))] = names
    assert unused == {}


def test_unused_import_check_sees_one():
    tree = ast.parse(
        "import itertools\n"
        "from typing import NamedTuple\n"
        "import numpy as np\n"
        "shape: 'np.ndarray' = np.zeros(1)\n"
    )
    assert _imports_unused(tree) == ["NamedTuple (line 2)", "itertools (line 1)"]


def _private_unused(modules: dict[str, ast.Module]) -> list[str]:
    """The top-level private names of ``modules`` that no module reads
    outside their own definition."""
    defined, used = {}, set()
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names, own = [node.name], set(map(id, ast.walk(node)))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names, own = [t.id for t in targets if isinstance(t, ast.Name)], set()
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = (module, own)
    for module, tree in modules.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in defined and id(node) not in defined[name][1]:
                used.add(name)
    return sorted(f"{module}.{name}" for name, (module, _) in defined.items()
                  if name not in used)


def test_private_helpers_have_callers():
    # no dead helpers: every private module-level name of the package is
    # read somewhere in it besides its own body
    folder = Path(kwise_kemeny.__file__).parent
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(folder.glob("*.py"))}
    assert _private_unused(modules) == []


def test_private_helper_check_sees_one():
    tree = ast.parse(
        "_LIMIT = 3\n"
        "def _walk(n):\n"
        "    return _walk(n - 1) if n else _LIMIT\n"
        "def _used():\n"
        "    return 1\n"
        "VALUE = _used()\n"
    )
    assert _private_unused({"mod": tree}) == ["mod._walk"]


def _load_tracing():
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_exist(six_profile):
    # perfbench/tracing.py wraps functions by name and reads the arc count
    # of a digraph as len(graph.arcs); a rename or a new shape fails here
    importlib.import_module("kwise_kemeny.cli")
    tracing = _load_tracing()
    assert tracing.Tracer(kwise_kemeny).missing == set()
    m = six_profile.m
    for k in (2, 3, 4):
        graph = kwise_kemeny.kwise_digraph(six_profile, k, allow_exponential=True)
        expected = sum(
            best_advantage_exhaustive(six_profile, c, d, k)[0] > 0
            for c in range(m) for d in range(m) if c != d
        )
        assert len(graph.arcs) == expected
        assert tracing._span_attrs("majority.kwise_digraph", (), graph) == {
            "arcs": expected
        }
        refined = kwise_kemeny.refine_digraph(graph, six_profile)
        assert tracing._span_attrs("majority.refine_digraph", (graph,), refined) == {
            "removed": expected - len(refined.arcs)
        }
