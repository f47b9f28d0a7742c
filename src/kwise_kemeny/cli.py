"""Command-line front end.

Subcommands: distance, solve, digraph, sample, bench.
Exit codes: 0 success, 2 input error, 3 guard/limit refused, 4 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import ExperimentConfig, run_bench
from .core import (
    GuardError,
    InternalCheckError,
    ProfileParseError,
    Ranking,
    load_profile,
    mask_members,
    serialize_profile,
)
from .distance import profile_distance
from .majority import SOLVE_MODES, preprocess, solve, to_dot
from .sampling import MallowsParams, impartial_culture, mallows_sample
from .solver import DEFAULT_ENUMERATION_LIMIT

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="profile file (.soc uses the PrefLib reader)")
    common.add_argument("--k", type=int, help="contest-set size bound")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    common.add_argument("--json", action="store_true", help="emit JSON output")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwise-kemeny",
        description="k-wise Kemeny consensus rankings over voter profiles",
    )
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "distance", parents=[common], help="k-wise distance from a ranking to a profile"
    )
    p.add_argument("--rank", required=True, help="comma list of 1-based candidate ids")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser(
        "solve", parents=[common], help="compute a consensus ranking"
    )
    p.add_argument("--mode", choices=SOLVE_MODES, default="dp")
    p.add_argument(
        "--all", action="store_true", help="enumerate all optimal rankings"
    )
    p.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_ENUMERATION_LIMIT,
        help="enumeration cap used with --all",
    )
    p.add_argument("--force-exponential", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "digraph", parents=[common], help="k-wise majority digraph and components"
    )
    p.add_argument("--refine", action="store_true")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument("--force-exponential", action="store_true")
    p.set_defaults(func=cmd_digraph)

    p = sub.add_parser(
        "sample", parents=[common], help="generate a random profile"
    )
    p.add_argument("--model", choices=("mallows", "ic"), default="mallows")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--phi", type=float, help="Mallows dispersion in (0, 1]")
    p.add_argument("--sigma", help="reference ranking, comma list of 1-based ids")
    p.add_argument("--output", help="write the profile here instead of stdout")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "bench", parents=[common], help="run the experiment grid"
    )
    p.add_argument("--m-list", default="6,10,14")
    p.add_argument("--k-list", default="2,3,m", help='ints and/or the literal "m"')
    p.add_argument("--phi-list", default="0.5,0.8,0.85,0.9,0.95,1.0")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--modes", default="dp,pre,pre-refined")
    p.add_argument("--timeout", type=float, help="per-instance budget in seconds")
    p.add_argument("--csv-out", help="write the CSV report here")
    p.add_argument("--json-out", help="write the JSON report here")
    p.set_defaults(func=cmd_bench)
    return parser


def _load(args) -> object:
    if not args.input:
        raise ValueError("--input is required")
    return load_profile(args.input)


def _need_k(args) -> int:
    if args.k is None:
        raise ValueError("--k is required")
    return args.k


def _parse_rank(text: str) -> Ranking:
    try:
        ids = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"invalid ranking list {text!r}") from None
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise ValueError(f"not a permutation of 1..{len(ids)}: {text}")
    return Ranking.from_one_based(ids)


def cmd_distance(args) -> int:
    profile = _load(args)
    ranking = _parse_rank(args.rank)
    value = profile_distance(ranking, profile, _need_k(args))
    if args.json:
        print(json.dumps({"distance": value}))
    else:
        print(value)
    return EXIT_OK


def _result_payload(result) -> dict:
    return {
        "optimum": result.optimum,
        "rankings": [list(r.to_one_based()) for r in result.rankings],
        "count": result.count,
        "truncated": result.truncated,
        "stats": {"states": result.stats.states, "millis": result.stats.millis},
    }


def cmd_solve(args) -> int:
    profile = _load(args)
    k = _need_k(args)
    if args.limit < 1:
        raise ValueError("--limit must be positive")
    limit = args.limit if args.all else None
    result = solve(profile, k, args.mode, limit, args.force_exponential)
    print(json.dumps(_result_payload(result)))
    return EXIT_OK


def cmd_digraph(args) -> int:
    profile = _load(args)
    k = args.k if args.k is not None else 3
    graph, order = preprocess(
        profile, k, refine=args.refine, allow_exponential=args.force_exponential
    )
    if args.dot:
        sys.stdout.write(to_dot(graph, order))
        return EXIT_OK
    payload = {
        "m": graph.m,
        "k": graph.k,
        "refined": args.refine,
        "arcs": [
            {
                "from": c + 1,
                "to": d + 1,
                "weight": arc.weight,
                "witness": [x + 1 for x in mask_members(arc.witness)],
            }
            for (c, d), arc in graph.arc_items()
        ],
        "components": [
            [c + 1 for c in mask_members(mask)] for mask in order.components
        ],
        "order_unique": order.order_unique,
    }
    print(json.dumps(payload))
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.model == "mallows":
        if args.phi is None:
            raise ValueError("--phi is required for the Mallows model")
        sigma = _parse_rank(args.sigma) if args.sigma else Ranking.identity(args.m)
        if sigma.m != args.m:
            raise ValueError(f"--sigma lists {sigma.m} candidates, --m is {args.m}")
        profile = mallows_sample(MallowsParams(sigma, args.phi, args.n, args.seed))
    else:
        profile = impartial_culture(args.m, args.n, args.seed)
    text = serialize_profile(profile)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_k_list(text: str) -> tuple:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        out.append("m" if tok == "m" else int(tok))
    return tuple(out)


def cmd_bench(args) -> int:
    config = ExperimentConfig(
        ms=tuple(int(tok) for tok in args.m_list.split(",")),
        ks=_parse_k_list(args.k_list),
        phis=tuple(float(tok) for tok in args.phi_list.split(",")),
        n=args.n,
        instances=args.instances,
        seed=args.seed,
        modes=tuple(tok.strip() for tok in args.modes.split(",")),
        timeout_s=args.timeout,
    )
    report = run_bench(config)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_csv())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    sys.stdout.write(report.to_json() if args.json else report.to_csv())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ProfileParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
