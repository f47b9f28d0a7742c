"""One workload run in a fresh process; started by ``run.py``.

Set-up (imports, input generation, warm-up) ends at a ``ready`` timestamp
on the system-wide monotonic clock, which ``run.py`` subtracts from the
moment it started this process.  Then a closed loop (one client, the next
call sent when the previous one returns) calls ``kwise_kemeny.cli.main``
in-process over the workload's inputs, pass after pass, until the time is
up and the required passes are complete.  With tracing, passes alternate
untraced and traced.  Every output is checked, and the last line of
standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from screen import refined_component_sizes
from tracing import Tracer, check_nesting, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

# Solve workloads: candidates m, voters n, profiles per phi, for each size.
SOLVE_WORKLOADS = {
    "dp-m18": {
        "mode": "dp",
        "phis": (1.0,),
        "full": (18, 50, 2),
        "tiny": (8, 20, 1),
    },
    "pre-refined-m30": {
        "mode": "pre-refined",
        "phis": (0.7, 0.85),
        "full": (30, 50, 10),
        "tiny": (10, 20, 1),
    },
}
# The grid of scripts/run_tables.py at one instance per cell.  Every call
# repeats the same grid: with calls over differing grids, their times form
# clusters and the median jumps between them from run to run.
GRID = {
    "k-list": "2,3,m",
    "phi-list": "0.5,0.8,0.95,1.0",
    "modes": "dp,pre,pre-refined",
    "n": 50,
    "full": "10,14",
    "tiny": "5,6",
}
GRID_TIMING_FIELDS = ("avg_ms", "max_ms", "min_ms")
# Largest refined component a pre-refined-m30 profile may have, at k = 2
# and 3, as computed by screen.py (never by the program under test, so the
# inputs depend only on the seed and the sampler).  Up to 14 candidates the
# component's DP tables stay within a few MB and add at most ~40 ms to one
# solve.  About one profile in 65 at phi = 0.85 has a component of 15 to 18
# candidates: 0.16 to 1.8 s per k = 3 solve and 44 to 107 MB peak RSS, which
# would make a run's throughput and peak memory hinge on whether its seed
# drew one.  Beyond 18 (about one in 130) the DP allocates 0.3 GB at 20 and
# over 100 GB at 29 before any guard refuses.  dp-m18 measures 18-candidate DPs.
MAX_COMPONENT = 14


class CheckFailure(Exception):
    """An output was wrong or a call failed; the run must not report metrics."""


def sub_seed(seed: int, *tags) -> int:
    """A 63-bit seed for one input, derived from the run seed and tags."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def load_program():
    """Import ``kwise_kemeny`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "kwise_kemeny" / "__init__.py").is_file():
        raise SystemExit(f"error: no kwise_kemeny sources under {src}")
    sys.path.insert(0, str(src))
    import kwise_kemeny
    from kwise_kemeny import bench, cli, core, distance  # noqa: F401

    if src.resolve() not in Path(kwise_kemeny.__file__).resolve().parents:
        raise SystemExit(f"error: kwise_kemeny imported from {kwise_kemeny.__file__}")
    return kwise_kemeny


def call(program, argv: list[str]) -> tuple[str, float]:
    """Time one in-process CLI call; a non-zero exit fails the run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        code = program.cli.main(argv)
        elapsed = time.perf_counter() - started
    if code != 0:
        raise CheckFailure(f"exit {code} from {argv}: {err.getvalue().strip()}")
    return out.getvalue(), elapsed


def sample(program, path: Path, m: int, n: int, phi: float, seed: int) -> None:
    call(program, ["sample", "--model", "mallows", "--m", str(m), "--n", str(n),
                   "--phi", repr(phi), "--seed", str(seed), "--output", str(path)])


def rescore(program, path, k: int, payload: dict) -> None:
    """Every reported ranking must score the reported optimum."""
    profile = program.core.load_profile(str(path))
    for ids in payload["rankings"]:
        ranking = program.core.Ranking.from_one_based(ids)
        score = program.distance.profile_distance(ranking, profile, k)
        if score != payload["optimum"]:
            raise CheckFailure(
                f"{path} k={k}: ranking {ids} scores {score}, "
                f"reported optimum {payload['optimum']}")


class SolveWorkload:
    """``solve`` calls over generated profile files; one call is one solve."""

    def __init__(self, program, name, size, seed, workdir: Path):
        spec = SOLVE_WORKLOADS[name]
        m, n, per_phi = spec[size]
        self.program, self.mode = program, spec["mode"]
        self.ks = (2, 3, m) if self.mode == "dp" else (2, 3)
        self.items = []  # (key, argv)
        self.files = []
        self.redraws = 0
        for phi in spec["phis"]:
            for i in range(per_phi):
                path = workdir / f"m{m}-phi{phi}-{i}.txt"
                for draw in range(100):
                    sample(program, path, m, n, phi, sub_seed(seed, name, phi, i, draw))
                    if self.mode == "dp" or all(
                            max(refined_component_sizes(path, k)) <= MAX_COMPONENT
                            for k in self.ks):
                        break
                    self.redraws += 1
                else:
                    raise CheckFailure(f"no profile with components <= {MAX_COMPONENT}")
                self.files.append(path)
                for k in self.ks:
                    argv = ["solve", "--input", str(path), "--k", str(k),
                            "--mode", self.mode]
                    self.items.append(((path.name, k), argv))

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for path in self.files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()

    def warm_up_items(self):
        # The first large DP allocation and numpy's first calls are slow and
        # would otherwise land in the first timed pass.  Plain DP runs one
        # code path for every k; preprocessing takes another one at k = 2.
        return self.items[:1] if self.mode == "dp" else self.items[:len(self.ks)]

    @staticmethod
    def canonical(text: str) -> tuple[dict, int]:
        payload = json.loads(text)
        payload["stats"].pop("millis")
        return payload, 1

    def verify(self, outputs: dict) -> dict:
        record = {}
        for (name, k), payload in outputs.items():
            path = self.files[0].parent / name
            rescore(self.program, path, k, payload)
            entry = {"optimum": payload["optimum"], "states": payload["stats"]["states"],
                     "rankings": payload["rankings"]}
            if self.mode == "pre-refined":
                text, _ = call(self.program, ["digraph", "--input", str(path),
                                              "--k", str(k), "--refine"])
                graph = json.loads(text)
                sizes = [len(c) for c in graph["components"]]
                if sum(1 << s for s in sizes) != payload["stats"]["states"]:
                    raise CheckFailure(
                        f"{name} k={k}: components {sizes} do not account for "
                        f"{payload['stats']['states']} DP states")
                entry.update(arcs=len(graph["arcs"]), components=sizes)
            record[f"{name}|k={k}"] = entry
        return record


class GridWorkload:
    """``bench`` calls over the paper grid; one solve is one instance of one
    (cell, mode), so a call makes 56 solves."""

    def __init__(self, program, name, size, seed, workdir: Path):
        self.program = program
        self.redraws = 0
        grid_seed = sub_seed(seed, name)
        argv = ["bench", "--m-list", GRID[size], "--k-list", GRID["k-list"],
                "--phi-list", GRID["phi-list"], "--modes", GRID["modes"],
                "--n", str(GRID["n"]), "--instances", "1",
                "--seed", str(grid_seed), "--json"]
        self.items = [((grid_seed,), argv)]
        # Each cell's instance, regenerated with ``sample`` from the seed
        # ``bench`` derives for it: the fingerprint covers the profiles the
        # calls solve, and ``verify`` re-solves them.
        self.files = {}
        for m in map(int, GRID[size].split(",")):
            for phi in map(float, GRID["phi-list"].split(",")):
                path = workdir / f"grid-m{m}-phi{phi}.txt"
                sample(program, path, m, GRID["n"], phi,
                       program.bench.instance_seed(grid_seed, m, phi, 0))
                self.files[(m, phi)] = path

    def fingerprint(self) -> str:
        digest = hashlib.sha256(json.dumps(self.items[0][1]).encode())
        for path in self.files.values():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()

    def warm_up_items(self):
        argv = list(self.items[0][1])
        argv[argv.index("--m-list") + 1] = "5"
        return [(("warm-up",), argv)]

    @staticmethod
    def canonical(text: str) -> tuple[dict, int]:
        payload = json.loads(text)
        for cell in payload["cells"]:
            for field in GRID_TIMING_FIELDS:
                cell.pop(field)
        return payload, sum(cell["instances"] for cell in payload["cells"])

    def verify(self, outputs: dict) -> dict:
        """Re-derive every cell's optimum: solve its instance with
        ``solve --mode dp`` and re-score it."""
        record = {}
        for (grid_seed,), payload in outputs.items():
            optimum = {}
            for cell in payload["cells"]:
                m, k, phi = cell["m"], cell["k"], cell["phi"]
                if (m, k, phi) not in optimum:
                    path = self.files[(m, phi)]
                    text, _ = call(self.program, ["solve", "--input", str(path),
                                                  "--k", str(k), "--mode", "dp"])
                    solved = json.loads(text)
                    rescore(self.program, path, k, solved)
                    optimum[(m, k, phi)] = solved["optimum"]
                if cell["avg_optimum"] != optimum[(m, k, phi)]:
                    raise CheckFailure(
                        f"grid seed {grid_seed} cell {cell}: optimum "
                        f"{optimum[(m, k, phi)]} expected")
            record[str(grid_seed)] = payload["cells"]
        return record


def run_loop(work, seconds: float, tracer):
    """Closed loop over ``work.items``; returns timings, outputs and trace marks.

    Without a tracer, pass 0 must complete; with one, passes alternate
    untraced and traced and passes 0 and 1 must complete.  After that the
    loop stops at the first pass that ends past the deadline, so every run
    measures whole passes, the same mix of inputs.
    """
    calls = {"untraced": [], "traced": []}  # [seconds, solves] per call
    outputs: dict = {}
    traced_slices = []  # (span start, span end, solves)
    first_pass = None
    required = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while True:
        traced = tracer is not None and pass_no % 2 == 1
        if traced:
            tracer.install()
            start_mark = tracer.mark()
        solves_in_pass = 0
        try:
            for key, argv in work.items:
                text, elapsed = call(work.program, argv)
                payload, solves = work.canonical(text)
                calls["traced" if traced else "untraced"].append([elapsed, solves])
                solves_in_pass += solves
                if key not in outputs:
                    outputs[key] = payload
                elif outputs[key] != payload:
                    raise CheckFailure(f"output for {argv} changed between calls")
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            end_mark = tracer.mark()
            traced_slices.append((start_mark[0], end_mark[0], solves_in_pass))
            if first_pass is None:
                first_pass = (start_mark, end_mark, solves_in_pass)
        pass_no += 1
        if pass_no >= required and time.perf_counter() >= deadline:
            return calls, outputs, traced_slices, first_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    program = load_program()
    tracer = Tracer(program) if args.trace else None
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    kind = GridWorkload if args.workload == "grid-paper" else SolveWorkload
    try:
        if tracer:
            tracer.install()
        try:
            work = kind(program, args.workload, args.size, args.seed, workdir)
        finally:
            if tracer:
                tracer.uninstall()
        setup_spans = tracer.spans[:] if tracer else []
        if tracer:
            tracer.spans.clear()
        for _, warm_argv in work.warm_up_items():
            call(program, warm_argv)
        ready = time.monotonic()
        result = {"ready": ready, "inputs_sha256": work.fingerprint(),
                  "redraws": work.redraws}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        calls, outputs, traced_slices, first_pass = run_loop(work, args.seconds, tracer)
        if tracer:
            # Peak allocation is taken on one untimed call of the first input.
            start = len(tracer.spans)
            tracer.track_alloc = True
            tracer.install()
            try:
                call(program, work.items[0][1])
            finally:
                tracer.uninstall()
            alloc_spans = tracer.spans[start:]
        record = work.verify(outputs)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"error": str(exc)}))
        return 1

    result.update(
        numpy=sys.modules["numpy"].__version__,
        all_names=len(program.__all__),
        calls=calls,
        outputs=record,
        outputs_sha256=hashlib.sha256(
            json.dumps(record, sort_keys=True).encode()).hexdigest(),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer:
        def rate(rows):
            return sum(s for _, s in rows) / sum(t for t, _ in rows)
        overhead = 100.0 * (1.0 - rate(calls["traced"]) / rate(calls["untraced"]))
        result["layers"], result["missing"] = layer_metrics(
            tracer, setup_spans, traced_slices, first_pass, alloc_spans, overhead)
        result["nesting"] = check_nesting(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
