"""Span tracing of the program's public functions, from outside the program.

The tracer replaces selected functions of the ``kwise_kemeny`` modules with
wrappers for as long as it is installed; the program's source is untouched.
A wrapped function is replaced in every ``kwise_kemeny`` module namespace
that holds it (``from .solver import build_dp_table`` copies the name), and
a wrapped class has its ``__init__`` replaced.

Span targets record (name, parent, start, end, attributes); spans stay in
memory until the run ends.  Hot functions are count targets: they only bump
a counter, because a span each would dominate what is measured.  A target
missing from the program (renamed or removed by a refactor) is skipped, and
every metric that needs it is reported as missing.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter

# (module, attribute, kind); kind is "span" or "count".
TARGETS = (
    ("cli", "main", "span"),
    ("core", "load_profile", "span"),
    ("sampling", "mallows_sample", "span"),
    ("distance", "BinomialPrefixTable", "count"),
    ("solver", "build_dp_table", "span"),
    ("solver", "dp_consensus", "span"),
    ("solver", "enumerate_consensus", "span"),
    ("solver", "count_table_optima", "span"),
    ("solver", "enumerate_table_orders", "span"),
    ("majority", "PairCounts", "span"),
    ("majority", "kwise_digraph", "span"),
    ("majority", "best_triple_advantage", "count"),
    ("majority", "_constrained_max", "count"),
    ("majority", "scc_decompose", "span"),
    ("majority", "refine_digraph", "span"),
    ("majority", "partitioned_dp", "span"),
    ("bench", "run_bench", "span"),
)

# Per-layer metrics: name -> (unit, better, the targets it needs).  "ms" and
# "self_ms" are per solve over every traced solve; counts come from the
# first traced pass over the workload's inputs, so they repeat exactly for
# a seed.  perfbench/README.md says which end-to-end metric each should move.
LAYER_METRICS = {
    "cli.main.self_ms": ("ms", "lower", ("cli.main",)),
    "core.load_profile.ms": ("ms", "lower", ("core.load_profile",)),
    "core.profile_groups": (
        "count", "lower", ("core.load_profile", "sampling.mallows_sample")),
    "sampling.mallows_sample.ms": ("ms", "lower", ("sampling.mallows_sample",)),
    "distance.BinomialPrefixTable.calls_per_solve": (
        "count", "lower", ("distance.BinomialPrefixTable",)),
    "solver.build_dp_table.ms": ("ms", "lower", ("solver.build_dp_table",)),
    "solver.build_dp_table.calls": ("count", "lower", ("solver.build_dp_table",)),
    "solver.build_dp_table.states": ("count", "lower", ("solver.build_dp_table",)),
    "solver.build_dp_table.peak_alloc_mb": ("MB", "lower", ("solver.build_dp_table",)),
    "solver.build_dp_table.calls_per_solve": ("count", "lower", ("solver.build_dp_table",)),
    "solver.dp_consensus.self_ms": (
        "ms", "lower", ("solver.dp_consensus", "solver.build_dp_table")),
    "solver.count_table_optima.ms": ("ms", "lower", ("solver.count_table_optima",)),
    "solver.enumerate_table_orders.ms": ("ms", "lower", ("solver.enumerate_table_orders",)),
    "solver.enumerate_consensus.ms": ("ms", "lower", ("solver.enumerate_consensus",)),
    "majority.PairCounts.ms": ("ms", "lower", ("majority.PairCounts",)),
    "majority.PairCounts.calls_per_solve": ("count", "lower", ("majority.PairCounts",)),
    "majority.kwise_digraph.ms": ("ms", "lower", ("majority.kwise_digraph",)),
    "majority.kwise_digraph.arcs": ("count", "lower", ("majority.kwise_digraph",)),
    "majority.best_triple_advantage.calls": (
        "count", "lower", ("majority.best_triple_advantage",)),
    "majority.scc_decompose.ms": ("ms", "lower", ("majority.scc_decompose",)),
    "majority.scc_decompose.calls": ("count", "lower", ("majority.scc_decompose",)),
    "majority.refine_digraph.ms": ("ms", "lower", ("majority.refine_digraph",)),
    "majority.refine_digraph.passes": (
        "count", "lower", ("majority.refine_digraph", "majority.scc_decompose")),
    "majority.refine_digraph.arcs_removed": ("count", "higher", ("majority.refine_digraph",)),
    "majority.refine_digraph.removed_per_checked": (
        "count", "higher", ("majority.refine_digraph", "majority._constrained_max")),
    "majority.partitioned_dp.self_ms": (
        "ms", "lower", ("majority.partitioned_dp", "solver.build_dp_table",
                        "solver.count_table_optima", "solver.enumerate_table_orders")),
    "majority.partitioned_dp.components": ("count", "higher", ("majority.partitioned_dp",)),
    "majority.partitioned_dp.largest_component": ("count", "lower", ("majority.partitioned_dp",)),
    "bench.run_bench.self_ms": ("ms", "lower", ("bench.run_bench",)),
    "trace.overhead_pct": ("%", "lower", ()),
}


def _span_attrs(name, args, result):
    """Deterministic counts attached to a finished span."""
    if name in ("core.load_profile", "sampling.mallows_sample"):
        return {"groups": len(result.groups)}
    if name == "solver.build_dp_table":
        return {"states": len(result.values)}
    if name == "majority.kwise_digraph":
        return {"arcs": len(result.arcs)}
    if name == "majority.refine_digraph":
        return {"removed": len(args[0].arcs) - len(result.arcs)}
    if name == "majority.partitioned_dp":
        order = args[2]
        return {"components": len(order.components), "largest": order.largest}
    return None


class Tracer:
    """Installs wrappers around :data:`TARGETS` and records what they see.

    ``spans`` holds ``[name, parent index, start, end, attrs]`` lists in
    start order; ``counts`` counts the calls of count targets.  Only one
    thread may call the program while the tracer is installed.  With
    ``track_alloc`` set, each ``build_dp_table`` span also records the
    tracemalloc peak inside the call; tracemalloc slows every allocation,
    so this is for a separate, untimed call.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.track_alloc = False
        for module, attr, _ in TARGETS:
            mod = sys.modules.get(f"{package.__name__}.{module}")
            if mod is None or not hasattr(mod, attr):
                self.missing.add(f"{module}.{attr}")

    def install(self) -> None:
        if self._patches:
            return
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None
            and (key == self.package.__name__ or key.startswith(self.package.__name__ + "."))
        ]
        for module, attr, kind in TARGETS:
            name = f"{module}.{attr}"
            if name in self.missing:
                continue
            original = getattr(sys.modules[f"{self.package.__name__}.{module}"], attr)
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", self._wrap(name, kind, init))
                continue
            wrapper = self._wrap(name, kind, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, kind, fn):
        counts = self.counts
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack
        alloc_target = name == "solver.build_dp_table"
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            record = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            own_alloc = alloc_target and self.track_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            attrs = _span_attrs(name, args, result)
            if own_alloc:
                attrs = dict(attrs or {}, peak_bytes=peak)
            record[4] = attrs
            return result
        return spanned

    def mark(self) -> tuple[int, Counter]:
        """Position to slice spans and counts at, e.g. around one pass."""
        return len(self.spans), Counter(self.counts)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def check_nesting(spans: list[list]) -> dict:
    """Spans that leave their parent's interval, and the smallest self time."""
    outside = sum(
        1 for _, parent, start, end, _ in spans
        if parent is not None
        and not (spans[parent][2] <= start <= end <= spans[parent][3])
    )
    own = self_times(spans)
    return {"spans": len(spans), "outside_parent": outside,
            "min_self_ms": min(own) * 1000.0 if own else 0.0}


def layer_metrics(tracer: Tracer, setup_spans, traced, first_pass, alloc_spans,
                  overhead_pct):
    """Per-layer metrics from the traced passes.

    ``traced`` is a list of (start index, end index, solves) slices of
    ``tracer.spans``; ``first_pass`` is ((span start, counts), (span end,
    counts), solves) around the first traced pass; ``alloc_spans`` are the
    spans of the call made with ``track_alloc`` set.
    """
    spans = tracer.spans
    own = self_times(spans)
    solves = sum(n for _, _, n in traced) or 1
    total: Counter = Counter()
    self_total: Counter = Counter()
    for lo, hi, _ in traced:
        for i in range(lo, hi):
            total[spans[i][0]] += spans[i][3] - spans[i][2]
            self_total[spans[i][0]] += own[i]

    (lo, counts_lo), (hi, counts_hi), pass_solves = first_pass
    pass_spans = spans[lo:hi]
    calls = Counter(s[0] for s in pass_spans)
    counted = counts_hi - counts_lo

    def attr_values(name, key):
        return [s[4][key] for s in pass_spans if s[0] == name and s[4]]

    groups = attr_values("core.load_profile", "groups") or attr_values(
        "sampling.mallows_sample", "groups")
    sampled = [s[3] - s[2] for s in setup_spans + spans if s[0] == "sampling.mallows_sample"]
    refine_ids = {i for i in range(lo, hi) if spans[i][0] == "majority.refine_digraph"}
    inner_scc = sum(1 for s in pass_spans
                    if s[0] == "majority.scc_decompose" and s[1] in refine_ids)
    removed = sum(attr_values("majority.refine_digraph", "removed"))
    checked = counted["majority._constrained_max"]
    peaks = [s[4]["peak_bytes"] for s in alloc_spans if s[0] == "solver.build_dp_table"]

    def per_solve_ms(name):
        return total[name] * 1000.0 / solves

    def per_solve_self_ms(name):
        return self_total[name] * 1000.0 / solves

    values = {
        "cli.main.self_ms": per_solve_self_ms("cli.main"),
        "core.load_profile.ms": per_solve_ms("core.load_profile"),
        "core.profile_groups": sum(groups) / len(groups) if groups else 0,
        "sampling.mallows_sample.ms": 1000.0 * sum(sampled) / len(sampled) if sampled else 0.0,
        "distance.BinomialPrefixTable.calls_per_solve":
            counted["distance.BinomialPrefixTable"] / pass_solves,
        "solver.build_dp_table.ms": per_solve_ms("solver.build_dp_table"),
        "solver.build_dp_table.calls": calls["solver.build_dp_table"],
        "solver.build_dp_table.states": sum(attr_values("solver.build_dp_table", "states")),
        "solver.build_dp_table.peak_alloc_mb": max(peaks) / 2**20 if peaks else 0.0,
        "solver.build_dp_table.calls_per_solve": calls["solver.build_dp_table"] / pass_solves,
        "solver.dp_consensus.self_ms": per_solve_self_ms("solver.dp_consensus"),
        "solver.count_table_optima.ms": per_solve_ms("solver.count_table_optima"),
        "solver.enumerate_table_orders.ms": per_solve_ms("solver.enumerate_table_orders"),
        "solver.enumerate_consensus.ms": per_solve_ms("solver.enumerate_consensus"),
        "majority.PairCounts.ms": per_solve_ms("majority.PairCounts"),
        "majority.PairCounts.calls_per_solve": calls["majority.PairCounts"] / pass_solves,
        "majority.kwise_digraph.ms": per_solve_ms("majority.kwise_digraph"),
        "majority.kwise_digraph.arcs": sum(attr_values("majority.kwise_digraph", "arcs")),
        "majority.best_triple_advantage.calls": counted["majority.best_triple_advantage"],
        "majority.scc_decompose.ms": per_solve_ms("majority.scc_decompose"),
        "majority.scc_decompose.calls": calls["majority.scc_decompose"],
        "majority.refine_digraph.ms": per_solve_ms("majority.refine_digraph"),
        "majority.refine_digraph.passes": len(refine_ids) + inner_scc,
        "majority.refine_digraph.arcs_removed": removed,
        "majority.refine_digraph.removed_per_checked": removed / checked if checked else 0.0,
        "majority.partitioned_dp.self_ms": per_solve_self_ms("majority.partitioned_dp"),
        "majority.partitioned_dp.components":
            sum(attr_values("majority.partitioned_dp", "components")),
        "majority.partitioned_dp.largest_component":
            max(attr_values("majority.partitioned_dp", "largest"), default=0),
        "bench.run_bench.self_ms": per_solve_self_ms("bench.run_bench"),
        "trace.overhead_pct": overhead_pct,
    }
    out, missing = {}, []
    for name, (unit, _, needs) in LAYER_METRICS.items():
        if any(target in tracer.missing for target in needs):
            missing.append(name)
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out, missing
