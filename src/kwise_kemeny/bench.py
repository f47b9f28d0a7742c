"""Reproducible experiment grid over Mallows-generated elections.

Cells are (m, k, phi, solver-mode) combinations.  Every mode within a cell
solves the same profiles (instance seeds derive from the grid seed, the
candidate count, phi and the instance index), and the harness asserts that
all modes agree on the optimum of every instance.  Preprocessed modes only
run at k <= 3, where the majority digraph is constructible in polynomial
time; cells pairing them with a larger k are skipped.

Timing columns report wall-clock milliseconds and naturally vary from run
to run; every other column is deterministic under a fixed seed.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .core import InternalCheckError, Profile, Ranking
from .majority import solve
from .sampling import RNG_ALGORITHM, MallowsParams, mallows_sample

MODES = ("dp", "pre", "pre-refined")

CSV_HEADER = "m,k,phi,mode,avg_ms,max_ms,min_ms,avg_consensus,avg_largest_scc"


def normalize_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown solver mode {mode!r}; expected one of {MODES}")
    return mode


@dataclass(frozen=True)
class ExperimentConfig:
    ms: tuple[int, ...]
    ks: tuple[int | str, ...]  # ints, or the literal "m" resolved per m
    phis: tuple[float, ...]
    n: int = 50
    instances: int = 50
    seed: int = 0
    modes: tuple[str, ...] = ("dp",)
    timeout_s: float | None = None

    def __post_init__(self):
        if not self.ms or not self.ks or not self.phis:
            raise ValueError("m, k and phi lists must be non-empty")
        if self.n < 1 or self.instances < 1:
            raise ValueError("n and instances must be positive")
        object.__setattr__(
            self, "modes", tuple([normalize_mode(mode) for mode in self.modes])
        )

    def resolve_ks(self, m: int) -> list[int]:
        out: list[int] = []
        for k in self.ks:
            value = m if k == "m" else int(k)
            if 2 <= value <= m and value not in out:
                out.append(value)
        return out


@dataclass
class CellRecord:
    m: int
    k: int
    phi: float
    mode: str
    avg_ms: float
    max_ms: float
    min_ms: float
    avg_consensus: float
    avg_largest_scc: float
    avg_optimum: float
    timeouts: int
    instances: int


@dataclass
class ExperimentReport:
    seed: int
    n: int
    instances: int
    modes: tuple[str, ...]
    rng: str
    version: str
    cells: list[CellRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for cell in self.cells:
            writer.writerow(
                [
                    cell.m,
                    cell.k,
                    f"{cell.phi:g}",
                    cell.mode,
                    f"{cell.avg_ms:.3f}",
                    f"{cell.max_ms:.3f}",
                    f"{cell.min_ms:.3f}",
                    f"{cell.avg_consensus:.4f}",
                    f"{cell.avg_largest_scc:.4f}",
                ]
            )
        return buffer.getvalue()

    def to_json(self) -> str:
        payload = {
            "metadata": {
                "seed": self.seed,
                "n": self.n,
                "instances": self.instances,
                "modes": list(self.modes),
                "rng": self.rng,
                "version": self.version,
            },
            "cells": [asdict(cell) for cell in self.cells],
        }
        return json.dumps(payload, indent=2) + "\n"


def instance_seed(seed: int, m: int, phi: float, index: int) -> int:
    """Stable per-instance seed shared by every k and mode of a cell."""
    sequence = np.random.SeedSequence(
        (seed, m, int(round(phi * 1_000_000)), index)
    )
    return int(sequence.generate_state(1, np.uint64)[0])


def _sample_instances(config: ExperimentConfig, m: int, phi: float) -> list[Profile]:
    sigma = Ranking.identity(m)
    return [
        mallows_sample(
            MallowsParams(sigma, phi, config.n, instance_seed(config.seed, m, phi, i))
        )
        for i in range(config.instances)
    ]


def run_bench(config: ExperimentConfig, progress=None) -> ExperimentReport:
    """Run the grid; one record per (m, k, phi, mode) cell."""
    report = ExperimentReport(
        seed=config.seed,
        n=config.n,
        instances=config.instances,
        modes=config.modes,
        rng=RNG_ALGORITHM,
        version=__version__,
    )
    for m in config.ms:
        ks = config.resolve_ks(m)
        for phi in config.phis:
            profiles = _sample_instances(config, m, phi)
            for k in ks:
                optima: list[dict[str, int]] = [{} for _ in profiles]
                for mode in config.modes:
                    if mode != "dp" and k > 3:
                        continue  # no polynomial digraph beyond k = 3
                    cell = _run_cell(config, profiles, m, k, phi, mode, optima)
                    report.cells.append(cell)
                    if progress is not None:
                        progress(cell)
                for i, seen in enumerate(optima):
                    if len(set(seen.values())) > 1:
                        raise InternalCheckError(
                            f"solver modes disagree on instance {i} of cell "
                            f"(m={m}, k={k}, phi={phi}): {seen}"
                        )
    return report


def _run_cell(
    config: ExperimentConfig,
    profiles: list[Profile],
    m: int,
    k: int,
    phi: float,
    mode: str,
    optima: list[dict[str, int]],
) -> CellRecord:
    times: list[float] = []
    consensus: list[int] = []
    largest: list[int] = []
    values: list[int] = []
    timeouts = 0
    for i, profile in enumerate(profiles):
        # limit=1: one ranking plus the exact optimum count, in every mode
        started = time.perf_counter()
        result = solve(profile, k, mode, limit=1)
        elapsed = (time.perf_counter() - started) * 1000.0
        times.append(elapsed)
        consensus.append(result.count)
        largest.append(result.stats.largest_component)
        values.append(result.optimum)
        optima[i][mode] = result.optimum
        if config.timeout_s is not None and elapsed > config.timeout_s * 1000.0:
            timeouts += 1
    size = len(profiles)
    return CellRecord(
        m=m,
        k=k,
        phi=phi,
        mode=mode,
        avg_ms=sum(times) / size,
        max_ms=max(times),
        min_ms=min(times),
        avg_consensus=sum(consensus) / size,
        avg_largest_scc=sum(largest) / size,
        avg_optimum=sum(values) / size,
        timeouts=timeouts,
        instances=size,
    )
