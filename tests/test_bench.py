import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kwise_kemeny import (
    ExperimentConfig,
    MallowsParams,
    Ranking,
    enumerate_consensus,
    mallows_sample,
    run_bench,
)
from kwise_kemeny import solver
from kwise_kemeny.bench import CSV_HEADER, instance_seed, normalize_mode

TINY = ExperimentConfig(
    ms=(4, 5),
    ks=(2, 3, "m"),
    phis=(0.7,),
    n=8,
    instances=4,
    seed=3,
    modes=("dp", "pre", "pre-refined"),
)


def deterministic_rows(report):
    rows = []
    for cell in report.cells:
        rows.append(
            (cell.m, cell.k, cell.phi, cell.mode, cell.avg_consensus,
             cell.avg_largest_scc, cell.avg_optimum, cell.timeouts)
        )
    return rows


class TestConfig:
    def test_resolves_symbolic_k(self):
        assert TINY.resolve_ks(4) == [2, 3, 4]
        assert TINY.resolve_ks(3) == [2, 3]

    def test_drops_out_of_range_k(self):
        config = ExperimentConfig(ms=(5,), ks=(7, 2), phis=(0.5,))
        assert config.resolve_ks(5) == [2]

    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError):
            ExperimentConfig(ms=(), ks=(2,), phis=(0.5,))

    def test_mode_normalization(self):
        assert normalize_mode("pre-refined") == "pre-refined"
        for mode in ("fastest", "preprocessed", "preprocessed-refined"):
            with pytest.raises(ValueError, match="unknown solver mode"):
                normalize_mode(mode)
        with pytest.raises(ValueError, match="unknown solver mode"):
            ExperimentConfig(ms=(4,), ks=(2,), phis=(0.5,), modes=("preprocessed",))


class TestInstanceSeeds:
    def test_stable_and_distinct(self):
        assert instance_seed(0, 6, 0.5, 0) == instance_seed(0, 6, 0.5, 0)
        seeds = {instance_seed(0, 6, 0.5, i) for i in range(20)}
        assert len(seeds) == 20
        assert instance_seed(0, 6, 0.5, 0) != instance_seed(1, 6, 0.5, 0)


class TestRunBench:
    def test_grid_shape_and_mode_skipping(self):
        report = run_bench(TINY)
        cells = {(c.m, c.k, c.mode) for c in report.cells}
        # preprocessed modes only run where the digraph is polynomial (k <= 3)
        assert (4, 4, "dp") in cells
        assert (4, 4, "pre") not in cells
        assert (5, 5, "pre-refined") not in cells
        for k in (2, 3):
            for mode in TINY.modes:
                assert (4, k, mode) in cells
        assert len(report.cells) == 14

    def test_deterministic_under_seed(self):
        first = run_bench(TINY)
        second = run_bench(TINY)
        assert deterministic_rows(first) == deterministic_rows(second)
        assert first.to_csv().splitlines()[0] == CSV_HEADER

    def test_dp_consensus_counts_match_enumeration(self):
        config = ExperimentConfig(
            ms=(4,), ks=(3,), phis=(0.9,), n=6, instances=3, seed=8, modes=("dp",)
        )
        report = run_bench(config)
        cell = report.cells[0]
        counts = []
        for i in range(config.instances):
            profile = mallows_sample(
                MallowsParams(
                    Ranking.identity(4), 0.9, 6, instance_seed(8, 4, 0.9, i)
                )
            )
            counts.append(enumerate_consensus(profile, 3).count)
        assert cell.avg_consensus == pytest.approx(sum(counts) / len(counts))
        assert cell.avg_largest_scc == pytest.approx(4.0)

    def test_dp_cell_builds_one_table_per_instance(self, monkeypatch):
        built = []
        original = solver.build_dp_table

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "build_dp_table", counting)
        config = ExperimentConfig(
            ms=(5,), ks=(3,), phis=(0.8,), n=6, instances=3, seed=4, modes=("dp",)
        )
        run_bench(config)
        assert len(built) == config.instances

    def test_preprocessed_reports_component_size(self):
        config = ExperimentConfig(
            ms=(5,), ks=(3,), phis=(0.5,), n=10, instances=3, seed=1, modes=("pre",)
        )
        report = run_bench(config)
        cell = report.cells[0]
        assert 1.0 <= cell.avg_largest_scc <= 5.0

    def test_timeout_counter(self):
        config = ExperimentConfig(
            ms=(4,), ks=(2,), phis=(0.5,), n=5, instances=2, seed=0,
            modes=("dp",), timeout_s=0.0,
        )
        report = run_bench(config)
        assert report.cells[0].timeouts == 2

    def test_csv_and_json_round(self):
        report = run_bench(
            ExperimentConfig(ms=(4,), ks=(2,), phis=(0.5,), n=5, instances=2, seed=2)
        )
        csv_text = report.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        payload = json.loads(report.to_json())
        assert payload["metadata"]["rng"] == "numpy-PCG64"
        assert payload["metadata"]["seed"] == 2
        assert len(payload["cells"]) == 1
        assert payload["cells"][0]["instances"] == 2


TIMING = ("avg_ms", "max_ms", "min_ms")


def test_run_tables_script_is_deterministic(tmp_path):
    """``scripts/run_tables.py`` (the experiment-grid script) runs, writes
    its three reports, and repeats them under one seed up to the timings."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_tables.py"),
             "--instances", "1", "--seed", "4", "--out-dir", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        reports = {}
        for stem in ("runtime_grid", "preprocessing_grid"):
            lines = (out / f"{stem}.csv").read_text().splitlines()
            assert lines[0] == CSV_HEADER
            reports[stem] = [
                {key: value for key, value in row.items() if key not in TIMING}
                for row in csv.DictReader(lines)
            ]
        payload = json.loads((out / "preprocessing_grid.json").read_text())
        for cell in payload["cells"]:
            for key in TIMING:
                del cell[key]
        reports["json"] = payload
        runs.append(reports)
    assert runs[0]["runtime_grid"] and runs[0]["json"]["cells"]
    assert runs[0] == runs[1]
