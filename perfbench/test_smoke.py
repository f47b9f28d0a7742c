"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced on tiny inputs and checks that each
metric named in BENCHMARK.json is emitted with its unit, that a second run
with the same seed sees identical inputs and outputs, that traced spans nest
inside their parents with non-negative self times, and that the benchmark
refuses to run where the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(tmp_path: Path, workload: str, trace: int, tag: str = "", cwd: Path = ROOT):
    record = tmp_path / f"{workload}-{trace}{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
         "--record", str(record)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, record


def result_of(proc, record: Path) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    return last, json.loads(record.read_text())


def check_metrics(emitted: dict, declared: list[dict]) -> None:
    assert set(emitted) == {m["name"] for m in declared}
    for metric in declared:
        value = emitted[metric["name"]]
        assert value["unit"] == metric["unit"], metric["name"]
        assert isinstance(value["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_runs_repeat(tmp_path, workload):
    last, record = result_of(*run(tmp_path, workload, 0))
    check_metrics(last["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in last["metrics"].values())
    _, again = result_of(*run(tmp_path, workload, 0, tag="-again"))
    assert again["inputs_sha256"] == record["inputs_sha256"]
    assert again["outputs_sha256"] == record["outputs_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_nests_spans(tmp_path, workload):
    last, record = result_of(*run(tmp_path, workload, 1))
    check_metrics(last["metrics"], SPEC["per_layer"])
    assert record["missing"] == []
    assert record["nesting"]["spans"] > 0
    assert record["nesting"]["outside_parent"] == 0
    assert record["nesting"]["min_self_ms"] >= 0


def test_benchmark_json_matches_layer_table():
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    table = {name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()}
    assert declared == table
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run(tmp_path, "dp-m18", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
