"""Smoke test of the benchmark at tiny size; it asserts no timing.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run as bench  # noqa: E402

def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_untraced_and_traced(workload):
    plain = result_of(run_bench(workload, 0))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [name for name, _, _ in bench.END_TO_END]

    traced = [result_of(run_bench(workload, 1)) for _ in range(2)]
    for result in traced:
        assert result["correct"]
        assert list(result["metrics"]) == [name for name, _, _, _ in bench.PER_LAYER]
    first, second = (r["metrics"] for r in traced)
    for name in first:
        if name.endswith(".calls"):
            assert first[name]["value"] == second[name]["value"], name
    if workload == "run":
        assert first["inference.request_completion.calls"]["value"] > 0
    if workload == "score":
        assert first["extraction.parse_output.calls"]["value"] > 0


def test_generator_is_byte_identical(tmp_path):
    for workload in sorted(gen.GENERATORS):
        gen.generate(workload, 5, tmp_path / "a" / workload, "tiny")
        gen.generate(workload, 5, tmp_path / "b" / workload, "tiny")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("score", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in bench.PER_LAYER
    ]
