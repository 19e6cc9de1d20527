"""Run every workload over several seeds; optionally write the medians as a baseline.

    python3 bench/baseline.py --seeds 1                                     # all three workloads once
    python3 bench/baseline.py --seeds 101-110 --out bench/BASELINE.json     # the committed baseline

Runs every workload once per seed with ``--trace 0`` and once, on the first
seed, with ``--trace 1``; each run is its own process, as the benchmark
expects, and its metric lines are printed as it ends. Any run that fails or
reports incorrect outputs stops it with exit code 1. With ``--out`` it
writes, for each end-to-end metric, the median, the quartiles and their
distance as a share of the median, and the traced runs' per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed (exit {proc.returncode}):\n{proc.stderr}")
    return result


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"), help="e.g. 101-110")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, default=None, help="where to write the baseline JSON")
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in args.seeds:
        for workload in WORKLOADS:
            runs[workload].append(run_once(workload, seed, args.seconds, 0))
    document = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload, results in runs.items():
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}
        document["end_to_end"][workload] = summary
        traced = run_once(workload, args.seeds[0], args.seconds, 1)
        document["per_layer"][workload] = {name: m["value"] for name, m in traced["metrics"].items()}
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
