"""Both workloads in one command: end-to-end and per-layer figures.

    python3 verify_bench/reference.py [--seeds 7,12,1,2,3,4,5,6,8,9] [--seconds 56]
                                      [--workload NAME ...] [--traced-runs 0]

For each workload it makes one `--trace 0` run per seed, then `--traced-runs`
`--trace 1` runs at the first seed.  It prints every run's operations
attempted and failed, then a Markdown table with each metric's unit, median,
first and third quartile over the runs (Python's statistics.quantiles, n=4)
and the spread (q3 - q1) / median.  `--seeds 7 --traced-runs 1` is a quick
look at everything (about 4 minutes); the defaults give the README's tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH_DIR.parent, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']}, "
          f"attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7,12,1,2,3,4,5,6,8,9")
    parser.add_argument("--seconds", default="56")
    parser.add_argument("--workload", action="append", default=None,
                        help="default: both workloads")
    parser.add_argument("--traced-runs", type=int, default=0)
    args = parser.parse_args()
    workloads = args.workload or ["verify-default", "verify-fock128"]
    seeds = [int(s) for s in args.seeds.split(",")]

    rows = []
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        runs = ([(seed, 0) for seed in seeds]
                + [(seeds[0], 1) for _ in range(args.traced_runs)])
        for seed, trace in runs:
            for name, metric in run_once(workload, seed, args.seconds, trace)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, vals in values.items():
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            rows.append(f"| {workload} | {name} | {units[name]} | {med:.4g} | {q1:.4g} "
                        f"| {q3:.4g} | {spread:.3f} |")
    print("| workload | metric | unit | median | q1 | q3 | (q3-q1)/median |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
