"""Repeat the benchmark over seeds and summarise each metric's spread.

Run from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --seconds 30 [--out perfbench/baseline.json]
                                  [workload ...]

For every workload it makes `--runs` untraced runs on seeds 1, 2, ... and one
traced run on seed 0.  For each end-to-end metric it reports the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread: the distance
between the quartiles as a share of the median.  With `--out` it writes the
summary and every run's figures as JSON; that file is the baseline later
changes compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["seed"] = seed
    result["wall_s"] = time.perf_counter() - start
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report: dict = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                               f"{platform.python_implementation()} {platform.python_version()}",
                    "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            result = run(workload, seed, args.seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed, "
                  f"wall {result['wall_s']:.1f} s, "
                  + ", ".join(f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()),
                  flush=True)
        metrics = {name: {"unit": runs[0]["metrics"][name]["unit"],
                          **summary([r["metrics"][name]["value"] for r in runs])}
                   for name in runs[0]["metrics"]}
        for name, s in metrics.items():
            print(f"{workload} {name}: median {s['median']:.5g} {s['unit']}, "
                  f"quartiles {s['q1']:.5g}..{s['q3']:.5g}, spread {s['spread']:.4f}", flush=True)
        traced = run(workload, 0, args.seconds, 1)
        report["workloads"][workload] = {
            "metrics": metrics,
            "runs": runs,
            "trace": {"wall_s": traced["wall_s"],
                      "metrics": {k: m["value"] for k, m in traced["metrics"].items()}},
        }
        print(f"{workload} traced: overhead ratio "
              f"{traced['metrics']['trace.overhead_ratio']['value']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
