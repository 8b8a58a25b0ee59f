"""Benchmark entry point for riskpool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_tables --seed 0 --seconds 30 --trace 0

Workloads are defined in `workloads.py`.  The launcher pins BLAS and OpenMP
to one thread, measures set-up time (``setup_s``: a fresh interpreter
importing `riskpool.cli`, median of several), then runs the workload in its
own worker process so that memory and timings belong to that workload
alone.  Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is 0 only when every request's
output passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170

# One thread for every numeric library, so a run uses one core, and a fixed
# hash seed, so string hashing (and so dict and set layout) repeats between runs.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import riskpool.cli\n"
    "print(time.perf_counter() - t)\n"
)


def environment(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(env: dict[str, str]) -> list[float]:
    """Import times of `riskpool.cli` in fresh interpreters.

    One unmeasured import first writes the bytecode caches, which a user
    pays once per checkout, not on every invocation.
    """
    times = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        if i:
            times.append(float(out.strip().splitlines()[-1]))
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="riskpool benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "riskpool" / "cli.py").is_file():
        print(f"error: no riskpool sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = environment(root)
    setup = None if args.trace else setup_seconds(env)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root)]
    # A terminated launcher still stops and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 3
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if setup is not None:
        print(f"setup_s: median {statistics.median(setup):.4f} s, samples {len(setup)}")
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **result["metrics"]}
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ratio {result['failed'] / result['attempted']:g}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
