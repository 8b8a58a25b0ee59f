"""Self-test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selftest.py [workload ...]

It asserts that
* a run prints exactly the metrics `BENCHMARK.json` declares, with their units;
* the tracer refuses to run while a module still holds an unwrapped traced
  function;
* two traced runs of each workload give identical counters, overall and per
  request kind;
* on ``game_exhaustive``, the exact 3 x 4 game shows 10,128 ``expected_payoff``
  calls, 3,375 profiles in ``find_nash`` and two ``conditional_block_factors``
  calls per ``conditional_payoffs`` call;
* the benchmark exits non-zero, printing no result, in a directory that holds
  only `BENCHMARK.json` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

COUNT_UNITS = ("count", "bytes", "lines")


def bench_run(workload: str, trace: int) -> dict:
    """One run on seed 0; its metrics must be exactly those BENCHMARK.json names."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in spec}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared, f"printed {printed}, declared {declared}"
    return result["metrics"]


def traced_run(workload: str) -> tuple[dict, dict]:
    metrics = bench_run(workload, 1)
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS}
    by_kind = json.loads((HERE / "_out" / f"trace-{workload}-seed0.counters.json").read_text())
    return counts, by_kind


def check_unwrapped_binding_is_refused() -> None:
    import riskpool.cli  # noqa: F401  (loads every layer)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        module = sys.modules["riskpool.scenarios"]
        wrapper = module.convolve
        module.convolve = wrapper.__wrapped__
        try:
            tracer.check_installed()
        except RuntimeError:
            pass
        else:
            raise AssertionError("an unwrapped convolve binding went unnoticed")
        finally:
            module.convolve = wrapper
    finally:
        tracer.uninstall()


def check_counters_repeat(workload: str) -> None:
    first, first_kinds = traced_run(workload)
    second, second_kinds = traced_run(workload)
    assert first == second, f"{workload}: counters differ between traced runs"
    assert first_kinds == second_kinds, f"{workload}: per-request counters differ"
    if workload == "game_exhaustive":
        game = first_kinds["analyze_exact"]
        assert game["partition_game.expected_payoff.calls"] == 10_128, game
        assert game["partition_game.find_nash.profiles"] == 3_375, game
        assert (game["partition_game.conditional_block_factors.calls"]
                == 2 * game["partition_game.conditional_payoffs.calls"]), game


def check_refuses_without_sources() -> None:
    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "dense_tables", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "the benchmark ran without the program's sources"
    assert not proc.stdout.strip(), f"printed a result without sources: {proc.stdout!r}"


def main() -> int:
    from workloads import WORKLOADS

    check_unwrapped_binding_is_refused()
    check_refuses_without_sources()
    bench_run("dense_tables", 0)
    for workload in sys.argv[1:] or WORKLOADS:
        check_counters_repeat(workload)
        print(f"{workload}: counters repeat")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
