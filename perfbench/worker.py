"""One workload in one process: closed-loop requests against `riskpool.cli.main`.

Started by `run.py`, which owns the command-line contract; this process
imports the package, generates the workload's inputs from the seed, runs
rounds of requests (one client: the next request starts when the previous
one returns) and prints one JSON line of results.

Untraced (``--trace 0``), it runs rounds until the measured time reaches
``--seconds`` and reports the end-to-end metrics.  Traced (``--trace 1``), it
runs two untraced rounds and one traced round of the same requests and
reports the per-layer metrics; the ratio of the traced round's wall time to
the second untraced round's is the tracer's overhead.  Outputs of every
round are checked by `gate.py` after the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from riskpool import cli  # noqa: E402
from tracer import COUNTING, TRACED, Tracer  # noqa: E402

OUT_DIR = HERE / "_out"


class Terminated(BaseException):
    """SIGTERM from the launcher; not caught by `call`, so the run unwinds."""


def _terminated(*_):
    raise Terminated


@dataclass(slots=True)
class Answer:
    """One executed request: its latency, exit code and outputs."""

    index: int
    seconds: float
    code: object
    stdout: str
    files: dict[str, bytes]


def call(argv: list[str]):
    """Run `riskpool.cli.main(argv)` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception: " + traceback.format_exc()
    return code, out.getvalue()


def run_round(requests: list[workloads.Request], outputs: dict,
              tracer: Tracer | None = None) -> list[Answer]:
    """One pass over the requests.

    Identical outputs of repeated requests are kept once, through `outputs`
    (digest -> output), so the benchmark's own memory does not grow with the
    number of rounds and distort `peak_rss_mb`.
    """
    answers = []
    for index, req in enumerate(requests):
        if tracer is not None:
            tracer.begin(index, req.kind)
        start = time.perf_counter()
        code, stdout = call(req.argv)
        seconds = time.perf_counter() - start
        files = {}
        if req.out_dir is not None:
            files = {p.name: p.read_bytes() for p in sorted(Path(req.out_dir).iterdir())}
            shutil.rmtree(req.out_dir)
        stdout = outputs.setdefault(gate.digest(stdout), stdout)
        files = {name: outputs.setdefault((name, gate.digest(data)), data)
                 for name, data in files.items()}
        answers.append(Answer(index, seconds, code, stdout, files))
    return answers


def check_answers(requests, answers, seed: int, workload: str) -> list[str]:
    """Failure messages, one per failed answer (empty when all pass)."""
    golden = gate.load_golden(workload) if seed == gate.DEFAULT_SEED else None
    if golden is not None and len(golden) != len(requests):
        return [f"golden record has {len(golden)} requests, workload has {len(requests)}"]
    passed: set = set()  # (index, digest of stdout and files) already checked
    failures = []
    for ans in answers:
        req = requests[ans.index]
        key = (ans.index, ans.code, gate.digest(ans.stdout),
               tuple((name, gate.digest(data)) for name, data in ans.files.items()))
        if key in passed:
            continue
        try:
            gate.check(req, ans.index, seed, ans.code, ans.stdout,
                       golden[ans.index] if golden is not None else None)
            if req.out_dir is not None:
                gate.check_out_dir(req, ans.stdout, ans.files)
        except (gate.Mismatch, ValueError, KeyError, TypeError) as exc:
            failures.append(f"request {ans.index} ({req.kind} {' '.join(req.argv[:2])}): "
                            f"{type(exc).__name__}: {exc}")
            continue
        passed.add(key)
    return failures


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with 10 samples above it."""
    if len(values) < 11:
        return None
    rank = len(values) - 11
    return 100 * (rank + 1) / len(values), sorted(values)[rank]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- untraced


def measure(requests, seconds: float):
    """Rounds of requests until their measured time reaches `seconds`."""
    rounds: list[list[Answer]] = []
    outputs: dict = {}
    spent = 0.0
    while spent < seconds:
        answers = run_round(requests, outputs)
        rounds.append(answers)
        spent += sum(a.seconds for a in answers)
    return rounds


def end_to_end(requests, rounds) -> tuple[dict, list[str]]:
    # exact_s and float_s are means over rounds: machine speed here drifts in
    # phases of tens of seconds, and a mean lets a run that straddles two
    # phases read in between instead of snapping to one of them.
    def mode_mean(mode):
        return sum(a.seconds for r in rounds for a in r
                   if requests[a.index].mode == mode) / len(rounds)

    latencies = [a.seconds for r in rounds for a in r]
    metrics = {
        "exact_s": metric(mode_mean("exact"), "s"),
        "float_s": metric(mode_mean("float"), "s"),
        "p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "rps": metric(len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    lines = [f"rounds: {len(rounds)}, requests: {len(latencies)}"]
    kinds = sorted({req.kind for req in requests})
    for kind in kinds:
        per_round = [sum(a.seconds for a in r if requests[a.index].kind == kind) for r in rounds]
        lines.append(f"{kind}_s: median {statistics.median(per_round):.4f} s "
                     f"per round, samples {len(per_round)}")
    found = tail(latencies)
    if found is not None:
        lines.append(f"tail_ms: p{found[0]:.1f} {found[1] * 1000:.3f} ms, samples {len(latencies)}")
    return metrics, lines


# ---------------------------------------------------------------- traced


def per_layer(tracer: Tracer, answers, untraced_s: float, traced_s: float, root: Path):
    counters: dict[str, float] = defaultdict(int)
    for per_kind in tracer.counters.values():
        for name, value in per_kind.items():
            counters[name] += value
    selfs: dict[str, float] = defaultdict(float)
    for per_kind in tracer.self_times().values():
        for name, value in per_kind.items():
            selfs[name] += value

    def calls(name):
        return metric(counters[f"{name}.calls"], "count")

    def self_s(name):
        return metric(selfs[name], "s")

    m: dict[str, dict] = {}
    for layer, names in TRACED.items():
        for fn in names:
            name = f"{layer}.{fn}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
    conv_calls = counters["convolution.convolve.calls"]
    m["convolution.convolve.self_s_per_call"] = metric(
        selfs["convolution.convolve"] / conv_calls if conv_calls else 0.0, "s")
    m["convolution.convolve.cells"] = metric(counters["convolution.convolve.cells"], "count")
    m["lattice.is_increasing.pairs"] = metric(counters["lattice.is_increasing.pairs"], "count")
    m["partition_game.find_nash.profiles"] = metric(
        counters["partition_game.find_nash.profiles"], "count")
    evaluations = counters["partition_game.payoff_evaluations"]
    m["partition_game.useful_ratio"] = metric(
        counters["partition_game.distinct_payoffs"] / evaluations if evaluations else 0.0, "ratio")
    m["montecarlo.estimate_payoff.samples"] = metric(
        counters["montecarlo.estimate_payoff.samples"], "count")
    m["montecarlo.estimate_convolution.samples"] = metric(
        counters["montecarlo.estimate_convolution.samples"], "count")
    m["cli.report_bytes"] = metric(sum(
        len(a.stdout.encode()) + sum(len(v) for v in a.files.values()) for a in answers), "bytes")
    m["cli.config_bytes"] = metric(counters["cli.main.config_bytes"], "bytes")
    m["trace.overhead_ratio"] = metric(traced_s / untraced_s, "ratio")
    m["trace.spans"] = metric(sum(1 for s in tracer.spans if s[2] != COUNTING), "count")
    m["repo.src_lines"] = metric(src_lines(root), "lines")
    return dict(sorted(m.items()))


def request_counters(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per request kind: every counter, for the human-readable trace summary."""
    return {kind: dict(sorted(c.items())) for kind, c in sorted(tracer.counters.items())}


def traced_run(requests, workload: str, seed: int, root: Path):
    """Two untraced rounds, then one traced round; returns answers, metrics, lines."""
    # The first round warms the allocator and numpy; the overhead ratio
    # compares two warm rounds.
    outputs: dict = {}
    untraced = run_round(requests, outputs)
    start = time.perf_counter()
    untraced += run_round(requests, outputs)
    untraced_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = run_round(requests, outputs, tracer)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, traced, untraced_s, traced_s, root)
    stem = OUT_DIR / f"trace-{workload}-seed{seed}"
    tracer.write(stem.with_suffix(".jsonl"))
    by_kind = request_counters(tracer)
    stem.with_suffix(".counters.json").write_text(json.dumps(by_kind, indent=1))
    lines = [f"spans and counters written to {os.path.relpath(stem, root)}.*"]
    for kind, counters in by_kind.items():
        lines.append(f"counters[{kind}]: " + ", ".join(f"{k}={v}" for k, v in counters.items()))
    return untraced + traced, metrics, lines


# ---------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True, help="checkout holding src/riskpool")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminated)
    root = Path(args.root)
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        requests = workloads.build(args.workload, args.seed, run_dir)
        if args.trace:
            answers, metrics, lines = traced_run(requests, args.workload, args.seed, root)
        else:
            rounds = measure(requests, args.seconds)
            answers = [a for r in rounds for a in r]
            metrics, lines = end_to_end(requests, rounds)
        failures = check_answers(requests, answers, args.seed, args.workload)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in lines:
        print(line)
    for failure in failures:
        print("FAILED " + failure)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(answers),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
