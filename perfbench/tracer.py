"""Outside-in tracer for the `riskpool` layers.

The tracer records spans from the benchmark's side: it replaces every
module binding of each traced function with a wrapper, so a call made
through any module (``cli.convolve``, ``scenarios.convolve``, the
package's own re-export, ...) opens a span named after the function's home
layer.  Nothing inside ``src/`` changes.

Each span carries its id, the id of the span that was open when it started
(its parent), its start and end times, and the index of the request it
belongs to.  Spans stay in memory and are
written out once, at the end of the run; a layer's self time is its spans'
duration minus the time covered by their direct children.

Work counters (cells, covering pairs, profiles, samples, ...) are computed
from the traced calls' arguments and results, never from clocks, so two
traced runs of one workload give identical counters.

`numerics` is not wrapped: its helpers (`geq`, `close`, `format_value`, ...)
run once per table entry, so a span around each call would cost more than
the work it measures and bury the layers that call them.  Its time, and the
time of `generators`, is counted in the self time of the caller.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Home layer -> functions traced in it.  Every layer of the package except
# `numerics` (see above) and `generators` (input builders used by `verify`).
TRACED = {
    "convolution": ("convolve", "convolve_bruteforce", "harris_gap"),
    "lattice": ("is_increasing", "is_decreasing", "expectation", "up_closure"),
    "scenarios": ("production_table", "military_tables", "merger_table", "optimal_strategies"),
    "partition_game": (
        "expected_payoff", "check_dominance", "find_nash",
        "conditional_payoffs", "conditional_block_factors",
    ),
    "montecarlo": ("estimate_payoff", "estimate_convolution"),
    "cli": ("main",),
}


# Name of the pseudo-spans that cover the tracer's own counting.
COUNTING = "trace.counting"


class Tracer:
    """Span recorder with per-function work counters.

    `install` wraps every binding of every traced function in every loaded
    `riskpool` module and `uninstall` restores them.  `begin` marks the
    start of a request: its spans share the request's index, and counters
    are kept per request kind.
    """

    def __init__(self) -> None:
        # (span id, parent span id or -1, name, start, end, request index)
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self.kinds: dict[int, str] = {}
        self.request = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}
        # Distinct (game, profile, player) payoffs; the specs are kept alive
        # so that their ids stay unique for the whole run.
        self._payoffs_seen: set = set()
        self._specs: dict[int, object] = {}

    def begin(self, index: int, kind: str) -> None:
        self.request = index
        self.kinds[index] = kind

    # ------------------------------------------------------------ install

    def install(self) -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"riskpool.{layer}"]
            for name in names:
                fn = getattr(module, name)
                self._originals[id(fn)] = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self.check_installed()

    def check_installed(self) -> None:
        """Fail if any module still holds an unwrapped traced function."""
        for module in self._modules():
            for attr, value in vars(module).items():
                if id(value) in self._originals:
                    raise RuntimeError(
                        f"{module.__name__}.{attr} is an unwrapped traced function "
                        f"({self._originals[id(value)]})"
                    )

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "riskpool" or name.startswith("riskpool."))]

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.request))
            self._add(name, "calls", 1)
            if count is not None:
                # Counting runs outside the span; record its time as a child
                # of the caller so that the caller's self time excludes it.
                count(args, kwargs, out)
                cid = self._next_id
                self._next_id = cid + 1
                spans.append((cid, parent, COUNTING, end, clock(), self.request))
            return out

        return wrapper

    # ------------------------------------------------------------ counters

    def _add(self, name: str, counter: str, amount: float) -> None:
        self.counters[self.kinds[self.request]][f"{name}.{counter}"] += amount

    def _count_convolution_convolve(self, args, kwargs, out) -> None:
        self._add("convolution.convolve", "cells", 1 << out.ground.n)

    def _count_lattice_is_increasing(self, args, kwargs, out) -> None:
        n = (args[0] if args else kwargs["f"]).ground.n
        self._add("lattice.is_increasing", "pairs", n << (n - 1) if n else 0)

    def _payoff_seen(self, spec, profile, h: str) -> None:
        key = (id(spec), profile, h)
        if key not in self._payoffs_seen:
            self._payoffs_seen.add(key)
            self._specs[id(spec)] = spec
            self._add("partition_game", "distinct_payoffs", 1)
        self._add("partition_game", "payoff_evaluations", 1)

    def _count_partition_game_expected_payoff(self, args, kwargs, out) -> None:
        spec, profile, h = args
        self._payoff_seen(spec, profile, h)

    def _count_partition_game_find_nash(self, args, kwargs, out) -> None:
        from riskpool.partition_game import StrategyProfile

        spec = args[0]
        lists = [spec.strategies(h) for h in spec.suppliers]
        profiles = 0
        for combo in itertools.product(*lists):
            profiles += 1
            profile = StrategyProfile(combo)
            for h in spec.suppliers:
                self._payoff_seen(spec, profile, h)
        self._add("partition_game.find_nash", "profiles", profiles)

    def _count_cli_main(self, args, kwargs, out) -> None:
        argv = list(args[0] if args else kwargs["argv"])
        if "--config" in argv:
            path = Path(argv[argv.index("--config") + 1])
            self._add("cli.main", "config_bytes", path.stat().st_size)

    def _count_montecarlo_estimate_payoff(self, args, kwargs, out) -> None:
        self._add("montecarlo.estimate_payoff", "samples", out.samples)

    def _count_montecarlo_estimate_convolution(self, args, kwargs, out) -> None:
        self._add("montecarlo.estimate_convolution", "samples", out.samples)

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per request kind, per function: seconds of self time."""
        child = defaultdict(float)
        for sid, parent, name, start, end, request in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, parent, name, start, end, request in self.spans:
            out[self.kinds[request]][name] += (end - start) - child[sid]
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, request, kind."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([*span, self.kinds[span[5]]]) + "\n")
