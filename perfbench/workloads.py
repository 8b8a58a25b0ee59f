"""Seeded inputs for the three benchmark workloads.

Every request is a `riskpool` command line plus the config file it reads.
The configs are generated here from the workload seed with the benchmark's
own code (nothing from `riskpool` is used), written to the run directory,
and the program sees only those files.  Each request also carries the
inputs in plain Python form (`model`), which the output gate uses to
recompute reference values.

Workloads, and why each exists:

* ``dense_tables``: a few requests on 2^9..2^13-entry tables.  The 3^n
  convolution kernel does most of the work and the covering-pair checks and
  the serialization of the big reports do the rest, so this is where a faster
  kernel has to show its gain and where the checks become the bottleneck
  after it.
* ``game_exhaustive``: exhaustive partition-game analysis on games above the
  512-profile payoff-table cap, plus a 10^6-sample simulation.  The game and
  Monte Carlo layers do nearly all the work and the convolution layer none,
  so a kernel change must show no change here.
* ``small_requests``: a stream of a few hundred small requests mixing every
  subcommand and both numeric modes, ending with one ``verify``.  The same
  layers pay a fixed cost per call instead of a cost per table entry, so a
  change that wins on big tables but adds set-up per call shows up here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Sizes of the heavy requests.  On a 2-core machine a 30-second run then
# holds about six rounds of `dense_tables` and two of `game_exhaustive`.
DENSE_FLOAT_N = 13
DENSE_EXACT_N = 9
DENSE_SCENARIO_FLOAT_N = 12
SIMULATE_SAMPLES = 1_000_000


@dataclass
class Request:
    """One CLI invocation: `argv` for `riskpool.cli.main` and its check data.

    `kind` names the timing group (for example ``convolve_float``), `mode`
    is the numeric mode the config asks for, and `model` holds the generated
    inputs the output gate needs.  `out_dir` is set when the request writes
    `report.json` (and CSV tables) with ``--out``.
    """

    kind: str
    mode: str
    argv: list[str]
    model: dict
    out_dir: str | None = None


def labels(prefix: str, n: int) -> list[str]:
    # Zero-padded so that the CLI's sorted subset keys follow bit order.
    return [f"{prefix}{i:02d}" for i in range(n)]


def subset_key(names: list[str], mask: int) -> str:
    return ",".join(names[i] for i in range(len(names)) if mask >> i & 1)


def zeta(weights: list) -> list:
    """Subset-sum transform: t[S] = sum of weights over subsets of S."""
    tab = list(weights)
    size = len(tab)
    bit = 1
    while bit < size:
        for mask in range(size):
            if mask & bit:
                tab[mask] = tab[mask] + tab[mask ^ bit]
        bit <<= 1
    return tab


def increasing_table(rng: random.Random, n: int, density: float) -> list[int]:
    """Nonnegative increasing integer table from sparse nonnegative weights."""
    weights = [0] * (1 << n)
    weights[0] = rng.randint(0, 3)
    for mask in range(1, 1 << n):
        if rng.random() < density:
            weights[mask] = rng.randint(1, 4)
    return zeta(weights)


def coin(rng: random.Random, exact: bool):
    """A probability strictly inside (0, 1).

    Exact coins are odd multiples of 1/16, so every seed gives rationals of
    the same size and exact-mode work does not depend on the seed.
    """
    if exact:
        return Fraction(rng.randrange(1, 16, 2), 16)
    return round(rng.uniform(0.05, 0.95), 6)


def jsonable(v):
    return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v


def _coins(rng: random.Random, names: list[str], exact: bool) -> tuple[list, dict]:
    ps = [coin(rng, exact) for _ in names]
    return ps, {h: jsonable(v) for h, v in zip(names, ps)}


def _table_json(names: list[str], values: list) -> dict:
    return {subset_key(names, m): jsonable(v) for m, v in enumerate(values)}


# ---------------------------------------------------------------- requests


def convolve_request(rng: random.Random, n: int, exact: bool, density: float) -> tuple[dict, dict]:
    names = labels("e", n)
    ps, pj = _coins(rng, names, exact)
    f = increasing_table(rng, n, density)
    g = increasing_table(rng, n, density)
    cfg = {
        "kind": "convolution",
        "mode": "exact" if exact else "float",
        "ground": names,
        "p": pj,
        "f": {"table": _table_json(names, f)},
        "g": {"table": _table_json(names, g)},
    }
    model = {"type": "convolution", "names": names, "n": n, "p": ps, "pairs": {"table": (f, g)}}
    return cfg, model


def production_request(rng: random.Random, n: int, exact: bool) -> tuple[dict, dict]:
    names = labels("s", n)
    ps, pj = _coins(rng, names, exact)
    if exact:
        x = [rng.randint(0, 4) for _ in names]
        y = [rng.randint(0, 4) for _ in names]
        alpha, beta = rng.randint(1, 2), rng.randint(1, 2)
    else:
        x = [round(rng.uniform(0.0, 5.0), 3) for _ in names]
        y = [round(rng.uniform(0.0, 5.0), 3) for _ in names]
        alpha, beta = rng.choice((0.5, 0.75, 1.5)), rng.choice((0.5, 1.25, 2.0))
    cfg = {
        "kind": "production",
        "mode": "exact" if exact else "float",
        "suppliers": names,
        "p": pj,
        "x": dict(zip(names, x)),
        "y": dict(zip(names, y)),
        "alpha": alpha,
        "beta": beta,
    }

    def output(amounts, expo):
        return [0 if t == 0 else (t ** expo if exact else float(t) ** float(expo))
                for t in _additive(amounts)]

    model = {
        "type": "production",
        "names": names,
        "n": n,
        "p": ps,
        "pairs": {"payoffs": (output(x, alpha), output(y, beta))},
    }
    return cfg, model


def _additive(amounts: list) -> list:
    totals = [0] * (1 << len(amounts))
    for mask in range(1, len(totals)):
        low = mask & -mask
        totals[mask] = totals[mask ^ low] + amounts[low.bit_length() - 1]
    return totals


def merger_request(rng: random.Random, n: int, exact: bool) -> tuple[dict, dict]:
    names = labels("v", n)
    ps, pj = _coins(rng, names, exact)
    rules = []
    cfg_rules = []
    for _ in range(2):
        w = [rng.randint(1, 6) for _ in names]
        quota = rng.randint(1, sum(w))
        rules.append([int(t >= quota) for t in _additive(w)])
        cfg_rules.append({"weights": dict(zip(names, w)), "quota": quota})
    cfg = {
        "kind": "merger",
        "mode": "exact" if exact else "float",
        "shareholders": names,
        "p": pj,
        "a": cfg_rules[0],
        "b": cfg_rules[1],
    }
    model = {"type": "merger", "names": names, "n": n, "p": ps,
             "pairs": {"approval_probability": tuple(rules)}}
    return cfg, model


def _up_closed(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    seeds = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, max(1, n - 1))
        seeds.append(sum(1 << i for i in rng.sample(range(n), size)))
    member = [0] * (1 << n)
    for mask in range(1 << n):
        member[mask] = int(any(mask & s == s for s in seeds))
    return seeds, member


def military_request(rng: random.Random, n: int, exact: bool) -> tuple[dict, dict]:
    names = labels("t", n)
    ps, pj = _coins(rng, names, exact)
    red_seeds, red = _up_closed(rng, n)
    blue_seeds, blue = _up_closed(rng, n)

    def seeds_json(seeds):
        return {"seeds": [[names[i] for i in range(n) if s >> i & 1] for s in seeds]}

    cfg = {
        "kind": "military",
        "mode": "exact" if exact else "float",
        "sites": names,
        "p": pj,
        "red": seeds_json(red_seeds),
        "blue": seeds_json(blue_seeds),
    }
    model = {
        "type": "military",
        "names": names,
        "n": n,
        "p": ps,
        "pairs": {
            "both_disabled": (red, blue),
            "neither_disabled": ([1 - v for v in red], [1 - v for v in blue]),
        },
    }
    return cfg, model


def game_request(
    rng: random.Random,
    suppliers: int,
    commodities: int,
    exact: bool,
    symmetric: bool,
    own_all: bool,
    profile: str | None,
) -> tuple[dict, dict]:
    """A partition game; `profile` is None, "finest" or "random".

    Without `own_all`, every second supplier owns all but the last
    commodity, so supply sizes (and the work) do not depend on the seed.
    """
    hs = [f"h{i}" for i in range(suppliers)]
    ks = [f"k{i}" for i in range(commodities)]
    ps, pj = _coins(rng, hs, exact)
    supply = {h: ks if own_all or i % 2 == 0 else ks[:max(1, commodities - 1)]
              for i, h in enumerate(hs)}

    def factor() -> list:
        # Increasing and strictly positive: a positive constant plus
        # nonnegative weights on the nonempty supplier subsets.
        weights = [rng.randint(1, 3)] + [
            rng.randint(0, 3) for _ in range((1 << suppliers) - 1)
        ]
        return zeta(weights)

    payoffs_cfg: dict = {}
    tables: list[list[list]] = []  # tables[k][h]
    for k in ks:
        if symmetric:
            t = factor()
            payoffs_cfg[k] = {"table": _table_json(hs, t)}
            tables.append([t] * suppliers)
        else:
            row = [factor() for _ in hs]
            payoffs_cfg[k] = {h: {"table": _table_json(hs, t)} for h, t in zip(hs, row)}
            tables.append(row)
    cfg = {
        "kind": "game",
        "mode": "exact" if exact else "float",
        "commodities": ks,
        "suppliers": hs,
        "p": pj,
        "supply": supply,
        "payoffs": payoffs_cfg,
    }
    blocks = None
    if profile == "finest":
        blocks = {h: [[k] for k in supply[h]] for h in hs}
    elif profile == "random":
        blocks = {h: _random_blocks(rng, supply[h]) for h in hs}
    if blocks is not None:
        cfg["profile"] = blocks
    model = {
        "type": "game",
        "suppliers": hs,
        "commodities": ks,
        "supply": supply,
        "p": ps,
        "tables": tables,
        "profile": blocks,
    }
    return cfg, model


def _random_blocks(rng: random.Random, owned: list[str]) -> list[list[str]]:
    blocks: list[list[str]] = []
    for k in owned:
        slot = rng.randrange(len(blocks) + 1)
        if slot == len(blocks):
            blocks.append([k])
        else:
            blocks[slot].append(k)
    return blocks


# ---------------------------------------------------------------- workloads


class _Builder:
    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.requests: list[Request] = []

    def add(self, kind: str, command: list[str], cfg: dict | None, model: dict,
            extra: list[str] = (), out: bool = False) -> None:
        idx = len(self.requests)
        argv = list(command)
        if cfg is not None:
            path = self.run_dir / f"r{idx:04d}.json"
            path.write_text(json.dumps(cfg))
            argv += ["--config", str(path)]
        out_dir = None
        if out:
            out_dir = str(self.run_dir / f"out{idx:04d}")
            argv += ["--out", out_dir]
        argv += list(extra)
        mode = cfg.get("mode", "float") if cfg else "exact"
        self.requests.append(Request(kind, mode, argv, model, out_dir))


def dense_tables(rng: random.Random, b: _Builder) -> None:
    cfg, model = convolve_request(rng, DENSE_FLOAT_N, exact=False, density=0.02)
    b.add("convolve_float", ["convolve"], cfg, model, ["--csv"], out=True)
    cfg, model = convolve_request(rng, DENSE_EXACT_N, exact=True, density=0.05)
    b.add("convolve_exact", ["convolve"], cfg, model)
    cfg, model = production_request(rng, DENSE_SCENARIO_FLOAT_N, exact=False)
    b.add("scenario_float", ["scenario"], cfg, model)
    cfg, model = merger_request(rng, DENSE_SCENARIO_FLOAT_N, exact=False)
    b.add("scenario_float", ["scenario"], cfg, model)
    cfg, model = military_request(rng, DENSE_EXACT_N, exact=True)
    b.add("scenario_exact", ["scenario"], cfg, model)


def game_exhaustive(rng: random.Random, b: _Builder) -> None:
    # 3 suppliers owning 4 commodities each: 15^3 = 3,375 profiles, and the
    # finest profile is given so the ex-post sweep covers 12 blocks.
    cfg, model = game_request(rng, 3, 4, exact=True, symmetric=False, own_all=True,
                              profile="finest")
    b.add("analyze_exact", ["game", "analyze"], cfg, model)
    # 4 suppliers owning 3 commodities each: 5^4 = 625 profiles.
    cfg, model = game_request(rng, 4, 3, exact=False, symmetric=True, own_all=True,
                              profile="finest")
    b.add("analyze_float", ["game", "analyze"], cfg, model)
    b.add("simulate", ["game", "simulate"], cfg, model,
          ["--samples", str(SIMULATE_SAMPLES), "--seed", str(rng.randrange(1 << 30))])


def small_requests(rng: random.Random, b: _Builder) -> None:
    # A fixed mix of sizes and modes in seeded order; the seed draws only the
    # values, so every seed asks for the same amount of work.
    jobs = []
    for exact, top in ((False, 8), (True, 6)):
        for n in range(1, top + 1):
            jobs += [("convolve", exact, n)] * 5
            jobs += [(make, exact, n) for make in (production_request, merger_request,
                                                   military_request)] * 2
    for s in range(1, 4):
        for c in range(1, 4):
            for exact in (False, True):
                for profile in (None, "finest", "random"):
                    jobs.append(("analyze", exact, (s, c, profile)))
    jobs += [("simulate", exact, None) for exact in (False, True) for _ in range(6)]
    rng.shuffle(jobs)
    for what, exact, size in jobs:
        if what == "convolve":
            cfg, model = convolve_request(rng, size, exact, 0.3)
            b.add("small_convolve", ["convolve"], cfg, model)
        elif what == "analyze":
            s, c, profile = size
            cfg, model = game_request(rng, s, c, exact, symmetric=rng.random() < 0.5,
                                      own_all=(s + c) % 2 == 0, profile=profile)
            b.add("small_analyze", ["game", "analyze"], cfg, model)
        elif what == "simulate":
            cfg, model = game_request(rng, 3, 3, exact, symmetric=rng.random() < 0.5,
                                      own_all=True, profile="random")
            b.add("small_simulate", ["game", "simulate"], cfg, model,
                  ["--samples", "5000", "--seed", str(rng.randrange(1 << 30))])
        else:
            cfg, model = what(rng, size, exact)
            b.add("small_scenario", ["scenario"], cfg, model)
    b.add("verify", ["verify"], None, {"type": "verify"})


WORKLOADS = {
    "dense_tables": dense_tables,
    "game_exhaustive": game_exhaustive,
    "small_requests": small_requests,
}


def build(workload: str, seed: int, run_dir: Path) -> list[Request]:
    """Write the workload's configs under `run_dir`; return one round of requests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    run_dir.mkdir(parents=True, exist_ok=True)
    b = _Builder(run_dir)
    WORKLOADS[workload](random.Random(f"{workload}:{seed}"), b)
    return b.requests
