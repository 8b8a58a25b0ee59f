"""Output gate: decides whether each request's answer is right.

A request passes when it exits 0, its report says ``"verdict": "pass"``,
and the report matches its reference:

* On every seed, seeded spot checks recompute table entries from the
  generated inputs: with `convolve_bruteforce` for n <= 10 (exact tables on
  masks with small complements, which keep the oracle cheap), and with the
  benchmark's own double sum (`coupled_value`) for larger n.  Game payoffs are
  recomputed by enumerating every arrival pattern, and structural counts
  (profiles, ex-post comparisons, checks) are derived from the inputs.
* On the default seed, the report is also compared with the golden record
  made at the commit that introduced this benchmark: exact-mode reports must
  be byte-identical (by SHA-256), float-mode reports must agree entry by entry
  within `riskpool.numerics.REL_TOL` and `ABS_TOL`.

Nothing here runs inside the timed region.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from riskpool.convolution import convolve_bruteforce
from riskpool.lattice import CoinVector, GroundSet, SetFunction
from riskpool.numerics import ABS_TOL, REL_TOL

from workloads import Request, labels, subset_key

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)
SPOT_MASKS = 12
BRUTEFORCE_MAX_N = 10


class Mismatch(Exception):
    pass


def digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def close(x, y) -> bool:
    if _exact(x) and _exact(y):
        return x == y
    x, y = float(x), float(y)
    return abs(x - y) <= max(ABS_TOL, REL_TOL * max(abs(x), abs(y)))


def parse(raw):
    """A report scalar back to a number: "a/b" strings are exact."""
    return Fraction(raw) if isinstance(raw, str) else raw


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------- references


def coupled_value(f: list, g: list, p: list, coupled: int) -> float:
    """(f * g)(coupled) in floats by the defining double sum.

    Elements in `coupled` share one coin between the two sides; the others
    are tossed twice.  Grouping by the shared part A gives
    sum_A w(A) * E[f(A + B1)] * E[g(A + B2)] over the free parts B1, B2.
    """
    n = len(p)
    free = ((1 << n) - 1) ^ coupled
    shared_masks = [m for m in range(1 << n) if m & free == 0]
    free_masks = [m for m in range(1 << n) if m & coupled == 0]

    def weights(masks, within):
        out = np.ones(len(masks))
        for i in range(n):
            if within >> i & 1:
                bits = np.array([m >> i & 1 for m in masks], dtype=bool)
                out *= np.where(bits, float(p[i]), 1.0 - float(p[i]))
        return out

    ws = weights(shared_masks, coupled)
    wf = weights(free_masks, free)
    idx = np.array(shared_masks)[:, None] | np.array(free_masks)[None, :]
    fa = np.asarray(f, dtype=float)[idx] @ wf
    ga = np.asarray(g, dtype=float)[idx] @ wf
    return float(np.dot(ws, fa * ga))


def _spot_masks(rng: random.Random, n: int, exact: bool) -> list[int]:
    full = (1 << n) - 1
    if exact:
        # The brute-force oracle costs 2^n times 2^(free elements); keep the
        # complement small.
        masks = {full}
        for _ in range(SPOT_MASKS):
            drop = rng.sample(range(n), min(n, rng.randint(0, 3)))
            masks.add(full ^ sum(1 << i for i in drop))
        return sorted(masks)
    return sorted({0, full} | {rng.randrange(full + 1) for _ in range(SPOT_MASKS)})


def reference_value(f: list, g: list, p: list, mask: int):
    """(f * g)(mask): `convolve_bruteforce` up to its size cap, else `coupled_value`."""
    n = len(p)
    if n > BRUTEFORCE_MAX_N:
        return coupled_value(f, g, p, mask)
    ground = GroundSet(labels("x", n))
    return convolve_bruteforce(SetFunction(ground, f), SetFunction(ground, g),
                               CoinVector(ground, p), mask)


def game_payoffs(model: dict, blocks: dict[str, list[list[str]]]):
    """Every player's expected payoff under `blocks`, by enumerating arrivals."""
    hs, ks = model["suppliers"], model["commodities"]
    exact = isinstance(model["p"][0], Fraction)
    shipments = [(hi, block) for hi, h in enumerate(hs) for block in blocks[h]]
    totals = [Fraction(0) if exact else 0.0 for _ in hs]
    for bits in itertools.product((0, 1), repeat=len(shipments)):
        prob = Fraction(1) if exact else 1.0
        masks = dict.fromkeys(ks, 0)
        for (hi, block), bit in zip(shipments, bits):
            ph = model["p"][hi]
            prob *= ph if bit else 1 - ph
            if bit:
                for k in block:
                    masks[k] |= 1 << hi
        for hi in range(len(hs)):
            val = prob
            for ki, k in enumerate(ks):
                val *= model["tables"][ki][hi][masks[k]]
            totals[hi] += val
    return dict(zip(hs, totals))


def _blocks_of_key(key: str) -> dict[str, list[list[str]]]:
    # Inverse of the CLI's profile key "h0:k0,k1|k2;h1:...".
    out = {}
    for part in key.split(";"):
        owner, _, rest = part.partition(":")
        out[owner] = [b.split(",") for b in rest.split("|")] if rest else []
    return out


# ---------------------------------------------------------------- spot checks


def _walk(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _walk(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk(v)
    else:
        yield obj


def _check_tables(req: Request, report: dict, rng: random.Random) -> None:
    model = req.model
    n = model["n"]
    exact = req.mode == "exact"
    keys = [subset_key(model["names"], m) for m in range(1 << n)]
    masks = _spot_masks(rng, n, exact)
    for table_name, (f, g) in model["pairs"].items():
        table = report[table_name]
        expect(sorted(table) == sorted(keys), f"{table_name}: wrong subset keys")
        for mask in masks:
            got = parse(table[keys[mask]])
            want = reference_value(f, g, model["p"], mask)
            expect(close(got, want), f"{table_name}[{keys[mask]!r}] = {got}, reference {want}")
    if model["type"] == "military":
        for mask in masks:
            key = keys[mask]
            total = sum(parse(report[t][key]) for t in ("both_disabled", "neither_disabled",
                                                         "exactly_one"))
            expect(close(total, 1), f"outcome probabilities at {key!r} sum to {total}")
    if exact:
        expect(not any(isinstance(v, float) for v in _walk(report)), "float in an exact report")


def _check_game_analyze(req: Request, report: dict, rng: random.Random) -> None:
    model = req.model
    hs = model["suppliers"]
    supply = model["supply"]
    count = math.prod(BELL[len(supply[h])] for h in hs)
    expect(report["profile_count"] == count, f"profile_count {report['profile_count']} != {count}")
    expect(report["nash_contains_all_coarse"] is True, "all-coarse profile missing from Nash set")
    sweep = model["profile"] or {h: [[k] for k in supply[h]] for h in hs}
    nblocks = [len(sweep[h]) for h in hs]
    total = sum(nblocks)
    comparisons = sum(b * (b - 1) // 2 for b in nblocks) * (1 << max(total - 2, 0))
    expect(report["expost"]["checked"] == comparisons,
           f"ex-post sweep checked {report['expost']['checked']}, expected {comparisons}")
    if model["profile"] is not None:
        want = game_payoffs(model, model["profile"])
        for h in hs:
            got = parse(report["profile_payoffs"][h])
            expect(close(got, want[h]), f"profile payoff of {h}: {got} != {want[h]}")
    if "payoff_tables" in report:
        first = report["payoff_tables"][hs[0]]
        expect(len(first) == count, "payoff table does not cover every profile")
        for key in rng.sample(sorted(first), min(3, len(first))):
            want = game_payoffs(model, _blocks_of_key(key))
            for h in hs:
                got = parse(report["payoff_tables"][h][key])
                expect(close(got, want[h]), f"payoff of {h} at {key}: {got} != {want[h]}")
    if req.mode == "exact":
        expect(not any(isinstance(v, float) for v in _walk(report)), "float in an exact report")


def _check_game_simulate(req: Request, report: dict) -> None:
    model = req.model
    samples = int(req.argv[req.argv.index("--samples") + 1])
    want = game_payoffs(model, model["profile"])
    for h in model["suppliers"]:
        entry = report["per_player"][h]
        expect(entry["estimate"]["samples"] == samples, f"{h}: wrong sample count")
        expect(close(entry["exact"], want[h]), f"{h}: exact payoff {entry['exact']} != {want[h]}")
        expect(entry["within_4_stderr"] is True, f"{h}: estimate outside 4 standard errors")


VERIFY_CHECKS = (
    "monotone_exhaustive", "monotone_random", "oracle_equivalence",
    "single_element_identity", "scenario_properties", "game_dominance_nash",
    "expost_identity", "scaling_invariance", "montecarlo_consistency",
)


def _check_verify(report: dict) -> None:
    names = [c["name"] for c in report["checks"]]
    expect(names == list(VERIFY_CHECKS), f"verify ran {names}")
    expect(all(c["ok"] and c["instances"] > 0 for c in report["checks"]), "a verify check failed")


def spot_check(req: Request, report: dict, seed: int, index: int) -> None:
    rng = random.Random(f"gate:{seed}:{index}")
    kind = req.model["type"]
    if kind in ("convolution", "production", "merger", "military"):
        _check_tables(req, report, rng)
    elif kind == "game" and req.argv[:2] == ["game", "analyze"]:
        _check_game_analyze(req, report, rng)
    elif kind == "game":
        _check_game_simulate(req, report)
    else:
        _check_verify(report)


def check_out_dir(req: Request, stdout: str, files: dict[str, bytes]) -> None:
    """`--out` must hold the printed report and, with `--csv`, the table as CSV."""
    expect(files.get("report.json") == stdout.encode(), "report.json differs from stdout")
    if "--csv" not in req.argv:
        return
    table = json.loads(stdout)["table"]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["subset", "value"])
    for key in sorted(table):
        writer.writerow([key, table[key]])
    expect(files.get("convolution.csv") == buf.getvalue().encode(),
           "convolution.csv differs from the report")


# ---------------------------------------------------------------- golden


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load_golden(workload: str) -> list[dict]:
    with gzip.open(golden_path(workload), "rt") as fh:
        return json.load(fh)


def golden_entry(req: Request, stdout: str) -> dict:
    """What the golden record keeps of one default-seed answer."""
    if req.mode == "exact":
        return {"kind": req.kind, "sha256": digest(stdout)}
    return {"kind": req.kind, "report": json.loads(stdout)}


def _same(got, want, path: str) -> None:
    if isinstance(want, dict):
        expect(isinstance(got, dict) and sorted(got) == sorted(want), f"{path}: keys differ")
        for k in want:
            _same(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        expect(isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ")
        for i, (a, b) in enumerate(zip(got, want)):
            _same(a, b, f"{path}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        expect(isinstance(got, (int, float)) and not isinstance(got, bool) and close(got, want),
               f"{path}: {got!r} != {want!r}")
    else:
        expect(got == want, f"{path}: {got!r} != {want!r}")


def golden_check(entry: dict, req: Request, stdout: str) -> None:
    expect(entry["kind"] == req.kind, "golden record is for another request")
    if "sha256" in entry:
        expect(digest(stdout) == entry["sha256"], "exact report differs from the golden digest")
    else:
        _same(json.loads(stdout), entry["report"], "report")


# ---------------------------------------------------------------- verdict


def check(req: Request, index: int, seed: int, code, stdout: str, golden: dict | None) -> None:
    """Raise Mismatch unless the answer to `req` is right."""
    expect(code == 0, f"exit code {code}")
    report = json.loads(stdout)
    expect(report.get("verdict") == "pass", f"verdict {report.get('verdict')!r}")
    spot_check(req, report, seed, index)
    if golden is not None:
        golden_check(golden, req, stdout)
