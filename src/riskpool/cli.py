"""Batch command-line front-end.

Subcommands: `convolve`, `scenario`, `game analyze`, `game simulate`, and
`verify`.  Configs and reports are UTF-8 JSON, and no object in a config
may repeat a key; subset tables are keyed by comma-joined sorted element
names ("" for the empty set) so reports do not depend on label order.
Exact mode serializes rationals as "num/den" strings and rejects float
literals in configs.

Exit codes: 0 all verdicts pass, 1 a property violation was found (the
report carries a counterexample certificate), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import generators
from .convolution import _convolve_rows, convolve, convolve_bruteforce, harris_gap, partition_expectation
from .lattice import (
    CoinVector,
    GroundSet,
    SetFunction,
    _increasing_rows,
    all_monotone_indicators,
    expectation,
    from_moebius_weights,
    is_decreasing,
    is_increasing,
    random_increasing,
    up_closure,
)
from .montecarlo import estimate_convolution, estimate_payoff
from .numerics import Value, close, close_array, format_value, geq, geq_array, parse_value
from .partition_game import (
    GameSpec,
    StrategyProfile,
    best_replies,
    check_dominance,
    conditional_block_factors,
    conditional_block_rows,
    conditional_payoffs,
    expected_payoff,
    find_nash,
    scaled_spec,
)
from .scenarios import (
    MergerScenario,
    MilitaryScenario,
    TwoInputProduction,
    merger_table,
    military_tables,
    optimal_strategies,
    production_table,
    weighted_voting,
)

GAME_TABLE_CAP = 512
EXPOST_BLOCK_CAP = 16
# Set-function forms; a per-supplier payoff object is told apart from them
# by its keys, so no supplier may take one of these names.
FORMS = ("table", "weights", "constant")
# Report keys join names with these: "," in subset keys, "|", ";" and ":" in
# profile keys.
SEPARATORS = ",|;:"


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------- parsing


def _mask_key(ground: GroundSet, mask: int) -> str:
    return ",".join(sorted(ground.labels_of(mask)))


def _subset_keys(ground: GroundSet) -> list[str]:
    """_mask_key of every mask, indexed by mask: built by doubling over the
    labels in sorted order, so each key is its labels joined in that order."""
    keys, masks = [""], [0]
    for lab in sorted(ground.labels):
        bit = 1 << ground.index(lab)
        keys += [k + "," + lab for k in keys]
        masks += [m | bit for m in masks]
    placed = [""] * len(keys)
    for m, k in zip(masks, keys):
        placed[m] = k[1:]
    return placed


def _table_json(fn: SetFunction, keys: Sequence[str]) -> dict[str, object]:
    """fn keyed by subset; keys are its ground set's _subset_keys."""
    return dict(zip(keys, map(format_value, fn.values)))


def _parse_key(ground: GroundSet, key: str, path: str) -> int:
    labels = [] if key == "" else key.split(",")
    try:
        return ground.mask_of(labels)
    except ValueError as exc:
        raise ConfigError(f"{path}: bad subset key {key!r}: {exc}") from None


def _value(raw: object, mode: str, path: str) -> Value:
    try:
        v = parse_value(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if mode == "exact":
        if isinstance(v, float):
            raise ConfigError(
                f"{path}: float literal {raw!r} is not allowed in exact mode; "
                'use an integer or a rational string like "3/4"'
            )
        return v
    try:
        return float(v)
    except OverflowError:
        raise ConfigError(f"{path}: value beyond float range in float mode") from None


def _names(cfg: Mapping, field: str, reserved: Sequence[str] = ()) -> list[str]:
    """The names listed under `field`; each must give report keys one meaning."""
    names = cfg.get(field)
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ConfigError(f"{field}: expected a list of element names")
    for name in names:
        if not name:
            raise ConfigError(f"{field}: name '' is empty")
        bad = [c for c in SEPARATORS if c in name]
        if bad:
            raise ConfigError(
                f"{field}: name {name!r} holds {bad[0]!r}, which separates names in report keys"
            )
        if name in reserved:
            raise ConfigError(f"{field}: name {name!r} is reserved for a set-function form")
    return names


def _ground(cfg: Mapping, field: str, limit: int | None, reserved: Sequence[str] = ()) -> GroundSet:
    try:
        ground = GroundSet(_names(cfg, field, reserved))
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from None
    if limit is not None and ground.n > limit:
        raise ConfigError(
            f"ground set has {ground.n} elements, above the --max-ground limit {limit}"
        )
    return ground


def _per_element(obj: object, ground: GroundSet, mode: str, path: str, what: str) -> tuple[Value, ...]:
    """The values of an object keyed by element names, in ground-set order."""
    if not isinstance(obj, dict) or set(obj) != set(ground.labels):
        raise ConfigError(f"{path}: must give exactly one {what} per element")
    return tuple(_value(obj[h], mode, f"{path}.{h}") for h in ground.labels)


def _coins(cfg: Mapping, ground: GroundSet, mode: str) -> CoinVector:
    try:
        return CoinVector(ground, _per_element(cfg.get("p"), ground, mode, "p", "probability"))
    except ValueError as exc:
        raise ConfigError(f"p: {exc}") from None


def _setfunction(obj: object, ground: GroundSet, mode: str, path: str, keys: Sequence[str]) -> SetFunction:
    """The set function a config object gives; keys are ground's _subset_keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    forms = [k for k in FORMS if k in obj]
    if len(forms) != 1:
        raise ConfigError(f"{path}: give exactly one of 'table', 'weights', 'constant'")
    form = forms[0]
    if form == "constant":
        return SetFunction.constant(ground, _value(obj["constant"], mode, f"{path}.constant"))
    body = obj[form]
    if not isinstance(body, dict):
        raise ConfigError(f"{path}.{form}: expected an object keyed by subsets")
    entries: dict[int, Value] = {}
    named: dict[int, str] = {}
    # A table names every subset, so its keys are looked up in the report's
    # spelling; any other spelling, and every sparse weights key, is parsed.
    spelled = {k: m for m, k in enumerate(keys)} if form == "table" else {}
    for key, v in body.items():
        mask = spelled.get(key)
        if mask is None:
            mask = _parse_key(ground, key, f"{path}.{form}")
        if mask in named:
            raise ConfigError(
                f"{path}.{form}: keys {named[mask]!r} and {key!r} name the same subset"
            )
        named[mask] = key
        entries[mask] = _value(v, mode, f"{path}.{form}.{key!r}")
    if form == "weights":
        try:
            return from_moebius_weights(ground, entries)
        except ValueError as exc:
            raise ConfigError(f"{path}.weights: {exc}") from None
    missing = [m for m in ground.subsets() if m not in entries]
    if missing:
        raise ConfigError(
            f"{path}.table: missing entry for subset {_mask_key(ground, missing[0])!r}"
        )
    return SetFunction(ground, (entries[m] for m in ground.subsets()))


def _subset_list(obj: object, ground: GroundSet, path: str) -> list[int]:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list of subsets")
    out = []
    for idx, entry in enumerate(obj):
        if not isinstance(entry, list) or not all(isinstance(x, str) for x in entry):
            raise ConfigError(f"{path}[{idx}]: expected a list of element names")
        try:
            out.append(ground.mask_of(entry))
        except ValueError as exc:
            raise ConfigError(f"{path}[{idx}]: {exc}") from None
    return out


def _family(obj: object, ground: GroundSet, mode: str, path: str, keys: Sequence[str]) -> SetFunction:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if ("seeds" in obj) == ("members" in obj):
        raise ConfigError(f"{path}: give exactly one of 'seeds' or 'members'")
    if "seeds" in obj:
        return up_closure(ground, _subset_list(obj["seeds"], ground, f"{path}.seeds"))
    members = set(_subset_list(obj["members"], ground, f"{path}.members"))
    family = SetFunction(ground, (int(m in members) for m in ground.subsets()))
    if not is_increasing(family):
        raise ConfigError(f"{path}.members: family is not up-closed")
    return family


def _voting_rule(obj: object, ground: GroundSet, mode: str, path: str, keys: Sequence[str]) -> SetFunction:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if ("weights" in obj) == ("table" in obj):
        raise ConfigError(f"{path}: give exactly one of 'weights' (with 'quota') or 'table'")
    if "table" in obj:
        return _setfunction({"table": obj["table"]}, ground, mode, path, keys)
    weights = _per_element(obj["weights"], ground, mode, f"{path}.weights", "weight")
    if "quota" not in obj:
        raise ConfigError(f"{path}: voting weights need a 'quota'")
    try:
        return weighted_voting(ground, weights, _value(obj["quota"], mode, f"{path}.quota"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object, refused if it repeats a key (json.loads keeps the last)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ConfigError(f"repeated key {repeated!r} in a JSON object")
    return obj


def _load_config(path: str, mode_flag: str | None, expected_kinds: Sequence[str]) -> tuple[dict, str]:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from None
    try:
        cfg = json.loads(raw, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    kind = cfg.get("kind")
    if kind not in expected_kinds:
        raise ConfigError(
            f"{path}: kind must be one of {list(expected_kinds)}, got {kind!r}"
        )
    mode = cfg.get("mode", "float")
    if mode not in ("exact", "float"):
        raise ConfigError(f"{path}: mode must be 'exact' or 'float', got {mode!r}")
    return cfg, mode_flag or mode


# ---------------------------------------------------------------- reports


def _emit(report: dict, out: str | None, tables: Mapping[str, Mapping[str, object]], want_csv: bool) -> int:
    """Write the report (and its tables as CSV) under out, then print it, and
    return the exit code: 0 when the verdict is "pass", 1 otherwise.  An
    unusable out is refused before anything is printed."""
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if out is not None:
        out_dir = Path(out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "report.json").write_text(text + "\n", encoding="utf-8")
            if want_csv:
                for name, table in tables.items():
                    with open(out_dir / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
                        writer = csv.writer(fh)
                        writer.writerow(["subset", "value"])
                        writer.writerows(sorted(table.items()))
        except OSError as exc:
            raise ValueError(f"--out: cannot write {exc.filename}: {exc.strerror}") from None
    print(text)
    return 0 if report["verdict"] == "pass" else 1


# ---------------------------------------------------------------- convolve


def _cmd_convolve(args) -> int:
    cfg, mode = _load_config(args.config, args.mode, ("convolution",))
    ground = _ground(cfg, "ground", args.max_ground)
    p = _coins(cfg, ground, mode)
    keys = _subset_keys(ground)
    f = _setfunction(cfg.get("f"), ground, mode, "f", keys)
    g = _setfunction(cfg.get("g"), ground, mode, "g", keys)
    table = convolve(f, g, p)
    f_inc = is_increasing(f)
    g_inc = is_increasing(g)
    result_inc = is_increasing(table)
    end_empty = table.values[0]
    end_full = table.values[-1]
    exp_product = partition_expectation((f, g), ((0,), (1,)), p)
    product_exp = partition_expectation((f, g), ((0, 1),), p)
    gap = product_exp - exp_product
    violations = []
    if f_inc and g_inc and not result_inc:
        violations.append("inputs increasing but the convolution is not")
    if f_inc and g_inc and not geq(gap, 0):
        violations.append("negative correlation gap for increasing inputs")
    if not close(end_empty, exp_product):
        violations.append("empty-set value differs from the product of expectations")
    if not close(end_full, product_exp):
        violations.append("full-set value differs from the expectation of the product")
    report = {
        "kind": "convolution",
        "mode": mode,
        "ground": list(ground.labels),
        "table": _table_json(table, keys),
        "f_increasing": f_inc,
        "g_increasing": g_inc,
        "result_increasing": result_inc,
        "harris_gap": format_value(gap),
        "endpoints": {
            "empty": format_value(end_empty),
            "full": format_value(end_full),
            "product_of_expectations": format_value(exp_product),
            "expectation_of_product": format_value(product_exp),
        },
        "violations": violations,
        "verdict": "pass" if not violations else "fail",
    }
    return _emit(report, args.out, {"convolution": report["table"]}, args.csv)


# ---------------------------------------------------------------- scenario


# Each scenario check returns its named tables, the table whose maxima are
# the optimal pools, and its monotonicity checks.


def _check_production(sc: TwoInputProduction) -> tuple[dict, SetFunction, dict]:
    table = production_table(sc)
    return {"payoffs": table}, table, {"payoff_increasing": is_increasing(table)}


def _check_military(sc: MilitaryScenario) -> tuple[dict, SetFunction, dict]:
    both, neither, one = military_tables(sc)
    # neither - both + E[red + blue] is 1 exactly when 1 - both - neither is
    # P(exactly one) = P(red) + P(blue) - 2 both; the marginals use no convolve.
    marginals = expectation(sc.c_red + sc.c_blue, sc.p)
    checks = {
        "both_disabled_increasing": is_increasing(both),
        "neither_disabled_increasing": is_increasing(neither),
        "exactly_one_decreasing": is_decreasing(one),
        "outcomes_sum_to_one": all(close(v, 1) for v in (neither - both + marginals).values),
    }
    tables = {"both_disabled": both, "neither_disabled": neither, "exactly_one": one}
    return tables, both, checks


def _check_merger(sc: MergerScenario) -> tuple[dict, SetFunction, dict]:
    table = merger_table(sc)
    return {"approval_probability": table}, table, {"probability_increasing": is_increasing(table)}


def _check_scenario(check, sc) -> tuple[dict, list[int], dict]:
    """Tables, optimal pools and checks, including that the full pool is optimal."""
    tables, objective, checks = check(sc)
    best = optimal_strategies(objective)
    checks["optimal_contains_full"] = sc.p.ground.full in best
    return tables, best, checks


def _amounts(obj: object, ground: GroundSet, mode: str, path: str, keys: Sequence[str]) -> tuple[Value, ...]:
    return _per_element(obj, ground, mode, path, "amount")


def _exponent(raw: object, ground: GroundSet, mode: str, path: str, keys: Sequence[str]) -> Value:
    return _value(raw, mode, path)


# kind -> (ground-set field, model class, {config field: (model argument,
# reader)} in reading order, scenario check, verify's generator).  A reader
# takes (value, ground, mode, path, keys); keys are the ground set's
# _subset_keys, which only a merger's table-form rule reads.
SCENARIOS = {
    "production": (
        "suppliers", TwoInputProduction,
        {"x": ("x", _amounts), "y": ("y", _amounts), "alpha": ("alpha", _exponent), "beta": ("beta", _exponent)},
        _check_production, generators.random_production,
    ),
    "military": (
        "sites", MilitaryScenario, {"red": ("c_red", _family), "blue": ("c_blue", _family)},
        _check_military, generators.random_military,
    ),
    "merger": (
        "shareholders", MergerScenario, {"a": ("f_a", _voting_rule), "b": ("f_b", _voting_rule)},
        _check_merger, generators.random_merger,
    ),
}


def _cmd_scenario(args) -> int:
    cfg, mode = _load_config(args.config, args.mode, tuple(SCENARIOS))
    kind = cfg["kind"]
    field, model, readers, check, _ = SCENARIOS[kind]
    ground = _ground(cfg, field, args.max_ground)
    p = _coins(cfg, ground, mode)
    keys = _subset_keys(ground)
    try:
        sc = model(p=p, **{arg: read(cfg.get(name), ground, mode, name, keys)
                           for name, (arg, read) in readers.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    tables, best, checks = _check_scenario(check, sc)
    tables = {name: _table_json(t, keys) for name, t in tables.items()}
    report = {
        "kind": kind,
        "mode": mode,
        **tables,
        "optimal": sorted(_mask_key(ground, m) for m in best),
        "checks": checks,
        "verdict": "pass" if all(checks.values()) else "fail",
    }
    return _emit(report, args.out, tables, args.csv)


# ---------------------------------------------------------------- game


def _game_spec(cfg: Mapping, mode: str, limit: int | None) -> GameSpec:
    commodities = _names(cfg, "commodities")
    hground = _ground(cfg, "suppliers", limit, reserved=FORMS)
    p = _coins(cfg, hground, mode)
    supply = cfg.get("supply")
    if not isinstance(supply, dict):
        raise ConfigError("supply: expected an object mapping supplier to commodities")
    for h, owned in supply.items():
        if not isinstance(owned, list) or not all(isinstance(k, str) for k in owned):
            raise ConfigError(f"supply.{h}: expected a list of commodity names")
    payoffs_obj = cfg.get("payoffs")
    if not isinstance(payoffs_obj, dict):
        raise ConfigError("payoffs: expected an object keyed by commodity")
    payoffs: dict[str, object] = {}
    keys = _subset_keys(hground)
    for k, entry in payoffs_obj.items():
        if not isinstance(entry, dict):
            raise ConfigError(f"payoffs.{k}: expected an object")
        if any(key in entry for key in FORMS):
            payoffs[k] = _setfunction(entry, hground, mode, f"payoffs.{k}", keys)
        else:
            payoffs[k] = {
                h: _setfunction(sub, hground, mode, f"payoffs.{k}.{h}", keys)
                for h, sub in entry.items()
            }
    try:
        return GameSpec(commodities, supply, p, payoffs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _game_profile(cfg: Mapping, spec: GameSpec) -> StrategyProfile | None:
    obj = cfg.get("profile")
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ConfigError("profile: expected an object mapping supplier to block lists")
    for h, blocks in obj.items():
        if not isinstance(blocks, list) or not all(
            isinstance(b, list) and all(isinstance(k, str) for k in b) for b in blocks
        ):
            raise ConfigError(f"profile.{h}: expected a list of blocks of commodity names")
    try:
        return spec.profile(obj)
    except ValueError as exc:
        raise ConfigError(f"profile: {exc}") from None


def _profile_json(spec: GameSpec, profile: StrategyProfile) -> dict[str, list[list[str]]]:
    return {h: [list(b) for b in s.blocks] for h, s in zip(spec.suppliers, profile.strategies)}


def _profile_key(spec: GameSpec, profile: StrategyProfile) -> str:
    return ";".join(
        h + ":" + "|".join(",".join(b) for b in s.blocks)
        for h, s in zip(spec.suppliers, profile.strategies)
    )


def _conditioning(
    spec: GameSpec, profile: StrategyProfile, bits: list[bool], h: str, i: int, j: int
) -> dict[str, list[bool | None]]:
    """The conditioning of one row of conditional_block_rows' arrival matrix."""
    out, col = {}, 0
    for g, s in zip(spec.suppliers, profile.strategies):
        out[g] = bits[col : col + len(s.blocks)]
        col += len(s.blocks)
    out[h][i] = out[h][j] = None
    return out


def _row_values(row: int, arrays: Sequence[np.ndarray], scales: Sequence[int]) -> list[Value]:
    """One row of batched arrays, integer ones as Fractions over their scales."""
    return [Fraction(a[row], sc) if a.dtype == object else float(a[row]) for a, sc in zip(arrays, scales)]


def _expost_sweep(spec: GameSpec, profile: StrategyProfile) -> dict:
    """Check that merging blocks i < j never hurts player h, at every
    conditioning of the other blocks, all of a pair's conditionings in one
    batch.  The scalar conditional_payoffs and conditional_block_factors
    recompute one row of each batch, and must agree with it; a failing
    row's certificate is read from the batch.  The caller keeps the
    profile within EXPOST_BLOCK_CAP blocks."""
    checked = 0
    for hi, h in enumerate(spec.suppliers):
        for i, j in itertools.combinations(range(len(profile.strategies[hi].blocks)), 2):
            arrived, rows, scales = conditional_block_rows(spec, profile, h, i, j)
            sep, merged, *_, gain = rows
            mixed = len(arrived) * 2 // 3  # free blocks 1010...: some arrived, some not
            given = _conditioning(spec, profile, arrived[mixed].tolist(), h, i, j)
            scalar = conditional_payoffs(spec, profile, h, i, j, given)
            scalar += conditional_block_factors(spec, profile, h, i, j, given)
            batch = _row_values(mixed, rows[:7], scales[:7])
            if not all(map(close, scalar, batch)):
                raise RuntimeError(f"batched ex-post rows of {h!r} disagree with conditional_payoffs")
            failed = np.flatnonzero(~geq_array(merged, sep) | ~close_array(merged - sep, gain))
            if failed.size:
                row = int(failed[0])
                sep_value, merged_value = _row_values(row, rows[:2], scales[:2])
                return {
                    "checked": checked + row + 1,
                    "holds": False,
                    "violation": {
                        "player": h,
                        "blocks": [i, j],
                        "conditioning": _conditioning(spec, profile, arrived[row].tolist(), h, i, j),
                        "separate": format_value(sep_value),
                        "merged": format_value(merged_value),
                    },
                }
            checked += len(arrived)
    return {"checked": checked, "holds": True, "violation": None}


def _game_verdict(spec: GameSpec) -> tuple[list, list[StrategyProfile], bool]:
    """Every player's dominance violation (None where dominance holds), the
    pure Nash set, and whether the all-coarse profile is in it."""
    violations = [check_dominance(spec, h) for h in spec.suppliers]
    nash = find_nash(spec)
    return violations, nash, spec.coarse_profile() in nash


def _cmd_game_analyze(args) -> int:
    cfg, mode = _load_config(args.config, args.mode, ("game",))
    spec = _game_spec(cfg, mode, args.max_ground)
    profile = _game_profile(cfg, spec)
    lists = [spec.strategies(h) for h in spec.suppliers]
    profile_count = math.prod(len(lst) for lst in lists)
    expost_profile = profile if profile is not None else spec.finest_profile()
    if sum(len(s.blocks) for s in expost_profile.strategies) > EXPOST_BLOCK_CAP:
        raise ConfigError(f"ex-post sweep is limited to {EXPOST_BLOCK_CAP} blocks")

    # The verdict builds the spec's payoff arrays, which the tables then read.
    violations, nash, nash_has_coarse = _game_verdict(spec)
    payoff_tables: dict[str, dict[str, object]] | None = None
    if profile_count <= GAME_TABLE_CAP:
        payoff_tables = {h: {} for h in spec.suppliers}
        for combo in itertools.product(*lists):
            prof = StrategyProfile(combo)
            key = _profile_key(spec, prof)
            for h in spec.suppliers:
                payoff_tables[h][key] = format_value(expected_payoff(spec, prof, h))
    all_hold = all(v is None for v in violations)
    dominance = {}
    for h, v in zip(spec.suppliers, violations):
        entry: dict[str, object] = {"holds": v is None}
        if v is not None:
            others = [g for g in spec.suppliers if g != h]
            entry["violation"] = {
                "opponents": [{g: [list(b) for b in s.blocks]} for g, s in zip(others, v.opponents)],
                "better": [list(b) for b in v.better.blocks],
                "worse": [list(b) for b in v.worse.blocks],
                "payoff_better": format_value(v.payoff_better),
                "payoff_worse": format_value(v.payoff_worse),
            }
        dominance[h] = entry

    expost = _expost_sweep(spec, expost_profile)

    report: dict[str, object] = {
        "kind": "game",
        "mode": mode,
        "suppliers": list(spec.suppliers),
        "commodities": list(spec.commodities),
        "profile_count": profile_count,
        "dominance": dominance,
        "nash": [_profile_json(spec, prof) for prof in nash],
        "nash_contains_all_coarse": nash_has_coarse,
        "expost": expost,
        "verdict": "pass" if all_hold and nash_has_coarse and expost["holds"] else "fail",
    }
    if payoff_tables is not None:
        report["payoff_tables"] = payoff_tables
    if profile is not None:
        report["profile"] = _profile_json(spec, profile)
        report["profile_payoffs"] = {
            h: format_value(expected_payoff(spec, profile, h)) for h in spec.suppliers
        }
    return _emit(report, args.out, {}, False)


def _within_band(est, exact: float) -> bool:
    """A Monte Carlo estimate agrees with the exact value: within four
    standard errors, or equal up to the numeric tolerance."""
    return abs(est.mean - exact) <= 4 * est.stderr or close(est.mean, exact)


def _cmd_game_simulate(args) -> int:
    cfg, mode = _load_config(args.config, args.mode, ("game",))
    spec = _game_spec(cfg, mode, args.max_ground)
    profile = _game_profile(cfg, spec)
    if profile is None:
        profile = spec.coarse_profile()
    per_player = {}
    ok = True
    for idx, h in enumerate(spec.suppliers):
        est = estimate_payoff(spec, profile, h, args.samples, args.seed + idx)
        exact = float(expected_payoff(spec, profile, h))
        within = _within_band(est, exact)
        ok = ok and within
        per_player[h] = {
            "estimate": dataclasses.asdict(est),
            "exact": exact,
            "within_4_stderr": within,
        }
    report = {
        "kind": "game_simulation",
        "mode": mode,
        "profile": _profile_json(spec, profile),
        "per_player": per_player,
        "verdict": "pass" if ok else "fail",
    }
    return _emit(report, args.out, {}, False)


# ---------------------------------------------------------------- verify


# Each sweep yields one (instances, certificate) step per instance it checks;
# the certificate is None while the property holds.


def _increasing_products(rows: Sequence[tuple[SetFunction, SetFunction, CoinVector]]) -> list[bool]:
    """is_increasing(convolve(f, g, p)) for each row (f, g, p), in row
    order: one batched kernel and one covering-pair check per ground-set size."""
    by_n: dict[int, list[int]] = {}
    for k, (_, _, p) in enumerate(rows):
        by_n.setdefault(p.ground.n, []).append(k)
    ok = [False] * len(rows)
    for n, ks in by_n.items():
        table = _convolve_rows([rows[k] for k in ks])[0]
        for k, good in zip(ks, _increasing_rows(table, n).tolist()):
            ok[k] = good
    return ok


def _verify_monotone_exhaustive(max_ground: int):
    grid = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for n in range(1, min(3, max_ground) + 1):
        ground = GroundSet([f"h{i}" for i in range(n)])
        fns = all_monotone_indicators(ground)
        # One batch per coin vector: a batch of every row of a ground-set
        # size (10,800 at n = 3) holds megabytes of exact Python integers.
        for ps in itertools.product(grid, repeat=n):
            p = CoinVector(ground, ps)
            rows = [(f, g, p) for f in fns for g in fns]
            for (f, g, _), ok in zip(rows, _increasing_products(rows)):
                yield 1, (None if ok else {
                    "n": n,
                    "p": [format_value(v) for v in ps],
                    "f": [int(v) for v in f.values],
                    "g": [int(v) for v in g.values],
                })


def _verify_monotone_random(seed: int, max_ground: int):
    rng = random.Random(seed)
    # 800 instances, drawn and batched 200 at a time: the draws are those of
    # a one-by-one loop, and a quarter of the tables is alive at once.
    for _ in range(4):
        rows = []
        for _ in range(200):
            n = rng.randint(1, min(6, max_ground))
            ground = GroundSet([f"h{i}" for i in range(n)])
            f = random_increasing(rng, ground, rng.randint(0, 2 * n + 2))
            g = random_increasing(rng, ground, rng.randint(0, 2 * n + 2))
            rows.append((f, g, generators.random_coin_vector(rng, ground, degenerate=True)))
        for (f, g, p), ok in zip(rows, _increasing_products(rows)):
            n = p.ground.n
            if not ok:
                yield 1, {"n": n}
            elif not geq(harris_gap(f, g, p), 0):
                yield 1, {"n": n, "property": "harris"}
            else:
                yield 1, None


def _verify_oracle(seed: int, max_ground: int):
    rng = random.Random(seed)
    for _ in range(120):
        n = rng.randint(1, min(6, max_ground))
        exact = n <= 4 and rng.random() < 0.5
        ground = GroundSet([f"h{i}" for i in range(n)])
        f = generators.random_setfunction(rng, ground, exact=exact)
        g = generators.random_setfunction(rng, ground, exact=exact)
        p = generators.random_coin_vector(rng, ground, exact=exact, degenerate=True)
        table = convolve(f, g, p)
        certificate = None
        for mask in ground.subsets():
            direct = convolve_bruteforce(f, g, p, mask)
            if not close(table.values[mask], direct):
                certificate = {
                    "n": n,
                    "subset": _mask_key(ground, mask),
                    "fast": format_value(table.values[mask]),
                    "direct": format_value(direct),
                }
                break
        yield 1, certificate


def _verify_single_element_identity(seed: int):
    rng = random.Random(seed)
    ground = GroundSet(["h0"])
    for _ in range(400):
        a, a1, b, b1 = (Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(4))
        ph = Fraction(rng.randint(0, 12), 12)
        table = convolve(
            SetFunction(ground, (a, a1)), SetFunction(ground, (b, b1)), CoinVector(ground, (ph,))
        )
        ok = table.values[1] - table.values[0] == ph * (1 - ph) * (a1 - a) * (b1 - b)
        yield 1, (None if ok else {
            "f": [format_value(a), format_value(a1)],
            "g": [format_value(b), format_value(b1)],
            "p": format_value(ph),
        })


def _verify_scenarios(seed: int, max_ground: int):
    rng = random.Random(seed)
    cap = min(5, max_ground)
    for _ in range(80):
        n = rng.randint(1, cap)
        ground = GroundSet([f"h{i}" for i in range(n)])
        scenarios = [(check, generate(rng, ground)) for *_, check, generate in SCENARIOS.values()]
        ok = all(all(_check_scenario(check, sc)[2].values()) for check, sc in scenarios)
        yield 1, (None if ok else {"n": n, "seed": seed})


def _verify_games(seed: int):
    rng = random.Random(seed)
    for idx in range(12):
        strict = idx % 3 == 0
        spec = generators.random_game_spec(rng, strict=strict)
        violations, nash, nash_has_coarse = _game_verdict(spec)
        failed = next((h for h, v in zip(spec.suppliers, violations) if v is not None), None)
        if failed is not None:
            yield 1, {"player": failed}
        elif not nash_has_coarse:
            yield 1, {"missing": "all-coarse profile"}
        elif strict and len(nash) != 1:
            yield 1, {"expected": "unique equilibrium under strict payoffs", "found": len(nash)}
        else:
            yield 1, None


def _verify_expost(seed: int):
    rng = random.Random(seed)
    for _ in range(30):
        spec = generators.random_game_spec(rng)
        profile = generators.random_profile(rng, spec)
        result = _expost_sweep(spec, profile)
        yield result["checked"], result["violation"]


def _verify_scaling(seed: int):
    rng = random.Random(seed)
    for _ in range(15):
        spec = generators.random_game_spec(rng)
        kappa = {h: Fraction(rng.randint(1, 40), 4) for h in spec.suppliers}
        scaled = scaled_spec(spec, kappa)
        profile = generators.random_profile(rng, spec)
        moved = next(
            (h for h in spec.suppliers
             if best_replies(spec, profile, h) != best_replies(scaled, profile, h)),
            None,
        )
        if moved is not None:
            yield 1, {"player": moved}
        elif find_nash(spec) != find_nash(scaled):
            yield 1, {"difference": "nash set"}
        else:
            yield 1, None


def _verify_montecarlo(seed: int, samples: int, max_ground: int):
    rng = random.Random(seed)
    for idx in range(10):
        if idx % 2 == 0:
            spec = generators.random_game_spec(rng)
            profile = generators.random_profile(rng, spec)
            h = rng.choice(spec.suppliers)
            exact = float(expected_payoff(spec, profile, h))
            est = estimate_payoff(spec, profile, h, samples, seed + 1000 + idx)
        else:
            n = rng.randint(1, min(5, max_ground))
            ground = GroundSet([f"h{i}" for i in range(n)])
            f = random_increasing(rng, ground, rng.randint(1, 2 * n + 2))
            g = random_increasing(rng, ground, rng.randint(1, 2 * n + 2))
            p = generators.random_coin_vector(rng, ground)
            mask = rng.randrange(1 << n)
            exact = float(convolve(f, g, p).values[mask])
            est = estimate_convolution(f, g, p, mask, samples, seed + 1000 + idx)
        yield 1, (None if _within_band(est, exact) else {
            "exact": exact,
            "mean": est.mean,
            "stderr": est.stderr,
        })


def _sweep(name: str, steps) -> dict:
    """Run a sweep up to its first certificate, counting the instances checked."""
    instances, certificate = 0, None
    for count, certificate in steps:
        instances += count
        if certificate is not None:
            break
    return {
        "name": name,
        "instances": instances,
        "ok": certificate is None,
        "certificate": certificate,
    }


def _cmd_verify(args) -> int:
    checks = [
        _sweep("monotone_exhaustive", _verify_monotone_exhaustive(args.max_ground)),
        _sweep("monotone_random", _verify_monotone_random(args.seed + 1, args.max_ground)),
        _sweep("oracle_equivalence", _verify_oracle(args.seed + 2, args.max_ground)),
        _sweep("single_element_identity", _verify_single_element_identity(args.seed + 3)),
        _sweep("scenario_properties", _verify_scenarios(args.seed + 4, args.max_ground)),
        _sweep("game_dominance_nash", _verify_games(args.seed + 5)),
        _sweep("expost_identity", _verify_expost(args.seed + 6)),
        _sweep("scaling_invariance", _verify_scaling(args.seed + 7)),
        _sweep("montecarlo_consistency", _verify_montecarlo(args.seed + 8, args.samples, args.max_ground)),
    ]
    ok = all(c["ok"] for c in checks)
    report = {
        "kind": "verify",
        "max_ground": args.max_ground,
        "seed": args.seed,
        "samples": args.samples,
        "checks": checks,
        "verdict": "pass" if ok else "fail",
    }
    code = _emit(report, args.out, {}, False)
    for c in checks:
        status = "ok" if c["ok"] else "FAIL"
        print(f"{c['name']}: {status} ({c['instances']} instances)", file=sys.stderr)
    return code


# ---------------------------------------------------------------- wiring


def _at_least(low: int) -> Callable[[str], int]:
    """argparse type for a size or seed flag: an integer no smaller than low."""

    def at_least(raw: str) -> int:
        if int(raw) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {raw}")
        return int(raw)
    at_least.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return at_least


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON config")
    sub.add_argument("--mode", choices=("exact", "float"), help="override the config's numeric mode")
    sub.add_argument("--out", help="directory for report.json (and CSV tables with --csv)")
    sub.add_argument("--max-ground", type=_at_least(0), default=None, help="reject ground sets larger than N")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser.  Each command is looked up when it runs, not bound
    here, because main keeps one parser for the whole process."""
    parser = argparse.ArgumentParser(
        prog="riskpool",
        description="Exact risk-pooling analysis: convolution tables, decision scenarios, partition games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("convolve", help="full convolution table with property verdicts")
    _add_common(p_conv)
    p_conv.add_argument("--csv", action="store_true", help="also export tables as CSV")
    p_conv.set_defaults(func=lambda args: _cmd_convolve(args))

    p_sc = sub.add_parser("scenario", help="payoff table, optimal strategies, monotonicity verdicts")
    _add_common(p_sc)
    p_sc.add_argument("--csv", action="store_true", help="also export tables as CSV")
    p_sc.set_defaults(func=lambda args: _cmd_scenario(args))

    p_game = sub.add_parser("game", help="partition-game analysis")
    game_sub = p_game.add_subparsers(dest="game_command", required=True)

    p_an = game_sub.add_parser("analyze", help="payoff tables, dominance, Nash, ex-post sweep")
    _add_common(p_an)
    p_an.set_defaults(func=lambda args: _cmd_game_analyze(args))

    p_sim = game_sub.add_parser("simulate", help="Monte Carlo estimates against exact payoffs")
    _add_common(p_sim)
    p_sim.add_argument("--samples", type=_at_least(2), default=100000, help="sample count per player")
    p_sim.add_argument("--seed", type=_at_least(0), default=0, help="base seed")
    p_sim.set_defaults(func=lambda args: _cmd_game_simulate(args))

    p_ver = sub.add_parser("verify", help="run the property suite at configured sizes")
    p_ver.add_argument("--out", help="directory for report.json")
    p_ver.add_argument("--max-ground", type=_at_least(1), default=5, help="largest ground set in sweeps")
    p_ver.add_argument("--seed", type=_at_least(0), default=0, help="base seed for the sweeps")
    p_ver.add_argument("--samples", type=_at_least(2), default=20000, help="Monte Carlo samples per check")
    p_ver.set_defaults(func=lambda args: _cmd_verify(args))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built at the first main call and reused: a
    parse starts a fresh Namespace and no default is mutable, so calls
    share no state."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "csv", False) and args.out is None:
        parser.error("--csv needs --out")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
