"""End-to-end CLI behavior: exit codes, report schemas, determinism, and
round-trips between reports and the library."""

import argparse
import copy
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskpool import cli, partition_game, scenarios
from riskpool.cli import main
from riskpool.convolution import convolve, partition_expectation
from riskpool.lattice import (
    CoinVector,
    GroundSet,
    SetFunction,
    all_monotone_indicators,
    from_moebius_weights,
)
from riskpool.montecarlo import EstimateReport
from riskpool.numerics import parse_value, power
from riskpool.partition_game import DominanceViolation, GameSpec

CONV_CONFIG = {
    "kind": "convolution",
    "mode": "exact",
    "ground": ["a", "b"],
    "p": {"a": "1/2", "b": "1/4"},
    "f": {"table": {"": 0, "a": 1, "b": 1, "a,b": 3}},
    "g": {"table": {"": 2, "a": 5, "b": 2, "a,b": 5}},
}

PRODUCTION_CONFIG = {
    "kind": "production",
    "suppliers": ["1"],
    "p": {"1": 0.5},
    "x": {"1": 4},
    "y": {"1": 9},
    "alpha": 0.5,
    "beta": 0.5,
}

MILITARY_CONFIG = {
    "kind": "military",
    "mode": "exact",
    "sites": ["t"],
    "p": {"t": "1/2"},
    "red": {"seeds": [["t"]]},
    "blue": {"members": [["t"]]},
}

MERGER_CONFIG = {
    "kind": "merger",
    "mode": "exact",
    "shareholders": ["u", "v"],
    "p": {"u": "1/2", "v": "1/2"},
    "a": {"table": {"": 0, "u": 1, "v": 1, "u,v": 1}},
    "b": {"weights": {"u": 1, "v": 1}, "quota": 1},
}

GAME_CONFIG = {
    "kind": "game",
    "mode": "exact",
    "commodities": ["oil", "gas"],
    "suppliers": ["h1", "h2"],
    "p": {"h1": "1/2", "h2": "3/4"},
    "supply": {"h1": ["oil", "gas"], "h2": ["oil"]},
    "payoffs": {
        "oil": {"table": {"": 0, "h1": 1, "h2": 1, "h1,h2": 2}},
        "gas": {"table": {"": 1, "h1": 2, "h2": 1, "h1,h2": 2}},
    },
    "profile": {"h1": [["oil"], ["gas"]], "h2": [["oil"]]},
}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- convolve -------------------------------------------------------------------


def test_convolve_exact_report(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.json", CONV_CONFIG)
    code, out, _ = _run(capsys, ["convolve", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["table"][""] == "49/16"
    assert report["table"]["a,b"] == 4
    assert report["harris_gap"] == "15/16"
    assert report["endpoints"]["empty"] == report["endpoints"]["product_of_expectations"]
    assert report["endpoints"]["full"] == report["endpoints"]["expectation_of_product"]


def test_convolve_report_round_trips_against_library(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.json", CONV_CONFIG)
    _, out, _ = _run(capsys, ["convolve", "--config", cfg])
    report = json.loads(out)
    g = GroundSet(report["ground"])
    p = CoinVector(g, (Fraction(1, 2), Fraction(1, 4)))
    f = SetFunction(g, (0, 1, 1, 3))
    gg = SetFunction(g, (2, 5, 2, 5))
    table = convolve(f, gg, p)
    for key, raw in report["table"].items():
        mask = g.mask_of([] if key == "" else key.split(","))
        assert parse_value(raw) == table.values[mask]


# Three suppliers, two of them splitting their supply, sampled over one row
# more than a slice holds.
SIMULATE_CONFIG = (
    b'{"kind": "game", "mode": "float", "commodities": ["oil", "gas", "coal"], '
    b'"suppliers": ["h1", "h2", "h3"], "p": {"h1": 0.5, "h2": 0.75, "h3": 0.3}, '
    b'"supply": {"h1": ["oil", "gas", "coal"], "h2": ["oil", "coal"], "h3": ["gas"]}, '
    b'"payoffs": {"oil": {"weights": {"": 1, "h1": 2, "h2": 1}}, "gas": {"weights": {"": 1, "h1,h3": 3}}, '
    b'"coal": {"weights": {"h2": 1, "h1,h3": 2}}}, '
    b'"profile": {"h1": [["oil", "coal"], ["gas"]], "h2": [["oil"], ["coal"]], "h3": [["gas"]]}}'
)


@pytest.mark.filterwarnings("error")
def test_reports_are_byte_deterministic(tmp_path, capsys):
    sim = tmp_path / "simulate.json"
    sim.write_bytes(SIMULATE_CONFIG)
    for argv in (
        ["convolve", "--config", _write(tmp_path, "conv.json", CONV_CONFIG)],
        ["game", "simulate", "--config", str(sim), "--samples", "65537", "--seed", "9"],
    ):
        runs = []
        for run in "ab":
            out = tmp_path / f"{argv[0]}-{run}"
            code, stdout, _ = _run(capsys, [*argv, "--out", str(out)])
            runs.append((code, stdout, (out / "report.json").read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


# Label lists whose sorted order is not their ground order: reversed, and
# mixed case, where "B" sorts before "a".
KEY_LABELS = [
    [chr(ord("a") + i) for i in range(10)][::-1],
    ["a", "B", "c", "D", "e", "F", "g", "H", "i", "J"],
    [str(10 - i) for i in range(10)],
]


@pytest.mark.parametrize("labels", KEY_LABELS)
def test_subset_keys_are_the_key_of_every_mask(labels):
    for n in range(len(labels) + 1):
        g = GroundSet(labels[:n])
        keys = cli._subset_keys(g)
        assert keys == [cli._mask_key(g, m) for m in g.subsets()]


def _spelled(labels, order):
    """A table over labels keyed by each subset's labels in the given order."""
    return {",".join(order(labels[i] for i in range(len(labels)) if m >> i & 1)): m * m - 3 * m
            for m in range(1 << len(labels))}


@pytest.mark.parametrize("labels", [["b", "a", "C"], ["c", "B", "a", "D"]])
def test_table_keys_may_list_their_labels_in_any_order(tmp_path, capsys, labels):
    def run(order):
        cfg = dict(CONV_CONFIG, ground=labels, p=dict.fromkeys(labels, "1/3"),
                   f={"table": _spelled(labels, order)}, g={"table": _spelled(labels[::-1], order)})
        return _run(capsys, ["convolve", "--config", _write(tmp_path, "c.json", cfg)])

    ascending = run(sorted)
    assert ascending[0] in (0, 1) and ascending[2] == ""
    assert run(lambda xs: sorted(xs, reverse=True)) == ascending


def test_out_dir_and_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.json", CONV_CONFIG)
    outdir = tmp_path / "reports"
    code, out, _ = _run(
        capsys, ["convolve", "--config", cfg, "--out", str(outdir), "--csv"]
    )
    assert code == 0
    assert json.loads((outdir / "report.json").read_text()) == json.loads(out)
    rows = (outdir / "convolution.csv").read_text().splitlines()
    assert rows[0] == "subset,value"
    assert len(rows) == 5  # header + one row per subset


def test_mode_flag_overrides_config(tmp_path, capsys):
    cfg_obj = dict(CONV_CONFIG)
    del cfg_obj["mode"]
    cfg = _write(tmp_path, "conv.json", cfg_obj)
    code, out, _ = _run(capsys, ["convolve", "--config", cfg, "--mode", "float"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "float"
    assert isinstance(report["table"][""], float)


def test_mode_flag_does_not_hide_a_bad_config_mode(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.json", {**CONV_CONFIG, "mode": "weird"})
    for flag in ([], ["--mode", "float"]):
        code, out, err = _run(capsys, ["convolve", "--config", cfg, *flag])
        assert code == 2 and out == ""
        assert err.startswith("config error: ")
        assert err.rstrip().endswith("mode must be 'exact' or 'float', got 'weird'")


@pytest.mark.parametrize("command, config", [("convolve", CONV_CONFIG), ("scenario", MILITARY_CONFIG)])
def test_csv_without_out_is_a_usage_error(tmp_path, capsys, command, config):
    cfg = _write(tmp_path, "cfg.json", config)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith("error: --csv needs --out")


def test_max_ground_enforced(tmp_path, capsys):
    cfg = _write(tmp_path, "conv.json", CONV_CONFIG)
    code, _, err = _run(capsys, ["convolve", "--config", cfg, "--max-ground", "1"])
    assert code == 2


def _verdicts(*verdicts):
    """A stand-in check that gives these verdicts, one per call."""
    it = iter(verdicts)
    return lambda f: next(it)


def _shifted_table(entry, by):
    """cli.convolve with one entry of its table moved by `by`."""
    def shifted(f, g, p):
        values = list(convolve(f, g, p).values)
        values[entry] += by
        return SetFunction(f.ground, values)
    return shifted


def _swapped_endpoints(f, g, p):
    values = list(convolve(f, g, p).values)
    values[0], values[-1] = values[-1], values[0]
    return SetFunction(f.ground, values)


def _swapped_expectations(fns, blocks, p):
    """partition_expectation of the other partition of two functions."""
    return partition_expectation(fns, ((0, 1),) if len(blocks) == 2 else ((0,), (1,)), p)


@pytest.mark.parametrize(
    "patches, violations",
    [
        # the table of two increasing inputs is reported as not increasing
        ({"is_increasing": _verdicts(True, True, False)},
         ["inputs increasing but the convolution is not"]),
        # E[fg] and E[f]E[g] trade places, and so do the table's endpoints
        ({"partition_expectation": _swapped_expectations, "convolve": _swapped_endpoints,
          "is_increasing": lambda f: True},
         ["negative correlation gap for increasing inputs"]),
        ({"convolve": _shifted_table(0, -1)},
         ["empty-set value differs from the product of expectations"]),
        ({"convolve": _shifted_table(-1, 1)},
         ["full-set value differs from the expectation of the product"]),
    ],
    ids=["not-increasing", "negative-gap", "empty-endpoint", "full-endpoint"],
)
def test_convolve_reports_each_violation(tmp_path, capsys, monkeypatch, patches, violations):
    for name, fake in patches.items():
        monkeypatch.setattr(cli, name, fake)
    cfg = _write(tmp_path, "conv.json", CONV_CONFIG)
    code, out, _ = _run(capsys, ["convolve", "--config", cfg])
    report = json.loads(out)
    assert (code, report["verdict"], report["violations"]) == (1, "fail", violations)


# -- scenario -------------------------------------------------------------------


def test_production_scenario_pinned_values(tmp_path, capsys):
    cfg = _write(tmp_path, "prod.json", PRODUCTION_CONFIG)
    code, out, _ = _run(capsys, ["scenario", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["payoffs"][""] == 1.5
    assert report["payoffs"]["1"] == 3.0
    assert report["optimal"] == ["1"]


def test_military_scenario_report(tmp_path, capsys):
    cfg = _write(tmp_path, "mil.json", MILITARY_CONFIG)
    code, out, _ = _run(capsys, ["scenario", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    assert report["both_disabled"] == {"": "1/4", "t": "1/2"}
    assert report["neither_disabled"] == {"": "1/4", "t": "1/2"}
    assert report["exactly_one"] == {"": "1/2", "t": 0}
    assert all(report["checks"].values())


def test_military_outcomes_check_sees_a_wrong_neither_table(tmp_path, capsys, monkeypatch):
    # military_tables' second convolve builds the neither table; shift it
    real, calls = scenarios.convolve, []

    def shifted(*args):
        calls.append(args)
        table = real(*args)
        return table + Fraction(1, 100) if len(calls) == 2 else table

    monkeypatch.setattr(scenarios, "convolve", shifted)
    cfg = _write(tmp_path, "mil.json", MILITARY_CONFIG)
    code, out, _ = _run(capsys, ["scenario", "--config", cfg])
    assert len(calls) == 2
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [name for name, ok in checks.items() if not ok] == ["outcomes_sum_to_one"]


def test_merger_scenario_report(tmp_path, capsys):
    cfg = _write(tmp_path, "merge.json", MERGER_CONFIG)
    code, out, _ = _run(capsys, ["scenario", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    assert report["approval_probability"][""] == "9/16"
    assert report["approval_probability"]["u,v"] == "3/4"


# -- game -----------------------------------------------------------------------


def test_game_analyze_report(tmp_path, capsys):
    cfg = _write(tmp_path, "game.json", GAME_CONFIG)
    code, out, _ = _run(capsys, ["game", "analyze", "--config", cfg])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["nash_contains_all_coarse"] is True
    assert report["nash"] == [{"h1": [["oil", "gas"]], "h2": [["oil"]]}]
    assert all(entry["holds"] for entry in report["dominance"].values())
    assert report["expost"]["holds"] is True
    assert report["profile_payoffs"] == {"h1": "15/8", "h2": "15/8"}
    assert report["profile_count"] == 2
    assert set(report["payoff_tables"]) == {"h1", "h2"}


def test_game_analyze_reports_a_dominance_violation(tmp_path, capsys, monkeypatch):
    # h2's check fails with a made-up witness while h1's runs for real: the
    # report writes the witness out in full and the run exits 1.
    real = cli.check_dominance

    def fail_for_h2(spec, h):
        if h != "h2":
            return real(spec, h)
        return DominanceViolation(
            opponents=(spec.strategy("h1", [["gas"], ["oil"]]),),
            better=spec.strategy("h2", [["gas", "oil"]]),
            worse=spec.strategy("h2", [["oil"], ["gas"]]),
            payoff_better=Fraction(1, 3),
            payoff_worse=Fraction(1, 2),
        )

    monkeypatch.setattr(cli, "check_dominance", fail_for_h2)
    cfg_obj = {k: v for k, v in GAME_CONFIG.items() if k != "profile"}
    cfg_obj["supply"] = {"h1": ["oil", "gas"], "h2": ["oil", "gas"]}
    code, out, _ = _run(capsys, ["game", "analyze", "--config", _write(tmp_path, "game.json", cfg_obj)])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["dominance"] == {
        "h1": {"holds": True},
        "h2": {
            "holds": False,
            "violation": {
                "opponents": [{"h1": [["oil"], ["gas"]]}],
                "better": [["oil", "gas"]],
                "worse": [["oil"], ["gas"]],
                "payoff_better": "1/3",
                "payoff_worse": "1/2",
            },
        },
    }


@pytest.mark.parametrize("exact", [True, False])
def test_expost_sweep_pins_its_first_failure(exact):
    # h2's factor for its commodity c falls when h2 delivers, which the spec
    # refuses, so it is set past validation.  c (h1 and h2 both supply it)
    # and d are h2's two blocks; the rest of h2's product is zero until h1's
    # block a arrives.  h1's 3 pairs pass on 8 conditionings each, and h2's
    # pair first fails at its fifth conditioning, the first with a arrived.
    num = Fraction if exact else float
    g = GroundSet(["h1", "h2"])

    def table(*values):
        return SetFunction(g, tuple(num(v) for v in values))

    ks = ["a", "b", "c", "d"]
    up = table(1, 2, 1, 2)
    spec = GameSpec(
        ks,
        {"h1": ["a", "b", "c"], "h2": ["c", "d"]},
        CoinVector(g, (num(Fraction(1, 3)), num(Fraction(3, 4)))),
        {
            "a": {"h1": up, "h2": table(0, 2, 0, 2)},
            "b": {"h1": up, "h2": table(1, 1, 1, 1)},
            "c": {"h1": up, "h2": table(1, 1, 3, 3)},
            "d": {"h1": up, "h2": table(1, 1, 3, 3)},
        },
    )
    rows = list(spec.payoffs)
    rows[2] = (up, table(2, 2, 1, 1))
    object.__setattr__(spec, "payoffs", tuple(rows))
    result = cli._expost_sweep(spec, spec.finest_profile())
    assert result == {
        "checked": 29,
        "holds": False,
        "violation": {
            "player": "h2",
            "blocks": [0, 1],
            "conditioning": {"h1": [True, False, False], "h2": [None, None]},
            "separate": "25/4" if exact else 6.25,
            "merged": "11/2" if exact else 5.5,
        },
    }


def test_expost_sweep_refuses_a_batch_the_scalar_code_contradicts(monkeypatch):
    rows = cli.conditional_block_rows

    def skewed(*args):
        arrived, (a0, *rest), scales = rows(*args)
        return arrived, (a0 + 1, *rest), scales

    monkeypatch.setattr(cli, "conditional_block_rows", skewed)
    g = GroundSet(["h1"])
    up = SetFunction(g, (Fraction(1), Fraction(2)))
    spec = GameSpec(
        ["a", "b"], {"h1": ["a", "b"]}, CoinVector(g, (Fraction(1, 3),)), {"a": up, "b": up}
    )
    with pytest.raises(RuntimeError, match="disagree with conditional_payoffs"):
        cli._expost_sweep(spec, spec.finest_profile())


def test_expost_recheck_sees_arrived_blocks(monkeypatch):
    # A batch that loses s1's arrivals still agrees with the scalar code on
    # every row where no block of s1 arrives, row 0 among them, so only a
    # recheck of a row with arrived blocks can catch it.
    masks = partition_game._success_masks
    monkeypatch.setattr(partition_game, "_success_masks", lambda *args: masks(*args) & 0xFE)
    g = GroundSet(["s1", "s2"])
    up = SetFunction(g, (Fraction(1), Fraction(2), Fraction(3), Fraction(5)))
    ks = ["k1", "k2"]
    spec = GameSpec(
        ks, {"s1": ks, "s2": ks}, CoinVector(g, (Fraction(1, 3),) * 2), dict.fromkeys(ks, up)
    )
    with pytest.raises(RuntimeError, match="disagree with conditional_payoffs"):
        cli._expost_sweep(spec, spec.finest_profile())


def test_game_simulate_agrees_with_exact(tmp_path, capsys):
    cfg = _write(tmp_path, "game.json", GAME_CONFIG)
    code, out, _ = _run(
        capsys,
        ["game", "simulate", "--config", cfg, "--samples", "20000", "--seed", "5"],
    )
    assert code == 0
    report = json.loads(out)
    for entry in report["per_player"].values():
        assert entry["within_4_stderr"] is True
        assert entry["exact"] == 1.875


def test_game_simulate_reports_a_miss(tmp_path, capsys):
    # two samples from a two-point payoff: when both land on the same side,
    # stderr collapses to zero and the report must flag the mismatch
    cfg = _write(tmp_path, "game.json", GAME_CONFIG)
    for seed in range(40):
        code, out, _ = _run(
            capsys,
            ["game", "simulate", "--config", cfg, "--samples", "2", "--seed", str(seed)],
        )
        if code == 1:
            report = json.loads(out)
            assert report["verdict"] == "fail"
            assert any(
                not entry["within_4_stderr"] for entry in report["per_player"].values()
            )
            return
    pytest.fail("no seed produced a flagged miss")


# -- verify ---------------------------------------------------------------------


def _finite_json(text):
    """The JSON value of text, refusing the NaN and Infinity that json.loads
    would otherwise read."""
    def refuse(constant):
        raise ValueError(f"non-finite {constant} in report")

    return json.loads(text, parse_constant=refuse)


# (max_ground, samples, seed) and the flags that ask for them: verify's
# defaults need none.
VERIFY_RUNS = {
    (3, 2000, 1): ["--max-ground", "3", "--samples", "2000", "--seed", "1"],
    (5, 20000, 0): [],
    (1, 2000, 3): ["--max-ground", "1", "--samples", "2000", "--seed", "3"],
}


@pytest.mark.filterwarnings("error")
def test_verify_small_run_passes(tmp_path, capsys):
    for (max_ground, samples, seed), flags in VERIFY_RUNS.items():
        out = tmp_path / f"verify-{seed}"
        code = main(["verify", *flags, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        text = (out / "report.json").read_text(encoding="utf-8")
        assert text == captured.out
        report = _finite_json(text)
        assert (report["max_ground"], report["samples"], report["seed"]) == (max_ground, samples, seed)
        assert report["verdict"] == "pass"
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names)) == 9
        assert all(c["ok"] for c in report["checks"])
        assert captured.err.count(": ok") == 9


@pytest.mark.filterwarnings("error")
def test_verify_max_ground_caps_every_convolution_sweep(monkeypatch, capsys):
    # Every table that verify convolves, samples or sums by brute force,
    # the Monte Carlo sweep's included, lives on at most 2 elements.
    sizes = {}

    def spy(name, fn):
        def wrapped(f, *args):
            sizes.setdefault(name, []).append(f.ground.n)
            return fn(f, *args)

        monkeypatch.setattr(f"riskpool.cli.{name}", wrapped)

    for name in ("convolve", "estimate_convolution", "convolve_bruteforce"):
        spy(name, getattr(cli, name))
    # The monotone sweeps convolve in batches: record every row's width.
    widths = []
    convolve_rows = cli._convolve_rows

    def batched(rows):
        table, scales = convolve_rows(rows)
        widths.extend([table.shape[-1]] * len(rows))
        return table, scales

    monkeypatch.setattr("riskpool.cli._convolve_rows", batched)
    code = main(["verify", "--max-ground", "2", "--samples", "2000", "--seed", "7"])
    capsys.readouterr()
    assert code == 0
    assert sorted(sizes) == ["convolve", "convolve_bruteforce", "estimate_convolution"]
    assert max(max(ns) for ns in sizes.values()) == 2
    assert len(widths) == 27 + 324 + 800  # every monotone instance
    assert max(widths) == 1 << 2


def test_verify_reports_a_failing_sweep(monkeypatch, capsys):
    # a dominance check that always fails: the games sweep stops at its first
    # game, counts it, and certifies the first player; the other sweeps pass
    def always_fails(spec, h):
        coarse = spec.coarse_profile().strategies[spec.h_index(h)]
        return DominanceViolation((), coarse, coarse, 0, 1)

    monkeypatch.setattr("riskpool.cli.check_dominance", always_fails)
    code = main(["verify", "--max-ground", "3", "--samples", "2000", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert report["verdict"] == "fail"
    failing = [c for c in report["checks"] if not c["ok"]]
    assert [c["name"] for c in failing] == ["game_dominance_nash"]
    assert failing[0]["instances"] == 1
    assert failing[0]["certificate"] == {"player": "s1"}
    assert all(c["certificate"] is None for c in report["checks"] if c["ok"])
    assert "game_dominance_nash: FAIL (1 instances)" in captured.err
    assert captured.err.count(": ok") == 8


def _with_empty_set_indicator(ground):
    """Every monotone 0/1 table, then the decreasing indicator of {}."""
    return all_monotone_indicators(ground) + [
        SetFunction(ground, [int(m == 0) for m in ground.subsets()])
    ]


def _every_second_negated(real):
    """A function generator whose every second function comes out negated."""
    calls = []

    def draw(*args, **kwargs):
        calls.append(None)
        f = real(*args, **kwargs)
        return -f if len(calls) % 2 == 0 else f
    return draw


def _nash_per_spec(rule):
    """find_nash, replaced by rule(real result, whether scaled_spec built the spec)."""
    find_nash, scaled_spec = cli.find_nash, cli.scaled_spec
    scaled = []

    def recording_scaled_spec(spec, kappa):
        out = scaled_spec(spec, kappa)
        scaled.append(out)
        return out
    return {
        "find_nash": lambda spec: rule(find_nash(spec), any(spec is s for s in scaled)),
        "scaled_spec": recording_scaled_spec,
    }


# One injected fault per certificate form: sweep, patches of cli names,
# instances up to the first failure, and that failure's certificate.
VERIFY_FAULTS = {
    "monotone_exhaustive": (
        "monotone_exhaustive",
        lambda: {"all_monotone_indicators": _with_empty_set_indicator},
        8, {"n": 1, "p": ["1/4"], "f": [0, 1], "g": [1, 0]},
    ),
    "monotone_random": (
        "monotone_random",
        lambda: {"random_increasing": _every_second_negated(cli.random_increasing)},
        2, {"n": 2},
    ),
    "monotone_random-harris": (
        "monotone_random",
        lambda: {"harris_gap": lambda f, g, p: -1},
        1, {"n": 1, "property": "harris"},
    ),
    "oracle_equivalence": (
        "oracle_equivalence",
        lambda: {"convolve_bruteforce": lambda f, g, p, mask: Fraction(-1, 3)},
        1, {"n": 1, "subset": "", "fast": 1.5671011632809864, "direct": "-1/3"},
    ),
    "single_element_identity": (
        # f(h0) and g(h0) are read one higher than the certificate states
        "single_element_identity",
        lambda: {"SetFunction": lambda ground, values: SetFunction(
            ground, (values[0], values[1] + 1))},
        1, {"f": ["-5/3", "-3/2"], "g": [0, -8], "p": "1/12"},
    ),
    "game_dominance_nash-missing": (
        "game_dominance_nash",
        lambda: _nash_per_spec(lambda nash, scaled: []),
        1, {"missing": "all-coarse profile"},
    ),
    "game_dominance_nash-expected": (
        "game_dominance_nash",
        lambda: _nash_per_spec(lambda nash, scaled: nash + nash),
        1, {"expected": "unique equilibrium under strict payoffs", "found": 2},
    ),
    "scaling_invariance-player": (
        "scaling_invariance",
        lambda: {"best_replies": lambda spec, profile, h: [id(spec)]},
        1, {"player": "s1"},
    ),
    "scaling_invariance-nash": (
        "scaling_invariance",
        lambda: _nash_per_spec(lambda nash, scaled: nash[:0] if scaled else nash),
        1, {"difference": "nash set"},
    ),
    "montecarlo_consistency": (
        "montecarlo_consistency",
        lambda: {"estimate_payoff": lambda spec, profile, h, samples, seed: EstimateReport(
            -1.0, 0.0, samples, seed)},
        1, {"exact": 52.0458984375, "mean": -1.0, "stderr": 0.0},
    ),
}


@pytest.mark.parametrize("fault", VERIFY_FAULTS)
def test_verify_certifies_each_injected_fault(monkeypatch, capsys, fault):
    name, patches, instances, certificate = VERIFY_FAULTS[fault]
    for attr, fake in patches().items():
        monkeypatch.setattr(cli, attr, fake)
    code = main(["verify", "--max-ground", "2", "--samples", "2000", "--seed", "1"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (code, report["verdict"]) == (1, "fail")
    assert [c["name"] for c in report["checks"] if not c["ok"]] == [name]
    check = next(c for c in report["checks"] if c["name"] == name)
    assert (check["instances"], check["certificate"]) == (instances, certificate)
    assert f"{name}: FAIL ({instances} instances)" in captured.err.splitlines()


# -- error handling ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--max-ground", "0"], "--max-ground"),
        (["verify", "--max-ground", "-2"], "--max-ground"),
        (["verify", "--samples", "1"], "--samples"),
        (["game", "simulate", "--config", "GAME", "--samples", "1"], "--samples"),
        (["verify", "--seed", "-2000"], "--seed"),
        (["game", "simulate", "--config", "GAME", "--seed", "-5"], "--seed"),
        (["convolve", "--config", "GAME", "--max-ground", "-1"], "--max-ground"),
        (["scenario", "--config", "GAME", "--max-ground", "-1"], "--max-ground"),
        (["game", "analyze", "--config", "GAME", "--max-ground", "-1"], "--max-ground"),
        (["game", "simulate", "--config", "GAME", "--max-ground", "-1"], "--max-ground"),
    ],
)
def test_meaningless_sizes_are_usage_errors(tmp_path, capsys, argv, flag):
    # refused while parsing, before any sweep or estimate runs
    cfg = _write(tmp_path, "game.json", GAME_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main([cfg if a == "GAME" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: must be at least" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag, raw",
    [
        (["verify", "--seed", "abc"], "--seed", "abc"),
        (["convolve", "--config", "GAME", "--max-ground", "x"], "--max-ground", "x"),
        (["game", "simulate", "--config", "GAME", "--samples", "1.5"], "--samples", "1.5"),
    ],
)
def test_non_integer_sizes_are_usage_errors(tmp_path, capsys, argv, flag, raw):
    cfg = _write(tmp_path, "game.json", GAME_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main([cfg if a == "GAME" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: invalid int value: '{raw}'" in captured.err
    assert captured.out == ""


def test_config_commands_accept_max_ground_zero(tmp_path, capsys):
    # a limit of 0 is a valid limit there: it refuses the config, not the flag
    cfg = _write(tmp_path, "conv.json", CONV_CONFIG)
    code, _, err = _run(capsys, ["convolve", "--config", cfg, "--max-ground", "0"])
    assert code == 2 and "above the --max-ground limit 0" in err
    cfg = _write(tmp_path, "game.json", GAME_CONFIG)
    code, _, err = _run(capsys, ["game", "analyze", "--config", cfg, "--max-ground", "0"])
    assert code == 2 and "above the --max-ground limit 0" in err


def test_float_literal_rejected_in_exact_mode(tmp_path, capsys):
    bad = dict(CONV_CONFIG, p={"a": 0.5, "b": "1/4"})
    cfg = _write(tmp_path, "bad.json", bad)
    code, _, err = _run(capsys, ["convolve", "--config", cfg])
    assert code == 2
    assert "float literal" in err


def test_fractional_exponent_rejected_in_exact_mode(tmp_path, capsys):
    prod = {
        "kind": "production",
        "mode": "exact",
        "suppliers": ["1", "2"],
        "p": {"1": "1/2", "2": "3/4"},
        "x": {"1": 4, "2": 1},
        "y": {"1": 9, "2": 0},
        "alpha": 1,
        "beta": 2,
    }
    cfg = _write(tmp_path, "ok.json", prod)
    code, out, _ = _run(capsys, ["scenario", "--config", cfg])
    assert code == 0
    assert json.loads(out)["mode"] == "exact"
    for field in ("alpha", "beta"):
        cfg = _write(tmp_path, f"{field}.json", dict(prod, **{field: "1/2"}))
        code, out, err = _run(capsys, ["scenario", "--config", cfg])
        assert code == 2
        assert out == ""
        assert field in err and "integer exponent" in err
        code, out, _ = _run(capsys, ["scenario", "--config", cfg, "--mode", "float"])
        assert code == 0
        assert json.loads(out)["mode"] == "float"


def test_duplicate_subset_keys_rejected(tmp_path, capsys):
    for form in ("table", "weights"):
        body = {"": 0, "a": 1, "b": 1, "a,b": 3, "b,a": 4}
        cfg = _write(tmp_path, f"{form}.json", dict(CONV_CONFIG, f={form: body}))
        code, out, err = _run(capsys, ["convolve", "--config", cfg])
        assert code == 2
        assert out == ""
        assert "'a,b'" in err and "'b,a'" in err


@pytest.mark.parametrize(
    "base, old, new, key",
    [
        (CONV_CONFIG, '"mode": "exact"', '"mode": "float", "mode": "exact"', "mode"),
        (CONV_CONFIG, '"p": {"a": "1/2"', '"p": {"a": "1/4", "a": "1/2"', "a"),
        (CONV_CONFIG, '"table": {"": 0', '"table": {"": 1, "": 0', ""),
        (CONV_CONFIG, '"f": {"table"', '"f": {"table": {}, "table"', "table"),
        (GAME_CONFIG, '"gas": {"table"', '"gas": {"constant": 1}, "gas": {"table"', "gas"),
    ],
)
def test_repeated_json_keys_rejected(tmp_path, capsys, base, old, new, key):
    # json.loads would keep the last value without a word
    text = json.dumps(base)
    assert text.count(old) == 1
    path = tmp_path / "cfg.json"
    path.write_text(text.replace(old, new))
    command = ["game", "analyze"] if base is GAME_CONFIG else ["convolve"]
    code, out, err = _run(capsys, [*command, "--config", str(path)])
    assert code == 2
    assert out == ""
    assert f"repeated key {key!r}" in err


def test_label_holding_a_comma_rejected(tmp_path, capsys):
    # "a,b" as a label would give the subsets {a, b} and {"a,b"} one report key
    cfg = dict(
        CONV_CONFIG,
        ground=["a", "b", "a,b"],
        p={"a": "1/2", "b": "1/2", "a,b": "1/2"},
        f={"constant": 1},
        g={"constant": 2},
    )
    code, out, err = _run(capsys, ["convolve", "--config", _write(tmp_path, "c.json", cfg)])
    assert code == 2
    assert out == ""
    assert "ground" in err and "'a,b'" in err


def test_empty_label_rejected(tmp_path, capsys):
    # "" as a label would share the report key "" with the empty set
    cfg = dict(CONV_CONFIG, ground=["", "a"], p={"": "1/2", "a": "1/2"},
               f={"constant": 1}, g={"constant": 2})
    code, out, err = _run(capsys, ["convolve", "--config", _write(tmp_path, "c.json", cfg)])
    assert code == 2
    assert out == ""
    assert "ground" in err and "''" in err


NAME_LISTS = [
    ("convolve", CONV_CONFIG, "ground"),
    ("scenario", {"kind": "production"}, "suppliers"),
    ("scenario", {"kind": "military"}, "sites"),
    ("scenario", {"kind": "merger"}, "shareholders"),
    ("game analyze", GAME_CONFIG, "suppliers"),
    ("game analyze", GAME_CONFIG, "commodities"),
]


@pytest.mark.parametrize("command, base, field", NAME_LISTS)
@pytest.mark.parametrize("bad", ["", "x,y", "x|y", "x;y", "x:y"])
def test_names_breaking_report_keys_rejected_in_every_list(
    tmp_path, capsys, command, base, field, bad
):
    cfg = _write(tmp_path, "c.json", dict(base, **{field: ["a", bad]}))
    code, out, err = _run(capsys, [*command.split(), "--config", cfg])
    assert code == 2
    assert out == ""
    assert field in err and repr(bad) in err


@pytest.mark.parametrize("name", ["table", "weights", "constant"])
def test_supplier_named_like_a_payoff_form_rejected(tmp_path, capsys, name):
    # per-supplier payoffs are told apart from a shared set function by their keys
    def game(h):
        one = {"constant": 1}
        return dict(
            GAME_CONFIG,
            suppliers=[h, "h2"],
            p={h: "1/2", "h2": "3/4"},
            supply={h: ["oil", "gas"], "h2": ["oil"]},
            payoffs={k: {h: one, "h2": one} for k in ("oil", "gas")},
            profile={h: [["oil"], ["gas"]], "h2": [["oil"]]},
        )

    ok = _write(tmp_path, "ok.json", game("h1"))
    assert _run(capsys, ["game", "analyze", "--config", ok])[0] == 0
    bad = _write(tmp_path, "bad.json", game(name))
    code, out, err = _run(capsys, ["game", "analyze", "--config", bad])
    assert code == 2
    assert out == ""
    assert "suppliers" in err and f"{name!r} is reserved" in err


def test_non_up_closed_members_rejected(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "bad.json",
        {
            "kind": "military",
            "sites": ["a", "b"],
            "p": {"a": 0.5, "b": 0.5},
            "red": {"members": [["a"]]},
            "blue": {"seeds": [["a"]]},
        },
    )
    code, _, err = _run(capsys, ["scenario", "--config", cfg])
    assert code == 2
    assert "red.members: family is not up-closed" in err


def test_config_error_paths(tmp_path, capsys):
    assert main(["convolve", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    cfg = _write(tmp_path, "wrongkind.json", dict(CONV_CONFIG, kind="game"))
    assert main(["convolve", "--config", cfg]) == 2
    capsys.readouterr()

    incomplete = dict(CONV_CONFIG, f={"table": {"": 0, "a": 1}})
    cfg = _write(tmp_path, "incomplete.json", incomplete)
    assert main(["convolve", "--config", cfg]) == 2
    assert "missing entry" in capsys.readouterr().err

    badkey = dict(CONV_CONFIG, f={"table": {"": 0, "a": 1, "b": 1, "zz": 3}})
    cfg = _write(tmp_path, "badkey.json", badkey)
    assert main(["convolve", "--config", cfg]) == 2
    capsys.readouterr()

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert main(["convolve", "--config", str(notjson)]) == 2
    capsys.readouterr()


def _wide_game(commodities, suppliers):
    """A game config whose first supplier owns every commodity."""
    ks = [f"k{i}" for i in range(commodities)]
    hs = [f"h{i}" for i in range(suppliers)]
    return {
        "kind": "game", "mode": "exact", "commodities": ks, "suppliers": hs,
        "p": dict.fromkeys(hs, "1/2"), "supply": {h: ks if h == hs[0] else [] for h in hs},
        "payoffs": dict.fromkeys(ks, {"constant": 1}),
    }


@pytest.mark.parametrize(
    "base, change, message",
    [
        (CONV_CONFIG, {"ground": ["a", "a"]}, "ground: ground-set labels must be distinct"),
        (dict(CONV_CONFIG, mode="float"), {"f": {"weights": {"": 1e308, "a": 1e308}}},
         "f.weights: non-finite value inf"),
        (MILITARY_CONFIG, {"red": {"seeds": "t"}}, "red.seeds: expected a list of subsets"),
        (MILITARY_CONFIG, {"blue": {"members": 5}}, "blue.members: expected a list of subsets"),
        (MILITARY_CONFIG, {"red": {"seeds": [["z"]]}},
         "red.seeds[0]: unknown element 'z'"),
        (MILITARY_CONFIG, {"blue": {"members": [["t"], ["z"]]}},
         "blue.members[1]: unknown element 'z'"),
        (MERGER_CONFIG, {"b": {"weights": {"u": 1, "v": 1}}}, "b: voting weights need a 'quota'"),
        (GAME_CONFIG, {"profile": {"h1": [["oil", "gas"]], "h3": [["oil"]]}},
         "profile: profile must name exactly the suppliers"),
        # one value per element: the same message for the coins, the
        # production amounts and the voting weights
        (CONV_CONFIG, {"p": ["1/2", "1/4"]}, "p: must give exactly one probability per element"),
        (PRODUCTION_CONFIG, {"x": {}}, "x: must give exactly one amount per element"),
        (MERGER_CONFIG, {"b": {"weights": {"u": 1}, "quota": 1}},
         "b.weights: must give exactly one weight per element"),
        # an unknown name is refused with its path and without quotes
        (CONV_CONFIG, {"f": {"table": {"": 0, "a": 1, "b": 1, "zz": 3}}},
         "f.table: bad subset key 'zz': unknown element 'zz'"),
        (GAME_CONFIG, {"payoffs": {"oil": {"h1": {"table": {"zz": 1}}, "h2": {"constant": 1}},
                                   "gas": {"constant": 1}}},
         "payoffs.oil.h1.table: bad subset key 'zz': unknown element 'zz'"),
        (GAME_CONFIG, {"supply": {"h1": ["oil", "zz"], "h2": ["oil"]}},
         "supply of 'h1': unknown commodity 'zz'"),
        (GAME_CONFIG, {"supply": {"h1": ["oil", "gas", "oil"], "h2": ["oil"]}},
         "supply of 'h1' names a commodity twice"),
        (GAME_CONFIG, {"commodities": ["oil", "oil"], "supply": {"h1": ["oil"], "h2": ["oil"]},
                       "payoffs": {"oil": {"constant": 1}}},
         "commodities must be distinct"),
        (_wide_game(9, 1), {}, "exact analysis is limited to 8 commodities"),
        (_wide_game(1, 7), {}, "exact analysis is limited to 6 suppliers"),
        # a table key is parsed when it is not in the report's spelling
        (CONV_CONFIG, {"f": {"table": {"": 0, "a": 1, "b": 1, "a,a": 3}}},
         "f.table: bad subset key 'a,a': repeated element 'a'"),
    ],
)
def test_config_refusals_name_their_path(tmp_path, capsys, base, change, message):
    command = {"convolution": ["convolve"], "game": ["game", "analyze"]}.get(base["kind"], ["scenario"])
    cfg = _write(tmp_path, "c.json", dict(base, **change))
    assert _run(capsys, [*command, "--config", cfg]) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize("literal, shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"),
])
@pytest.mark.parametrize("cfg, path", [
    (dict(CONV_CONFIG, mode="float", f={"table": {"": 0, "a": "@@", "b": 1, "a,b": 3}}),
     "f.table.'a'"),
    (dict(CONV_CONFIG, mode="float", p={"a": "@@", "b": "1/4"}), "p.a"),
    (dict(PRODUCTION_CONFIG, x={"1": "@@"}), "x.1"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, literal, shown, cfg, path):
    # json.loads reads these literals as floats; each is refused where it
    # stands, with its path.
    config = tmp_path / "c.json"
    config.write_text(json.dumps(cfg).replace('"@@"', literal))
    command = ["convolve"] if cfg["kind"] == "convolution" else ["scenario"]
    assert _run(capsys, [*command, "--config", str(config)]) == (
        2, "", f"config error: {path}: expected a finite number, got {shown}\n"
    )


def test_weights_form_is_the_moebius_sum(tmp_path, capsys):
    weights = {"": 1, "a": 2, "a,b": "1/2"}
    cfg = _write(tmp_path, "c.json", dict(CONV_CONFIG, f={"weights": weights}))
    code, out, _ = _run(capsys, ["convolve", "--config", cfg])
    assert code == 0
    g = GroundSet(["a", "b"])
    f = from_moebius_weights(g, {0: 1, 1: 2, 3: Fraction(1, 2)})
    table = convolve(f, SetFunction(g, (2, 5, 2, 5)), CoinVector(g, (Fraction(1, 2), Fraction(1, 4))))
    assert json.loads(out)["table"] == cli._table_json(table)


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(
        b'{"kind": "convolution", "ground": ["\xe9"], "p": {"\xe9": "1/2"}, '
        b'"f": {"constant": 1}, "g": {"constant": 2}}'
    )
    code, out, err = _run(capsys, ["convolve", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {path}: ") and " 36" in err


def test_expost_cap_is_checked_before_the_analysis(tmp_path, capsys, monkeypatch):
    # 6 suppliers owning 3 commodities each: 15,625 profiles, and the
    # finest profile's 18 blocks exceed the ex-post sweep's 16.
    builds = []
    build = partition_game._build_payoff_arrays
    monkeypatch.setattr(
        partition_game, "_build_payoff_arrays", lambda *args: builds.append(1) or build(*args)
    )
    hs, ks = [f"h{i}" for i in range(6)], ["a", "b", "c"]
    cfg = {
        "kind": "game",
        "mode": "float",
        "commodities": ks,
        "suppliers": hs,
        "p": dict.fromkeys(hs, 0.5),
        "supply": dict.fromkeys(hs, ks),
        "payoffs": dict.fromkeys(ks, {"constant": 1}),
    }
    code, out, err = _run(capsys, ["game", "analyze", "--config", _write(tmp_path, "c.json", cfg)])
    assert (code, out, err) == (2, "", "config error: ex-post sweep is limited to 16 blocks\n")
    assert builds == []


# GAME_CONFIG with one-letter commodities, so that a string is also a list of names
LETTER_GAME_CONFIG = json.loads(
    json.dumps(GAME_CONFIG).replace('"oil"', '"a"').replace('"gas"', '"b"')
)


@pytest.mark.parametrize(
    "field, entry",
    [
        ("supply", 5),
        ("supply", [["a"]]),
        ("supply", "ab"),
        ("profile", 3),
        ("profile", [None]),
        ("profile", ["ab"]),
        ("profile", "ab"),
    ],
)
def test_game_config_shapes_are_checked(tmp_path, capsys, field, entry):
    cfg = dict(LETTER_GAME_CONFIG)
    cfg[field] = dict(cfg[field], h1=entry)
    path = _write(tmp_path, "c.json", cfg)
    for command in (["game", "analyze"], ["game", "simulate", "--samples", "50"]):
        code, out, err = _run(capsys, [*command, "--config", path])
        assert code == 2
        assert out == ""
        assert f"{field}.h1" in err


def test_game_payoffs_beyond_float_range_are_a_config_error(tmp_path, capsys):
    # Every value is a float, but the product payoff of 'h1' is not.
    big = {"table": {"": 1e200, "h1": 1e200}}
    cfg = {
        "kind": "game",
        "mode": "float",
        "commodities": ["a", "b"],
        "suppliers": ["h1"],
        "p": {"h1": 0.5},
        "supply": {"h1": ["a", "b"]},
        "payoffs": {"a": big, "b": big},
    }
    path = _write(tmp_path, "c.json", cfg)
    for command in (["game", "analyze"], ["game", "simulate", "--samples", "50"]):
        code, out, err = _run(capsys, [*command, "--config", path])
        assert code == 2
        assert out == ""
        assert "payoffs of 'h1'" in err and "float range" in err
    # The exact game is analyzed exactly, but sampling runs in floats.
    big = {"table": {"": 10**200, "h1": 10**200}}
    exact = dict(cfg, mode="exact", p={"h1": "1/2"}, payoffs={"a": big, "b": big})
    path = _write(tmp_path, "c.json", exact)
    code, out, _ = _run(capsys, ["game", "analyze", "--config", path])
    assert code == 0
    assert json.loads(out)["payoff_tables"]["h1"]["h1:a,b"] == 10**400
    code, out, err = _run(capsys, ["game", "simulate", "--samples", "50", "--config", path])
    assert code == 2
    assert out == ""
    assert "payoffs of 'h1'" in err and "float range" in err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_simulated_estimates_of_huge_payoffs_are_finite(tmp_path, capsys, monkeypatch):
    # Squared deviations of 1e200 and the sum of 1000 samples near 1.7e308
    # leave float range; the estimates do not.
    cfg = {
        "kind": "game",
        "mode": "float",
        "commodities": ["a"],
        "suppliers": ["h1"],
        "p": {"h1": 0.5},
        "supply": {"h1": ["a"]},
    }
    for table, samples in (({"": 0, "h1": 1e200}, "50"), ({"": 1e307, "h1": 1.7e308}, "1000")):
        path = _write(tmp_path, "c.json", dict(cfg, payoffs={"a": {"table": table}}))
        code, out, _ = _run(capsys, ["game", "simulate", "--samples", samples, "--config", path])
        assert code == 0
        est = json.loads(out, parse_constant=_refuse_constant)["per_player"]["h1"]["estimate"]
        assert 0 < est["stderr"] < est["mean"] < 1.7e308
    # A report that still holds a non-finite float is refused, not printed.
    monkeypatch.setattr(cli, "estimate_payoff", lambda *a: EstimateReport(math.inf, 0.0, 50, 0))
    code, out, err = _run(capsys, ["game", "simulate", "--samples", "50", "--config", path])
    assert (code, out) == (2, "")
    assert "JSON" in err


@pytest.mark.parametrize("change", [{"alpha": 1000.0}, {"x": {"1": 1e300}, "alpha": 2}])
def test_float_power_overflow_is_a_config_error(tmp_path, capsys, change):
    with pytest.raises(ValueError, match="overflows"):
        power(4.0, 1000.0)
    cfg = _write(tmp_path, "prod.json", dict(PRODUCTION_CONFIG, **change))
    code, out, err = _run(capsys, ["scenario", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "overflows a float" in err


@pytest.mark.parametrize(
    "value", ["1e400", "9" * 400, 10**400], ids=["exponent", "digit-string", "json-int"]
)
def test_value_beyond_float_range_is_a_config_error(tmp_path, capsys, value):
    table = dict(CONV_CONFIG["f"]["table"], a=value)
    cfg = _write(tmp_path, "conv.json", dict(CONV_CONFIG, mode="float", f={"table": table}))
    code, out, err = _run(capsys, ["convolve", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "f.table.'a'" in err and "float range" in err


@pytest.mark.parametrize("alpha", [100000, "1e400"])
def test_exact_power_past_the_digit_limit_is_refused(tmp_path, capsys, alpha):
    prod = dict(PRODUCTION_CONFIG, mode="exact", p={"1": "1/2"}, alpha=alpha, beta=1)
    cfg = _write(tmp_path, "prod.json", prod)
    code, out, err = _run(capsys, ["scenario", "--config", cfg])
    assert code == 2
    assert out == ""
    assert err == (
        "error: an exact power may exceed 4300 digits: "
        "|exponent| x base bit length is above 14284\n"
    )


FUZZ_EXAMPLES = [
    (["convolve"], CONV_CONFIG),
    (["scenario"], PRODUCTION_CONFIG),
    (["scenario"], MILITARY_CONFIG),
    (["scenario"], MERGER_CONFIG),
    (["game", "analyze"], GAME_CONFIG),
    (["game", "simulate", "--samples", "50"], GAME_CONFIG),
]

_FUZZ_NAMES = st.sampled_from(["", "a", "ab", "1/2", "x"])
FUZZ_VALUES = st.recursive(
    st.sampled_from([None, True, 0, 1, -1, 2.5, 1000.0, 1e308, -1e308, "1e400", 10**400])
    | _FUZZ_NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_FUZZ_NAMES, inner, max_size=3),
    max_leaves=6,
)


def _nodes(obj, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = copy.copy(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


def _node(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _numeric(value) -> bool:
    """A node the config reads as a number: a JSON number or a rational string."""
    try:
        parse_value(value)
    except ValueError:
        return False
    return True


FUZZ_SITES = [(argv, cfg, path) for argv, cfg in FUZZ_EXAMPLES for path in _nodes(cfg)]
# Values aimed at a numeric node: beyond float range, at its edge, negative,
# a zero denominator, not a number.
FUZZ_NUMBERS = st.sampled_from(["1e400", 10**400, 1e308, -1, "1/0", "x"])


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_one_node_changed_gives_a_report_or_a_config_error(tmp_path, capsys, data):
    argv, cfg, path = data.draw(st.sampled_from(FUZZ_SITES), label="site")
    value = data.draw(FUZZ_NUMBERS if _numeric(_node(cfg, path)) else FUZZ_VALUES, label="value")
    bad = _write(tmp_path, "fuzz.json", _replaced(cfg, path, value))
    code = main([*argv, "--config", bad])
    capsys.readouterr()
    assert code in (0, 2)


def test_a_key_error_in_a_command_is_not_a_refusal(monkeypatch, tmp_path):
    # main refuses a ValueError with exit 2.  src/ raises no KeyError
    # (test_package), so one that reaches main is a bug and must surface.
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "_cmd_convolve", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["convolve", "--config", _write(tmp_path, "conv.json", CONV_CONFIG)])


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["convolve"])  # --config is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# A convolution config naming one element "é", in its UTF-8 bytes.
UTF8_CONFIG = (b'{"kind": "convolution", "ground": ["\xc3\xa9"], "p": {"\xc3\xa9": "1/2"}, '
               b'"f": {"constant": 1}, "g": {"constant": 2}}')


@pytest.mark.parametrize("escaped", [False, True])
def test_config_and_outputs_are_utf8_in_any_locale(tmp_path, escaped):
    # Under the C locale Python's default text encoding is ASCII.  A config
    # that escapes the name reads as ASCII; its outputs must still be UTF-8.
    # Each config runs in its default float mode and in exact mode.
    path = tmp_path / "conv.json"
    path.write_bytes(json.dumps(json.loads(UTF8_CONFIG), ensure_ascii=escaped).encode("utf-8"))
    assert escaped or path.read_bytes() == UTF8_CONFIG
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env.pop("PYTHONIOENCODING", None)
    for flags, value in (([], "2.0"), (["--mode", "exact"], "2")):
        out = tmp_path / f"out{len(flags)}"
        proc = subprocess.run(
            [sys.executable, "-m", "riskpool.cli", "convolve", "--config", str(path), *flags,
             "--out", str(out), "--csv"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ground"] == ["é"]
        rows = (out / "convolution.csv").read_bytes().decode("utf-8").splitlines()
        assert rows == ["subset,value", f",{value}", f"é,{value}"]


def test_console_entry_point(tmp_path):
    cfg = _write(tmp_path, "conv.json", CONV_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "riskpool.cli", "convolve", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


# Refusals of the console entry point, config bytes and flags run through
# `python -m riskpool.cli` ("@" is the config's path): each exits 2 with
# nothing on stdout and a first stderr line (for a usage error also a last
# one) that matches.
CONSOLE_REFUSALS = {
    "latin1": (UTF8_CONFIG.replace(b"\xc3\xa9", b"\xe9"), ["convolve", "--config", "@"], "^config error: ", None),
    "unknown-commodity": (
        b'{"kind": "game", "commodities": ["oil"], "suppliers": ["h1"], "p": {"h1": "1/2"}, '
        b'"supply": {"h1": ["oil", "zz"]}, "payoffs": {"oil": {"constant": 1}}}',
        ["game", "analyze", "--config", "@"], "^config error: supply of 'h1': unknown commodity 'zz'", None),
    "nan": (
        b'{"kind": "convolution", "mode": "float", "ground": ["a"], "p": {"a": 0.5}, '
        b'"f": {"table": {"": 0, "a": NaN}}, "g": {"constant": 1}}',
        ["convolve", "--config", "@"], "^config error: f.table.'a': expected a finite number", None),
    "bad-mode": (
        b'{"kind": "convolution", "mode": "weird", "ground": ["a"], "p": {"a": 0.5}, '
        b'"f": {"constant": 1}, "g": {"constant": 1}}',
        ["convolve", "--config", "@", "--mode", "float"],
        "^config error: .*mode must be 'exact' or 'float', got 'weird'", None),
    "csv-without-out": (UTF8_CONFIG, ["convolve", "--config", "@", "--csv"], "^usage: riskpool ", "error: --csv needs --out$"),
}


@pytest.mark.parametrize("name", CONSOLE_REFUSALS)
def test_console_script_refusals(tmp_path, name):
    config, argv, first, last = CONSOLE_REFUSALS[name]
    path = tmp_path / "c.json"
    path.write_bytes(config)
    proc = subprocess.run(
        [sys.executable, "-m", "riskpool.cli", *(str(path) if a == "@" else a for a in argv)],
        capture_output=True,
        text=True,
    )
    lines = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert re.search(first, lines[0]), lines[0]
    assert last is None or re.search(last, lines[-1]), lines[-1]


def test_main_builds_its_parser_once_and_looks_up_commands_when_called(monkeypatch, tmp_path, capsys):
    # main keeps the parser of its first call: a later call builds no
    # ArgumentParser, and still runs the command the module holds then.
    parsers, builds = [], []
    init, build = argparse.ArgumentParser.__init__, cli.build_parser

    def counted_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    cfg = _write(tmp_path, "conv.json", CONV_CONFIG)
    first = _run(capsys, ["convolve", "--config", cfg])
    built = len(parsers)
    assert first[0] == 0 and built > 0
    assert _run(capsys, ["convolve", "--config", cfg]) == first
    assert (len(builds), len(parsers)) == (1, built)

    ran = []
    monkeypatch.setattr(cli, "_cmd_convolve", lambda args: ran.append(args.config) or 0)
    assert main(["convolve", "--config", cfg]) == 0
    assert ran == [cfg]
    assert (len(builds), len(parsers)) == (1, built)


# Calls through one process's main that a parser kept between calls could
# let leak into each other, in order: a usage error, a flag given and then
# left to its default (twice), a config error, and every help text.  "@" is
# the config's path and "@out" the call's --out directory.
STATELESS_CALLS = [
    (UTF8_CONFIG, ["convolve", "--config", "@", "--csv"]),
    (SIMULATE_CONFIG, ["game", "simulate", "--config", "@", "--samples", "2000", "--seed", "9", "--out", "@out"]),
    (SIMULATE_CONFIG, ["game", "simulate", "--config", "@", "--out", "@out"]),
    (UTF8_CONFIG, ["convolve", "--config", "@", "--mode", "exact", "--out", "@out", "--csv"]),
    (UTF8_CONFIG, ["convolve", "--config", "@", "--out", "@out", "--csv"]),
    (CONSOLE_REFUSALS["bad-mode"][0], ["convolve", "--config", "@"]),
    *((None, [*command, "--help"]) for command in (
        [], ["convolve"], ["scenario"], ["game"], ["game", "analyze"], ["game", "simulate"], ["verify"],
    )),
]


def test_calls_in_one_process_answer_as_fresh_processes(monkeypatch, tmp_path, capsys):
    # Exit code, stdout, stderr and --out files of each call, through main
    # in this process and through `python -m riskpool.cli` in a fresh one.
    # Help text wraps at COLUMNS in both.
    monkeypatch.setenv("COLUMNS", "80")
    for idx, (config, argv) in enumerate(STATELESS_CALLS):
        path = tmp_path / f"c{idx}.json"
        if config is not None:
            path.write_bytes(config)
        answers = []
        for side in ("main", "fresh"):
            out = tmp_path / f"out{idx}-{side}"
            args = [str(path) if a == "@" else str(out) if a == "@out" else a for a in argv]
            if side == "main":
                try:
                    code = main(args)
                except SystemExit as exc:
                    code = exc.code
                stdout, stderr = capsys.readouterr()
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "riskpool.cli", *args], capture_output=True, text=True
                )
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}
            answers.append((code, stdout, stderr, files))
        assert answers[0] == answers[1], argv
