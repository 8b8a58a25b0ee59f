"""Seeded sampling: reproducibility, agreement with the exact computations,
and the exact-linearity of power-of-two payoff scaling."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import oracles
import pytest

from riskpool.convolution import convolve
from riskpool.generators import random_coin_vector, random_game_spec, random_profile
from riskpool.lattice import CoinVector, GroundSet, SetFunction, random_increasing
from riskpool.montecarlo import (
    EstimateReport,
    _sample_masks,
    estimate_convolution,
    estimate_payoff,
    generator,
)
from riskpool.partition_game import (
    _SLICE_ROWS,
    MAX_TOTAL_BLOCKS,
    GameSpec,
    expected_payoff,
    scaled_spec,
)

F = Fraction


def _simple_spec(p=F(1, 2)):
    g = GroundSet(["h"])
    return GameSpec(
        commodities=["a", "b"],
        supply={"h": ["a", "b"]},
        p=CoinVector(g, (p,)),
        payoffs={
            "a": SetFunction(g, (1, 2)),
            "b": SetFunction(g, (F(1, 2), 3)),
        },
    )


def test_generator_is_deterministic():
    assert generator(7).random() == generator(7).random()
    assert generator(7).random() != generator(8).random()


def test_report_validation():
    with pytest.raises(ValueError):
        EstimateReport(mean=0.0, stderr=0.0, samples=1, seed=0)
    with pytest.raises(ValueError):
        estimate_payoff(_simple_spec(), _simple_spec().coarse_profile(), "h", 1, 0)


def test_estimate_convolution_needs_two_samples():
    g = GroundSet(["a"])
    f = SetFunction(g, (0, 1))
    with pytest.raises(ValueError, match="at least two samples"):
        estimate_convolution(f, f, CoinVector(g, (F(1, 2),)), 1, samples=1, seed=0)


def test_estimates_are_bit_identical_under_same_seed():
    spec = _simple_spec()
    profile = spec.finest_profile()
    r1 = estimate_payoff(spec, profile, "h", 5000, 123)
    r2 = estimate_payoff(spec, profile, "h", 5000, 123)
    assert r1 == r2
    r3 = estimate_payoff(spec, profile, "h", 5000, 124)
    assert r3.mean != r1.mean


def test_certain_arrival_gives_exact_mean_and_zero_stderr():
    spec = _simple_spec(p=F(1))
    profile = spec.coarse_profile()
    rep = estimate_payoff(spec, profile, "h", 100, 0)
    assert rep.mean == 6.0  # F_a({h}) * F_b({h}) = 2 * 3
    assert rep.stderr == 0.0


def test_estimate_payoff_tracks_exact_value():
    rng = random.Random(131)
    for seed in range(6):
        spec = random_game_spec(rng)
        profile = random_profile(rng, spec)
        h = rng.choice(spec.suppliers)
        exact = float(expected_payoff(spec, profile, h))
        rep = estimate_payoff(spec, profile, h, 40000, seed)
        assert abs(rep.mean - exact) <= 4 * rep.stderr + 1e-12


def test_estimate_convolution_tracks_exact_table():
    rng = random.Random(132)
    for seed in range(6):
        n = rng.randint(1, 4)
        g = GroundSet([f"h{i}" for i in range(n)])
        f = random_increasing(rng, g, rng.randint(1, 6))
        gg = random_increasing(rng, g, rng.randint(1, 6))
        p = random_coin_vector(rng, g)
        mask = rng.randrange(1 << n)
        exact = float(convolve(f, gg, p).values[mask])
        rep = estimate_convolution(f, gg, p, mask, 40000, seed)
        assert abs(rep.mean - exact) <= 4 * rep.stderr + 1e-12


def test_estimate_convolution_draw_count_independent_of_coupling():
    # the same seed must pair the same coin matrices whatever the shared set,
    # so the fully-coupled estimate reuses matrix one entirely
    g = GroundSet(["x", "y"])
    f = SetFunction(g, (0, 1, 1, 2))
    p = CoinVector(g, (0.5,) * g.n)
    full = estimate_convolution(f, f, p, 3, 2000, 9)
    empty = estimate_convolution(f, f, p, 0, 2000, 9)
    assert full.samples == empty.samples == 2000
    # under full coupling the two subsets coincide, so the product is f(S)^2
    assert full.mean >= empty.mean - 4 * (full.stderr + empty.stderr)


def test_estimate_convolution_rebuilt_from_two_draws():
    # S1 reads matrix one; S2 reads matrix one on the coupled elements and
    # matrix two elsewhere.
    g = GroundSet(["x", "y", "z"])
    f = SetFunction(g, (1, 2, 3, 5, 7, 11, 13, 17))
    gg = SetFunction(g, (0.5, 1, 1.5, 2, 4, 8, 16, 32))
    p = CoinVector(g, (0.3, 0.5, 0.8))
    samples = 500
    for coupled in g.subsets():
        rng = generator(21)
        draws = [rng.random((samples, g.n)) < p.p for _ in range(2)]
        s2_draw = [0 if coupled >> i & 1 else 1 for i in range(g.n)]
        vals = np.array([
            f(sum(1 << i for i in range(g.n) if draws[0][k, i]))
            * gg(sum(1 << i for i in range(g.n) if draws[s2_draw[i]][k, i]))
            for k in range(samples)
        ], dtype=float)
        rep = estimate_convolution(f, gg, p, coupled, samples, 21)
        assert rep.mean == float(np.mean(vals))
        assert rep.stderr == float(np.std(vals, ddof=1) / np.sqrt(samples))


def test_power_of_two_scaling_is_bitwise_linear():
    # Also near the top of float range, where the squared deviations
    # (2**600) and the sum of the samples (2**1020) leave it.
    spec = _simple_spec()
    profile = spec.finest_profile()
    base = estimate_payoff(spec, profile, "h", 20000, 77)
    for kappa in (2, 2**600, 2**1020):
        scaled = estimate_payoff(scaled_spec(spec, {"h": kappa}), profile, "h", 20000, 77)
        assert scaled.mean == kappa * base.mean
        assert scaled.stderr == kappa * base.stderr


def test_general_scaling_is_linear_within_tolerance():
    spec = _simple_spec()
    profile = spec.coarse_profile()
    kappa = F(7, 3)
    scaled = scaled_spec(spec, {"h": kappa})
    base = estimate_payoff(spec, profile, "h", 20000, 78)
    other = estimate_payoff(scaled, profile, "h", 20000, 78)
    assert np.isclose(other.mean, float(kappa) * base.mean, rtol=1e-12)


def test_sample_success_respects_block_structure():
    spec = _simple_spec()
    profile = spec.coarse_profile()
    masks = np.concatenate([m for _, m in _sample_masks(spec, profile, 200, 3)])
    assert masks.shape == (200, len(spec.commodities))
    # one shipment carries both commodities: masks agree
    assert (masks[:, 0] == masks[:, 1]).all()
    assert {tuple(row) for row in masks.tolist()} == {(0, 0), (1, 1)}


def test_sample_success_frequencies_are_sane():
    spec = _simple_spec(p=F(3, 4))
    profile = spec.finest_profile()
    trials = 4000
    masks = np.concatenate([m for _, m in _sample_masks(spec, profile, trials, 4)])
    hits = int((masks[:, 0] & 1).sum())
    # expect about 3000; a binomial 6-sigma band keeps this deterministic test safe
    sigma = (trials * 0.75 * 0.25) ** 0.5
    assert abs(hits - trials * 0.75) < 6 * sigma


def test_seeded_streams_are_pinned():
    # Literal draws of the sampler: a rewrite that changes the order in which
    # coins are drawn, or the rule that turns arrivals into masks, breaks them.
    g = GroundSet(["h1", "h2", "h3"])
    shared_oil = SetFunction(g, (0, 1, 1, 2, 1, 2, 2, 3))
    spec = GameSpec(
        commodities=["oil", "gas", "coal"],
        supply={"h1": ["oil", "gas", "coal"], "h2": ["oil", "coal"], "h3": []},
        p=CoinVector(g, (F(1, 2), F(3, 4), F(1, 3))),
        payoffs={
            "oil": {"h1": shared_oil, "h2": SetFunction(g, (1, 1, 2, 2, 1, 1, 2, 2)),
                    "h3": shared_oil},
            "gas": SetFunction(g, (1, 2, 1, 2, 1, 2, 1, 2)),
            "coal": SetFunction(g, (F(1, 2), 1, 2, 3, F(1, 2), 1, 2, 3)),
        },
    )
    profile = spec.profile({"h1": [["oil", "coal"], ["gas"]], "h2": [["oil"], ["coal"]], "h3": []})
    pinned = {
        "h1": (4.2661, 0.05283925203209317),
        "h2": (5.4834, 0.048522734662793186),
        "h3": (4.2661, 0.05283925203209317),
    }
    for h, (mean, stderr) in pinned.items():
        est = estimate_payoff(spec, profile, h, 5000, 11)
        assert (est.mean, est.stderr) == (mean, stderr)


def _six_supplier_spec(rng):
    """Six suppliers, the most a spec takes, over four commodities: s1 owns
    every commodity and s2 none, so its strategy has zero blocks."""
    g = GroundSet([f"s{i}" for i in range(1, 7)])
    ks = ["k1", "k2", "k3", "k4"]
    supply = {"s1": ks, "s2": []}
    supply.update({h: [k for k in ks if rng.random() < 0.6] for h in g.labels[2:]})
    payoffs = {
        k: {h: random_increasing(rng, g, rng.randint(1, 6), exact=True) for h in g.labels}
        for k in ks
    }
    p = CoinVector(g, (F(1, 3), F(1, 2), F(3, 4), F(2, 5), F(1, 4), F(5, 6)))
    return GameSpec(ks, supply, p, payoffs)


SLICE_EDGE_SAMPLES = (2, 3, _SLICE_ROWS - 1, _SLICE_ROWS, _SLICE_ROWS + 1, 2 * _SLICE_ROWS + 1)


@pytest.mark.parametrize("samples", SLICE_EDGE_SAMPLES)
def test_sliced_estimates_equal_the_one_piece_draw(samples):
    # Each supplier's coins come from its own offset stream, slice by slice;
    # the oracle draws every matrix in one piece from one generator.
    rng = random.Random(samples)
    six = _six_supplier_spec(rng)
    for spec in (six, _simple_spec(F(2, 3)), random_game_spec(rng)):
        profiles = (spec.coarse_profile(), spec.finest_profile(), random_profile(rng, spec))
        for profile in profiles:
            h = rng.choice(spec.suppliers)
            seed = rng.randrange(1 << 32)
            est = estimate_payoff(spec, profile, h, samples, seed)
            assert (est.mean, est.stderr) == oracles.sampled_payoff(
                spec, profile, h, samples, seed
            )
    # s2 draws no coin, yet every later supplier's stream starts where the
    # one-piece draw puts it.
    assert len(six.finest_profile().strategies[1].blocks) == 0
    for n in (0, 1, 4):
        g = GroundSet([f"x{i}" for i in range(n)])
        f = random_increasing(rng, g, 5)
        gg = random_increasing(rng, g, 5, exact=True)
        p = random_coin_vector(rng, g)
        for coupled in {0, g.full, rng.randrange(1 << n)}:
            seed = rng.randrange(1 << 32)
            est = estimate_convolution(f, gg, p, coupled, samples, seed)
            assert (est.mean, est.stderr) == oracles.sampled_convolution(
                f, gg, p, coupled, samples, seed
            )


def _finest_spec(owned):
    """Suppliers owning the first owned[i] of max(owned) commodities."""
    g = GroundSet([f"h{i}" for i in range(len(owned))])
    ks = [f"k{c}" for c in range(max(owned))]
    up = SetFunction(g, tuple(1.0 + bin(m).count("1") for m in g.subsets()))
    p = CoinVector(g, tuple(0.5 + 0.05 * i for i in range(g.n)))
    return GameSpec(ks, dict(zip(g.labels, (ks[:n] for n in owned))), p, dict.fromkeys(ks, up))


@pytest.mark.parametrize("owned", [(3, 3, 3, 3), (8, 8, 6)])
def test_estimate_memory_is_bounded_in_the_sample_count(owned):
    # One slice of coins is held at a time: the peak is the one values array
    # (8 MB at 10**6 samples) and the spread that np.std takes of it, not
    # samples x blocks uniforms (96 MB at 12 blocks).
    spec = _finest_spec(owned)
    profile = spec.finest_profile()
    assert sum(len(s.blocks) for s in profile.strategies) in (12, MAX_TOTAL_BLOCKS)
    estimate_payoff(spec, profile, "h0", 1000, 0)
    tracemalloc.start()
    try:
        estimate_payoff(spec, profile, "h0", 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10**6
