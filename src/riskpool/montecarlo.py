"""Seeded sampling estimates cross-validating the exact computations.

The repository-wide generator is numpy's PCG64, always constructed through
numpy.random.SeedSequence, so a 64-bit seed determines every draw: the
same seed and sample count give bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import _check_product_range, _common_ground
from .lattice import CoinVector, SetFunction
from .numerics import float_array
from .partition_game import (
    GameSpec,
    StrategyProfile,
    _check_float_range,
    _success_masks,
    _table_product,
    _validate_profile,
)


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("at least two samples required")


def generator(seed: int) -> np.random.Generator:
    """The package's deterministic PRNG: PCG64 keyed by a SeedSequence."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _sample_masks(
    spec: GameSpec, profile: StrategyProfile, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Success masks, (samples x commodities), from a Bernoulli(p_h) coin per
    shipment.  One uniform matrix per supplier, in spec order, so replays
    with an equally-seeded generator coincide."""
    arrived = np.hstack([
        rng.random((samples, len(strat.blocks))) < float(ph)
        for ph, strat in zip(spec.p.p, profile.strategies)
    ])
    return _success_masks(spec, profile, arrived)


def _report(vals: np.ndarray, samples: int, seed: int) -> EstimateReport:
    # The sum and the squared deviations overflow long before the values
    # do: scale values above 2**400 down by a power of two, which is exact,
    # and scale the results back.  Smaller values are not touched.
    shift = max(0, math.frexp(float(max(vals.max(), -vals.min())))[1] - 400)
    if shift:
        vals = np.ldexp(vals, -shift)
    mean = math.ldexp(float(np.mean(vals)), shift)
    stderr = math.ldexp(float(np.std(vals, ddof=1) / np.sqrt(samples)), shift)
    return EstimateReport(mean=mean, stderr=stderr, samples=samples, seed=seed)


def estimate_payoff(
    spec: GameSpec, profile: StrategyProfile, h: str, samples: int, seed: int
) -> EstimateReport:
    """Empirical mean and standard error of player h's product payoff.

    Sampling runs in float64, so an exact spec is refused as a float spec
    would be if its payoffs could leave float range."""
    if samples < 2:
        raise ValueError("at least two samples required")
    hi = spec.h_index(h)
    _validate_profile(spec, profile)
    _check_float_range(spec)
    tables = [np.array(row[hi].values, dtype=float) for row in spec.payoffs]
    masks = _sample_masks(spec, profile, samples, generator(seed))
    return _report(_table_product(tables, masks, np.ones(samples)), samples, seed)


def estimate_convolution(
    f: SetFunction, g: SetFunction, p: CoinVector, coupled: int, samples: int, seed: int
) -> EstimateReport:
    """Empirical mean of f(S1) g(S2) under the coupled-pair sampling.

    This is the sampling route to (f * g)(coupled); it validates the exact
    table at sizes where the brute-force double sum is out of reach.
    Sampling runs in float64, so tables whose largest product
    max|f| max|g| is beyond float range are refused.
    """
    _common_ground(p, f, g).check_mask(coupled)
    if samples < 2:
        raise ValueError("at least two samples required")
    fa, ga = float_array(f.values), float_array(g.values)
    _check_product_range(fa, ga)
    rng = generator(seed)
    n = f.ground.n
    probs = float_array(p.p)
    # Two full coin matrices are always drawn, so the draw count does not
    # depend on the coupled set; a coupled coin just reuses matrix one.
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    s1 = (rng.random((samples, n)) < probs).astype(np.int64) @ bits
    s2 = (rng.random((samples, n)) < probs).astype(np.int64) @ bits
    vals = fa[s1] * ga[(s1 & coupled) | (s2 & ~coupled)]
    return _report(vals, samples, seed)
