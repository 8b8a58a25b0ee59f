"""Seeded sampling estimates cross-validating the exact computations.

The repository-wide generator is numpy's PCG64, always constructed through
numpy.random.SeedSequence, so a 64-bit seed determines every draw: the
same seed and sample count give bit-identical reports.

An estimate reads one (samples x width) uniform matrix after another from
generator(seed).  It draws them in slices of partition_game._SLICE_ROWS
rows, each matrix from its own copy of the generator advanced past the
matrices before it (PCG64's jump-ahead), and keeps only the per-sample
values whole.  Generator.random takes one 64-bit output per double, so the
slices hold exactly the rows of the one-piece draw, and the estimates are
bit-identical to it while memory stays bounded in the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .convolution import _check_product_range, _common_ground
from .lattice import CoinVector, SetFunction
from .numerics import float_array
from .partition_game import (
    GameSpec,
    StrategyProfile,
    _SLICE_ROWS,
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


def _coin_slices(
    seed: int, samples: int, coins: Sequence[tuple[int, float | np.ndarray]]
) -> Iterator[tuple[slice, list[np.ndarray]]]:
    """The Bernoulli coin matrices that generator(seed) would draw one after
    another, (samples x width) uniforms below p for each (width, p) of
    coins, in slices of at most _SLICE_ROWS rows: (the slice's rows, one
    boolean matrix per coin).  Coin i reads its own stream, generator(seed)
    advanced past the samples * width uniforms of the coins before it."""
    streams, offset = [], 0
    for width, _ in coins:
        rng = generator(seed)
        rng.bit_generator.advance(offset)
        streams.append(rng)
        offset += samples * width
    for start in range(0, samples, _SLICE_ROWS):
        rows = min(_SLICE_ROWS, samples - start)
        draws = [rng.random((rows, width)) < p for rng, (width, p) in zip(streams, coins)]
        yield slice(start, start + rows), draws


def _sample_masks(
    spec: GameSpec, profile: StrategyProfile, samples: int, seed: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Success masks, (rows x commodities), from a Bernoulli(p_h) coin per
    shipment, slice by slice: (the slice's rows, their masks).  One coin
    matrix per supplier, (samples x blocks), in spec order, so replays with
    an equal seed coincide."""
    coins = [(len(strat.blocks), float(ph)) for ph, strat in zip(spec.p.p, profile.strategies)]
    for rows, arrived in _coin_slices(seed, samples, coins):
        yield rows, _success_masks(spec, profile, arrived)


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
    vals = np.empty(samples)
    for rows, masks in _sample_masks(spec, profile, samples, seed):
        vals[rows] = _table_product(tables, masks, np.ones(len(masks)))
    return _report(vals, samples, seed)


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
    n = f.ground.n
    probs = float_array(p.p)
    # Two full coin matrices are always drawn, so the draw count does not
    # depend on the coupled set; a coupled coin just reuses matrix one.
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    vals = np.empty(samples)
    for rows, (c1, c2) in _coin_slices(seed, samples, [(n, probs)] * 2):
        s1, s2 = c1.astype(np.int64) @ bits, c2.astype(np.int64) @ bits
        vals[rows] = fa[s1] * ga[(s1 & coupled) | (s2 & ~coupled)]
    return _report(vals, samples, seed)
