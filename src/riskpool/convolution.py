"""Convolution of set functions under the coupled coin-toss measure.

For functions f, g on the power set of H and a coin vector p,

    (f * g)(S) = sum over pairs (S1, S2) of f(S1) g(S2) mu_S(S1, S2),

where mu_S shares one coin per element of S between the two coordinates and
tosses two independent coins per element outside S.  The two extreme values
recover the classical objects: at S = H the expectation of the product, at
S = {} the product of expectations: `partition_expectation` of (f, g) with
one block and with two blocks, whose difference is `harris_gap`.

Two routes are provided on purpose.  `convolve` computes the whole table in
the p-biased Fourier basis prod over i in A of (x_i - p_i): a shared coin
correlates its coordinate with variance p_i (1 - p_i) and two free coins do
not correlate at all, so

    (f * g)(S) = sum over A <= S of f^(A) g^(A) prod over i in A of p_i (1 - p_i),

the noise-stability form <f, T_rho g> with rho = 1_S (O'Donnell, Analysis
of Boolean Functions, ch. 8).  The sum over subsets of S is one fast zeta
transform, so the table costs O(n 2**n).  It runs one path in both numeric
modes: exact tables and coins enter as integers over a scale (see
`numerics.scaled_array` and `numerics.coin_ratio`), float ones over 1.
The same kernel takes a leading batch axis, one coin vector per row, so
many small tables on one ground set cost one pass of numpy calls.
`convolve_bruteforce` evaluates the defining double sum for a single S over
product-measure weight tables, one route in both modes with nothing of the
kernel's, and exists to cross-check the fast route, never to be replaced
by it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .lattice import (
    CoinVector,
    GroundSet,
    SetFunction,
    _halves,
    _zeta,
    expectation,
    product_measure_table,
)
from .numerics import Value, coin_ratio, float_array, scaled_array

MAX_BRUTEFORCE = 10


def _common_ground(p: CoinVector, *fns: SetFunction) -> GroundSet:
    if any(f.ground != p.ground for f in fns):
        raise ValueError("operands live on different ground sets")
    return p.ground


def _check_product_range(fa: np.ndarray, ga: np.ndarray) -> None:
    # Python floats: the bound itself overflows to inf without a warning.
    # It also bounds any sum of the products with weights summing to 1.
    if not math.isfinite(float(np.abs(fa).max()) * float(np.abs(ga).max())):
        raise ValueError("the largest product max|f| max|g| is beyond float range")


def _coupled_sum(fa: np.ndarray, ga: np.ndarray, coins: list[tuple]) -> np.ndarray:
    """The scaled table of f * g from the scaled tables fa and ga.

    coins[i] = (s, c, w_in, w_out).  Per coordinate, the butterfly
      (lo, hi) -> (s lo + c (hi - lo), s (hi - lo))
    takes both tables to p-biased coefficients, each scaled by prod s;
    entry A of the product is then weighted by w_in for i in A and w_out
    otherwise, and a zeta transform sums it over the submasks of S.

    fa and ga are flat 2**n tables with scalar coins, or (B, 2**n) batches
    of rows with one coin per row: s and c as (B, 1, 1) columns, which
    broadcast over each row's halves, and w_in and w_out as (B, 1) columns,
    which broadcast over its weights.  Each row takes the same operations
    as its own flat call.  Overwrites fa and ga.
    """
    for a in (fa, ga):
        for i, (s, c, _, _) in enumerate(coins):
            lo, hi = _halves(a, i)
            hi -= lo
            lo *= s
            lo += c * hi
            hi *= s
    w = np.ones(fa.shape[:-1] + (1,), dtype=fa.dtype)
    for _, _, w_in, w_out in coins:
        w = np.concatenate([w * w_out, w * w_in], axis=-1)
    out = fa * ga
    out *= w
    return _zeta(out, len(coins))


def _scaled_coins(p: CoinVector, exact: bool) -> tuple[list[tuple[Value, Value, Value, Value]], int]:
    # For the coin a/d the butterfly is scaled by d and the weights are
    # a (d - a) inside A and d**2 outside it, so every entry carries d**4
    # per coin.  A float coin is (p, 1): the float run has scale 1.
    coins, den = [], 1
    for ph in p.p:
        a, d = coin_ratio(ph, exact)
        coins.append((d, a, a * (d - a), d * d))
        den *= d**4
    return coins, den


def convolve(f: SetFunction, g: SetFunction, p: CoinVector) -> SetFunction:
    """Full table of f * g: one p-biased butterfly pass per element on f
    and on g, a weighted pointwise product and one zeta transform, O(n 2**n).

    Exact when all inputs are exact, and then every entry is a Fraction;
    otherwise numpy float64, and entries are floats.
    """
    ground = _common_ground(p, f, g)
    exact = f.exact and g.exact and p.exact
    # Each table is integers over its scale, the lcm of its denominators.
    (fa, scale_f), (ga, scale_g) = scaled_array(f.values, exact), scaled_array(g.values, exact)
    coins, den = _scaled_coins(p, exact)
    out = _coupled_sum(fa, ga, coins).tolist()
    den *= scale_f * scale_g
    return SetFunction(ground, [Fraction(x, den) for x in out] if exact else out)


def _distinct(xs: Sequence) -> tuple[list, np.ndarray]:
    """The distinct objects of xs by identity, in first-seen order, and the
    position of each x among them."""
    first: dict[int, int] = {}
    at = [first.setdefault(id(x), len(first)) for x in xs]
    return list({id(x): x for x in xs}.values()), np.array(at, dtype=np.intp)


def _convolve_rows(
    rows: Sequence[tuple[SetFunction, SetFunction, CoinVector]]
) -> tuple[np.ndarray, np.ndarray]:
    """The tables of f * g for rows (f, g, p) on one ground set, from one
    batched `_coupled_sum`: a (B, 2**n) array and each row's scale.

    The batch is one computation, exact when every operand is: its rows
    are integers over their scale, the values `convolve` divides.  Float
    rows are over 1, bit for bit each row's `convolve`.  Rows may share
    operands (an exhaustive sweep pairs every table with every other), so
    each distinct one is scaled once and gathered by index.
    """
    fns, fg = _distinct([h for f, g, _ in rows for h in (f, g)])
    coin_vectors, pi = _distinct([p for _, _, p in rows])
    if len({x.ground for x in fns + coin_vectors}) != 1:
        raise ValueError("rows live on different ground sets")
    exact = all(h.exact for h in fns) and all(p.exact for p in coin_vectors)
    tables = [scaled_array(h.values, exact) for h in fns]
    coin_sets = [_scaled_coins(p, exact) for p in coin_vectors]
    table = np.stack([t for t, _ in tables])
    coins = np.array([c for c, _ in coin_sets], dtype=table.dtype)[pi]
    columns = [
        (coins[:, i, 0, None, None], coins[:, i, 1, None, None], coins[:, i, 2, None], coins[:, i, 3, None])
        for i in range(coins.shape[1])
    ]
    fi, gi = fg.reshape(-1, 2).T
    scales = np.array([s for _, s in tables], dtype=object)
    coin_scales = np.array([d for _, d in coin_sets], dtype=object)
    return _coupled_sum(table[fi], table[gi], columns), scales[fi] * scales[gi] * coin_scales[pi]


def convolve_bruteforce(f: SetFunction, g: SetFunction, p: CoinVector, coupled: int) -> Value:
    """(f * g)(coupled) by the defining double sum over subset pairs.

    Reference implementation: S1 is weighted by the product measure of p,
    and S2 keeps the coupled part of S1 and tosses its own coins only
    outside it.  Terms with f(S1) w(S1) = 0 or a zero weight for S2 are
    skipped, and the rest summed as Python ints and Fractions when every
    operand is exact, in float64 otherwise.  Capped at 10 elements.
    """
    ground = _common_ground(p, f, g)
    ground.check_mask(coupled)
    if ground.n > MAX_BRUTEFORCE:
        raise ValueError(f"convolve_bruteforce is limited to {MAX_BRUTEFORCE} elements")
    exact = f.exact and g.exact and p.exact
    # A coupled element's second coin never lands: S2 = (S1 & coupled) | R.
    free = CoinVector(ground, (0 if coupled >> i & 1 else ph for i, ph in enumerate(p.p)))
    tables = (f.values, g.values, product_measure_table(p), product_measure_table(free))
    fa, ga, w1, w2 = (np.array(t, dtype=object) if exact else float_array(t) for t in tables)
    if not exact:
        _check_product_range(fa, ga)
    fw = fa * w1
    s1, r = np.flatnonzero(fw), np.flatnonzero(w2)
    out = fw[s1] @ (ga[(s1 & coupled)[:, None] | r] @ w2[r])
    return out if exact else float(out)


def harris_gap(f: SetFunction, g: SetFunction, p: CoinVector) -> Value:
    """E[fg] - E[f] E[g] under the product measure.

    Nonnegative whenever f and g are both increasing.
    """
    ground = _common_ground(p, f, g)
    if not (f.exact and g.exact):
        f, g = (SetFunction(ground, float_array(h.values).tolist()) for h in (f, g))
    return partition_expectation((f, g), ((0, 1),), p) - partition_expectation((f, g), ((0,), (1,)), p)


def partition_expectation(
    functions: Sequence[SetFunction], blocks: Sequence[Sequence[int]], p: CoinVector
) -> Value:
    """Product over blocks B of E[prod of functions[i] for i in B].

    The coarsening inequality: for nonnegative increasing functions this
    never decreases when two blocks merge, so the single block, E[prod f_i],
    is the largest value and the singletons, prod E[f_i], the smallest.
    Raises ValueError on an empty block, an index in two blocks, or blocks
    that do not cover range(len(functions)).
    """
    indices = [i for block in blocks for i in block]
    if not all(blocks):
        raise ValueError("empty block")
    if len(set(indices)) != len(indices):
        raise ValueError("an index appears in two blocks")
    if set(indices) != set(range(len(functions))):
        raise ValueError("blocks do not cover the function indices")
    _common_ground(p, *functions)
    out: Value = 1
    for block in blocks:
        prod = functions[block[0]]
        for i in block[1:]:
            prod = prod * functions[i]
        out = out * expectation(prod, p)
    return out
