"""Multi-supplier shipment game with partition strategies.

Each supplier h owes a set of commodities and chooses how to split it into
shipments; every shipment arrives independently with probability p_h.  The
success tuple records, per commodity, which suppliers' shipment containing
it arrived.  Player payoffs are expectations of products of nonnegative
increasing functions of the success tuple, which is what makes the single
all-in shipment (the coarse partition) a dominant strategy for everyone.

A player's payoff is multilinear in the suppliers' independent arrival
laws, so it is one contraction of the player's payoff products over
arrival patterns with one strategy law per supplier.  Exhaustive analysis
takes the patterns of the finest profile and each supplier's matrix of
strategy laws, giving every profile at once; a single profile takes its
own blocks' patterns, slice by slice, and one law per supplier.  Both are
exact in rational mode and float64 otherwise; anything beyond the stated
caps is an error rather than a silent approximation.  Sampling belongs to
the montecarlo module, which maps sampled arrivals to success tuples with
the same _success_masks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .lattice import CoinVector, SetFunction, is_increasing
from .numerics import Value, argmax_ties, coin_ratio, geq, geq_array, scaled_array

MAX_COMMODITIES = 8
MAX_SUPPLIERS = 6
MAX_TOTAL_BLOCKS = 22
MAX_PROFILES = 10 ** 6


@dataclass(frozen=True)
class PartitionStrategy:
    """One supplier's split of its commodity set into disjoint shipments."""

    blocks: tuple[tuple[str, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[str]]):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in blocks))
        seen: set[str] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty shipment block")
            for k in block:
                if k in seen:
                    raise ValueError(f"commodity {k!r} appears in two blocks")
                seen.add(k)

    @property
    def commodity_set(self) -> frozenset[str]:
        return frozenset(k for b in self.blocks for k in b)


def enumerate_partitions(commodities: Sequence[str]) -> list[PartitionStrategy]:
    """All partitions of the commodity sequence, in canonical block order."""
    items = tuple(commodities)
    if len(set(items)) != len(items):
        raise ValueError("commodities must be distinct")
    if len(items) > MAX_COMMODITIES:
        raise ValueError(f"partition enumeration is limited to {MAX_COMMODITIES} commodities")
    # Restricted growth order (Knuth, TAOCP 4A, 7.2.1.5): each item joins
    # every existing block in turn, then opens a new one, so each partition
    # shows up exactly once and blocks come out ordered by first occurrence.
    parts: list[tuple[tuple[str, ...], ...]] = [()]
    for k in items:
        parts = [p[:b] + (blk + (k,),) + p[b + 1 :] for p in parts for b, blk in enumerate(p + ((),))]
    return [PartitionStrategy(blocks) for blocks in parts]


def coarse_strategy(commodities: Sequence[str]) -> PartitionStrategy:
    """The single-shipment strategy (empty commodity set: no shipment at all)."""
    items = tuple(commodities)
    return PartitionStrategy((items,) if items else ())


def finest_strategy(commodities: Sequence[str]) -> PartitionStrategy:
    """One shipment per commodity."""
    return PartitionStrategy((k,) for k in commodities)


def coarser(p_strat: PartitionStrategy, q_strat: PartitionStrategy) -> bool:
    """True iff every block of q_strat lies inside some block of p_strat."""
    if p_strat.commodity_set != q_strat.commodity_set:
        raise ValueError("strategies cover different commodity sets")
    coarse_sets = [set(b) for b in p_strat.blocks]
    return all(any(set(qb) <= pb for pb in coarse_sets) for qb in q_strat.blocks)


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy per supplier, aligned with the game's supplier order."""

    strategies: tuple[PartitionStrategy, ...]

    def __init__(self, strategies: Iterable[PartitionStrategy]):
        object.__setattr__(self, "strategies", tuple(strategies))

    def replace(self, index: int, strategy: PartitionStrategy) -> "StrategyProfile":
        new = list(self.strategies)
        new[index] = strategy
        return StrategyProfile(new)


@dataclass(frozen=True)
class GameSpec:
    """Commodities, supply sets, coins, and payoff families.

    The suppliers are the labels of the coin vector's ground set.  `supply`
    maps each supplier to its commodities, and `payoffs` map each commodity
    to one function shared by every supplier or to a mapping from supplier
    to function.  Both are stored as tuple rows in supplier order, each
    supply row in commodity order: payoffs[k][h] is the nonnegative
    increasing function F applied to the supplier set that delivered
    commodity k, entering player h's product payoff.
    `symmetric`, computed from the payoffs, is true when they do not depend
    on h, and `exact` when every coin and payoff value is exact.  A float
    spec must keep its payoffs within float range (see _check_float_range).

    The first exhaustive request (check_dominance or find_nash) builds
    every player's payoffs over all profiles at once, one array per player
    (one in all for a symmetric game), and keeps them on the spec; from then
    on expected_payoff and best_replies read them, exact ones as integers
    over one scale per player.  The arrays live and die with the spec and
    take no part in equality, hashing or repr, and a spec derived from
    this one, such as scaled_spec's, starts without them.
    """

    commodities: tuple[str, ...]
    supply: tuple[tuple[str, ...], ...]
    p: CoinVector
    payoffs: tuple[tuple[SetFunction, ...], ...]
    symmetric: bool
    exact: bool
    # (strategy -> axis position per supplier, (payoff array, scale) per player)
    _payoff_arrays: tuple[tuple[dict, ...], tuple[tuple[np.ndarray, int], ...]] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __init__(
        self,
        commodities: Iterable[str],
        supply: Mapping[str, Iterable[str]],
        p: CoinVector,
        payoffs: Mapping[str, SetFunction | Mapping[str, SetFunction]],
    ):
        commodities = tuple(commodities)
        suppliers = p.ground.labels
        if len(set(commodities)) != len(commodities):
            raise ValueError("commodities must be distinct")
        if not suppliers:
            raise ValueError("at least one supplier required")
        if len(commodities) > MAX_COMMODITIES:
            raise ValueError(f"exact analysis is limited to {MAX_COMMODITIES} commodities")
        if len(suppliers) > MAX_SUPPLIERS:
            raise ValueError(f"exact analysis is limited to {MAX_SUPPLIERS} suppliers")
        if set(supply) != set(suppliers):
            raise ValueError("supply must be keyed by exactly the suppliers")
        supply_rows = []
        for h in suppliers:
            owned = tuple(supply[h])
            for k in owned:
                if k not in commodities:
                    raise ValueError(f"supply of {h!r}: unknown commodity {k!r}")
            if len(set(owned)) != len(owned):
                raise ValueError(f"supply of {h!r} names a commodity twice")
            supply_rows.append(tuple(sorted(owned, key=commodities.index)))
        if set(payoffs) != set(commodities):
            raise ValueError("payoffs must be keyed by exactly the commodities")
        rows = []
        for k in commodities:
            entry = payoffs[k]
            if isinstance(entry, SetFunction):
                entry = dict.fromkeys(suppliers, entry)
            elif set(entry) != set(suppliers):
                raise ValueError(f"payoffs for {k!r} must be keyed by the suppliers")
            rows.append(tuple(entry[h] for h in suppliers))
            for f in rows[-1]:
                if f.ground != p.ground:
                    raise ValueError(f"payoff for {k!r} lives on the wrong ground set")
                if any(not geq(v, 0) for v in f.values):
                    raise ValueError(f"payoff for {k!r} takes negative values")
                if not is_increasing(f):
                    raise ValueError(f"payoff for {k!r} is not increasing")
        object.__setattr__(self, "commodities", commodities)
        object.__setattr__(self, "supply", tuple(supply_rows))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "payoffs", tuple(rows))
        object.__setattr__(self, "exact", p.exact and all(f.exact for row in rows for f in row))
        object.__setattr__(self, "symmetric", all(row.count(row[0]) == len(row) for row in rows))
        if not self.exact:
            _check_float_range(self)

    @property
    def suppliers(self) -> tuple[str, ...]:
        return self.p.ground.labels

    def h_index(self, h: str) -> int:
        try:
            return self.suppliers.index(h)
        except ValueError:
            raise ValueError(f"unknown supplier {h!r}") from None

    def k_index(self, k: str) -> int:
        try:
            return self.commodities.index(k)
        except ValueError:
            raise ValueError(f"unknown commodity {k!r}") from None

    def supply_of(self, h: str) -> tuple[str, ...]:
        return self.supply[self.h_index(h)]

    def strategies(self, h: str) -> list[PartitionStrategy]:
        return enumerate_partitions(self.supply_of(h))

    def strategy(self, h: str, blocks: Iterable[Iterable[str]]) -> PartitionStrategy:
        blocks = [sorted(b, key=self.k_index) for b in blocks]
        blocks.sort(key=lambda b: self.k_index(b[0]) if b else -1)
        strat = PartitionStrategy(blocks)
        if strat.commodity_set != set(self.supply_of(h)):
            raise ValueError(f"blocks do not partition the supply set of {h!r}")
        return strat

    def profile(self, blocks_by_supplier: Mapping[str, Iterable[Iterable[str]]]) -> StrategyProfile:
        if set(blocks_by_supplier) != set(self.suppliers):
            raise ValueError("profile must name exactly the suppliers")
        return StrategyProfile(
            self.strategy(h, blocks_by_supplier[h]) for h in self.suppliers
        )

    def coarse_profile(self) -> StrategyProfile:
        return StrategyProfile(coarse_strategy(owned) for owned in self.supply)

    def finest_profile(self) -> StrategyProfile:
        return StrategyProfile(finest_strategy(owned) for owned in self.supply)


def _check_float_range(spec: GameSpec) -> None:
    """Refuse a player h for whom the product over k of max(1, max F_k^h)
    is beyond float range.  It bounds every partial product, in any order,
    so below it every float payoff, sampled product and ex-post row of h
    is finite."""
    for hi, h in enumerate(spec.suppliers):
        try:
            bound = math.prod(max(1.0, float(max(row[hi].values))) for row in spec.payoffs)
        except OverflowError:  # a Fraction beyond float range
            bound = math.inf
        if not math.isfinite(bound):
            raise ValueError(
                f"payoffs of {h!r}: the product over commodities of max(1, max payoff) "
                "is beyond float range"
            )


def _validate_profile(spec: GameSpec, profile: StrategyProfile) -> None:
    if len(profile.strategies) != len(spec.suppliers):
        raise ValueError("profile must contain one strategy per supplier")
    for h, owned, strat in zip(spec.suppliers, spec.supply, profile.strategies):
        if strat.commodity_set != set(owned):
            raise ValueError(f"strategy of {h!r} does not partition its supply set")


# Arrival patterns are swept in slices of this many rows, so one sweep's
# memory stays bounded up to MAX_TOTAL_BLOCKS.
_SLICE_ROWS = 1 << 16


def _arrival_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """Boolean (rows x width) matrix whose row r has column j set iff bit
    width-1-j of r is set: itertools.product order over width bits."""
    return (rows[:, None] >> np.arange(width - 1, -1, -1) & 1).astype(bool)


def _block_columns(spec: GameSpec, profile: StrategyProfile) -> list[int]:
    """Each supplier's first column when the profile's blocks are numbered
    supplier by supplier, then the total number of blocks, after checking
    the profile and the cap on exact enumeration."""
    _validate_profile(spec, profile)
    cols = list(itertools.accumulate((len(s.blocks) for s in profile.strategies), initial=0))
    if cols[-1] > MAX_TOTAL_BLOCKS:
        raise ValueError(f"exact enumeration is limited to {MAX_TOTAL_BLOCKS} shipment blocks")
    return cols


def _pattern_masks(
    spec: GameSpec, base: StrategyProfile, cols: list[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """All 2**blocks block-arrival patterns of base with their success masks.

    cols is _block_columns(spec, base), and pattern r has block j arrived
    iff bit blocks-1-j of r is set: itertools.product order.  Slices of at
    most _SLICE_ROWS patterns come as (pattern numbers, _success_masks of
    their arrival rows).
    """
    total = cols[-1]
    for start in range(0, 1 << total, _SLICE_ROWS):
        r = np.arange(start, min(1 << total, start + _SLICE_ROWS))
        yield r, _success_masks(spec, base, np.split(_arrival_rows(r, total), cols[1:-1], axis=1))


def _success_masks(
    spec: GameSpec, profile: StrategyProfile, arrived: Sequence[np.ndarray]
) -> np.ndarray:
    """Success masks, (rows x commodities), of one boolean (rows x blocks)
    arrival matrix per supplier whose columns are its blocks in the profile:
    entry [r, k] has the bit of every supplier whose block holding k arrived
    in row r.  Masks stay below 2**MAX_SUPPLIERS, so uint8."""
    masks = np.zeros((len(spec.commodities), len(arrived[0])), dtype=np.uint8)
    for gi, (strat, own) in enumerate(zip(profile.strategies, arrived)):
        bits = own.view(np.uint8) << gi
        for c, block in enumerate(strat.blocks):
            for k in block:
                masks[spec.k_index(k)] |= bits[:, c]
    return masks.T


def _table_product(
    tables: Sequence[np.ndarray], masks: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Per row, weights times the product over k of tables[k] at mask [r, k]."""
    for ki, table in enumerate(tables):
        weights = weights * np.take(table, masks[:, ki])
    return weights


def _table_arrays(spec: GameSpec, hi: int) -> tuple[list[np.ndarray], list[int]]:
    """Player hi's payoff tables as numerics.scaled_array makes them, with
    one scale per commodity."""
    scaled = [scaled_array(row[hi].values, spec.exact) for row in spec.payoffs]
    return [tab for tab, _ in scaled], [scale for _, scale in scaled]


def _strategy_law(
    strat: PartitionStrategy, base: PartitionStrategy, ph: Value, exact: bool
) -> np.ndarray:
    """Law of a supplier's block-arrival vector over the blocks of base
    under strat, whose every block is a union of base's blocks.

    Entry x covers the 2**n vectors, n = len(base.blocks), bit n-1-c of x
    marking base.blocks[c] as arrived.  Each block of strat arrives whole
    with probability ph or not at all, so the law vanishes on vectors that
    split one.  Exact laws are integers over den**n, float laws have scale 1.
    """
    win, den = coin_ratio(ph, exact)
    n = len(base.blocks)
    x = np.arange(1 << n)
    pos = {k: n - 1 - c for c, block in enumerate(base.blocks) for k in block}
    choices = np.array([den - win, win, 0], dtype=object if exact else float)
    law = np.full(1 << n, den ** (n - len(strat.blocks)), dtype=choices.dtype)
    for block in strat.blocks:
        bits = sum({1 << pos[k] for k in block})
        hit = x & bits
        law = law * choices[np.where(hit == bits, 1, np.where(hit == 0, 0, 2))]
    return law


def _build_payoff_arrays(
    spec: GameSpec, lists: Sequence[Sequence[PartitionStrategy]]
) -> tuple[tuple[dict, ...], tuple[tuple[np.ndarray, int], ...]]:
    """Every player's payoff at every profile, as (array indexed like
    lists, scale) pairs.

    Player h's tensor T_h[x_1, ..., x_H] = prod over k of F_k^h(S_k(x))
    runs over the commodity-arrival vector x_g of every supplier (the
    finest profile's arrival patterns and masks).  Contracting its axis g
    with the matrix of supplier g's strategy laws, one tensordot per axis,
    leaves the payoff of every profile in itertools.product order.  Exact
    mode contracts denominator-cleared integers and keeps them over one
    scale per player; float arrays have scale 1.  A symmetric game builds
    one array.  There are 2**(sum of supply sizes) cells, and MAX_PROFILES
    already bounds that sum at 21.
    """
    exact = spec.exact
    finest = spec.finest_profile()
    laws, denom = [], 1
    for ph, base, lst in zip(spec.p.p, finest.strategies, lists):
        laws.append(np.array([_strategy_law(s, base, ph, exact) for s in lst]))
        denom *= coin_ratio(ph, exact)[1] ** len(base.blocks)
    masks = np.concatenate([m for _, m in _pattern_masks(spec, finest, _block_columns(spec, finest))])
    arrays = []
    for hi in range(1 if spec.symmetric else len(spec.suppliers)):
        tables, lcms = _table_arrays(spec, hi)
        pay = _table_product(tables, masks, np.ones(len(masks), dtype=object if exact else float))
        pay = pay.reshape([1 << len(owned) for owned in spec.supply])
        for law in laws:
            pay = np.tensordot(pay, law, axes=([0], [1]))
        arrays.append((pay, denom * math.prod(lcms)))
    index = tuple({s: pos for pos, s in enumerate(lst)} for lst in lists)
    return index, tuple(arrays * len(spec.suppliers) if spec.symmetric else arrays)


def expected_payoff(spec: GameSpec, profile: StrategyProfile, h: str) -> Value:
    """E[prod over k of F_k^h(S_k)] under the profile's shipment coins.

    Once an exhaustive request has built the spec's payoff arrays, this
    reads one of their cells, an exact one as a Fraction over h's scale.
    Before that, or for a profile whose strategies are not spelled as
    spec.strategies spells them, it computes h's payoff alone: the same
    contraction with one law per supplier over its own blocks, one slice
    of the profile's arrival patterns at a time.  Exact mode sums integer
    weights times denominator-cleared tables and divides once; float mode
    sums each slice with fsum, then the slices.
    """
    hi = spec.h_index(h)
    if spec._payoff_arrays is not None:
        index, arrays = spec._payoff_arrays
        try:
            cell = tuple([pos[s] for pos, s in zip(index, profile.strategies, strict=True)])
        except (KeyError, ValueError):
            pass
        else:
            pay, scale = arrays[hi]
            return Fraction(pay.item(cell), scale) if spec.exact else pay.item(cell)
    exact = spec.exact
    cols = _block_columns(spec, profile)
    tables, scales = _table_arrays(spec, hi)  # then one scale per law
    laws = []  # per supplier: its law, where its bits sit, and their mask
    for ph, strat, end in zip(spec.p.p, profile.strategies, cols[1:]):
        nb = len(strat.blocks)
        laws.append((_strategy_law(strat, strat, ph, exact), cols[-1] - end, (1 << nb) - 1))
        scales.append(coin_ratio(ph, exact)[1] ** nb)
    parts = []
    for r, masks in _pattern_masks(spec, profile, cols):
        weights = 1
        for law, low, mask in laws:
            weights = weights * law[(r >> low) & mask]
        terms = _table_product(tables, masks, weights)
        parts.append(terms.sum() if exact else math.fsum(terms.tolist()))
    return Fraction(sum(parts), math.prod(scales)) if exact else math.fsum(parts)


def _block_pair(
    spec: GameSpec, profile: StrategyProfile, h: str, i: int, j: int
) -> tuple[int, PartitionStrategy]:
    """Index and strategy of h, after checking that blocks i and j exist."""
    hi = spec.h_index(h)
    _validate_profile(spec, profile)
    strat = profile.strategies[hi]
    nb = len(strat.blocks)
    if nb < 2:
        raise ValueError("conditional comparison needs at least two blocks")
    if i == j or not (0 <= i < nb and 0 <= j < nb):
        raise ValueError("block indices must be distinct and in range")
    return hi, strat


def conditional_block_factors(
    spec: GameSpec,
    profile: StrategyProfile,
    h: str,
    i: int,
    j: int,
    conditioning: Mapping[str, Sequence[bool | None]],
) -> tuple[Value, Value, Value, Value, Value]:
    """Block products (a0, a1, b0, b1, c) of the two-shipment comparison.

    Conditioning fixes the arrival bit of every block other than blocks i
    and j of player h's strategy.  a0/a1 are the products of h's payoff
    factors over block i's commodities without/with h delivering, b0/b1
    the same for block j, and c the product over all other commodities at
    the conditioned outcome.
    """
    hi, strat = _block_pair(spec, profile, h, i, j)
    if not set(conditioning) <= set(spec.suppliers):
        raise ValueError("conditioning names an unknown supplier")

    nk = len(spec.commodities)
    base = [0] * nk
    for gi, (g, gstrat) in enumerate(zip(spec.suppliers, profile.strategies)):
        given = conditioning.get(g)
        if given is None:
            if gstrat.blocks:
                raise ValueError(f"incomplete conditioning: no bits for supplier {g!r}")
            continue
        bits = tuple(given)
        if len(bits) != len(gstrat.blocks):
            raise ValueError(f"conditioning for {g!r} must give one bit per block")
        for bi, (bit, block) in enumerate(zip(bits, gstrat.blocks)):
            if gi == hi and bi in (i, j):
                if bit is not None:
                    raise ValueError("blocks under comparison must be left unconditioned")
            elif not isinstance(bit, bool):
                raise ValueError(f"missing arrival bit for block {bi} of {g!r}")
            elif bit:
                for k in block:
                    base[spec.k_index(k)] |= 1 << gi
    tables = [row[hi].values for row in spec.payoffs]
    hbit = 1 << hi
    block_i = [spec.k_index(k) for k in strat.blocks[i]]
    block_j = [spec.k_index(k) for k in strat.blocks[j]]
    rest = [ki for ki in range(nk) if ki not in block_i and ki not in block_j]

    def prod(indices: list[int], with_h: bool) -> Value:
        out: Value = 1
        for ki in indices:
            out = out * tables[ki][base[ki] | hbit if with_h else base[ki]]
        return out

    a0, a1 = prod(block_i, False), prod(block_i, True)
    b0, b1 = prod(block_j, False), prod(block_j, True)
    c = prod(rest, False)
    return a0, a1, b0, b1, c


def conditional_block_rows(
    spec: GameSpec, profile: StrategyProfile, h: str, i: int, j: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...], tuple[int, ...]]:
    """conditional_payoffs and conditional_block_factors at every conditioning.

    Returns the boolean (rows x blocks) arrival matrix of the conditionings,
    columns the profile's blocks supplier by supplier: h's blocks i and j
    stay False and the other blocks run through itertools.product order.
    Then the rows (separate, merged, a0, a1, b0, b1, c, gain), with gain
    p(1-p)(a1-a0)(b1-b0)c, and their scales: exact rows are integers over
    them, float rows have scale 1 and repeat the scalar order of operations.
    """
    hi, strat = _block_pair(spec, profile, h, i, j)
    cols = _block_columns(spec, profile)
    free = [col for col in range(cols[-1]) if col not in (cols[hi] + i, cols[hi] + j)]
    arrived = np.zeros((1 << len(free), cols[-1]), dtype=bool)
    arrived[:, free] = _arrival_rows(np.arange(len(arrived)), len(free))
    masks = _success_masks(spec, profile, np.split(arrived, cols[1:-1], axis=1))
    tables, lcms = _table_arrays(spec, hi)
    hbit = 1 << hi
    block_i = [spec.k_index(k) for k in strat.blocks[i]]
    block_j = [spec.k_index(k) for k in strat.blocks[j]]
    rest = [ki for ki in range(len(spec.commodities)) if ki not in block_i and ki not in block_j]

    def prod(indices: list[int], with_h: bool) -> np.ndarray:
        own = masks[:, indices] | hbit if with_h else masks[:, indices]
        ones = np.ones(len(arrived), dtype=object if spec.exact else float)
        return _table_product([tables[ki] for ki in indices], own, ones)

    a0, a1, b0, b1, c = (
        prod(block_i, False), prod(block_i, True),
        prod(block_j, False), prod(block_j, True),
        prod(rest, False),
    )
    scale_i, scale_j, scale_c = (
        math.prod(lcms[ki] for ki in ks) for ks in (block_i, block_j, rest)
    )
    win, den = coin_ratio(spec.p.p[hi], spec.exact)
    lose = den - win
    scale = den * den * scale_i * scale_j * scale_c
    rows = (
        (lose * a0 + win * a1) * (lose * b0 + win * b1) * c,
        (lose * (a0 * b0) + win * (a1 * b1)) * c * den,
        a0, a1, b0, b1, c,
        win * lose * (a1 - a0) * (b1 - b0) * c,
    )
    return arrived, rows, (scale, scale, scale_i, scale_i, scale_j, scale_j, scale_c, scale)


def conditional_payoffs(
    spec: GameSpec,
    profile: StrategyProfile,
    h: str,
    i: int,
    j: int,
    conditioning: Mapping[str, Sequence[bool | None]],
) -> tuple[Value, Value]:
    """Conditional expected payoff of h with blocks i, j shipped separately
    (first value) versus merged into one shipment (second value).

    The difference is p(1-p)(a1-a0)(b1-b0)c, hence never negative: merging
    is ex-post optimal, whatever the rest of the realization did.
    """
    a0, a1, b0, b1, c = conditional_block_factors(spec, profile, h, i, j, conditioning)
    ph = spec.p.p[spec.h_index(h)]
    q = 1 - ph
    separate = (q * a0 + ph * a1) * (q * b0 + ph * b1) * c
    merged = (q * (a0 * b0) + ph * (a1 * b1)) * c
    return separate, merged


def best_replies(spec: GameSpec, profile: StrategyProfile, h: str) -> list[PartitionStrategy]:
    """All payoff-maximizing strategies of h against the fixed opponents.

    Ties are returned in full; the coarse strategy is always among them.
    """
    hi = spec.h_index(h)
    _validate_profile(spec, profile)
    candidates = spec.strategies(h)
    values = [
        expected_payoff(spec, profile.replace(hi, cand), h) for cand in candidates
    ]
    return [candidates[idx] for idx in argmax_ties(values)]


@dataclass(frozen=True)
class DominanceViolation:
    """Witness that a coarser strategy paid strictly less somewhere; the
    opponents are the other suppliers' strategies, in supplier order."""

    opponents: tuple[PartitionStrategy, ...]
    better: PartitionStrategy
    worse: PartitionStrategy
    payoff_better: Value
    payoff_worse: Value


def _strategy_lists(spec: GameSpec) -> list[list[PartitionStrategy]]:
    """Every supplier's strategies, the very objects that index the spec's
    payoff arrays.  The first call checks MAX_PROFILES and builds them."""
    if spec._payoff_arrays is None:
        lists = [spec.strategies(h) for h in spec.suppliers]
        total = 1
        for lst in lists:
            total *= len(lst)
        if total > MAX_PROFILES:
            raise ValueError(f"profile space exceeds the {MAX_PROFILES} cap")
        object.__setattr__(spec, "_payoff_arrays", _build_payoff_arrays(spec, lists))
    return [list(pos) for pos in spec._payoff_arrays[0]]


def check_dominance(spec: GameSpec, h: str) -> DominanceViolation | None:
    """Verify that coarsening h's strategy never lowers h's payoff,
    whatever the opponents play.  Returns the first counterexample in
    itertools.product order over the opponents, then over the coarser
    (better, worse) pairs, or None when there is none.  The payoffs read
    through expected_payoff are compared a block of opponents at a time,
    at most _SLICE_ROWS cells a geq_array call; one strategy reads nothing."""
    hi = spec.h_index(h)
    lists = _strategy_lists(spec)
    own = lists[hi]
    better, worse = np.array(
        [(a, b) for a in range(len(own)) for b in range(len(own)) if a != b and coarser(own[a], own[b])],
        dtype=np.intp,
    ).reshape(-1, 2).T
    if not better.size:
        return None
    others = itertools.product(*(lst for gi, lst in enumerate(lists) if gi != hi))
    while block := list(itertools.islice(others, max(1, _SLICE_ROWS // better.size))):
        pays = [[expected_payoff(spec, StrategyProfile(o[:hi] + (s,) + o[hi:]), h) for s in own] for o in block]
        table = scaled_array([v for row in pays for v in row], spec.exact)[0].reshape(len(block), -1)
        # Pairs come in several slices only for one-row blocks, so C order holds.
        for start in range(0, better.size, _SLICE_ROWS):
            a, b = better[start : start + _SLICE_ROWS], worse[start : start + _SLICE_ROWS]
            bad = np.argwhere(~geq_array(table[:, a], table[:, b]))
            if bad.size:
                r, c = bad[0]
                return DominanceViolation(block[r], own[a[c]], own[b[c]], pays[r][a[c]], pays[r][b[c]])
    return None


def find_nash(spec: GameSpec) -> list[StrategyProfile]:
    """All pure-strategy profiles in which every strategy is a best reply."""
    lists = _strategy_lists(spec)
    nash = np.ones([len(lst) for lst in lists], dtype=bool)
    for hi, (pay, _) in enumerate(spec._payoff_arrays[1]):
        nash &= geq_array(pay, pay.max(axis=hi, keepdims=True))
    return [
        StrategyProfile(lists[gi][ci] for gi, ci in enumerate(cell))
        for cell in np.argwhere(nash)
    ]


def scaled_spec(spec: GameSpec, kappa: Mapping[str, Value]) -> GameSpec:
    """Rescale each player's payoff by its own positive factor.

    The factor multiplies one designated payoff family per player (the
    first commodity's), so every product payoff of player h scales by
    exactly kappa[h] and argmax sets are untouched.
    """
    if set(kappa) != set(spec.suppliers):
        raise ValueError("kappa must be keyed by exactly the suppliers")
    for h, k in kappa.items():
        if not k > 0:
            raise ValueError(f"scale factor for {h!r} must be positive")
    if all(kappa[h] == 1 for h in spec.suppliers):
        return spec
    if not spec.commodities:
        raise ValueError("cannot scale a game with no commodities")
    rows = [dict(zip(spec.suppliers, row)) for row in spec.payoffs]
    rows[0] = {h: f * kappa[h] for h, f in rows[0].items()}
    supply = dict(zip(spec.suppliers, spec.supply))
    return GameSpec(spec.commodities, supply, spec.p, dict(zip(spec.commodities, rows)))
