"""Seeded random instances for property sweeps.

Everything here is driven by a caller-supplied random.Random, so sweeps
replay exactly.  The CLI's verify subcommand and the test suite share
these builders; they produce arbitrary valid instances, with deliberate
coverage of edge cases such as degenerate coins, empty supply sets, and
commodities no one supplies.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .lattice import CoinVector, GroundSet, SetFunction, random_increasing, up_closure
from .numerics import Value
from .partition_game import GameSpec, StrategyProfile
from .scenarios import MergerScenario, MilitaryScenario, TwoInputProduction, weighted_voting


def random_coin_vector(
    rng: random.Random,
    ground: GroundSet,
    *,
    exact: bool = False,
    degenerate: bool = False,
) -> CoinVector:
    """Random per-element probabilities."""

    def draw() -> Value:
        if degenerate and rng.random() < 0.1:
            return (0, 1)[rng.randrange(2)] if exact else float(rng.randrange(2))
        if exact:
            return Fraction(rng.randint(0, 16), 16)
        return rng.random()

    return CoinVector(ground, (draw() for _ in range(ground.n)))


def random_setfunction(
    rng: random.Random, ground: GroundSet, *, exact: bool = False
) -> SetFunction:
    """Arbitrary (not necessarily monotone) values, for algebra checks."""
    if exact:
        return SetFunction(
            ground,
            (Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for _ in ground.subsets()),
        )
    return SetFunction(ground, (rng.uniform(-4.0, 4.0) for _ in ground.subsets()))


def random_monotone_family(rng: random.Random, ground: GroundSet) -> SetFunction:
    """0/1 up-closure of a random seed list; covers empty and full families."""
    count = rng.randint(0, ground.n + 1)
    seeds = [rng.randrange(1 << ground.n) for _ in range(count)]
    return up_closure(ground, seeds)


def random_production(rng: random.Random, ground: GroundSet) -> TwoInputProduction:
    def amount() -> float:
        return 0.0 if rng.random() < 0.15 else rng.uniform(0.0, 5.0)

    return TwoInputProduction(
        x=tuple(amount() for _ in range(ground.n)),
        y=tuple(amount() for _ in range(ground.n)),
        alpha=rng.uniform(0.1, 2.5),
        beta=rng.uniform(0.1, 2.5),
        p=random_coin_vector(rng, ground, degenerate=True),
    )


def random_military(rng: random.Random, ground: GroundSet) -> MilitaryScenario:
    return MilitaryScenario(
        c_red=random_monotone_family(rng, ground),
        c_blue=random_monotone_family(rng, ground),
        p=random_coin_vector(rng, ground, degenerate=True),
    )


def random_voting_rule(rng: random.Random, ground: GroundSet) -> SetFunction:
    """Random 0/1 increasing rule rejecting {} and accepting the full set."""
    if rng.random() < 0.5:
        weights = tuple(rng.randint(0, 5) for _ in range(ground.n))
        total = sum(weights)
        if total == 0:
            weights = (1,) * ground.n
            total = ground.n
        return weighted_voting(ground, weights, rng.randint(1, total))
    count = rng.randint(1, ground.n + 1)
    seeds = [rng.randrange(1, 1 << ground.n) for _ in range(count)] if ground.n else []
    return up_closure(ground, seeds or [ground.full])


def random_merger(rng: random.Random, ground: GroundSet) -> MergerScenario:
    return MergerScenario(
        f_a=random_voting_rule(rng, ground),
        f_b=random_voting_rule(rng, ground),
        p=random_coin_vector(rng, ground, degenerate=True),
    )


def _labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def random_game_spec(
    rng: random.Random,
    *,
    max_commodities: int = 4,
    strict: bool = False,
) -> GameSpec:
    """Random spec at the exhaustive-analysis scale.

    Supply sets are arbitrary subsets of the commodities, so empty supply
    and unsupplied commodities both occur.  With `strict`, payoff families
    are strictly increasing and strictly positive, the regime in which the
    all-coarse profile is the unique equilibrium.
    """
    commodities = _labels("k", rng.randint(1, max_commodities))
    suppliers = _labels("s", rng.randint(1, 3))
    hground = GroundSet(suppliers)
    supply: dict[str, tuple[str, ...]] = {}
    for h in suppliers:
        owned = tuple(k for k in commodities if rng.random() < 0.6)
        if strict and not owned:
            owned = (rng.choice(commodities),)
        supply[h] = owned

    def family() -> SetFunction:
        f = random_increasing(rng, hground, rng.randint(0, 6), exact=True, strict=strict)
        if strict:
            f = f + Fraction(rng.randint(1, 4), rng.randint(1, 4))
        return f

    payoffs = {k: {h: family() for h in suppliers} for k in commodities}
    grid = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    p = CoinVector(hground, (rng.choice(grid) for _ in suppliers))
    return GameSpec(commodities, supply, p, payoffs)


def random_profile(rng: random.Random, spec: GameSpec) -> StrategyProfile:
    """Uniformly random partition choice per supplier."""
    return StrategyProfile(rng.choice(spec.strategies(h)) for h in spec.suppliers)
