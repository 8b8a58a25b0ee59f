"""Risk pooling on Boolean lattices.

Exact convolution of set functions under coupled coin-toss measures, the
correlation inequalities that make pooling optimal, worked decision
scenarios, a multi-supplier partition game with dominance and equilibrium
analysis, and seeded Monte Carlo cross-validation.
"""

from .convolution import (
    convolve,
    convolve_bruteforce,
    harris_gap,
    partition_expectation,
)
from .lattice import (
    CoinVector,
    GroundSet,
    SetFunction,
    all_monotone_indicators,
    expectation,
    is_decreasing,
    is_increasing,
    random_increasing,
    up_closure,
)
from .montecarlo import (
    EstimateReport,
    estimate_convolution,
    estimate_payoff,
    generator,
)
from .partition_game import (
    DominanceViolation,
    GameSpec,
    PartitionStrategy,
    StrategyProfile,
    best_replies,
    check_dominance,
    coarse_strategy,
    coarser,
    conditional_block_factors,
    conditional_block_rows,
    conditional_payoffs,
    enumerate_partitions,
    expected_payoff,
    find_nash,
    finest_strategy,
    scaled_spec,
)
from .scenarios import (
    MergerScenario,
    MilitaryScenario,
    TwoInputProduction,
    merger_table,
    military_tables,
    optimal_strategies,
    production_factors,
    production_table,
    weighted_voting,
)

__version__ = "0.1.0"

__all__ = [
    "CoinVector",
    "DominanceViolation",
    "EstimateReport",
    "GameSpec",
    "GroundSet",
    "MergerScenario",
    "MilitaryScenario",
    "PartitionStrategy",
    "SetFunction",
    "StrategyProfile",
    "TwoInputProduction",
    "all_monotone_indicators",
    "best_replies",
    "check_dominance",
    "coarse_strategy",
    "coarser",
    "conditional_block_factors",
    "conditional_block_rows",
    "conditional_payoffs",
    "convolve",
    "convolve_bruteforce",
    "enumerate_partitions",
    "estimate_convolution",
    "estimate_payoff",
    "expectation",
    "expected_payoff",
    "find_nash",
    "finest_strategy",
    "generator",
    "harris_gap",
    "is_decreasing",
    "is_increasing",
    "merger_table",
    "military_tables",
    "optimal_strategies",
    "partition_expectation",
    "production_factors",
    "production_table",
    "random_increasing",
    "scaled_spec",
    "up_closure",
    "weighted_voting",
]
