"""Worked decision problems driven by the convolution table.

Each scenario asks the same question: a decision maker picks the subset S
of resources whose random availability is pooled (one coin shared by both
sides) while the rest stay independent, and wants the S maximizing an
objective of the form (f * g)(S).  Because the objectives here are built
from increasing functions, the full pool S = H is always among the optima.
A model's ground set H is that of its coin vector, `sc.p.ground`.

The strike and merger models couple two 0/1 increasing functions: the
indicators of the critical site families, and the two boards' voting
rules.  Both are plain `SetFunction` tables, checked on construction;
`weighted_voting` builds a threshold rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .convolution import _common_ground, convolve
from .lattice import CoinVector, GroundSet, SetFunction, is_increasing
from .numerics import Value, all_exact, argmax_ties, geq, geq_array, is_exact, power, scaled_array, stable_sum


@dataclass(frozen=True)
class TwoInputProduction:
    """Two plants with Cobb-Douglas-style output from delivered inputs.

    Supplier h ships x[h] of the first input and y[h] of the second when
    its delivery succeeds.  Plant outputs are (sum x)**alpha and
    (sum y)**beta over the suppliers that delivered, with 0**a := 0.
    An exact (int or Fraction) exponent must be an integer, so that exact
    inputs give an exact table; a fractional power needs a float exponent.
    """

    x: tuple[Value, ...]
    y: tuple[Value, ...]
    alpha: Value
    beta: Value
    p: CoinVector

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))
        if len(self.x) != self.p.ground.n or len(self.y) != self.p.ground.n:
            raise ValueError("one x and one y quantity per supplier required")
        if any(not geq(v, 0) for v in self.x + self.y):
            raise ValueError("input quantities must be nonnegative")
        if not self.alpha > 0 or not self.beta > 0:
            raise ValueError("exponents must be positive")
        for name in ("alpha", "beta"):
            expo = getattr(self, name)
            if is_exact(expo) and expo.denominator != 1:
                raise ValueError(
                    f"{name}: an exact exponent must be an integer exponent, got {expo}; "
                    "fractional powers are computed in floats, so give a float"
                )


def _additive_table(ground: GroundSet, amounts: tuple[Value, ...]) -> list[Value]:
    totals: list[Value] = [0] * (1 << ground.n)
    for mask in range(1, 1 << ground.n):
        low = mask & -mask
        totals[mask] = totals[mask ^ low] + amounts[low.bit_length() - 1]
    return totals


def production_factors(sc: TwoInputProduction) -> tuple[SetFunction, SetFunction]:
    """The two plant-output functions F1(T) = (sum x)**alpha and F2."""
    ground = sc.p.ground
    xs = _additive_table(ground, sc.x)
    ys = _additive_table(ground, sc.y)
    f1 = SetFunction(ground, (power(v, sc.alpha) for v in xs))
    f2 = SetFunction(ground, (power(v, sc.beta) for v in ys))
    return f1, f2


def production_table(sc: TwoInputProduction) -> SetFunction:
    """Expected product of the two plant outputs for every pooling set S."""
    f1, f2 = production_factors(sc)
    return convolve(f1, f2, sc.p)


@dataclass(frozen=True)
class MilitaryScenario:
    """Two strike plans succeed when the surviving sites hit a critical family.

    c_red and c_blue are the 0/1 indicators of up-closed families of site
    subsets, so 0/1 increasing functions; a plan succeeds exactly when the
    set of available sites (for the coordinate assigned to it) lies in its
    family.  Pooling sites in S makes their availability common to both
    plans.
    """

    c_red: SetFunction
    c_blue: SetFunction
    p: CoinVector

    def __post_init__(self):
        _common_ground(self.p, self.c_red, self.c_blue)
        for f in (self.c_red, self.c_blue):
            _check_increasing_indicator(f, "critical family", "is not up-closed")


def military_tables(sc: MilitaryScenario) -> tuple[SetFunction, SetFunction, SetFunction]:
    """Tables of P[both plans succeed], P[neither], P[exactly one].

    Both-success is f * g for the family indicators; neither-success is
    (1-f) * (1-g), which equals (f-1) * (g-1) and is therefore increasing
    in S as well; exactly-one is the complement and decreases in S.
    """
    f, g = sc.c_red, sc.c_blue
    both = convolve(f, g, sc.p)
    neither = convolve(1 - f, 1 - g, sc.p)
    one = 1 - both - neither
    return both, neither, one


@dataclass(frozen=True)
class MergerScenario:
    """Two boards vote on a merger; approval needs a yes from both.

    f_a and f_b are 0/1 increasing voting rules with f({}) = 0 and
    f(H) = 1 over the shareholders present.  Pooling shareholders in S
    means those attend both meetings or neither.
    """

    f_a: SetFunction
    f_b: SetFunction
    p: CoinVector

    def __post_init__(self):
        _common_ground(self.p, self.f_a, self.f_b)
        for f in (self.f_a, self.f_b):
            _check_increasing_indicator(f, "voting rule", "must be increasing")
            if f.values[0] != 0 or f.values[-1] != 1:
                raise ValueError("voting rule must reject {} and accept the full set")


def _check_increasing_indicator(f: SetFunction, name: str, not_increasing: str) -> None:
    if any(v != 0 and v != 1 for v in f.values):
        raise ValueError(f"{name} must be 0/1 valued")
    if not is_increasing(f):
        raise ValueError(f"{name} {not_increasing}")


def merger_table(sc: MergerScenario) -> SetFunction:
    """Probability that both boards approve, for every pooled block S."""
    return convolve(sc.f_a, sc.f_b, sc.p)


def weighted_voting(ground: GroundSet, weights: Sequence[Value], quota: Value) -> SetFunction:
    """Threshold voting rule: yes (1) iff the present weight reaches the quota."""
    weights = tuple(weights)
    if len(weights) != ground.n:
        raise ValueError("one weight per voter required")
    if any(not geq(w, 0) for w in weights):
        raise ValueError("voter weights must be nonnegative")
    if not 0 < quota <= stable_sum(weights):
        raise ValueError("quota must lie in (0, total weight]")
    # One comparison of every total with the quota: exact when the weights
    # and the quota all are, in float64 otherwise.
    t = scaled_array(_additive_table(ground, weights) + [quota], all_exact(weights + (quota,)))[0]
    return SetFunction(ground, geq_array(t[:-1], t[-1]).astype(int).tolist())


def optimal_strategies(table: SetFunction) -> list[int]:
    """Masks maximizing the table, ascending; ties resolved by the numeric mode."""
    return argmax_ties(table.values)
