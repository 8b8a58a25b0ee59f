"""Shared numeric-mode helpers.

Two value domains coexist throughout the package: exact rationals
(int / fractions.Fraction) for certification runs, and 64-bit floats for
large randomized sweeps.  Comparisons are exact in the rational domain and
tolerance-aware in the float domain; the tolerance is relative with an
absolute floor so that values near zero do not produce spurious failures.

Exactness is decided jointly: a computation is exact only when every
operand is, and one float anywhere makes it float.  The numpy kernels keep
one format for both domains, decided here: `scaled_array` turns a table
into integers over one scale (float64 over 1 in float mode) and
`coin_ratio` a coin into win / den ((p, 1) in float mode), so each kernel
runs one path and an exact result is divided by its scale once.  A float
call converts its exact operands through `float_array`, so an exact value
beyond float range is a ValueError, not an OverflowError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

Value = Union[int, float, Fraction]

REL_TOL = 1e-9
ABS_TOL = 1e-12

# An exact power stays within CPython's default limit of 4,300 digits on
# converting an int to a decimal string, so every exact result can be
# printed: floor(4300 * log2(10)) bits.
_POWER_BITS = 14284


def is_exact(x: Value) -> bool:
    """True for values supporting exact comparison (int or Fraction)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(xs: Iterable[Value]) -> bool:
    return all(is_exact(x) for x in xs)


def slack(*xs: Value) -> float:
    """Comparison slack scaled to the magnitudes involved."""
    scale = max((abs(float(x)) for x in xs), default=0.0)
    return max(ABS_TOL, REL_TOL * scale)


def geq(x: Value, y: Value) -> bool:
    """x >= y, exact for rationals, within tolerance otherwise."""
    if is_exact(x) and is_exact(y):
        return x >= y
    return float(x) - float(y) >= -slack(x, y)


def close(x: Value, y: Value) -> bool:
    """x == y, exact for rationals, within tolerance otherwise."""
    if is_exact(x) and is_exact(y):
        return x == y
    return abs(float(x) - float(y)) <= slack(x, y)


def _slack_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.maximum(ABS_TOL, REL_TOL * np.maximum(np.abs(x), np.abs(y)))


def geq_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """geq elementwise: exact on object arrays of rationals, within
    tolerance on float arrays."""
    if x.dtype == object:
        return x >= y
    return x - y >= -_slack_array(x, y)


def close_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """close elementwise, in the same two regimes as geq_array."""
    if x.dtype == object:
        return x == y
    return np.abs(x - y) <= _slack_array(x, y)


def argmax_ties(values: Sequence[Value]) -> list[int]:
    """Indices whose value is geq the maximum, ascending: exact values tie
    only on equality, floats within the tolerance of geq."""
    t = scaled_array(values, all_exact(values))[0]
    return np.flatnonzero(geq_array(t, t.max())).tolist()


def stable_sum(terms: Sequence[Value]) -> Value:
    """Order-stable summation: plain sum of exact terms, fsum of floats."""
    if all_exact(terms):
        return sum(terms)
    return math.fsum(float(t) for t in terms)


def float_array(values: Sequence[Value]) -> np.ndarray:
    """Values as float64, each rounded once; an exact value beyond float
    range raises ValueError."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValueError("an exact value is beyond float range") from None


def scaled_array(values: Sequence[Value], exact: bool) -> tuple[np.ndarray, int]:
    """Values as one array over a scale: exact values are object-dtype
    integers over the lcm of their denominators, others float64 over 1."""
    if not exact:
        return float_array(values), 1
    lcm = math.lcm(*(v.denominator for v in values))
    return np.array([v.numerator * (lcm // v.denominator) for v in values], dtype=object), lcm


def coin_ratio(p: Value, exact: bool) -> tuple[Value, int]:
    """A coin as win / den: its numerator and denominator when exact,
    otherwise (float(p), 1)."""
    return (p.numerator, p.denominator) if exact else (float(p), 1)


def power(base: Value, expo: Value) -> Value:
    """base**expo with the convention 0**a := 0 for a > 0 (0**0 and 0 to a
    negative power are left to Python: 1 and ZeroDivisionError).

    Stays exact when both operands are rational and the exponent is an
    integer; otherwise falls back to float arithmetic.  Raises ValueError,
    before computing, when an exact result might pass 4,300 digits.
    """
    if base == 0 and expo > 0:
        return 0
    if is_exact(base) and isinstance(expo, (int, Fraction)) and expo.denominator == 1:
        # Neither operand is printed: either may be too long to convert.
        bits = max(base.numerator.bit_length(), base.denominator.bit_length())
        if abs(expo) * bits > _POWER_BITS:
            raise ValueError(
                "an exact power may exceed 4300 digits: "
                f"|exponent| x base bit length is above {_POWER_BITS}"
            )
        return base ** int(expo)
    try:
        return float(base) ** float(expo)
    except OverflowError:
        raise ValueError(f"{base!r} ** {expo!r} overflows a float") from None


def parse_value(raw: object) -> Value:
    """JSON scalar to finite number; strings parse as exact rationals ("3/4")."""
    if isinstance(raw, bool):
        raise ValueError(f"expected a number, got {raw!r}")
    if isinstance(raw, float) and not math.isfinite(raw):
        raise ValueError(f"expected a finite number, got {raw!r}")
    if isinstance(raw, (int, float)):
        return raw
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {raw!r}") from exc
    raise ValueError(f"expected a number, got {raw!r}")


def format_value(x: Value) -> object:
    """Number to JSON scalar; Fractions serialize as "num/den" strings."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
        return f"{x.numerator}/{x.denominator}"
    return x
