"""Power-set machinery.

Subsets of a finite ground set are plain int bitmasks: element i of the
ground set's label tuple corresponds to bit i.  Functions on the power set
are dense tables of length 2**n indexed by mask.  On top of that sit the
product measure driven by one coin per element, monotonicity checks,
up-closed families, and generators of increasing functions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .numerics import ABS_TOL, REL_TOL, Value, all_exact, stable_sum

MAX_GROUND = 20


@dataclass(frozen=True)
class GroundSet:
    """Ordered finite set of distinct labels; label i maps to bit i."""

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        object.__setattr__(self, "labels", tuple(labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("ground-set labels must be distinct")
        if not all(isinstance(x, str) for x in self.labels):
            raise ValueError("ground-set labels must be strings")
        if len(self.labels) > MAX_GROUND:
            raise ValueError(f"ground sets above {MAX_GROUND} elements are not supported")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def subsets(self) -> range:
        return range(1 << self.n)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown element {label!r}") from None

    def bit(self, label: str) -> int:
        return 1 << self.index(label)

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            b = self.bit(lab)
            if mask & b:
                raise ValueError(f"repeated element {lab!r}")
            mask |= b
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def check_mask(self, mask: int) -> int:
        if not isinstance(mask, int) or mask < 0 or mask > self.full:
            raise ValueError(f"not a subset mask of this ground set: {mask!r}")
        return mask


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class CoinVector:
    """Per-element success probabilities in [0, 1] over a ground set."""

    ground: GroundSet
    p: tuple[Value, ...]

    def __init__(self, ground: GroundSet, p: Iterable[Value]):
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "p", tuple(p))
        if len(self.p) != ground.n:
            raise ValueError("one probability per ground-set element required")
        for v in self.p:
            if not 0 <= v <= 1:
                raise ValueError(f"probability out of range: {v!r}")

    @classmethod
    def uniform(cls, ground: GroundSet, prob: Value) -> "CoinVector":
        return cls(ground, (prob,) * ground.n)

    def of(self, label: str) -> Value:
        return self.p[self.ground.index(label)]

    @property
    def exact(self) -> bool:
        return all_exact(self.p)


@dataclass(frozen=True)
class SetFunction:
    """Real-valued function on the power set, stored densely by mask."""

    ground: GroundSet
    values: tuple[Value, ...]

    def __init__(self, ground: GroundSet, values: Iterable[Value]):
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "values", tuple(values))
        if len(self.values) != 1 << ground.n:
            raise ValueError("value table must have one entry per subset")
        for v in self.values:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r}")

    def __call__(self, mask: int) -> Value:
        return self.values[self.ground.check_mask(mask)]

    @classmethod
    def constant(cls, ground: GroundSet, c: Value) -> "SetFunction":
        return cls(ground, (c,) * (1 << ground.n))

    @classmethod
    def from_callable(cls, ground: GroundSet, fn: Callable[[int], Value]) -> "SetFunction":
        return cls(ground, (fn(m) for m in ground.subsets()))

    @property
    def exact(self) -> bool:
        return all_exact(self.values)

    def map(self, fn: Callable[[Value], Value]) -> "SetFunction":
        return SetFunction(self.ground, (fn(v) for v in self.values))

    def _zip(self, other: "SetFunction | Value", op: Callable[[Value, Value], Value]) -> "SetFunction":
        if isinstance(other, SetFunction):
            if other.ground != self.ground:
                raise ValueError("set functions live on different ground sets")
            pairs = zip(self.values, other.values)
        else:
            pairs = ((v, other) for v in self.values)
        return SetFunction(self.ground, (op(a, b) for a, b in pairs))

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._zip(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._zip(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return self.map(lambda v: -v)


def _covering_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Every covering pair (S, S + {i}) of the n-element lattice, element by
    element, with S ascending within each element."""
    size = 1 << n
    for i in range(n):
        bit = 1 << i
        for base in range(0, size, bit << 1):
            for mask in range(base, base + bit):
                yield mask, mask | bit


def _is_monotone(f: SetFunction, increasing: bool) -> bool:
    # All-exact tables compare exactly, pair by pair.  Any other table is
    # compared in float64 with the slack of `numerics.geq`, one strided
    # numpy pass per element.
    vals = f.values
    n = f.ground.n
    if all_exact(vals):
        if increasing:
            return all(vals[hi] >= vals[lo] for lo, hi in _covering_pairs(n))
        return all(vals[lo] >= vals[hi] for lo, hi in _covering_pairs(n))
    table = np.array(vals, dtype=float)
    for i in range(n):
        v = table.reshape(-1, 2, 1 << i)
        lo, hi = v[:, 0, :], v[:, 1, :]
        step = hi - lo if increasing else lo - hi
        slack = np.maximum(ABS_TOL, REL_TOL * np.maximum(np.abs(hi), np.abs(lo)))
        if not np.all(step >= -slack):
            return False
    return True


def is_increasing(f: SetFunction) -> bool:
    """True when f(S) <= f(T) for every S <= T (checked on covering pairs).

    Exact when every entry is exact; a table holding any float is compared
    in float64 within the `numerics.geq` slack.
    """
    return _is_monotone(f, True)


def is_decreasing(f: SetFunction) -> bool:
    return _is_monotone(f, False)


@dataclass(frozen=True)
class MonotoneFamily:
    """Up-closed family of subsets: every superset of a member is a member."""

    ground: GroundSet
    member: tuple[bool, ...]

    def __init__(self, ground: GroundSet, member: Iterable[bool]):
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "member", tuple(bool(b) for b in member))
        if len(self.member) != 1 << ground.n:
            raise ValueError("membership table must have one entry per subset")
        member = self.member
        if any(member[lo] and not member[hi] for lo, hi in _covering_pairs(ground.n)):
            raise ValueError("family is not up-closed")

    def __contains__(self, mask: int) -> bool:
        return self.member[self.ground.check_mask(mask)]

    def masks(self) -> list[int]:
        return [m for m in self.ground.subsets() if self.member[m]]

    def indicator(self) -> SetFunction:
        return SetFunction(self.ground, (int(b) for b in self.member))


def up_closure(ground: GroundSet, seeds: Iterable[int]) -> MonotoneFamily:
    """Smallest up-closed family containing the given seed subsets."""
    member = bytearray(1 << ground.n)
    for s in seeds:
        member[ground.check_mask(s)] = 1
    for lo, hi in _covering_pairs(ground.n):
        if member[lo]:
            member[hi] = 1
    return MonotoneFamily(ground, member)


def product_measure_table(p: CoinVector) -> list[Value]:
    """Probability of every mask under independent coins, built by doubling."""
    tab: list[Value] = [1]
    for ph in p.p:
        q = 1 - ph
        tab = [w * q for w in tab] + [w * ph for w in tab]
    return tab


def expectation(f: SetFunction, p: CoinVector) -> Value:
    """E[f] under the product measure of p."""
    if f.ground != p.ground:
        raise ValueError("function and coins live on different ground sets")
    tab = product_measure_table(p)
    return stable_sum([v * w for v, w in zip(f.values, tab)])


def _subset_weights(p: CoinVector, mask: int) -> dict[int, Value]:
    """Coin weights of all submasks of mask, zero-probability ones dropped."""
    weights: dict[int, Value] = {0: 1}
    for i, ph in enumerate(p.p):
        if not mask >> i & 1:
            continue
        bit = 1 << i
        q = 1 - ph
        nxt: dict[int, Value] = {}
        for m, w in weights.items():
            if q != 0:
                nxt[m] = w * q
            if ph != 0:
                nxt[m | bit] = w * ph
        weights = nxt
    return weights


def from_moebius_weights(ground: GroundSet, weights: Mapping[int, Value]) -> SetFunction:
    """f(S) = sum of w(T) over T <= S, via an in-place zeta transform."""
    tab: list[Value] = [0] * (1 << ground.n)
    for mask, w in weights.items():
        tab[ground.check_mask(mask)] = tab[mask] + w
    for lo, hi in _covering_pairs(ground.n):
        tab[hi] = tab[hi] + tab[lo]
    return SetFunction(ground, tab)


def random_increasing(
    rng: random.Random | int,
    ground: GroundSet,
    weight_count: int,
    *,
    exact: bool = False,
    strict: bool = False,
) -> SetFunction:
    """Random nonnegative increasing function from nonnegative lattice weights.

    Draws `weight_count` weighted subsets and accumulates their zeta
    transform, so monotonicity holds by construction.  With `strict`, every
    singleton receives a positive weight, which makes the function strictly
    increasing.  Deterministic for a given seed.
    """
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    weights: dict[int, Value] = {}
    size = 1 << ground.n

    def draw() -> Value:
        if exact:
            return Fraction(rng.randint(0, 24), rng.randint(1, 8))
        return rng.uniform(0.0, 2.0)

    for _ in range(weight_count):
        t = rng.randrange(size)
        weights[t] = weights.get(t, 0) + draw()
    if strict:
        for i in range(ground.n):
            bit = 1 << i
            bump: Value = Fraction(rng.randint(1, 8), rng.randint(1, 4)) if exact else rng.uniform(0.1, 1.0)
            weights[bit] = weights.get(bit, 0) + bump
    f = from_moebius_weights(ground, weights)
    if not exact:
        f = f.map(float)
    return f


def all_monotone_indicators(ground: GroundSet) -> list[SetFunction]:
    """Every 0/1 increasing function on the ground set.  Exhaustive, so the
    ground set is capped at 4 elements."""
    if ground.n > 4:
        raise ValueError("exhaustive monotone enumeration is limited to 4 elements")
    size = 1 << ground.n
    pairs = list(_covering_pairs(ground.n))
    out: list[SetFunction] = []
    for code in range(1 << size):
        vals = [code >> m & 1 for m in range(size)]
        if all(vals[lo] <= vals[hi] for lo, hi in pairs):
            out.append(SetFunction(ground, vals))
    return out
