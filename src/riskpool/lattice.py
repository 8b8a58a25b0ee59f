"""Power-set machinery.

Subsets of a finite ground set are plain int bitmasks: element i of the
ground set's label tuple corresponds to bit i.  Functions on the power set
are dense tables of length 2**n indexed by mask, and every walk over the
covering pairs (S, S + {i}) is one strided numpy pass per element i.  On
top of that sit the product measure driven by one coin per element,
monotonicity checks, and generators of increasing functions.  An up-closed
family of subsets is its 0/1 indicator table: `up_closure` builds one from
seed subsets, and a 0/1 table is up-closed exactly when it is increasing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .numerics import Value, all_exact, coin_ratio, geq_array, scaled_array

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
            raise ValueError(f"unknown element {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            b = 1 << self.index(lab)
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


def _halves(a: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a table's entries without element i (lo) and with it (hi)
    along its last axis: lo[..., k] and hi[..., k] form the covering pair
    (S, S + {i}).  A flat table and a (B, 2**n) batch of rows split alike,
    each row on its own."""
    v = a.reshape(*a.shape[:-1], -1, 2, 1 << i)
    return v[..., 0, :], v[..., 1, :]


def _zeta(a: np.ndarray, n: int) -> np.ndarray:
    """In place: a[..., S] becomes the sum of a[..., T] over T <= S, element
    by element, in every row of a batch at once."""
    for i in range(n):
        lo, hi = _halves(a, i)
        hi += lo
    return a


def _increasing_rows(table: np.ndarray, n: int) -> np.ndarray:
    """Whether each row of a (..., 2**n) table is increasing on every
    covering pair: exact on `scaled_array`'s integers, within the
    `numerics.geq` slack on float64.  One pass per element for all rows."""
    ok = np.ones(table.shape[:-1], dtype=bool)
    for i in range(n):
        lo, hi = _halves(table, i)
        ok &= geq_array(hi, lo).all(axis=(-2, -1))
    return ok


def is_increasing(f: SetFunction) -> bool:
    """True when f(S) <= f(T) for every S <= T (checked on covering pairs).

    Exact when every entry is exact: the table is cleared of denominators
    and compared as integers.  A table holding any float is compared in
    float64 within the `numerics.geq` slack.
    """
    return bool(_increasing_rows(scaled_array(f.values, f.exact)[0], f.ground.n))


def is_decreasing(f: SetFunction) -> bool:
    """is_increasing of -f.  Negation is exact, and in float64 (-hi) - (-lo)
    is lo - hi bit for bit, with the same slack."""
    return is_increasing(-f)


def up_closure(ground: GroundSet, seeds: Iterable[int]) -> SetFunction:
    """0/1 indicator, with int values, of the smallest up-closed family of
    subsets (every superset of a member is a member) holding the seeds: the
    zeta transform of the seeds' boolean table, on which + is OR."""
    member = np.zeros(1 << ground.n, dtype=bool)
    for s in seeds:
        member[ground.check_mask(s)] = True
    return SetFunction(ground, _zeta(member, ground.n).astype(int).tolist())


def product_measure_table(p: CoinVector) -> list[Value]:
    """Probability of every mask under independent coins, built by doubling."""
    tab: list[Value] = [1]
    for ph in p.p:
        q = 1 - ph
        tab = [w * q for w in tab] + [w * ph for w in tab]
    return tab


def expectation(f: SetFunction, p: CoinVector) -> Value:
    """E[f] under the product measure of p, in one array pass.

    The weights are product_measure_table's doubling over each coin as
    win / den.  Exact mode sums integers and divides once; float mode
    fsums the same float64 products that table's float weights give.
    """
    if f.ground != p.ground:
        raise ValueError("function and coins live on different ground sets")
    exact = f.exact and p.exact
    table, den = scaled_array(f.values, exact)
    weights = np.ones(1, dtype=table.dtype)
    for ph in p.p:
        win, d = coin_ratio(ph, exact)
        weights = np.concatenate([weights * (d - win), weights * win])
        den *= d
    terms = table * weights
    return Fraction(int(terms.sum()), den) if exact else math.fsum(terms.tolist())


def from_moebius_weights(ground: GroundSet, weights: Mapping[int, Value]) -> SetFunction:
    """f(S) = sum of w(T) over T <= S, via an in-place zeta transform."""
    tab = np.zeros(1 << ground.n, dtype=object)
    for mask, w in weights.items():
        tab[ground.check_mask(mask)] = tab[mask] + w
    with np.errstate(over="ignore"):  # a float sum past float range is SetFunction's error
        return SetFunction(ground, _zeta(tab, ground.n).tolist())


def random_increasing(
    rng: random.Random,
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
    increasing.  Deterministic for a given state of rng.
    """
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
    # A table, coded as the bits of an int, is increasing iff its halves
    # without and with the top element are increasing and lo <= hi.  Taking
    # hi in the outer loop keeps the codes ascending.
    codes = [0, 1]
    for i in range(ground.n):
        codes = [lo | hi << (1 << i) for hi in codes for lo in codes if lo & ~hi == 0]
    return [SetFunction(ground, [code >> m & 1 for m in ground.subsets()]) for code in codes]
