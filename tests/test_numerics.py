"""Value parsing, comparison tolerances, and the shared sum/power helpers."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskpool.convolution import convolve, convolve_bruteforce, harris_gap
from riskpool.lattice import (
    CoinVector,
    GroundSet,
    SetFunction,
    expectation,
    from_moebius_weights,
    is_increasing,
)
from riskpool.numerics import (
    REL_TOL,
    argmax_ties,
    close,
    format_value,
    geq,
    geq_array,
    is_exact,
    parse_value,
    power,
    slack,
    stable_sum,
)
from riskpool.montecarlo import estimate_convolution
from riskpool.partition_game import GameSpec, expected_payoff


def test_is_exact_accepts_int_and_fraction_only():
    assert is_exact(3)
    assert is_exact(Fraction(1, 3))
    assert not is_exact(0.5)
    assert not is_exact(True)  # bool is not a number here


def test_parse_value_forms():
    assert parse_value(7) == 7
    assert parse_value("3/4") == Fraction(3, 4)
    assert parse_value("-2/6") == Fraction(-1, 3)
    assert parse_value("5") == 5
    assert parse_value(0.25) == 0.25
    with pytest.raises(ValueError):
        parse_value("a/b")
    with pytest.raises(ValueError):
        parse_value(True)
    with pytest.raises(ValueError):
        parse_value(None)


def test_format_value_round_trips():
    assert format_value(Fraction(3, 4)) == "3/4"
    assert format_value(Fraction(8, 4)) == 2
    assert format_value(5) == 5
    assert format_value(0.5) == 0.5
    assert parse_value(format_value(Fraction(-7, 3))) == Fraction(-7, 3)


def test_exact_comparisons_have_no_slack():
    assert geq(Fraction(1, 3), Fraction(1, 3))
    assert not geq(Fraction(1, 3) - Fraction(1, 10 ** 30), Fraction(1, 3))
    assert close(2, Fraction(2))
    assert not close(2, Fraction(2) + Fraction(1, 10 ** 30))


def test_float_comparisons_use_relative_and_absolute_floor():
    assert slack(1.0, 1.0) == 1e-9
    assert slack(0.0) == 1e-12
    assert close(1.0, 1.0 + 1e-12)
    assert close(1e9, 1e9 * (1 + 1e-10))
    assert not close(1.0, 1.0 + 1e-6)
    assert geq(1.0 - 1e-13, 1.0)
    assert not geq(1.0 - 1e-6, 1.0)
    # the absolute floor keeps tiny magnitudes comparable
    assert close(0.0, 1e-13)
    assert not close(0.0, 1e-9)


def test_argmax_ties_exact_and_float():
    assert argmax_ties([1, 3, 3, 2]) == [1, 2]
    assert argmax_ties([Fraction(1, 2), Fraction(2, 4)]) == [0, 1]
    vals = [1.0, 1.0 + 1e-13, 0.5]
    assert argmax_ties(vals) == [0, 1]
    with pytest.raises(ValueError):
        argmax_ties([])


def test_argmax_ties_at_the_tolerance_edge():
    # The second value is geq the first, so it ties with the maximum, even
    # though it lies below best - slack(best).
    vals = [6.307879378834871e-13, -3.6921206211651296e-13]
    assert geq(vals[1], vals[0]) and vals[1] < vals[0] - slack(vals[0])
    assert argmax_ties(vals) == [0, 1]


def _ulps(x, k):
    """x moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _near_ties(draw):
    """Floats with maximum `best`, some a few ulps either side of
    best - slack(best)."""
    best = draw(st.floats(-1e3, 1e3) | st.floats(-1e-11, 1e-11))
    cut = best - slack(best)
    near = st.integers(-4, 4).map(lambda k: _ulps(cut, k))
    rest = draw(st.lists(near | st.floats(-2e3, best), max_size=6))
    return draw(st.permutations([best, *rest]))


def test_geq_array_is_geq_at_the_slack_edge():
    # x sits within one ulp of y - slack(x, y) and below y, so |y| > |x|
    # and the slack scales with |y|.  Some pairs fall between the edge of
    # that scale and the edge of a slack scaled by |x| alone.
    rng = random.Random(19)
    ys = [10 ** rng.uniform(-2, 12) for _ in range(3000)]
    pairs = [(_ulps(y - REL_TOL * y, k), y) for y in ys for k in (-1, 0, 1)]
    assert all(abs(y) > abs(x) for x, y in pairs)
    assert any(REL_TOL * x < y - x <= REL_TOL * y for x, y in pairs)
    x, y = (np.array(col) for col in zip(*pairs))
    assert geq_array(x, y).tolist() == [geq(a, b) for a, b in pairs]


_exact_lists = st.lists(
    st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=6
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_near_ties() | _exact_lists)
def test_argmax_ties_is_geq_the_maximum(vals):
    assert argmax_ties(vals) == [i for i, v in enumerate(vals) if geq(v, max(vals))]


def test_stable_sum_dispatch():
    assert stable_sum([Fraction(1, 3)] * 3) == 1
    assert isinstance(stable_sum([1, 2, 3]), int)
    floats = [1e16, 1.0, -1e16]
    assert stable_sum(floats) == math.fsum(floats) == 1.0
    assert stable_sum([]) == 0


def test_power_conventions():
    assert power(0, Fraction(1, 2)) == 0
    assert power(0.0, 0.5) == 0
    assert power(4, 2) == 16
    assert power(Fraction(2, 3), 2) == Fraction(4, 9)
    assert power(4, Fraction(2, 1)) == 16
    assert math.isclose(power(4, 0.5), 2.0)
    assert math.isclose(power(Fraction(9, 1), Fraction(1, 2)), 3.0)


def test_exact_power_size_is_checked_before_computing():
    # 2 has bit length 2, so 2**7142 sits exactly on the bound
    assert power(2, 7142) == 2**7142
    assert power(Fraction(1, 2), Fraction(-7142)) == 2**7142
    for base, expo in ((2, 7143), (Fraction(3, 2), -7143), (7, 10**400), (10**5000, 1)):
        with pytest.raises(ValueError, match="4300 digits"):
            power(base, expo)
    assert power(2, 1000.0) == 2.0**1000  # a float exponent is not bounded here


# -- exactness is decided jointly ---------------------------------------------


_ONE = GroundSet(["h"])
_HUGE = SetFunction(_ONE, (0, 10**400))
_HALF = CoinVector(_ONE, (0.5,))
_BIG = SetFunction(_ONE, (0.0, 1e200))


@pytest.mark.parametrize(
    "call",
    [
        lambda: convolve(_HUGE, _HUGE, _HALF),
        lambda: is_increasing(SetFunction(_ONE, (0.5, 10**400))),
        lambda: expectation(_HUGE, _HALF),
        lambda: harris_gap(_HUGE, _HUGE, _HALF),
        lambda: harris_gap(_HUGE, SetFunction(_ONE, (0.0, 1.0)), _HALF),
        lambda: convolve_bruteforce(_HUGE, _HUGE, _HALF, 1),
        lambda: estimate_convolution(_HUGE, _HUGE, _HALF, 1, 10, 0),
        # finite float tables whose sampled product f(S1) g(S2) is not
        lambda: estimate_convolution(_BIG, _BIG, _HALF, 1, 50, 0),
        lambda: convolve_bruteforce(_BIG, _BIG, _HALF, 1),
    ],
    ids=[
        "convolve", "is_increasing", "expectation", "harris_gap", "harris_gap-float-g",
        "convolve_bruteforce", "estimate_convolution", "estimate_convolution-product",
        "convolve_bruteforce-product",
    ],
)
def test_exact_value_beyond_float_range_in_a_float_call_is_a_value_error(call):
    with pytest.raises(ValueError, match="beyond float range"):
        call()


_WEIGHT = st.builds(Fraction, st.integers(0, 4), st.integers(1, 4))
_SIGNED = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
_COIN = st.builds(Fraction, st.integers(0, 16), st.just(16))


def _floats_at(values, flags):
    """The values, with every flagged entry turned into a float."""
    return tuple(float(v) if flag else v for v, flag in zip(values, flags))


def _agrees(got, exact, mixed):
    """A call on mixed operands gives a float close to the all-exact result;
    on exact operands, the exact result itself."""
    if mixed:
        assert isinstance(got, float) and close(got, exact)
    else:
        assert not isinstance(got, float) and got == exact


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mixed_operands_give_floats_close_to_the_exact_result(data):
    # Exact operands with some entries of f, g, p or the game's payoffs
    # turned into floats.  Every call whose operands hold a float returns
    # floats close to the all-exact result, and every other call stays
    # exact.  The one ValueError: a float game whose product payoffs leave
    # float range, here two factors of at least 10**200.
    n = data.draw(st.integers(1, 3), label="n")
    ground = GroundSet([f"h{i}" for i in range(n)])
    size = 1 << n

    def increasing():
        weights = data.draw(st.lists(_WEIGHT, min_size=size, max_size=size))
        return from_moebius_weights(ground, dict(enumerate(weights)))

    def flags(count):
        return data.draw(st.lists(st.booleans(), min_size=count, max_size=count))

    f = increasing()
    g = SetFunction(ground, data.draw(st.lists(_SIGNED, min_size=size, max_size=size)))
    p = CoinVector(ground, data.draw(st.lists(_COIN, min_size=n, max_size=n)))
    f_at, g_at, p_at = flags(size), flags(size), flags(n)
    mf = SetFunction(ground, _floats_at(f.values, f_at))
    mg = SetFunction(ground, _floats_at(g.values, g_at))
    mp = CoinVector(ground, _floats_at(p.p, p_at))
    in_f, in_g, in_p = any(f_at), any(g_at), any(p_at)

    table = convolve(mf, mg, mp)
    for got, want in zip(table.values, convolve(f, g, p).values):
        _agrees(got, want, in_f or in_g or in_p)
    _agrees(expectation(mf, mp), expectation(f, p), in_f or in_p)
    _agrees(harris_gap(mf, mg, mp), harris_gap(f, g, p), in_f or in_g or in_p)
    assert is_increasing(mf) and is_increasing(mg) == is_increasing(g)

    commodities = [f"k{i}" for i in range(data.draw(st.integers(1, 2), label="commodities"))]
    huge = flags(len(commodities))
    tables = [(increasing() + 1) * (10**200 if big else 1) for big in huge]
    table_at = [flags(size) for _ in commodities]
    mixed = any(map(any, table_at)) or in_p
    mixed_tables = [SetFunction(ground, _floats_at(t.values, at)) for t, at in zip(tables, table_at)]

    def game(coins, payoffs):
        supply = {h: commodities for h in ground.labels}
        return GameSpec(commodities, supply, coins, dict(zip(commodities, payoffs)))

    spec = game(p, tables)

    if mixed and all(huge) and len(huge) == 2:
        with pytest.raises(ValueError, match="float range"):
            game(mp, mixed_tables)
        return
    mspec = game(mp, mixed_tables)
    assert spec.exact and mspec.exact is not mixed
    for profile in (spec.coarse_profile(), spec.finest_profile()):
        for h in ground.labels:
            _agrees(expected_payoff(mspec, profile, h), expected_payoff(spec, profile, h), mixed)
