"""Ground sets, subset tables, the product measure, the coupled pair law,
and monotone families."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from riskpool.convolution import convolve
from riskpool.lattice import (
    CoinVector,
    GroundSet,
    SetFunction,
    all_monotone_indicators,
    expectation,
    from_moebius_weights,
    is_decreasing,
    is_increasing,
    product_measure_table,
    random_increasing,
    up_closure,
)
from riskpool.numerics import ABS_TOL, REL_TOL, close, geq
from riskpool.scenarios import MilitaryScenario


def _ground(n):
    return GroundSet([f"h{i}" for i in range(n)])


# -- ground sets and masks ---------------------------------------------------


def test_ground_set_basics():
    g = GroundSet(["a", "b", "c"])
    assert g.n == 3
    assert g.full == 7
    assert list(g.subsets()) == list(range(8))
    assert g.mask_of(["b"]) == 2
    assert g.mask_of(["a", "c"]) == 5
    assert g.labels_of(5) == ("a", "c")
    assert g.labels_of(0) == ()


def test_ground_set_rejects_bad_input():
    with pytest.raises(ValueError):
        GroundSet(["a", "a"])
    with pytest.raises(ValueError):
        GroundSet([f"x{i}" for i in range(21)])
    g = GroundSet(["a"])
    with pytest.raises(ValueError):
        g.index("z")
    with pytest.raises(ValueError):
        g.mask_of(["a", "a"])
    with pytest.raises(ValueError):
        g.check_mask(2)
    with pytest.raises(ValueError):
        g.check_mask(-1)


# -- set functions -----------------------------------------------------------


def test_ground_set_refusals_name_their_reason():
    with pytest.raises(ValueError, match="labels must be strings"):
        GroundSet([1])
    g = GroundSet(["a"])
    with pytest.raises(ValueError, match="different ground sets"):
        expectation(SetFunction(g, (0, 1)), CoinVector(GroundSet(["b"]), (Fraction(1, 2),)))


def test_setfunction_algebra():
    g = _ground(2)
    f = SetFunction(g, (0, 1, 2, 3))
    h = SetFunction(g, (1, 1, 1, 1))
    assert (f + h).values == (1, 2, 3, 4)
    assert (f - h).values == (-1, 0, 1, 2)
    assert (1 - f).values == (1, 0, -1, -2)
    assert (f * h).values == f.values
    assert (f * 2).values == (0, 2, 4, 6)
    assert (-f).values == (0, -1, -2, -3)
    assert f.map(lambda v: v * v).values == (0, 1, 4, 9)
    assert SetFunction(g, (m % 3 for m in g.subsets())).values == (0, 1, 2, 0)
    assert SetFunction.constant(g, 5).values == (5, 5, 5, 5)
    assert f(3) == 3
    with pytest.raises(ValueError):
        f(9)


def test_setfunction_validation():
    g = _ground(2)
    with pytest.raises(ValueError):
        SetFunction(g, (1, 2, 3))
    with pytest.raises(ValueError):
        SetFunction(g, (1.0, float("nan"), 0.0, 0.0))
    f = SetFunction(g, (0, 1, 2, 3))
    other = SetFunction(_ground(1), (0, 1))
    with pytest.raises(ValueError):
        f + other


def test_monotonicity_predicates():
    g = _ground(2)
    assert is_increasing(SetFunction(g, (0, 1, 1, 2)))
    assert not is_increasing(SetFunction(g, (0, 1, 2, 1)))
    assert is_decreasing(SetFunction(g, (3, 1, 1, 0)))
    assert is_increasing(SetFunction.constant(g, 4))
    assert is_decreasing(SetFunction.constant(g, 4))


def _pairwise_verdict(f, increasing):
    """Monotonicity by `numerics.geq` on every covering pair, one at a time."""
    vals = f.values
    for mask in f.ground.subsets():
        for i in range(f.ground.n):
            if mask >> i & 1:
                continue
            lo, hi = vals[mask], vals[mask | 1 << i]
            if not (geq(hi, lo) if increasing else geq(lo, hi)):
                return False
    return True


def test_float_monotonicity_matches_pairwise_geq_at_the_slack():
    rng = random.Random(61)
    for base in (0.0, 1e-6, 1.0, -3.5, 2e6):
        for n in (1, 3, 5):
            g = _ground(n)
            edge = max(ABS_TOL, REL_TOL * abs(base))
            for side, want in ((1 - 1e-4, True), (1 + 1e-4, False)):
                delta = edge * side
                for _ in range(4):
                    # entry m, below the full set, rises above or sinks under
                    # its supersets by just less or just more than the slack
                    m = rng.randrange((1 << n) - 1)
                    raised = [float(base)] * (1 << n)
                    raised[m] = base + delta
                    sunk = [float(base)] * (1 << n)
                    sunk[m] = base - delta
                    inc, dec = SetFunction(g, raised), SetFunction(g, sunk)
                    assert _pairwise_verdict(inc, True) is want
                    assert is_increasing(inc) is want
                    assert _pairwise_verdict(dec, False) is want
                    assert is_decreasing(dec) is want
    for _ in range(40):
        n = rng.randint(0, 6)
        g = _ground(n)
        f = random_increasing(rng, g, rng.randint(0, 8))
        noisy = f.map(lambda v: v + rng.choice((0.0, 0.0, 1e-10, -1e-10, 0.3)))
        for table in (f, noisy, -f, -noisy):
            assert is_increasing(table) is _pairwise_verdict(table, True)
            assert is_decreasing(table) is _pairwise_verdict(table, False)


def test_exact_monotonicity_matches_pairwise_comparison():
    rng = random.Random(62)
    seen = set()
    for n in range(9):
        g = _ground(n)
        for _ in range(6):
            f = random_increasing(rng, g, rng.randint(0, 8), exact=True, strict=rng.random() < 0.5)
            # integral entries as ints or as Fractions, at random
            f = f.map(lambda v: int(v) if v.denominator == 1 and rng.random() < 0.5 else v)
            # one entry off by 1/10^k: smaller than any strict step, but it
            # breaks a plateau
            off = list(f.values)
            off[rng.randrange(1 << n)] += rng.choice((1, -1)) * Fraction(1, 10 ** rng.randint(1, 12))
            off = SetFunction(g, off)
            for table in (f, off, -f, -off):
                assert table.exact
                inc, dec = is_increasing(table), is_decreasing(table)
                assert inc is _pairwise_verdict(table, True)
                assert dec is _pairwise_verdict(table, False)
                seen.add((inc, dec))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_exactness_flags():
    g = _ground(1)
    assert SetFunction(g, (1, Fraction(1, 2))).exact
    assert not SetFunction(g, (1, 0.5)).exact
    assert CoinVector(g, (Fraction(1, 3),)).exact
    assert not CoinVector(g, (0.3,)).exact


def test_coin_vector_validation():
    g = _ground(2)
    with pytest.raises(ValueError):
        CoinVector(g, (0.5,))
    with pytest.raises(ValueError):
        CoinVector(g, (0.5, 1.5))
    with pytest.raises(ValueError):
        CoinVector(g, (-0.1, 0.5))
    p = CoinVector(g, (Fraction(1, 4), Fraction(1, 2)))
    assert p.p[g.index("h1")] == Fraction(1, 2)


# -- product measure ---------------------------------------------------------


def test_product_measure_worked_example():
    g = _ground(2)
    p = CoinVector(g, (0.3, 0.8))
    table = product_measure_table(p)
    assert close(table[3], 0.24)
    assert close(table[0], 0.7 * 0.2)
    assert close(table[1], 0.3 * 0.2)
    assert close(table[2], 0.7 * 0.8)
    assert close(sum(table), 1)


def test_expectation_worked_example():
    g = _ground(2)
    p = CoinVector(g, (0.3, 0.8))
    size = SetFunction(g, (bin(m).count("1") for m in g.subsets()))
    assert close(expectation(size, p), 1.1)


def test_expectation_matches_oracle_exact():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 9)
        g = _ground(n)
        p = CoinVector(g, [Fraction(rng.randint(0, 6), 6) for _ in range(n)])
        f = SetFunction(g, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in g.subsets()])
        assert expectation(f, p) == oracles.mean(oracles.table_of(f), oracles.probs_of(p))


def test_float_expectation_is_the_fsum_of_the_weighted_table():
    # Float reports must not move by one bit: the fsum of each entry times
    # its product_measure_table weight, degenerate coins included.
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(0, 12)
        g = _ground(n)
        p = CoinVector(g, [rng.choice((0, 1, 0.0, 1.0, rng.random(), rng.random())) for _ in range(n)])
        p = p if not p.exact else CoinVector(g, [float(v) for v in p.p])
        f = SetFunction(g, [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in g.subsets()])
        want = math.fsum(v * w for v, w in zip(f.values, product_measure_table(p)))
        assert expectation(f, p).hex() == want.hex()


# -- coupled pair law --------------------------------------------------------


def _pair_law(p, coupled):
    """P[S1 = a, S2 = b] for every mask pair (a, b): the coupled product of
    the point indicators of a and b, read at the coupled set."""
    g = p.ground
    point = [SetFunction(g, (int(m == a) for m in g.subsets())) for a in g.subsets()]
    return {
        (a, b): convolve(point[a], point[b], p)(coupled)
        for a in g.subsets() for b in g.subsets()
    }


def test_pair_measure_worked_example():
    g = _ground(2)
    p = CoinVector(g, (0.5,) * g.n)
    d = _pair_law(p, g.mask_of(["h0"]))
    # shared coin on h0 heads, free coins on h1 land tails then heads
    assert close(d[(0b01, 0b11)], 0.125)
    assert close(d[(0b10, 0b01)], 0.0)


def test_pair_measure_support_and_marginals():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        g = _ground(n)
        p = CoinVector(g, [Fraction(rng.randint(0, 4), 4) for _ in range(n)])
        coupled = rng.randrange(1 << n)
        d = _pair_law(p, coupled)
        mu = product_measure_table(p)
        for (s1, s2), w in d.items():
            assert w >= 0
            if s1 & coupled != s2 & coupled:  # must agree inside the shared set
                assert w == 0
        for m in g.subsets():
            assert sum(d[(m, s2)] for s2 in g.subsets()) == mu[m]
            assert sum(d[(s1, m)] for s1 in g.subsets()) == mu[m]


def test_pair_measure_matches_coin_enumeration():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 3)
        g = _ground(n)
        p = CoinVector(g, [Fraction(rng.randint(0, 5), 5) for _ in range(n)])
        coupled = rng.randrange(1 << n)
        want = oracles.pair_weights(
            oracles.probs_of(p), frozenset(g.labels_of(coupled))
        )
        got = {
            (frozenset(g.labels_of(s1)), frozenset(g.labels_of(s2))): w
            for (s1, s2), w in _pair_law(p, coupled).items()
            if w != 0
        }
        assert got == want


def test_pair_measure_endpoints():
    g = _ground(2)
    p = CoinVector(g, (Fraction(1, 3), Fraction(2, 5)))
    mu = product_measure_table(p)
    for (s1, s2), w in _pair_law(p, 0).items():
        assert w == mu[s1] * mu[s2]
    for (s1, s2), w in _pair_law(p, g.full).items():
        assert w == (mu[s1] if s1 == s2 else 0)


# -- monotone families -------------------------------------------------------


def test_up_closure_and_membership():
    g = GroundSet(["a", "b", "c"])
    ind = up_closure(g, [g.mask_of(["a"])])
    assert [m for m in g.subsets() if ind.values[m]] == [1, 3, 5, 7]
    assert all(type(v) is int for v in ind.values)
    assert is_increasing(ind)
    rng = random.Random(63)
    for n in range(8):
        g = _ground(n)
        for _ in range(6):
            seeds = [rng.randrange(1 << n) for _ in range(rng.randint(0, 4))]
            assert up_closure(g, seeds).values == _superset_closure(n, seeds)


def _superset_closure(n, seeds):
    """0/1 membership of every mask in the family of supersets of the seeds."""
    return tuple(int(any(s & ~m == 0 for s in seeds)) for m in range(1 << n))


def test_monotone_family_rejects_non_up_closed():
    def military(g, table):
        family = SetFunction(g, table)
        return MilitaryScenario(family, family, CoinVector(g, (0.5,) * g.n))

    g = _ground(2)
    with pytest.raises(ValueError, match="not up-closed"):
        military(g, [0, 1, 0, 0])  # {h0} in, {h0,h1} out
    with pytest.raises(ValueError, match="0/1 valued"):
        military(g, [0, 1, 1, 2])
    # a 0/1 table is accepted iff it equals the closure of its members:
    # check random tables, and closed ones with one mask dropped or added
    rng = random.Random(64)
    verdicts = set()
    for n in range(7):
        g = _ground(n)
        for _ in range(10):
            closed = list(_superset_closure(n, [rng.randrange(1 << n) for _ in range(2)]))
            flipped = list(closed)
            flipped[rng.randrange(1 << n)] ^= 1
            coin = [int(rng.random() < 0.5) for _ in g.subsets()]
            for table in (closed, flipped, coin):
                members = [m for m in g.subsets() if table[m]]
                up_closed = _superset_closure(n, members) == tuple(table)
                verdicts.add(up_closed)
                if up_closed:
                    assert military(g, table).c_red.values == tuple(table)
                else:
                    with pytest.raises(ValueError, match="not up-closed"):
                        military(g, table)
    assert verdicts == {True, False}


def test_all_monotone_indicator_counts():
    # the Dedekind numbers: 2, 3, 6, 20, 168 monotone 0/1 functions on 0-4
    # elements.  Distinct, increasing and as many as there are, they are all
    # of them; listed by ascending code sum(f(m) << m).
    for n, count in ((0, 2), (1, 3), (2, 6), (3, 20), (4, 168)):
        fns = all_monotone_indicators(_ground(n))
        assert len(fns) == count
        assert len({f.values for f in fns}) == count
        assert all(is_increasing(f) for f in fns)
        assert all(type(v) is int and v in (0, 1) for f in fns for v in f.values)
        codes = [sum(v << m for m, v in enumerate(f.values)) for f in fns]
        assert codes == sorted(codes)
    with pytest.raises(ValueError):
        all_monotone_indicators(_ground(5))


# -- transforms and generators -----------------------------------------------


def _pairwise_zeta(n, weights):
    """The zeta transform one covering pair at a time, element by element."""
    tab = [0] * (1 << n)
    for mask, w in weights.items():
        tab[mask] = tab[mask] + w
    for i in range(n):
        for mask in range(1 << n):
            if mask >> i & 1:
                tab[mask] = tab[mask] + tab[mask ^ 1 << i]
    return tab


def test_moebius_weights_accumulate_over_subsets():
    rng = random.Random(3)
    g = _ground(3)
    weights = {m: Fraction(rng.randint(-5, 5)) for m in g.subsets() if rng.random() < 0.7}
    f = from_moebius_weights(g, weights)
    for m in g.subsets():
        want = sum(w for t, w in weights.items() if t & ~m == 0)
        assert f.values[m] == want
    # float weights: the same sums in the same order, so bit for bit
    for n in range(9):
        g = _ground(n)
        for _ in range(4):
            weights = {rng.randrange(1 << n): rng.uniform(-2.0, 2.0) for _ in range(rng.randint(0, 12))}
            want = _pairwise_zeta(n, weights)
            got = from_moebius_weights(g, weights).values
            assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


def test_random_increasing_is_increasing():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 5)
        f = random_increasing(rng, _ground(n), rng.randint(0, 7))
        assert is_increasing(f)
        assert not f.exact  # float mode by default


def test_random_increasing_exact_and_strict():
    rng = random.Random(9)
    for _ in range(20):
        g = _ground(rng.randint(1, 4))
        f = random_increasing(rng, g, rng.randint(0, 6), exact=True, strict=True)
        assert f.exact
        for m in g.subsets():
            for i in range(g.n):
                if not m >> i & 1:
                    assert f.values[m | 1 << i] > f.values[m]


def test_random_increasing_accepts_int_seed():
    g = _ground(3)
    a = random_increasing(random.Random(123), g, 4)
    b = random_increasing(random.Random(123), g, 4)
    assert a.values == b.values
