"""Production, military, and merger models: pinned worked examples, the
monotonicity claims, and cross-checks against the generic coupled product."""

import random
from fractions import Fraction

import pytest

import oracles
from riskpool.convolution import convolve
from riskpool.generators import (
    random_merger,
    random_military,
    random_production,
    random_voting_rule,
)
from riskpool.lattice import (
    CoinVector,
    GroundSet,
    SetFunction,
    is_decreasing,
    is_increasing,
    up_closure,
)
from riskpool.numerics import REL_TOL, close, geq
from riskpool.scenarios import (
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


def _ground(n):
    return GroundSet([f"h{i}" for i in range(n)])


# -- two-input production -----------------------------------------------------


def test_production_single_supplier_worked_example():
    g = _ground(1)
    sc = TwoInputProduction((4,), (9,), 0.5, 0.5, CoinVector(g, (0.5,)))
    table = production_table(sc)
    assert close(table(1), 3.0) and close(table(0), 1.5)
    assert 1 in optimal_strategies(table)


def test_production_factors_are_powers_of_sums():
    g = _ground(2)
    sc = TwoInputProduction((4, 5), (9, 7), 2, 1, CoinVector(g, (Fraction(1, 2),) * g.n))
    f1, f2 = production_factors(sc)
    assert f1.values == (0, 16, 25, 81)
    assert f2.values == (0, 9, 7, 16)
    assert is_increasing(f1) and is_increasing(f2)


def test_production_certain_delivery_is_constant():
    g = _ground(2)
    sc = TwoInputProduction((1, 2), (3, 4), 0.5, 1.5, CoinVector(g, (1,) * g.n))
    table = production_table(sc)
    assert all(close(v, table.values[0]) for v in table.values)


def test_production_matches_oracle():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(1, 3)
        g = _ground(n)
        sc = random_production(rng, g)
        table = production_table(sc)
        x = dict(zip(g.labels, sc.x))
        y = dict(zip(g.labels, sc.y))
        probs = oracles.probs_of(sc.p)
        for m in g.subsets():
            want = oracles.production_value(
                x, y, sc.alpha, sc.beta, probs, frozenset(g.labels_of(m))
            )
            assert close(table.values[m], want)


def test_production_validation():
    g = _ground(1)
    p = CoinVector(g, (0.5,))
    with pytest.raises(ValueError):
        TwoInputProduction((-1,), (1,), 1, 1, p)
    with pytest.raises(ValueError):
        TwoInputProduction((1,), (1,), 0, 1, p)
    with pytest.raises(ValueError):
        TwoInputProduction((1,), (1,), 1, -2, p)
    with pytest.raises(ValueError):
        TwoInputProduction((1, 2), (1,), 1, 1, p)


def test_production_refuses_fractional_exact_exponent():
    g = _ground(2)
    p = CoinVector(g, (Fraction(1, 2), Fraction(3, 4)))
    for field in ("alpha", "beta"):
        expos = {"alpha": 2, "beta": 1, field: Fraction(1, 2)}
        with pytest.raises(ValueError, match=f"{field}.*integer exponent"):
            TwoInputProduction((4, 1), (9, 0), p=p, **expos)
    # an integral Fraction stays exact; a float exponent still falls back to float
    exact = production_table(TwoInputProduction((4, 1), (9, 0), Fraction(2), 1, p))
    assert exact.exact and exact.values[-1] == Fraction(3, 8) * 25 * 9 + Fraction(1, 8) * 16 * 9
    floats = production_table(TwoInputProduction((4, 1), (9, 0), 0.5, 1, p))
    assert not floats.exact and all(isinstance(v, float) for v in floats.values)


def test_production_increasing_random():
    rng = random.Random(62)
    for _ in range(30):
        n = rng.randint(1, 4)
        sc = random_production(rng, _ground(n))
        table = production_table(sc)
        assert is_increasing(table)
        assert sc.p.ground.full in optimal_strategies(table)


# -- military strike ----------------------------------------------------------


def test_military_single_site_worked_example():
    g = _ground(1)
    fam = up_closure(g, [1])
    sc = MilitaryScenario(fam, fam, CoinVector(g, (0.5,)))
    both, neither, one = military_tables(sc)
    assert close(both.values[0], 0.25) and close(both.values[1], 0.5)
    assert close(neither.values[0], 0.25) and close(neither.values[1], 0.5)
    assert close(one.values[0], 0.5) and close(one.values[1], 0.0)


def test_military_disjoint_networks_decouple():
    g = GroundSet(["r1", "r2", "b1"])
    red = up_closure(g, [g.mask_of(["r1", "r2"])])
    blue = up_closure(g, [g.mask_of(["b1"])])
    sc = MilitaryScenario(red, blue, CoinVector(g, (Fraction(2, 3),) * g.n))
    both, _, _ = military_tables(sc)
    assert all(v == both.values[0] for v in both.values)


def test_military_outcome_structure_random():
    rng = random.Random(63)
    for _ in range(30):
        n = rng.randint(1, 4)
        sc = random_military(rng, _ground(n))
        both, neither, one = military_tables(sc)
        assert is_increasing(both)
        assert is_increasing(neither)
        assert is_decreasing(one)
        total = both + neither + one
        assert all(close(v, 1) for v in total.values)
        assert sc.p.ground.full in optimal_strategies(both)


def test_military_matches_oracle():
    rng = random.Random(64)
    for _ in range(10):
        n = rng.randint(1, 3)
        g = _ground(n)
        sc = random_military(rng, g)
        both, neither, one = military_tables(sc)
        red = {frozenset(g.labels_of(m)) for m in g.subsets() if sc.c_red.values[m]}
        blue = {frozenset(g.labels_of(m)) for m in g.subsets() if sc.c_blue.values[m]}
        probs = oracles.probs_of(sc.p)
        for m in g.subsets():
            wb, wn, wo = oracles.military_probs(red, blue, probs, frozenset(g.labels_of(m)))
            assert close(both.values[m], wb)
            assert close(neither.values[m], wn)
            assert close(one.values[m], wo)


def test_military_is_convolution_of_indicators():
    rng = random.Random(65)
    for _ in range(10):
        n = rng.randint(1, 4)
        sc = random_military(rng, _ground(n))
        both, neither, _ = military_tables(sc)
        f, g = sc.c_red, sc.c_blue
        assert both.values == convolve(f, g, sc.p).values
        assert neither.values == convolve(1 - f, 1 - g, sc.p).values


# -- merger vote --------------------------------------------------------------


def test_merger_two_shareholder_worked_example():
    g = _ground(2)
    nonempty = SetFunction(g, (0, 1, 1, 1))
    sc = MergerScenario(nonempty, nonempty, CoinVector(g, (0.5,) * g.n))
    table = merger_table(sc)
    assert close(table(0), 0.5625)
    assert close(table(g.full), 0.75)


def test_merger_dictator():
    g = _ground(2)
    dictator = SetFunction(g, (0, 1, 0, 1))  # h0 decides alone
    q = Fraction(2, 7)
    sc = MergerScenario(dictator, dictator, CoinVector(g, (q, Fraction(1, 3))))
    table = merger_table(sc)
    assert table(0) == q * q
    assert table(g.mask_of(["h0"])) == q


def test_merger_table_is_convolution():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(1, 4)
        g = _ground(n)
        sc = random_merger(rng, g)
        table = merger_table(sc)
        assert is_increasing(table)
        assert table.values == convolve(sc.f_a, sc.f_b, sc.p).values
        assert g.full in optimal_strategies(table)


def test_merger_matches_oracle():
    rng = random.Random(72)
    for _ in range(10):
        n = rng.randint(1, 3)
        g = _ground(n)
        sc = random_merger(rng, g)
        table = merger_table(sc)
        rule_a = oracles.table_of(sc.f_a)
        rule_b = oracles.table_of(sc.f_b)
        probs = oracles.probs_of(sc.p)
        for m in g.subsets():
            want = oracles.merger_prob(rule_a, rule_b, probs, frozenset(g.labels_of(m)))
            assert close(table.values[m], want)


def test_merger_rejects_bad_voting_rules():
    g = _ground(2)
    p = CoinVector(g, (0.5,) * g.n)
    good = SetFunction(g, (0, 1, 1, 1))
    with pytest.raises(ValueError):
        MergerScenario(SetFunction(g, (1, 1, 1, 1)), good, p)  # empty set wins
    with pytest.raises(ValueError):
        MergerScenario(SetFunction(g, (0, 0, 0, 0)), good, p)  # full set loses
    with pytest.raises(ValueError):
        MergerScenario(SetFunction(g, (0, 1, 1, 0)), good, p)  # not increasing
    with pytest.raises(ValueError):
        MergerScenario(SetFunction(g, (0, 0.5, 1, 1)), good, p)  # not 0/1


@pytest.mark.parametrize("model", [MilitaryScenario, MergerScenario])
def test_functions_off_the_coins_ground_rejected(model):
    # a model's ground set is its coin vector's; each function must share it
    g = _ground(2)
    rule = SetFunction(g, (0, 1, 1, 1))
    other = SetFunction(GroundSet(["x", "y"]), (0, 1, 1, 1))
    p = CoinVector(g, (0.5,) * g.n)
    for pair in ((other, rule), (rule, other)):
        with pytest.raises(ValueError, match="different ground sets"):
            model(*pair, p)


# -- weighted voting ----------------------------------------------------------


def test_weighted_voting_small_rules():
    g = _ground(2)
    f = weighted_voting(g, (1, 1), 1)
    assert f.values == (0, 1, 1, 1)
    f = weighted_voting(g, (1, 1), 2)
    assert f.values == (0, 0, 0, 1)


def test_weighted_voting_three_player_example():
    g = GroundSet(["s1", "s2", "s3"])
    f = weighted_voting(g, (2, 1, 1), 3)
    winners = {g.labels_of(m) for m in g.subsets() if f.values[m] == 1}
    assert winners == {("s1", "s2"), ("s1", "s3"), ("s1", "s2", "s3")}
    want = oracles.voting_table({"s1": 2, "s2": 1, "s3": 1}, 3)
    got = oracles.table_of(f)
    assert got == want


def test_weighted_voting_quota_bounds():
    g = _ground(2)
    with pytest.raises(ValueError, match=r"^quota must lie in \(0, total weight\]$"):
        weighted_voting(g, (1, 1), 0)
    with pytest.raises(ValueError, match=r"^quota must lie in \(0, total weight\]$"):
        weighted_voting(g, (1, 1), 3)
    with pytest.raises(ValueError, match="^voter weights must be nonnegative$"):
        weighted_voting(g, (-1, 1), 1)
    with pytest.raises(ValueError, match="^one weight per voter required$"):
        weighted_voting(g, (1,), 1)
    # quota exactly at the total weight means unanimity
    f = weighted_voting(g, (1, 2), 3)
    assert f.values == (0, 0, 0, 1)


def _totals(weights):
    """Each subset's weight, added from its highest element down."""
    n = len(weights)
    return [sum(weights[i] for i in reversed(range(n)) if m >> i & 1) for m in range(1 << n)]


def test_weighted_voting_decides_each_total_as_geq():
    rng = random.Random(74)
    decided = set()
    for _ in range(30):
        g = _ground(rng.randint(1, 6))
        weights = tuple(rng.uniform(0.0, 10.0) ** 3 for _ in range(g.n))
        totals = _totals(weights)
        t = rng.choice([v for v in totals if v > 0])
        # quotas within and just beyond the REL_TOL slack of one total
        for steps in (-2.0, 0.5, 0.999, 1.001, 2.0):
            quota = t + steps * REL_TOL * t
            if not 0 < quota <= sum(weights):
                continue
            f = weighted_voting(g, weights, quota)
            assert f.values == tuple(int(geq(v, quota)) for v in totals)
            decided.add((steps, f.values[totals.index(t)]))
    assert {(0.999, 1), (1.001, 0)} <= decided


def test_weighted_voting_exact_ties():
    rng = random.Random(75)
    for _ in range(30):
        g = _ground(rng.randint(1, 6))
        weights = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(g.n))
        totals = _totals(weights)
        positive = [v for v in totals if v > 0]
        if not positive:
            continue
        tie = rng.choice(positive)
        for quota in (tie, tie - Fraction(1, 10**12), tie + Fraction(1, 10**12)):
            if not 0 < quota <= sum(weights):
                continue
            f = weighted_voting(g, weights, quota)
            assert f.values == tuple(int(v >= quota) for v in totals)


def test_random_voting_rules_are_valid_merger_inputs():
    rng = random.Random(73)
    for _ in range(20):
        g = _ground(rng.randint(1, 4))
        f = random_voting_rule(rng, g)
        assert is_increasing(f)
        assert f.values[0] == 0 and f.values[g.full] == 1
        assert set(f.values) <= {0, 1}


# -- optimal strategies --------------------------------------------------------


def test_optimal_strategies_edge_cases():
    g = _ground(2)
    assert optimal_strategies(SetFunction.constant(g, 2)) == [0, 1, 2, 3]
    assert optimal_strategies(SetFunction(g, (0, 1, 2, 3))) == [3]
    assert optimal_strategies(SetFunction(g, (0, 3, 3, 3))) == [1, 2, 3]
    # float ties within tolerance collapse
    assert optimal_strategies(SetFunction(g, (0.0, 1.0, 1.0 + 1e-13, 0.5))) == [1, 2]
