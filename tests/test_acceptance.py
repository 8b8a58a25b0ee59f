"""Release gate: one test per shipped guarantee, at the advertised
tolerances and runtime budgets.

Each test is a single pass/fail line under `pytest -v`.  Tolerances are
written out literally here rather than imported, so the gate does not
drift if internal defaults ever change.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from riskpool.convolution import convolve, convolve_bruteforce, harris_gap
from riskpool.generators import (
    random_coin_vector,
    random_game_spec,
    random_merger,
    random_military,
    random_production,
    random_profile,
    random_setfunction,
)
from riskpool.lattice import (
    CoinVector,
    GroundSet,
    SetFunction,
    all_monotone_indicators,
    random_increasing,
)
from riskpool.montecarlo import estimate_convolution, estimate_payoff
from riskpool.numerics import argmax_ties
from riskpool.partition_game import (
    StrategyProfile,
    best_replies,
    check_dominance,
    conditional_block_factors,
    conditional_payoffs,
    expected_payoff,
    find_nash,
    finest_strategy,
    scaled_spec,
)
from riskpool.scenarios import (
    TwoInputProduction,
    merger_table,
    military_tables,
    production_table,
)

REL = 1e-9
ABS = 1e-12
P_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _ground(n):
    return GroundSet([f"h{i}" for i in range(n)])


def _cover_pairs(n):
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if not mask & bit:
                yield mask, mask | bit


def _increasing_exact(f):
    return all(f.values[hi] >= f.values[lo] for lo, hi in _cover_pairs(f.ground.n))


def _within(a, b):
    # a >= b up to the advertised relative/absolute slack
    return a >= b - max(ABS, REL * max(abs(a), abs(b)))


def _increasing_float(f):
    return all(_within(f.values[hi], f.values[lo]) for lo, hi in _cover_pairs(f.ground.n))


def _decreasing_float(f):
    return all(_within(f.values[lo], f.values[hi]) for lo, hi in _cover_pairs(f.ground.n))


def _monotone_triples(seed, count, max_n=6):
    """The shared randomized corpus of (f, g, p) monotone float triples."""
    rng = random.Random(seed)
    for _ in range(count):
        g = _ground(rng.randint(1, max_n))
        f1 = random_increasing(rng, g, rng.randint(0, 8))
        f2 = random_increasing(rng, g, rng.randint(0, 8))
        yield f1, f2, random_coin_vector(rng, g)


def _exhaustive_indicator_sweep():
    """Every ordered pair of monotone 0/1 functions, n <= 3, over the
    quarter-grid of coin vectors."""
    for n in (1, 2, 3):
        g = _ground(n)
        indicators = all_monotone_indicators(g)
        for pvec in itertools.product(P_GRID, repeat=n):
            p = CoinVector(g, pvec)
            for f1 in indicators:
                for f2 in indicators:
                    yield f1, f2, p


def test_c01_exhaustive_exact_products_of_monotone_indicators_are_increasing():
    start = time.perf_counter()
    checked = 0
    for f1, f2, p in _exhaustive_indicator_sweep():
        assert _increasing_exact(convolve(f1, f2, p))
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 27 + 324 + 10800
    assert elapsed < 10.0


def test_c02_randomized_float_products_stay_increasing():
    for f1, f2, p in _monotone_triples(seed=2001, count=10_000):
        assert _increasing_float(convolve(f1, f2, p))


def test_c03_harris_gap_never_negative():
    for f1, f2, p in _exhaustive_indicator_sweep():
        assert harris_gap(f1, f2, p) >= 0
    for f1, f2, p in _monotone_triples(seed=2001, count=10_000):
        assert harris_gap(f1, f2, p) >= -REL


def test_c04_recursion_matches_bruteforce_at_every_coupling():
    rng = random.Random(41)
    for idx in range(1_000):
        exact = idx % 2 == 0
        g = _ground(rng.randint(1, 4 if exact else 8))
        f1 = random_setfunction(rng, g, exact=exact)
        f2 = random_setfunction(rng, g, exact=exact)
        p = random_coin_vector(rng, g, exact=exact)
        table = convolve(f1, f2, p)
        for mask in range(1 << g.n):
            direct = convolve_bruteforce(f1, f2, p, mask)
            if exact:
                assert table(mask) == direct
            else:
                assert math.isclose(table(mask), direct, rel_tol=REL, abs_tol=ABS)


def test_c05_single_element_gap_identity_holds_exactly():
    rng = random.Random(5)
    g = _ground(1)
    for _ in range(1_000):
        a, a2, b, b2 = (
            Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(4)
        )
        p = Fraction(rng.randint(0, 16), 16)
        table = convolve(SetFunction(g, (a, a2)), SetFunction(g, (b, b2)), CoinVector(g, (p,)))
        assert table(1) - table(0) == p * (1 - p) * (a2 - a) * (b2 - b)


def test_c06_scenario_tables_are_monotone_and_peak_at_the_full_pool():
    rng = random.Random(6)
    for _ in range(500):
        g = _ground(rng.randint(1, 5))

        prod = production_table(random_production(rng, g))
        assert _increasing_float(prod)
        assert g.full in argmax_ties(prod.values)

        both, neither, one = military_tables(random_military(rng, g))
        assert _increasing_float(both)
        assert _increasing_float(neither)
        assert _decreasing_float(one)
        total = both + neither + one
        assert all(math.isclose(v, 1.0, rel_tol=REL, abs_tol=ABS) for v in total.values)
        assert g.full in argmax_ties(both.values)

        merge = merger_table(random_merger(rng, g))
        assert _increasing_float(merge)
        assert g.full in argmax_ties(merge.values)


def test_c07_coarse_pooling_dominates_and_is_the_nash_profile():
    rng = random.Random(7)
    start = time.perf_counter()
    for idx in range(100):
        strict = idx % 4 == 0
        spec = random_game_spec(rng, strict=strict)
        for h in spec.suppliers:
            assert check_dominance(spec, h) is None
        nash = find_nash(spec)
        assert spec.coarse_profile() in nash
        if strict:
            assert nash == [spec.coarse_profile()]
    assert time.perf_counter() - start < 60.0


def test_c08_merging_two_shipments_never_hurts_ex_post():
    rng = random.Random(8)
    specs = checked = 0
    while specs < 200:
        spec = random_game_spec(rng)
        wide = [hi for hi, owned in enumerate(spec.supply) if len(owned) >= 2]
        if not wide:
            continue
        specs += 1
        profile = random_profile(rng, spec)
        picks = list(profile.strategies)
        hi = rng.choice(wide)
        picks[hi] = finest_strategy(spec.supply[hi])
        profile = StrategyProfile(picks)
        if sum(len(s.blocks) for s in profile.strategies) > 10:
            profile = StrategyProfile(
                [
                    finest_strategy(owned) if gi == hi else random_profile(rng, spec).strategies[gi]
                    for gi, owned in enumerate(spec.supply)
                ]
            )
        blocks = [(gi, bi) for gi, s in enumerate(profile.strategies) for bi in range(len(s.blocks))]
        if len(blocks) > 10:
            continue
        for gi, strat in enumerate(profile.strategies):
            nb = len(strat.blocks)
            if nb < 2:
                continue
            h = spec.suppliers[gi]
            ph = spec.p.p[gi]
            for i in range(nb):
                for j in range(i + 1, nb):
                    free = [(fi, bi) for fi, bi in blocks if not (fi == gi and bi in (i, j))]
                    for bits in itertools.product((False, True), repeat=len(free)):
                        cond = {
                            g: [
                                None if (fi == gi and bi in (i, j)) else False
                                for bi in range(len(s.blocks))
                            ]
                            for fi, (g, s) in enumerate(zip(spec.suppliers, profile.strategies))
                        }
                        for (fi, bi), bit in zip(free, bits):
                            cond[spec.suppliers[fi]][bi] = bit
                        sep, merged = conditional_payoffs(spec, profile, h, i, j, cond)
                        a0, a1, b0, b1, c = conditional_block_factors(spec, profile, h, i, j, cond)
                        assert merged >= sep
                        assert merged - sep == ph * (1 - ph) * (a1 - a0) * (b1 - b0) * c
                        checked += 1
    assert checked > 1_000


def test_c09_payoff_scaling_leaves_replies_and_equilibria_unchanged():
    rng = random.Random(9)
    for _ in range(100):
        spec = random_game_spec(rng)
        kappa = {h: Fraction(rng.randint(1, 40), 4) for h in spec.suppliers}
        scaled = scaled_spec(spec, kappa)
        profile = random_profile(rng, spec)
        for h in spec.suppliers:
            assert best_replies(spec, profile, h) == best_replies(scaled, profile, h)
        assert find_nash(spec) == find_nash(scaled)


def test_c10_sampled_estimates_land_within_four_stderr():
    # Instances whose payoff is almost surely constant carry no sampling
    # noise for the band to measure, so the corpus keeps drawing until 50
    # genuinely stochastic ones are found (deterministic given the seed).
    rng = random.Random(10)
    start = time.perf_counter()
    accepted = index = 0
    while accepted < 50:
        index += 1
        if index % 2 == 0:
            spec = random_game_spec(rng, max_commodities=3)
            profile = random_profile(rng, spec)
            h = rng.choice(spec.suppliers)
            exact = float(expected_payoff(spec, profile, h))
            run = lambda n, s: estimate_payoff(spec, profile, h, samples=n, seed=s)
        else:
            g = _ground(rng.randint(1, 5))
            f1 = random_increasing(rng, g, rng.randint(1, 6), exact=True)
            f2 = random_increasing(rng, g, rng.randint(1, 6), exact=True)
            p = random_coin_vector(rng, g, exact=True)
            mask = rng.randrange(1 << g.n)
            exact = float(convolve(f1, f2, p)(mask))
            run = lambda n, s: estimate_convolution(f1, f2, p, mask, samples=n, seed=s)
        pilot = run(20_000, 999)
        if pilot.stderr <= REL * max(1.0, abs(pilot.mean)):
            continue
        accepted += 1
        runs = [run(100_000, seed) for seed in range(100)]
        hits = sum(abs(rep.mean - exact) <= 4 * rep.stderr for rep in runs)
        assert hits >= 99
    assert time.perf_counter() - start < 120.0


def test_c11_single_supplier_pool_values_match_the_closed_forms():
    rng = random.Random(11)
    g = _ground(1)
    for _ in range(50):
        x = Fraction(rng.randint(1, 20), rng.randint(1, 5))
        y = Fraction(rng.randint(1, 20), rng.randint(1, 5))
        alpha, beta = rng.randint(1, 3), rng.randint(1, 3)
        p = Fraction(rng.randint(0, 16), 16)
        sc = TwoInputProduction(x=(x,), y=(y,), alpha=alpha, beta=beta, p=CoinVector(g, (p,)))
        table = production_table(sc)
        assert table(1) == p * x**alpha * y**beta
        assert table(0) == p * p * x**alpha * y**beta
    sc = TwoInputProduction(x=(4.0,), y=(9.0,), alpha=0.5, beta=0.5, p=CoinVector(g, (0.5,)))
    table = production_table(sc)
    assert table(1) == 3.0
    assert table(0) == 1.5
