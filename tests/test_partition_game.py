"""Partition strategies, success-tuple laws, product payoffs, dominance of
coarsening, Nash search, conditional comparisons, and payoff scaling.

The law of the success tuple is read off expected payoffs: with one factor
the arrival indicator of a supplier and every other factor the constant 1,
the payoff is the probability of that arrival."""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from riskpool import partition_game
from riskpool.convolution import convolve, partition_expectation
from riskpool.generators import random_coin_vector, random_game_spec, random_profile
from riskpool.lattice import CoinVector, GroundSet, SetFunction, expectation, random_increasing
from riskpool.numerics import close
from riskpool.partition_game import (
    MAX_COMMODITIES,
    MAX_TOTAL_BLOCKS,
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

F = Fraction


def _single_supplier_spec(tables, p=F(1, 2)):
    """One supplier 'h' owing one commodity per table, payoffs per table."""
    g = GroundSet(["h"])
    ks = [f"k{i}" for i in range(len(tables))]
    return GameSpec(
        commodities=ks,
        supply={"h": ks},
        p=CoinVector(g, (p,)),
        payoffs={k: SetFunction(g, t) for k, t in zip(ks, tables)},
    )


def _two_supplier_spec():
    g = GroundSet(["h1", "h2"])
    inc_a = SetFunction(g, (F(1, 3), F(1, 2), F(2, 3), 1))
    inc_b = SetFunction(g, (0, 1, 1, 2))
    return GameSpec(
        commodities=["a", "b"],
        supply={"h1": ["a", "b"], "h2": ["a"]},
        p=CoinVector(g, (F(1, 3), F(3, 4))),
        payoffs={"a": {"h1": inc_a, "h2": inc_b}, "b": {"h1": inc_b, "h2": inc_a}},
    )


# -- partitions and strategies -------------------------------------------------


def test_partition_counts_follow_bell_numbers():
    bell = (1, 1, 2, 5, 15, 52, 203, 877, 4140)
    for n in range(9):
        ks = [f"k{i}" for i in range(n)]
        assert len(enumerate_partitions(ks)) == bell[n]
    with pytest.raises(ValueError):
        enumerate_partitions([f"k{i}" for i in range(9)])
    with pytest.raises(ValueError):
        enumerate_partitions(["a", "a"])


def test_partition_enumeration_is_capped_at_the_commodity_cap():
    with pytest.raises(ValueError, match="partition enumeration is limited to 8 commodities"):
        enumerate_partitions([f"k{i}" for i in range(MAX_COMMODITIES + 1)])


def test_partitions_come_in_restricted_growth_order():
    # The order indexes the payoff arrays' axes and the reports' profiles.
    for n in range(9):
        ks = [f"k{i}" for i in range(n)]
        assert [s.blocks for s in enumerate_partitions(ks)] == oracles.set_partitions(ks)


def test_partitions_are_distinct_and_cover():
    ks = ("a", "b", "c", "d")
    strategies = enumerate_partitions(ks)
    seen = set()
    for s in strategies:
        assert s.commodity_set == set(ks)
        key = frozenset(frozenset(b) for b in s.blocks)
        assert key not in seen
        seen.add(key)


def test_strategy_validation():
    with pytest.raises(ValueError):
        PartitionStrategy([["a"], ["a"]])
    with pytest.raises(ValueError):
        PartitionStrategy([["a"], []])
    s = PartitionStrategy([["a", "b"], ["c"]])
    assert s.commodity_set == {"a", "b", "c"}


def test_coarser_relation():
    one = coarse_strategy(["a", "b", "c"])
    split = PartitionStrategy([["a", "b"], ["c"]])
    fine = finest_strategy(["a", "b", "c"])
    assert coarser(one, split) and coarser(split, fine) and coarser(one, fine)
    assert not coarser(fine, split)
    assert coarser(split, split)
    with pytest.raises(ValueError):
        coarser(one, coarse_strategy(["a", "b"]))


def test_spec_strategy_canonicalizes_and_validates():
    spec = _two_supplier_spec()
    s = spec.strategy("h1", [["b"], ["a"]])
    assert s.blocks == (("a",), ("b",))
    with pytest.raises(ValueError):
        spec.strategy("h1", [["a"]])  # does not cover the supply set
    with pytest.raises(ValueError):
        spec.strategy("h2", [["a", "b"]])  # b is not h2's to ship
    with pytest.raises(ValueError):
        spec.strategy("nope", [["a"]])


# -- spec validation ------------------------------------------------------------


def test_spec_build_validation():
    g = GroundSet(["h"])
    ok = SetFunction(g, (0, 1))
    with pytest.raises(ValueError):
        GameSpec(["k"], {}, CoinVector(GroundSet([]), ()), {"k": ok})
    with pytest.raises(ValueError):
        GameSpec(
            ["k"], {"h": ["k"]}, CoinVector(g, (F(1, 2),)),
            {"k": SetFunction(g, (0, -1))},
        )
    with pytest.raises(ValueError):
        GameSpec(
            ["k"], {"h": ["k"]}, CoinVector(g, (F(1, 2),)),
            {"k": SetFunction(g, (1, 0))},
        )
    with pytest.raises(ValueError):
        GameSpec(
            ["k"], {"h": ["k"]}, CoinVector(g, (F(1, 2),)),
            {"wrong": ok},
        )
    with pytest.raises(ValueError):
        GameSpec(
            ["k"], {"h": ["k", "k"]}, CoinVector(g, (F(1, 2),)), {"k": ok}
        )


def test_spec_refusals_name_their_reason():
    # Every unknown name is a ValueError, and a supply row is put in
    # commodity order only after it is checked.
    g = GroundSet(["h"])
    ok = SetFunction(g, (0, 1))

    def build(owned):
        return GameSpec(["a", "b"], {"h": owned}, CoinVector(g, (F(1, 2),)), {"a": ok, "b": ok})

    spec = build(["b", "a"])
    assert spec.supply == (("a", "b"),)
    with pytest.raises(ValueError, match="^supply of 'h': unknown commodity 'zz'$"):
        build(["a", "zz"])
    with pytest.raises(ValueError, match="^supply of 'h' names a commodity twice$"):
        build(["b", "a", "b"])
    with pytest.raises(ValueError, match="^unknown commodity 'zz'$"):
        spec.k_index("zz")
    with pytest.raises(ValueError, match="^unknown supplier 'zz'$"):
        spec.h_index("zz")
    with pytest.raises(ValueError, match="^unknown commodity 'zz'$"):
        spec.strategy("h", [["a"], ["zz"]])


def test_spec_refuses_a_payoff_on_the_wrong_ground_set():
    g = GroundSet(["h"])
    wrong = SetFunction(GroundSet(["x"]), (0, 1))
    with pytest.raises(ValueError, match="^payoff for 'k' lives on the wrong ground set$"):
        GameSpec(["k"], {"h": ["k"]}, CoinVector(g, (F(1, 2),)), {"k": wrong})


def test_symmetric_flag_is_checked_not_trusted():
    # the flag is computed from the payoffs and cannot be passed in
    g = GroundSet(["h1", "h2"])
    f = SetFunction(g, (0, 1, 1, 2))
    other = SetFunction(g, (0, 1, 2, 3))
    spec = GameSpec(
        ["k"], {"h1": ["k"], "h2": []},
        CoinVector(g, (F(1, 2),) * g.n), {"k": f},
    )
    assert spec.symmetric
    supply = {"h1": ["k"], "h2": []}
    same, differ = {"k": {"h1": f, "h2": f}}, {"k": {"h1": f, "h2": other}}
    assert GameSpec(spec.commodities, supply, spec.p, same).symmetric
    with pytest.raises(TypeError):
        GameSpec(spec.commodities, supply, spec.p, differ, symmetric=True)
    asym = GameSpec(spec.commodities, supply, spec.p, differ)
    assert not asym.symmetric
    # the same holds for the exactness flag
    assert spec.exact and not _float_spec(spec).exact
    with pytest.raises(TypeError):
        GameSpec(spec.commodities, supply, spec.p, same, exact=False)


def test_float_payoffs_beyond_float_range_are_refused():
    # Each factor is finite, but the product payoff of 'h' is not: a float
    # spec refuses it.  Exact values beyond float range cannot enter a
    # float spec either, and the exact spec of the same values is fine.
    big = (1e200, 1e200)
    with pytest.raises(ValueError, match="payoffs of 'h'.*float range"):
        _single_supplier_spec([big, big], p=0.5)
    with pytest.raises(ValueError, match="payoffs of 'h'.*float range"):
        _single_supplier_spec([(0, 10**400)], p=0.5)
    in_range = _single_supplier_spec([big, (F(1, 2), 1)], p=0.5)
    assert close(expected_payoff(in_range, in_range.coarse_profile(), "h"), 7.5e199)
    exact = _single_supplier_spec([(10**200, 10**200)] * 2)
    assert exact.exact
    assert expected_payoff(exact, exact.finest_profile(), "h") == 10**400


# -- success distribution --------------------------------------------------------


def _factor_spec(spec, factors):
    """The spec's game with the given per-commodity factors, shared by every
    player, and the constant 1 for every other commodity."""
    one = SetFunction.constant(spec.p.ground, 1)
    return GameSpec(
        spec.commodities, dict(zip(spec.suppliers, spec.supply)), spec.p,
        {k: factors.get(k, one) for k in spec.commodities},
    )


def _arrived(spec, h):
    """The indicator that supplier h's shipment is among the arrivals."""
    g = spec.p.ground
    return SetFunction(g, (m >> spec.h_index(h) & 1 for m in g.subsets()))


def test_success_distribution_single_supplier():
    # the law of (mask of k0, mask of k1), by inclusion-exclusion
    spec = _single_supplier_spec([(0, 1), (0, 1)])
    ind = _arrived(spec, "h")

    def law(profile):
        both, first, second = (
            expected_payoff(_factor_spec(spec, factors), profile, "h")
            for factors in ({"k0": ind, "k1": ind}, {"k0": ind}, {"k1": ind})
        )
        atoms = {
            (1, 1): both, (1, 0): first - both, (0, 1): second - both,
            (0, 0): 1 - first - second + both,
        }
        return {atom: w for atom, w in atoms.items() if w}

    assert law(spec.coarse_profile()) == {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    assert law(spec.finest_profile()) == {
        (0, 0): F(1, 4), (0, 1): F(1, 4), (1, 0): F(1, 4), (1, 1): F(1, 4),
    }


def test_atom_probabilities_sum_to_one():
    # every factor is 1, so the payoff is the total probability
    rng = random.Random(81)
    for _ in range(15):
        spec = random_game_spec(rng)
        profile = random_profile(rng, spec)
        ones = _factor_spec(spec, {})
        for h in spec.suppliers:
            assert expected_payoff(ones, profile, h) == 1


def test_degenerate_coin_drops_zero_atoms():
    cases = [
        (F(1), [(0, 1), (0, 1)], True),
        (1.0, [(0.0, 1.0), (0.0, 1.0)], True),
        (0.0, [(0.0, 1.0), (0.0, 1.0)], False),
    ]
    for p, tables, arrived in cases:
        spec = _single_supplier_spec(tables, p=p)
        profile = spec.finest_profile()
        assert expected_payoff(spec, profile, "h") == int(arrived)


def test_commodity_marginals_unchanged_by_merging_blocks():
    # merging blocks changes the joint law but not any single commodity's:
    # commodity k arrives from `target` with probability p_target whenever
    # target supplies k, whatever the profile
    rng = random.Random(82)
    for _ in range(15):
        spec = random_game_spec(rng)
        p1 = random_profile(rng, spec)
        p2 = random_profile(rng, spec)
        for k in spec.commodities:
            for target in spec.suppliers:
                marginal = _factor_spec(spec, {k: _arrived(spec, target)})
                m1 = expected_payoff(marginal, p1, target)
                m2 = expected_payoff(marginal, p2, target)
                assert m1 == m2
                assert m1 == (spec.p.p[spec.h_index(target)] if k in spec.supply_of(target) else 0)


# -- expected payoffs ------------------------------------------------------------


def test_single_supplier_two_commodity_values():
    spec = _single_supplier_spec([(0, 1), (0, 1)])
    assert expected_payoff(spec, spec.coarse_profile(), "h") == F(1, 2)
    assert expected_payoff(spec, spec.finest_profile(), "h") == F(1, 4)


def _oracle_payoff(spec, profile, h):
    """h's payoff under the profile from the independent block-pattern oracle."""
    blocks = [
        (g, frozenset(b)) for g, s in zip(spec.suppliers, profile.strategies) for b in s.blocks
    ]
    p_of = {g: spec.p.p[spec.h_index(g)] for g in spec.suppliers}
    payoff = {}
    for k in spec.commodities:
        fn = spec.payoffs[spec.k_index(k)][spec.h_index(h)]
        for m in fn.ground.subsets():
            payoff[(k, frozenset(fn.ground.labels_of(m)))] = fn.values[m]
    return oracles.game_payoff(blocks, p_of, payoff, h)


def test_payoff_matches_block_enumeration_oracle():
    rng = random.Random(83)
    for _ in range(20):
        spec = random_game_spec(rng)
        profile = random_profile(rng, spec)
        for h in spec.suppliers:
            assert expected_payoff(spec, profile, h) == _oracle_payoff(spec, profile, h)


def _float_spec(spec):
    """The same game with every coin and payoff value as a float."""
    return GameSpec(
        spec.commodities,
        dict(zip(spec.suppliers, spec.supply)),
        CoinVector(spec.p.ground, tuple(float(v) for v in spec.p.p)),
        {
            k: {h: f.map(float) for h, f in zip(spec.suppliers, row)}
            for k, row in zip(spec.commodities, spec.payoffs)
        },
    )


def test_exact_and_float_paths_agree():
    rng = random.Random(84)
    for _ in range(10):
        spec = random_game_spec(rng)
        profile = random_profile(rng, spec)
        float_spec = _float_spec(spec)
        for h in spec.suppliers:
            exact = expected_payoff(spec, profile, h)
            approx = expected_payoff(float_spec, profile, h)
            assert close(float(exact), approx)


def test_exact_coins_with_float_payoffs_give_float_payoffs():
    rng = random.Random(85)
    for _ in range(10):
        spec = random_game_spec(rng)
        profile = random_profile(rng, spec)
        mixed = GameSpec(
            spec.commodities,
            dict(zip(spec.suppliers, spec.supply)),
            spec.p,
            {
                k: {h: f.map(float) for h, f in zip(spec.suppliers, row)}
                for k, row in zip(spec.commodities, spec.payoffs)
            },
        )
        assert mixed.p.exact
        for h in spec.suppliers:
            value = expected_payoff(mixed, profile, h)
            assert isinstance(value, float)
            assert close(value, expected_payoff(spec, profile, h))


def test_profile_validation():
    spec = _two_supplier_spec()
    wrong_cover = StrategyProfile([coarse_strategy(["a"]), coarse_strategy(["a"])])
    short = StrategyProfile([coarse_strategy(["a", "b"])])
    # The second pass runs after find_nash has built the payoff arrays:
    # invalid profiles must still be refused rather than matched to a cell.
    for _ in range(2):
        for bad in (wrong_cover, short):
            with pytest.raises(ValueError):
                expected_payoff(spec, bad, "h1")
        find_nash(spec)


def _three_supplier_spec(exact):
    """h1 owns a, b, c; h2 owns a, b; h3 owns c: 5 x 2 x 1 = 10 profiles.

    Exact mode gives every player its own payoff families (asymmetric);
    float mode shares one family per commodity (symmetric).
    """
    g = GroundSet(["h1", "h2", "h3"])
    ks = ["a", "b", "c"]

    def family(c, t):
        # Sums of nonnegative per-supplier weights are increasing.
        weights = [F(1 + (c + t + i) % 3, 2 + t) for i in range(3)]
        values = [sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(8)]
        return SetFunction(g, tuple(v if exact else float(v) for v in values))

    if exact:
        payoffs = {k: {h: family(c, t) for t, h in enumerate(g.labels)} for c, k in enumerate(ks)}
        p = CoinVector(g, (F(1, 3), F(3, 4), F(2, 5)))
    else:
        payoffs = {k: family(c, 0) for c, k in enumerate(ks)}
        p = CoinVector(g, (0.3, 0.75, 0.6))
    return GameSpec(ks, {"h1": ks, "h2": ["a", "b"], "h3": ["c"]}, p, payoffs)


def _all_profiles(spec):
    return [StrategyProfile(c) for c in itertools.product(*map(spec.strategies, spec.suppliers))]


@pytest.mark.parametrize("exact", [True, False])
def test_payoff_arrays_are_built_once_per_spec(monkeypatch, exact):
    builds = []
    build = partition_game._build_payoff_arrays

    def counted(spec, lists):
        builds.append(spec)
        return build(spec, lists)

    monkeypatch.setattr(partition_game, "_build_payoff_arrays", counted)
    spec = _three_supplier_spec(exact)
    assert spec.symmetric is not exact
    profiles = _all_profiles(spec)
    assert len(profiles) == 10
    # read once by sweeping the profile, before any exhaustive request
    before = expected_payoff(spec, profiles[3], "h2")
    assert builds == []
    for h in spec.suppliers:
        assert check_dominance(spec, h) is None
    assert spec.coarse_profile() in find_nash(spec)
    for profile in profiles:
        for h in spec.suppliers:
            best_replies(spec, profile, h)
    for profile in profiles:
        for h in spec.suppliers:
            value = expected_payoff(spec, profile, h)
            want = _oracle_payoff(spec, profile, h)
            if exact:
                assert isinstance(value, Fraction) and value == want
            else:
                assert isinstance(value, float) and close(value, want)
    assert builds == [spec]
    after = expected_payoff(spec, profiles[3], "h2")
    assert after == before if exact else close(after, before)


def test_payoff_arrays_stay_with_their_spec():
    spec = _three_supplier_spec(exact=True)
    fresh = _three_supplier_spec(exact=True)
    find_nash(spec)
    assert spec._payoff_arrays is not None and fresh._payoff_arrays is None
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
    assert "_payoff_arrays" not in repr(spec)
    kappa = {"h1": F(5, 2), "h2": F(1, 3), "h3": 7}
    scaled = scaled_spec(spec, kappa)
    assert scaled._payoff_arrays is None
    for profile in _all_profiles(spec):
        for h in spec.suppliers:
            assert expected_payoff(scaled, profile, h) == kappa[h] * expected_payoff(
                spec, profile, h
            )
    assert scaled != spec


def test_exact_four_by_four_game_is_analyzed_exhaustively():
    # 15**4 = 50,625 profiles: past any per-profile sweep, within the arrays.
    rng = random.Random(44)
    g = GroundSet(["h1", "h2", "h3", "h4"])
    ks = ["a", "b", "c", "d"]
    payoffs = {k: random_increasing(rng, g, 6, exact=True, strict=True) for k in ks}
    p = CoinVector(g, (F(1, 3), F(3, 4), F(2, 5), F(1, 2)))
    spec = GameSpec(ks, {h: ks for h in g.labels}, p, payoffs)
    profiles = list(itertools.product(*map(spec.strategies, spec.suppliers)))
    assert len(profiles) == 50_625
    for h in spec.suppliers:
        assert check_dominance(spec, h) is None
    assert spec.coarse_profile() in find_nash(spec)
    for combo in rng.sample(profiles, 50):
        profile = StrategyProfile(combo)
        want = _oracle_payoff(spec, profile, "h1")
        for h in spec.suppliers:
            value = expected_payoff(spec, profile, h)
            assert isinstance(value, Fraction) and value == want


def _eight_commodity_spec(exact, owned):
    """Three suppliers owning the first owned[i] of eight commodities, with
    per-player payoff factors that are 1 plus nonnegative weights."""
    g = GroundSet(["h1", "h2", "h3"])
    ks = [f"k{c}" for c in range(8)]

    def family(c, t):
        weights = [F(1 + (c + t + i) % 3, 2 + t) for i in range(3)]
        values = [1 + sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(8)]
        return SetFunction(g, tuple(v if exact else float(v) for v in values))

    coins = (F(1, 3), F(3, 4), F(2, 5))
    p = CoinVector(g, coins if exact else tuple(map(float, coins)))
    payoffs = {k: {h: family(c, t) for t, h in enumerate(g.labels)} for c, k in enumerate(ks)}
    return GameSpec(ks, dict(zip(g.labels, (ks[:n] for n in owned))), p, payoffs)


@pytest.mark.parametrize("exact, owned", [(False, (8, 8, 6)), (True, (6, 6, 4))])
def test_finest_profile_payoff_factorizes_up_to_the_block_cap(monkeypatch, exact, owned):
    # Under the finest profile every commodity ships alone, so the success
    # sets of different commodities are independent and the payoff is the
    # product over k of E[F_k], with coin 0 for a supplier that does not own k.
    spec = _eight_commodity_spec(exact, owned)
    profile = spec.finest_profile()
    assert sum(len(s.blocks) for s in profile.strategies) == sum(owned)
    assert exact or sum(owned) == MAX_TOTAL_BLOCKS
    # Without payoff arrays, a read takes only the asked player's tables
    # and holds at most one slice of arrival patterns at a time.
    rows, table_reads = [], []
    product, arrays = partition_game._table_product, partition_game._table_arrays

    def spy_product(tables, masks, weights):
        rows.append(len(masks))
        return product(tables, masks, weights)

    def spy_arrays(spec, hi):
        table_reads.append(hi)
        return arrays(spec, hi)

    monkeypatch.setattr(partition_game, "_table_product", spy_product)
    monkeypatch.setattr(partition_game, "_table_arrays", spy_arrays)
    assert not spec.symmetric
    for hi, h in enumerate(spec.suppliers):
        want = 1
        for k in spec.commodities:
            coins = tuple(x if k in own else 0 for x, own in zip(spec.p.p, spec.supply))
            fn = spec.payoffs[spec.k_index(k)][hi]
            want *= expectation(fn, CoinVector(spec.p.ground, coins))
        table_reads.clear()
        value = expected_payoff(spec, profile, h)
        assert table_reads == [hi]
        if exact:
            assert isinstance(value, Fraction) and value == want
        else:
            assert isinstance(value, float) and close(value, want)
    assert spec._payoff_arrays is None
    assert rows and max(rows) <= partition_game._SLICE_ROWS


def test_profile_over_the_block_cap_is_refused():
    spec = _eight_commodity_spec(False, (8, 8, 7))
    profile = spec.finest_profile()
    assert sum(len(s.blocks) for s in profile.strategies) == MAX_TOTAL_BLOCKS + 1
    with pytest.raises(ValueError, match="shipment blocks"):
        expected_payoff(spec, profile, "h1")


# The coupled expectation E_pi: functions in one block of pi_h see one coin
# of h, functions in different blocks independent coins.  The convolution
# table is its two-function case and partition_expectation its case with
# one pi for every element, so the game's strategy-law contraction and the
# p-biased kernel are oracles of each other.


def _owners_of_everything_spec(rng, n, k):
    """n suppliers who each own all k commodities, exact random increasing
    payoffs shared by every player, and exact coins, some 0 or 1."""
    g = GroundSet([f"s{i}" for i in range(n)])
    ks = [f"k{j}" for j in range(k)]
    return GameSpec(
        commodities=ks,
        supply={h: ks for h in g.labels},
        p=random_coin_vector(rng, g, exact=True, degenerate=True),
        payoffs={c: random_increasing(rng, g, rng.randint(1, 2 * n + 2), exact=True) for c in ks},
    )


def test_two_commodity_payoff_is_the_convolution_table():
    rng = random.Random(131)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            spec = _owners_of_everything_spec(rng, n, 2)
            ground = spec.p.ground
            table = convolve(spec.payoffs[0][0], spec.payoffs[1][0], spec.p).values
            for mask in ground.subsets():
                # the suppliers in S ship both commodities in one block
                pooled = set(ground.labels_of(mask))
                profile = spec.profile(
                    {h: [["k0", "k1"]] if h in pooled else [["k0"], ["k1"]] for h in spec.suppliers}
                )
                for h in spec.suppliers:
                    assert expected_payoff(spec, profile, h) == table[mask]


def test_one_partition_for_every_supplier_is_partition_expectation():
    rng = random.Random(137)
    for n, k in ((1, 3), (2, 2), (2, 4), (3, 3)):
        spec = _owners_of_everything_spec(rng, n, k)
        fns = [row[0] for row in spec.payoffs]
        for strategy in enumerate_partitions(spec.commodities):
            profile = StrategyProfile([strategy] * n)
            blocks = [[spec.k_index(c) for c in block] for block in strategy.blocks]
            want = partition_expectation(fns, blocks, spec.p)
            for h in spec.suppliers:
                assert expected_payoff(spec, profile, h) == want


# -- conditional two-block comparison ---------------------------------------------


def test_conditional_payoffs_worked_example():
    spec = _single_supplier_spec([(1, 2), (1, 3), (1, 2)])
    profile = spec.finest_profile()
    cond = {"h": (None, None, True)}
    a0, a1, b0, b1, c = conditional_block_factors(spec, profile, "h", 0, 1, cond)
    assert (a0, a1, b0, b1, c) == (1, 2, 1, 3, 2)
    sep, merged = conditional_payoffs(spec, profile, "h", 0, 1, cond)
    assert sep == 6
    assert merged == 7
    ph = F(1, 2)
    assert merged - sep == ph * (1 - ph) * (a1 - a0) * (b1 - b0) * c


def test_conditional_merging_never_hurts():
    rng = random.Random(91)
    for _ in range(25):
        spec = random_game_spec(rng)
        profile = random_profile(rng, spec)
        hi = next(
            (
                i
                for i, s in enumerate(profile.strategies)
                if len(s.blocks) >= 2
            ),
            None,
        )
        if hi is None:
            continue
        h = spec.suppliers[hi]
        nblocks = [len(s.blocks) for s in profile.strategies]
        conditioning = {
            g: [rng.random() < 0.5 for _ in range(nb)]
            for g, nb in zip(spec.suppliers, nblocks)
        }
        conditioning[h][0] = None
        conditioning[h][1] = None
        sep, merged = conditional_payoffs(spec, profile, h, 0, 1, conditioning)
        assert merged >= sep
        a0, a1, b0, b1, c = conditional_block_factors(
            spec, profile, h, 0, 1, conditioning
        )
        ph = spec.p.p[hi]
        assert merged - sep == ph * (1 - ph) * (a1 - a0) * (b1 - b0) * c


def test_conditional_matches_oracle():
    rng = random.Random(92)
    checked = 0
    while checked < 10:
        spec = random_game_spec(rng)
        profile = random_profile(rng, spec)
        hi = next(
            (i for i, s in enumerate(profile.strategies) if len(s.blocks) >= 2),
            None,
        )
        if hi is None:
            continue
        h = spec.suppliers[hi]
        blocks = [
            (g, frozenset(b)) for g, s in zip(spec.suppliers, profile.strategies) for b in s.blocks
        ]
        offset = sum(len(s.blocks) for s in profile.strategies[:hi])
        fixed_bits = [rng.random() < 0.5 for _ in blocks]
        conditioning = {
            g: [
                fixed_bits[sum(len(t.blocks) for t in profile.strategies[:gi]) + bi]
                for bi in range(len(s.blocks))
            ]
            for gi, (g, s) in enumerate(zip(spec.suppliers, profile.strategies))
        }
        conditioning[h][0] = None
        conditioning[h][1] = None
        payoff = {}
        for k in spec.commodities:
            fn = spec.payoffs[spec.k_index(k)][spec.h_index(h)]
            for m in fn.ground.subsets():
                payoff[(k, frozenset(fn.ground.labels_of(m)))] = fn.values[m]
        p_of = {g: spec.p.p[spec.h_index(g)] for g in spec.suppliers}
        want = oracles.conditional_game_payoffs(
            blocks, p_of, payoff, h, offset, offset + 1, fixed_bits
        )
        got = conditional_payoffs(spec, profile, h, 0, 1, conditioning)
        assert got == want
        checked += 1


def test_batched_conditional_rows_match_the_scalar_comparison():
    # Every row of the batch: its arrival bits run through itertools.product
    # order, and its factors, separate and merged payoffs and merging gain
    # p(1-p)(a1-a0)(b1-b0)c equal the scalar functions' at that conditioning
    # (float rows too: they repeat the scalar order of operations).  Exact
    # and float specs alternate, and so do random and finest profiles.
    rng = random.Random(93)
    specs = 0
    while specs < 20:
        spec = random_game_spec(rng)
        profile = spec.finest_profile() if specs % 4 >= 2 else random_profile(rng, spec)
        sizes = [len(s.blocks) for s in profile.strategies]
        if max(sizes) < 2:
            continue
        specs += 1
        if specs % 2:
            spec = _float_spec(spec)
        for hi, h in enumerate(spec.suppliers):
            ph = spec.p.p[hi]
            first = sum(sizes[:hi])
            for i, j in itertools.combinations(range(sizes[hi]), 2):
                arrived, rows, scales = conditional_block_rows(spec, profile, h, i, j)
                exact = rows[0].dtype == object
                assert exact is (specs % 2 == 0)
                free = [c for c in range(sum(sizes)) if c not in (first + i, first + j)]
                assert not arrived[:, [first + i, first + j]].any()
                assert arrived[:, free].tolist() == [
                    list(bits) for bits in itertools.product((False, True), repeat=len(free))
                ]
                for row, bits in enumerate(arrived.tolist()):
                    conditioning = {
                        g: bits[sum(sizes[:gi]) : sum(sizes[: gi + 1])]
                        for gi, g in enumerate(spec.suppliers)
                    }
                    conditioning[h][i] = conditioning[h][j] = None
                    want = conditional_payoffs(spec, profile, h, i, j, conditioning)
                    a0, a1, b0, b1, c = conditional_block_factors(
                        spec, profile, h, i, j, conditioning
                    )
                    want += (a0, a1, b0, b1, c, ph * (1 - ph) * (a1 - a0) * (b1 - b0) * c)
                    got = [
                        Fraction(x[row], sc) if exact else float(x[row])
                        for x, sc in zip(rows, scales, strict=True)
                    ]
                    assert got == list(want)


def test_conditional_validation():
    spec = _single_supplier_spec([(1, 2), (1, 3), (1, 2)])
    profile = spec.finest_profile()
    with pytest.raises(ValueError):
        conditional_payoffs(spec, profile, "h", 0, 0, {"h": (None, None, True)})
    with pytest.raises(ValueError):
        conditional_payoffs(spec, profile, "h", 0, 5, {"h": (None, None, True)})
    with pytest.raises(ValueError):
        conditional_payoffs(spec, profile, "h", 0, 1, {"h": (None, None)})
    with pytest.raises(ValueError):
        conditional_payoffs(spec, profile, "h", 0, 1, {"h": (None, None, None)})
    with pytest.raises(ValueError):
        conditional_payoffs(spec, profile, "h", 0, 1, {"h": (True, None, None)})
    with pytest.raises(ValueError):
        conditional_payoffs(
            spec, profile, "h", 0, 1, {"h": (None, None, True), "zz": ()}
        )
    with pytest.raises(ValueError):
        conditional_payoffs(spec, spec.coarse_profile(), "h", 0, 1, {"h": (None,)})


def test_conditioning_may_leave_out_only_suppliers_without_blocks():
    cond = {"h1": (None, None)}
    spec = _two_supplier_spec()  # h2 ships commodity a
    with pytest.raises(ValueError, match="^incomplete conditioning: no bits for supplier 'h2'$"):
        conditional_block_factors(spec, spec.finest_profile(), "h1", 0, 1, cond)
    g = GroundSet(["h1", "h2"])
    f = SetFunction(g, (0, 1, 1, 2))
    coins = CoinVector(g, (F(1, 2), F(1, 2)))
    idle = GameSpec(["a", "b"], {"h1": ["a", "b"], "h2": []}, coins, {"a": f, "b": f})
    factors = conditional_block_factors(idle, idle.finest_profile(), "h1", 0, 1, cond)
    assert factors == (0, 1, 0, 1, 1)


def test_conditional_rows_over_the_block_cap_are_refused():
    spec = _eight_commodity_spec(False, (8, 8, 7))
    with pytest.raises(ValueError, match="shipment blocks"):
        conditional_block_rows(spec, spec.finest_profile(), "h1", 0, 1)


# -- dominance, best replies, Nash ------------------------------------------------


def test_coarse_is_always_a_best_reply():
    rng = random.Random(101)
    for _ in range(15):
        spec = random_game_spec(rng)
        profile = random_profile(rng, spec)
        for h in spec.suppliers:
            best = best_replies(spec, profile, h)
            assert spec.strategy(h, [spec.supply_of(h)] if spec.supply_of(h) else []) in best


def test_dominance_certificates_on_random_specs():
    rng = random.Random(102)
    for _ in range(12):
        spec = random_game_spec(rng)
        for h in spec.suppliers:
            assert check_dominance(spec, h) is None


def test_nash_contains_all_coarse_profile():
    rng = random.Random(103)
    for _ in range(12):
        spec = random_game_spec(rng)
        nash = find_nash(spec)
        assert spec.coarse_profile() in nash


def test_nash_profiles_are_those_of_best_replies_alone():
    # find_nash and best_replies decide ties with the same rule, exactly and
    # in float form.
    rng = random.Random(116)  # 160 profiles, 58 of them equilibria
    for _ in range(12):
        exact_spec = random_game_spec(rng)
        for spec in (exact_spec, _float_spec(exact_spec)):
            nash = set(find_nash(spec))
            for profile in _all_profiles(spec):
                replies = all(
                    strat in best_replies(spec, profile, h)
                    for h, strat in zip(spec.suppliers, profile.strategies)
                )
                assert (profile in nash) == replies


def test_strictly_increasing_payoffs_give_unique_nash():
    rng = random.Random(104)
    for _ in range(8):
        spec = random_game_spec(rng, strict=True)
        nash = find_nash(spec)
        assert nash == [spec.coarse_profile()]


def test_check_dominance_returns_the_first_violation():
    # h1's factor for a falls when h1 delivers it, but only while h2's
    # shipment of a is missing, which the spec refuses, so it is set past
    # validation.  c pays h1 only when h2's shipment of c arrives.  Against
    # h2's coarse strategy h2's a arrives with its c, so h1's coarse and
    # split strategies tie; against h2's split one, coarse pays 7/8 < 15/16.
    g = GroundSet(["h1", "h2"])
    up = SetFunction(g, (1, 2, 1, 2))
    spec = GameSpec(
        ["a", "b", "c"],
        {"h1": ["a", "b"], "h2": ["a", "c"]},
        CoinVector(g, (F(1, 2), F(1, 2))),
        {
            "a": {"h1": SetFunction.constant(g, 1), "h2": up},
            "b": {"h1": up, "h2": up},
            "c": {"h1": SetFunction(g, (0, 0, 1, 1)), "h2": up},
        },
    )
    rows = list(spec.payoffs)
    rows[0] = (SetFunction(g, (2, 1, 1, 1)), up)
    object.__setattr__(spec, "payoffs", tuple(rows))
    violation = check_dominance(spec, "h1")
    coarse, split = spec.strategy("h1", [["a", "b"]]), spec.strategy("h1", [["a"], ["b"]])
    h2_split = spec.strategy("h2", [["a"], ["c"]])
    assert violation == partition_game.DominanceViolation(
        (h2_split,), coarse, split, F(7, 8), F(15, 16)
    )
    for strat, pay in ((coarse, F(7, 8)), (split, F(15, 16))):
        assert _oracle_payoff(spec, StrategyProfile((strat, h2_split)), "h1") == pay
    assert check_dominance(spec, "h2") is None


def test_two_supplier_example_full_analysis():
    spec = _two_supplier_spec()
    for h in spec.suppliers:
        assert check_dominance(spec, h) is None
    nash = find_nash(spec)
    assert spec.coarse_profile() in nash
    # h1's payoff at the all-coarse profile dominates the split alternatives
    coarse = spec.coarse_profile()
    split = coarse.replace(0, spec.strategy("h1", [["a"], ["b"]]))
    assert expected_payoff(spec, coarse, "h1") >= expected_payoff(spec, split, "h1")


def test_profile_space_cap():
    ks = [f"k{i}" for i in range(8)]
    g = GroundSet(["h1", "h2", "h3"])
    fn = SetFunction(g, tuple(bin(m).count("1") for m in range(8)))
    spec = GameSpec(
        ks,
        {"h1": ks, "h2": ks, "h3": ks},
        CoinVector(g, (F(1, 2),) * g.n),
        {k: fn for k in ks},
    )
    # 4140 partitions per player -> 4140^3 profiles, far over the cap
    with pytest.raises(ValueError):
        find_nash(spec)
    with pytest.raises(ValueError):
        check_dominance(spec, "h1")


# -- payoff scaling ----------------------------------------------------------------


def test_scaling_multiplies_every_payoff():
    rng = random.Random(111)
    for _ in range(10):
        spec = random_game_spec(rng)
        if not spec.commodities:
            continue
        kappa = {h: F(rng.randint(1, 20), 4) for h in spec.suppliers}
        scaled = scaled_spec(spec, kappa)
        profile = random_profile(rng, spec)
        for h in spec.suppliers:
            assert expected_payoff(scaled, profile, h) == kappa[h] * expected_payoff(
                spec, profile, h
            )


def test_scaling_preserves_replies_and_nash():
    rng = random.Random(112)
    for _ in range(8):
        spec = random_game_spec(rng)
        if not spec.commodities:
            continue
        kappa = {h: F(rng.randint(1, 39), 4) for h in spec.suppliers}
        scaled = scaled_spec(spec, kappa)
        profile = random_profile(rng, spec)
        for h in spec.suppliers:
            assert best_replies(spec, profile, h) == best_replies(scaled, profile, h)
        assert find_nash(spec) == find_nash(scaled)


def test_scaling_validation():
    spec = _two_supplier_spec()
    with pytest.raises(ValueError):
        scaled_spec(spec, {"h1": F(1, 2)})
    with pytest.raises(ValueError):
        scaled_spec(spec, {"h1": F(1, 2), "h2": 0})
    same = scaled_spec(spec, {"h1": 1, "h2": 1})
    assert same is spec


def test_a_game_with_no_commodities_cannot_be_scaled():
    g = GroundSet(["h"])
    spec = GameSpec([], {"h": []}, CoinVector(g, (F(1, 2),)), {})
    assert scaled_spec(spec, {"h": 1}) is spec
    with pytest.raises(ValueError, match="no commodities"):
        scaled_spec(spec, {"h": 2})


def test_scaling_keeps_symmetric_flag_honest():
    spec = _single_supplier_spec([(0, 1), (1, 2)])
    assert spec.symmetric
    scaled = scaled_spec(spec, {"h": F(3, 2)})
    assert scaled.symmetric  # one player, so tables still agree across players
    assert expected_payoff(scaled, spec.coarse_profile(), "h") == F(3, 2) * expected_payoff(
        spec, spec.coarse_profile(), "h"
    )
