"""The coupled product f*g: exact values, algebraic laws, and the
independent evaluation routes (p-biased Fourier kernel vs literal double
sum vs element-elimination recursion)."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from riskpool import cli
from riskpool.cli import main
from riskpool.convolution import (
    _convolve_rows,
    convolve,
    convolve_bruteforce,
    harris_gap,
    partition_expectation,
)
from riskpool.generators import random_coin_vector, random_setfunction
from riskpool.lattice import (
    MAX_GROUND,
    CoinVector,
    GroundSet,
    SetFunction,
    all_monotone_indicators,
    expectation,
    is_increasing,
    random_increasing,
)
from riskpool.numerics import close, close_array, format_value, is_exact


def _ground(n):
    return GroundSet([f"h{i}" for i in range(n)])


# -- pinned values -----------------------------------------------------------


def test_single_element_worked_example():
    g = _ground(1)
    f = SetFunction(g, (1, 3))
    gg = SetFunction(g, (2, 5))
    p = CoinVector(g, (Fraction(1, 2),))
    table = convolve(f, gg, p)
    assert table.values == (7, Fraction(17, 2))


def test_endpoints_are_product_of_means_and_mean_of_product():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(1, 4)
        g = _ground(n)
        f = random_setfunction(rng, g, exact=True)
        gg = random_setfunction(rng, g, exact=True)
        p = random_coin_vector(rng, g, exact=True)
        table = convolve(f, gg, p)
        assert table.values[0] == expectation(f, p) * expectation(gg, p)
        assert table.values[g.full] == expectation(f * gg, p)


def test_empty_ground_set():
    g = GroundSet([])
    f = SetFunction(g, (3,))
    gg = SetFunction(g, (5,))
    p = CoinVector(g, ())
    assert convolve(f, gg, p).values == (15,)


def test_degenerate_coins():
    g = _ground(2)
    f = SetFunction(g, (1, 2, 3, 4))
    gg = SetFunction(g, (5, 6, 7, 8))
    for prob, idx in ((0, 0), (1, 3)):
        p = CoinVector(g, (prob,) * g.n)
        table = convolve(f, gg, p)
        assert all(v == f.values[idx] * gg.values[idx] for v in table.values)


# -- algebraic laws ----------------------------------------------------------


def test_commutative():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(1, 4)
        g = _ground(n)
        f = random_setfunction(rng, g, exact=True)
        gg = random_setfunction(rng, g, exact=True)
        p = random_coin_vector(rng, g, exact=True)
        assert convolve(f, gg, p).values == convolve(gg, f, p).values


def test_bilinear():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(1, 3)
        g = _ground(n)
        f1 = random_setfunction(rng, g, exact=True)
        f2 = random_setfunction(rng, g, exact=True)
        gg = random_setfunction(rng, g, exact=True)
        p = random_coin_vector(rng, g, exact=True)
        a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        lhs = convolve(f1 * a + f2 * b, gg, p)
        rhs = convolve(f1, gg, p) * a + convolve(f2, gg, p) * b
        assert lhs.values == rhs.values


def test_constant_factor_collapses_to_expectation():
    g = _ground(2)
    c = SetFunction.constant(g, Fraction(3))
    gg = SetFunction(g, (0, 1, 2, 5))
    p = CoinVector(g, (Fraction(1, 3), Fraction(1, 4)))
    table = convolve(c, gg, p)
    want = 3 * expectation(gg, p)
    assert all(v == want for v in table.values)


def test_label_permutation_invariance():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 5)
        g = _ground(n)
        f = random_setfunction(rng, g)
        gg = random_setfunction(rng, g)
        p = random_coin_vector(rng, g)
        table = convolve(f, gg, p)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = GroundSet([g.labels[i] for i in perm])

        def relabel(mask):
            out = 0
            for new_bit, old_bit in enumerate(perm):
                if mask >> new_bit & 1:
                    out |= 1 << old_bit
            return out

        f2 = SetFunction(g2, (f.values[relabel(m)] for m in g2.subsets()))
        gg2 = SetFunction(g2, (gg.values[relabel(m)] for m in g2.subsets()))
        p2 = CoinVector(g2, (p.p[i] for i in perm))
        table2 = convolve(f2, gg2, p2)
        for m in g2.subsets():
            assert close(table2.values[m], table.values[relabel(m)])


# -- the oracles: double sum, coin enumeration, element recursion -------------


def test_matches_bruteforce_exact():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        g = _ground(n)
        f = random_setfunction(rng, g, exact=True)
        gg = random_setfunction(rng, g, exact=True)
        p = random_coin_vector(rng, g, exact=True, degenerate=True)
        table = convolve(f, gg, p)
        for mask in g.subsets():
            assert table.values[mask] == convolve_bruteforce(f, gg, p, mask)


def test_matches_bruteforce_float():
    rng = random.Random(32)
    for _ in range(15):
        n = rng.randint(1, 6)
        g = _ground(n)
        f = random_setfunction(rng, g)
        gg = random_setfunction(rng, g)
        p = random_coin_vector(rng, g)
        table = convolve(f, gg, p)
        for mask in g.subsets():
            assert close(table.values[mask], convolve_bruteforce(f, gg, p, mask))


def test_matches_coin_enumeration_oracle():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(1, 3)
        g = _ground(n)
        f = random_setfunction(rng, g, exact=True)
        gg = random_setfunction(rng, g, exact=True)
        p = random_coin_vector(rng, g, exact=True)
        table = convolve(f, gg, p)
        ftab, gtab = oracles.table_of(f), oracles.table_of(gg)
        probs = oracles.probs_of(p)
        for mask in g.subsets():
            want = oracles.coupled_mean(ftab, gtab, probs, frozenset(g.labels_of(mask)))
            assert table.values[mask] == want


def test_bruteforce_matches_coin_enumeration_oracle():
    # The double sum against the pair law tossed coin by coin, with no
    # kernel in between, from the empty ground set up, degenerate coins
    # included.  Exact tables give exact values, all-int inputs ints.
    rng = random.Random(34)
    for idx in range(30):
        n = idx % 5
        g = _ground(n)
        if idx % 3 == 2:
            f, gg = (SetFunction(g, [rng.randint(-3, 3) for _ in g.subsets()]) for _ in range(2))
            p = CoinVector(g, [rng.randrange(2) for _ in range(n)])
        else:
            f, gg = (random_setfunction(rng, g, exact=idx % 3 == 0) for _ in range(2))
            p = random_coin_vector(rng, g, exact=True, degenerate=True)
        ftab, gtab = oracles.table_of(f), oracles.table_of(gg)
        probs = oracles.probs_of(p)
        for mask in g.subsets():
            got = convolve_bruteforce(f, gg, p, mask)
            want = oracles.coupled_mean(ftab, gtab, probs, frozenset(g.labels_of(mask)))
            if not f.exact:
                assert isinstance(got, float) and close(got, want)
            elif idx % 3 == 2:
                assert type(got) is int and got == want
            else:
                assert is_exact(got) and got == want


COINS =st.one_of(
    st.sampled_from([0, 1, Fraction(0), Fraction(1)]),
    st.builds(Fraction, st.integers(1, 15), st.just(16)),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
)
EXACT_VALUES = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)
FLOAT_VALUES = st.floats(min_value=-2, max_value=2)


@st.composite
def convolution_inputs(draw, values_f, values_g, coins, min_n=0):
    n = draw(st.integers(min_n, 6))
    g = _ground(n)
    f = SetFunction(g, draw(st.lists(values_f, min_size=1 << n, max_size=1 << n)))
    gg = SetFunction(g, draw(st.lists(values_g, min_size=1 << n, max_size=1 << n)))
    p = CoinVector(g, draw(st.lists(coins, min_size=n, max_size=n)))
    return f, gg, p


def _recursion(f, gg, p):
    return oracles.contract(list(f.values), list(gg.values), p.p)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        convolution_inputs(EXACT_VALUES, EXACT_VALUES, COINS),
        convolution_inputs(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from([0, 1])),
    )
)
def test_kernel_matches_recursion_exact(inputs):
    f, gg, p = inputs
    table = convolve(f, gg, p).values
    assert list(table) == _recursion(f, gg, p)
    assert all(is_exact(v) for v in table)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        convolution_inputs(FLOAT_VALUES, FLOAT_VALUES, st.floats(min_value=0, max_value=1)),
        convolution_inputs(FLOAT_VALUES, EXACT_VALUES, COINS),
        convolution_inputs(EXACT_VALUES, EXACT_VALUES, st.floats(min_value=0, max_value=1), min_n=1),
    )
)
def test_kernel_matches_recursion_float(inputs):
    f, gg, p = inputs
    table = convolve(f, gg, p).values
    assert all(isinstance(v, float) for v in table)
    for got, want in zip(table, _recursion(f, gg, p)):
        assert close(got, want)


# -- the batch axis ------------------------------------------------------------


def _batch_rows(rng, n, exact):
    """Rows on n elements that share operands, with all-0, all-1 and
    alternating degenerate coins among the random ones."""
    g = _ground(n)
    fns = [random_setfunction(rng, g, exact=exact) for _ in range(3)]
    coins = [random_coin_vector(rng, g, exact=exact, degenerate=True) for _ in range(3)]
    coins += [CoinVector(g, [(i + j) % 2 for i in range(n)]) for j in range(2)]
    coins += [CoinVector(g, [0] * n), CoinVector(g, [1] * n)]
    if not exact:
        coins = [CoinVector(g, map(float, p.p)) for p in coins]
    return [(f, gg, p) for p in coins for f in fns for gg in fns]


@pytest.mark.parametrize("n", range(7))
def test_exact_batched_rows_match_the_recursion(n):
    rows = _batch_rows(random.Random(60 + n), n, exact=True)
    table, scales = _convolve_rows(rows)
    assert table.shape == (len(rows), 1 << n) and table.dtype == object
    for row, scale, (f, gg, p) in zip(table.tolist(), scales, rows):
        assert [Fraction(x, scale) for x in row] == _recursion(f, gg, p)


@pytest.mark.parametrize("n", range(7))
def test_float_batched_rows_are_each_rows_convolve(n):
    rows = _batch_rows(random.Random(70 + n), n, exact=False)
    # an exact operand in a float batch goes float, as it does in convolve
    rows.append((random_setfunction(random.Random(n), _ground(n), exact=True), *rows[0][1:]))
    table, scales = _convolve_rows(rows)
    assert table.dtype == float and scales.tolist() == [1] * len(rows)
    for row, (f, gg, p) in zip(table.tolist(), rows):
        assert row == list(convolve(f, gg, p).values)


def test_batched_rows_refuse_mixed_ground_sets():
    f, h = SetFunction.constant(_ground(2), 1), SetFunction(GroundSet(["a", "b"]), (0, 1, 1, 2))
    p = CoinVector(_ground(2), (0.5, 0.5))
    with pytest.raises(ValueError):
        _convolve_rows([(f, f, p), (h, h, p)])


def _monotone_exhaustive_one_by_one(max_ground, indicators):
    """The exhaustive monotone sweep as one convolve and one is_increasing
    call per instance: instances up to the first failure, and its certificate."""
    grid = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    count = 0
    for n in range(1, min(3, max_ground) + 1):
        ground = _ground(n)
        fns = indicators(ground)
        for ps in itertools.product(grid, repeat=n):
            p = CoinVector(ground, ps)
            for f in fns:
                for gg in fns:
                    count += 1
                    if not is_increasing(convolve(f, gg, p)):
                        return count, {
                            "n": n,
                            "p": [format_value(v) for v in ps],
                            "f": [int(v) for v in f.values],
                            "g": [int(v) for v in gg.values],
                        }
    return count, None


def test_batched_sweep_reports_a_late_failure_like_the_one_by_one_loop(monkeypatch, capsys):
    # The decreasing indicator of {} joins the n = 3 group only, so the
    # first failure lies past both smaller groups and deep in the last.
    def with_empty_set_indicator_at_three(ground):
        fns = all_monotone_indicators(ground)
        if ground.n == 3:
            fns.append(SetFunction(ground, [int(m == 0) for m in ground.subsets()]))
        return fns

    instances, certificate = _monotone_exhaustive_one_by_one(3, with_empty_set_indicator_at_three)
    assert certificate is not None and certificate["n"] == 3 and instances > 27 + 324 + 21
    monkeypatch.setattr(cli, "all_monotone_indicators", with_empty_set_indicator_at_three)
    code = main(["verify", "--max-ground", "3", "--samples", "2000", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    check = next(c for c in report["checks"] if c["name"] == "monotone_exhaustive")
    assert (check["instances"], check["certificate"]) == (instances, certificate)


# -- monotonicity and the correlation gap ------------------------------------


def test_increasing_inputs_give_increasing_table_small_grid():
    grid = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for n in (1, 2):
        g = _ground(n)
        fns = all_monotone_indicators(g)
        for ps in itertools.product(grid, repeat=n):
            p = CoinVector(g, ps)
            for f in fns:
                for gg in fns:
                    table = convolve(f, gg, p)
                    assert is_increasing(table)
                    assert harris_gap(f, gg, p) >= 0


def test_harris_gap_is_endpoint_difference():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 4)
        g = _ground(n)
        f = random_increasing(rng, g, rng.randint(0, 6))
        gg = random_increasing(rng, g, rng.randint(0, 6))
        p = random_coin_vector(rng, g)
        table = convolve(f, gg, p)
        gap = harris_gap(f, gg, p)
        assert close(gap, table.values[g.full] - table.values[0])
        assert gap >= -1e-9


def test_decreasing_pair_also_has_nonnegative_gap():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(1, 3)
        g = _ground(n)
        f = 5 - random_increasing(rng, g, 4)
        gg = 5 - random_increasing(rng, g, 4)
        p = random_coin_vector(rng, g)
        assert harris_gap(f, gg, p) >= -1e-9


# -- size caps and input validation -------------------------------------------


def test_size_caps():
    # convolve takes every ground set there is; the ground-set cap bounds it
    with pytest.raises(ValueError):
        _ground(MAX_GROUND + 1)
    g11 = _ground(11)
    f11 = SetFunction.constant(g11, 1)
    p11 = CoinVector(g11, (0.5,) * g11.n)
    with pytest.raises(ValueError):
        convolve_bruteforce(f11, f11, p11, 0)


def test_float_n17_increasing_inputs():
    rng = random.Random(17)
    g = _ground(17)
    f = random_increasing(rng, g, 40)
    gg = random_increasing(rng, g, 40)
    p = random_coin_vector(rng, g)
    table = convolve(f, gg, p)
    assert is_increasing(table)
    assert close(table.values[0], expectation(f, p) * expectation(gg, p))
    assert close(table.values[g.full], expectation(f * gg, p))


def test_mismatched_grounds_rejected():
    f = SetFunction.constant(_ground(2), 1)
    gg = SetFunction.constant(_ground(3), 1)
    p = CoinVector(_ground(2), (0.5,) * 2)
    with pytest.raises(ValueError):
        convolve(f, gg, p)
    with pytest.raises(ValueError):
        convolve(f, f, CoinVector(_ground(3), (0.5,) * 3))


# -- the derivative identity ----------------------------------------------------


def _assert_derivative_identity(f, gg, p):
    """For every element i and every S holding i,
    (f*g)(S) - (f*g)(S - i) = p_i (1 - p_i) (d_i f * d_i g)(S - i), where
    d_i f(T) = f(T + i) - f(T) lives on the ground set without i.  Both
    sides come from `convolve`: a metamorphic check that reaches sizes the
    brute-force oracle cannot."""
    g = p.ground
    dtype = object if f.exact and gg.exact and p.exact else float

    def halves(values, i):
        # entries without i and with i, indexed by T on the ground without i
        arr = np.array(values, dtype=dtype).reshape(-1, 2, 1 << i)
        return arr[:, 0, :].reshape(-1), arr[:, 1, :].reshape(-1)

    table = convolve(f, gg, p)
    for i, label in enumerate(g.labels):
        rest = GroundSet(g.labels[:i] + g.labels[i + 1 :])
        (f0, f1), (g0, g1) = halves(f.values, i), halves(gg.values, i)
        sub = convolve(
            SetFunction(rest, (f1 - f0).tolist()),
            SetFunction(rest, (g1 - g0).tolist()),
            CoinVector(rest, p.p[:i] + p.p[i + 1 :]),
        )
        without_i, with_i = halves(table.values, i)
        lhs = with_i - without_i
        rhs = p.p[i] * (1 - p.p[i]) * np.array(sub.values, dtype=dtype)
        bad = np.flatnonzero(~close_array(lhs, rhs))
        if bad.size:
            t = int(bad[0])
            s_mask = (t >> i << (i + 1)) | (1 << i) | (t & ((1 << i) - 1))
            pytest.fail(
                f"i = {label}, S = {sorted(g.labels_of(s_mask))}: "
                f"(f*g)(S) - (f*g)(S - i) = {lhs[t]}, p_i(1-p_i)(d_i f * d_i g)(S - i) = {rhs[t]}"
            )


def test_derivative_identity_small_exact():
    rng = random.Random(15)
    for _ in range(60):
        g = _ground(rng.randint(1, 6))
        f = random_setfunction(rng, g, exact=True)
        gg = random_setfunction(rng, g, exact=True)
        _assert_derivative_identity(f, gg, random_coin_vector(rng, g, exact=True, degenerate=True))


def test_derivative_identity_exact_n14():
    rng = random.Random(16)
    g = _ground(14)
    f = random_setfunction(rng, g, exact=True)
    gg = random_setfunction(rng, g, exact=True)
    _assert_derivative_identity(f, gg, random_coin_vector(rng, g, exact=True))


def test_derivative_identity_float_n20():
    rng = random.Random(17)
    g = _ground(20)
    f = random_setfunction(rng, g)
    gg = random_setfunction(rng, g)
    _assert_derivative_identity(f, gg, random_coin_vector(rng, g))


# -- the coarsening inequality for many functions ------------------------------


def test_partition_expectation_rejects_bad_blocks():
    g = _ground(1)
    ind = SetFunction(g, (0, 1))
    p = CoinVector(g, (Fraction(1, 2),))
    fns = [ind, ind, ind]
    bad = (
        [[0, 1], [2], []],  # empty block
        [[0, 0], [1, 2]],  # index in two blocks
        [[0], [1, 2], [2]],
        [[0], [1]],  # index 2 uncovered
        [[0], [1, 2, 3]],  # index 3 names no function
    )
    for blocks in bad:
        with pytest.raises(ValueError):
            partition_expectation(fns, blocks, p)
    assert partition_expectation(fns, [[2, 1], [0]], p) == Fraction(1, 4)


def test_partition_expectation_worked_example():
    g = _ground(1)
    ind = SetFunction(g, (0, 1))
    p = CoinVector(g, (Fraction(1, 2),))
    fns = [ind, ind]
    assert partition_expectation(fns, [[0, 1]], p) == Fraction(1, 2)
    assert partition_expectation(fns, [[0], [1]], p) == Fraction(1, 4)


def test_partition_expectation_grows_with_coarsening():
    # Merging any two blocks never lowers the value, and every partition
    # sits between the singletons and the single block.
    rng = random.Random(51)
    parts3 = [
        [[0], [1], [2]],
        [[0, 1], [2]],
        [[0, 2], [1]],
        [[0], [1, 2]],
        [[0, 1, 2]],
    ]
    for _ in range(15):
        n = rng.randint(1, 3)
        g = _ground(n)
        fns = [random_increasing(rng, g, rng.randint(0, 5)) for _ in range(3)]
        p = random_coin_vector(rng, g)
        bottom = partition_expectation(fns, parts3[0], p)
        top = partition_expectation(fns, parts3[-1], p)
        for blocks in parts3:
            val = partition_expectation(fns, blocks, p)
            assert bottom - 1e-9 <= val <= top + 1e-9
            for a, b in itertools.combinations(range(len(blocks)), 2):
                rest = [blk for i, blk in enumerate(blocks) if i not in (a, b)]
                merged = partition_expectation(fns, rest + [blocks[a] + blocks[b]], p)
                assert merged >= val - 1e-9
