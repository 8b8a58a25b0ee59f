"""Independent reference implementations used to cross-check the library.

Almost everything here works on plain dicts keyed by frozensets of element
names and enumerates coin outcomes literally, one coin at a time.  The one
exception is `contract`, the element-elimination recursion for the coupled
product, which works on mask-indexed lists; and the sampling references at
the end, which draw their coins with numpy in one piece.  None of it shares
code with the package under test: when a library value and an oracle value
agree, they agree for two different reasons.
"""

from itertools import chain, combinations, product

import numpy as np


def powerset(labels):
    """All subsets of `labels` as frozensets, smallest first."""
    items = sorted(labels)
    return [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(items, r) for r in range(len(items) + 1)
        )
    ]


def set_partitions(items):
    """Every partition of `items` as a tuple of blocks, one per restricted
    growth code in itertools.product order: code[i] names the block of
    items[i] and exceeds max(code[:i]) by at most one."""
    out = []
    for code in product(*(range(i + 1) for i in range(len(items)))):
        if all(c <= 1 + max(code[:i], default=-1) for i, c in enumerate(code)):
            blocks = range(max(code, default=-1) + 1)
            out.append(tuple(tuple(x for x, c in zip(items, code) if c == b) for b in blocks))
    return out


def table_of(fn):
    """SetFunction -> {frozenset: value} for oracle-side arithmetic."""
    return {
        frozenset(fn.ground.labels_of(m)): fn.values[m] for m in fn.ground.subsets()
    }


def probs_of(p):
    """CoinVector -> {label: probability}."""
    return dict(zip(p.ground.labels, p.p))


def subset_probability(probs, subset):
    """Chance the independently tossed coins land exactly on `subset`."""
    out = 1
    for h, ph in probs.items():
        out = out * (ph if h in subset else 1 - ph)
    return out


def mean(table, probs):
    """Expectation of a subset table under independent coins."""
    total = 0
    for s in powerset(probs):
        total += subset_probability(probs, s) * table[s]
    return total


def coupled_mean(ftab, gtab, probs, shared):
    """E[f(S1) g(S2)] summed over the coupled pair law of `pair_weights`."""
    return sum(w * ftab[s1] * gtab[s2] for (s1, s2), w in pair_weights(probs, shared).items())


def pair_weights(probs, shared):
    """Joint law of (S1, S2), tossing the coins one at a time, zero entries
    dropped.

    Elements of `shared` get a single coin deciding membership in both S1
    and S2; every other element gets two independent coins.  This is the
    definition of the coupled product's measure, spelled out with three
    nested subset loops.
    """
    labels = set(probs)
    shared = frozenset(shared)
    free = labels - shared
    out = {}
    for both in powerset(shared):
        w_both = 1
        for h in shared:
            w_both = w_both * (probs[h] if h in both else 1 - probs[h])
        for only1 in powerset(free):
            w1 = 1
            for h in free:
                w1 = w1 * (probs[h] if h in only1 else 1 - probs[h])
            for only2 in powerset(free):
                w2 = 1
                for h in free:
                    w2 = w2 * (probs[h] if h in only2 else 1 - probs[h])
                w = w_both * w1 * w2
                if w == 0:
                    continue
                key = (both | only1, both | only2)
                out[key] = out.get(key, 0) + w
    return out


def contract(fv, gv, ps):
    """The whole coupled-product table by eliminating one element at a time.

    fv, gv are tables indexed by mask (element i is bit i) and ps the coin
    of each element.  3**n work; the route `convolve` took before its
    p-biased Fourier kernel, kept as a second oracle.
    """
    # Eliminate the first remaining element. Writing a for f(T), a1 for
    # f(T + h) and likewise b, b1, the element contributes
    #   h outside S:  ((1-p) a + p a1) * ((1-p) b + p b1)   (two coins)
    #   h inside S:   (1-p) a b + p a1 b1                   (one shared coin)
    # and the recursion applies the rule pointwise over the rest.
    if not ps:
        return [fv[0] * gv[0]]
    ph = ps[0]
    q = 1 - ph
    if len(ps) == 1:
        a, a1 = fv
        b, b1 = gv
        return [(q * a + ph * a1) * (q * b + ph * b1), q * (a * b) + ph * (a1 * b1)]
    f0, f1 = fv[0::2], fv[1::2]
    g0, g1 = gv[0::2], gv[1::2]
    rest = ps[1:]
    favg = [q * x + ph * y for x, y in zip(f0, f1)]
    gavg = [q * x + ph * y for x, y in zip(g0, g1)]
    lower = contract(favg, gavg, rest)
    c00 = contract(f0, g0, rest)
    c11 = contract(f1, g1, rest)
    out = [0] * (2 * len(lower))
    out[0::2] = lower
    out[1::2] = [q * x + ph * y for x, y in zip(c00, c11)]
    return out


# -- decision scenarios ------------------------------------------------------


def production_value(x, y, alpha, beta, probs, pool):
    """Expected output of the two-input firm with inputs pooled on `pool`.

    x, y map supplier name to input amount; the pooled suppliers ship both
    inputs on one boat (one coin), the rest ship the two inputs separately.
    """
    ftab = {}
    gtab = {}
    for s in powerset(probs):
        sx = sum(x[h] for h in s)
        sy = sum(y[h] for h in s)
        # zero input means zero output whatever the exponent
        ftab[s] = 0 if sx == 0 else sx ** alpha
        gtab[s] = 0 if sy == 0 else sy ** beta
    return coupled_mean(ftab, gtab, probs, pool)


def military_probs(red_members, blue_members, probs, pool):
    """(both targets disabled, neither disabled, exactly one) for the strike.

    red_members / blue_members are the collections of ordnance subsets
    sufficient for the respective target.  Sites in `pool` host a single
    interceptor coin shared by both waves.
    """
    labels = set(probs)
    red = {s: 1 if s in red_members else 0 for s in powerset(labels)}
    blue = {s: 1 if s in blue_members else 0 for s in powerset(labels)}
    red_c = {s: 1 - red[s] for s in red}
    blue_c = {s: 1 - blue[s] for s in blue}
    both = coupled_mean(red, blue, probs, pool)
    neither = coupled_mean(red_c, blue_c, probs, pool)
    return both, neither, 1 - both - neither


def merger_prob(rule_a, rule_b, probs, pool):
    """Chance both boards approve when `pool` shareholders vote identically."""
    return coupled_mean(rule_a, rule_b, probs, pool)


def voting_table(weights, quota):
    """Weighted-majority rule as a subset table of 0/1."""
    return {
        s: 1 if sum(weights[h] for h in s) >= quota else 0
        for s in powerset(weights)
    }


# -- partition game ----------------------------------------------------------


def game_payoff(blocks, p_of, payoff, player):
    """Expected product payoff by enumerating every block arrival pattern.

    blocks: list of (owner, frozenset of commodities), one entry per
    shipment in the profile.  p_of: owner -> arrival probability.
    payoff: (commodity, frozenset of suppliers) -> factor value for
    `player`.  Commodities are recovered from the payoff keys.
    """
    commodities = sorted({k for k, _ in payoff})
    total = 0
    for bits in product((0, 1), repeat=len(blocks)):
        w = 1
        for (owner, _), b in zip(blocks, bits):
            w = w * (p_of[owner] if b else 1 - p_of[owner])
        if w == 0:
            continue
        arrived = {k: set() for k in commodities}
        for (owner, kset), b in zip(blocks, bits):
            if b:
                for k in kset:
                    arrived[k].add(owner)
        val = w
        for k in commodities:
            val = val * payoff[(k, frozenset(arrived[k]))]
        total += val
    return total


def conditional_game_payoffs(blocks, p_of, payoff, player, i, j, fixed_bits):
    """(separate, merged) conditional payoffs of `player` for blocks i, j.

    fixed_bits pins the arrival of every block except i and j; the
    conditional law then tosses either two coins (separate) or one coin
    (merged) for the remaining pair.  Pure Fraction arithmetic.
    """
    ph = p_of[blocks[i][0]]
    assert blocks[i][0] == blocks[j][0] == player

    def value(bit_i, bit_j):
        arrived = {}
        for idx, (owner, kset) in enumerate(blocks):
            if idx == i:
                b = bit_i
            elif idx == j:
                b = bit_j
            else:
                b = fixed_bits[idx]
            if b:
                for k in kset:
                    arrived.setdefault(k, set()).add(owner)
        out = 1
        commodities = sorted({k for k, _ in payoff})
        for k in commodities:
            out = out * payoff[(k, frozenset(arrived.get(k, ())))]
        return out

    q = 1 - ph
    separate = (
        q * q * value(0, 0)
        + q * ph * value(0, 1)
        + ph * q * value(1, 0)
        + ph * ph * value(1, 1)
    )
    merged = q * value(0, 0) + ph * value(1, 1)
    return separate, merged


# -- sampling -----------------------------------------------------------------


def _one_piece_generator(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _sample_stats(vals):
    """(mean, standard error) of a sample, as plain numpy computes them."""
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(len(vals)))


def sampled_payoff(spec, profile, player, samples, seed):
    """(mean, stderr) of `player`'s product payoff over `samples` draws.

    One generator, one (samples x blocks) uniform matrix per supplier in
    supplier order, all drawn in one piece; a block arrives where its
    uniform is below the supplier's coin.  Success sets are written per
    commodity as supplier bit sums, then the payoff tables are read at them
    commodity by commodity.
    """
    rng = _one_piece_generator(seed)
    succeeded = {k: np.zeros(samples, dtype=np.int64) for k in spec.commodities}
    for bit, (coin, strat) in enumerate(zip(spec.p.p, profile.strategies)):
        arrived = rng.random((samples, len(strat.blocks))) < float(coin)
        for col, block in enumerate(strat.blocks):
            for k in block:
                succeeded[k] += np.where(arrived[:, col], 1 << bit, 0)
    who = spec.suppliers.index(player)
    vals = np.ones(samples)
    for k, row in zip(spec.commodities, spec.payoffs):
        vals = vals * np.array([float(v) for v in row[who].values])[succeeded[k]]
    return _sample_stats(vals)


def sampled_convolution(f, g, p, coupled, samples, seed):
    """(mean, stderr) of f(S1) g(S2) over `samples` coupled-pair draws.

    One generator draws two (samples x n) uniform matrices in one piece.
    S1 holds the elements whose matrix-one coin came up; S2 reads matrix
    one on the coupled elements and matrix two elsewhere.
    """
    rng = _one_piece_generator(seed)
    n = f.ground.n
    coins = np.array([float(x) for x in p.p])
    draws = [rng.random((samples, n)) < coins for _ in range(2)]
    s1 = np.zeros(samples, dtype=np.int64)
    s2 = np.zeros(samples, dtype=np.int64)
    for i in range(n):
        s1 += np.where(draws[0][:, i], 1 << i, 0)
        s2 += np.where(draws[0 if coupled >> i & 1 else 1][:, i], 1 << i, 0)
    fv = np.array([float(v) for v in f.values])
    gv = np.array([float(v) for v in g.values])
    return _sample_stats(fv[s1] * gv[s2])
