"""Gumbel-form key sampling tests; uniform sampling is the same merge at
log weight 0.

Monte Carlo checks here run at reduced draw counts with correspondingly
wider tolerances (>= 4 binomial SE); the full-size versions with the spec
tolerances live in test_acceptance.py.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alselect.sampling import (_CHUNK, _PARTITION_SURPLUS, RngState,
                               SelectionStats, select_positions, select_top_k,
                               uniform_sample)


def oracle_generator(*seed_path):
    """A raw numpy generator seeded the way RngState documents it."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(seed_path))))


class TestRngState:
    def test_deterministic(self):
        a = RngState(42)
        b = RngState(42)
        draws = [a.uniforms_open(1)[0] for _ in range(5)]
        assert draws == [b.uniforms_open(1)[0] for _ in range(5)]
        assert draws == oracle_generator(42).random(5).tolist()

    def test_chunk_matches_scalar_stream(self):
        a = RngState(7).uniforms_open(16)
        g = oracle_generator(7)
        assert np.array_equal(a, np.array([g.random() for _ in range(16)]))
        c = RngState(7)
        singles = np.concatenate([c.uniforms_open(1) for _ in range(16)])
        assert np.array_equal(a, singles)

    def test_derive_independent(self):
        root = RngState(3)
        assert root.derive(1).uniforms_open(1)[0] != root.derive(2).uniforms_open(1)[0]
        assert np.array_equal(RngState(3).derive(1, 5).uniforms_open(4),
                              RngState(3).derive(1, 5).uniforms_open(4))
        assert np.array_equal(root.derive(1, 5).uniforms_open(4),
                              oracle_generator(3, 1, 5).random(4))

    def test_open_interval(self):
        r = RngState(0)
        xs = r.uniforms_open(10000)
        assert (xs > 0).all() and (xs < 1).all()

    def test_draws_are_nonzero_multiples_of_2_pow_minus_53(self):
        # the keys ln(-ln a) then span 40.34, which fixes the greedy limit
        m = RngState(1).uniforms_open(100000) * 2.0**53
        assert (m == np.floor(m)).all()
        assert m.min() >= 1.0 and m.max() <= 2.0**53 - 1.0

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RngState(-1)

    def test_zero_draws_redrawn_in_place(self):
        # zeros at known positions: each pass redraws exactly the zeros
        # left, in position order, from the same stream
        class ScriptedGen:
            def __init__(self, values):
                self.values = list(values)
                self.sizes = []

            def random(self, size):
                self.sizes.append(size)
                out, self.values = self.values[:size], self.values[size:]
                return np.array(out)

        r = RngState(0)
        r._gen = ScriptedGen([0.5, 0.0, 0.25, 0.0, 0.0, 0.75,   # first block
                              0.125, 0.0, 0.375,                # redraw of positions 1, 3, 4
                              0.0,                              # redraw of position 3
                              0.625,                            # redraw of position 3
                              0.875])                           # next block
        assert r.uniforms_open(6).tolist() == [0.5, 0.125, 0.25, 0.625, 0.375, 0.75]
        assert r._gen.sizes == [6, 3, 1, 1]
        assert r.uniforms_open(1).tolist() == [0.875]
        assert r._gen.sizes == [6, 3, 1, 1, 1]


def oracle_select_top_k(stream, k, rng, stats=None):
    """select_top_k with every merge a full lexsort of the retained keys
    plus the chunk: the reference the partitioned merge must reproduce."""
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    items = iter(stream)
    n_seen = 0
    kept_ids = kept_keys = None
    while chunk := list(itertools.islice(items, _CHUNK)):
        ids, weights = zip(*chunk)
        w = np.array(weights, dtype=np.float64)
        if not (w.min() > 0.0 and w.max() < math.inf):  # NaN fails both
            bad = w[~((w > 0.0) & (w < math.inf))][0]
            raise ValueError(f"weights must be positive and finite, got {float(bad)}")
        ids = np.array(ids, dtype=np.int64)
        keys = np.log(-np.log(rng.uniforms_open(len(w)))) - np.log(w)
        if kept_ids is not None:
            ids = np.concatenate((kept_ids, ids))
            keys = np.concatenate((kept_keys, keys))
        best = np.lexsort((ids, keys))[:k]
        kept_ids, kept_keys = ids[best], keys[best]
        n_seen += len(w)
        if stats is not None:
            stats.items_seen = n_seen
            stats.peak_retained = max(stats.peak_retained, len(kept_ids))

    if n_seen < k:
        raise ValueError(f"requested {k} items but only {n_seen} available")
    if len(chosen := set(kept_ids.tolist())) < k:
        raise ValueError("ids must be distinct")
    return chosen


class CoarseRng:
    """Uniforms rounded onto {1/4, 1/2, 3/4}: with equal weights, keys then
    tie by the thousand, at the partition threshold too."""

    def __init__(self, rng):
        self.rng = rng

    def uniforms_open(self, size):
        return (np.floor(self.rng.uniforms_open(size) * 3.0) + 1.0) / 4.0


WEIGHT_KINDS = {
    "equal": lambda g, n: np.full(n, 2.5),
    "tiny": lambda g, n: np.full(n, 1e-300),
    "huge": lambda g, n: np.full(n, 1e300),
    "spread": lambda g, n: np.exp(g.normal(0.0, 30.0, n)),
    "mixed": lambda g, n: g.choice([1e-300, 1.0, 1e300], n),
    "subnormal": lambda g, n: g.choice([5e-324, 1e-310, 1e-300], n),
}


@st.composite
def top_k_cases(draw):
    """(items, K, seed, coarse) with n in [1, 3*_CHUNK+1] and K in [1, n+1];
    ids are a permutation of a sparse range, and at most one id repeats or
    one weight is zero, negative, -inf, inf or NaN."""
    n = draw(st.one_of(st.integers(1, 40),
                       st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 3 * _CHUNK + 1]),
                       st.integers(1, 3 * _CHUNK + 1)))
    k = draw(st.one_of(st.integers(1, n + 1), st.sampled_from(sorted({n, n + 1, min(n, _CHUNK + 1)}))))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = g.permutation(3 * n)[:n]
    weights = WEIGHT_KINDS[draw(st.sampled_from(sorted(WEIGHT_KINDS)))](g, n)
    fault = draw(st.sampled_from([None, None, "repeat", "weight"]))
    pos = draw(st.integers(0, n - 1))
    if fault == "repeat":
        ids[pos] = ids[draw(st.integers(0, n - 1))]
    elif fault == "weight":
        weights[pos] = draw(st.sampled_from([0.0, -1.0, -math.inf, math.inf, math.nan]))
    items = list(zip(ids.tolist(), weights.tolist()))
    return items, k, draw(st.integers(0, 2**16)), draw(st.booleans())


class TestSelectTopK:
    def test_k_equals_n(self):
        out = select_top_k([(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)], 4, RngState(0))
        assert out == {0, 1, 2, 3}

    def test_insufficient(self):
        with pytest.raises(ValueError, match="requested 2 items but only 1 available"):
            select_top_k([(0, 1.0)], 2, RngState(0))

    def test_repeated_ids(self):
        with pytest.raises(ValueError, match="ids must be distinct"):
            select_top_k([(0, 1.0), (0, 2.0), (1, 1.0)], 3, RngState(0))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            select_top_k([(0, 1.0), (1, 0.0)], 1, RngState(0))
        with pytest.raises(ValueError):
            select_top_k([(0, 1.0), (1, -2.0)], 1, RngState(0))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                select_top_k([(0, 1.0), (1, bad)], 1, RngState(0))

    @pytest.mark.parametrize("tiny", [1e-310, 5e-324])
    def test_subnormal_weights_sample_by_ratio(self, tiny):
        # keys ln(a) / w overflowed to -inf below 2.04e-307, so these items tied
        # and went by id: id 0 won 88.5% of draws where its weight gives 12.5%
        items = [(0, tiny), (1, tiny), (2, tiny), (3, tiny), (4, 4 * tiny)]
        rng = RngState(0)
        counts = np.zeros(5)
        for _ in range(40000):
            (i,) = select_top_k(items, 1, rng)
            counts[i] += 1
        assert_one_in_eight_frequencies(counts)

    def test_smallest_weight_keeps_keys_finite(self):
        # the smallest uniform 2**-53 at the smallest weight 5e-324 gives the
        # key ln(53 ln 2) + 744.4, finite, with no floating-point error
        class SmallestRng:
            def uniforms_open(self, size):
                return np.full(size, 2.0**-53)

        with np.errstate(all="raise"):
            assert select_top_k([(0, 5e-324), (1, 1.0)], 1, SmallestRng()) == {1}

    def test_determinism(self):
        items = [(i, 0.5 + i) for i in range(50)]
        assert select_top_k(items, 7, RngState(99)) == select_top_k(items, 7, RngState(99))
        assert select_top_k(items, 7, RngState(99)) != select_top_k(items, 7, RngState(100))

    def test_key_order_equivalence(self):
        # oracle: materialize every log key with the same rng stream, sort
        # descending with ties to the smaller id, take the first K; n spans
        # several chunks so the per-chunk merge is covered
        n, k = 10000, 37
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.1, 5.0, size=n)
        items = list(zip(range(n), weights.tolist()))

        a = RngState(11).uniforms_open(n)
        logkeys = np.log(a) / weights
        order = sorted(range(n), key=lambda i: (-logkeys[i], i))
        expected = set(order[:k])

        got = select_top_k(items, k, RngState(11))
        assert got == expected

    @pytest.mark.parametrize("k", [5, _CHUNK + 1])
    def test_ties_go_to_smaller_ids(self, k):
        # constant uniforms and equal weights make every key equal, so the
        # tie rule alone decides: the K smallest ids, across chunk merges
        class ConstantRng:
            drawn = 0

            def uniforms_open(self, size):
                self.drawn += size
                return np.full(size, 0.5)

        n = 3 * _CHUNK + 1
        ids = np.random.default_rng(3).permutation(n).tolist()
        rng = ConstantRng()
        assert select_top_k([(i, 2.0) for i in ids], k, rng) == set(range(k))
        assert rng.drawn == n  # one uniform per item

    def test_memory_bounded(self):
        stats = SelectionStats()
        select_top_k(((i, 1.0) for i in range(20000)), 5, RngState(0), stats=stats)
        assert stats.items_seen == 20000
        assert stats.peak_retained <= 5

    def test_single_draw_frequencies(self):
        # reduced-size version of the inclusion-probability check; the
        # oracle is w_i / sum(w) exactly
        weights = [1.0, 2.0, 3.0, 4.0, 10.0]
        expected = np.array(weights) / sum(weights)
        draws = 40000
        counts = np.zeros(5)
        rng = RngState(123)
        items = list(enumerate(weights))
        for _ in range(draws):
            (i,) = select_top_k(items, 1, rng)
            counts[i] += 1
        # max SE ~ sqrt(0.5*0.5/40000) = 0.0025; allow 4.5 SE
        assert np.abs(counts / draws - expected).max() < 0.012

    def test_pair_frequencies_against_enumeration(self):
        weights = [1.0, 2.0, 3.0, 4.0]
        expected = pair_probabilities_oracle(weights)
        draws = 40000
        counts = {pair: 0 for pair in expected}
        rng = RngState(321)
        items = list(enumerate(weights))
        for _ in range(draws):
            sel = frozenset(select_top_k(items, 2, rng))
            counts[sel] += 1
        dev = max(abs(counts[p] / draws - expected[p]) for p in expected)
        assert dev < 0.015

    def test_equal_weights_uniform_inclusion(self):
        n, k, draws = 10, 3, 100000
        counts = np.zeros(n)
        rng = RngState(55)
        items = [(i, 2.5) for i in range(n)]
        for _ in range(draws):
            for i in select_top_k(items, k, rng):
                counts[i] += 1
        assert np.abs(counts / draws - k / n).max() < 0.01

    def test_scale_invariance(self):
        weights = [0.5, 1.0, 2.0, 4.0, 8.0]
        draws = 50000
        freqs = []
        for scale, seed in ((1.0, 77), (1000.0, 77)):
            counts = np.zeros(5)
            rng = RngState(seed)
            items = [(i, w * scale) for i, w in enumerate(weights)]
            for _ in range(draws):
                for i in select_top_k(items, 2, rng):
                    counts[i] += 1
            freqs.append(counts / draws)
        # same seed and same selection distribution: the realized inclusion
        # frequencies must agree within MC noise
        assert np.abs(freqs[0] - freqs[1]).max() < 0.01

    @given(top_k_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sort_oracle(self, case):
        items, k, seed, coarse = case
        results = []
        for select in (select_top_k, oracle_select_top_k):
            rng, stats = RngState(seed), SelectionStats()
            try:
                out = select(items, k, CoarseRng(rng) if coarse else rng, stats)
            except ValueError as exc:
                out = (type(exc), str(exc))
            assert stats.peak_retained <= k
            results.append((out, rng.uniforms_open(1)[0], stats.items_seen))
        assert results[0] == results[1]


@st.composite
def position_cases(draw):
    """(weights, K, seed, coarse) with n on both sides of _CHUNK and of
    K + _PARTITION_SURPLUS, tied weights among the kinds, and K = n."""
    k = draw(st.one_of(st.integers(1, 40), st.sampled_from([_CHUNK - 1, _CHUNK + 1])))
    edges = {_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, k,
             k + _PARTITION_SURPLUS, k + _PARTITION_SURPLUS + 1}
    n = draw(st.one_of(st.sampled_from(sorted(e for e in edges if e >= k)),
                       st.integers(k, 3 * _CHUNK + 1)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = WEIGHT_KINDS[draw(st.sampled_from(sorted(WEIGHT_KINDS)))](g, n)
    return weights, k, draw(st.integers(0, 2**16)), draw(st.booleans())


class TestSelectPositions:
    """The array entry point against the chunked (id, weight) stream."""

    @given(position_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_stream_path(self, case):
        weights, k, seed, coarse = case
        results = []
        for select in (lambda w, k, rng: select_positions(np.log(w), k, rng),
                       lambda w, k, rng: select_top_k(enumerate(w.tolist()), k, rng)):
            rng = RngState(seed)
            out = select(weights, k, CoarseRng(rng) if coarse else rng)
            results.append((out, rng.uniforms_open(1)[0]))
        assert results[0] == results[1]
        assert all(type(i) is int for i in results[0][0])

    def test_k_equals_n(self):
        w = np.linspace(0.5, 3.0, _CHUNK + 1)
        assert select_positions(w, len(w), RngState(0)) == set(range(len(w)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("n", [3, _CHUNK + 3])
    def test_same_weight_errors_as_stream(self, bad, n):
        # a weight outside (0, inf) has a log that is not finite: the stream
        # names the weight, the array path its log, both before too few items
        w = np.ones(n)
        w[n - 2] = bad
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = np.log(w)
        for k in (1, n + 1):
            with pytest.raises(ValueError, match=f"^weights must be positive and finite, got {bad}$"):
                select_top_k(enumerate(w.tolist()), k, RngState(0))
            with pytest.raises(ValueError, match=f"^log weights must be finite, got {log_w[n - 2]}$"):
                select_positions(log_w, k, RngState(0))

    def test_log_weight_past_double_range(self):
        # e^-800 is below the smallest double, yet these items sample by ratio
        log_w = np.full(5, -800.0)
        log_w[4] += math.log(4)
        rng = RngState(0)
        counts = np.zeros(5)
        for _ in range(40000):
            (i,) = select_positions(log_w, 1, rng)
            counts[i] += 1
        assert_one_in_eight_frequencies(counts)

    @pytest.mark.parametrize("n, k", [(0, 1), (3, 4), (_CHUNK, _CHUNK + 1), (5, 0)])
    def test_same_count_errors_as_stream(self, n, k):
        w = np.ones(n)
        with pytest.raises(ValueError) as stream_exc:
            select_top_k(enumerate(w.tolist()), k, RngState(0))
        with pytest.raises(ValueError, match="K must be|requested") as array_exc:
            select_positions(w, k, RngState(0))
        assert str(array_exc.value) == str(stream_exc.value)

    def test_rejects_2d_weights(self):
        with pytest.raises(ValueError, match="1-D"):
            select_positions(np.ones((3, 2)), 1, RngState(0))


def assert_one_in_eight_frequencies(counts):
    """Items 0-3 at one weight and item 4 at four times it: each count
    within 4.5 binomial SE of 1/8, 1/8, 1/8, 1/8, 1/2 of all draws."""
    draws = counts.sum()
    expected = np.array([0.125] * 4 + [0.5])
    se = np.sqrt(expected * (1 - expected) / draws)
    assert (np.abs(counts / draws - expected) < 4.5 * se).all(), counts / draws


def pair_probabilities_oracle(weights):
    """Brute-force enumeration of sequential weighted sampling without
    replacement over all ordered pairs."""
    total = sum(weights)
    probs = {}
    for i, j in itertools.permutations(range(len(weights)), 2):
        p = (weights[i] / total) * (weights[j] / (total - weights[i]))
        key = frozenset((i, j))
        probs[key] = probs.get(key, 0.0) + p
    return probs


class TestPairOracle:
    def test_sums_to_one(self):
        probs = pair_probabilities_oracle([1.0, 2.0, 3.0, 4.0])
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_heaviest_pair_most_likely(self):
        probs = pair_probabilities_oracle([1.0, 2.0, 3.0, 4.0])
        assert max(probs, key=probs.get) == frozenset((2, 3))


class TestUniformSample:
    def test_full_set(self):
        assert uniform_sample([4, 7, 9], 3, RngState(0)) == {4, 7, 9}

    def test_insufficient(self):
        with pytest.raises(ValueError, match="requested 3 items but only 2 available"):
            uniform_sample([1, 2], 3, RngState(0))

    def test_repeated_ids(self):
        with pytest.raises(ValueError, match="ids must be distinct"):
            uniform_sample([0, 0, 1], 3, RngState(0))

    def test_single_frequencies(self):
        draws = 60000
        counts = {1: 0, 2: 0, 3: 0}
        rng = RngState(9)
        for _ in range(draws):
            (i,) = uniform_sample([1, 2, 3], 1, rng)
            counts[i] += 1
        for c in counts.values():
            assert abs(c / draws - 1 / 3) < 0.01

    def test_pair_frequencies(self):
        draws = 100000
        counts = {}
        rng = RngState(10)
        for _ in range(draws):
            s = frozenset(uniform_sample(range(5), 2, rng))
            counts[s] = counts.get(s, 0) + 1
        assert len(counts) == 10
        for c in counts.values():
            assert abs(c / draws - 0.1) < 0.01

    def test_determinism(self):
        assert uniform_sample(range(100), 10, RngState(4)) == uniform_sample(range(100), 10, RngState(4))

    def test_inclusion_frequencies_across_chunks(self):
        # every id of a pool larger than _CHUNK is kept with probability K/n;
        # the Pearson statistic over all n ids has mean n and sd about sqrt(2n)
        n, k, draws = 2 * _CHUNK + 1, _CHUNK, 400
        counts = np.zeros(n)
        rng = RngState(12)
        for _ in range(draws):
            counts[list(uniform_sample(np.arange(n), k, rng))] += 1
        p = k / n
        stat = ((counts - draws * p) ** 2).sum() / (draws * p * (1 - p))
        assert abs(stat - n) < 5 * math.sqrt(2 * n)

    @pytest.mark.parametrize("k", [1, 3, 50, _CHUNK + 7])
    @pytest.mark.parametrize("extra", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_matches_per_item_oracle(self, k, extra):
        # n = K, K+1, and K + _CHUNK-1 / _CHUNK / _CHUNK+1 / 2*_CHUNK+1, so
        # the merge meets every chunk edge and partitions past K + 512; the
        # draw is select_positions' at equal weights, the same next draw too
        n = k + extra
        ids = np.random.default_rng(n).permutation(10 * n)[:n]
        got_rng, oracle_rng, positions_rng = (RngState(17, (n, k)) for _ in range(3))
        got = uniform_sample(ids, k, got_rng)
        assert got == oracle_uniform_sample(ids, k, oracle_rng)
        assert got == {ids[p] for p in select_positions(np.zeros(n), k, positions_rng)}
        next_draws = {r.uniforms_open(1)[0] for r in (got_rng, oracle_rng, positions_rng)}
        assert len(next_draws) == 1

    def test_chained_calls_match_oracle(self):
        got_rng, oracle_rng = RngState(23), RngState(23)
        for call in range(20):
            n, k = 50 + 997 * call, 1 + call % 7
            ids = np.arange(n)
            assert uniform_sample(ids, k, got_rng) == oracle_uniform_sample(ids, k, oracle_rng)
        assert got_rng.uniforms_open(1)[0] == oracle_rng.uniforms_open(1)[0]

    def test_returns_python_ints(self):
        got = uniform_sample(np.arange(3 * _CHUNK), 40, RngState(2))
        assert all(type(i) is int for i in got)


def oracle_uniform_sample(ids, k, rng):
    """Per-item keys: one uniform a per id in order, then the K ids with the
    largest ln a (the smallest ln(-ln a)), ties toward the smaller id."""
    keys = np.log(rng.uniforms_open(len(ids))).tolist()
    order = sorted(range(len(ids)), key=lambda i: (-keys[i], ids[i]))
    return {int(ids[i]) for i in order[:k]}
