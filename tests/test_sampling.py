"""Exponent-key sampling and uniform reservoir tests.

Monte Carlo checks here run at reduced draw counts with correspondingly
wider tolerances (>= 4 binomial SE); the full-size versions with the spec
tolerances live in test_acceptance.py.
"""

import itertools
import math

import numpy as np
import pytest

from alselect.errors import InsufficientItemsError
from alselect.sampling import (_CHUNK, RngState, SelectionStats, select_top_k,
                               uniform_sample)


class TestRngState:
    def test_deterministic(self):
        a = RngState(42)
        b = RngState(42)
        assert [a.uniform_open() for _ in range(5)] == [b.uniform_open() for _ in range(5)]

    def test_chunk_matches_scalar_stream(self):
        a = RngState(7).uniforms_open(16)
        b = np.array([RngState(7).uniform_open() for _ in range(1)])
        assert a[0] == b[0]
        c = RngState(7)
        scalars = np.array([c.uniform_open() for _ in range(16)])
        assert np.array_equal(a, scalars)

    def test_derive_independent(self):
        root = RngState(3)
        assert root.derive(1).uniform_open() != root.derive(2).uniform_open()
        assert RngState(3).derive(1, 5).uniform_open() == RngState(3).derive(1, 5).uniform_open()

    def test_open_interval(self):
        r = RngState(0)
        xs = r.uniforms_open(10000)
        assert (xs > 0).all() and (xs < 1).all()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RngState(-1)


class TestSelectTopK:
    def test_k_equals_n(self):
        out = select_top_k([(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)], 4, RngState(0))
        assert out == {0, 1, 2, 3}

    def test_insufficient(self):
        with pytest.raises(InsufficientItemsError):
            select_top_k([(0, 1.0)], 2, RngState(0))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            select_top_k([(0, 1.0), (1, 0.0)], 1, RngState(0))
        with pytest.raises(ValueError):
            select_top_k([(0, 1.0), (1, -2.0)], 1, RngState(0))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                select_top_k([(0, 1.0), (1, bad)], 1, RngState(0))

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
        with pytest.raises(InsufficientItemsError):
            uniform_sample([1, 2], 3, RngState(0))

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
