"""Selection-strategy tests: scoring chain, the four policies, and their
limit behaviors (d=0 is Random, d large greedy-like, eps=0 greedy)."""

import bisect
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alselect.classifier import ModelParams, design, fit
from alselect.probs import entropy_lower_bound
from alselect.sampling import _CHUNK, _PARTITION_SURPLUS, RngState, select_top_k
from alselect.strategies import StrategyConfig, StrategyKind, score_pool, select_batch


def oracle_score(W, x, chi):
    """Plain-math chain for one row: softmax -> uniform mix -> entropy."""
    logits = [sum(w * xi for w, xi in zip(row[:-1], x)) + row[-1] for row in W]
    top = max(logits)
    e = [math.exp(s - top) for s in logits]
    v = [(1 - chi) * ei / sum(e) + chi / len(e) for ei in e]
    return -sum(p * math.log(p) for p in v)


def make_scores(values):
    return np.asarray(values, dtype=float)


def reference_eps_greedy(scores, b, epsilon, rng):
    """eps-Greedy by popping one slot at a time from the remaining positions
    in ascending order: a uniform slot pops the j-th, a greedy slot the best
    remaining one in the stable ranking."""
    remaining = list(range(len(scores)))
    ranked = iter(np.argsort(-scores, kind="stable").tolist())
    chosen = set()
    for _ in range(b):
        if rng.uniforms_open(1)[0] < epsilon:
            pick = remaining.pop(rng.integers(len(remaining)))
        else:
            # positions the iterator passes over are chosen for good
            pick = next(p for p in ranked if p not in chosen)
            remaining.pop(bisect.bisect_left(remaining, pick))
        chosen.add(pick)
    return chosen


def rank_order_eps_greedy(scores, b, epsilon, rng):
    """eps-Greedy by popping from the whole pool's stable ranking, one slot
    at a time: a uniform slot pops the j-th remaining rank. Same batch
    distribution as `reference_eps_greedy`, different batch per rng state."""
    ranked = np.argsort(-scores, kind="stable").tolist()
    chosen = set()
    for _ in range(b):
        j = rng.integers(len(ranked)) if rng.uniforms_open(1)[0] < epsilon else 0
        chosen.add(ranked.pop(j))
    return chosen


class TestScorePool:
    def test_zero_weights_give_max_entropy(self):
        k, d = 4, 3
        model = ModelParams(weights=np.zeros((k, d + 1)), k=k, d=d)
        X = np.random.default_rng(0).standard_normal((50, d))
        scores = score_pool(model, design(X), StrategyConfig(kind=StrategyKind.GREEDY, chi=0.2))
        assert np.unique(scores).size == 1  # identical inputs, identical score
        assert scores[0] == pytest.approx(math.log(k), abs=1e-12)

    def test_saturated_prediction_oracle(self):
        # r ~ [1, 0] then v = [0.95, 0.05]; H(v) = 0.1985152433458726
        model = ModelParams(weights=np.array([[60.0, 0.0], [-60.0, 0.0]]), k=2, d=1)
        X = np.array([[1.0]])
        scores = score_pool(model, design(X), StrategyConfig(kind=StrategyKind.GREEDY, chi=0.1))
        assert scores[0] == pytest.approx(0.1985152433458726, abs=1e-9)

    def test_matches_scalar_chain(self):
        rng = np.random.default_rng(1)
        d, k = 4, 3
        X = rng.standard_normal((20, d))
        y = rng.integers(0, k, size=20)
        model = fit(X, y, k)
        cfg = StrategyConfig(kind=StrategyKind.WEIGHTED, chi=0.07)
        scores = score_pool(model, design(X), cfg)
        for i in range(20):
            u = oracle_score(model.weights.tolist(), X[i].tolist(), 0.07)
            assert scores[i] == pytest.approx(u, rel=1e-9)

    def test_scores_bounded(self):
        rng = np.random.default_rng(2)
        k, d, chi = 3, 5, 0.2
        model = ModelParams(weights=rng.standard_normal((k, d + 1)) * 3, k=k, d=d)
        X = rng.standard_normal((200, d)) * 4
        scores = score_pool(model, design(X), StrategyConfig(kind=StrategyKind.GREEDY, chi=chi))
        floor = entropy_lower_bound(chi / k, k)
        assert (scores >= max(floor, 0.0) - 1e-12).all()
        assert (scores <= math.log(k) + 1e-12).all()


class TestSelectBatchScores:
    # greedy would rank a nan or inf without complaint, so only the check fails these
    @pytest.mark.parametrize("scores", [[1.0, 0.0], [1.0, -1.0], [1.0, math.nan],
                                        [math.nan, 1.0], [2.0, math.nan, 0.5],
                                        [1.0, math.inf], [-math.inf, 1.0],
                                        [[1.0, 2.0], [3.0, 4.0]]],
                             ids=["zero", "negative", "nan", "nan_first", "nan_mid",
                                  "inf", "neg_inf", "2d"])
    def test_rejects_nonpositive_scores(self, scores):
        with pytest.raises(ValueError, match=r"scores must be positive and finite \(smoothing floor\)"):
            select_batch(StrategyConfig(kind=StrategyKind.GREEDY), np.array(scores), 1, RngState(0))

    def test_empty_scores_are_too_few(self):
        with pytest.raises(ValueError, match="requested 1 items but only 0 available"):
            select_batch(StrategyConfig(kind=StrategyKind.GREEDY), np.array([]), 1, RngState(0))


class TestGreedy:
    CFG = StrategyConfig(kind=StrategyKind.GREEDY)

    def test_forced_ordering(self):
        out = select_batch(self.CFG, make_scores([0.1, 0.9, 0.5]), 2, RngState(0))
        assert out == {1, 2}

    def test_tie_breaks_to_smaller_id(self):
        out = select_batch(self.CFG, make_scores([0.5, 0.5, 0.5]), 2, RngState(0))
        assert out == {0, 1}
        # 40 positions tie at the top; beyond 16 items numpy's default sort is not stable
        scores = make_scores(np.tile([1.0, 2.0, 1.5], 40))
        expected = set(range(1, 90, 3))
        assert select_batch(self.CFG, scores, 30, RngState(0)) == expected
        eps0 = StrategyConfig(kind=StrategyKind.EPS_GREEDY, epsilon=0.0)
        assert select_batch(eps0, scores, 30, RngState(0)) == expected

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.1, 2.0, size=40)
        a = select_batch(self.CFG, make_scores(u), 10, RngState(0))
        b = select_batch(self.CFG, make_scores(2 * u + 1), 10, RngState(0))
        assert a == b

    def test_insufficient(self):
        with pytest.raises(ValueError, match="requested 3 items but only 2 available"):
            select_batch(self.CFG, make_scores([1.0, 2.0]), 3, RngState(0))

    @given(n=st.one_of(st.integers(1, 60), st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 6000])),
           n_values=st.integers(1, 5), b_pick=st.one_of(st.sampled_from(["one", "all"]),
                                                        st.floats(0.0, 1.0)),
           seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_stable_sort(self, n, n_values, b_pick, seed):
        # a handful of distinct scores, so many positions tie at the B-th score
        g = np.random.default_rng(seed)
        u = g.choice(g.uniform(0.1, 2.0, n_values), n)
        b = 1 if b_pick == "one" else n if b_pick == "all" else 1 + int(b_pick * (n - 1))
        rng = RngState(seed)
        assert select_batch(self.CFG, u, b, rng) == set(np.argsort(-u, kind="stable")[:b].tolist())
        assert rng.uniforms_open(1)[0] == RngState(seed).uniforms_open(1)[0]


class TestEpsGreedy:
    def test_eps_zero_equals_greedy(self):
        rng_scores = np.random.default_rng(4)
        u = rng_scores.uniform(0.1, 2.0, size=30)
        greedy = select_batch(StrategyConfig(kind=StrategyKind.GREEDY),
                              make_scores(u), 8, RngState(0))
        for seed in range(10):
            eps0 = select_batch(StrategyConfig(kind=StrategyKind.EPS_GREEDY, epsilon=0.0),
                                make_scores(u), 8, RngState(seed))
            assert eps0 == greedy

    def test_eps_one_is_not_greedy(self):
        u = np.linspace(0.1, 3.0, 50)
        greedy = select_batch(StrategyConfig(kind=StrategyKind.GREEDY),
                              make_scores(u), 5, RngState(0))
        hits = 0
        for seed in range(20):
            full = select_batch(StrategyConfig(kind=StrategyKind.EPS_GREEDY, epsilon=1.0),
                                make_scores(u), 5, RngState(seed))
            if full == greedy:
                hits += 1
        assert hits < 3  # uniform draws almost never match the top-5 set

    def test_exploration_rate(self):
        # with eps=0.5 and B=1, the pick is the top item about half the time
        u = np.linspace(0.1, 3.0, 20)
        top = 19
        cnt = 0
        draws = 4000
        rng = RngState(7)
        cfg = StrategyConfig(kind=StrategyKind.EPS_GREEDY, epsilon=0.5)
        for _ in range(draws):
            (pick,) = select_batch(cfg, make_scores(u), 1, rng)
            if pick == top:
                cnt += 1
        # P(top) = 0.5 + 0.5/20 = 0.525
        assert abs(cnt / draws - 0.525) < 0.03

    def test_distinct_ids(self):
        u = np.ones(10)
        out = select_batch(StrategyConfig(kind=StrategyKind.EPS_GREEDY, epsilon=0.3),
                           make_scores(u), 10, RngState(1))
        assert out == set(range(10))

    @given(n=st.one_of(st.integers(1, 60), st.sampled_from([_CHUNK - 1, _CHUNK, 6000])),
           n_values=st.one_of(st.integers(1, 5), st.none()),
           b_pick=st.one_of(st.sampled_from(["one", "all"]), st.floats(0.0, 1.0)),
           epsilon=st.one_of(st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.floats(0.0, 1.0)),
           seed=st.integers(0, 2**16))
    @settings(max_examples=300, deadline=None)
    def test_matches_pop_reference(self, n, n_values, b_pick, epsilon, seed):
        # a handful of distinct scores (None: all distinct), so ties are common
        g = np.random.default_rng(seed)
        u = g.uniform(0.1, 2.0, n) if n_values is None else g.choice(g.uniform(0.1, 2.0, n_values), n)
        b = 1 if b_pick == "one" else n if b_pick == "all" else 1 + int(b_pick * (n - 1))
        cfg = StrategyConfig(kind=StrategyKind.EPS_GREEDY, epsilon=epsilon)
        rng, ref_rng = RngState(seed), RngState(seed)
        assert select_batch(cfg, u, b, rng) == reference_eps_greedy(u, b, epsilon, ref_rng)
        assert rng.uniforms_open(1)[0] == ref_rng.uniforms_open(1)[0]

    def test_batch_distribution_matches_rank_order(self):
        # a uniform slot indexes remaining positions, the rank-order oracle
        # remaining ranks; both pick uniformly among the remaining items, so
        # every subset's frequency agrees within 4.5 standard errors of the
        # difference of two independent frequencies
        u = make_scores([1.0, 2.0, 2.0, 0.5, 2.0, 1.0])
        cfg = StrategyConfig(kind=StrategyKind.EPS_GREEDY, epsilon=0.5)
        draws = 20000
        rng, oracle_rng = RngState(11), RngState(12)
        new, old = Counter(), Counter()
        for _ in range(draws):
            new[frozenset(select_batch(cfg, u, 3, rng))] += 1
            old[frozenset(rank_order_eps_greedy(u, 3, 0.5, oracle_rng))] += 1
        assert len(new | old) == 20  # every 3-subset of 6 is reachable
        for subset in new | old:
            p = (new[subset] + old[subset]) / (2 * draws)
            assert abs(new[subset] - old[subset]) / draws <= 4.5 * math.sqrt(2 * p * (1 - p) / draws)


class TestWeighted:
    def test_d_zero_collapses_to_uniform(self):
        n, b, draws = 10, 3, 100000
        cfg = StrategyConfig(kind=StrategyKind.WEIGHTED, exponent_d=0.0)
        scores = make_scores(np.linspace(0.2, 2.0, n))
        counts = np.zeros(n)
        rng = RngState(42)
        for _ in range(draws):
            for i in select_batch(cfg, scores, b, rng):
                counts[i] += 1
        assert np.abs(counts / draws - b / n).max() < 0.01

    def test_large_d_exploits(self):
        cfg = StrategyConfig(kind=StrategyKind.WEIGHTED, exponent_d=50.0)
        scores = make_scores(np.array([0.4, 0.8, 1.2, 1.6, 2.0, 2.4]))
        top = {3, 4, 5}
        draws = 2000
        hits = 0
        rng = RngState(8)
        for _ in range(draws):
            if select_batch(cfg, scores, 3, rng) == top:
                hits += 1
        assert hits / draws >= 0.99

    def test_greedy_limit_is_exact(self):
        # once d*ln(u_(B)/u_(B+1)) > 40.4 the (B+1)-th best item would need
        # ln(-ln a) to span more than 40.34, which no double uniform does
        b = 10
        for seed in range(200):
            u = make_scores(np.random.default_rng(seed).permutation(np.linspace(0.2, 2.0, 40)))
            ranked = np.sort(u)[::-1]
            d_min = 40.41 / math.log(ranked[b - 1] / ranked[b])
            greedy = select_batch(StrategyConfig(kind=StrategyKind.GREEDY), u, b, RngState(seed))
            for d in (d_min, 1e6, 1e300, sys.float_info.max):
                cfg = StrategyConfig(kind=StrategyKind.WEIGHTED, exponent_d=d)
                assert select_batch(cfg, u, b, RngState(seed)) == greedy

    @given(scores=st.lists(st.one_of(st.sampled_from([0.05, 0.3, 1.0, 1.1, 2.0]),
                                     st.floats(0.01, 3.0)), min_size=1, max_size=60),
           d=st.one_of(st.sampled_from([0.0, 1.0, 16.0, 64.0, 600.0, 5000.0, 1e6]),
                       st.floats(0.0, 1e6)),
           b_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=300, deadline=None)
    def test_matches_log_space_oracle(self, scores, d, b_frac, seed):
        # item i's exponent key ln(a_i) / u_i^d ranks as -(ln(-ln a_i) - d ln u_i),
        # finite for every d and u drawn here; ties go to the smaller position
        u = make_scores(scores)
        b = 1 + int(b_frac * (len(u) - 1))
        log_key = np.log(-np.log(RngState(seed).uniforms_open(len(u)))) - d * np.log(u)
        expected = set(np.lexsort((np.arange(len(u)), log_key))[:b].tolist())
        cfg = StrategyConfig(kind=StrategyKind.WEIGHTED, exponent_d=d)
        assert select_batch(cfg, u, b, RngState(seed)) == expected

    @pytest.mark.parametrize("d", [0.0, 1.0, 16.0, 1e6])
    @pytest.mark.parametrize("n, b", [(40, 10), (_CHUNK + 1, 30), (5500, 30), (3 * _CHUNK, 2000)])
    def test_matches_tuple_stream_selection(self, d, n, b):
        # the log-weight path gives the sets the (id, weight) stream gave at
        # the weights (u/u_B)^d, d*ln(u/u_B) clipped to [-64, 64], so a run's
        # records stay byte-identical
        cfg = StrategyConfig(kind=StrategyKind.WEIGHTED, exponent_d=d)
        g = np.random.default_rng(n)
        for seed in range(5):
            u = make_scores(g.uniform(0.2, 1.1, n))
            log_u = np.log(u)
            log_u_b = np.sort(log_u)[n - b]
            with np.errstate(over="ignore"):
                w = np.exp(np.clip(d * (log_u - log_u_b), -64.0, 64.0))
            new_rng, old_rng = RngState(seed, (n, b)), RngState(seed, (n, b))
            assert select_batch(cfg, u, b, new_rng) == select_top_k(enumerate(w.tolist()), b, old_rng)
            assert new_rng.uniforms_open(1)[0] == old_rng.uniforms_open(1)[0]

    def test_d_one_matches_direct_key_sampling(self):
        # with d=1 the weights are the raw scores; spot-check determinism
        scores = make_scores(np.array([0.5, 1.0, 1.5, 2.0]))
        cfg = StrategyConfig(kind=StrategyKind.WEIGHTED, exponent_d=1.0)
        a = select_batch(cfg, scores, 2, RngState(3))
        b = select_batch(cfg, scores, 2, RngState(3))
        assert a == b


class TestRandomStrategy:
    def test_ignores_scores(self):
        cfg = StrategyConfig(kind=StrategyKind.RANDOM)
        a = select_batch(cfg, make_scores([1.0, 2.0, 3.0, 4.0]), 2, RngState(5))
        b = select_batch(cfg, make_scores([4.0, 3.0, 2.0, 1.0]), 2, RngState(5))
        assert a == b  # same ids, same rng, scores unused

    def test_batch_size(self):
        cfg = StrategyConfig(kind=StrategyKind.RANDOM)
        out = select_batch(cfg, make_scores(np.ones(30)), 12, RngState(0))
        assert len(out) == 12

    @given(n=st.one_of(st.integers(1, 60),
                       st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 9000]),
                       st.integers(1, 9000)),
           data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_is_weighted_at_d_zero(self, n, data, seed):
        # the same batch and the same next draw, on both sides of _CHUNK and
        # of B + _PARTITION_SURPLUS, past which the merge partitions
        edges = {1, n, max(1, n - _PARTITION_SURPLUS), max(1, n - _PARTITION_SURPLUS - 1)}
        b = data.draw(st.one_of(st.integers(1, n), st.sampled_from(sorted(edges))))
        scores = make_scores(np.random.default_rng(seed).uniform(0.2, 1.1, n))
        results = []
        for cfg in (StrategyConfig(kind=StrategyKind.RANDOM),
                    StrategyConfig(kind=StrategyKind.WEIGHTED, exponent_d=0.0)):
            rng = RngState(seed)
            results.append((select_batch(cfg, scores, b, rng), rng.uniforms_open(1)[0]))
        assert results[0] == results[1]


class TestAllStrategies:
    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_returns_b_distinct_pool_ids(self, kind):
        cfg = StrategyConfig(kind=kind)
        scores = make_scores(np.random.default_rng(6).uniform(0.5, 2.0, 40))
        out = select_batch(cfg, scores, 15, RngState(2))
        assert len(out) == 15
        assert out <= set(range(40))

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_deterministic_per_seed(self, kind):
        cfg = StrategyConfig(kind=kind)
        scores = make_scores(np.random.default_rng(7).uniform(0.5, 2.0, 25))
        assert select_batch(cfg, scores, 6, RngState(9)) == \
               select_batch(cfg, scores, 6, RngState(9))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind=StrategyKind.EPS_GREEDY, epsilon=1.5)
        with pytest.raises(ValueError):
            StrategyConfig(kind=StrategyKind.WEIGHTED, exponent_d=-1.0)
        with pytest.raises(ValueError):
            StrategyConfig(kind=StrategyKind.WEIGHTED, chi=0.0)
        with pytest.raises(ValueError):
            StrategyConfig(kind="greedy")
