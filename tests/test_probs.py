"""Entropy, smoothing, and closed-form bound tests. Entropy and smoothing
are checked on the array path that computes them, score_pool.

Frozen expected values were computed by direct independent evaluation
(plain-Python summation of -sum p ln p and the printed bound formulas);
the generation scripts are inlined where cheap so the numbers can be
recomputed on sight.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alselect.classifier import ModelParams, design
from alselect.errors import VacuousBoundError
from alselect.probs import (LemmaBoundInput, entropy_lower_bound,
                            entropy_ratio_bound, lemma_bound)
from alselect.strategies import StrategyConfig, StrategyKind, score_pool

LN2 = math.log(2.0)


def oracle_entropy(p):
    return -sum(x * math.log(x) for x in p if x > 0)


def pool_scores(rows, chi):
    """score_pool on given class distributions. With one-hot features and
    weights ln r, the model's softmax reproduces each row r; zero entries
    get a logit of -1000, whose exp underflows to exactly 0."""
    R = np.asarray(rows, dtype=float)
    n, k = R.shape
    with np.errstate(divide="ignore"):
        logits = np.maximum(np.log(R), -1e3)
    model = ModelParams(weights=np.hstack([logits.T, np.zeros((k, 1))]), k=k, d=n)
    cfg = StrategyConfig(kind=StrategyKind.WEIGHTED, chi=chi)
    return score_pool(model, design(np.eye(n)), np.arange(n), cfg)


def oracle_smooth(r, chi):
    return [(1 - chi) * x + chi / len(r) for x in r]


def reference_score_pool(W, X, chi):
    """score_pool's row-major formula: softmax and entropy along axis 1 of an
    (n, k) array."""
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    s = Xa @ W.T
    s -= s.max(axis=1, keepdims=True)
    P = np.exp(s)
    P /= P.sum(axis=1, keepdims=True)
    V = (1.0 - chi) * P + chi / W.shape[0]
    return -(V * np.log(V)).sum(axis=1)


class TestRowMajorReference:
    """score_pool's class-major entropy equals the row-major formula bit for
    bit while k <= 7; from k = 8 the summation order differs by rounding."""

    @staticmethod
    def check(k, n, bias, seed):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((k, 11))
        W[:, -1] += bias
        X = rng.standard_normal((n, 10))
        u = score_pool(ModelParams(weights=W, k=k, d=10), design(X), np.arange(n),
                       StrategyConfig(kind=StrategyKind.WEIGHTED, chi=0.05))
        ref = reference_score_pool(W, X, 0.05)
        assert u.shape == (n,) and np.isfinite(u).all()
        if k <= 7:
            assert np.array_equal(u, ref)
        else:
            np.testing.assert_allclose(u, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 10])
    @pytest.mark.parametrize("n", [1, 2, 100, 1000])
    def test_matches(self, k, n):
        self.check(k, n, 0.0, seed=k * n)

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("bias", [800.0, -800.0])
    def test_scores_near_800(self, k, bias):
        # exp(+-800) overflows or underflows; the max-shift keeps every entry finite
        self.check(k, 100, bias, seed=k)


class TestEntropy:
    """Entropy as score_pool computes it, at a negligible smoothing floor."""

    TINY = 1e-12

    def test_uniform_two(self):
        assert pool_scores([[0.5, 0.5]], self.TINY)[0] == pytest.approx(LN2, abs=1e-15)

    def test_degenerate(self):
        # a one-hot prediction scores exactly the entropy of the floor row
        for chi in (self.TINY, 0.1, 0.5):
            u = pool_scores([[1.0, 0.0, 0.0]], chi)[0]
            assert u == pytest.approx(oracle_entropy(oracle_smooth([1, 0, 0], chi)), abs=1e-15)
        assert pool_scores([[1.0, 0.0]], self.TINY)[0] < 1e-10

    def test_three_class_oracle(self):
        # oracle_entropy([0.7, 0.2, 0.1]) == 0.8018185525433372
        u = pool_scores([[0.7, 0.2, 0.1]], self.TINY)[0]
        assert u == pytest.approx(0.8018185525433372, abs=1e-10)
        assert u == pytest.approx(oracle_entropy(oracle_smooth([0.7, 0.2, 0.1], self.TINY)),
                                  abs=1e-15)

    def test_permutation_invariant_exact(self):
        rng = np.random.default_rng(0)
        rows = rng.dirichlet(np.ones(5), size=50)
        shuffled = np.array([r[rng.permutation(5)] for r in rows])
        assert pool_scores(rows, 0.05) == pytest.approx(pool_scores(shuffled, 0.05), abs=5e-16)

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_range(self, k, seed):
        rng = np.random.default_rng(seed)
        h = pool_scores(rng.dirichlet(np.ones(k), size=5), self.TINY)
        assert (h >= -1e-12).all() and (h <= math.log(k) + 1e-12).all()

    def test_max_iff_uniform(self):
        k = 6
        v = [1 / k] * k
        v[0] += 0.01
        v[1] -= 0.01
        u = pool_scores([[1 / k] * k, v], self.TINY)
        assert u[0] == pytest.approx(math.log(k), abs=1e-12)
        assert u[1] < math.log(k) - 1e-6


class TestSmooth:
    """Uniform-mixture smoothing v = (1-chi)r + chi/k inside score_pool."""

    def test_example(self):
        # [1, 0] smooths to [0.95, 0.05] at chi = 0.1
        assert pool_scores([[1.0, 0.0]], 0.1)[0] == pytest.approx(
            oracle_entropy([0.95, 0.05]), abs=1e-15)

    def test_uniform_fixed_point(self):
        for chi in (0.05, 0.3, 0.9):
            assert pool_scores([[0.5, 0.5]], chi)[0] == pytest.approx(LN2, abs=1e-15)

    def test_identity_at_chi_to_zero(self):
        u = pool_scores([[0.8, 0.2]], 1e-12)[0]
        assert u == pytest.approx(oracle_entropy([0.8, 0.2]), abs=1e-10)

    def test_chi_validation(self):
        for chi in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                StrategyConfig(kind=StrategyKind.WEIGHTED, chi=chi)

    @given(st.integers(2, 10), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_floor_property(self, k, chi, seed):
        # every smoothed probability is >= chi/k, so every score clears the
        # entropy floor for that minimum, and matches the scalar oracle
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(k), size=5)
        u = pool_scores(rows, chi)
        expected = [oracle_entropy(oracle_smooth(r.tolist(), chi)) for r in rows]
        assert u == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert (u >= entropy_lower_bound(chi / k, k) - 1e-12).all()


class TestEntropyLowerBound:
    def test_oracle_values(self):
        # direct evaluation: eta = -ln(chi)/(1-chi); zeta = ln k - (eta-1-ln eta)/ln 2
        assert entropy_lower_bound(0.05, 10) == pytest.approx(0.8527914176444282, abs=1e-12)
        assert entropy_lower_bound(0.1, 2) == pytest.approx(-0.1999314289478329, abs=1e-12)

    def test_vacuous_is_returned_as_is(self):
        assert entropy_lower_bound(0.1, 2) < 0

    def test_chi_to_one_limit(self):
        assert entropy_lower_bound(1 - 1e-9, 7) == pytest.approx(math.log(7), abs=1e-6)

    def test_matches_ratio_form(self):
        for chi in (0.02, 0.1, 0.4):
            for k in (2, 5, 10):
                assert entropy_lower_bound(chi, k) == pytest.approx(
                    entropy_ratio_bound(1 / chi, k), abs=1e-12)

    def test_ratio_one(self):
        assert entropy_ratio_bound(1.0, 5) == math.log(5)

    @pytest.mark.parametrize("chi", [5e-324, 1e-310, 1e-300])
    def test_finite_where_one_over_chi_overflows(self, chi):
        # 1/chi is inf below about 5.6e-309; eta = -ln(chi)/(1-chi) is not
        zeta = entropy_lower_bound(chi, 3)
        assert math.isfinite(zeta) and zeta < 0

    @pytest.mark.parametrize("rho", [1e306, 1e307, sys.float_info.max])
    def test_ratio_finite_where_rho_ln_rho_overflows(self, rho):
        # rho * ln(rho) is inf above about 1e306; the bound falls with rho
        bound = entropy_ratio_bound(rho, 3)
        assert math.isfinite(bound) and bound <= entropy_ratio_bound(1e300, 3)

    def test_bound_holds_on_random_vectors(self):
        # small inline version of the Theorem-style acceptance check
        rng = np.random.default_rng(42)
        for k, rho in [(2, 2.0), (5, 10.0), (10, 100.0)]:
            bound = entropy_ratio_bound(rho, k)
            raw = rng.uniform(1.0, rho, size=(1000, k))
            p = raw / raw.sum(axis=1, keepdims=True)
            h = -(p * np.log(p)).sum(axis=1)
            assert (h >= bound - 1e-12).all()

    def test_chain_smooth_to_bound(self):
        # smoothing with chi floors probabilities at chi/k, so the bound with
        # min-probability chi/k must sit below the smoothed entropy
        rng = np.random.default_rng(7)
        for k in (2, 3, 10):
            for chi in (0.05, 0.25):
                floor_bound = entropy_lower_bound(chi / k, k)
                u = pool_scores(rng.dirichlet(np.ones(k), size=200), chi)
                assert (u >= floor_bound - 1e-12).all()


class TestLemmaBound:
    def test_oracle_example(self):
        rep = lemma_bound(LemmaBoundInput(beta=0.1, chi=0.05, k=10, delta=0.05))
        assert rep.eta == pytest.approx(3.1534023932147273, abs=1e-12)
        assert rep.p_s == pytest.approx(0.03703626068974266, abs=1e-12)
        assert rep.n_s == 80

    def test_vacuous(self):
        with pytest.raises(VacuousBoundError) as exc:
            lemma_bound(LemmaBoundInput(beta=0.1, chi=0.1, k=2, delta=0.05))
        assert exc.value.p_s <= 0
        assert exc.value.zeta < 0

    def test_subnormal_chi_is_vacuous(self):
        with pytest.raises(VacuousBoundError) as exc:
            lemma_bound(LemmaBoundInput(beta=0.1, chi=5e-324, k=3, delta=0.05))
        assert exc.value.eta == pytest.approx(-math.log(5e-324))
        assert exc.value.zeta < 0

    def test_delta_one_needs_no_draws(self):
        rep = lemma_bound(LemmaBoundInput(beta=0.1, chi=0.05, k=10, delta=1.0))
        assert rep.n_s == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            LemmaBoundInput(beta=0.0, chi=0.05, k=10, delta=0.05)
        with pytest.raises(ValueError):
            LemmaBoundInput(beta=0.1, chi=0.05, k=1, delta=0.05)
        with pytest.raises(ValueError):
            LemmaBoundInput(beta=0.1, chi=0.05, k=10, delta=1.5)

    def test_eta_above_one(self):
        for chi in np.linspace(0.01, 0.99, 25):
            rep_in = LemmaBoundInput(beta=0.5, chi=float(chi), k=50, delta=0.1)
            rep = lemma_bound(rep_in)
            assert rep.eta > 1.0

    def test_p_s_at_most_beta(self):
        for beta in (0.01, 0.2, 0.9, 1.0):
            rep = lemma_bound(LemmaBoundInput(beta=beta, chi=0.05, k=10, delta=0.1))
            assert rep.p_s <= beta

    def test_monotone_in_beta_and_delta(self):
        betas = np.linspace(0.02, 0.5, 8)
        deltas = np.linspace(0.02, 0.5, 8)
        ns_beta = [lemma_bound(LemmaBoundInput(beta=float(b), chi=0.05, k=10, delta=0.1)).n_s
                   for b in betas]
        assert all(a >= b for a, b in zip(ns_beta, ns_beta[1:]))
        ns_delta = [lemma_bound(LemmaBoundInput(beta=0.1, chi=0.05, k=10, delta=float(d))).n_s
                    for d in deltas]
        assert all(a >= b for a, b in zip(ns_delta, ns_delta[1:]))

    def test_n_s_at_least_one_for_real_delta(self):
        for delta in (0.01, 0.5, 0.99):
            rep = lemma_bound(LemmaBoundInput(beta=0.9, chi=0.4, k=100, delta=delta))
            assert rep.n_s >= 1
