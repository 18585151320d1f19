"""Logistic-regression learner tests: gradient correctness against central
finite differences, monotone loss, convergence to the gradient tolerance,
boundary behaviors, and determinism."""

import numpy as np
import pytest

from alselect.classifier import (FitConfig, ModelParams, _augment, accuracy,
                                 fit, loss_and_grad, predict_proba_matrix)


def finite_difference_grad(W, Xa, y, k, l2, step=1e-5):
    G = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        Wp = W.copy()
        Wp[idx] += step
        Wm = W.copy()
        Wm[idx] -= step
        lp, _ = loss_and_grad(Wp, Xa, y, k, l2)
        lm, _ = loss_and_grad(Wm, Xa, y, k, l2)
        G[idx] = (lp - lm) / (2 * step)
    return G


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        n, d, k = 20, 5, 3
        for trial in range(20):
            X = rng.standard_normal((n, d))
            y = rng.integers(0, k, size=n)
            W = rng.standard_normal((k, d + 1)) * 0.5
            Xa = _augment(X)
            _, G = loss_and_grad(W, Xa, y, k, 1e-4)
            G_fd = finite_difference_grad(W, Xa, y, k, 1e-4)
            rel = np.linalg.norm(G - G_fd) / max(np.linalg.norm(G_fd), 1e-12)
            assert rel <= 1e-5, f"trial {trial}: relative error {rel:.2e}"


class TestFit:
    def test_separable_pair(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        params = fit(X, y, 2, FitConfig(l2_reg=0.0))
        assert accuracy(params, X, y) == 1.0

    def test_huge_regularization_gives_uniform(self):
        # the penalty dominates so feature weights collapse; the unpenalized
        # bias fits the (balanced) prior, leaving uniform predictions.
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 4))
        y = np.repeat([0, 1, 2], 10)
        params = fit(X, y, 3, FitConfig(l2_reg=500.0))
        assert np.abs(params.weights[:, :-1]).max() < 1e-3
        P = predict_proba_matrix(params, X)
        assert np.abs(P - 1 / 3).max() < 0.02

    def test_constant_labels(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((15, 3))
        y = np.zeros(15, dtype=int)
        params = fit(X, y, 2, FitConfig())
        assert accuracy(params, X, y) == 1.0

    def test_loss_monotone(self):
        rng = np.random.default_rng(3)
        problems = [(rng.standard_normal((20, 5)), rng.integers(0, 3, size=20))
                    for _ in range(5)]
        # on this one undamped Newton steps raise the loss by ~3e4 and never
        # converge, so it needs the backtracking line search
        problems.append((np.array([[4.0, 2.0], [-3.0, 5.0], [3.0, 2.0], [5.0, 0.0]]),
                         np.array([0, 1, 2, 2])))
        for X, y in problems:
            losses = []
            fit(X, y, 3, FitConfig(), loss_history=losses)
            diffs = np.diff(losses)
            assert diffs.max() <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((25, 4))
        y = rng.integers(0, 3, size=25)
        a = fit(X, y, 3, FitConfig())
        b = fit(X, y, 3, FitConfig())
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("l2_reg", [1e-4, 5.0, 50.0])
    def test_converges_to_tol(self, l2_reg):
        rng = np.random.default_rng(7)
        cfg = FitConfig(l2_reg=l2_reg)
        for _ in range(5):
            # shifted class means make the problem nearly separable: the
            # optimal weights are large and first-order steps crawl there
            y = rng.integers(0, 3, size=60)
            X = rng.standard_normal((60, 4)) + 2.0 * np.eye(3, 4)[y]
            losses = []
            params = fit(X, y, 3, cfg, loss_history=losses)
            _, G = loss_and_grad(params.weights, _augment(X), y, 3, l2_reg)
            assert np.abs(G).max() < cfg.tol
            assert len(losses) < cfg.max_iters

    def test_absent_class_still_scored(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        y = np.array([0, 1, 0, 1])
        params = fit(X, y, 3, FitConfig())
        p = predict_proba_matrix(params, np.array([[0.5]]))[0]
        assert p.shape == (3,)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit(np.zeros((0, 2)), np.zeros(0, dtype=int), 2, FitConfig())
        with pytest.raises(ValueError):
            fit(np.zeros((3, 2)), np.array([0, 1, 2]), 2, FitConfig())
        with pytest.raises(ValueError):
            FitConfig(tol=0.0)
        with pytest.raises(ValueError):
            FitConfig(max_iters=0)


class TestPredictProba:
    def test_zero_weights_uniform(self):
        params = ModelParams(weights=np.zeros((4, 3)), k=4, d=2)
        p = predict_proba_matrix(params, np.array([3.0, -1.0])[None, :])[0]
        assert p == pytest.approx([0.25] * 4, abs=1e-15)

    def test_strong_weights_oracle(self):
        # softmax(10, -10) = [0.9999999979388463, 2.0611536181902033e-09]
        params = ModelParams(weights=np.array([[10.0, 0.0], [-10.0, 0.0]]), k=2, d=1)
        p = predict_proba_matrix(params, np.array([1.0])[None, :])[0]
        assert p[0] == pytest.approx(1.0, abs=1e-8)
        assert p[1] == pytest.approx(2.0611536181902033e-09, rel=1e-6)

    def test_class_permutation_symmetry(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((3, 4))
        x = rng.standard_normal(3)
        perm = [2, 0, 1]
        p = predict_proba_matrix(ModelParams(weights=W, k=3, d=3), x[None, :])[0]
        q = predict_proba_matrix(ModelParams(weights=W[perm], k=3, d=3), x[None, :])[0]
        assert q == pytest.approx(p[perm], abs=1e-15)

    def test_dimension_mismatch(self):
        params = ModelParams(weights=np.zeros((2, 3)), k=2, d=2)
        with pytest.raises(ValueError):
            predict_proba_matrix(params, np.array([1.0])[None, :])

    def test_valid_probvector_at_extreme_inputs(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((5, 11))
        params = ModelParams(weights=W, k=5, d=10)
        for scale in (1.0, 1e3, 1e6):
            x = rng.uniform(-scale, scale, size=10)
            p = predict_proba_matrix(params, x[None, :])[0]
            assert np.isfinite(p).all() and (p >= 0).all()
            assert abs(p.sum() - 1.0) <= 1e-9


class TestAccuracy:
    def test_constant_predictor_on_balanced(self):
        params = ModelParams(weights=np.array([[0.0, 5.0], [0.0, -5.0]]), k=2, d=1)
        X = np.array([[0.0]] * 10)
        y = np.array([0] * 5 + [1] * 5)
        assert accuracy(params, X, y) == 0.5

    def test_perfect_model(self):
        X = np.array([[-1.0], [1.0]] * 4)
        y = np.array([0, 1] * 4)
        params = fit(X, y, 2, FitConfig(l2_reg=0.0))
        assert accuracy(params, X, y) == 1.0

    def test_uniform_ties_break_to_class_zero(self):
        params = ModelParams(weights=np.zeros((2, 2)), k=2, d=1)
        X = np.zeros((10, 1))
        y = np.array([0] * 7 + [1] * 3)
        assert accuracy(params, X, y) == pytest.approx(0.7)

    def test_empty_rejected(self):
        params = ModelParams(weights=np.zeros((2, 2)), k=2, d=1)
        with pytest.raises(ValueError):
            accuracy(params, np.zeros((0, 1)), np.zeros(0, dtype=int))
