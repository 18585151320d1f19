"""Logistic-regression learner tests: gradient correctness against central
finite differences, the class-major kernels against row-major reference
formulas, the Newton step against a min-norm lstsq reference, monotone
loss, convergence to the gradient tolerance, warm starts, boundary
behaviors, and determinism."""

import numpy as np
import pytest

from alselect import classifier
from alselect.classifier import (_MAX_ITERS, FitConfig, ModelParams, _evaluate, _hessian,
                                 _softmax, accuracy, design, fit, loss_and_grad,
                                 predict_proba_matrix)


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


def reference_softmax_rows(scores):
    """Row-major softmax over an (n, k) score matrix, reducing along axis 1."""
    s = scores - scores.max(axis=1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=1, keepdims=True)
    return p


def reference_loss_and_grad(W, Xa, labels, l2_reg):
    n = Xa.shape[0]
    P = reference_softmax_rows(Xa @ W.T)
    logp = np.log(np.clip(P[np.arange(n), labels], 1e-300, None))
    loss = -logp.mean() + 0.5 * l2_reg * float((W[:, :-1] ** 2).sum())
    P[np.arange(n), labels] -= 1.0
    G = P.T @ Xa / n
    G[:, :-1] += l2_reg * W[:, :-1]
    return loss, G


def reference_hessian(W, Xa, l2_reg):
    n, p = Xa.shape
    P = reference_softmax_rows(Xa @ W.T)
    A = (P[:, :, None] * Xa[:, None, :]).reshape(n, -1)
    H = -A.T @ A / n
    for c in range(W.shape[0]):
        H[c * p:(c + 1) * p, c * p:(c + 1) * p] += (P[:, c:c + 1] * Xa).T @ Xa / n
    H[np.diag_indices_from(H)] += l2_reg * np.tile(np.r_[np.ones(p - 1), 0.0], W.shape[0])
    return H


def hessian_at(W, Xa, l2_reg):
    """`_hessian` at weights W, from the probabilities a fresh softmax gives."""
    return _hessian(_softmax(W @ Xa.T), Xa, np.ascontiguousarray(Xa.T), l2_reg)


def reference_fit(X, y, k, cfg, init=None, hessian=hessian_at):
    """`fit` as it stood with a min-norm `lstsq` solve for every Newton step:
    (weights, loss history)."""
    Xa = design(X)
    W = np.zeros((k, Xa.shape[1])) if init is None else init.weights.copy()
    losses = []
    loss, G = loss_and_grad(W, Xa, y, k, cfg.l2_reg)
    for _ in range(_MAX_ITERS):
        losses.append(loss)
        if np.abs(G).max() < cfg.tol:
            break
        H = hessian(W, Xa, cfg.l2_reg)
        step = -np.linalg.lstsq(H, G.ravel(), rcond=None)[0].reshape(W.shape)
        slope = float((G * step).sum())
        for t in 0.5 ** np.arange(51):
            trial = W + t * step
            trial_loss, trial_G = loss_and_grad(trial, Xa, y, k, cfg.l2_reg)
            if trial_loss <= loss + 1e-4 * t * slope:
                W, loss, G = trial, trial_loss, trial_G
                break
        else:
            break
    return W, losses


def kernel_problem(k, n, bias=0.0, seed=0, d=10):
    """Weights, features and labels for a k-class, d-feature problem; `bias`
    shifts every class's score by about that much."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((k, d + 1))
    W[:, -1] += bias
    return W, rng.standard_normal((n, d)), rng.integers(0, k, size=n)


def line_search_problems():
    """Five random 3-class problems, and one that needs backtracking."""
    rng = np.random.default_rng(3)
    problems = [(rng.standard_normal((20, 5)), rng.integers(0, 3, size=20))
                for _ in range(5)]
    # on this one undamped Newton steps raise the loss by ~3e4 and never
    # converge, so it needs the backtracking line search
    problems.append((np.array([[4.0, 2.0], [-3.0, 5.0], [3.0, 2.0], [5.0, 0.0]]),
                     np.array([0, 1, 2, 2])))
    return problems


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        n, d, k = 20, 5, 3
        for trial in range(20):
            X = rng.standard_normal((n, d))
            y = rng.integers(0, k, size=n)
            W = rng.standard_normal((k, d + 1)) * 0.5
            Xa = design(X)
            _, G = loss_and_grad(W, Xa, y, k, 1e-4)
            G_fd = finite_difference_grad(W, Xa, y, k, 1e-4)
            rel = np.linalg.norm(G - G_fd) / max(np.linalg.norm(G_fd), 1e-12)
            assert rel <= 1e-5, f"trial {trial}: relative error {rel:.2e}"


class TestRowMajorReference:
    """The class-major softmax, loss and gradient equal the row-major formulas
    bit for bit while k <= 7. From k = 8 numpy sums a contiguous k-wide row
    pairwise but a column sequentially, so results may move by rounding.
    The Hessian is built from other products than the row-major one (the
    cross term as one symmetric product, all diagonal blocks as another), so
    it matches to rounding at every k."""

    @staticmethod
    def assert_close(actual, expected):
        expected = np.asarray(expected)
        np.testing.assert_allclose(actual, expected, rtol=1e-14,
                                   atol=1e-14 * np.abs(expected).max())

    def assert_same(self, actual, expected, k):
        if k <= 7:
            assert np.array_equal(actual, expected)
        else:
            self.assert_close(actual, expected)

    def check(self, k, n, bias, seed, d=10):
        W, X, y = kernel_problem(k, n, bias=bias, seed=seed, d=d)
        Xa = design(X)
        loss, G = loss_and_grad(W, Xa, y, k, 1e-3)
        params = ModelParams(weights=W, k=k, d=d)
        P = predict_proba_matrix(params, Xa)
        assert P.shape == (n, k)
        assert np.isfinite(loss) and np.isfinite(G).all() and np.isfinite(P).all()
        ref_loss, ref_G = reference_loss_and_grad(W, Xa, y, 1e-3)
        self.assert_same(loss, ref_loss, k)
        self.assert_same(G, ref_G, k)
        ref_P = reference_softmax_rows(Xa @ W.T)
        # `fit` builds each Hessian from the probabilities of the evaluation
        # that gave its loss and gradient
        eval_loss, eval_G, eval_P = _evaluate(W, Xa, y, 1e-3)
        assert eval_loss == loss and np.array_equal(eval_G, G)
        self.assert_same(eval_P.T, ref_P, k)
        H = _hessian(eval_P, Xa, np.ascontiguousarray(Xa.T), 1e-3)
        self.assert_close(H, reference_hessian(W, Xa, 1e-3))
        assert np.array_equal(H, hessian_at(W, Xa, 1e-3))
        self.assert_same(P, ref_P, k)
        assert accuracy(params, Xa, y) == float((ref_P.argmax(axis=1) == y).mean())

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 10])
    @pytest.mark.parametrize("n", [1, 2, 100, 1000])
    def test_kernels(self, k, n):
        self.check(k, n, 0.0, seed=k * n)

    @pytest.mark.parametrize("k", [5, 10])
    @pytest.mark.parametrize("n", [1, 2, 100, 1000])
    def test_kernels_d30(self, k, n):
        self.check(k, n, 0.0, seed=k * n + 30, d=30)

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("bias", [800.0, -800.0])
    def test_scores_near_800(self, k, bias):
        # exp(+-800) overflows or underflows; the max-shift keeps every entry finite
        self.check(k, 100, bias, seed=k)


class TestBlockLayout:
    def test_cached_layout_gives_the_bits_of_a_fresh_one(self):
        # the index cache is keyed by (k, p): a shape seen before, after
        # another shape, builds the Hessian a freshly built layout builds
        problems = [kernel_problem(k, 200, seed=i) for i, k in enumerate((3, 10, 3))]
        classifier._block_layout.cache_clear()
        cached = [hessian_at(W, design(X), 1e-3) for W, X, _ in problems]
        assert classifier._block_layout.cache_info().hits == 1
        for H, (W, X, _) in zip(cached, problems):
            classifier._block_layout.cache_clear()
            assert np.array_equal(H, hessian_at(W, design(X), 1e-3))

    def test_cached_layout_is_read_only(self):
        for index in classifier._block_layout(3, 11):
            with pytest.raises(ValueError):
                index[0] = 0


class TestNewtonStep:
    """The LU solve of H + v v^T gives the min-norm step that `lstsq` gives;
    `lstsq` still solves the steps where H has more than the one null
    direction, or where rounding leaves H + v v^T numerically singular."""

    @staticmethod
    def problem(k, seed):
        rng = np.random.default_rng(seed)
        y = np.r_[np.arange(k), rng.integers(0, k, size=15 * k - k)]
        X = rng.standard_normal((15 * k, 4)) + 1.5 * np.eye(k, 4)[y]
        return X, y

    @staticmethod
    def absent_class(bias):
        """Two of three classes labeled; the third starts at `bias`."""
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((60, 4)), rng.integers(0, 2, size=60)
        W = np.zeros((3, 5))
        W[2, -1] = bias
        return X, y, ModelParams(weights=W, k=3, d=4)

    @staticmethod
    def assert_converged(params, X, y, k, cfg):
        _, G = loss_and_grad(params.weights, design(X), y, k, cfg.l2_reg)
        assert np.abs(G).max() < cfg.tol

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("l2_reg", [1e-4, 5.0, 50.0])
    def test_matches_lstsq_reference(self, k, l2_reg):
        # the reference steps by lstsq, from this module's Hessian and from
        # the row-major one, which rounds differently
        cfg = FitConfig(l2_reg=l2_reg)
        for seed in range(3):
            X, y = self.problem(k, seed)
            losses = []
            params = fit(X, y, k, cfg, loss_history=losses)
            for ref_W, ref_losses in (reference_fit(X, y, k, cfg),
                                      reference_fit(X, y, k, cfg, hessian=reference_hessian)):
                assert len(losses) == len(ref_losses)
                np.testing.assert_allclose(params.weights, ref_W, rtol=1e-9)

    def test_one_softmax_per_evaluation(self, monkeypatch):
        # each Newton step's Hessian reuses the probabilities of the loss
        # evaluation it steps from, so the only softmaxes are the evaluations'
        problems = [self.problem(3, 0), self.problem(10, 1), *line_search_problems()]
        uncounted = [fit(X, y, int(y.max()) + 1).weights for X, y in problems]
        counts = {"softmax": 0, "evaluate": 0}
        softmax, evaluate = classifier._softmax, classifier._evaluate

        def counting_softmax(scores):
            counts["softmax"] += 1
            return softmax(scores)

        def counting_evaluate(*args):
            counts["evaluate"] += 1
            return evaluate(*args)

        monkeypatch.setattr(classifier, "_softmax", counting_softmax)
        monkeypatch.setattr(classifier, "_evaluate", counting_evaluate)
        for (X, y), weights in zip(problems, uncounted):
            counts.update(softmax=0, evaluate=0)
            losses = []
            params = fit(X, y, int(y.max()) + 1, loss_history=losses)
            assert np.array_equal(params.weights, weights)
            # at least len(losses) - 1 Newton steps built a Hessian
            assert len(losses) > 2 and counts["evaluate"] >= len(losses)
            assert counts["softmax"] == counts["evaluate"]

    def test_solves_without_lstsq(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refused)
        X, y = self.problem(3, 0)
        losses = []
        self.assert_converged(fit(X, y, 3, FitConfig(), loss_history=losses), X, y, 3, FitConfig())
        assert len(losses) > 2

    @pytest.mark.parametrize("X, y", [
        (np.array([[-1.0], [1.0]]), np.array([0, 1])),  # separable pair
        (np.c_[np.random.default_rng(1).standard_normal((30, 2)), np.zeros(30)],
         np.random.default_rng(1).integers(0, 3, size=30)),  # zero feature column
    ], ids=["separable_pair", "zero_column"])
    def test_l2_zero_matches_reference_bytes(self, X, y):
        cfg = FitConfig(l2_reg=0.0)
        k = int(y.max()) + 1
        assert np.array_equal(fit(X, y, k, cfg).weights, reference_fit(X, y, k, cfg)[0])

    # at -1300 and -1000 the absent class's probabilities underflow to 0; at
    # -40 they are about 1e-18, positive, yet H + v v^T is singular to
    # rounding and its LU solve raises LinAlgError
    @pytest.mark.parametrize("bias", [-1300.0, -1000.0, -40.0])
    def test_absent_class_matches_reference_bytes(self, bias):
        X, y, init = self.absent_class(bias)
        cfg = FitConfig(l2_reg=1e-4)
        params = fit(X, y, 3, cfg, init=init)
        self.assert_converged(params, X, y, 3, cfg)
        assert np.array_equal(params.weights, reference_fit(X, y, 3, cfg, init=init)[0])

    @pytest.mark.parametrize("l2_reg", [1e-30, 1e-20])
    def test_penalty_below_rounding_matches_reference_bytes(self, l2_reg):
        # a repeated feature column: the penalty is H's only curvature along
        # the difference of its two weights, and it is lost to rounding
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 2))
        X, y = np.c_[x, x[:, 0]], rng.integers(0, 3, size=40)
        cfg = FitConfig(l2_reg=l2_reg)
        params = fit(X, y, 3, cfg)
        self.assert_converged(params, X, y, 3, cfg)
        assert np.array_equal(params.weights, reference_fit(X, y, 3, cfg)[0])


class TestFit:
    def test_separable_pair(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        params = fit(X, y, 2, FitConfig(l2_reg=0.0))
        assert accuracy(params, design(X), y) == 1.0

    def test_huge_regularization_gives_uniform(self):
        # the penalty dominates so feature weights collapse; the unpenalized
        # bias fits the (balanced) prior, leaving uniform predictions.
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 4))
        y = np.repeat([0, 1, 2], 10)
        params = fit(X, y, 3, FitConfig(l2_reg=500.0))
        assert np.abs(params.weights[:, :-1]).max() < 1e-3
        P = predict_proba_matrix(params, design(X))
        assert np.abs(P - 1 / 3).max() < 0.02

    def test_constant_labels(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((15, 3))
        y = np.zeros(15, dtype=int)
        params = fit(X, y, 2, FitConfig())
        assert accuracy(params, design(X), y) == 1.0

    def test_loss_monotone(self):
        for X, y in line_search_problems():
            losses = []
            fit(X, y, 3, FitConfig(), loss_history=losses)
            diffs = np.diff(losses)
            assert diffs.max() <= 1e-10

    def test_each_iterate_evaluated_once(self, monkeypatch):
        # the accepted line-search trial's loss and gradient start the next iteration
        seen = []
        evaluate = classifier._evaluate

        def recording(W, *args):
            seen.append(W.tobytes())
            return evaluate(W, *args)

        monkeypatch.setattr(classifier, "_evaluate", recording)
        for X, y in line_search_problems():
            seen.clear()
            losses = []
            fit(X, y, 3, FitConfig(), loss_history=losses)
            assert len(losses) > 2
            assert len(set(seen)) == len(seen)

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
            _, G = loss_and_grad(params.weights, design(X), y, 3, l2_reg)
            assert np.abs(G).max() < cfg.tol
            assert len(losses) < _MAX_ITERS

    @pytest.mark.parametrize("seed", [23, 28])
    def test_stops_when_the_loss_cannot_register_progress(self, seed):
        # at tol=1e-10 the gradient stays above tol once the predicted
        # decrease is below the loss's rounding; fit stops there, not
        # after _MAX_ITERS steps that leave the loss unchanged
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 1))
        y = rng.integers(0, 2, 60)
        losses = []
        params = fit(X, y, 2, FitConfig(l2_reg=1.0, tol=1e-10), loss_history=losses)
        assert len(losses) < 10
        _, G = loss_and_grad(params.weights, design(X), y, 2, 1.0)
        assert np.abs(G).max() < 1e-7

    def test_absent_class_still_scored(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        y = np.array([0, 1, 0, 1])
        params = fit(X, y, 3, FitConfig())
        p = predict_proba_matrix(params, design(np.array([[0.5]])))[0]
        assert p.shape == (3,)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit(np.zeros((0, 2)), np.zeros(0, dtype=int), 2, FitConfig())
        with pytest.raises(ValueError):
            fit(np.zeros((3, 2)), np.array([0, 1, 2]), 2, FitConfig())
        with pytest.raises(ValueError):
            FitConfig(tol=0.0)


class TestWarmStart:
    def test_shape_mismatch_rejected(self):
        X = np.zeros((4, 2))
        y = np.array([0, 1, 2, 0])
        for k, d in ((2, 2), (3, 3)):
            init = ModelParams(weights=np.zeros((k, d + 1)), k=k, d=d)
            with pytest.raises(ValueError, match="init model"):
                fit(X, y, 3, FitConfig(), init=init)

    def test_init_weights_not_mutated(self):
        X, y = line_search_problems()[0]
        init = fit(X[:10], y[:10], 3, FitConfig())
        before = init.weights.copy()
        fit(X, y, 3, FitConfig(), init=init)
        assert np.array_equal(init.weights, before)
        # already converged on its own rows: no step, equal weights, no alias
        again = fit(X[:10], y[:10], 3, FitConfig(), init=init)
        assert np.array_equal(again.weights, before)
        assert not np.shares_memory(again.weights, init.weights)

    def test_grown_set_matches_cold_fit(self):
        # a trial in miniature: the labeled set grows by 10 rows a round and
        # each fit starts from the previous round's model. A single warm fit
        # may take one step more than a cold one; over the trial it takes
        # fewer (at most 72% as many over 100 seeds). tol is tighter than the
        # default so that the two stopping points, each within tol of the
        # optimum, agree to 1e-6 in probability
        rng = np.random.default_rng(7)
        cfg = FitConfig(tol=1e-8)
        y = rng.integers(0, 3, size=150)
        X = rng.standard_normal((150, 4)) + 2.0 * np.eye(3, 4)[y]
        prev, warm_iters, cold_iters = None, 0, 0
        for n in range(50, 151, 10):
            warm_losses, cold_losses = [], []
            warm = fit(X[:n], y[:n], 3, cfg, loss_history=warm_losses, init=prev)
            cold = fit(X[:n], y[:n], 3, cfg, loss_history=cold_losses)
            _, G = loss_and_grad(warm.weights, design(X[:n]), y[:n], 3, cfg.l2_reg)
            assert np.abs(G).max() < cfg.tol
            Xa = design(X[:n])
            np.testing.assert_allclose(predict_proba_matrix(warm, Xa),
                                       predict_proba_matrix(cold, Xa), rtol=0, atol=1e-6)
            warm_iters += len(warm_losses)
            cold_iters += len(cold_losses)
            prev = warm
        assert warm_iters < cold_iters


class TestPredictProba:
    def test_zero_weights_uniform(self):
        params = ModelParams(weights=np.zeros((4, 3)), k=4, d=2)
        p = predict_proba_matrix(params, design(np.array([3.0, -1.0])[None, :]))[0]
        assert p == pytest.approx([0.25] * 4, abs=1e-15)

    def test_strong_weights_oracle(self):
        # softmax(10, -10) = [0.9999999979388463, 2.0611536181902033e-09]
        params = ModelParams(weights=np.array([[10.0, 0.0], [-10.0, 0.0]]), k=2, d=1)
        p = predict_proba_matrix(params, design(np.array([1.0])[None, :]))[0]
        assert p[0] == pytest.approx(1.0, abs=1e-8)
        assert p[1] == pytest.approx(2.0611536181902033e-09, rel=1e-6)

    def test_class_permutation_symmetry(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((3, 4))
        x = rng.standard_normal(3)
        perm = [2, 0, 1]
        p = predict_proba_matrix(ModelParams(weights=W, k=3, d=3), design(x[None, :]))[0]
        q = predict_proba_matrix(ModelParams(weights=W[perm], k=3, d=3), design(x[None, :]))[0]
        assert q == pytest.approx(p[perm], abs=1e-15)

    def test_dimension_mismatch(self):
        params = ModelParams(weights=np.zeros((2, 3)), k=2, d=2)
        with pytest.raises(ValueError):
            predict_proba_matrix(params, design(np.array([1.0])[None, :]))

    def test_valid_probvector_at_extreme_inputs(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((5, 11))
        params = ModelParams(weights=W, k=5, d=10)
        for scale in (1.0, 1e3, 1e6):
            x = rng.uniform(-scale, scale, size=10)
            p = predict_proba_matrix(params, design(x[None, :]))[0]
            assert np.isfinite(p).all() and (p >= 0).all()
            assert abs(p.sum() - 1.0) <= 1e-9


class TestAccuracy:
    def test_constant_predictor_on_balanced(self):
        params = ModelParams(weights=np.array([[0.0, 5.0], [0.0, -5.0]]), k=2, d=1)
        X = np.array([[0.0]] * 10)
        y = np.array([0] * 5 + [1] * 5)
        assert accuracy(params, design(X), y) == 0.5

    def test_perfect_model(self):
        X = np.array([[-1.0], [1.0]] * 4)
        y = np.array([0, 1] * 4)
        params = fit(X, y, 2, FitConfig(l2_reg=0.0))
        assert accuracy(params, design(X), y) == 1.0

    def test_uniform_ties_break_to_class_zero(self):
        params = ModelParams(weights=np.zeros((2, 2)), k=2, d=1)
        X = np.zeros((10, 1))
        y = np.array([0] * 7 + [1] * 3)
        assert accuracy(params, design(X), y) == pytest.approx(0.7)

    def test_empty_rejected(self):
        params = ModelParams(weights=np.zeros((2, 2)), k=2, d=1)
        with pytest.raises(ValueError):
            accuracy(params, design(np.zeros((0, 1))), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("rows, labels", [
        (5, np.array([1])),                # one label would broadcast over 5 rows
        (5, np.array([[1, 1, 1, 1, 1]])),  # shape (1, 5)
        (0, np.array([1])),                # would be the mean of an empty array
    ])
    def test_label_shape_mismatch_rejected(self, rows, labels):
        params = ModelParams(weights=np.array([[0.0, 5.0], [0.0, -5.0]]), k=2, d=1)
        with pytest.raises(ValueError, match="labels shape"):
            accuracy(params, design(np.zeros((rows, 1))), labels)
