"""Multinomial logistic regression trained by damped Newton (IRLS).

Deterministic by construction: zero initialization (or a caller's warm
start), fixed iteration order, no randomness anywhere. The bias is a
constant-one feature column and is excluded from the L2 penalty so the
lambda->inf limit predicts exactly the uniform distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Newton iteration cap; no fit in the tests or the benchmark takes more than 13,
# cold or warm-started
_MAX_ITERS = 500


@dataclass(frozen=True)
class FitConfig:
    l2_reg: float = 1e-4
    tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.l2_reg) and self.l2_reg >= 0):
            raise ValueError(f"l2_reg must be finite and >= 0, got {self.l2_reg}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


@dataclass(frozen=True)
class ModelParams:
    """Per-class weight matrix of shape (k, d+1); last column is the bias."""

    weights: np.ndarray
    k: int
    d: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.k, self.d + 1):
            raise ValueError(f"weights shape {w.shape} != ({self.k}, {self.d + 1})")
        if not np.isfinite(w).all():
            raise ValueError("weights contain non-finite entries")
        object.__setattr__(self, "weights", w)


def _augment(features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    s = scores - scores.max(axis=1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=1, keepdims=True)
    return p


def loss_and_grad(W, Xa, labels, k, l2_reg):
    """Regularized mean cross-entropy and its gradient at weights W.

    The penalty is (l2/2)*||W||^2 over everything except the bias column.
    Exposed so tests can check the gradient against finite differences.
    """
    n = Xa.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        P = _softmax_rows(Xa @ W.T)
        logp = np.log(np.clip(P[np.arange(n), labels], 1e-300, None))
        loss = -logp.mean() + 0.5 * l2_reg * float((W[:, :-1] ** 2).sum())
        P[np.arange(n), labels] -= 1.0  # P - Y for the one-hot Y, in place
        G = P.T @ Xa / n
        G[:, :-1] += l2_reg * W[:, :-1]
    return loss, G


def _hessian(W, Xa, l2_reg):
    """Hessian of `loss_and_grad`'s loss over W.ravel(), shape (k*(d+1))^2."""
    n, p = Xa.shape
    P = _softmax_rows(Xa @ W.T)
    A = (P[:, :, None] * Xa[:, None, :]).reshape(n, -1)
    H = -A.T @ A / n
    for c in range(W.shape[0]):
        H[c * p:(c + 1) * p, c * p:(c + 1) * p] += (P[:, c:c + 1] * Xa).T @ Xa / n
    H[np.diag_indices_from(H)] += l2_reg * np.tile(np.r_[np.ones(p - 1), 0.0], W.shape[0])
    return H


def fit(features, labels, n_classes: int, cfg: FitConfig = FitConfig(),
        loss_history: list | None = None, init: ModelParams | None = None) -> ModelParams:
    """Train from `init`'s weights (a copy; zero weights when None); stop at
    _MAX_ITERS or gradient inf-norm < tol.

    Each iteration takes the min-norm Newton step (the Hessian is singular
    along a shift shared by all classes) and halves it until the Armijo
    condition holds, or stops if 51 halvings cannot lower the loss. The
    Hessian is (k*(d+1))^2, so the solver targets small k*d like the
    workloads here. `n_classes` is declared by the dataset: classes absent
    from `labels` simply receive no gradient pull. Pass a list as
    `loss_history` to collect the per-iteration loss. A warm start stops at
    a different point inside `tol` than a cold one.
    """
    Xa = _augment(features)
    y = np.asarray(labels, dtype=np.int64)
    n, _ = Xa.shape
    if n < 1:
        raise ValueError("need at least one training row")
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match {n} rows")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels outside [0, n_classes)")

    if init is None:
        W = np.zeros((n_classes, Xa.shape[1]))
    elif (init.k, init.d) != (n_classes, Xa.shape[1] - 1):
        raise ValueError(f"init model has k={init.k}, d={init.d}; "
                         f"expected k={n_classes}, d={Xa.shape[1] - 1}")
    else:
        W = init.weights.copy()
    loss, G = loss_and_grad(W, Xa, y, n_classes, cfg.l2_reg)
    for _ in range(_MAX_ITERS):
        if loss_history is not None:
            loss_history.append(loss)
        if np.abs(G).max() < cfg.tol:
            break
        H = _hessian(W, Xa, cfg.l2_reg)
        step = -np.linalg.lstsq(H, G.ravel(), rcond=None)[0].reshape(W.shape)
        slope = float((G * step).sum())
        for t in 0.5 ** np.arange(51):
            trial = W + t * step
            trial_loss, trial_G = loss_and_grad(trial, Xa, y, n_classes, cfg.l2_reg)
            # `<=` is False for an overflowed (nan) loss, so that step is halved too
            if trial_loss <= loss + 1e-4 * t * slope:
                # carried over, so no W is evaluated twice
                W, loss, G = trial, trial_loss, trial_G
                break
        else:
            break
    return ModelParams(weights=W, k=n_classes, d=Xa.shape[1] - 1)


def predict_proba_matrix(params: ModelParams, features) -> np.ndarray:
    """Row-wise softmax class probabilities, shape (n, k)."""
    Xa = _augment(features)
    if Xa.shape[1] != params.d + 1:
        raise ValueError(f"feature dim {Xa.shape[1] - 1} != model dim {params.d}")
    return _softmax_rows(Xa @ params.weights.T)


def accuracy(params: ModelParams, features, labels) -> float:
    """Fraction of rows whose argmax prediction matches the label.

    Argmax ties break toward the smallest class index (numpy argmax order).
    """
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] == 0:
        raise ValueError("cannot score an empty dataset")
    P = predict_proba_matrix(params, features)
    return float((P.argmax(axis=1) == y).mean())
