"""Multinomial logistic regression trained by damped Newton (IRLS).

Deterministic by construction: zero initialization (or a caller's warm
start), fixed iteration order, no randomness anywhere. The bias is a
constant-one feature column and is excluded from the L2 penalty so the
lambda->inf limit predicts exactly the uniform distribution.

Probabilities are held class-major, shape (k, n): the softmax reduces
down axis 0, k elementwise passes over contiguous rows of n, rather than
across n rows only k wide. `predict_proba_matrix` returns the (n, k)
transposed view.

Each Newton step is one LU solve of the Hessian plus the outer product of
the unit bias-shift vector, which gives the min-norm step while l2_reg > 0,
no probability has underflowed to 0 and rounding loses no direction of that
sum; elsewhere `np.linalg.lstsq` (an SVD) solves it (see `fit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Newton iteration cap; no fit in the tests or the benchmark takes more than 13
# steps, cold or warm-started
_MAX_ITERS = 500
_EPS = np.finfo(np.float64).eps


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


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Column-wise softmax of a class-major (k, n) score matrix."""
    p = np.exp(scores - scores.max(axis=0))
    p /= p.sum(axis=0)
    return p


def loss_and_grad(W, Xa, labels, k, l2_reg):
    """Regularized mean cross-entropy and its gradient at weights W.

    The penalty is (l2/2)*||W||^2 over everything except the bias column.
    Exposed so tests can check the gradient against finite differences.
    """
    n = Xa.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        P = _softmax(W @ Xa.T)
        logp = np.log(np.clip(P[labels, np.arange(n)], 1e-300, None))
        loss = -logp.mean() + 0.5 * l2_reg * float((W[:, :-1] ** 2).sum())
        P[labels, np.arange(n)] -= 1.0  # P - Y for the one-hot Y, in place
        # transposed product, not P @ Xa, which rounds differently in the last bits
        G = (Xa.T @ P.T).T / n
        G[:, :-1] += l2_reg * W[:, :-1]
    return loss, G


def _hessian(W, Xa, l2_reg):
    """Hessian of `loss_and_grad`'s loss over W.ravel(), shape (k*(d+1))^2,
    and the class-major probabilities P at W it was built from."""
    n, p = Xa.shape
    P = _softmax(W @ Xa.T)
    # laid out C-contiguous here, so the reshape needs no second copy
    A = np.multiply(P.T[:, :, None], Xa[:, None, :], order="C").reshape(n, -1)
    H = -A.T @ A / n
    for c in range(W.shape[0]):
        H[c * p:(c + 1) * p, c * p:(c + 1) * p] += (P[c][:, None] * Xa).T @ Xa / n
    H[np.diag_indices_from(H)] += l2_reg * np.tile(np.r_[np.ones(p - 1), 0.0], W.shape[0])
    return H, P


def _clear_of_rounding(A) -> bool:
    """Whether every Cholesky pivot of the symmetric A exceeds `lstsq`'s own
    cutoff, size * eps times A's largest diagonal entry. A pivot bounds A's
    smallest eigenvalue from above, so a pivot under the cutoff, or a
    factorization that fails, shows a direction lost to rounding, along
    which an LU solve returns noise where `lstsq` returns 0."""
    try:
        pivots = np.linalg.cholesky(A).diagonal() ** 2
    except np.linalg.LinAlgError:
        return False
    return bool(pivots.min() > len(A) * _EPS * A.diagonal().max())


def fit(features, labels, n_classes: int, cfg: FitConfig = FitConfig(),
        loss_history: list | None = None, init: ModelParams | None = None) -> ModelParams:
    """Train from `init`'s weights (a copy; zero weights when None); stop at
    _MAX_ITERS, at gradient inf-norm < tol, or once the Newton step's
    predicted decrease -g.step is at most eps * |loss|, below what the loss
    can register.

    Each iteration takes the min-norm Newton step -H^+ g and halves it
    until the Armijo condition holds, or stops if 51 halvings cannot lower
    the loss. The Hessian is (k*(d+1))^2, so the solver targets small k*d
    like the workloads here.

    The step is one LU solve of H + v v^T, v the unit bias-shift vector
    (1/sqrt(k) at each class's bias entry, 0 elsewhere), when l2_reg > 0
    and every probability at W is positive. Then v spans H's null space:
    the penalty gives every direction that moves a feature weight positive
    curvature, and a bias-only direction b has curvature
    mean_i Var_{p_i}(b), which is 0 only for b proportional to the all-ones
    vector when every p_i is positive. The gradient is orthogonal to v
    (each row's P - Y sums to 0 over the classes), so H + v v^T is positive
    definite and its solution is exactly -H^+ g.

    Elsewhere the step is `np.linalg.lstsq`'s min-norm solution (an SVD):
    at l2_reg = 0 every class-shared shift of the weights is null, and
    collinear or zero feature columns add more null directions; where a
    probability has underflowed to 0, its class's bias direction is null
    too. `lstsq` also takes the steps where H + v v^T is singular to
    rounding though positive definite in exact arithmetic (a class whose
    probabilities are all near 1e-18, or a penalty far below the data's
    curvature along collinear columns); see `_clear_of_rounding`.

    `n_classes` is declared by the dataset: classes absent from `labels`
    simply receive no gradient pull. Pass a list as `loss_history` to
    collect the per-iteration loss. A warm start stops at
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
    v = np.zeros(W.shape)
    v[:, -1] = 1.0 / math.sqrt(n_classes)
    vvT = np.outer(v, v)
    loss, G = loss_and_grad(W, Xa, y, n_classes, cfg.l2_reg)
    for _ in range(_MAX_ITERS):
        if loss_history is not None:
            loss_history.append(loss)
        if np.abs(G).max() < cfg.tol:
            break
        H, P = _hessian(W, Xa, cfg.l2_reg)
        A = H + vvT
        # P.min() is nan, so not > 0, where the scores overflowed
        if cfg.l2_reg > 0 and P.min() > 0 and _clear_of_rounding(A):
            step = np.linalg.solve(A, G.ravel())
        else:
            step = np.linalg.lstsq(H, G.ravel(), rcond=None)[0]
        step = -step.reshape(W.shape)
        slope = float((G * step).sum())
        # a predicted decrease below the loss's rounding cannot register in
        # the Armijo test, so no step could make progress that shows
        if -slope <= _EPS * abs(loss):
            break
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
    """Softmax class probabilities, shape (n, k): the transposed view of the
    class-major (k, n) array, so `.T` gives each class's row contiguous."""
    Xa = _augment(features)
    if Xa.shape[1] != params.d + 1:
        raise ValueError(f"feature dim {Xa.shape[1] - 1} != model dim {params.d}")
    return _softmax(params.weights @ Xa.T).T


def accuracy(params: ModelParams, features, labels) -> float:
    """Fraction of rows whose argmax prediction matches the label; `labels`
    must have shape (n,) for n feature rows.

    Argmax ties break toward the smallest class index (numpy argmax order).
    """
    P = predict_proba_matrix(params, features).T
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (P.shape[1],):
        raise ValueError(f"labels shape {y.shape} does not match {P.shape[1]} rows")
    if y.shape[0] == 0:
        raise ValueError("cannot score an empty dataset")
    return float((P.argmax(axis=0) == y).mean())
