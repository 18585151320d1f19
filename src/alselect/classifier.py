"""Multinomial logistic regression trained by damped Newton (IRLS).

Deterministic by construction: zero initialization (or a caller's warm
start), fixed iteration order, no randomness anywhere. The bias is a
constant-one feature column and is excluded from the L2 penalty so the
lambda->inf limit predicts exactly the uniform distribution.

A design matrix is feature rows with a constant-one bias column
appended, shape (n, d+1); `design` builds one. `fit` takes raw feature
rows and builds its own design; `predict_proba_matrix` takes rows of a
design the caller built, and `accuracy` and `strategies.score_pool` take
that design and the indices of the rows to score. `harness.run_trial`
fills one design per trial with the standardized features and hands it,
with the holdout's or the pool's row indices, to those two. Both score
through `proba_blocks`: blocks of rows gathered one at a time, no block
of which holds 1 row unless the indices do, so no copy of all the rows
and no (k, n) temporary over all of them is made.

Probabilities are held class-major, shape (k, n): the softmax reduces
down axis 0, k elementwise passes over contiguous rows of n, rather than
across n rows only k wide. `predict_proba_matrix` returns the (n, k)
transposed view.

Each loss evaluation in `fit` keeps the probabilities P it computed, so a
Newton step's Hessian is built from the P of the accepted evaluation: one
softmax per evaluation, none per step. The Hessian is two matrix products
of one class-major array, with no loop over classes, and the indices it
adds its diagonal blocks and penalty through are built once per (k, d)
(see `_hessian`).

Each Newton step is one LU solve of the Hessian plus the outer product of
the unit bias-shift vector, which gives the min-norm step while l2_reg > 0,
no probability has underflowed to 0 and rounding loses no direction of that
sum; elsewhere `np.linalg.lstsq` (an SVD) solves it (see `fit`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Newton iteration cap; no fit in the tests or the benchmark takes more than 13
# steps, cold or warm-started
_MAX_ITERS = 500
_EPS = np.finfo(np.float64).eps
# proba_blocks gathers this many design cells (doubles) at a time, 512 KB: a
# block and its temporaries stay in L2 (5957 rows at d = 10)
_BLOCK_CELLS = 1 << 16


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


def design(features) -> np.ndarray:
    """The (n, d+1) design matrix of n feature rows: the rows as float64
    with a constant-one bias column appended, C-contiguous."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Column-wise softmax of a class-major (k, n) score matrix."""
    p = scores - scores.max(axis=0)
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    return p


def loss_and_grad(W, Xa, labels, k, l2_reg):
    """Regularized mean cross-entropy and its gradient at weights W, for
    rows Xa of a design matrix.

    The penalty is (l2/2)*||W||^2 over everything except the bias column.
    Exposed so tests can check the gradient against finite differences.
    """
    loss, G, _ = _evaluate(W, Xa, labels, l2_reg)
    return loss, G


def _evaluate(W, Xa, labels, l2_reg):
    """`loss_and_grad`'s loss and gradient, and the class-major softmax
    probabilities P at W they were computed from, for `_hessian`."""
    n = Xa.shape[0]
    rows = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        P = _softmax(W @ Xa.T)
        logp = np.log(np.clip(P[labels, rows], 1e-300, None))
        loss = -logp.mean() + 0.5 * l2_reg * float((W[:, :-1] ** 2).sum())
        R = P.copy()
        R[labels, rows] -= 1.0  # P - Y for the one-hot Y
        # transposed product, not R @ Xa, which rounds differently in the last bits
        G = (Xa.T @ R.T).T / n
        G[:, :-1] += l2_reg * W[:, :-1]
    return loss, G, P


@functools.lru_cache(maxsize=16)
def _block_layout(k: int, p: int):
    """Flat indices into a (k*p) x (k*p) matrix: its k diagonal p x p blocks,
    shape (k*p, p), row (c, j) holding block c's row j; and the diagonal
    entries that belong to a feature weight, every one but each class's bias.
    Read-only, since the cache hands the same arrays to every caller."""
    kp = k * p
    rows = np.arange(kp)
    blocks = rows[:, None] * kp + rows[:, None] // p * p + np.arange(p)
    penalized = rows[rows % p != p - 1] * (kp + 1)
    blocks.flags.writeable = penalized.flags.writeable = False
    return blocks, penalized


def _hessian(P, Xa, Xt, l2_reg):
    """Hessian of `loss_and_grad`'s loss over W.ravel(), shape (k*(d+1))^2,
    at the weights W whose class-major probabilities on the design rows Xa
    are P; Xt is `np.ascontiguousarray(Xa.T)`, which `fit` builds once.

    With At the (k*p, n) array whose row (c, j) is P[c] * Xa[:, j] (p = d+1),
    H is -At At^T / n. The one product At Xa / n, shape (k*p, p), stacks the
    k per-class blocks added on H's diagonal, and l2_reg goes on the diagonal
    entries of the feature weights. Besides H, nothing allocated is larger
    than At.
    """
    n, p = Xa.shape
    k = P.shape[0]
    # the contiguous Xt lets the broadcast product stream both operands
    At = np.multiply(P[:, None, :], Xt).reshape(k * p, n)
    H = At @ At.T
    H /= -n
    blocks, penalized = _block_layout(k, p)
    flat = H.reshape(-1)
    flat[blocks] += At @ Xa / n
    flat[penalized] += l2_reg
    return H


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
    Xa = design(features)
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
    Xt = np.ascontiguousarray(Xa.T)
    loss, G, P = _evaluate(W, Xa, y, cfg.l2_reg)
    for _ in range(_MAX_ITERS):
        if loss_history is not None:
            loss_history.append(loss)
        if np.abs(G).max() < cfg.tol:
            break
        H = _hessian(P, Xa, Xt, cfg.l2_reg)
        A = H + vvT
        # P.min() is nan, so not > 0, where the scores overflowed
        if cfg.l2_reg > 0 and P.min() > 0 and _clear_of_rounding(A):
            step = np.linalg.solve(A, G.ravel())
        else:
            step = np.linalg.lstsq(H, G.ravel(), rcond=None)[0]
        step = -step.reshape(W.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            slope = float((G * step).sum())
        # a predicted decrease below the loss's rounding cannot register in
        # the Armijo test, so no step could make progress that shows; nor can
        # an overflowed slope, against which the test rejects every halving
        if not math.isfinite(slope) or -slope <= _EPS * abs(loss):
            break
        for t in 0.5 ** np.arange(51):
            trial = W + t * step
            trial_loss, trial_G, trial_P = _evaluate(trial, Xa, y, cfg.l2_reg)
            # `<=` is False for an overflowed (nan) loss, so that step is halved too
            if trial_loss <= loss + 1e-4 * t * slope:
                # carried over, so no W is evaluated twice
                W, loss, G, P = trial, trial_loss, trial_G, trial_P
                break
        else:
            break
    return ModelParams(weights=W, k=n_classes, d=Xa.shape[1] - 1)


def predict_proba_matrix(params: ModelParams, Xa) -> np.ndarray:
    """Softmax class probabilities for n rows of a design matrix (see
    `design`), shape (n, k): the transposed view of the class-major (k, n)
    array, so `.T` gives each class's row contiguous."""
    return _softmax(params.weights @ _fitting_design(params, Xa).T).T


def _fitting_design(params: ModelParams, Xa) -> np.ndarray:
    """Xa as a float64 array, which must have the d+1 columns of a design
    for `params`' model."""
    Xa = np.asarray(Xa, dtype=np.float64)
    if Xa.ndim != 2 or Xa.shape[1] != params.d + 1:
        raise ValueError(f"design rows of shape {Xa.shape} do not fit a model of "
                         f"dim {params.d} (need {params.d + 1} columns)")
    return Xa


def proba_blocks(params: ModelParams, Xa, rows):
    """The class-major softmax probabilities of the design matrix Xa's rows
    at the indices `rows`, a block of rows at a time: yields (start, stop, P)
    with P of shape (k, stop - start) for the rows `rows[start:stop]`, the
    blocks in order and together covering `rows` (one empty block when
    `rows` is empty).

    A block holds _BLOCK_CELLS // Xa.shape[1] rows, gathered from Xa on its
    own. Every column of P has the bits of one gather of all the rows: the
    softmax works column by column, and the product W @ block.T keeps its
    bits in any block of 2 rows or more, where a 1-row block would take
    numpy's matrix-vector path, which rounds differently. So no block holds
    1 row unless `rows` does: a 1-row remainder joins the block before it.
    """
    Xa = _fitting_design(params, Xa)
    idx = np.asarray(rows, dtype=np.intp)
    n = len(idx)
    step = max(2, _BLOCK_CELLS // Xa.shape[1])
    # no block starts at the last row unless it is the first
    starts = range(0, max(n - 1, 1), step)
    for start, stop in zip(starts, [*starts[1:], n]):
        yield start, stop, _softmax(params.weights @ np.take(Xa, idx[start:stop], axis=0).T)


def accuracy(params: ModelParams, Xa, rows, labels) -> float:
    """Fraction of the design matrix Xa's rows at the indices `rows` whose
    argmax prediction matches the label; `labels` holds one label per
    index, shape (len(rows),).

    Argmax ties break toward the smallest class index (numpy argmax order).
    The rows are scored in `proba_blocks`' blocks, and each block's argmax
    is taken down axis 0 in k contiguous passes of `np.greater` and
    `np.maximum`, so the first maximum wins. A column of P holds a NaN only
    where every entry is NaN, and then both give class 0. The count is that
    of one gather of all the rows.
    """
    y = np.asarray(labels, dtype=np.int64)
    n = len(rows)
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match {n} rows")
    if n == 0:
        raise ValueError("cannot score an empty dataset")
    hits = 0
    for start, stop, P in proba_blocks(params, Xa, rows):
        best = P[0].copy()
        pred = np.zeros(stop - start, dtype=np.int64)
        for c in range(1, P.shape[0]):
            pred[np.greater(P[c], best)] = c
            np.maximum(best, P[c], out=best)
        hits += int(np.count_nonzero(pred == y[start:stop]))
    return hits / n
