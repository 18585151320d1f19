"""The four batch-selection strategies behind one interface:
uniform Random, top-B Greedy, per-slot epsilon-Greedy, and streaming
entropy-weighted sampling (exponent d applied to the score).

All strategies rank or weight by the same smoothed entropy u so their
outputs are comparable; smoothing guarantees u > 0 for every pool item.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .classifier import ModelParams, predict_proba_matrix
from .errors import InsufficientItemsError
from .sampling import RngState, select_top_k, uniform_sample


class StrategyKind(enum.Enum):
    RANDOM = "random"
    GREEDY = "greedy"
    EPS_GREEDY = "eps_greedy"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class StrategyConfig:
    """Selection policy parameters.

    epsilon applies only to EPS_GREEDY (default 0.05); chi is the smoothing
    floor used when scoring; exponent_d applies only to WEIGHTED, where
    d=1 is plain entropy-proportional sampling, d=0 collapses to uniform,
    and large d approaches Greedy.
    """

    kind: StrategyKind
    epsilon: float = 0.05
    chi: float = 0.05
    exponent_d: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, StrategyKind):
            raise ValueError(f"kind must be a StrategyKind, got {self.kind!r}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not (0.0 < self.chi < 1.0):
            raise ValueError(f"chi must be in (0, 1), got {self.chi}")
        if self.exponent_d < 0.0 or not math.isfinite(self.exponent_d):
            raise ValueError(f"exponent_d must be finite and >= 0, got {self.exponent_d}")


@dataclass(frozen=True)
class PoolScores:
    """Parallel arrays of pool item ids and their informative scores (nats)."""

    ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if ids.shape != scores.shape or ids.ndim != 1:
            raise ValueError(f"ids {ids.shape} and scores {scores.shape} must be parallel 1-D")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("pool ids must be distinct")
        if not ((scores > 0.0).all() and np.isfinite(scores).all()):
            raise ValueError("scores must be positive and finite (smoothing floor)")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "scores", scores)

    def __len__(self):
        return len(self.ids)


def score_pool(model: ModelParams, pool_features, cfg: StrategyConfig,
               ids=None) -> PoolScores:
    """Smoothed predictive entropy for every pool item, one pass.

    For each row: r = softmax(Wx), v = (1-chi)r + chi/k, u = H(v).
    `ids` defaults to the row positions 0..n-1.
    """
    P = predict_proba_matrix(model, pool_features)
    k = P.shape[1]
    V = (1.0 - cfg.chi) * P + cfg.chi / k
    u = -(V * np.log(V)).sum(axis=1)
    if ids is None:
        ids = np.arange(P.shape[0], dtype=np.int64)
    return PoolScores(ids=ids, scores=u)


def _greedy_order(scores: PoolScores) -> np.ndarray:
    # descending score, ties toward the smaller id
    return np.lexsort((scores.ids, -scores.scores))


def select_batch(cfg: StrategyConfig, scores: PoolScores, b: int,
                 rng: RngState) -> set[int]:
    """B distinct ids from the pool under the configured strategy."""
    if b < 1:
        raise ValueError(f"B must be >= 1, got {b}")
    if len(scores) < b:
        raise InsufficientItemsError(len(scores), b)

    if cfg.kind is StrategyKind.RANDOM:
        return uniform_sample(scores.ids.tolist(), b, rng)

    if cfg.kind is StrategyKind.GREEDY:
        order = _greedy_order(scores)
        return set(scores.ids[order[:b]].tolist())

    if cfg.kind is StrategyKind.EPS_GREEDY:
        order = _greedy_order(scores)
        ranked = scores.ids[order].tolist()
        chosen: set[int] = set()
        for _ in range(b):
            if rng.uniform_open() < cfg.epsilon:
                j = rng.integers(len(ranked))
            else:
                j = 0
            chosen.add(ranked.pop(j))
        return chosen

    # WEIGHTED: exponent keys over u^d, streamed through the reservoir
    weights = scores.scores ** cfg.exponent_d
    return select_top_k(zip(scores.ids.tolist(), weights.tolist()), b, rng)
