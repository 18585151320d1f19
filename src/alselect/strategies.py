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


def score_pool(model: ModelParams, pool_features, cfg: StrategyConfig) -> np.ndarray:
    """Smoothed predictive entropy (nats) for every pool row, one pass.

    For each row: r = softmax(Wx), v = (1-chi)r + chi/k, u = H(v).
    """
    P = predict_proba_matrix(model, pool_features)
    k = P.shape[1]
    V = (1.0 - cfg.chi) * P + cfg.chi / k
    return -(V * np.log(V)).sum(axis=1)


def select_batch(cfg: StrategyConfig, scores: np.ndarray, b: int,
                 rng: RngState) -> set[int]:
    """B distinct positions into `scores` under the configured strategy.

    Greedy ranks by descending score, ties toward the smaller position.
    """
    scores = np.asarray(scores, dtype=np.float64)
    # argmin/argmax return the first NaN, so NaN fails; an empty array passes
    if scores.ndim != 1 or (scores.size and not (
            scores[scores.argmin()] > 0.0 and scores[scores.argmax()] < math.inf)):
        raise ValueError("scores must be positive and finite (smoothing floor)")
    if b < 1:
        raise ValueError(f"B must be >= 1, got {b}")
    if len(scores) < b:
        raise InsufficientItemsError(len(scores), b)

    if cfg.kind is StrategyKind.RANDOM:
        return uniform_sample(range(len(scores)), b, rng)

    if cfg.kind is StrategyKind.WEIGHTED:
        # exponent keys over u^d, streamed through the reservoir
        return select_top_k(enumerate((scores ** cfg.exponent_d).tolist()), b, rng)

    # a stable sort on -score: descending score, ties toward the smaller position
    order = np.argsort(-scores, kind="stable")
    if cfg.kind is StrategyKind.GREEDY:
        return set(order[:b].tolist())

    # EPS_GREEDY: each slot takes the best remaining, or with probability
    # epsilon a uniform pick among the remaining
    ranked = order.tolist()
    chosen: set[int] = set()
    for _ in range(b):
        if rng.uniforms_open(1)[0] < cfg.epsilon:
            j = rng.integers(len(ranked))
        else:
            j = 0
        chosen.add(ranked.pop(j))
    return chosen
