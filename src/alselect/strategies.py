"""The four batch-selection strategies behind one interface:
uniform Random, top-B Greedy, per-slot epsilon-Greedy (each slot the best
remaining position, or with probability epsilon a uniform remaining one),
and streaming entropy-weighted sampling (exponent d applied to the score).

All strategies rank or weight by the same smoothed entropy u so their
outputs are comparable; smoothing guarantees u > 0 for every pool item.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from .classifier import ModelParams, predict_proba_matrix
from .sampling import RngState, select_positions, uniform_sample
from .sampling import select_top_k  # noqa: F401  unused here; perfbench/tracer.py wraps this name

class StrategyKind(enum.Enum):
    RANDOM = "random"
    GREEDY = "greedy"
    EPS_GREEDY = "eps_greedy"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class StrategyConfig:
    """Selection policy parameters.

    epsilon applies only to EPS_GREEDY (default 0.05); chi is the smoothing
    floor used when scoring (a run also needs chi/k > 0 for its k classes);
    exponent_d applies only to WEIGHTED, where d=1 is plain
    entropy-proportional sampling, d=0 is RANDOM (the same batch and the
    same draws from an equal rng), and large d approaches Greedy. Every
    finite d >= 0 runs. The keys ln(-ln a) span 40.34 over the uniforms'
    2**-53 grid, so once d*ln(u_(B)/u_(B+1)) > 40.4 for the B-th and
    (B+1)-th largest scores, WEIGHTED returns exactly Greedy's top B.
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


def score_pool(model: ModelParams, pool_rows, cfg: StrategyConfig) -> np.ndarray:
    """Smoothed predictive entropy (nats) for every pool row, one pass, from
    the pool's rows of a design matrix (`classifier.design`).

    For each row: r = softmax(Wx), v = (1-chi)r + chi/k, u = H(v). The
    probabilities are held class-major, shape (k, n), and the entropy sums
    down axis 0.
    """
    P = predict_proba_matrix(model, pool_rows).T
    k = P.shape[0]
    V = (1.0 - cfg.chi) * P + cfg.chi / k
    return -(V * np.log(V)).sum(axis=0)


def select_batch(cfg: StrategyConfig, scores: np.ndarray, b: int,
                 rng: RngState) -> set[int]:
    """B distinct positions into `scores` under the configured strategy.

    Greedy ranks by descending score, ties toward the smaller position.
    eps-Greedy's greedy slots take Greedy's top B in that order, skipping
    positions already taken; a uniform slot takes the j-th remaining
    position in ascending position order, j uniform, so no slot needs the
    whole pool's ranking. Weighted hands the sampler the log weights
    d*ln(score) (`select_positions`), one merge over all positions in a
    single pass, with no normaliser and no per-item (id, weight) stream;
    Random is that merge at log weight 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    # argmin/argmax return the first NaN, so NaN fails; an empty array passes
    if scores.ndim != 1 or (scores.size and not (
            scores[scores.argmin()] > 0.0 and scores[scores.argmax()] < math.inf)):
        raise ValueError("scores must be positive and finite (smoothing floor)")
    if b < 1:
        raise ValueError(f"B must be >= 1, got {b}")
    if len(scores) < b:
        raise ValueError(f"requested {b} items but only {len(scores)} available")

    if cfg.kind is StrategyKind.RANDOM:
        return uniform_sample(np.arange(len(scores)), b, rng)

    if cfg.kind is StrategyKind.WEIGHTED:
        # clamping d at 2**996 changes no selection: a power of two scales ln u
        # without rounding, 2**996 * 745 (|ln u| < 745 for every positive double)
        # stays finite, and every d >= 2**996 is past the greedy limit already
        return select_positions(min(cfg.exponent_d, 2.0**996) * np.log(scores), b, rng)

    if cfg.kind is StrategyKind.GREEDY:
        return set(_best(scores, b).tolist())

    # EPS_GREEDY: each slot takes the best remaining position, or with
    # probability epsilon a uniform pick among the remaining: the j-th free
    # position in ascending order. taken[i] - i free positions lie below
    # taken[i], so taken[i] comes before the j-th free position exactly when
    # that is <= j. A greedy slot skips only positions taken before it, so
    # the b best positions always hold one that is free.
    n = len(scores)
    best = _best(scores, b).tolist()
    taken: list[int] = []  # positions taken so far, ascending
    chosen: set[int] = set()
    g = 0  # best[:g] are all taken
    for s in range(b):
        if rng.uniforms_open(1)[0] < cfg.epsilon:
            j = rng.integers(n - s)
            p = j + bisect.bisect_right(range(s), j, key=lambda i: taken[i] - i)
        else:
            while best[g] in chosen:
                g += 1
            p = best[g]
        bisect.insort(taken, p)
        chosen.add(p)
    return chosen


def _best(scores: np.ndarray, m: int) -> np.ndarray:
    """The m best positions, as `np.argsort(-scores, kind="stable")[:m]`:
    every position scoring at least the m-th largest score, stable-sorted
    on -score (descending score, ties toward the smaller position); m >= 1."""
    cand = np.flatnonzero(scores >= np.partition(scores, len(scores) - m)[len(scores) - m])
    return cand[np.argsort(-scores[cand], kind="stable")[:m]]
