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

from .classifier import ModelParams, proba_blocks
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

    @property
    def reads_scores(self) -> bool:
        """Whether the draw depends on the pool's scores: False for RANDOM,
        for WEIGHTED at d = 0, which is RANDOM's draw, and for EPS_GREEDY
        at epsilon = 1, whose every slot is a uniform pick."""
        return not (self.kind is StrategyKind.RANDOM
                    or self.kind is StrategyKind.WEIGHTED and self.exponent_d == 0.0
                    or self.kind is StrategyKind.EPS_GREEDY and self.epsilon == 1.0)


def score_pool(model: ModelParams, Xa, rows, cfg: StrategyConfig) -> np.ndarray:
    """Smoothed predictive entropy (nats) of the design matrix Xa's
    (`classifier.design`) rows at the indices `rows`, one score per row in
    `rows`' order.

    For each row: r = softmax(Wx), v = (1-chi)r + chi/k, u = H(v). The rows
    are scored in `classifier.proba_blocks`' blocks, so no pool-sized copy
    of the rows or (k, n) temporary is made. A block's class-major
    probabilities are smoothed in place and the entropy sums down axis 0,
    column by column, so the scores are those of one gather of all the rows.
    """
    out = np.empty(len(rows))
    for start, stop, V in proba_blocks(model, Xa, rows):
        V *= 1.0 - cfg.chi
        V += cfg.chi / V.shape[0]
        H = np.log(V)
        H *= V
        np.negative(H.sum(axis=0), out=out[start:stop])
    return out


def select_batch(cfg: StrategyConfig, scores: np.ndarray | int, b: int,
                 rng: RngState) -> set[int]:
    """B distinct positions into the pool under the configured strategy.

    `scores` holds one score per pool position. A config that reads no
    scores (`cfg.reads_scores` is False) may be given the pool size
    instead, so the pool need not be scored; it draws the same positions
    from an equal rng either way, and an array given to it is checked all
    the same.

    Greedy ranks by descending score, ties toward the smaller position.
    eps-Greedy's greedy slots take Greedy's top B in that order, skipping
    positions already taken; a uniform slot takes the j-th remaining
    position in ascending position order, j uniform, so no slot needs the
    whole pool's ranking. Weighted hands the sampler the log weights
    d*ln(score) (`select_positions`), one merge over all positions in a
    single pass, with no normaliser and no per-item (id, weight) stream;
    Random, and Weighted at d = 0, is that merge at log weight 0
    (`uniform_sample`). eps-Greedy at epsilon = 1 runs its slot loop from
    the pool size alone, every slot a uniform pick; it does not take
    `uniform_sample`, which reads the rng otherwise. eps-Greedy at
    epsilon = 0 is Greedy: every slot is greedy, so it takes Greedy's top B
    and draws nothing.
    """
    if isinstance(scores, (int, np.integer)):
        if cfg.reads_scores:
            raise TypeError(f"{cfg.kind.value} reads the pool's scores, not only its size")
        n = int(scores)
    else:
        scores = np.asarray(scores, dtype=np.float64)
        # argmin/argmax return the first NaN, so NaN fails; an empty array passes
        if scores.ndim != 1 or (scores.size and not (
                scores[scores.argmin()] > 0.0 and scores[scores.argmax()] < math.inf)):
            raise ValueError("scores must be positive and finite (smoothing floor)")
        n = len(scores)
    if b < 1:
        raise ValueError(f"B must be >= 1, got {b}")
    if n < b:
        raise ValueError(f"requested {b} items but only {n} available")

    if not cfg.reads_scores and cfg.kind is not StrategyKind.EPS_GREEDY:
        return uniform_sample(np.arange(n), b, rng)

    if cfg.kind is StrategyKind.WEIGHTED:
        # clamping d at 2**996 changes no selection: a power of two scales ln u
        # without rounding, 2**996 * 745 (|ln u| < 745 for every positive double)
        # stays finite, and every d >= 2**996 is past the greedy limit already
        return select_positions(min(cfg.exponent_d, 2.0**996) * np.log(scores), b, rng)

    # at epsilon = 0 no uniform is below epsilon, so every eps-Greedy slot is
    # greedy: the batch is Greedy's, taken without reading the rng
    if cfg.kind is StrategyKind.GREEDY or cfg.epsilon == 0.0:
        return set(_best(scores, b).tolist())

    # EPS_GREEDY: each slot takes the best remaining position, or with
    # probability epsilon a uniform pick among the remaining: the j-th free
    # position in ascending order. taken[i] - i free positions lie below
    # taken[i], so taken[i] comes before the j-th free position exactly when
    # that is <= j. A greedy slot skips only positions taken before it, so
    # the b best positions always hold one that is free. At epsilon = 1 no
    # slot is greedy (every uniform is below 1), so nothing is ranked.
    best = _best(scores, b).tolist() if cfg.reads_scores else []
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
