"""Closed-form entropy floors and the hitting-probability bound.

Entropy scoring and uniform-mixture smoothing run on arrays in
`strategies.score_pool`. All entropies are in nats. The bound formulas keep
the printed 1/ln2 factor so the reported quantities match the closed form
verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import VacuousBoundError


def _entropy_floor(g: float, k: int) -> float:
    """ln k - (g - 1 - ln g)/ln 2, the floor both bounds below share."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return math.log(k) - (g - 1.0 - math.log(g)) / math.log(2.0)


def entropy_ratio_bound(rho: float, k: int) -> float:
    """Entropy lower bound for distributions whose max/min ratio is <= rho.

    Returns ln k - (g - 1 - ln g)/ln 2 with g = rho*ln(rho)/(rho-1).
    The bound can be negative (vacuous) for small k; it is returned as-is.
    g is computed as ln(rho) * (rho/(rho-1)), whose factors stay finite for
    every finite rho, where rho*ln(rho) overflows above about 1e306.
    """
    if not (rho >= 1.0 and math.isfinite(rho)):
        raise ValueError(f"ratio must be finite and >= 1, got {rho}")
    # g -> 1 as rho -> 1, where the correction vanishes
    return _entropy_floor(1.0 if rho == 1.0 else math.log(rho) * (rho / (rho - 1.0)), k)


def entropy_lower_bound(chi: float, k: int) -> float:
    """Entropy floor for distributions with min class probability >= chi.

    Equivalent to entropy_ratio_bound with rho = 1/chi: g is computed as
    eta = -ln(chi)/(1-chi), which equals rho*ln(rho)/(rho-1) and, unlike
    1/chi, stays finite for every chi > 0, subnormal ones included.
    """
    if not (0.0 < chi < 1.0):
        raise ValueError(f"chi must be in (0, 1), got {chi}")
    return _entropy_floor(-math.log(chi) / (1.0 - chi), k)


@dataclass(frozen=True)
class LemmaBoundInput:
    """Parameters of the hitting-probability bound.

    beta: pocket fraction of the pool, in (0, 1]
    chi: minimum class probability after smoothing, in (0, 1)
    k: class count, >= 2
    delta: failure probability, in (0, 1]; delta=1 asks for no guarantee
    """

    beta: float
    chi: float
    k: int
    delta: float

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not (0.0 < self.chi < 1.0):
            raise ValueError(f"chi must be in (0, 1), got {self.chi}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")


@dataclass(frozen=True)
class LemmaBoundReport:
    """Closed-form quantities: eta, the entropy floor zeta, the per-draw
    hit probability lower bound p_s, and the required draw count n_s."""

    eta: float
    zeta: float
    p_s: float
    n_s: int


def lemma_bound(inp: LemmaBoundInput) -> LemmaBoundReport:
    """Draws needed to hit a weight-floored pocket with probability 1-delta.

    p_s = beta * (1 - (eta - 1 - ln eta)/(ln 2 * ln k)) = beta * zeta / ln k,
    n_s = ceil(ln delta / ln(1 - p_s)).

    Raises VacuousBoundError when p_s <= 0 (zeta < 0), which happens for
    small k; the error carries eta and zeta for diagnostics.
    """
    eta = -math.log(inp.chi) / (1.0 - inp.chi)
    zeta = _entropy_floor(eta, inp.k)
    p_s = inp.beta * zeta / math.log(inp.k)
    if p_s <= 0.0:
        raise VacuousBoundError(eta, zeta, p_s)
    # delta=1 gives ln(1)=0 and therefore 0 draws; otherwise the ratio of two
    # negative logs is positive and ceil makes n_s >= 1.
    n_s = math.ceil(math.log(inp.delta) / math.log(1.0 - p_s))
    return LemmaBoundReport(eta=eta, zeta=zeta, p_s=p_s, n_s=int(n_s))
