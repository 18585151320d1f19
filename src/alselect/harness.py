"""Batched active-learning simulation: biased equal-prevalence
initialization, per-round select/label/refit, hold-out evaluation,
multi-trial aggregation, plus a synthetic pocket-dataset generator and an
empirical validator for the hitting-probability bound.

RNG discipline: every stream is derived from (seed, purpose tag[, trial
index]): the holdout split and the initial labeled set are shared by all
strategies at one master seed, trials are independent and individually
reproducible, and a bound validation's repeats all read one stream.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifier import FitConfig, accuracy, design, fit
from .data import Dataset, standardize_apply, standardize_fit
from .errors import ConfigError
from .probs import LemmaBoundInput, LemmaBoundReport, lemma_bound
from .sampling import _CHUNK, RngState, gumbel_keys, uniform_sample
from .sampling import select_top_k  # noqa: F401  perfbench/tracer.py wraps this name
from .strategies import StrategyConfig, score_pool, select_batch

# stream tags for RngState.derive
_HOLDOUT = 0
_INIT = 1
_SELECT = 2
_LEMMA = 3
_SYNTH = 4

# run_trial's row states: every dataset row is in exactly one part of the split
_ROW_POOL = 0
_ROW_LABELED = 1
_ROW_HOLDOUT = 2


@dataclass(frozen=True)
class ExperimentConfig:
    strategy: StrategyConfig
    fit: FitConfig = FitConfig()
    n0: int = 100
    rounds: int = 30
    batch: int = 30
    trials: int = 5
    holdout_fraction: float = 0.25
    master_seed: int = 0

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError(f"n0 must be >= 1, got {self.n0}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ValueError(f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class RoundRecord:
    trial: int
    round: int
    selected_ids: tuple[int, ...]
    labeled_count: int
    holdout_accuracy: float
    elapsed_ms: int


@dataclass(frozen=True)
class ExperimentResult:
    """All per-round records in (trial, round) order plus the final-round
    accuracy aggregate: mean and sample std (divisor trials-1; 0 for a
    single trial)."""

    records: tuple[RoundRecord, ...]
    final_accuracies: tuple[float, ...]
    final_accuracy_mean: float
    final_accuracy_std: float


def biased_init(labels: Sequence[int], n0: int, k: int, rng: RngState) -> set[int]:
    """Equal-prevalence seed set as positions into `labels`: floor(n0/k)
    per class, drawn uniformly within each class; the n0 mod k remainder
    goes one per class in ascending class index."""
    y = np.asarray(labels, dtype=np.int64)
    base, rem = divmod(n0, k)
    chosen: set[int] = set()
    for c in range(k):
        quota = base + (1 if c < rem else 0)
        if quota == 0:
            continue
        members = np.flatnonzero(y == c)
        if len(members) < quota:
            raise ConfigError(f"class {c} has {len(members)} instances, needs {quota} "
                              "for the initial labeled set; lower n0")
        chosen |= uniform_sample(members, quota, rng)
    return chosen


def holdout_ids(n: int, cfg: ExperimentConfig) -> set[int]:
    """The holdout split for a dataset of n rows, never empty: derived from
    the master seed only, so every trial and every strategy shares it."""
    size = int(cfg.holdout_fraction * n)
    if size == 0:
        raise ConfigError(f"holdout_fraction = {cfg.holdout_fraction} leaves no holdout "
                          f"rows in a dataset of {n} rows")
    return uniform_sample(np.arange(n), size, RngState(cfg.master_seed).derive(_HOLDOUT))


def run_trial(dataset: Dataset, cfg: ExperimentConfig, trial_index: int) -> list[RoundRecord]:
    """One independent trial: shared holdout split, equal-prevalence init,
    then `rounds` iterations of score -> select -> reveal labels -> refit.

    The round-0 record is the pre-query baseline (the classifier fit on the
    initial labeled set). Standardization is fit on the initial labeled
    rows only and frozen for the whole trial. The standardized rows get
    their bias column once, in one design matrix for the trial: pool
    scoring and holdout accuracy gather its rows each round, and `fit`
    gathers its feature columns. The oracle is the dataset's
    ground truth. Round 0's fit starts from zero weights; every later round
    warm-starts from the previous round's model, so no state crosses trials.

    The split is one state per dataset row (pool, labeled or holdout), so
    its parts are disjoint and cover the dataset by construction. The
    strategies see only positions into the current pool; this function
    alone maps them to dataset rows, after checking that select_batch
    returned `batch` distinct positions in [0, pool size). An exception
    raised in a round carries the note "in trial t, round r".
    """
    n = dataset.n
    master = RngState(cfg.master_seed)

    state = np.full(n, _ROW_POOL, dtype=np.int8)
    state[list(holdout_ids(n, cfg))] = _ROW_HOLDOUT
    hold_idx = np.flatnonzero(state == _ROW_HOLDOUT)
    remaining = np.flatnonzero(state == _ROW_POOL)

    if cfg.n0 + cfg.rounds * cfg.batch > len(remaining):
        raise ConfigError(
            f"n0 + rounds*batch = {cfg.n0 + cfg.rounds * cfg.batch} exceeds "
            f"the {len(remaining)} ids left after the holdout split"
        )
    if cfg.strategy.chi / dataset.k == 0.0:
        raise ConfigError(f"chi = {cfg.strategy.chi} is too small for k = {dataset.k} classes: "
                          "chi/k rounds to 0.0 and leaves the scores no smoothing floor")

    init_rng = master.derive(_INIT, trial_index)
    select_rng = master.derive(_SELECT, trial_index)

    init_pos = biased_init(dataset.labels[remaining], cfg.n0, dataset.k, init_rng)
    state[remaining[list(init_pos)]] = _ROW_LABELED

    std = standardize_fit(dataset.features[state == _ROW_LABELED])
    # one design matrix for the trial; Z, its feature columns, is a view of it.
    # Each call gathers its rows: a product over every row, sliced afterwards,
    # would round differently from the product over just the rows gathered
    Xa = design(standardize_apply(std, dataset.features))
    Z = Xa[:, :-1]

    records: list[RoundRecord] = []
    model = None
    for r in range(cfg.rounds + 1):
        t0 = time.perf_counter()
        selected = ()
        try:
            if r:
                pool_idx = np.flatnonzero(state == _ROW_POOL)
                scores = score_pool(model, Xa[pool_idx], cfg.strategy)
                pos = np.fromiter(select_batch(cfg.strategy, scores, cfg.batch, select_rng),
                                  dtype=np.int64)
                distinct = len(np.unique(pos))
                if len(pos) != cfg.batch or distinct != cfg.batch:
                    raise RuntimeError(f"round {r} selected {len(pos)} positions "
                                       f"({distinct} distinct), expected {cfg.batch}")
                # a negative position would index from the end of `pool_idx`
                if pos.min() < 0 or pos.max() >= len(pool_idx):
                    raise RuntimeError(f"round {r} selected positions outside the pool")
                selected = pool_idx[pos].tolist()
                state[selected] = _ROW_LABELED  # oracle: ground-truth labels revealed

            lab_idx = np.flatnonzero(state == _ROW_LABELED)
            model = fit(Z[lab_idx], dataset.labels[lab_idx], dataset.k, cfg.fit, init=model)
            acc = accuracy(model, Xa[hold_idx], dataset.labels[hold_idx])
        except Exception as exc:
            exc.add_note(f"in trial {trial_index}, round {r}")
            raise
        records.append(RoundRecord(
            trial=trial_index, round=r, selected_ids=tuple(sorted(selected)),
            labeled_count=len(lab_idx), holdout_accuracy=acc,
            elapsed_ms=int((time.perf_counter() - t0) * 1000),
        ))
    return records


def run_experiment(dataset: Dataset, cfg: ExperimentConfig) -> ExperimentResult:
    """`trials` independent trials with derived seeds, aggregated into the
    final-round accuracy mean and sample standard deviation."""
    records: list[RoundRecord] = []
    finals: list[float] = []
    for t in range(cfg.trials):
        trial_records = run_trial(dataset, cfg, t)
        records.extend(trial_records)
        finals.append(trial_records[-1].holdout_accuracy)
    arr = np.asarray(finals)
    std = float(arr.std(ddof=1)) if cfg.trials > 1 else 0.0
    return ExperimentResult(
        records=tuple(records),
        final_accuracies=tuple(finals),
        final_accuracy_mean=float(arr.mean()),
        final_accuracy_std=std,
    )


@dataclass(frozen=True)
class SynthPocketSpec:
    """Gaussian cluster dataset with a planted pocket and optional
    maximal-entropy overlap region.

    Main clusters sit pairwise `separation` apart (unit variance). The
    pocket is a sub-cluster of `pocket_class` displaced `pocket_offset`
    from the decoy class's center along an off-simplex direction, so a
    model trained without pocket labels confidently mislabels it as the
    decoy. `overlap_fraction` of the data (if any) is an equal mixture of
    all k classes at a shared far center: irreducibly max-entropy, which
    starves purely greedy selection. train_prevalence declares the
    training-side class mix of the label-shift story; the realized data
    follows pool_prevalence.
    """

    n: int
    d: int
    k: int
    beta: float
    train_prevalence: tuple[float, ...]
    pool_prevalence: tuple[float, ...]
    pocket_class: int
    separation: float
    seed: int
    pocket_decoy: int | None = None
    pocket_offset: float = 3.25
    overlap_fraction: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.d < self.k:
            raise ValueError(f"need d >= k for the cluster layout, got d={self.d}, k={self.k}")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        for name, vec in (("train_prevalence", self.train_prevalence),
                          ("pool_prevalence", self.pool_prevalence)):
            if len(vec) != self.k:
                raise ValueError(f"{name} must have {self.k} entries")
            if any(p < 0 for p in vec):
                raise ValueError(f"{name} entries must be >= 0")
            if abs(math.fsum(vec) - 1.0) > 1e-9:
                raise ValueError(f"{name} must sum to 1")
        if not (0 <= self.pocket_class < self.k):
            raise ValueError(f"pocket_class must be in [0, {self.k}), got {self.pocket_class}")
        if self.pocket_decoy is not None:
            if not (0 <= self.pocket_decoy < self.k):
                raise ValueError(f"pocket_decoy must be in [0, {self.k})")
            if self.pocket_decoy == self.pocket_class:
                raise ValueError("pocket_decoy must differ from pocket_class")
        if self.separation <= 0:
            raise ValueError(f"separation must be > 0, got {self.separation}")
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise ValueError(f"overlap_fraction must be in [0, 1), got {self.overlap_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def decoy(self) -> int:
        if self.pocket_decoy is not None:
            return self.pocket_decoy
        return (self.pocket_class + 1) % self.k


def _largest_remainder(total: int, shares) -> np.ndarray:
    raw = np.asarray(shares, dtype=np.float64) * total
    counts = np.floor(raw).astype(int)
    rem = total - counts.sum()
    # distribute leftovers by largest fractional part, ties to smaller index
    order = np.lexsort((np.arange(len(shares)), -(raw - counts)))
    for i in range(rem):
        counts[order[i]] += 1
    return counts


def _cluster_centers(spec: SynthPocketSpec):
    scale = spec.separation / math.sqrt(2.0)
    centers = np.zeros((spec.k, spec.d))
    for i in range(spec.k):
        centers[i, i] = scale
    if spec.d > spec.k:
        off = np.zeros(spec.d)
        off[spec.k] = 1.0
    else:
        off = centers[spec.decoy] - centers.mean(axis=0)
        off /= np.linalg.norm(off)
    pocket_center = centers[spec.decoy] + spec.pocket_offset * off
    if spec.d > spec.k + 1:
        overlap_dir = np.zeros(spec.d)
        overlap_dir[spec.k + 1] = -1.0
    else:
        overlap_dir = -np.ones(spec.d) / math.sqrt(spec.d)
    overlap_center = 1.25 * spec.separation * overlap_dir
    return centers, pocket_center, overlap_center


def generate_pocket_dataset(spec: SynthPocketSpec) -> tuple[Dataset, frozenset[int]]:
    """Realize the spec; returns the dataset and the pocket row ids.

    Row order is a seed-deterministic shuffle of the generated blocks, so
    pocket membership carries no positional signal.
    """
    pocket_m = int(round(spec.beta * spec.n))
    if spec.beta > 0 and pocket_m < 1:
        raise ConfigError(f"beta*n = {spec.beta * spec.n:.3f} rounds to an empty pocket")

    counts = _largest_remainder(spec.n, spec.pool_prevalence)
    overlap_m = int(round(spec.overlap_fraction * spec.n))
    overlap_counts = _largest_remainder(overlap_m, [1.0 / spec.k] * spec.k) if overlap_m \
        else np.zeros(spec.k, dtype=int)

    main_counts = counts - overlap_counts
    main_counts[spec.pocket_class] -= pocket_m
    if (main_counts < 0).any():
        bad = int(np.argmin(main_counts))
        raise ConfigError(
            f"class {bad}: pool_prevalence allocates {counts[bad]} rows but "
            f"pocket/overlap need more"
        )

    centers, pocket_center, overlap_center = _cluster_centers(spec)
    gen = RngState(spec.seed).derive(_SYNTH)

    blocks: list[tuple[np.ndarray, int, bool, int]] = []
    for c in range(spec.k):
        if main_counts[c] > 0:
            blocks.append((centers[c], int(main_counts[c]), False, c))
    if pocket_m > 0:
        blocks.append((pocket_center, pocket_m, True, spec.pocket_class))
    for c in range(spec.k):
        if overlap_counts[c] > 0:
            blocks.append((overlap_center, int(overlap_counts[c]), False, c))

    feats, labs, pocket_flags = [], [], []
    for center, count, is_pocket, label in blocks:
        feats.append(gen.standard_normal((count, spec.d)) + center)
        labs.append(np.full(count, label, dtype=np.int64))
        pocket_flags.append(np.full(count, is_pocket, dtype=bool))
    X = np.vstack(feats)
    y = np.concatenate(labs)
    flags = np.concatenate(pocket_flags)

    perm = gen.permutation(spec.n)
    X, y, flags = X[perm], y[perm], flags[perm]
    dataset = Dataset(
        features=X, labels=y, k=spec.k,
        feature_names=tuple(f"f{j}" for j in range(spec.d)),
        label_names=tuple(str(c) for c in range(spec.k)),
    )
    pocket_ids = frozenset(int(i) for i in np.flatnonzero(flags))
    return dataset, pocket_ids


@dataclass(frozen=True)
class LemmaValidationReport:
    bound: LemmaBoundReport
    repeats: int
    hits: int
    hit_rate: float
    target: float  # 1 - delta


def validate_lemma(spec: SynthPocketSpec, chi: float, delta: float,
                   repeats: int, equal_weights: bool = False) -> LemmaValidationReport:
    """Monte Carlo check of the hitting bound under worst-case weights.

    Pool of spec.n items with a round(beta*n) pocket; pocket items carry
    the entropy floor zeta, everything else ln k (the maximum), isolating
    the sampling claim from classifier behavior. Each repeat is the bound's
    n_s-item draw `select_positions(log_w, n_s, rng)` over the pool's
    log-weight array, and counts whether any pocket item was hit; the
    repeats read one (spec.seed, lemma tag) stream in turn. The draws are
    not made one by one: a block of max(1, _CHUNK // n) repeats takes one
    `uniforms_open(rows * n)` read, keyed by `gumbel_keys` with one row per
    repeat, and a row hits when its smallest pocket key is at most its
    n_s-th smallest key. That is exact, ties included: the pocket holds the
    smallest positions, and a tie at the n_s-th key goes to the smaller
    position. The hits are those of one `select_positions` call per repeat
    on the same stream, unless a uniform is exactly 0 (probability 2**-53
    per draw): it is redrawn after its block rather than after its repeat,
    so later draws shift. With `equal_weights`
    the pocket carries ln k too, so the n_s items are a uniform draw
    without replacement and the exact hit rate is 1 - C(n-m, n_s)/C(n, n_s)
    for an m-item pocket (1 - (1-beta)^n_s only approximates it, as if the
    draws were independent).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    pocket_m = int(round(spec.beta * spec.n))
    if pocket_m < 1:
        raise ConfigError("pocket is empty; nothing to hit")

    bound = lemma_bound(LemmaBoundInput(beta=spec.beta, chi=chi, k=spec.k, delta=delta))
    if bound.n_s > spec.n:
        raise ConfigError(
            f"bound requires n_s={bound.n_s} draws but the pool has only {spec.n} items"
        )

    weights = np.full(spec.n, math.log(spec.k))
    if not equal_weights:
        weights[:pocket_m] = bound.zeta
    log_w = np.log(weights)

    hits = 0
    if bound.n_s > 0:
        rng = RngState(spec.seed).derive(_LEMMA)
        rows = max(1, _CHUNK // spec.n)
        for done in range(0, repeats, rows):
            block = min(rows, repeats - done)
            keys = gumbel_keys(rng.uniforms_open(block * spec.n).reshape(block, spec.n), log_w)
            kth = np.partition(keys, bound.n_s - 1, axis=1)[:, bound.n_s - 1]
            hits += int(np.count_nonzero(keys[:, :pocket_m].min(axis=1) <= kth))
    return LemmaValidationReport(
        bound=bound, repeats=repeats, hits=hits,
        hit_rate=hits / repeats, target=1.0 - delta,
    )
