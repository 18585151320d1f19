"""Single-pass weighted sampling without replacement via Gumbel-form keys.

An item with log weight l = ln w gets key ln(-ln a) - l for a ~ unif(0,1);
keeping the K smallest keys realizes weighted sampling without replacement
in one pass with O(K) retained items. This is the exponent key a^(1/w) of
Efraimidis & Spirakis under a strictly decreasing map (the Gumbel-top-k
form), so it ranks the same, but it takes l itself: any finite l gives a
finite key, and no weight has to be normalised into float range first. One
merge serves every entry point: `select_positions` runs it once over a
log-weight array, `uniform_sample` once over an id array at log weight 0
(the keys ln(-ln a) are then i.i.d., so the top K is a uniform K-subset),
and `select_top_k` once per chunk of an (id, weight) stream. It merges a
block into the retained items by one `lexsort`, after a `partition` has
dropped every key above the K-th best when the merge holds many more than K
candidates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

_CHUNK = 4096
# A merge holding more than this many candidates beyond K partitions out the
# K-th best key first and sorts only the keys that reach it; a smaller merge
# sorts every candidate. 512 is where the two cost the same (numpy 2.4).
_PARTITION_SURPLUS = 512


class RngState:
    """Deterministic random source: PCG64 seeded through SeedSequence.

    Identical (seed, path) plus an identical call sequence reproduces the
    output stream exactly. `derive` builds an independent child stream from
    integer keys, used to give trials and subsystems their own streams.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self.seed = int(seed)
        self.path = tuple(int(p) for p in _path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, *self.path]))
        )

    algorithm = "numpy-pcg64/seedsequence"

    def derive(self, *keys: int) -> "RngState":
        """Independent child stream addressed by integer keys."""
        return RngState(self.seed, self.path + tuple(int(k) for k in keys))

    def uniforms_open(self, size: int) -> np.ndarray:
        """Block of doubles in the open interval (0, 1); zero hits are
        redrawn in place. Consecutive blocks read one stream, so one block
        of `size` equals `size` one-element blocks unless a zero is redrawn."""
        arr = self._gen.random(size)
        while n_zero := size - np.count_nonzero(arr):
            arr[arr == 0.0] = self._gen.random(n_zero)
        return arr

    def integers(self, high: int) -> int:
        """An integer uniform on [0, high)."""
        return int(self._gen.integers(0, high))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RngState(seed={self.seed}, path={self.path})"


@dataclass
class SelectionStats:
    """Instrumentation for the memory contract of select_top_k."""

    items_seen: int = 0
    peak_retained: int = 0


def _merge(kept_ids, kept_keys, ids: np.ndarray, log_w: np.ndarray, k: int,
           rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """Merge one block of ids and finite log weights into the retained items.

    Draws one uniform a per item and returns at most K (id, key) pairs, key
    ln(-ln a) - l: the best of the retained ones and the block, ranked by
    (key, id) ascending.
    """
    keys = np.log(-np.log(rng.uniforms_open(len(log_w)))) - log_w
    if kept_ids is not None:
        ids = np.concatenate((kept_ids, ids))
        keys = np.concatenate((kept_keys, keys))
    if len(ids) > k:
        if len(ids) - k > _PARTITION_SURPLUS:
            # every key tied with the K-th best goes on, so the sort decides ties
            cand = np.flatnonzero(keys <= np.partition(keys, k - 1)[k - 1])
            ids, keys = ids[cand], keys[cand]
        best = np.lexsort((ids, keys))[:k]
        ids, keys = ids[best], keys[best]
    return ids, keys


def select_positions(log_weights, k: int, rng: RngState) -> set[int]:
    """K distinct positions into a 1-D array of finite log weights l,
    sampled without replacement proportionally to e^l.

    One merge over the whole array: `select_top_k(enumerate(w), k, rng)`
    draws the same keys and the same set from an equal rng as
    `select_positions(np.log(w), k, rng)`. Both draw one uniform per item in
    order, and one block reads the stream as its chunks do. The one
    exception is a uniform that is exactly zero (probability 2**-53 per
    draw): it is redrawn after the whole array rather than after its chunk,
    so later draws shift.
    """
    log_w = np.asarray(log_weights, dtype=np.float64)
    return _sample(np.arange(log_w.size), log_w, k, rng)


def uniform_sample(ids, k: int, rng: RngState) -> set[int]:
    """K ids drawn uniformly without replacement from a 1-D int array.

    The weighted sampler at equal weights: one merge over
    `np.zeros(len(ids))`, whose keys ln(-ln a) are i.i.d., so every K-subset
    is equally likely. It reads the rng as
    `select_positions(np.zeros(len(ids)), k, rng)` does and returns the ids
    at the positions that call picks; exact key ties go to the smaller id,
    which is the smaller position when the ids ascend. Raises ValueError
    when K < 1, fewer than K ids are given, or a repeated id reaches the
    result; a repeat that does not reach it passes unreported.
    """
    ids = np.asarray(ids)
    return _sample(ids, np.zeros(ids.shape), k, rng)


def _sample(ids: np.ndarray, log_w: np.ndarray, k: int, rng: RngState) -> set[int]:
    """K distinct ids out of one block by one merge, with the checks of
    `select_positions` and `uniform_sample`; a log weight that is not
    finite is reported before too few items."""
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    if log_w.ndim != 1:
        raise ValueError(f"weights must be a 1-D array, got shape {log_w.shape}")
    if len(log_w) and not (log_w[log_w.argmin()] > -math.inf
                           and log_w[log_w.argmax()] < math.inf):  # NaN fails both
        bad = log_w[~np.isfinite(log_w)][0]
        raise ValueError(f"log weights must be finite, got {float(bad)}")
    ids, _ = _merge(None, None, ids, log_w, k, rng)
    return _chosen(ids, len(log_w), k)


def _chosen(kept_ids: np.ndarray | None, n_seen: int, k: int) -> set[int]:
    """The kept ids as a set, once n_seen items are merged: fewer than K
    items, or fewer than K distinct ids kept, is an error."""
    if n_seen < k:
        raise ValueError(f"requested {k} items but only {n_seen} available")
    if len(chosen := set(kept_ids.tolist())) < k:
        raise ValueError("ids must be distinct")
    return chosen


def select_top_k(
    stream: Iterable,
    k: int,
    rng: RngState,
    stats: SelectionStats | None = None,
) -> set[int]:
    """K distinct ids sampled without replacement proportionally to weights.

    Takes (id, weight) pairs; ids must be distinct and weights positive and
    finite, subnormal ones included. Single forward pass; retains at most K
    items plus a fixed-size chunk buffer. One uniform is consumed per stream
    element in stream order, so output is a pure function of (stream, K, rng
    seed). Each chunk's weights are checked, and the chunk is merged at log
    weights `np.log(w)` into the retained set by key ascending, ties toward
    the smaller id. This is the chunked form of `select_positions`, for
    streams of ids.

    Raises ValueError when the stream holds fewer than K items, a weight is
    out of range, or a repeated id reaches the result (fewer than K distinct
    ids kept). A repeat that does not reach it passes unreported: finding
    every repeat would take O(n) memory, not O(K).
    """
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    items = iter(stream)
    n_seen = 0
    kept_ids = kept_keys = None
    while chunk := list(itertools.islice(items, _CHUNK)):
        ids, weights = zip(*chunk)
        w = np.array(weights, dtype=np.float64)
        if not (w[w.argmin()] > 0.0 and w[w.argmax()] < math.inf):  # NaN fails both
            raise ValueError(f"weights must be positive and finite, "
                             f"got {float(w[~((w > 0.0) & (w < math.inf))][0])}")
        kept_ids, kept_keys = _merge(kept_ids, kept_keys, np.array(ids, dtype=np.int64),
                                     np.log(w), k, rng)
        n_seen += len(chunk)
        if stats is not None:
            stats.items_seen = n_seen
            stats.peak_retained = max(stats.peak_retained, len(kept_ids))
    return _chosen(kept_ids, n_seen, k)
