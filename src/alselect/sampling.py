"""Single-pass weighted sampling without replacement via Gumbel-form keys.

An item with log weight l = ln w gets key ln(-ln a) - l for a ~ unif(0,1);
keeping the K smallest keys realizes weighted sampling without replacement
in one pass with O(K) retained items. This is the exponent key a^(1/w) of
Efraimidis & Spirakis under a strictly decreasing map (the Gumbel-top-k
form), so it ranks the same, but it takes l itself: any finite l gives a
finite key, and no weight has to be normalised into float range first.

`gumbel_keys` computes the key for its two users, in place in the fresh
`RngState.uniforms_open` block each hands it. The first is the merge,
which serves every sampling entry point: `select_positions` runs it once
over a log-weight array, `uniform_sample` once over an id array at the
scalar log weight 0 (the keys ln(-ln a) are then i.i.d., so the top K is a
uniform K-subset), `uniform_positions` likewise over the positions 0..n-1,
returning an array, and `select_top_k` once per chunk of an (id, weight)
stream. It merges a block into the retained items by one `lexsort`, after
a `partition` has dropped every key above the K-th best when the merge
holds many more than K candidates; when exactly K keys are left, no key
ties the K-th best and the partition alone has found the K best, so
nothing is sorted. The second is `harness.validate_lemma`, which needs
only whether a draw hits a pocket of the smallest positions: it keys a
block of repeats at once, one row per repeat, and counts a hit when fewer
than K of the row's keys lie strictly below its smallest pocket key (a tie
with that key goes to the smaller position, which is then a pocket one),
with no partition.
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
        """Block of `size` doubles in the open interval (0, 1): multiples of
        2**-53, a drawn 0.0 read as 2**-53. Each value depends only on the
        double drawn at its position, and consecutive blocks read one
        stream, so one block of `rows * n` doubles equals `rows` blocks of
        `n` (and `size` one-element blocks). `harness.validate_lemma` relies
        on this: it reads its repeats' uniforms a block of rows at a time
        and gets the hits of one `select_positions` call per repeat."""
        arr = self._gen.random(size)
        if np.count_nonzero(arr) < size:
            arr[arr == 0.0] = 2.0**-53
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


def gumbel_keys(uniforms: np.ndarray, log_w) -> np.ndarray:
    """Sampling keys ln(-ln a) - l for uniforms a in (0, 1) and finite log
    weights l (an array, or one scalar for all), written into `uniforms` and
    returned: the same ufuncs on the same operands as
    `np.log(-np.log(a)) - l`, so the same bits, without a temporary per
    step. Broadcasts, so a (rows, n) block of uniforms against n log weights
    gives each row the keys one merge over those n items would rank. The K
    smallest keys of a row are its weighted draw without replacement."""
    # `out` goes by position: as a keyword it cost a few tenths of a
    # microsecond a call, 3-5% of a 5-item select_top_k call (numpy 2.4)
    np.log(uniforms, uniforms)
    np.negative(uniforms, uniforms)
    np.log(uniforms, uniforms)
    return np.subtract(uniforms, log_w, uniforms)


def _merge(kept_ids, kept_keys, ids: np.ndarray, log_w, k: int,
           rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """Merge one block of ids and their finite log weights (an array, or
    one scalar for all of them) into the retained items.

    Draws one uniform a per id and returns at most K (id, key) pairs, key
    ln(-ln a) - l: the K best of the retained ones and the block by (key, id)
    ascending, in no particular order.
    """
    keys = gumbel_keys(rng.uniforms_open(len(ids)), log_w)
    if kept_ids is not None:
        ids = np.concatenate((kept_ids, ids))
        keys = np.concatenate((kept_keys, keys))
    if len(ids) > k:
        if len(ids) - k > _PARTITION_SURPLUS:
            # every key tied with the K-th best goes on, so the sort decides ties;
            # with no tie exactly K keys reach it and they are the K best
            cand = np.flatnonzero(keys <= np.partition(keys, k - 1)[k - 1])
            if len(cand) == k:
                return ids[cand], keys[cand]
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
    order, and one block reads the stream as its chunks do. A log weight
    that is not finite is reported before too few items.
    """
    _check_k(k)
    log_w = np.asarray(log_weights, dtype=np.float64)
    if log_w.ndim != 1:
        raise ValueError(f"weights must be a 1-D array, got shape {log_w.shape}")
    if len(log_w) and not (log_w[log_w.argmin()] > -math.inf
                           and log_w[log_w.argmax()] < math.inf):  # NaN fails both
        bad = log_w[~np.isfinite(log_w)][0]
        raise ValueError(f"log weights must be finite, got {float(bad)}")
    ids, _ = _merge(None, None, np.arange(len(log_w)), log_w, k, rng)
    return _chosen(ids, len(log_w), k)


def uniform_sample(ids, k: int, rng: RngState) -> set[int]:
    """K ids drawn uniformly without replacement from a 1-D int array.

    The weighted sampler at equal weights: one merge at the scalar log
    weight 0, whose keys ln(-ln a) are i.i.d., so every K-subset is equally
    likely; no array of zero weights is made. It reads the rng as
    `select_positions(np.zeros(len(ids)), k, rng)` does and returns the ids
    at the positions that call picks; exact key ties go to the smaller id,
    which is the smaller position when the ids ascend. Raises ValueError
    when K < 1, the ids are not 1-D, fewer than K ids are given, or a
    repeated id reaches the result; a repeat that does not reach it passes
    unreported.
    """
    _check_k(k)
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError(f"ids must be a 1-D array, got shape {ids.shape}")
    kept, _ = _merge(None, None, ids, 0.0, k, rng)
    return _chosen(kept, len(ids), k)


def uniform_positions(n: int, k: int, rng: RngState) -> np.ndarray:
    """K distinct positions into n items drawn uniformly without replacement,
    as an int array in no particular order: the set
    `uniform_sample(np.arange(n), k, rng)` returns from an equal rng, which
    it leaves in the same state, with no set of Python ints built."""
    _check_k(k)
    if n < k:
        raise ValueError(f"requested {k} items but only {n} available")
    return _merge(None, None, np.arange(n), 0.0, k, rng)[0]


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")


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
