"""Single-pass weighted sampling without replacement via exponent keys,
plus classic uniform reservoir sampling.

An item with weight u gets key a^(1/u) for a ~ unif(0,1); keeping the K
largest keys realizes weighted sampling without replacement in one pass
with O(K) retained items. Keys are compared in log space (ln a / u, a
strictly monotone transform) so that huge weights cannot collapse distinct
keys onto 1.0 through float rounding. One merge serves both entry points:
`select_positions` runs it once over a weight array, `select_top_k` once per
chunk of an (id, weight) stream. It merges a block into the retained items
by one `lexsort`, after a `partition` has dropped every key below the K-th
best when the merge holds many more than K candidates.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

_CHUNK = 4096
# A merge holding more than this many candidates beyond K partitions out the
# K-th best key first and sorts only the keys that reach it; a smaller merge
# sorts every candidate. 512 is where the two cost the same (numpy 2.4).
_PARTITION_SURPLUS = 512
# The smallest weight w whose log key ln(a) / w stays finite for the
# smallest uniform a = 2**-53; below it the keys overflow to -inf and tie.
_MIN_WEIGHT = 53 * math.log(2) / sys.float_info.max


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

    def integers(self, high: int | np.ndarray) -> int | np.ndarray:
        """Integers uniform on [0, high): an int for an int high, an int64
        array for an array of highs. An array consumes the same stream as
        one scalar draw per high, in order."""
        out = self._gen.integers(0, high)
        return out if isinstance(out, np.ndarray) else int(out)

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


def _merge(kept_ids, kept_neg, ids: np.ndarray, w: np.ndarray, k: int,
           rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """Merge one block of ids and weights into the retained items.

    Checks the weights, draws one uniform per item and returns at most K
    (id, negated log key) pairs: the best of the retained ones and the block.
    Ranked by (-log key, id) ascending; negation is exact, so this is the
    documented order and no merge has to negate the retained keys again.
    """
    if not (w[w.argmin()] >= _MIN_WEIGHT and w[w.argmax()] < math.inf):  # NaN fails both
        bad = w[~((w >= _MIN_WEIGHT) & (w < math.inf))][0]
        raise ValueError(f"weights must be positive and finite, at least "
                         f"{_MIN_WEIGHT:.4g}, got {float(bad)}")
    neg = np.log(rng.uniforms_open(len(w))) / -w
    if kept_ids is not None:
        ids = np.concatenate((kept_ids, ids))
        neg = np.concatenate((kept_neg, neg))
    if len(ids) > k:
        if len(ids) - k > _PARTITION_SURPLUS:
            # every key tied with the K-th best goes on, so the sort decides ties
            cand = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
            ids, neg = ids[cand], neg[cand]
        best = np.lexsort((ids, neg))[:k]
        ids, neg = ids[best], neg[best]
    return ids, neg


def select_positions(weights, k: int, rng: RngState) -> set[int]:
    """K distinct positions into a 1-D weight array, sampled without
    replacement proportionally to the weights.

    One merge over the whole array: the same keys, ties and errors as
    `select_top_k(enumerate(weights), k, rng)`, and the same set from an
    equal rng. Both draw one uniform per item in order, and one block reads
    the stream as its chunks do. The one exception is a uniform that is
    exactly zero (probability 2**-53 per draw): it is redrawn after the
    whole array rather than after its chunk, so later draws shift.
    """
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"weights must be a 1-D array, got shape {w.shape}")
    if len(w):  # merged before the count check, so a bad weight is reported first
        ids, _ = _merge(None, None, np.arange(len(w)), w, k, rng)
    if len(w) < k:
        raise ValueError(f"requested {k} items but only {len(w)} available")
    return set(ids.tolist())


def select_top_k(
    stream: Iterable,
    k: int,
    rng: RngState,
    stats: SelectionStats | None = None,
) -> set[int]:
    """K distinct ids sampled without replacement proportionally to weights.

    Takes (id, weight) pairs; ids must be distinct and weights finite and
    at least 53 ln 2 / DBL_MAX (about 2.04e-307).
    Single forward pass; retains at most K items plus a fixed-size chunk
    buffer. One uniform is consumed per stream element in stream order, so
    output is a pure function of (stream, K, rng seed). Each chunk is merged
    into the retained set by log key descending, ties toward the smaller id.
    This is the chunked form of `select_positions`, for streams of ids.

    Raises ValueError when the stream holds fewer than K items, a weight is
    out of range, or a repeated id reaches the result (fewer than K distinct
    ids kept). A repeat that does not reach it passes unreported: finding
    every repeat would take O(n) memory, not O(K).
    """
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    items = iter(stream)
    n_seen = 0
    kept_ids = kept_neg = None
    while chunk := list(itertools.islice(items, _CHUNK)):
        ids, weights = zip(*chunk)
        kept_ids, kept_neg = _merge(kept_ids, kept_neg, np.array(ids, dtype=np.int64),
                                    np.array(weights, dtype=np.float64), k, rng)
        n_seen += len(chunk)
        if stats is not None:
            stats.items_seen = n_seen
            stats.peak_retained = max(stats.peak_retained, len(kept_ids))

    if n_seen < k:
        raise ValueError(f"requested {k} items but only {n_seen} available")
    if len(chosen := set(kept_ids.tolist())) < k:
        raise ValueError("ids must be distinct")
    return chosen


def uniform_sample(ids: Iterable[int], k: int, rng: RngState) -> set[int]:
    """K ids drawn uniformly without replacement, single pass (reservoir).

    Vitter's Algorithm R: the n-th id (0-based, n >= K) replaces slot j for
    j ~ unif[0, n] when j < K. The draws do not depend on the reservoir, so
    each chunk takes all its j in one `integers` call and then applies the
    hits in stream order; result and rng state match one draw per id.
    Every K-subset of the stream is equally likely. Raises ValueError when
    the stream holds fewer than K ids or a repeated id reaches the
    reservoir's result; a repeat that does not reach it passes unreported,
    since finding every repeat would take O(n) memory, not O(K).
    """
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    items = iter(ids)
    reservoir = list(itertools.islice(items, k))
    n = len(reservoir)
    while chunk := list(itertools.islice(items, _CHUNK)):
        j = rng.integers(np.arange(n + 1, n + len(chunk) + 1))
        hits = np.flatnonzero(j < k)
        for pos, slot in zip(hits.tolist(), j[hits].tolist()):
            reservoir[slot] = chunk[pos]
        n += len(chunk)
    if n < k:
        raise ValueError(f"requested {k} items but only {n} available")
    if len(chosen := set(reservoir)) < k:
        raise ValueError("ids must be distinct")
    return chosen
