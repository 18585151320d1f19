"""Single-pass weighted sampling without replacement via exponent keys,
plus classic uniform reservoir sampling.

An item with weight u gets key a^(1/u) for a ~ unif(0,1); keeping the K
largest keys realizes weighted sampling without replacement in one pass
with O(K) retained items. Keys are compared in log space (ln a / u, a
strictly monotone transform) so that huge weights cannot collapse distinct
keys onto 1.0 through float rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InsufficientItemsError

_CHUNK = 4096


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

    def uniform_open(self) -> float:
        """One double in the open interval (0, 1); rejects boundary values."""
        x = self._gen.random()
        while x == 0.0:
            x = self._gen.random()
        return x

    def uniforms_open(self, size: int) -> np.ndarray:
        """Block of doubles in (0, 1); consumes the same stream as repeated
        scalar draws (zero hits are redrawn in place)."""
        arr = self._gen.random(size)
        zero = arr == 0.0
        while zero.any():
            arr[zero] = self._gen.random(int(zero.sum()))
            zero = arr == 0.0
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


def select_top_k(
    stream: Iterable,
    k: int,
    rng: RngState,
    stats: SelectionStats | None = None,
) -> set[int]:
    """K distinct ids sampled without replacement proportionally to weights.

    Takes (id, weight) pairs; ids must be distinct and weights positive.
    Single forward pass; retains at most K items plus a fixed-size chunk
    buffer. One uniform is consumed per stream element in stream order, so
    output is a pure function of (stream, K, rng seed). Each chunk is merged
    into the retained set by log key descending, ties toward the smaller id.

    Raises InsufficientItemsError (fewer than K items) or ValueError (ids repeat).
    """
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    items = iter(stream)
    n_seen = 0
    kept_ids = kept_keys = None
    while chunk := list(itertools.islice(items, _CHUNK)):
        ids, weights = zip(*chunk)
        w = np.array(weights, dtype=np.float64)
        if not (w.min() > 0.0 and w.max() < math.inf):  # NaN fails both
            bad = w[~((w > 0.0) & (w < math.inf))][0]
            raise ValueError(f"weights must be positive and finite, got {float(bad)}")
        ids = np.array(ids, dtype=np.int64)
        keys = np.log(rng.uniforms_open(len(w))) / w
        if kept_ids is not None:
            ids = np.concatenate((kept_ids, ids))
            keys = np.concatenate((kept_keys, keys))
        best = np.lexsort((ids, -keys))[:k]
        kept_ids, kept_keys = ids[best], keys[best]
        n_seen += len(w)
        if stats is not None:
            stats.items_seen = n_seen
            stats.peak_retained = max(stats.peak_retained, len(kept_ids))

    if n_seen < k:
        raise InsufficientItemsError(n_seen, k)
    if len(chosen := set(kept_ids.tolist())) < k:
        raise ValueError("ids must be distinct")
    return chosen


def uniform_sample(ids: Iterable[int], k: int, rng: RngState) -> set[int]:
    """K ids drawn uniformly without replacement, single pass (reservoir).

    Vitter's Algorithm R: the n-th id (0-based, n >= K) replaces slot j for
    j ~ unif[0, n] when j < K. The draws do not depend on the reservoir, so
    each chunk takes all its j in one `integers` call and then applies the
    hits in stream order; result and rng state match one draw per id.
    Every K-subset of the stream is equally likely. Raises
    InsufficientItemsError (fewer than K ids) or ValueError (ids repeat).
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
        raise InsufficientItemsError(n, k)
    if len(chosen := set(reservoir)) < k:
        raise ValueError("ids must be distinct")
    return chosen
