"""Dataset ingestion and standardization.

CSV dialect is deliberately rigid for bit-deterministic parsing: comma
separated, UTF-8, '.' decimal, mandatory header. Labels may be arbitrary
strings; they are mapped to dense integers by first appearance and the
mapping is written to a JSON sidecar manifest.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyFileError, MissingColumnError, NonNumericCellError


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with dense integer labels in [0, k)."""

    features: np.ndarray
    labels: np.ndarray
    k: int
    feature_names: tuple[str, ...]
    label_names: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"labels shape {y.shape} != ({X.shape[0]},)")
        if not np.isfinite(X).all():
            raise ValueError("features contain non-finite values")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if len(y) and (y.min() < 0 or y.max() >= self.k):
            raise ValueError(f"labels outside [0, {self.k})")
        if len(self.feature_names) != X.shape[1]:
            raise ValueError("feature_names length != feature dimension")
        if len(self.label_names) != self.k:
            raise ValueError("label_names length != k")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def load_csv(path, label_column: str, manifest_path=None) -> Dataset:
    """Load a dataset; row order is preserved exactly as on disk.

    Labels become integers 0..k-1 in order of first appearance; when
    `manifest_path` is given, the string->integer mapping is written there
    as JSON. Feature cells must parse as finite floats.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError(path) from None
        if not header or header == [""]:
            raise EmptyFileError(path)
        if label_column not in header:
            raise MissingColumnError(path, label_column)
        label_idx = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)

        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for rownum, row in enumerate(reader):
            if len(row) != len(header):
                raise NonNumericCellError(path, rownum, "<row>", f"{len(row)} cells, expected {len(header)}")
            vals = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise NonNumericCellError(path, rownum, header[i], cell) from None
                if not math.isfinite(v):
                    raise NonNumericCellError(path, rownum, header[i], cell)
                vals.append(v)
            rows.append(vals)
            raw_labels.append(row[label_idx])

    if not rows:
        raise EmptyFileError(path)

    mapping: dict[str, int] = {}
    for s in raw_labels:
        if s not in mapping:
            mapping[s] = len(mapping)
    labels = np.array([mapping[s] for s in raw_labels], dtype=np.int64)

    if manifest_path is not None:
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(mapping, fh, indent=2, sort_keys=False)
            fh.write("\n")

    label_names = tuple(sorted(mapping, key=mapping.get))
    return Dataset(
        features=np.asarray(rows, dtype=np.float64),
        labels=labels,
        k=len(mapping),
        feature_names=feature_names,
        label_names=label_names,
    )


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column means and stds (population divisor n; zero std -> 1)."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stds, dtype=np.float64)
        if means.shape != stds.shape or means.ndim != 1:
            raise ValueError("means and stds must be parallel 1-D vectors")
        if not (stds > 0).all():
            raise ValueError("stds must all be > 0 after the zero-replacement rule")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)


def standardize_fit(features) -> StandardizationParams:
    """Column means/stds from the fitting rows only (fit once, freeze)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("need at least one fitting row")
    means = X.mean(axis=0)
    stds = X.std(axis=0)  # population divisor
    stds = np.where(stds == 0.0, 1.0, stds)
    return StandardizationParams(means=means, stds=stds)


def standardize_apply(params: StandardizationParams, features) -> np.ndarray:
    """(x - mean) / std per column."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.means.shape[0]:
        raise ValueError(f"feature shape {X.shape} does not match params")
    return (X - params.means) / params.stds
