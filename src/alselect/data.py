"""Dataset ingestion and standardization.

CSV dialect is deliberately rigid for bit-deterministic parsing: comma
separated, UTF-8 (a leading byte-order mark is skipped), mandatory header.
Records and quoting follow the `csv` module's defaults: a `"`-quoted cell
may hold commas, newlines and `""` for a quote. Feature cells take Python
`float` syntax and must be finite. A blank line, a row with the wrong
number of cells and a non-finite or non-numeric cell are refused, naming
the row (and, for a cell, the column). Labels may be arbitrary strings;
they are mapped to dense integers by first appearance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, EmptyFileError, MissingColumnError, NonNumericCellError


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


def load_csv(path, label_column: str) -> Dataset:
    """Load a dataset; row order is preserved exactly as on disk.

    Labels become integers 0..k-1 in order of first appearance, so label i
    is `label_names[i]`, and there must be at least two. The file must be
    UTF-8 and feature cells must parse as finite floats.

    `csv.reader` alone decides what a record is. When every record has the
    header's width, one `np.loadtxt` call parses the feature cells in C,
    starting at the first physical line after the header; its result is
    kept only if it has as many rows as `csv.reader` found and is all
    finite. Otherwise (a ragged row, a cell numpy refuses but `float`
    takes, such as `1_000`, or a bad cell) `_parse_records` parses the
    file cell by cell and raises the first fault in file order.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
            header_lines = reader.line_num  # a quoted header cell may span lines

            raw_labels: list[str] = []
            ragged = False
            for row in reader:
                if len(row) != len(header):
                    ragged = True  # reported by _parse_records, after any earlier bad cell
                    break
                raw_labels.append(row[label_idx])
            if not raw_labels and not ragged:
                raise EmptyFileError(path)

            features = None
            if not ragged:
                fh.seek(0)
                try:
                    features = np.loadtxt(
                        fh, delimiter=",", quotechar='"', comments=None,
                        skiprows=header_lines,
                        usecols=[i for i in range(len(header)) if i != label_idx],
                        ndmin=2, dtype=np.float64)
                except ValueError:
                    pass  # a cell numpy refuses; _parse_records decides whether float() takes it
            if (features is None or features.shape[0] != len(raw_labels)
                    or not np.isfinite(features).all()):
                fh.seek(0)
                features, raw_labels = _parse_records(path, csv.reader(fh), label_idx)
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: file is not UTF-8 text") from None
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read file: {exc.strerror or exc}") from None

    mapping: dict[str, int] = {}
    for s in raw_labels:
        if s not in mapping:
            mapping[s] = len(mapping)
    if len(mapping) < 2:
        raise DataFormatError(f"{path}: label column {label_column!r} has one distinct value")
    labels = np.array([mapping[s] for s in raw_labels], dtype=np.int64)

    label_names = tuple(sorted(mapping, key=mapping.get))
    return Dataset(
        features=features,
        labels=labels,
        k=len(mapping),
        feature_names=feature_names,
        label_names=label_names,
    )


def _parse_records(path, reader, label_idx: int) -> tuple[np.ndarray, list[str]]:
    """Parse every record after the header with Python `float`, cell by cell.

    Raises the first fault in file order: a row whose width differs from
    the header's, or a feature cell that is not a finite float (naming its
    row and column). Returns the features and the raw label strings.
    """
    header = next(reader)
    rows: list[list[float]] = []
    raw_labels: list[str] = []
    for rownum, row in enumerate(reader):
        if len(row) != len(header):
            raise DataFormatError(f"{path}: row {rownum} has {len(row)} cells, "
                                  f"expected {len(header)}")
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
    return np.asarray(rows, dtype=np.float64), raw_labels


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
