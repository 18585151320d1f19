"""Dataset ingestion and standardization.

CSV dialect is deliberately rigid for bit-deterministic parsing: comma
separated, UTF-8 (a leading byte-order mark is skipped), mandatory header.
Records follow the `csv` module's defaults. Feature cells take Python
`float` syntax and must be finite. A blank line, a row with the wrong
number of cells, a cell longer than `csv.field_size_limit()` and a
non-finite or non-numeric cell are refused, naming the row (and, for a
cell, the column). Labels may be arbitrary strings; they are mapped to
dense integers by first appearance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError


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

    `csv.reader` reads the header row. If `_needs_per_cell_parse` finds
    the file plain, one `np.loadtxt` call on the path parses its records,
    kept if every feature is finite. Otherwise (a quote, a blank line, a
    long line, a ragged row, a cell numpy refuses but `float` takes, such
    as `1_000`, a bad cell, or a file name numpy would decompress)
    `_parse_records` parses the file cell by cell with `csv.reader` and
    `float`, raising the first fault in file order.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            try:
                header = next(csv.reader(fh), None)
            except csv.Error as exc:
                raise DataFormatError(f"{path}: header row: {exc}") from None
            if not header or header == [""]:
                raise DataFormatError(f"{path}: file is empty or has no header row")
            if label_column not in header:
                raise DataFormatError(f"{path}: column {label_column!r} not found in header")
            label_idx = header.index(label_column)
            feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
            if not fh.read(1):  # np.loadtxt would warn "input contained no data"
                raise DataFormatError(f"{path}: file is empty or has no header row")

            parsed = None
            if not path.name.endswith(_DECOMPRESSED) and not _needs_per_cell_parse(path):
                parsed = _parse_table(path, len(header), label_idx)
            if parsed is None:
                fh.seek(0)
                parsed = _parse_records(path, csv.reader(fh), label_idx)
            features, raw_labels = parsed
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: file is not UTF-8 text") from None
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read file: {exc.strerror or exc}") from None

    mapping = {s: i for i, s in enumerate(dict.fromkeys(raw_labels))}  # first appearance
    if len(mapping) < 2:
        raise DataFormatError(f"{path}: label column {label_column!r} has one distinct value")
    labels = np.array([mapping[s] for s in raw_labels], dtype=np.int64)
    return Dataset(
        features=features,
        labels=labels,
        k=len(mapping),
        feature_names=feature_names,
        label_names=tuple(mapping),
    )


_SCAN_BYTES = 1 << 18
# np.loadtxt decompresses a path with one of these suffixes; such a file
# takes the per-cell parse, which reads it as the text it is
_DECOMPRESSED = (".bz2", ".gz", ".lzma", ".xz")


def _needs_per_cell_parse(path) -> bool:
    r"""Whether numpy's parse of the file may differ from `csv.reader`'s.

    numpy parses a file only if it holds no `"` byte, no blank line (two
    line ends in a row: `\n\n`, `\n\r` or `\r\r`; `\r\n` is one line
    end) and no line longer than `csv.field_size_limit()` bytes. On such a
    file numpy and `csv.reader` split records and cells alike. Elsewhere
    numpy skips a blank line that `csv.reader` yields as an empty record,
    and takes a cell longer than the limit that `csv.reader` refuses.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        tail = b""
        start = 0      # file offset of the first byte of tail + block
        prev_end = -1  # file offset of the last line end seen
        while block := fh.read(_SCAN_BYTES):
            a = np.frombuffer(tail + block, dtype=np.uint8)
            ends = np.flatnonzero((a == ord("\n")) | (a == ord("\r")))
            gaps = np.diff(ends)
            second = ends[1:][gaps == 1]  # line ends right after another one
            crlf = (a[second - 1] == ord("\r")) & (a[second] == ord("\n"))
            if b'"' in block or not crlf.all():
                return True
            if ends.size:
                # a line between line ends e1 < e2 holds e2 - e1 - 1 bytes
                if max(start + ends[0] - prev_end, gaps.max(initial=0)) > limit + 1:
                    return True
                prev_end = start + int(ends[-1])
            start += len(a) - 1
            tail = block[-1:]
        return fh.tell() - prev_end - 1 > limit  # the last line


def _parse_table(path, width: int, label_idx: int) -> tuple[np.ndarray, list[str]] | None:
    """Parse every record after the one-line header in one `np.loadtxt` call.

    numpy is handed the path, so it opens the file itself (UTF-8, a leading
    byte-order mark skipped) and reads it in blocks; handed an open file, it
    would pull the lines one by one through Python's iterator.
    Returns the features and the raw label strings, or None where numpy
    refuses a record or a feature is not finite.
    """
    fields = [f"c{i}" for i in range(width)]
    dtype = [(name, object if i == label_idx else np.float64) for i, name in enumerate(fields)]
    try:
        table = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, dtype=dtype,
                           ndmin=1, encoding="utf-8-sig")
    except ValueError:
        return None  # a cell or record numpy refuses; _parse_records decides
    raw_labels = table[fields.pop(label_idx)].tolist()
    features = np.empty((len(table), len(fields)))
    for j, name in enumerate(fields):
        features[:, j] = table[name]
    return (features, raw_labels) if np.isfinite(features).all() else None


def _parse_records(path, reader, label_idx: int) -> tuple[np.ndarray, list[str]]:
    """Parse every record after the header with Python `float`, cell by cell.

    Raises the first fault in file order: a record `csv.reader` refuses
    (such as a cell longer than `csv.field_size_limit()`), a row whose
    width differs from the header's, or a feature cell that is not a
    finite float (naming its row and column). Returns the features and the
    raw label strings.
    """
    header = next(reader)
    rows: list[list[float]] = []
    raw_labels: list[str] = []
    try:
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
                    v = math.nan
                if not math.isfinite(v):
                    raise DataFormatError(f"{path}: non-numeric cell {cell!r} "
                                          f"at row={rownum}, col={header[i]!r}")
                vals.append(v)
            rows.append(vals)
            raw_labels.append(row[label_idx])
    except csv.Error as exc:
        raise DataFormatError(f"{path}: row {len(rows)}: {exc}") from None
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
