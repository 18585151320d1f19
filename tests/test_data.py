"""CSV ingestion and standardization tests."""

import csv
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import alselect.data
from alselect.data import (Dataset, StandardizationParams, load_csv,
                           standardize_apply, standardize_fit)
from alselect.errors import DataFormatError


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))  # keeps \r and \r\n as written
    return p


def reference_load_csv(path, label_column):
    """The per-cell loader `load_csv` must agree with: `csv.reader` records,
    Python `float` on every feature cell, the first fault in file order."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: file is empty or has no header row") from None
            if not header or header == [""]:
                raise DataFormatError(f"{path}: file is empty or has no header row")
            if label_column not in header:
                raise DataFormatError(f"{path}: column {label_column!r} not found in header")
            label_idx = header.index(label_column)
            feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)

            rows = []
            raw_labels = []
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
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: file is not UTF-8 text") from None
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read file: {exc.strerror or exc}") from None

    if not rows:
        raise DataFormatError(f"{path}: file is empty or has no header row")

    mapping = {}
    for s in raw_labels:
        if s not in mapping:
            mapping[s] = len(mapping)
    if len(mapping) < 2:
        raise DataFormatError(f"{path}: label column {label_column!r} has one distinct value")
    labels = np.array([mapping[s] for s in raw_labels], dtype=np.int64)
    return Dataset(
        features=np.asarray(rows, dtype=np.float64),
        labels=labels,
        k=len(mapping),
        feature_names=feature_names,
        label_names=tuple(sorted(mapping, key=mapping.get)),
    )


def outcome(load, path):
    """What a loader returned, or which error it raised with which message."""
    try:
        ds = load(path, "y")
    except Exception as exc:  # the type itself is compared
        return type(exc), str(exc)
    return (ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(),
            ds.feature_names, ds.label_names)


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["+.5", "7.", "-2E-3", " 3 ", "\t4", "\u00a01", "1e-320"]),
)
ODD_CELLS = st.sampled_from(["", "nan", "-inf", "Infinity", "1e400", "1_000", "\u0661",
                             "abc", "0x10", "1 2", "1e", "--1", '"1"2', '1"', "1\x00"])
FEATURE_CELLS = st.integers(0, 9).flatmap(lambda i: ODD_CELLS if i == 0 else NUMBERS)
LABELS = st.text(alphabet='ab,"\n\r \t', max_size=4)
NAMES = st.text(alphabet='xy,"\n\r ', max_size=3)
EOLS = st.sampled_from(["\n", "\r\n", "\r"])
# which parse of the records ran, by (np.loadtxt called, csv.reader per cell called)
PARSERS = {(True, False): "np.loadtxt",
           (True, True): "np.loadtxt refused, then csv.reader per cell",
           (False, True): "csv.reader per cell",
           (False, False): "none, refused before the records"}


@st.composite
def csv_texts(draw):
    """CSV text for the loader to agree on with the reference, well-formed or not.

    A cell is quoted with doubled quotes, or quoted only when it must be.
    One file in three is misshapen: a cell may also be written as is (so a
    comma, quote or newline in it reshapes the record), rows may be one cell
    short or long, and blank or whitespace-only lines may follow any line.
    """
    misshapen = draw(st.sampled_from([False, False, True]))

    def encode(cell):
        how = draw(st.sampled_from(["quoted", "minimal", "minimal"] + ["raw"] * misshapen))
        if how == "quoted" or (how == "minimal" and any(c in cell for c in ',"\r\n')):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    width = draw(st.integers(1, 4))
    label_pos = draw(st.integers(0, width - 1))
    header = [draw(NAMES) for _ in range(width)]
    header[label_pos] = "y"
    records = [header]
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(LABELS) if i == label_pos else draw(FEATURE_CELLS) for i in range(width)]
        shape = draw(st.sampled_from(["ok"] * 6 + ["short", "long"])) if misshapen else "ok"
        if shape == "short":
            row.pop()
        elif shape == "long":
            row.append(draw(FEATURE_CELLS))
        records.append(row)
    pieces = []
    for record in records:
        pieces += [",".join(encode(cell) for cell in record), draw(EOLS)]
        if misshapen and draw(st.integers(0, 5)) == 0:
            pieces += [draw(st.sampled_from(["", " ", " \t"])), draw(EOLS)]
    if draw(st.booleans()):
        pieces.pop()  # no line end after the last line
    return "".join(pieces)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "f1,f2,y\n1.0,2.0,a\n3.0,4.0,b\n")
        ds = load_csv(p, "y")
        assert ds.n == 2 and ds.d == 2 and ds.k == 2
        assert ds.labels.tolist() == [0, 1]
        assert ds.feature_names == ("f1", "f2")
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_label_mapping_first_appearance(self, tmp_path):
        p = write(tmp_path, "x,y\n1,z\n2,a\n3,z\n4,m\n")
        ds = load_csv(p, "y")
        assert ds.labels.tolist() == [0, 1, 0, 2]
        assert ds.label_names == ("z", "a", "m")

    def test_missing_column(self, tmp_path):
        p = write(tmp_path, "f1,f2\n1,2\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(p, "y")
        assert str(exc.value) == f"{p}: column 'y' not found in header"

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path, "f1,f2,y\n1.0,2.0,a\nabc,4.0,b\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(p, "y")
        assert str(exc.value) == f"{p}: non-numeric cell 'abc' at row=1, col='f1'"

    def test_nan_cell_rejected(self, tmp_path):
        p = write(tmp_path, "f1,f2,y\n1.0,nan,a\n1.0,2.0,b\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(p, "y")
        assert str(exc.value) == f"{p}: non-numeric cell 'nan' at row=0, col='f2'"

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(DataFormatError, match="file is empty or has no header row"):
            load_csv(p, "y")

    def test_header_only(self, tmp_path):
        p = write(tmp_path, "f1,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" would raise
            with pytest.raises(DataFormatError, match="file is empty or has no header row"):
                load_csv(p, "y")

    def test_row_width_mismatch(self, tmp_path):
        p = write(tmp_path, "f1,f2,y\n1.0,2.0,a\n1.0,b\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(p, "y")
        assert str(exc.value) == f"{p}: row 1 has 2 cells, expected 3"

    def test_order_stable(self, tmp_path):
        text = "f1,y\n" + "".join(f"{i}.5,c{i % 3}\n" for i in range(50))
        p1 = write(tmp_path, text, "a.csv")
        p2 = write(tmp_path, text, "b.csv")
        d1, d2 = load_csv(p1, "y"), load_csv(p2, "y")
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.labels, d2.labels)

    def test_one_label_rejected(self, tmp_path):
        p = write(tmp_path, "x,y\n1.0,a\n2.0,a\n")
        with pytest.raises(DataFormatError, match="one distinct value") as exc:
            load_csv(p, "y")
        assert str(p) in str(exc.value)

    def test_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("x,y\n1.0,caf\u00e9\n2.0,b\n".encode("latin-1"))
        with pytest.raises(DataFormatError, match="not UTF-8") as exc:
            load_csv(p, "y")
        assert str(p) in str(exc.value)

    def test_blank_line_rejected(self, tmp_path):
        p = write(tmp_path, "f1,y\n1.0,a\n\n2.0,b\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(p, "y")
        assert str(exc.value) == f"{p}: row 1 has 0 cells, expected 2"

    def test_bad_cell_before_ragged_row_is_reported(self, tmp_path):
        p = write(tmp_path, "f1,y\nabc,a\n1.0\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(p, "y")
        assert str(exc.value) == f"{p}: non-numeric cell 'abc' at row=0, col='f1'"

    def test_python_float_syntax(self, tmp_path):
        # numpy refuses these; Python's float() takes them
        p = write(tmp_path, "f1,y\n1_000,a\n\u0661,b\n")
        ds = load_csv(p, "y")
        assert ds.features.tolist() == [[1000.0], [1.0]]

    # spreadsheet programs save "CSV UTF-8" with a leading byte-order mark
    def test_bom_label_first(self, tmp_path):
        p = write(tmp_path, "\ufefflabel,x\na,1\nb,2\n")
        ds = load_csv(p, "label")
        assert ds.feature_names == ("x",)
        assert ds.features.tolist() == [[1.0], [2.0]]
        assert ds.label_names == ("a", "b")

    def test_bom_feature_first(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-cell parse ran on a file numpy parses")

        monkeypatch.setattr(alselect.data, "_parse_records", refuse)
        p = write(tmp_path, "\ufeffx,y\n1.5,a\n2.5,b\n")
        ds = load_csv(p, "y")
        assert ds.feature_names == ("x",)
        assert "\ufeff" not in ds.feature_names[0]
        assert ds.features.tolist() == [[1.5], [2.5]]

    def test_bom_per_cell_path(self, tmp_path):
        p = write(tmp_path, "\ufeffx,y\n1_000,a\n2,b\n")
        ds = load_csv(p, "y")
        assert ds.feature_names == ("x",)
        assert ds.features.tolist() == [[1000.0], [2.0]]
        assert ds.label_names == ("a", "b")

    def test_header_with_quoted_newline(self, tmp_path):
        # the header's second physical line would parse as a row of floats
        # if the numeric pass skipped one line instead of the whole record
        p = write(tmp_path, '"x\n5,",y\n1,a"\n2,c\n')
        ds = load_csv(p, "y")
        assert ds.feature_names == ("x\n5,",)
        assert ds.features.tolist() == [[1.0], [2.0]]
        assert ds.label_names == ('a"', "c")

    def test_plain_file_skips_per_cell_parse(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-cell parse ran on a file numpy parses")

        monkeypatch.setattr(alselect.data, "_parse_records", refuse)
        p = write(tmp_path, "y,f1,f2\r\n a b ,1.5,-2e-3\r\nc, 3 , 4\r\n")
        ds = load_csv(p, "y")
        assert ds.features.tolist() == [[1.5, -2e-3], [3.0, 4.0]]
        assert ds.label_names == (" a b ", "c")

    def test_quoted_file_goes_to_per_cell_parse(self, tmp_path, monkeypatch):
        # numpy never reads quotes: any `"` byte sends the file to csv.reader
        calls = []
        real = alselect.data._parse_records
        monkeypatch.setattr(alselect.data, "_parse_records",
                            lambda *args: calls.append(1) or real(*args))
        p = write(tmp_path, 'y,f1,f2\r\n"a, \nb",1.5,-2e-3\r\nc, 3 ,"4"\r\n')
        ds = load_csv(p, "y")
        assert ds.features.tolist() == [[1.5, -2e-3], [3.0, 4.0]]
        assert ds.label_names == ("a, \nb", "c")
        assert calls == [1]

    @pytest.mark.parametrize("text, expected", [
        ("f1,y\n1.0,a\n\n2.0,b\n", "row 1 has 0 cells, expected 2"),
        ("f1,y\r\n1.0,a\r\n\r\n2.0,b\r\n", "row 1 has 0 cells, expected 2"),
        ("f1,y\r1.0,a\r\r2.0,b\r", "row 1 has 0 cells, expected 2"),
        ('f1,y\n1.0,"a\n\nb"\n2.0,c\n', ("a\n\nb", "c")),
        ('f1,y\r\n1.0,"a\r\n\r\nb"\r\n2.0,c\r\n', ("a\r\n\r\nb", "c")),
    ], ids=["between_rows", "between_rows_crlf", "between_rows_cr",
            "in_quoted_label", "in_quoted_label_crlf"])
    def test_blank_line_goes_to_per_cell_parse(self, tmp_path, monkeypatch, text, expected):
        # numpy skips an empty line, quoted or not, where csv.reader does not
        calls = []
        real = alselect.data._parse_records
        monkeypatch.setattr(alselect.data, "_parse_records",
                            lambda *args: calls.append(1) or real(*args))
        p = write(tmp_path, text)
        if isinstance(expected, str):
            with pytest.raises(DataFormatError) as exc:
                load_csv(p, "y")
            assert str(exc.value) == f"{p}: {expected}"
        else:
            ds = load_csv(p, "y")
            assert ds.label_names == expected
            assert ds.features.tolist() == [[1.0], [2.0]]
        assert calls == [1]

    def test_plain_file_reads_only_the_header_with_csv_reader(self, tmp_path, monkeypatch):
        rows = []
        real = csv.reader

        class CountingReader:
            def __init__(self, *args, **kwargs):
                self._reader = real(*args, **kwargs)

            def __iter__(self):
                return self

            def __next__(self):
                rows.append(next(self._reader))
                return rows[-1]

        monkeypatch.setattr(csv, "reader", CountingReader)
        p = write(tmp_path, "f1, y \r\n1.5,a b\r\n2.5,c\r3.5,a b\n")
        ds = load_csv(p, " y ")
        assert rows == [["f1", " y "]]
        assert ds.features.tolist() == [[1.5], [2.5], [3.5]]
        assert ds.label_names == ("a b", "c")

    @pytest.mark.parametrize("text, blank", [
        ("a\r\nb\r\nc\r\n", False), ("a\rb\nc\r", False), ("abc", False), ("\r\n", False),
        ("a\n\nb", True), ("a\n\rb", True), ("a\r\rb", True), ("a\r\n\r\nb", True),
        ("a\r\r\nb", True), ("a\r\n\nb", True),
    ])
    @pytest.mark.parametrize("scan_bytes", [1, 2, 3, 1 << 18])
    def test_blank_line_scan_across_blocks(self, tmp_path, monkeypatch, text, blank, scan_bytes):
        monkeypatch.setattr(alselect.data, "_SCAN_BYTES", scan_bytes)
        assert alselect.data._needs_per_cell_parse(write(tmp_path, text)) is blank

    @pytest.mark.parametrize("text, quoted", [
        ('"abc\n', True), ('ab\r\ncd\r\nef"\r\n', True), ("ab\r\ncd\r\nef\r\n", False),
    ])
    @pytest.mark.parametrize("scan_bytes", [1, 2, 3, 1 << 18])
    def test_quote_scan_across_blocks(self, tmp_path, monkeypatch, text, quoted, scan_bytes):
        monkeypatch.setattr(alselect.data, "_SCAN_BYTES", scan_bytes)
        assert alselect.data._needs_per_cell_parse(write(tmp_path, text)) is quoted

    @pytest.mark.parametrize("text, long", [
        ("abcd\nabcd", False), ("abcde\nabcd", True), ("abcd\nabcde", True),
        ("ab\nabcde\nab", True), ("ab\r\nabcd\r\nab\r\n", False), ("ab\r\nabcde\r\n", True),
        ("abcd\rabcd\r", False), ("abcd\rabcde\r", True), ("abcd", False), ("abcde", True),
    ])
    @pytest.mark.parametrize("scan_bytes", [1, 2, 3, 1 << 18])
    def test_long_line_scan_across_blocks(self, tmp_path, monkeypatch, text, long, scan_bytes):
        # a line longer than the field limit may hold a cell numpy takes and
        # csv.reader refuses, so it goes to the per-cell parse
        monkeypatch.setattr(alselect.data, "_SCAN_BYTES", scan_bytes)
        monkeypatch.setattr(csv, "field_size_limit", lambda: 4)
        assert alselect.data._needs_per_cell_parse(write(tmp_path, text)) is long

    @pytest.mark.parametrize("text, expected", [
        ("f1,y\n1.0,a\n2.0,{long}\n", "row 1: field larger than field limit (131072)"),
        ('f1,y\n1.0,a\n2.0,"{long}"\n', "row 1: field larger than field limit (131072)"),
        ("f1,{long}\n1.0,a\n", "header row: field larger than field limit (131072)"),
        # a quoted feature cell of 70,001 short lines that numpy reads as 1.0
        ('x,y\n"{short_lines}1",a\n2,b\n', "row 0: field larger than field limit (131072)"),
        ('x,y\n"{short_lines}1",a\n2,b\n\n', "row 0: field larger than field limit (131072)"),
    ], ids=["label", "quoted_label", "header", "quoted_short_lines",
            "quoted_short_lines_blank_line_after"])
    def test_cell_over_field_limit_names_row(self, tmp_path, text, expected):
        p = write(tmp_path, text.format(long="x" * 140_000, short_lines=" \n" * 70_000))
        with pytest.raises(DataFormatError) as exc:
            load_csv(p, "y")
        assert str(exc.value) == f"{p}: {expected}"

    @given(csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_per_cell_reference(self, text):
        # most drawn files hold a `"`, which keeps them off the numpy parse,
        # so each one's twin with every `"` removed is checked as well;
        # `--hypothesis-show-statistics` prints how often each parser ran
        with tempfile.TemporaryDirectory() as tmp:
            for name, body in [("as drawn", text), ("quotes removed", text.replace('"', ""))]:
                p = write(Path(tmp), body, f"{name}.csv")
                with (mock.patch.object(alselect.data, "_parse_table",
                                        wraps=alselect.data._parse_table) as numpy_parse,
                      mock.patch.object(alselect.data, "_parse_records",
                                        wraps=alselect.data._parse_records) as per_cell_parse):
                    assert outcome(load_csv, p) == outcome(reference_load_csv, p)
                event(f"{name}: " + PARSERS[numpy_parse.called, per_cell_parse.called])

    def test_numeric_labels_ok(self, tmp_path):
        p = write(tmp_path, "x,y\n1.0,7\n2.0,3\n3.0,7\n")
        ds = load_csv(p, "y")
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.label_names == ("7", "3")


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[np.inf]]), labels=np.array([0]),
                    k=2, feature_names=("a",), label_names=("x", "y"))

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 1)), labels=np.array([0, 2]),
                    k=2, feature_names=("a",), label_names=("x", "y"))


class TestStandardize:
    def test_hand_example(self):
        params = standardize_fit(np.array([[0.0], [2.0]]))
        assert params.means.tolist() == [1.0]
        assert params.stds.tolist() == [1.0]  # population divisor n
        out = standardize_apply(params, np.array([[0.0], [2.0]]))
        assert out.tolist() == [[-1.0], [1.0]]

    def test_constant_column(self):
        params = standardize_fit(np.array([[5.0, 1.0], [5.0, 3.0]]))
        assert params.stds[0] == 1.0
        out = standardize_apply(params, np.array([[5.0, 1.0]]))
        assert out[0, 0] == 0.0

    def test_single_row(self):
        params = standardize_fit(np.array([[3.0, -2.0]]))
        out = standardize_apply(params, np.array([[3.0, -2.0]]))
        assert out.tolist() == [[0.0, 0.0]]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        params = standardize_fit(X)
        Z = standardize_apply(params, X)
        assert np.abs(Z.mean(axis=0)).max() < 1e-9
        assert np.abs(Z.std(axis=0) - 1.0).max() < 1e-9

    def test_frozen_params_no_leakage(self):
        rng = np.random.default_rng(1)
        fit_rows = rng.normal(0, 1, size=(50, 3))
        other = rng.normal(10, 5, size=(50, 3))
        params = standardize_fit(fit_rows)
        Z = standardize_apply(params, other)
        # other rows do not re-center themselves
        assert Z.mean() > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            standardize_fit(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            StandardizationParams(means=np.zeros(2), stds=np.array([1.0, 0.0]))
