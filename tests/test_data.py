"""CSV ingestion and standardization tests."""

import csv
import dataclasses
import hashlib
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import alselect.data
from alselect import classifier
from alselect.data import (Dataset, StandardizationParams, load_csv, load_csv_cached,
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

    def test_numpy_is_handed_the_path(self, tmp_path, monkeypatch):
        # handed an open file, np.loadtxt pulls its lines one by one through
        # Python; handed the path, it opens the file and reads it in blocks
        seen = []
        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda fname, *a, **kw: seen.append(fname)
                            or real(fname, *a, **kw))
        p = write(tmp_path, "\ufeffx,y\r\n1.5,a\r\n2.5,b\r\n")
        ds = load_csv(p, "y")
        assert seen == [p]
        assert ds.feature_names == ("x",)
        assert ds.features.tolist() == [[1.5], [2.5]]
        assert ds.label_names == ("a", "b")

    @pytest.mark.parametrize("suffix", [".bz2", ".gz", ".lzma", ".xz"])
    def test_compressed_suffix_read_as_text(self, tmp_path, monkeypatch, suffix):
        # np.loadtxt would decompress a path with this suffix; a plain CSV
        # so named is parsed cell by cell, as the text it is
        calls = []
        real = alselect.data._parse_records
        monkeypatch.setattr(alselect.data, "_parse_records",
                            lambda *args: calls.append(1) or real(*args))
        p = write(tmp_path, "x,y\n1.5,a\n2.5,b\n", f"data.csv{suffix}")
        ds = load_csv(p, "y")
        assert ds.features.tolist() == [[1.5], [2.5]]
        assert ds.label_names == ("a", "b")
        assert calls == [1]

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


def refuse_parse(monkeypatch):
    """Make every parse of a CSV's records fail, so only a sidecar can load one."""
    def refuse(*args):
        raise AssertionError("parsed a file whose sidecar holds its parse")

    monkeypatch.setattr(alselect.data, "_parse_table", refuse)
    monkeypatch.setattr(alselect.data, "_parse_records", refuse)


def count_parses(monkeypatch):
    """Count calls of the two record parses; returns the list they append to."""
    calls = []
    for name in ("_parse_table", "_parse_records"):
        real = getattr(alselect.data, name)
        monkeypatch.setattr(alselect.data, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


def sidecar_of(p):
    return p.with_name(p.name + ".parsed")


def same_load(a, b):
    """Whether two loads returned the same bits, dtypes, shapes, names and digest."""
    return (a.features.dtype == b.features.dtype and a.labels.dtype == b.labels.dtype
            and a.features.shape == b.features.shape
            and a.features.tobytes() == b.features.tobytes()
            and a.labels.tobytes() == b.labels.tobytes()
            and (a.k, a.feature_names, a.label_names, a.source_sha256)
            == (b.k, b.feature_names, b.label_names, b.source_sha256))


# a plain file takes the np.loadtxt parse, a quoted one the per-cell parse
PARSE_OF = {"plain": "_parse_table", "quoted": "_parse_records"}
SIDECAR_TEXTS = {
    "plain": "\ufeffx\u00e9,y,z\r\n1.5,\u00e9,-2e-3\r\n2.5,a\x00,1e300\r\n"
             "-0.0, x,5e-324\r\n3.25,\u00e9,7\r\n",
    "quoted": 'x\u00e9,y,z\n1.5,"\u00e9",1_000\n2.5,a\x00,1e300\n-0.0, x,5e-324\n3.25,"a,\nb",7\n',
}


class TestSidecar:
    @pytest.mark.parametrize("kind", SIDECAR_TEXTS)
    def test_second_load_parses_nothing(self, tmp_path, monkeypatch, kind):
        p = write(tmp_path, SIDECAR_TEXTS[kind])
        with monkeypatch.context() as m:
            calls = count_parses(m)
            first = load_csv_cached(p, "y")
        assert calls == [PARSE_OF[kind]]
        assert first.source_sha256 == hashlib.sha256(p.read_bytes()).hexdigest()
        assert sidecar_of(p).is_file()
        refuse_parse(monkeypatch)
        second = load_csv_cached(p, "y")
        assert same_load(second, first)
        assert second.features.dtype == np.float64 and second.labels.dtype == np.int64
        for a in (second.features, second.labels):
            assert a.flags.c_contiguous and a.flags.writeable
        assert second.feature_names == ("x\u00e9", "z")
        assert second.label_names[:3] == ("\u00e9", "a\x00", " x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.csv.parsed"]

    @pytest.mark.parametrize("stale", ["label_column", "digest", "format", "truncated_100",
                                       "truncated_half", "truncated_last_byte", "extra_byte",
                                       "garbage", "empty", "feature_byte", "label_byte",
                                       "name_byte"])
    def test_stale_sidecar_is_ignored_and_replaced(self, tmp_path, monkeypatch, stale):
        text = "a,y,z\n1.5,1,3\n2.5,2,4\n-1,1,5\n"
        fresh = load_csv_cached(write(tmp_path, text, "fresh.csv"), "y")
        d = tmp_path / "d"
        d.mkdir()
        p = write(d, text)
        side = sidecar_of(p)
        if stale == "label_column":
            assert load_csv_cached(p, "z").label_names == ("3", "4", "5")
        elif stale == "digest":
            load_csv_cached(write(d, text.replace("2.5", "2.75")), "y")
            p.write_text(text, encoding="utf-8")
        elif stale == "format":
            with monkeypatch.context() as m:
                m.setattr(alselect.data, "_SIDECAR_FORMAT", alselect.data._SIDECAR_FORMAT + 1)
                load_csv_cached(p, "y")
        else:
            load_csv_cached(p, "y")
            good = side.read_bytes()
            # the last three keep the length and leave a sidecar that loads,
            # with another value, label or name: only its payload digest tells
            value = np.float64(2.5).tobytes()
            side.write_bytes({"truncated_100": good[:100], "truncated_half": good[:len(good) // 2],
                              "truncated_last_byte": good[:-1], "extra_byte": good + b"\0",
                              "garbage": bytes(range(256)) * 40, "empty": b"",
                              "feature_byte": good.replace(value, np.float64(2.75).tobytes()),
                              "label_byte": good[:-8] + b"\1" + good[-7:],
                              "name_byte": good.replace(b'["a", "z"]', b'["b", "z"]')}[stale])
            if stale in ("feature_byte", "label_byte", "name_byte"):
                assert len(side.read_bytes()) == len(good) and side.read_bytes() != good
        before = side.read_bytes()

        calls = count_parses(monkeypatch)
        ds = load_csv_cached(p, "y")
        assert calls == ["_parse_table"]
        assert same_load(ds, fresh)
        assert side.read_bytes() != before
        assert sorted(q.name for q in d.iterdir()) == ["data.csv", "data.csv.parsed"]

        refuse_parse(monkeypatch)
        assert same_load(load_csv_cached(p, "y"), ds)

    @pytest.mark.parametrize("failing", ["mkstemp", "write", "replace"])
    def test_unwritable_directory_loads_and_leaves_no_file(self, tmp_path, monkeypatch, failing):
        def fail(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        p = write(tmp_path, "x,y\n1.5,a\n2.5,b\n")
        target = {"mkstemp": (alselect.data.tempfile, "mkstemp"),
                  "write": (alselect.data.np, "save"),
                  "replace": (alselect.data.os, "replace")}[failing]
        with monkeypatch.context() as m:
            m.setattr(*target, fail)
            ds = load_csv_cached(p, "y")
        assert ds.features.tolist() == [[1.5], [2.5]]
        assert ds.label_names == ("a", "b")
        assert list(tmp_path.iterdir()) == [p]
        calls = count_parses(monkeypatch)
        assert same_load(load_csv_cached(p, "y"), ds)  # the next load parses and writes it
        assert calls == ["_parse_table"]
        assert sidecar_of(p).is_file()

    def test_sidecar_gets_the_csv_mode(self, tmp_path):
        p = write(tmp_path, "x,y\n1.5,a\n2.5,b\n")
        p.chmod(0o640)
        load_csv_cached(p, "y")
        assert sidecar_of(p).stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("text, expected", [
        ("f1,f2\n1,2\n", "column 'y' not found in header"),
        ("f1,y\nabc,a\n1.0,b\n", "non-numeric cell 'abc' at row=0, col='f1'"),
        ("f1,y\n1.0,a\n\n2.0,b\n", "row 1 has 0 cells, expected 2"),
        ("x,y\n1.0,a\n2.0,a\n", "label column 'y' has one distinct value"),
        ("f1,y\n", "file is empty or has no header row"),
    ])
    def test_failed_load_writes_no_sidecar(self, tmp_path, text, expected):
        p = write(tmp_path, text)
        for _ in range(2):
            with pytest.raises(DataFormatError) as exc:
                load_csv_cached(p, "y")
            assert str(exc.value) == f"{p}: {expected}"
        assert list(tmp_path.iterdir()) == [p]

    def test_file_rewritten_mid_load_is_refused_and_cached_under_no_digest(
            self, tmp_path, monkeypatch):
        old, new = "x,y\n1.5,a\n2.5,b\n", "x,y\n1.5,a\n2.5,b\n3.5,c\n"
        p = write(tmp_path, old)
        real = alselect.data._parse_table

        def rewrite_then_parse(*args):
            p.write_text(new, encoding="utf-8")
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(alselect.data, "_parse_table", rewrite_then_parse)
            with pytest.raises(DataFormatError) as exc:
                load_csv_cached(p, "y")
        assert str(exc.value) == f"{p}: file changed while it was read; load it again"
        assert list(tmp_path.iterdir()) == [p]
        # neither content finds a sidecar: each load parses
        calls = count_parses(monkeypatch)
        for text, n in [(old, 2), (new, 3)]:
            p.write_text(text, encoding="utf-8")
            calls.clear()
            ds = load_csv_cached(p, "y")
            assert calls == ["_parse_table"] and ds.n == n
            assert ds.source_sha256 == hashlib.sha256(text.encode()).hexdigest()


    @pytest.mark.parametrize("how", ["same_tick", "written_back"])
    def test_file_rewritten_in_place_is_refused(self, tmp_path, monkeypatch, how):
        # same size and inode. same_tick sets the mtime back, so only the
        # second digest tells; written_back restores the bytes after the
        # parse, so only the mtime tells
        old, new = "x,y\n1.5,a\n2.5,b\n", "x,y\n1.5,a\n2.5,c\n"
        p = write(tmp_path, old)
        before = p.stat()
        real = alselect.data._parse_table

        def rewrite_around_parse(*args):
            p.write_text(new, encoding="utf-8")
            parsed = real(*args)
            if how == "written_back":
                p.write_text(old, encoding="utf-8")
                mtime = before.st_mtime_ns + 10**9
            else:
                mtime = before.st_mtime_ns
            os.utime(p, ns=(before.st_atime_ns, mtime))
            return parsed

        with monkeypatch.context() as m:
            m.setattr(alselect.data, "_parse_table", rewrite_around_parse)
            with pytest.raises(DataFormatError) as exc:
                load_csv_cached(p, "y")
        assert str(exc.value) == f"{p}: file changed while it was read; load it again"
        assert (p.stat().st_ino, p.stat().st_size) == (before.st_ino, before.st_size)
        assert list(tmp_path.iterdir()) == [p]

    def test_load_csv_only_reads(self, tmp_path):
        p = write(tmp_path, SIDECAR_TEXTS["plain"])
        ds = load_csv(p, "y")
        assert ds.source_sha256 is None
        assert list(tmp_path.iterdir()) == [p]
        cached = load_csv_cached(p, "y")
        assert same_load(ds, dataclasses.replace(cached, source_sha256=None))


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

    def test_no_feature_columns(self):
        # a CSV of labels alone loads with 0 feature columns
        params = standardize_fit(np.zeros((3, 0)))
        assert standardize_apply(params, np.zeros((3, 0))).shape == (3, 0)

    @pytest.mark.parametrize("cells", [1, 7, 2**40])
    def test_blocks_give_the_one_pass_bits(self, monkeypatch, cells):
        # rows go through the buffer a block of `cells` cells (at least one
        # row) at a time, into a fresh array or strided design columns
        X = np.random.default_rng(4).normal(5.0, 3.0, size=(23, 3))
        params = standardize_fit(X[:5])
        one_pass = ((X - params.means) / params.stds).tobytes()
        monkeypatch.setattr(classifier, "_BLOCK_CELLS", cells)
        Xa = np.empty((23, 4))
        assert standardize_apply(params, X).tobytes() == one_pass
        assert standardize_apply(params, X, out=Xa[:, :-1]).base is Xa
        assert Xa[:, :-1].tobytes() == one_pass

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

    def test_out_gives_the_copy_bits(self):
        rng = np.random.default_rng(2)
        X = rng.normal(5.0, 3.0, size=(300, 4))
        params = standardize_fit(X[:40])
        copy = standardize_apply(params, X)
        Xa = np.hstack([X, np.ones((300, 1))])
        out = standardize_apply(params, Xa[:, :-1], out=Xa[:, :-1])
        assert np.shares_memory(out, Xa)
        assert out.tobytes() == copy.tobytes()
        assert (Xa[:, -1] == 1.0).all()
        assert copy.tobytes() == ((X - params.means) / params.stds).tobytes()

    def test_out_from_raw_features_into_design_columns(self):
        # the trial's fill: raw features in, the design's feature columns out
        X = np.random.default_rng(3).normal(5.0, 3.0, size=(300, 4))
        params = standardize_fit(X[:40])
        Xa = np.empty((300, 5))
        out = standardize_apply(params, X, out=Xa[:, :-1])
        assert out.base is Xa
        assert Xa[:, :-1].tobytes() == standardize_apply(params, X).tobytes()

    @pytest.mark.parametrize("column, rows", [
        (1, [[0.0, 1e308, 0.0], [0.0, 1e308, 0.0]]),       # the mean's sum overflows
        (2, [[0.0, 0.0, 1e200], [0.0, 1.0, -1e200]]),      # the std's squares overflow
        (0, [[-1e308, 0.0, 1e200], [1e308, 0.0, -1e200]]),  # both: the first column is named
    ])
    def test_fit_refuses_non_finite_mean_or_std(self, column, rows):
        names = ("a", "b", "c")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=f"^feature column '{names[column]}': "
                                                      "the mean or std .* not finite"):
                standardize_fit(np.array(rows), names=names)
            with pytest.raises(DataFormatError, match=f"^feature column {column}: "):
                standardize_fit(np.array(rows))

    @pytest.mark.parametrize("strided", [False, True])
    def test_apply_refuses_non_finite_values(self, strided):
        # column 2 overflows only in the divide, column 1 already in the subtract
        params = StandardizationParams(means=np.array([0.0, -1e308, 0.0]),
                                       stds=np.array([1.0, 1.0, 1e-10]))
        X = np.array([[1.0, 1.0, 1.0], [1.0, 1e308, 1e300]])
        out = np.empty((2, 4))[:, :-1] if strided else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="^feature column 'b': a standardized value"):
                standardize_apply(params, X, out=out, names=("a", "b", "c"))
            with pytest.raises(DataFormatError, match="^feature column 2: a standardized value"):
                standardize_apply(params, X[:1] + [0.0, 0.0, 1e300],
                                  out=None if out is None else out[:1])

    def test_validation(self):
        with pytest.raises(ValueError):
            standardize_fit(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            StandardizationParams(means=np.zeros(2), stds=np.array([1.0, 0.0]))
