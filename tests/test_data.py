"""CSV ingestion and standardization tests."""

import numpy as np
import pytest

from alselect.data import (Dataset, StandardizationParams, load_csv,
                           standardize_apply, standardize_fit)
from alselect.errors import (DataFormatError, EmptyFileError,
                             MissingColumnError, NonNumericCellError)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


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
        with pytest.raises(MissingColumnError) as exc:
            load_csv(p, "y")
        assert exc.value.column == "y"

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path, "f1,f2,y\n1.0,2.0,a\nabc,4.0,b\n")
        with pytest.raises(NonNumericCellError) as exc:
            load_csv(p, "y")
        assert exc.value.row == 1
        assert exc.value.col == "f1"

    def test_nan_cell_rejected(self, tmp_path):
        p = write(tmp_path, "f1,y\nnan,a\n1.0,b\n")
        with pytest.raises(NonNumericCellError) as exc:
            load_csv(p, "y")
        assert exc.value.row == 0

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(EmptyFileError):
            load_csv(p, "y")

    def test_header_only(self, tmp_path):
        p = write(tmp_path, "f1,y\n")
        with pytest.raises(EmptyFileError):
            load_csv(p, "y")

    def test_row_width_mismatch(self, tmp_path):
        p = write(tmp_path, "f1,f2,y\n1.0,2.0,a\n1.0,b\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(p, "y")
        assert str(exc.value) == f"{p}: row 1 has 2 cells, expected 3"
        assert not isinstance(exc.value, NonNumericCellError)

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
