import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fold_class_counts, synthetic_dataset
from hhfs.dataset import (Dataset, DatasetError, load_csv, min_max_normalize,
                          stratified_folds)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_read_off(self, tmp_path):
        path = write_csv(tmp_path, "1,2,A\n3,4,A\n5,6,B\n")
        d = load_csv(path, label_column=2)
        assert d.n_features == 2
        assert d.n_instances == 3
        assert d.class_count == 2
        assert d.labels.tolist() == [0, 0, 1]
        assert d.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_negative_label_column(self, tmp_path):
        path = write_csv(tmp_path, "1,2,A\n3,4,B\n")
        d = load_csv(path, label_column=-1)
        assert d.features.shape == (2, 2)

    def test_missing_cell_imputed_with_column_mean(self, tmp_path):
        path = write_csv(tmp_path, "2.0,1,A\n?,1,B\n4.0,1,A\n")
        d = load_csv(path, label_column=2)
        assert d.features[1, 0] == pytest.approx(3.0)

    def test_custom_missing_token(self, tmp_path):
        path = write_csv(tmp_path, "2.0,A\nNA,B\n4.0,A\n")
        d = load_csv(path, label_column=1, missing_token="NA")
        assert d.features[1, 0] == pytest.approx(3.0)

    def test_header_and_label_by_name(self, tmp_path):
        path = write_csv(tmp_path, "f0,f1,klass\n1,2,x\n3,4,y\n")
        d = load_csv(path, label_column="klass", has_header=True)
        assert d.n_features == 2
        assert d.labels.tolist() == [0, 1]

    def test_label_by_name_without_header_error(self, tmp_path):
        path = write_csv(tmp_path, "1,2,x\n3,4,y\n")
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: label column given "
                                               "by name requires has_header=True$"):
            load_csv(path, label_column="klass")

    def test_labels_densified_by_first_appearance(self, tmp_path):
        path = write_csv(tmp_path, "1,Z\n2,A\n3,Z\n4,M\n")
        d = load_csv(path, label_column=1)
        assert d.labels.tolist() == [0, 1, 0, 2]

    def test_ragged_rows_error(self, tmp_path):
        path = write_csv(tmp_path, "1,2,A\n3,B\n")
        with pytest.raises(DatasetError, match="columns"):
            load_csv(path, label_column=-1)

    @pytest.mark.parametrize("text, message", [
        ("a,b,label\n1,2,3,x\n4,5,6,y\n", "row 0 has 4 columns, expected 3"),
        ("a,b,c,label\n1,2,x\n4,5,y\n", "row 0 has 3 columns, expected 4"),
        ("a,b,label\n1,2,x\n4,y\n", "row 1 has 2 columns, expected 3"),
    ], ids=["narrow-header", "wide-header", "ragged-data"])
    def test_header_held_to_the_rows_width(self, tmp_path, text, message):
        # before any column is looked up by name; data rows count from 0
        path = write_csv(tmp_path, text)
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: {message} "
                                               "as in the header$"):
            load_csv(path, label_column="label", has_header=True)

    @pytest.mark.parametrize("missing_token", ["?", "NA"])
    def test_blank_cell_imputed_whatever_the_token(self, tmp_path, missing_token):
        path = write_csv(tmp_path, "2,1,0\n,3,1\n4,5,0\n5,2,1\n")
        d = load_csv(path, missing_token=missing_token)
        assert d.features[:, 0].tolist() == [2.0, 11 / 3, 4.0, 5.0]

    def test_non_numeric_feature_error(self, tmp_path):
        path = write_csv(tmp_path, "1,2,A\n3,oops,B\n")
        with pytest.raises(DatasetError, match="non-numeric"):
            load_csv(path, label_column=-1)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "-INF"])
    def test_non_finite_feature_error(self, tmp_path, cell):
        path = write_csv(tmp_path, f"A,1,?\nB,3,{cell}\n")
        with pytest.raises(DatasetError,
                           match=f"data.csv: non-finite cell '{cell}' at row 1, column 2"):
            load_csv(path, label_column=0)

    def test_nan_as_missing_token_is_imputed(self, tmp_path):
        path = write_csv(tmp_path, "2.0,A\nnan,B\n4.0,A\n")
        d = load_csv(path, label_column=1, missing_token="nan")
        assert d.features[1, 0] == pytest.approx(3.0)

    def test_single_class_error(self, tmp_path):
        path = write_csv(tmp_path, "1,2,A\n3,4,A\n")
        with pytest.raises(DatasetError,
                           match=r"data\.csv: need at least 2 classes, found 1"):
            load_csv(path, label_column=-1)

    def test_missing_file_error(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_all_missing_column_error(self, tmp_path):
        path = write_csv(tmp_path, "?,1,A\n?,2,B\n")
        with pytest.raises(DatasetError, match="impute"):
            load_csv(path, label_column=-1)

    def test_missing_label_error(self, tmp_path):
        path = write_csv(tmp_path, "1,2,A\n3,4,?\n")
        with pytest.raises(DatasetError, match="label"):
            load_csv(path, label_column=-1)

    @pytest.mark.parametrize("text, options, message", [
        ("", {}, "empty file"),
        ("\n , \n", {}, "empty file"),
        ("a,b,label\n", dict(has_header=True), "header but no data rows"),
        ("A\nB\n", {}, "need at least one feature and a label column"),
        ("a,b,label\n1,2,x\n3,4,y\n", dict(has_header=True, label_column="klass"),
         "no column named 'klass'"),
        ("1,2,A\n3,4,B\n", dict(label_column=3), "label column 3 out of range"),
        ("1,2,A\n3,4,B\n", dict(label_column=-4), "label column -4 out of range"),
    ], ids=["empty", "blank-rows", "header-only", "one-column", "unknown-label-name",
            "label-index-above", "label-index-below"])
    def test_file_shape_refused(self, tmp_path, text, options, message):
        path = write_csv(tmp_path, text)
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: "
                                               f"{re.escape(message)}$"):
            load_csv(path, **options)


def load_reference(path, label_idx: int, missing_token: str) -> np.ndarray:
    """Feature matrix of a label-column CSV as a per-cell loop reads and
    mean-imputes it."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    cols = [j for j in range(len(rows[0])) if j != label_idx]
    X = np.full((len(rows), len(cols)), np.nan)
    missing = np.zeros(X.shape, dtype=bool)
    for i, row in enumerate(rows):
        for jj, j in enumerate(cols):
            cell = row[j].strip()
            if cell == missing_token or cell == "":
                missing[i, jj] = True
            else:
                X[i, jj] = float(cell)
    for jj in range(X.shape[1]):
        X[missing[:, jj], jj] = X[~missing[:, jj], jj].mean()
    return X


class TestLoadCsvAgainstPerCellLoop:
    @pytest.mark.parametrize("missing_token", ["?", "-1"])
    def test_features_bit_equal(self, tmp_path, missing_token):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(40, 9)) * 10.0 ** rng.integers(-8, 8, size=(40, 9))
        lines = []
        for i, row in enumerate(values.tolist()):
            cells = [f" {v!r} " if (i + j) % 5 == 0 else f"{v:.17g}" for j, v in enumerate(row)]
            for j in rng.choice(9, size=i % 3, replace=False):  # 0-2 missing cells
                cells[j] = [missing_token, "", f"  {missing_token} "][j % 3]
            cells.insert(4, "ab"[i % 2])
            lines.append(",".join(cells))
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        d = load_csv(path, label_column=4, missing_token=missing_token)
        reference = load_reference(path, 4, missing_token)
        assert d.features.tobytes() == reference.tobytes()

    def test_non_numeric_cell_beside_a_missing_one_names_its_column(self, tmp_path):
        path = write_csv(tmp_path, "A,1,2\nB,?,x\n")
        with pytest.raises(DatasetError,
                           match=r"data\.csv: non-numeric cell 'x' at row 1, column 2$"):
            load_csv(path, label_column=0)


class TestNormalize:
    def test_plain_column(self):
        d = Dataset.from_arrays("t", [[2], [4], [6]], [0, 1, 0])
        out = min_max_normalize(d)
        assert out.features[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_becomes_zero(self):
        d = Dataset.from_arrays("t", [[5], [5], [5]], [0, 1, 0])
        out = min_max_normalize(d)
        assert out.features[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_negative_span(self):
        d = Dataset.from_arrays("t", [[-1], [0], [3]], [0, 1, 0])
        out = min_max_normalize(d)
        assert out.features[:, 0].tolist() == [0.0, 0.25, 1.0]

    def test_idempotent_and_preserves_shape_labels(self):
        d = synthetic_dataset(n_instances=30, n_features=6, seed=5)
        once = min_max_normalize(d)
        twice = min_max_normalize(once)
        np.testing.assert_array_equal(once.features, twice.features)
        assert once.labels.tolist() == d.labels.tolist()
        assert (once.n_instances, once.n_features) == (d.n_instances, d.n_features)

    def test_range_is_unit_interval(self):
        rng = np.random.default_rng(2)
        d = Dataset.from_arrays("t", rng.normal(size=(20, 5)) * 40 - 3,
                                rng.integers(0, 2, size=20))
        out = min_max_normalize(d)
        assert out.features.min() >= 0.0
        assert out.features.max() <= 1.0

    def test_range_overflowing_float64_is_refused(self):
        # every cell is finite, but 1e308 - (-1e308) is not; warnings are errors
        X = np.array([[0.0, -1e308], [1.0, 1e308], [2.0, 0.0], [3.0, 5.0]])
        d = Dataset.from_arrays("wide", X, [0, 1, 0, 1])
        with pytest.raises(DatasetError,
                           match="^wide: feature column 1 has a range too wide for float64"):
            min_max_normalize(d)

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_is_named_not_blamed_on_the_range(self, cell):
        # Dataset itself checks nothing; from_arrays would refuse the cell
        X = np.arange(12.0).reshape(4, 3)
        X[2, 1] = X[3, 2] = cell
        with pytest.raises(DatasetError, match="^t: feature column 1 holds a non-finite value$"):
            min_max_normalize(Dataset("t", X, np.array([0, 1, 0, 1])))

    def test_widest_finite_range_scales_to_unit_interval(self):
        top = np.finfo(np.float64).max
        d = Dataset.from_arrays("t", [[-top / 2], [0.0], [top / 2]], [0, 1, 0])
        assert min_max_normalize(d).features[:, 0].tolist() == [0.0, 0.5, 1.0]


class TestStratifiedFolds:
    def test_returns_a_read_only_int64_fold_array(self):
        d = synthetic_dataset(n_instances=30, n_features=4, seed=8)
        fold_of = stratified_folds(d, 4, seed=1)
        assert type(fold_of) is np.ndarray
        assert fold_of.dtype == np.int64 and fold_of.shape == (30,)
        assert not fold_of.flags.writeable
        assert sorted(set(fold_of.tolist())) == [0, 1, 2, 3]

    def test_perfect_stratification(self):
        d = Dataset.from_arrays("t", np.arange(10.0)[:, None],
                                [0, 1] * 5)
        counts = fold_class_counts(d, stratified_folds(d, 5, seed=1), 5)
        assert (counts == 1).all()

    def test_deterministic(self):
        d = synthetic_dataset(n_instances=50, n_features=4, seed=8)
        a = stratified_folds(d, 7, seed=42)
        b = stratified_folds(d, 7, seed=42)
        assert a.tolist() == b.tolist()

    def test_seed_changes_assignment(self):
        d = synthetic_dataset(n_instances=50, n_features=4, seed=8)
        a = stratified_folds(d, 5, seed=1)
        b = stratified_folds(d, 5, seed=2)
        assert a.tolist() != b.tolist()

    def test_ionosphere_shaped_split(self):
        # 225/126 class split over 10 folds -> per-fold counts 22/23 and 12/13
        labels = [0] * 225 + [1] * 126
        d = Dataset.from_arrays("t", np.arange(351.0)[:, None], labels)
        counts = fold_class_counts(d, stratified_folds(d, 10, seed=0), 10)
        assert set(counts[:, 0].tolist()) <= {22, 23}
        assert set(counts[:, 1].tolist()) <= {12, 13}

    def test_small_class_spread_round_robin(self):
        labels = [0] * 12 + [1] * 3
        d = Dataset.from_arrays("t", np.arange(15.0)[:, None], labels)
        counts = fold_class_counts(d, stratified_folds(d, 5, seed=3), 5)
        # the 3-member class covers exactly 3 folds, one member each
        assert sorted(counts[:, 1].tolist()) == [0, 0, 1, 1, 1]

    def test_too_many_folds_error(self):
        d = Dataset.from_arrays("t", np.arange(4.0)[:, None], [0, 1, 0, 1])
        with pytest.raises(DatasetError):
            stratified_folds(d, 5, seed=0)
        with pytest.raises(DatasetError):
            stratified_folds(d, 1, seed=0)

    def test_fold_count_must_be_an_integer(self):
        d = synthetic_dataset(n_instances=40, n_features=4, seed=8)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            stratified_folds(d, 2.5, 0)
        assert stratified_folds(d, np.int64(4), 0).tolist() == stratified_folds(d, 4, 0).tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 5))
    def test_partition_and_balance_invariants(self, seed, k, class_count):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 60))
        labels = np.concatenate([np.arange(class_count),
                                 rng.integers(0, class_count, size=n)])
        d = Dataset.from_arrays("t", np.arange(len(labels), dtype=float)[:, None],
                                labels)
        fold_of = stratified_folds(d, k, seed=seed)
        assert fold_of.min() >= 0 and fold_of.max() < k
        counts = fold_class_counts(d, fold_of, k)
        # stratified: per-class fold counts differ by at most 1
        assert (counts.max(axis=0) - counts.min(axis=0)).max() <= 1
        # fold sizes differ by at most class_count overall
        sizes = counts.sum(axis=1)
        assert sizes.max() - sizes.min() <= d.class_count


def test_dataset_fields_are_the_arrays_and_counts_derive_from_them():
    d = Dataset.from_arrays("t", np.zeros((5, 3)), ["b", "a", "c", "a", "b"])
    assert [f.name for f in dataclasses.fields(Dataset)] == ["name", "features", "labels"]
    assert (d.n_instances, d.n_features, d.class_count) == (5, 3, 3)
    assert type(d.n_features) is int and type(d.class_count) is int


@pytest.mark.parametrize("labels", [[0.0, np.nan, 1.0, np.nan, 0.0],
                                    np.array([0.0, np.nan, 1.0, np.nan, 0.0])])
def test_nan_label_is_refused(labels):
    # NaN equals nothing, so it would densify to a class of its own per instance
    with pytest.raises(DatasetError, match="^label 1 is NaN$"):
        Dataset.from_arrays("t", np.arange(5.0)[:, None], labels)


def test_from_arrays_validations():
    for features in ([1.0, 2.0], np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((2, 2, 1))):
        with pytest.raises(DatasetError, match="^features must be a non-empty 2-d matrix$"):
            Dataset.from_arrays("t", features, [0, 1])
    with pytest.raises(DatasetError):
        Dataset.from_arrays("t", [[1.0, np.nan]], [0])
    with pytest.raises(DatasetError):
        Dataset.from_arrays("t", [[1.0], [2.0]], [0, 0])
    with pytest.raises(DatasetError):
        Dataset.from_arrays("t", [[1.0], [2.0]], [0])
