"""Tabular dataset loading, normalization, and stratified CV fold assignment.

Datasets arrive as numeric CSV files (UCI style) with one label column.
Loading densifies labels to 0..class_count-1 in order of first appearance
and mean-imputes missing feature cells, so everything downstream sees a
clean float matrix. Datasets and fold arrays are read-only after
construction and safe to share across concurrent evaluators.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Raised for malformed dataset files or invalid fold requests."""


@dataclass(frozen=True)
class Dataset:
    """Numeric instance matrix plus dense integer class labels.

    ``features`` has shape (n_instances, n_features); ``labels`` holds
    integers 0..class_count-1 with every class occurring at least once.
    """

    name: str
    features: np.ndarray
    labels: np.ndarray

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def class_count(self) -> int:
        return int(self.labels.max()) + 1

    @classmethod
    def from_arrays(cls, name: str, features, labels) -> "Dataset":
        """Build a validated Dataset; labels of any type but NaN are
        densified."""
        X = np.array(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
            raise DatasetError("features must be a non-empty 2-d matrix")
        if not np.isfinite(X).all():
            raise DatasetError("features contain non-finite values")
        raw = list(labels)
        if len(raw) != X.shape[0]:
            raise DatasetError("label count does not match instance count")
        seen: dict = {}
        dense = np.empty(len(raw), dtype=np.int64)
        for i, value in enumerate(raw):
            if value != value:  # NaN, which equals no label, not even itself
                raise DatasetError(f"label {i} is NaN")
            if value not in seen:
                seen[value] = len(seen)
            dense[i] = seen[value]
        if len(seen) < 2:
            raise DatasetError(f"need at least 2 classes, found {len(seen)}")
        X.setflags(write=False)
        dense.setflags(write=False)
        return cls(name=name, features=X, labels=dense)


def load_csv(path, label_column: int | str = -1, has_header: bool = False,
             missing_token: str = "?", name: str | None = None) -> Dataset:
    """Load a numeric CSV into a Dataset.

    ``label_column`` is a column index (negative allowed) or, with a
    header, a column name. Every row, the header included, must have the
    first row's width. Feature cells equal to ``missing_token``, and blank
    feature cells whatever the token, are imputed with the column mean
    over the non-missing cells; any other non-numeric or non-finite
    (``nan``, ``inf``) feature cell is an error. Rows are numbered from the
    first data row. Labels are densified to 0..class_count-1 in order of
    first appearance.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise DatasetError(f"{path}: empty file")
    ncols = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise DatasetError(f"{path}: row {i - has_header} has {len(row)} columns, "
                               f"expected {ncols}{' as in the header' if has_header else ''}")
    header = [c.strip() for c in rows[0]] if has_header else None
    rows = rows[has_header:]
    if not rows:
        raise DatasetError(f"{path}: header but no data rows")
    if ncols < 2:
        raise DatasetError(f"{path}: need at least one feature and a label column")

    if isinstance(label_column, str):
        if header is None:
            raise DatasetError(f"{path}: label column given by name requires has_header=True")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DatasetError(f"{path}: no column named {label_column!r}") from None
    else:
        label_idx = label_column if label_column >= 0 else ncols + label_column
        if not 0 <= label_idx < ncols:
            raise DatasetError(f"{path}: label column {label_column} out of range")

    feature_cols = [j for j in range(ncols) if j != label_idx]
    # float() strips the whitespace that strip() does, so a row without a
    # missing cell converts in one pass; unless the token itself reads as
    # a number, a row with one fails that pass and goes cell by cell
    try:
        float(missing_token)
        token_is_number = True
    except ValueError:
        token_is_number = False
    X = np.empty((len(rows), len(feature_cols)))
    missing = np.zeros(X.shape, dtype=bool)
    labels = []
    for i, row in enumerate(rows):
        label = row[label_idx].strip()
        if not label or label == missing_token:
            raise DatasetError(f"{path}: row {i} has no label")
        labels.append(label)
        cells = row[:label_idx] + row[label_idx + 1:]
        if not token_is_number:
            try:
                X[i] = list(map(float, cells))
                continue
            except ValueError:
                pass
        for jj, cell in enumerate(c.strip() for c in cells):
            if cell == missing_token or cell == "":
                missing[i, jj] = True
                X[i, jj] = np.nan
                continue
            try:
                X[i, jj] = float(cell)
            except ValueError:
                raise DatasetError(f"{path}: non-numeric cell {cell!r} at row {i}, "
                                   f"column {feature_cols[jj]}") from None

    # only missing_token and a blank mark a missing cell: one reading nan or
    # inf is an error
    bad = np.argwhere(~(missing | np.isfinite(X)))
    if bad.size:
        i, j = bad[0][0], feature_cols[bad[0][1]]
        raise DatasetError(f"{path}: non-finite cell {rows[i][j].strip()!r} "
                           f"at row {i}, column {j}")

    # mean-impute missing cells, column by column
    for jj in range(X.shape[1]):
        col, gaps = X[:, jj], missing[:, jj]
        if gaps.any():
            observed = col[~gaps]
            if observed.size == 0:
                raise DatasetError(
                    f"{path}: column {feature_cols[jj]} has no observed values to impute from")
            col[gaps] = observed.mean()

    try:
        return Dataset.from_arrays(name or path.stem, X, labels)
    except DatasetError as exc:  # e.g. a single class
        raise DatasetError(f"{path}: {exc}") from None


def require_finite(d: Dataset) -> None:
    """Refuse a dataset with a NaN or infinite feature cell, naming the first
    column that holds one. ``Dataset.from_arrays`` refuses such cells, but a
    ``Dataset`` built directly is not checked."""
    bad = np.flatnonzero(~np.isfinite(d.features).all(axis=0))
    if bad.size:
        raise DatasetError(f"{d.name}: feature column {bad[0]} holds a non-finite value")


def min_max_normalize(d: Dataset) -> Dataset:
    """Rescale every feature column linearly to [0, 1].

    Constant columns become all-zeros. Labels and shapes are unchanged. A
    column holding a non-finite cell, or whose range (max - min) overflows
    float64, is refused.
    """
    require_finite(d)
    X = d.features
    lo = X.min(axis=0)
    with np.errstate(over="ignore"):  # the overflow this refuses
        span = X.max(axis=0) - lo
    wide = np.flatnonzero(~np.isfinite(span))
    if wide.size:
        raise DatasetError(f"{d.name}: feature column {wide[0]} has a range too wide "
                           "for float64 to hold")
    scaled = (X - lo) / np.where(span == 0, 1.0, span)  # X - lo <= span: finite
    scaled[:, span == 0] = 0.0
    return Dataset.from_arrays(d.name, scaled, d.labels)


def stratified_folds(d: Dataset, k: int, seed: int) -> np.ndarray:
    """Assign instances to k folds, stratified by class, deterministically:
    the read-only int64 array whose entry i is instance i's fold.

    Members of each class are shuffled with the seeded RNG and dealt
    round-robin over the folds, so per-class fold counts differ by at
    most one. Classes with fewer than k members simply cover fewer folds.
    """
    k = operator.index(k)
    if k < 2:
        raise DatasetError(f"need at least 2 folds, got {k}")
    if k > d.n_instances:
        raise DatasetError(f"cannot split {d.n_instances} instances into {k} folds")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(d.n_instances, dtype=np.int64)
    for c in range(d.class_count):
        members = np.flatnonzero(d.labels == c)
        members = rng.permutation(members)
        fold_of[members] = np.arange(members.size) % k
    fold_of.setflags(write=False)
    return fold_of
