"""Wrapper fitness: 1-nearest-neighbor accuracy under repeated stratified CV.

The supervisor judges a mask by how well a 1NN classifier does when it
only sees the selected features. Distances are squared Euclidean over the
selected columns (same argmin as Euclidean, cheaper), computed once per
unordered pair of instances with ``pdist``, whose per-pair kernel is the
one ``cdist`` runs, so the matrix is bit-identical to ``cdist(Xs, Xs)`` at
half the cost. 1NN ties go to the lowest training-row index so evaluation
is fully deterministic. The empty mask scores 0.0 without running the
classifier.

Repeating the k-fold split ``repeats`` times with seeds base_seed,
base_seed+1, ... and averaging gives the "r x k fold CV" protocols used
for reporting; searches typically run with repeats=1 for speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .dataset import Dataset, stratified_folds
from .mask import FeatureMask


@dataclass(frozen=True)
class CvProtocol:
    """Cross-validation protocol: k folds, repeated ``repeats`` times."""

    folds: int = 10
    repeats: int = 1
    base_seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.repeats < 1:
            raise ValueError("need at least 1 repeat")

    def label(self) -> str:
        return f"{self.repeats}x{self.folds}"


def predict_1nn(train_features: np.ndarray, train_labels: np.ndarray,
                query: np.ndarray, mask: FeatureMask) -> int:
    """Label of the training instance closest to ``query`` on the selected
    features; ties break toward the smallest training-row index."""
    if train_features.shape[0] == 0:
        raise ValueError("empty training set")
    idx = mask.selected_indices()
    if idx.size == 0:
        raise ValueError("mask selects no features")
    diffs = train_features[:, idx] - np.asarray(query, dtype=np.float64)[idx]
    dists = np.einsum("ij,ij->i", diffs, diffs)
    return int(train_labels[int(np.argmin(dists))])


Splits = list[list[tuple[np.ndarray, np.ndarray]]]


def _protocol_splits(d: Dataset, proto: CvProtocol) -> Splits:
    """Per repeat, the ``(test, train)`` index pairs of its non-empty
    folds; repeat r uses fold seed ``base_seed + r``."""
    splits = []
    for r in range(proto.repeats):
        fa = stratified_folds(d, proto.folds, proto.base_seed + r)
        folds = []
        for fold in range(proto.folds):
            test = fa.test_indices(fold)
            if test.size:
                folds.append((test, fa.train_indices(fold)))
        splits.append(folds)
    return splits


def _selected_columns(d: Dataset, mask: FeatureMask) -> np.ndarray:
    if mask.n != d.n_features:
        raise ValueError(
            f"mask over {mask.n} features does not match dataset with {d.n_features}")
    return mask.selected_indices()


def _split_accuracy(d: Dataset, idx: np.ndarray, splits: Splits) -> float:
    """Mean over repeats of the 1NN accuracy over that repeat's folds,
    seeing only the (non-empty) columns ``idx``."""
    dists = squareform(pdist(d.features[:, idx], "sqeuclidean"))
    accs = []
    for folds in splits:
        correct = 0
        for test, train in folds:
            nn = np.argmin(dists[test[:, None], train], axis=1)
            correct += int(np.sum(d.labels[train[nn]] == d.labels[test]))
        accs.append(correct / d.n_instances)
    return sum(accs) / len(accs)


def cv_accuracy(d: Dataset, mask: FeatureMask, proto: CvProtocol) -> float:
    """Mean 1NN accuracy over ``proto.repeats`` stratified k-fold splits.

    Deterministic for fixed inputs: repeat r uses fold seed
    ``base_seed + r``. Equals the mean of the single-repeat values for
    those seeds, bitwise. An empty mask returns 0.0.
    """
    idx = _selected_columns(d, mask)
    if idx.size == 0:
        return 0.0
    return _split_accuracy(d, idx, _protocol_splits(d, proto))


class FitnessEvaluator:
    """Memoizing fitness oracle for a fixed dataset and protocol.

    The protocol's folds are built once, here; every computation then
    equals ``cv_accuracy`` bitwise. The cache key is the raw bit pattern,
    so a hit returns the stored accuracy with zero classification work.
    ``computations`` counts actual CV evaluations and ``hits`` counts
    cache returns.
    """

    def __init__(self, dataset: Dataset, protocol: CvProtocol):
        self.dataset = dataset
        self.protocol = protocol
        self._splits = _protocol_splits(dataset, protocol)
        self._cache: dict[bytes, float] = {}
        self.computations = 0
        self.hits = 0

    def compute(self, mask: FeatureMask) -> float:
        """One CV evaluation of ``mask``, bypassing the memo."""
        idx = _selected_columns(self.dataset, mask)
        return _split_accuracy(self.dataset, idx, self._splits) if idx.size else 0.0

    def fitnesses(self, masks: list[FeatureMask], mapper=map) -> list[float]:
        """The fitness of each mask, in order, with the counters moved as
        consecutive ``fitness`` calls would move them: each distinct mask
        not yet memoized is computed once, through
        ``mapper(self.compute, masks)``, and every other lookup is a hit."""
        keys = [mask.key() for mask in masks]
        todo: dict[bytes, FeatureMask] = {}
        for key, mask in zip(keys, masks):
            if key not in self._cache:
                todo.setdefault(key, mask)
        values = list(mapper(self.compute, todo.values()))
        self._cache.update(zip(todo, values))
        self.computations += len(todo)
        self.hits += len(keys) - len(todo)
        return [self._cache[key] for key in keys]

    def fitness(self, mask: FeatureMask) -> float:
        return self.fitnesses([mask])[0]

    def __call__(self, mask: FeatureMask) -> float:
        return self.fitness(mask)
