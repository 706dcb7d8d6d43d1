"""Wrapper fitness: 1-nearest-neighbor accuracy under repeated stratified CV.

The supervisor judges a mask by how well a 1NN classifier does when it
only sees the selected features. The reference distances are squared
Euclidean over the selected columns (same argmin as Euclidean, cheaper) as
the kernel's ``sqdist`` (``_climb.c``) computes them: each pair's column
terms added in ascending column order, which is bit-identical to
``pdist`` and ``cdist`` "sqeuclidean" (the tests check it). 1NN ties go
to the lowest training-row index so evaluation is fully deterministic. The
empty mask scores 0.0 without running the classifier.

Repeating the k-fold split ``repeats`` times with seeds base_seed,
base_seed+1, ... and averaging gives the "r x k fold CV" protocols used
for reporting; searches typically run with repeats=1 for speed.

Every computation fills an n x n matrix with sqdist over the mask's
columns, then per repeat sets each row's same-fold cells (its own among
them) to inf and takes the row argmins, which is the lowest index among
ties. Each thread that computes has a work matrix of its own, made on its
first computation, and ``sqdist`` runs without the GIL, so a generation's
masks can be computed on helper threads (``cores.Helpers``) beside the
calling thread.

An evaluator refuses a dataset whose distances could overflow, its column
ranges' squares summing above ``_DISTANCE_MAX``: some mask's distances
could then be inf, and a row whose distances are all inf would take row 0
as its neighbour, in its own fold or not.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import cores
from .correlation import _climb
from .dataset import Dataset, DatasetError, stratified_folds
from .mask import FeatureMask


@dataclass(frozen=True)
class CvProtocol:
    """Cross-validation protocol: k folds, repeated ``repeats`` times."""

    folds: int = 10
    repeats: int = 1
    base_seed: int = 0

    def __post_init__(self):
        for value in (self.folds, self.repeats, self.base_seed):
            operator.index(value)  # a float is refused here, not in the fitness
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.repeats < 1:
            raise ValueError("need at least 1 repeat")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")

    def label(self) -> str:
        return f"{self.repeats}x{self.folds}"


# the most the column ranges' squares may sum to: the sum bounds every
# mask's squared distances, and below this sqdist's rounding keeps them finite
_DISTANCE_MAX = np.finfo(np.float64).max / 2


def _selected_columns(d: Dataset, mask: FeatureMask) -> np.ndarray:
    if mask.n != d.n_features:
        raise ValueError(
            f"mask over {mask.n} features does not match dataset with {d.n_features}")
    return mask.selected_indices()


def cv_accuracy(d: Dataset, mask: FeatureMask, proto: CvProtocol) -> float:
    """Mean 1NN accuracy over ``proto.repeats`` stratified k-fold splits.

    Deterministic for fixed inputs: repeat r uses fold seed
    ``base_seed + r``. Equals the mean of the single-repeat values for
    those seeds, bitwise. An empty mask returns 0.0.
    """
    return cv_accuracies(d, mask, {"": proto})[""]


def cv_accuracies(d: Dataset, mask: FeatureMask,
                  protocols: dict[str, CvProtocol]) -> dict[str, float]:
    """``cv_accuracy`` of ``mask`` under each labelled protocol, bitwise.
    Protocols of equal folds and base seed share folds, so each such group
    is scored once, at its largest repeats; r repeats read the first r."""
    idx = _selected_columns(d, mask)
    if idx.size == 0:
        return dict.fromkeys(protocols, 0.0)
    accs: dict[tuple[int, int], list[float]] = {}
    for p in sorted(protocols.values(), key=lambda p: -p.repeats):  # largest first
        if (p.folds, p.base_seed) not in accs:
            accs[p.folds, p.base_seed] = FitnessEvaluator(d, p)._accuracies(idx)
    return {label: sum(accs[p.folds, p.base_seed][:p.repeats]) / p.repeats
            for label, p in protocols.items()}


class FitnessEvaluator:
    """Memoizing fitness oracle for a fixed dataset and protocol.

    The protocol's folds are built once, here; every computation then
    equals ``cv_accuracy`` bitwise. The cache key is the raw bit pattern,
    so a hit returns the stored accuracy with zero classification work.
    ``computations`` counts actual CV evaluations and ``hits`` counts
    cache returns. Every computation reuses its thread's n x n work matrix
    for the distances, and ``features.T`` is kept contiguous, so a mask's
    columns are one gather.
    """

    def __init__(self, dataset: Dataset, protocol: CvProtocol):
        self.dataset = dataset
        with np.errstate(over="ignore"):  # the overflow this looks for
            reach = np.square(np.ptp(dataset.features, axis=0)).sum()
        if not reach <= _DISTANCE_MAX:  # inf distances, and every argmin would be row 0
            raise DatasetError(f"{dataset.name}: the feature ranges are too wide for finite "
                               "1NN distances; normalize the features first")
        # per repeat r (fold seed base_seed + r), the flat index into an n x n
        # matrix of every same-fold cell, which the argmin must not see
        # (argsort's intp, numpy's index type)
        n = dataset.n_instances
        self._same_fold = []
        for r in range(protocol.repeats):
            fold_of = stratified_folds(dataset, protocol.folds, protocol.base_seed + r)
            if (fold_of == fold_of[0]).all():  # no instance would have a training row
                raise DatasetError(
                    f"{dataset.name}: {protocol.label()} CV puts all {n} instances in "
                    "one fold (every class has one member), leaving no training rows")
            sizes = np.bincount(fold_of, minlength=protocol.folds)
            members = np.split(np.argsort(fold_of, kind="stable"), np.cumsum(sizes)[:-1])
            self._same_fold.append(np.concatenate([(m[:, None] * n + m).ravel()
                                                   for m in members]))
        self._columns = np.ascontiguousarray(dataset.features.T)
        self._local = threading.local()  # .work: this thread's n x n work matrix
        self._cache: dict[bytes, float] = {}
        self._computed: dict[bytes, float] = {}  # what fitnesses computed and fitness stores
        self.computations = 0
        self.hits = 0

    def _accuracies(self, idx: np.ndarray) -> list[float]:
        """Per repeat, the 1NN accuracy over that repeat's folds, seeing
        only the (non-empty) columns ``idx``."""
        D = getattr(self._local, "work", None)
        if D is None:
            n = self.dataset.n_instances
            D = self._local.work = np.empty((n, n))
        _climb.sqdist(self._columns[idx], D)
        cells = D.reshape(-1)  # a view: D is C-contiguous
        labels = self.dataset.labels
        accs = []
        last = len(self._same_fold) - 1
        for t, same in enumerate(self._same_fold):
            saved = cells[same] if t < last else None  # the last repeat need not restore D
            cells[same] = np.inf
            nearest = D.argmin(axis=1)
            accs.append(int(np.count_nonzero(labels[nearest] == labels)) / len(labels))
            if saved is not None:
                cells[same] = saved
        return accs

    def _value(self, idx: np.ndarray) -> float:
        """The CV accuracy seeing only the columns ``idx``; 0.0 for none."""
        accs = self._accuracies(idx) if idx.size else [0.0]
        return sum(accs) / len(accs)

    def fitness(self, mask: FeatureMask) -> float:
        """The memoized CV accuracy of ``mask``: a mask seen before is a
        hit; any other is computed (unless ``fitnesses`` just did), stored
        and counted, in that order, so a computation that raises leaves the
        memo and the counters as they were."""
        key = mask.key()
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        value = self._computed.pop(key, None)
        if value is None:
            value = self._value(_selected_columns(self.dataset, mask))
        self._cache[key] = value
        self.computations += 1
        return value

    def fitnesses(self, masks: Sequence[FeatureMask], helpers: cores.Helpers) -> list[float]:
        """``[fitness(m) for m in masks]``, with the distinct masks not
        memoized yet computed first, in first-occurrence order, by this
        thread and ``helpers``' threads pulling from one queue. This thread
        then stores and counts them through ``fitness``, in order, as those
        consecutive calls would; so a computation that raises, in any
        thread, leaves the memo and the counters as they were."""
        todo: dict[bytes, np.ndarray] = {}
        for mask in masks:
            key = mask.key()
            if key not in self._cache and key not in todo:
                todo[key] = _selected_columns(self.dataset, mask)
        self._computed = dict(zip(todo, helpers.map(self._value, list(todo.values()))))
        try:
            return [self.fitness(mask) for mask in masks]
        finally:
            self._computed = {}
