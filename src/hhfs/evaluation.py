"""Wrapper fitness: 1-nearest-neighbor accuracy under repeated stratified CV.

The supervisor judges a mask by how well a 1NN classifier does when it
only sees the selected features. The distances are squared Euclidean over
the selected columns (same argmin as Euclidean, cheaper), as the kernel's
``nearest`` (``_climb.c``) defines them: each pair's column terms added in
ascending column order, which is bit-identical to ``pdist`` and ``cdist``
"sqeuclidean" (the tests check it). 1NN ties go to the lowest training-row
index so evaluation is fully deterministic. The empty mask scores 0.0
without running the classifier.

Repeating the k-fold split ``repeats`` times with seeds base_seed,
base_seed+1, ... and averaging (added in order) gives the "r x k fold CV"
protocols used in reports; searches typically run with repeats=1 for speed.

A computation finds each row's neighbour with ``_climb.nearest``: a
float32 screen of every pair's distance over the mask's columns keeps, per
row, the other-fold columns a proven bound leaves in reach of the nearest,
and the exact float64 sums, in that order, pick among those, ties to the
lowest index. So the neighbours are the argmins of the exact distance
matrix with each row's same-fold cells (its own among them) set to inf,
which the tests check, and most rows need no float64 sum at all. The
screen reads a float32 copy of the mask's columns, which the kernel
makes from each column's least value and range: each column less its
least value, times one power of two that takes the widest range to at
most 1, so no float32 distance overflows. A batch of masks is one kernel
call, which computes them on as many threads as its work has n x w
float32 matrices (w is n rounded up to the kernel's 16 lanes) at most,
each thread taking the next mask: the caller and the kernel's helper
threads, which live for the process, each on a CPU of its own where the
caller may use more than one. A lone run computes a generation's new
masks so, one thread per usable core.

An evaluator refuses a dataset with a non-finite feature cell, naming its
column, and one whose float64 distances could overflow, its column ranges'
squares summing above ``_DISTANCE_MAX``: some mask's distances could then
be inf, and all inf distances tie, whichever row is nearer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .correlation import _climb
from .dataset import Dataset, DatasetError, require_finite, stratified_folds
from .mask import FeatureMask


def require_ints(*values) -> None:
    """Refuse any count or seed in ``values`` that is no int, here, not in a
    run: a float, or a bool, which ``operator.index`` takes as 0 or 1."""
    for value in values:
        if isinstance(value, bool):
            raise TypeError(f"a count or seed must be an int, not {value!r}")
        operator.index(value)


@dataclass(frozen=True)
class CvProtocol:
    """Cross-validation protocol: k folds, repeated ``repeats`` times."""

    folds: int = 10
    repeats: int = 1
    base_seed: int = 0

    def __post_init__(self):
        require_ints(self.folds, self.repeats, self.base_seed)
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.repeats < 1:
            raise ValueError("need at least 1 repeat")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")

    def label(self) -> str:
        return f"{self.repeats}x{self.folds}"


# the most the column ranges' squares may sum to: the sum bounds every
# mask's squared distances, and below this float64 rounding keeps them finite
_DISTANCE_MAX = np.finfo(np.float64).max / 2


def _check_width(d: Dataset, n: int) -> None:
    if n != d.n_features:
        raise ValueError(f"mask over {n} features does not match dataset with {d.n_features}")


def cv_accuracy(d: Dataset, mask: FeatureMask, proto: CvProtocol) -> float:
    """Mean 1NN accuracy over ``proto.repeats`` stratified k-fold splits.

    Deterministic for fixed inputs: repeat r uses fold seed
    ``base_seed + r``. Equals the mean of the single-repeat values for
    those seeds, added in order, bitwise. An empty mask returns 0.0.
    """
    return cv_accuracies(d, mask, {"": proto})[""]


def cv_accuracies(d: Dataset, mask: FeatureMask,
                  protocols: dict[str, CvProtocol]) -> dict[str, float]:
    """``cv_accuracy`` of ``mask`` under each labelled protocol, bitwise.
    Protocols of equal folds and base seed share folds, so each such group
    is scored once, at its largest repeats; r repeats add the first r in order."""
    _check_width(d, mask.n)
    if not mask.bits.any():
        return dict.fromkeys(protocols, 0.0)
    sums: dict[tuple[int, int], np.ndarray] = {}  # per group, the running sums
    for p in sorted(protocols.values(), key=lambda p: -p.repeats):  # largest first
        if (p.folds, p.base_seed) not in sums:
            hits = FitnessEvaluator(d, p)._hits(mask.bits[np.newaxis], 1)[0]
            sums[p.folds, p.base_seed] = np.cumsum(hits / d.n_instances)
    return {label: float(sums[p.folds, p.base_seed][p.repeats - 1] / p.repeats)
            for label, p in protocols.items()}


class FitnessEvaluator:
    """Memoizing fitness oracle for a fixed dataset and protocol.

    The protocol's folds are built once, here; every computation then
    equals ``cv_accuracy`` bitwise. The cache key is the raw bit pattern,
    so a hit returns the stored accuracy with zero classification work.
    ``computations`` counts actual CV evaluations and ``hits`` counts
    cache returns. The kernel reads ``features.T``, contiguous, gathers
    each mask's columns from it and makes their float32 copy itself.
    """

    def __init__(self, dataset: Dataset, protocol: CvProtocol):
        self.dataset = dataset
        require_finite(dataset)
        self._low = dataset.features.min(axis=0)
        with np.errstate(over="ignore"):  # the overflow this looks for
            self._span = dataset.features.max(axis=0) - self._low
            reach = np.square(self._span).sum()
        if not reach <= _DISTANCE_MAX:  # inf distances, which all tie
            raise DatasetError(f"{dataset.name}: the feature ranges are too wide for finite "
                               "1NN distances; normalize the features first")
        # per repeat r (fold seed base_seed + r), each row's fold
        n = dataset.n_instances
        self._folds = np.empty((protocol.repeats, n), dtype=np.int32)
        for r in range(protocol.repeats):
            fold_of = stratified_folds(dataset, protocol.folds, protocol.base_seed + r)
            if (fold_of == fold_of[0]).all():  # no instance would have a training row
                raise DatasetError(
                    f"{dataset.name}: {protocol.label()} CV puts all {n} instances in "
                    "one fold (every class has one member), leaving no training rows")
            self._folds[r] = fold_of
        self._columns = np.ascontiguousarray(dataset.features.T)
        width = -(-n // _climb.SCREEN_LANES) * _climb.SCREEN_LANES
        self._work = np.empty((0, n, width), dtype=np.float32)  # grown to the threads asked for
        self._cache: dict[bytes, float] = {}
        self.computations = 0
        self.hits = 0

    def _hits(self, bits: np.ndarray, threads: int) -> np.ndarray:
        """Per row of ``bits``, a (rows, n_features) bool matrix of
        non-empty masks, and per repeat, the count of rows whose 1NN in the
        other folds, over the mask's columns, has their label: a (rows,
        repeats) array, from one kernel call on ``threads`` threads."""
        n = self.dataset.n_instances
        if len(self._work) < threads:
            self._work = np.empty((threads, *self._work.shape[1:]), dtype=np.float32)
        nearest = np.empty((len(bits), len(self._folds), n), dtype=np.int64)
        _climb.nearest(self._columns, self._low, self._span, self._folds, bits,
                       self._work[:threads], nearest)
        labels = self.dataset.labels
        return np.count_nonzero(labels[nearest] == labels, axis=2)

    def fitness(self, mask: FeatureMask) -> float:
        """The memoized CV accuracy of ``mask``: ``fitnesses`` of its bits
        as one row."""
        return float(self.fitnesses(mask.bits[np.newaxis])[0])

    def fitnesses(self, bits: np.ndarray, threads: int = 1) -> np.ndarray:
        """The memoized CV accuracy of each mask in ``bits``, a (rows,
        n_features) bool matrix of one mask per row, as a float64 array;
        any other input is refused before the memo is read. The memo is
        keyed by a row's bytes (``FeatureMask.key``): a row seen before, in
        this call too, is a hit. The distinct others are computed first, in
        one kernel call on ``threads`` threads, and only then stored and
        counted, in first-occurrence order; so a computation that raises
        leaves the memo and the counters as they were. The work matrices
        and the memo are the evaluator's: one call at a time per evaluator."""
        if not (isinstance(bits, np.ndarray) and bits.dtype == np.bool_ and bits.ndim == 2):
            raise ValueError("fitnesses needs a 2-d bool bits matrix, one mask per row")
        _check_width(self.dataset, bits.shape[1])
        keys = [row.tobytes() for row in bits]
        todo = list(dict.fromkeys(key for key in keys if key not in self._cache))
        new = np.frombuffer(b"".join(todo), dtype=np.bool_).reshape(len(todo), bits.shape[1])
        values = np.zeros(len(todo))  # the empty mask's 0.0
        chosen = new.any(axis=1)
        if chosen.any():  # a generation of memo hits calls no kernel
            hits = self._hits(new[chosen], threads)
            # each repeat's accuracy added in order
            sums = np.cumsum(hits / self.dataset.n_instances, axis=1)[:, -1]
            values[chosen] = sums / len(self._folds)
        self._cache.update(zip(todo, values.tolist()))
        self.computations += len(todo)
        self.hits += len(keys) - len(todo)
        return np.array([self._cache[key] for key in keys], dtype=np.float64)
