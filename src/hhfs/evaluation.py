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

Gram screen. Row i's neighbour is the argmin over the rows j outside its
fold of ``p_ij``, sqdist's computed value of ``d_ij = |x_i - x_j|^2``. As
``d_ij = s_i + e_ij`` with ``s_i = |x_i|^2`` and ``e_ij = s_j - 2 x_i.x_j``,
and ``s_i`` is constant along row i, the screen takes the argmin of ``e``
instead, from one matrix product over k + 1 columns:
``[x_i, 1] . [-2 x_j, s^_j]``, where ``s^_j`` is the computed ``s_j``. Its
columns keep their original order, same-fold entries are set to inf, and
the row minimum ``m`` and runner-up ``m2`` are read off.

Error bound. In the standard model ``fl(a op b) = (a op b)(1 + d) + h``
with ``|d| <= u = 2^-53`` and a subnormal term ``|h| <= 2^-1075`` for
products, ``gamma_m = m u / (1 - m u)``, ``r_i = |x_i|`` and
``R_i = r_i + max_j r_j``:

* sqdist sums k non-negative terms ``fl(fl(x_il - x_jl)^2)`` in ascending
  l (any order would do here), each within ``(1 + d)^3`` of its exact value, so
  ``|p_ij - d_ij| <= gamma_{k+2} d_ij + k 2^-1074 <= gamma_{k+2} R_i^2 + k 2^-1074``.
* a dot product of length m, in any order and with or without fused
  multiply-adds, is within ``gamma_m`` times the sum of the absolute
  products; so ``|s^_j - s_j| <= gamma_k s_j`` and the product's entry
  ``E_ij`` is within ``gamma_{k+1} (2 r_i r_j + s^_j)`` of
  ``s^_j - 2 x_i.x_j`` (plus ``(k + 1) 2^-1075`` each). Together
  ``|E_ij - e_ij| <= 2 gamma_{k+2} R_i^2 + (k + 1) 2^-1074``.

Hence ``p_ij = s_i + E_ij + t_ij`` with
``|t_ij| <= b_i = 3 gamma_{k+2} R_i^2 + (2k + 1) 2^-1074``. If
``m2 - m > 2 b_i``, every other column j has
``p_ij >= s_i + m2 - b_i > s_i + m + b_i >= p_ia`` at the screen's argmin
a: the screen found sqdist's unique argmin. The screen tests
``fl(m2 - m) > 8 (k + 2) (u R^_i^2 + 2^-1074)``, ``R^_i`` from the
computed norms. For any k < 2^40, ``gamma_{k+2} <= 1.01 (k + 2) u``, so
``2 b_i <= 6.1 (k + 2) u R_i^2 + (4k + 2) 2^-1074``, and the rest of the
constant 8 covers the roundings of ``R^_i`` (relative ``gamma_k + 3u``),
of the test's own arithmetic and of ``m2 - m``. A row that fails the test
is ambiguous, whether from an exact tie (duplicate rows, integer levels),
a near tie, or cancellation in ``s_j - 2 x_i.x_j`` when the columns carry
a large common offset; the screen needs ``16 max_j s^_j`` finite and is
skipped otherwise. Every ambiguous row is recomputed exactly, by sqdist
over those rows alone, and takes the masked argmin there, which also keeps
the lowest-index tie-breaking. So every row's neighbour is the exact
distances', whatever the data whose distances are finite; an evaluator
refuses a dataset where some could overflow, its column ranges' squares
summing above ``_DISTANCE_MAX``.

When a screen's first repeat leaves more than a quarter of the rows
ambiguous (tie-heavy data such as ordinal cells), the evaluator stops
screening and takes the exact path, sqdist over every row and the masked
argmin, for this mask and the rest of its life: resolving that many rows,
more again over further repeats, costs at least half an exact pass on top
of the product, so the screen no longer pays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.repeats < 1:
            raise ValueError("need at least 1 repeat")

    def label(self) -> str:
        return f"{self.repeats}x{self.folds}"


_U = np.finfo(np.float64).eps / 2  # unit roundoff, 2^-53
_ETA = np.finfo(np.float64).smallest_subnormal  # 2^-1074
_SCREEN_MAX = np.finfo(np.float64).max / 16
# the most the column ranges' squares may sum to: the sum bounds every
# mask's squared distances, and below this sqdist's rounding keeps them finite
_DISTANCE_MAX = np.finfo(np.float64).max / 2


def _protocol_folds(d: Dataset, proto: CvProtocol) -> list[np.ndarray]:
    """Per repeat, each instance's fold (``FoldAssignment.fold_of``);
    repeat r uses fold seed ``base_seed + r``. Rejects a split that leaves
    some instance no training row."""
    folds = []
    for r in range(proto.repeats):
        fold_of = stratified_folds(d, proto.folds, proto.base_seed + r).fold_of
        if (fold_of == fold_of[0]).all():
            raise DatasetError(
                f"{d.name}: {proto.label()} CV puts all {d.n_instances} instances "
                f"in one fold (every class has one member), leaving no training rows")
        folds.append(fold_of)
    return folds


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
    cache returns. Every computation reuses one n x n work matrix for the
    screen and the exact distances, and ``features.T`` is kept contiguous,
    so a mask's columns are one gather. ``_screening`` turns false for
    good once a screen leaves too many rows ambiguous.
    """

    def __init__(self, dataset: Dataset, protocol: CvProtocol):
        self.dataset = dataset
        self.protocol = protocol
        with np.errstate(over="ignore"):  # the overflow this looks for
            reach = np.square(np.ptp(dataset.features, axis=0)).sum()
        if not reach <= _DISTANCE_MAX:  # inf distances, and every argmin would be row 0
            raise DatasetError(f"{dataset.name}: the feature ranges are too wide for finite "
                               "1NN distances; normalize the features first")
        self._folds = _protocol_folds(dataset, protocol)
        # per repeat, the flat index into an n x n matrix of every same-fold
        # cell, which the argmin must not see (argsort's intp, numpy's index type)
        n = dataset.n_instances
        self._same_fold = []
        for fold_of in self._folds:
            sizes = np.bincount(fold_of, minlength=protocol.folds)
            members = np.split(np.argsort(fold_of, kind="stable"), np.cumsum(sizes)[:-1])
            self._same_fold.append(np.concatenate([(m[:, None] * n + m).ravel()
                                                   for m in members]))
        self._columns = np.ascontiguousarray(dataset.features.T)
        self._rows = np.arange(n, dtype=np.int64)
        self._work = np.empty((n, n))
        self._screening = True
        self._cache: dict[bytes, float] = {}
        self.computations = 0
        self.hits = 0

    def compute(self, mask: FeatureMask) -> float:
        """One CV evaluation of ``mask``, bypassing the memo."""
        idx = _selected_columns(self.dataset, mask)
        accs = self._accuracies(idx) if idx.size else [0.0]
        return sum(accs) / len(accs)

    def _screen(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The screen matrix ``E`` and each row's ambiguity threshold (see
        the module docstring), or None where ``16 max s_j`` overflows."""
        n, k = Xs.shape
        sq = np.einsum("ij,ij->i", Xs, Xs)
        if not sq.max() <= _SCREEN_MAX:
            return None
        E = np.matmul(np.hstack([Xs, np.ones((n, 1))]),
                      np.hstack([-2.0 * Xs, sq[:, None]]).T, out=self._work)
        r = np.sqrt(sq)
        return E, 8.0 * (k + 2) * (_U * (r + r.max()) ** 2 + _ETA)

    def _nearest(self, D: np.ndarray, bound: np.ndarray | None):
        """Per repeat, each row's argmin over the columns of ``D`` outside
        its fold, lowest index first; the last repeat leaves ``D``
        overwritten. With a screen's ``bound``, also per repeat the rows it
        leaves ambiguous, or None when they are more than a quarter of the
        rows in the first repeat."""
        n = len(D)
        rows = np.arange(n)
        cells = D.reshape(-1)  # a view: D is C-contiguous
        nearest, unsure = [], []
        last = len(self._same_fold) - 1
        for t, same in enumerate(self._same_fold):
            saved = cells[same] if t < last else None
            cells[same] = np.inf
            nn = D.argmin(axis=1)
            nearest.append(nn)
            if bound is not None:
                m = D[rows, nn]
                D[rows, nn] = np.inf
                redo = np.flatnonzero(~(D.min(axis=1) - m > bound))
                D[rows, nn] = m
                if t == 0 and 4 * redo.size > n:
                    return nearest, None
                unsure.append(redo)
            if saved is not None:
                cells[same] = saved
        return nearest, unsure

    def _accuracies(self, idx: np.ndarray) -> list[float]:
        """Per repeat, the 1NN accuracy over that repeat's folds, seeing
        only the (non-empty) columns ``idx``."""
        d = self.dataset
        screen = self._screen(d.features[:, idx]) if self._screening else None
        unsure = None
        if screen is not None:
            nearest, unsure = self._nearest(*screen)
            if unsure is None:  # tie-heavy data: the screen does not pay here
                self._screening = False
        if unsure is None:
            _climb.sqdist(self._columns[idx], self._rows, self._work)
            nearest, _ = self._nearest(self._work, None)
        elif any(redo.size for redo in unsure):
            ambiguous = np.unique(np.concatenate(unsure))
            exact = self._work[:ambiguous.size]  # the screen's matrix is read
            _climb.sqdist(self._columns[idx], ambiguous, exact)
            for nn, fold_of, redo in zip(nearest, self._folds, unsure):
                W = exact[np.searchsorted(ambiguous, redo)]
                W[fold_of[redo, None] == fold_of] = np.inf
                nn[redo] = W.argmin(axis=1)
        labels = d.labels
        n = d.n_instances
        return [int(np.count_nonzero(labels[nn] == labels)) / n for nn in nearest]

    def fitness(self, mask: FeatureMask) -> float:
        """The memoized ``compute``: a mask seen before is a hit; any other
        is computed, stored and counted, in that order, so a computation
        that raises leaves the memo and the counters as they were."""
        key = mask.key()
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        value = self.compute(mask)
        self._cache[key] = value
        self.computations += 1
        return value
