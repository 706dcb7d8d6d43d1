"""Correlation-based filter merit for feature subsets.

Local searches score candidate masks with an intrinsic statistic instead
of running the classifier: the merit of a subset of k features is

    k * r_cf / sqrt(k + k*(k-1) * r_ff)

where r_cf is the mean absolute feature-class correlation over the
selected features and r_ff the mean absolute feature-feature correlation
over the selected pairs (Hall's CFS score). High merit means features
that track the class while not tracking each other.

One implementation, ``_MeritScan``, works from the row vector ff @ bits:
the selected class-correlation sum over the root of k plus the selected
off-diagonal feature-feature sum (bits @ row minus the diagonal), which
is the form above and finite. ``cfs_merit`` is the scan's merit, so it
scores a mask exactly as the local searches do.

All correlations are absolute values: a strongly negative correlate
predicts just as well as a positive one. Zero-variance vectors correlate
0 with everything by convention, which keeps constant columns harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mask import FeatureMask


def pearson(x, y) -> float:
    """Sample Pearson correlation of two equal-length vectors.

    Returns 0.0 if either vector has zero variance. The result is clipped
    to [-1, 1] to absorb floating-point overshoot on exact relations.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError("pearson expects two 1-d vectors of equal length")
    if x.size < 2:
        raise ValueError("pearson needs at least 2 samples")
    # exact constancy check: a constant vector whose mean is not exactly
    # representable would otherwise leak a tiny nonzero variance
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    xd = x - x.mean()
    yd = y - y.mean()
    sx = float(xd @ xd)
    sy = float(yd @ yd)
    if sx == 0.0 or sy == 0.0:
        return 0.0
    r = float(xd @ yd) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def class_correlation(feature, labels, class_count: int) -> float:
    """Absolute correlation between a feature and the class variable.

    Two classes: point-biserial magnitude |pearson(feature, 1{class==1})|.
    More classes: one-vs-rest indicator correlations averaged with the
    class frequencies as weights, the minimal Pearson-only extension.
    """
    feature = np.asarray(feature, dtype=np.float64)
    labels = np.asarray(labels)
    if class_count < 2:
        raise ValueError("need at least 2 classes")
    if class_count == 2:
        return abs(pearson(feature, (labels == 1).astype(np.float64)))
    n = labels.size
    total = 0.0
    for c in range(class_count):
        indicator = (labels == c).astype(np.float64)
        weight = indicator.sum() / n
        total += weight * abs(pearson(feature, indicator))
    return total


@dataclass(frozen=True)
class CorrelationCache:
    """Precomputed absolute correlations backing the subset merit.

    ``feature_feature`` is the symmetric N x N matrix of |pearson| between
    feature columns (diagonal 1, or 0 for constant columns);
    ``feature_class`` is the length-N vector of feature-class correlations.
    """

    feature_feature: np.ndarray
    feature_class: np.ndarray

    @property
    def n_features(self) -> int:
        return self.feature_class.size

    def __post_init__(self):
        ff, fc = self.feature_feature, self.feature_class
        if ff.shape != (fc.size, fc.size):
            raise ValueError("feature_feature must be N x N for N = len(feature_class)")
        ff.setflags(write=False)
        fc.setflags(write=False)


def build_cache(d) -> CorrelationCache:
    """Compute the correlation cache for a dataset, once.

    Feature-feature correlations come from one centered Gram matrix so the
    whole cache is O(N^2 * n) instead of per-pair passes.
    """
    X = d.features
    constant = np.all(X == X[0:1, :], axis=0)
    Xd = X - X.mean(axis=0)
    s = np.where(constant, 0.0, np.einsum("ij,ij->j", Xd, Xd))
    gram = Xd.T @ Xd
    denom = np.sqrt(np.outer(s, s))
    ff = np.where(denom > 0, gram / np.where(denom == 0, 1.0, denom), 0.0)
    ff = np.abs(np.clip(ff, -1.0, 1.0))
    ff[constant, :] = 0.0
    ff[:, constant] = 0.0
    np.fill_diagonal(ff, np.where(constant, 0.0, 1.0))
    fc = np.array([class_correlation(X[:, j], d.labels, d.class_count)
                   for j in range(d.n_features)])
    return CorrelationCache(feature_feature=ff, feature_class=fc)


class _MeritScan:
    """Read-only merit scan of one mask, scoring its single-bit flips.

    Holds the selected count k, the selected class-correlation sum, the
    selected off-diagonal feature-feature sum (ordered pairs), and the
    vector row[b] = sum_{i selected} ff[b, i], so each candidate flip is
    scored in O(1). A scan never changes after construction (``bits`` and
    ``row`` are not writable); the heuristics take and return scans, and
    a scan built from bits scores them exactly as ``cfs_merit``.
    """

    def __init__(self, cache: CorrelationCache, bits: np.ndarray):
        self.ff = cache.feature_feature
        self.fc = cache.feature_class
        self.diag = np.diagonal(self.ff)
        self.bits = np.array(bits, dtype=bool)
        sel = np.flatnonzero(self.bits)
        self.k = sel.size
        self.sum_cf = float(self.fc[sel].sum())
        self.row = self.ff @ self.bits.astype(np.float64)
        self.sum_ff = float(self.bits @ self.row) - float(self.diag[sel].sum())
        self.bits.setflags(write=False)
        self.row.setflags(write=False)

    @staticmethod
    def _merit(k: int, sum_cf: float, sum_ff: float) -> float:
        if k == 0:
            return 0.0
        return sum_cf / math.sqrt(k + sum_ff)

    def merit(self) -> float:
        return self._merit(self.k, self.sum_cf, self.sum_ff)

    def flip_merits(self, positions: np.ndarray) -> np.ndarray:
        """Merit the mask would have with each of ``positions`` flipped
        alone; a flip that leaves k == 0 scores 0.0."""
        on = self.bits[positions]
        fc = self.fc[positions]
        row = self.row[positions]
        k = np.where(on, self.k - 1, self.k + 1)
        sum_cf = np.where(on, self.sum_cf - fc, self.sum_cf + fc)
        sum_ff = np.where(on, self.sum_ff - 2.0 * (row - self.diag[positions]),
                          self.sum_ff + 2.0 * row)
        empty = k == 0
        return np.where(empty, 0.0,
                        sum_cf / np.sqrt(np.where(empty, 1.0, k + sum_ff)))

    def mask(self) -> FeatureMask:
        return FeatureMask(self.bits)


def cfs_merit(mask: FeatureMask, cache: CorrelationCache) -> float:
    """Merit of the selected subset (the ``_MeritScan`` merit); 0.0 for
    the empty mask."""
    if mask.n != cache.n_features:
        raise ValueError(
            f"mask over {mask.n} features does not match cache of {cache.n_features}")
    return _MeritScan(cache, mask.bits).merit()


def dump_cache_csv(cache: CorrelationCache, path) -> None:
    """Write the cache as a diagnostic CSV: one row per feature, columns
    ``feature, class_corr, ff_0 .. ff_{N-1}``."""
    n = cache.n_features
    with open(path, "w") as fh:
        fh.write("feature,class_corr," + ",".join(f"ff_{j}" for j in range(n)) + "\n")
        for i in range(n):
            row = ",".join(repr(v) for v in cache.feature_feature[i])
            fh.write(f"{i},{cache.feature_class[i]!r},{row}\n")
