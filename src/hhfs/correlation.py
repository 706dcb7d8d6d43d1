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

``build_cache`` fills both tables with one Pearson routine; |r_cf| averages
a feature's |r| against the one-vs-rest class indicators with the class
frequencies as weights (the point-biserial |r| for two classes).

All correlations are absolute values: a strongly negative correlate
predicts just as well as a positive one. Zero-variance vectors correlate
0 with everything by convention, which keeps constant columns harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mask import FeatureMask

# bit domains: the positions a hill-climber may flip
ALL = "all"
ZEROS = "zeros"
ONES = "ones"


@dataclass(frozen=True)
class CorrelationCache:
    """Precomputed absolute correlations backing the subset merit.

    ``feature_feature`` is the N x N matrix of |r| between feature columns
    (diagonal 1, or 0 for zero-variance ones); ``feature_class`` is the
    length-N vector of feature-class correlations (module docstring). The
    cache owns its arrays: construction stores C-contiguous float64 copies
    of both, so the caller's arrays are left as they were, and rejects an
    entry that is not finite and non-negative. It also fixes the constants
    every merit scan and the compiled climb loop read: the ``diagonal``,
    ``columns`` (a C-contiguous copy of ``feature_feature.T``, so
    ``columns[b]`` is a contiguous row equal to ``feature_feature[:, b]``)
    and ``positions`` (``arange(N)``). Every array is read-only.
    """

    feature_feature: np.ndarray
    feature_class: np.ndarray

    @property
    def n_features(self) -> int:
        return self.feature_class.size

    def __post_init__(self):
        ff = np.array(self.feature_feature, dtype=np.float64, order="C")
        fc = np.array(self.feature_class, dtype=np.float64, order="C")
        if fc.ndim != 1 or ff.shape != (fc.size, fc.size):
            raise ValueError("feature_feature must be N x N for N = len(feature_class)")
        for name, arr in (("feature_feature", ff), ("feature_class", fc)):
            if not np.all((arr >= 0.0) & (arr < np.inf)):  # NaN fails both
                raise ValueError(f"{name} entries must be finite and non-negative")
        constants = {"feature_feature": ff, "feature_class": fc,
                     "diagonal": np.diagonal(ff).copy(),
                     "columns": np.ascontiguousarray(ff.T),
                     "positions": np.arange(fc.size)}
        for name, arr in constants.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _centred(A):
    """Centred columns of ``A`` and their sums of squares, forced to 0 on constant columns."""
    constant = np.all(A == A[0:1, :], axis=0)
    Ad = A - A.mean(axis=0)
    return Ad, np.where(constant, 0.0, np.einsum("ij,ij->j", Ad, Ad))


def _abs_r(Ad, sa, Bd, sb):
    """|r| of each column of A against each column of B; 0 where a sum of squares is 0."""
    denom = np.sqrt(np.outer(sa, sb))
    r = np.where(denom > 0, (Ad.T @ Bd) / np.where(denom == 0, 1.0, denom), 0.0)
    return np.abs(np.clip(r, -1.0, 1.0))


def build_cache(d) -> CorrelationCache:
    """Compute the correlation cache for a dataset, once, from whole-matrix
    centred cross-products: the features against themselves and against
    the one-vs-rest class indicators Y (n x C)."""
    Y = (d.labels[:, None] == np.arange(d.class_count)).astype(np.float64)
    (Xd, sx), (Yd, sy) = _centred(d.features), _centred(Y)
    ff = _abs_r(Xd, sx, Xd, sx)
    np.fill_diagonal(ff, np.where(sx > 0, 1.0, 0.0))
    fc = _abs_r(Xd, sx, Yd, sy) @ Y.mean(axis=0)  # weights: the class frequencies
    return CorrelationCache(feature_feature=ff, feature_class=fc)


class _MeritScan:
    """Read-only merit scan of one mask, the state its single-bit flips
    are scored from.

    Holds the selected count k, the selected class-correlation sum, the
    selected off-diagonal feature-feature sum (ordered pairs), their merit
    (computed once, here), and the vector row[b] = sum_{i selected} ff[b, i],
    so each candidate flip is scored in O(1) by the compiled climb loop
    (``llh``). A scan never changes after construction; the heuristics take
    and return scans, and a scan built from bits scores them exactly as
    ``cfs_merit``.

    ``in_domain`` (the positions a bit domain lets flip; the 1-bits are
    known from construction) is computed on first use and kept, for every
    later heuristic that starts from the same scan (the incumbent's starts
    thousands). Arrays are not writable, so no caller can change what a
    later caller reads.
    """

    def __init__(self, cache: CorrelationCache, bits):
        self.cache = cache
        self.bits = np.array(bits, dtype=bool)
        sel = self.bits.nonzero()[0]
        self.k = k = sel.size
        self.sum_cf = sum_cf = float(cache.feature_class[sel].sum())
        floats = self.bits.astype(np.float64)
        self.row = cache.feature_feature @ floats
        self.sum_ff = sum_ff = float(floats @ self.row) - float(cache.diagonal[sel].sum())
        self.merit = sum_cf / math.sqrt(k + sum_ff) if k else 0.0
        for arr in (self.bits, self.row, sel):
            arr.setflags(write=False)
        self._in_domain = {ONES: sel}

    def in_domain(self, bit_domain: str) -> np.ndarray:
        """The positions ``bit_domain`` lets flip, ascending: every bit
        (ALL), the 0-bits (ZEROS) or the 1-bits (ONES)."""
        positions = self._in_domain.get(bit_domain)
        if positions is None:
            if bit_domain == ALL:
                positions = self.cache.positions
            elif bit_domain == ZEROS:
                positions = (~self.bits).nonzero()[0]
                positions.setflags(write=False)
            else:
                raise ValueError(f"unknown bit domain {bit_domain!r}")
            self._in_domain[bit_domain] = positions
        return positions

    def mask(self) -> FeatureMask:
        return FeatureMask(self.bits)


def cfs_merit(mask: FeatureMask, cache: CorrelationCache) -> float:
    """Merit of the selected subset (the ``_MeritScan`` merit); 0.0 for
    the empty mask."""
    if mask.n != cache.n_features:
        raise ValueError(
            f"mask over {mask.n} features does not match cache of {cache.n_features}")
    return _MeritScan(cache, mask.bits).merit


def dump_cache_csv(cache: CorrelationCache, path) -> None:
    """Write the cache as a diagnostic CSV: one row per feature, columns
    ``feature, class_corr, ff_0 .. ff_{N-1}``."""
    n = cache.n_features
    with open(path, "w") as fh:
        fh.write("feature,class_corr," + ",".join(f"ff_{j}" for j in range(n)) + "\n")
        for i in range(n):
            row = ",".join(repr(v) for v in cache.feature_feature[i])
            fh.write(f"{i},{cache.feature_class[i]!r},{row}\n")
