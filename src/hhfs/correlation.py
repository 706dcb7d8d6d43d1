"""Correlation-based filter merit for feature subsets.

Local searches score candidate masks with an intrinsic statistic instead
of running the classifier: the merit of a subset of k features is

    k * r_cf / sqrt(k + k*(k-1) * r_ff)

where r_cf is the mean absolute feature-class correlation over the
selected features and r_ff the mean absolute feature-feature correlation
over the selected pairs (Hall's CFS score). High merit means features
that track the class while not tracking each other.

One implementation, the merit scan, works from the row vector ff @ bits:
the selected class-correlation sum over the root of k plus the selected
off-diagonal feature-feature sum, which is the form above and finite.
The scan is compiled (``_climb.scan`` in ``_climb.c`` beside this module,
built on first import by ``_load_climb``), and the compiled heuristics
(``llh``) score from the same routine, so ``cfs_merit`` scores a mask
exactly as the local searches do. It sums in one fixed order, ascending
selected index: each row entry, the class sum and the off-diagonal sum
(row[i] - ff[i, i] per selected i) are sequential sums, so a merit is a
function of the bits alone, whatever BLAS the machine runs.

``build_cache`` fills both tables with one Pearson routine; |r_cf| averages
a feature's |r| against the one-vs-rest class indicators with the class
frequencies as weights (the point-biserial |r| for two classes).

All correlations are absolute values: a strongly negative correlate
predicts just as well as a positive one. Zero-variance vectors correlate
0 with everything by convention, which keeps constant columns harmless.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mask import FeatureMask


def _load_climb():
    """The compiled ``_climb`` module, built from ``_climb.c`` into
    ``__pycache__/`` unless a build of this source, these flags, this
    extension suffix and this numpy (its version, headers and random C
    library) is there. A build goes to a temporary directory and is renamed
    into place, so concurrent first imports each see a whole module, then
    removes the older builds for this suffix. No ``cc``, no numpy random
    library, a failing ``cc`` or an unwritable directory is one
    ``ImportError``."""
    source = Path(__file__).with_name("_climb.c")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    random_lib = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
    flags = ["-O3", "-ffp-contract=off", "-fPIC", "-shared",
             "-I" + sysconfig.get_paths()["include"], "-I" + np.get_include()]
    if sys.platform == "darwin":  # Python's symbols resolve at load, as in sysconfig's LDSHARED
        flags += ["-undefined", "dynamic_lookup"]
    key = "\0".join([source.read_text(), *flags, suffix, np.__version__, str(random_lib)])
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    built = source.parent / "__pycache__" / f"_climb.{digest}{suffix}"
    if not built.exists():
        if shutil.which("cc") is None:
            raise ImportError(f"hhfs needs a C compiler: no `cc` on PATH to build {source}")
        if not random_lib.is_file():
            raise ImportError(f"hhfs needs numpy's random C library: no {random_lib}")
        try:
            built.parent.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=built.parent) as tmp:
                out = os.path.join(tmp, built.name)
                proc = subprocess.run(["cc", *flags, "-o", out, str(source), str(random_lib),
                                       "-lm"], capture_output=True, text=True)
                if proc.returncode:
                    raise ImportError(f"hhfs: `cc` failed to build {source}: {proc.stderr.strip()}")
                os.replace(out, built)
        except OSError as e:
            raise ImportError(f"hhfs: cannot build {source} into {built.parent}: {e}") from None
        for old in set(built.parent.glob(f"_climb.*{suffix}")) - {built}:
            with contextlib.suppress(OSError):  # another process may still load it
                old.unlink()
    spec = importlib.util.spec_from_file_location(f"{__package__}._climb", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_climb = _load_climb()


@dataclass(frozen=True)
class CorrelationCache:
    """Precomputed absolute correlations backing the subset merit.

    ``feature_feature`` is the N x N matrix of |r| between feature columns
    (diagonal 1, or 0 for zero-variance ones); ``feature_class`` is the
    length-N vector of feature-class correlations (module docstring). The
    cache owns its arrays: construction stores C-contiguous float64 copies
    of both, so the caller's arrays are left as they were, and rejects an
    entry that is not finite and non-negative. It also fixes the constants
    every merit scan and heuristic read: the ``diagonal`` and ``columns``
    (a C-contiguous copy of ``feature_feature.T``, so ``columns[b]`` is a
    contiguous row equal to ``feature_feature[:, b]``). Every array is
    read-only.
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
                     "columns": np.ascontiguousarray(ff.T)}
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


def check_fits(mask: FeatureMask, cache: CorrelationCache) -> None:
    """Reject a mask over another feature count than the cache's."""
    if mask.n != cache.n_features:
        raise ValueError(
            f"mask over {mask.n} features does not match cache of {cache.n_features}")


def cfs_merit(mask: FeatureMask, cache: CorrelationCache) -> float:
    """Merit of the selected subset (the merit scan's); 0.0 for the empty
    mask."""
    check_fits(mask, cache)
    return _climb.scan(mask.bits, cache.feature_class, cache.diagonal, cache.columns,
                       np.empty(mask.n))[3]


def dump_cache_csv(cache: CorrelationCache, path) -> None:
    """Write the cache as a diagnostic CSV: one row per feature, columns
    ``feature, class_corr, ff_0 .. ff_{N-1}``."""
    n = cache.n_features
    with open(path, "w") as fh:
        fh.write("feature,class_corr," + ",".join(f"ff_{j}" for j in range(n)) + "\n")
        for i in range(n):
            row = ",".join(repr(v) for v in cache.feature_feature[i])
            fh.write(f"{i},{cache.feature_class[i]!r},{row}\n")
