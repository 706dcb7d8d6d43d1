"""Seeded synthetic stand-ins for the paper's UCI datasets, written as CSV.

The real files cannot be fetched offline, so each workload gets a dataset
with the same shape (instances, features, class sizes) as its UCI
original. The recipe starts from the two-blob generator the test suite
uses (class-shifted Gaussian features, one noisy copy of an informative
feature, the rest noise) and is calibrated so that the search does not
saturate within the benchmark's generation budget:

* many weakly informative features instead of a few strong ones, their
  class-mean shifts spread evenly over a fixed range, so the best 1NN
  subset is large, no single flip reaches accuracy 1.0, and difficulty
  varies little from seed to seed;
* redundant features, noisy copies of informative ones, which the CFS
  merit should learn to drop;
* a share of rows whose features follow a randomly redrawn label, which
  caps the reachable accuracy below 1.0 the way measurement noise does in
  the real sets;
* shuffled column order, so in-order sweeps (NAHC) meet informative and
  noise columns interleaved;
* for dermatology, ordinal values on four levels and a few cells written
  as '?', which load_csv mean-imputes.

Every seed shuffles the rows and columns of one fixed base stand-in per
shape (drawn with RECIPE_SEED). Row order moves the stratified CV folds and
column order moves every heuristic's trajectory, so each seed is a
different search, while the class geometry, and hence how hard the set is,
stays the same: freshly drawn bases differ by 4-15% in full-feature
accuracy, more than any change the benchmark should detect. The same
(shape, seed) always gives the same bytes on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Size of one UCI original plus the stand-in recipe's knobs."""

    class_sizes: tuple[int, ...]
    n_features: int
    informative: float  # share of columns carrying class signal
    redundant: float  # share of columns that copy an informative one
    shift: tuple[float, float]  # range of per-feature class-mean shifts, in SDs
    label_noise: float  # share of rows generated from a redrawn label
    integer_levels: int = 0  # >0: round features onto 0..levels-1, like ordinal UCI data
    missing_cells: int = 0  # cells of one column written as '?'

    @property
    def n_instances(self) -> int:
        return sum(self.class_sizes)


RECIPE_SEED = 0

SHAPES = {
    # clean1: 207 musk, 269 non-musk molecules, 166 conformation features
    "musk": Shape((207, 269), 166, informative=0.35, redundant=0.15,
                  shift=(0.2, 0.8), label_noise=0.06),
    # 97 rock, 111 mine sonar returns over 60 frequency bands
    "sonar": Shape((97, 111), 60, informative=0.4, redundant=0.15,
                   shift=(0.3, 1.0), label_noise=0.08),
    # 6 erythemato-squamous diseases, 34 mostly ordinal attributes, 8 unknown ages
    "dermatology": Shape((112, 61, 72, 49, 52, 20), 34,
                         informative=0.5, redundant=0.15, shift=(0.6, 1.8),
                         label_noise=0.04, integer_levels=4, missing_cells=8),
}


def _base(shape: Shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed stand-in behind every seed: features, labels, and a mask
    of the cells that are written as missing."""
    rng = np.random.default_rng([RECIPE_SEED, shape.n_features, len(shape.class_sizes)])
    n, N, C = shape.n_instances, shape.n_features, len(shape.class_sizes)
    labels = rng.permutation(np.repeat(np.arange(C), shape.class_sizes))

    n_inf = max(1, round(shape.informative * N))
    n_red = min(N - n_inf, round(shape.redundant * N))
    # class centroids per informative feature: +-shift for two classes,
    # a random direction scaled to the shift for more
    strength = np.linspace(*shape.shift, num=n_inf)
    if C == 2:
        centroids = np.stack([-strength, strength]) / 2.0
    else:
        centroids = rng.normal(size=(C, n_inf))
        centroids *= strength / centroids.std(axis=0)

    # labels the features were generated from; a fixed share are redrawn so
    # the recorded label no longer matches the signal
    signal = labels.copy()
    noisy = rng.choice(n, size=round(shape.label_noise * n), replace=False)
    signal[noisy] = rng.integers(C, size=noisy.size)

    X = rng.normal(size=(n, N))
    X[:, :n_inf] += centroids[signal]
    sources = rng.integers(n_inf, size=n_red)
    X[:, n_inf:n_inf + n_red] = X[:, sources] + 0.5 * rng.normal(size=(n, n_red))

    if shape.integer_levels:
        lo, hi = X.min(axis=0), X.max(axis=0)
        X = np.round((X - lo) / (hi - lo) * (shape.integer_levels - 1))
    missing = np.zeros(X.shape, dtype=bool)
    missing[rng.choice(n, size=shape.missing_cells, replace=False), 0] = True
    return X, labels, missing


def make_standin(shape: Shape, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stand-in for one workload seed: the fixed base with its rows and
    columns shuffled by the seed. Returns features, labels and the
    missing-cell mask."""
    X, labels, missing = _base(shape)
    rng = np.random.default_rng([seed, shape.n_features])
    rows = rng.permutation(shape.n_instances)
    cols = rng.permutation(shape.n_features)
    return X[rows][:, cols], labels[rows], missing[rows][:, cols]


def write_csv(shape: Shape, seed: int, path: Path) -> Path:
    """Write the stand-in as a headerless CSV, label in the last column."""
    X, labels, missing = make_standin(shape, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for row, gaps, label in zip(X, missing, labels):
            cells = ["?" if gap else f"{v:.6g}" for v, gap in zip(row, gaps)]
            fh.write(",".join(cells) + f",{int(label)}\n")
    return path
