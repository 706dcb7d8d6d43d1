"""Shared fixtures: synthetic datasets, hand-built caches, scripted RNGs,
and independent oracle implementations the tests check the engine against.

The oracles are deliberately naive (two-pass formulas, per-query loops,
exhaustive neighborhood enumeration) and never share code with the paths
they verify.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

from hhfs import cores
from hhfs.correlation import CorrelationCache, _climb
from hhfs.dataset import Dataset, min_max_normalize
from hhfs.llh import ALL, CATALOG, ONES, ZEROS
from hhfs.mask import FeatureMask

HILL_CLIMBER_IDS = tuple(i for i, info in CATALOG.items() if info.kind == "hill-climber")
MUTATIONAL_IDS = tuple(i for i, info in CATALOG.items() if info.kind == "mutational")

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="forked workers need the fork start method")


def on_cores(monkeypatch, count: int) -> None:
    """Make this process see ``count`` usable cores."""
    monkeypatch.setattr(cores, "usable_cores", lambda: count)


def synthetic_dataset(n_instances=60, n_features=12, n_informative=4,
                      class_count=2, seed=0, name="synthetic") -> Dataset:
    """Gaussian two-blob data: the first features carry class signal with
    decreasing strength, one is a noisy copy of feature 0, the rest are
    noise. Normalized to [0,1]."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n_instances) % class_count
    labels = rng.permutation(labels)
    X = rng.normal(size=(n_instances, n_features))
    for j in range(min(n_informative, n_features)):
        X[:, j] += labels * (2.0 - 1.5 * j / max(1, n_informative))
    if n_features > n_informative + 1:
        X[:, n_informative] = X[:, 0] + 0.25 * rng.normal(size=n_instances)
    return min_max_normalize(Dataset.from_arrays(name, X, labels))


def random_cache(n_features: int, seed: int = 0) -> CorrelationCache:
    """Random but structurally valid correlation cache."""
    rng = np.random.default_rng(seed)
    a = rng.random((n_features, n_features))
    ff = (a + a.T) / 2.0
    np.fill_diagonal(ff, 1.0)
    fc = rng.random(n_features)
    return CorrelationCache(feature_feature=ff, feature_class=fc)


def cache_from_values(fc, ff) -> CorrelationCache:
    """Cache with exactly the given feature-class vector and
    feature-feature matrix (diagonal filled with 1)."""
    fc = np.asarray(fc, dtype=np.float64)
    ff = np.asarray(ff, dtype=np.float64)
    np.fill_diagonal(ff, 1.0)
    return CorrelationCache(feature_feature=ff, feature_class=fc)


class MeritScan:
    """Read-only merit scan of some bits, the state the oracles score their
    flips from: the bits, the row[b] = sum_{i selected} ff[b, i] and the
    selected count, class sum, off-diagonal sum and merit, as
    ``_climb.scan`` computes them."""

    def __init__(self, cache: CorrelationCache, bits):
        self.cache = cache
        self.bits, self.row = np.array(bits, dtype=bool), np.empty(len(bits))
        self.k, self.sum_cf, self.sum_ff, self.merit = _climb.scan(
            self.bits, cache.feature_class, cache.diagonal, cache.columns, self.row)
        self.bits.setflags(write=False)
        self.row.setflags(write=False)

    def mask(self) -> FeatureMask:
        return FeatureMask(self.bits)


def random_mask(n: int, rng: np.random.Generator) -> FeatureMask:
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    if not bits.any():
        bits[int(rng.integers(n))] = 1
    return FeatureMask(bits)


def record_call(stats, llh_id: int, merit_before: float, merit_after: float) -> None:
    """Count one heuristic call in an ``LlhStats``, and an improvement if
    the merit rose strictly."""
    stats.invocations[llh_id] += 1
    if merit_after > merit_before:
        stats.improvements[llh_id] += 1


def flip(mask: FeatureMask, i: int) -> FeatureMask:
    """A copy of ``mask`` with bit ``i`` inverted; the input is unchanged."""
    if not 0 <= i < mask.n:
        raise IndexError(f"bit index {i} out of range for {mask.n} features")
    bits = mask.bits.copy()
    bits[i] ^= 1
    return FeatureMask(bits)


# ---------------------------------------------------------------- oracles

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


def pearson_twopass(x, y) -> float:
    """Definitional Pearson: means first, then covariance over the product
    of standard deviations. Plain Python arithmetic."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def merit_from_cache_direct(bits, cache: CorrelationCache) -> float:
    """Hall's formula evaluated literally from cache entries."""
    sel = [i for i, b in enumerate(bits) if b]
    k = len(sel)
    if k == 0:
        return 0.0
    r_cf = sum(cache.feature_class[i] for i in sel) / k
    if k == 1:
        r_ff = 0.0
    else:
        pairs = list(itertools.combinations(sel, 2))
        r_ff = sum(cache.feature_feature[i][j] for i, j in pairs) / len(pairs)
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def class_correlation_twopass(x, labels) -> float:
    """Feature-class correlation by definition: |pearson_twopass| of the
    feature against each one-vs-rest class indicator, weighted by the
    class's share of the instances."""
    labels = list(labels)
    n = len(labels)
    total = 0.0
    for c in sorted(set(labels)):
        indicator = [1.0 if label == c else 0.0 for label in labels]
        total += (labels.count(c) / n) * abs(pearson_twopass(x, indicator))
    return total


def merit_from_data(bits, dataset: Dataset) -> float:
    """Cache-free merit: recompute every needed correlation from the raw
    columns with the two-pass Pearson, then apply Hall's formula."""
    sel = [i for i, b in enumerate(bits) if b]
    k = len(sel)
    if k == 0:
        return 0.0
    X = dataset.features
    r_cf = sum(class_correlation_twopass(X[:, i], dataset.labels) for i in sel) / k
    if k == 1:
        r_ff = 0.0
    else:
        pairs = list(itertools.combinations(sel, 2))
        r_ff = sum(abs(pearson_twopass(X[:, i], X[:, j])) for i, j in pairs) / len(pairs)
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def best_flip_oracle(mask: FeatureMask, cache: CorrelationCache,
                     positions) -> tuple[int, float]:
    """Exhaustive Hamming-1 argmax over the given flip positions using the
    public merit function; ties resolved toward the lowest index."""
    from hhfs.correlation import cfs_merit

    best_bit, best_merit = -1, -np.inf
    for b in positions:
        m = cfs_merit(flip(mask, int(b)), cache)
        if m > best_merit:
            best_bit, best_merit = int(b), m
    return best_bit, best_merit


def sweep_reference(scan, cache: CorrelationCache, positions):
    """The NAHC/DBHC pass over ``positions`` as it ran on a mutable scan:
    copy the scan's sums, score each visit and commit each strictly
    improving flip on numpy scalars and arrays, then scan a moved result
    afresh. Returns the input scan object when no flip was kept."""
    ff, fc = cache.feature_feature, cache.feature_class
    bits, row = scan.bits.copy(), scan.row.copy()
    k, sum_cf, sum_ff = scan.k, scan.sum_cf, scan.sum_ff

    def merit(k, sum_cf, sum_ff):
        return 0.0 if k == 0 else sum_cf / math.sqrt(k + sum_ff)

    current = merit(k, sum_cf, sum_ff)
    changed = False
    for b in positions:
        if bits[b]:
            sums = k - 1, sum_cf - fc[b], sum_ff - 2.0 * (row[b] - ff[b, b])
        else:
            sums = k + 1, sum_cf + fc[b], sum_ff + 2.0 * row[b]
        candidate = merit(*sums)
        if candidate > current:
            row = row - ff[:, b] if bits[b] else row + ff[:, b]
            bits[b] = not bits[b]
            (k, sum_cf, sum_ff), current = sums, candidate
            changed = True
    return MeritScan(cache, bits) if changed else scan


def sequential_scan(cache: CorrelationCache, bits):
    """A merit scan's row and sums by its definition, summed one term at a
    time in ascending selected index on Python floats: row[j] is the sum
    of ff[j, i], the class sum that of fc[i] and the off-diagonal sum that
    of row[i] - ff[i, i] over the selected i; the merit is
    sum_cf / sqrt(k + sum_ff), 0.0 at k == 0. Returns (row, k, sum_cf,
    sum_ff, merit)."""
    ff, fc = cache.feature_feature.tolist(), cache.feature_class.tolist()
    sel = [i for i, b in enumerate(bits) if b]
    row = [0.0] * len(fc)
    for i in sel:
        for j in range(len(fc)):
            row[j] += ff[j][i]
    sum_cf = sum_ff = 0.0
    for i in sel:
        sum_cf += fc[i]
    for i in sel:
        sum_ff += row[i] - ff[i][i]
    k = len(sel)
    return row, k, sum_cf, sum_ff, sum_cf / math.sqrt(k + sum_ff) if k else 0.0


def exhaustive_best_mask(cache: CorrelationCache) -> tuple[FeatureMask, float]:
    """Global merit maximum by enumerating all 2^N masks (N small)."""
    from hhfs.correlation import cfs_merit

    n = cache.n_features
    best_mask, best_merit = FeatureMask([0] * n), 0.0
    for word in range(1, 2 ** n):
        bits = np.array([(word >> i) & 1 for i in range(n)], dtype=np.uint8)
        mask = FeatureMask(bits)
        m = cfs_merit(mask, cache)
        if m > best_merit:
            best_mask, best_merit = mask, m
    return best_mask, best_merit


def cv_accuracy_bruteforce(dataset: Dataset, mask: FeatureMask, folds: int,
                           repeats: int, base_seed: int) -> float:
    """Per-query reimplementation of repeated stratified-CV 1NN accuracy
    built on predict_1nn directly."""
    from hhfs.dataset import stratified_folds

    accs = []
    for r in range(repeats):
        fa = stratified_folds(dataset, folds, base_seed + r)
        correct = 0
        for fold in range(folds):
            test = np.flatnonzero(fa.fold_of == fold)
            train = np.flatnonzero(fa.fold_of != fold)
            for t in test:
                label = predict_1nn(dataset.features[train],
                                    dataset.labels[train],
                                    dataset.features[t], mask)
                correct += int(label == dataset.labels[t])
        accs.append(correct / dataset.n_instances)
    return sum(accs) / len(accs)


def cv_accuracy_cdist_reference(d: Dataset, mask: FeatureMask, proto) -> float:
    """Repeated stratified-CV 1NN accuracy from one full ``cdist`` matrix
    and freshly built folds: the fitness computation the faster engine
    path must equal bitwise."""
    from scipy.spatial.distance import cdist

    from hhfs.dataset import stratified_folds

    idx = mask.selected_indices()
    if idx.size == 0:
        return 0.0
    Xs = d.features[:, idx]
    dists = cdist(Xs, Xs, "sqeuclidean")
    accs = []
    for r in range(proto.repeats):
        fa = stratified_folds(d, proto.folds, proto.base_seed + r)
        correct = 0
        for fold in range(proto.folds):
            test = np.flatnonzero(fa.fold_of == fold)
            if test.size == 0:
                continue
            train = np.flatnonzero(fa.fold_of != fold)
            nn = np.argmin(dists[np.ix_(test, train)], axis=1)
            correct += int(np.sum(d.labels[train[nn]] == d.labels[test]))
        accs.append(correct / d.n_instances)
    return sum(accs) / len(accs)


# ------------------------------------------------------ heuristic oracles
#
# The 16 heuristics as Python rules on merit scans, each drawing from
# ``ctx.rng`` what it draws: the engine's compiled heuristics must equal
# them draw for draw, and they run the scripted ``StubRng`` scenarios.


@dataclass
class OracleContext:
    """What an oracle heuristic consults: the cache, an RNG with
    Generator's ``integers``, ``random`` and ``permutation`` (a Generator
    or a ``StubRng``) and the MUTN rate."""

    cache: CorrelationCache
    rng: object
    mutn_rate: float = 0.1


def domain_of(scan, bit_domain: str) -> np.ndarray:
    """The positions ``bit_domain`` lets flip, ascending: every bit, the
    0-bits or the 1-bits."""
    if bit_domain == ALL:
        return np.arange(scan.bits.size)
    if bit_domain in (ZEROS, ONES):
        return np.flatnonzero(scan.bits == (bit_domain == ONES))
    raise ValueError(f"unknown bit domain {bit_domain!r}")


def _flipped(scan, ctx, b):
    """A fresh scan of the input's bits with bit(s) ``b`` inverted."""
    bits = scan.bits.copy()
    bits[b] ^= True
    return MeritScan(ctx.cache, bits)


def python_flip_merit(scan, b) -> float:
    """The merit of ``scan`` with bit b flipped, from its sums on Python
    floats: a 1-bit leaves k - 1 features and loses its class and cross
    sums, a 0-bit adds them; the flip to k == 0 scores 0.0."""
    cache = scan.cache
    if scan.bits[b]:
        k = scan.k - 1
        sum_cf = scan.sum_cf - float(cache.feature_class[b])
        sum_ff = scan.sum_ff - 2.0 * (float(scan.row[b]) - float(cache.diagonal[b]))
    else:
        k = scan.k + 1
        sum_cf = scan.sum_cf + float(cache.feature_class[b])
        sum_ff = scan.sum_ff + 2.0 * float(scan.row[b])
    return sum_cf / math.sqrt(k + sum_ff) if k else 0.0


def python_sweep_climb(scan, positions, ties=False):
    """The NAHC/DBHC/RMHC loop on Python floats: sums seeded from the scan,
    each visit scored inline, a commit updating a numpy row by
    ``columns[b]`` and re-reading it. Returns the kept positions."""
    cache = scan.cache
    fc, diag = tuple(cache.feature_class.tolist()), tuple(cache.diagonal.tolist())
    columns = cache.columns
    bits, row, row_np = tuple(scan.bits.tolist()), tuple(scan.row.tolist()), scan.row
    k, sum_cf, sum_ff, current = scan.k, scan.sum_cf, scan.sum_ff, scan.merit
    kept = []
    for b in positions:
        if bits[b]:
            k_b, cf_b, ff_b = k - 1, sum_cf - fc[b], sum_ff - 2.0 * (row[b] - diag[b])
        else:
            k_b, cf_b, ff_b = k + 1, sum_cf + fc[b], sum_ff + 2.0 * row[b]
        candidate = cf_b / math.sqrt(k_b + ff_b) if k_b else 0.0
        if candidate > current or (ties and candidate == current):
            row_np = row_np - columns[b] if bits[b] else row_np + columns[b]
            row = row_np.tolist()
            k, sum_cf, sum_ff, current = k_b, cf_b, ff_b, candidate
            kept.append(b)
    return kept


def _sweep_climb(scan, ctx, positions, ties=False):
    """Visit exactly ``positions`` in order, keeping each flip whose merit
    beats the current one (or ties it, with ``ties``); a moved result is
    scanned afresh."""
    kept = python_sweep_climb(scan, [int(b) for b in positions], ties)
    return _flipped(scan, ctx, kept) if kept else scan


def sdhc(scan, ctx, bit_domain=ALL):
    """Move to the first in-domain flip of highest merit, if it is strictly
    better than the input."""
    top, top_merit = None, 0.0
    for b in domain_of(scan, bit_domain).tolist():
        merit = python_flip_merit(scan, b)
        if top is None or merit > top_merit:
            top, top_merit = b, merit
    return scan if top is None or not top_merit > scan.merit else _flipped(scan, ctx, top)


def nahc(scan, ctx, bit_domain=ALL):
    """Sweep the in-domain positions in ascending order."""
    return _sweep_climb(scan, ctx, domain_of(scan, bit_domain))


def dbhc(scan, ctx, bit_domain=ALL):
    """Sweep a fresh ``permutation(n)``, filtered by the domain."""
    order = np.asarray(ctx.rng.permutation(scan.bits.size))
    if bit_domain != ALL:
        order = order[scan.bits[order] == (bit_domain == ONES)]
    return _sweep_climb(scan, ctx, order)


def rmhc(scan, ctx, bit_domain=ALL):
    """Flip one drawn in-domain bit if the merit does not fall; an empty
    domain draws nothing and returns the input."""
    positions = domain_of(scan, bit_domain)
    if positions.size == 0:
        return scan
    j = int(ctx.rng.integers(positions.size))
    return _sweep_climb(scan, ctx, positions[j:j + 1], ties=True)


def swpd(scan, ctx):
    """Swap the bits at two distinct drawn dimensions."""
    n = scan.bits.size
    if n < 2:
        raise ValueError("swap needs at least 2 dimensions")
    i = int(ctx.rng.integers(n))
    j = int(ctx.rng.integers(n - 1))
    if j >= i:
        j += 1
    if scan.bits[i] == scan.bits[j]:
        return scan
    return _flipped(scan, ctx, [i, j])


def dimm(scan, ctx):
    """Flip one drawn dimension's bit if a ``random()`` coin is below 0.5."""
    b = int(ctx.rng.integers(scan.bits.size))
    if ctx.rng.random() < 0.5:
        return _flipped(scan, ctx, b)
    return scan


def _flip_coins(scan, ctx, rate):
    """Flip each bit whose ``random(n)`` coin is below rate, if any."""
    coins = ctx.rng.random(scan.bits.size) < rate
    if not coins.any():
        return scan
    return _flipped(scan, ctx, coins)


def hypm(scan, ctx):
    return _flip_coins(scan, ctx, 0.5)


def mutn(scan, ctx):
    return _flip_coins(scan, ctx, ctx.mutn_rate)


# heuristic id -> oracle(scan, ctx), in catalog order
ORACLE = {i: func for i, func in enumerate(
    [partial(rule, bit_domain=domain) for rule in (sdhc, nahc, dbhc, rmhc)
     for domain in (ALL, ZEROS, ONES)] + [swpd, dimm, hypm, mutn], start=1)}


def oracle_run_genes(genes, scan, ctx, stats):
    """A chromosome's genes left to right through the oracles, counting
    each call in the ``LlhStats`` ``stats`` as the engine does. Returns the
    final scan, ``scan`` itself when no heuristic moved."""
    for gene in np.asarray(genes).tolist():
        out = ORACLE[gene](scan, ctx)
        record_call(stats, gene, scan.merit, out.merit)
        scan = out
    return scan


# ------------------------------------------------------------- stub RNG

class StubRng:
    """Scripted stand-in for numpy's Generator: pops pre-seeded draws.

    ``integers`` entries are returned for integers(); ``randoms`` entries
    for random() (a scalar, or a sequence when random(size) is called);
    ``permutations`` entries for permutation().
    """

    def __init__(self, integers=(), randoms=(), permutations=()):
        self._integers = list(integers)
        self._randoms = list(randoms)
        self._permutations = list(permutations)

    def integers(self, low, high=None, size=None, dtype=None):
        value = self._integers.pop(0)
        if size is not None:
            return np.asarray(value)
        return value

    def random(self, size=None):
        value = self._randoms.pop(0)
        if size is not None:
            return np.asarray(value, dtype=np.float64)
        return float(value)

    def permutation(self, n):
        return np.asarray(self._permutations.pop(0))


@pytest.fixture
def small_dataset() -> Dataset:
    return synthetic_dataset(n_instances=40, n_features=8, n_informative=3, seed=3)
