import re
import subprocess
import sys
import sysconfig
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from conftest import (cv_accuracy_bruteforce, cv_accuracy_cdist_reference,
                      predict_1nn, random_mask, synthetic_dataset)
from hhfs import correlation, evaluation
from hhfs.correlation import _climb
from hhfs.dataset import Dataset, DatasetError, min_max_normalize, stratified_folds
from hhfs.evaluation import CvProtocol, FitnessEvaluator, cv_accuracy, cv_accuracies
from hhfs.mask import FeatureMask


class TestPredict1nn:
    def test_nearest_of_two(self):
        train = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1])  # 0 = A, 1 = B
        assert predict_1nn(train, labels, np.array([0.1, 0.1]),
                           FeatureMask([1, 1])) == 0

    def test_mask_restricts_distance(self):
        # only feature 0 counts: 0.9 is closer to 1 than to 0
        train = np.array([[0.0, 5.0], [1.0, 9.0]])
        labels = np.array([0, 1])
        assert predict_1nn(train, labels, np.array([0.9, 5.0]),
                           FeatureMask([1, 0])) == 1

    def test_tie_breaks_to_lowest_training_index(self):
        train = np.array([[0.0], [2.0], [3.0], [2.0]])
        labels = np.array([1, 9, 9, 0])  # rows 1 and 3 are equidistant
        assert predict_1nn(train, labels, np.array([2.0]),
                           FeatureMask([1])) == 9

    def test_errors(self):
        with pytest.raises(ValueError):
            predict_1nn(np.empty((0, 2)), np.empty(0, dtype=int),
                        np.array([0.0, 0.0]), FeatureMask([1, 1]))
        with pytest.raises(ValueError):
            predict_1nn(np.array([[0.0, 0.0]]), np.array([0]),
                        np.array([0.0, 0.0]), FeatureMask([0, 0]))


class TestCvAccuracy:
    def test_empty_mask_scores_zero(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=1, base_seed=0)
        assert cv_accuracy(small_dataset, FeatureMask([0] * 8), proto) == 0.0

    def test_perfectly_separable_four_points(self):
        d = Dataset.from_arrays("toy", [[0.0], [0.1], [1.0], [0.9]],
                                [0, 0, 1, 1])
        # any stratified 2-fold split pairs each point with its classmate
        for seed in range(20):
            proto = CvProtocol(folds=2, repeats=1, base_seed=seed)
            assert cv_accuracy(d, FeatureMask([1]), proto) == 1.0

    def test_dimension_mismatch(self, small_dataset):
        with pytest.raises(ValueError):
            cv_accuracy(small_dataset, FeatureMask([1, 0]), CvProtocol(folds=2))

    def test_mask_checks_come_before_fold_building(self):
        # 10 folds cannot split 4 instances, but neither check needs folds
        d = Dataset.from_arrays("toy", [[0.0], [0.1], [1.0], [0.9]],
                                [0, 0, 1, 1])
        proto = CvProtocol(folds=10)
        assert cv_accuracy(d, FeatureMask([0]), proto) == 0.0
        with pytest.raises(ValueError, match="does not match"):
            cv_accuracy(d, FeatureMask([1, 0]), proto)

    def test_repeats_equal_mean_of_single_repeats(self, small_dataset):
        mask = FeatureMask([1, 1, 0, 1, 0, 0, 1, 0])
        multi = cv_accuracy(small_dataset, mask,
                            CvProtocol(folds=5, repeats=4, base_seed=11))
        singles = [cv_accuracy(small_dataset, mask,
                               CvProtocol(folds=5, repeats=1, base_seed=11 + r))
                   for r in range(4)]
        assert multi == sum(singles) / 4  # bitwise

    def test_protocols_sharing_folds_are_scored_once(self, small_dataset, monkeypatch):
        protocols = {"6x5": CvProtocol(folds=5, repeats=6, base_seed=11),
                     "2x5": CvProtocol(folds=5, repeats=2, base_seed=11),
                     "3x4": CvProtocol(folds=4, repeats=3, base_seed=11),
                     "2x5, seed 7": CvProtocol(folds=5, repeats=2, base_seed=7)}
        rng = np.random.default_rng(4)
        masks = [random_mask(8, rng) for _ in range(4)] + [FeatureMask([1] * 8),
                                                           FeatureMask([0] * 8)]
        for mask in masks:
            assert cv_accuracies(small_dataset, mask, protocols) == {
                label: cv_accuracy(small_dataset, mask, p)
                for label, p in protocols.items()}  # bitwise
        calls = []
        folds = evaluation.stratified_folds
        monkeypatch.setattr(evaluation, "stratified_folds",
                            lambda *args: calls.append(args) or folds(*args))
        cv_accuracies(small_dataset, masks[0], protocols)
        assert len(calls) == 6 + 3 + 2  # 2x5 reads the first two of 6x5's repeats

    def test_matches_per_query_bruteforce(self, small_dataset):
        rng = np.random.default_rng(5)
        for _ in range(5):
            mask = random_mask(8, rng)
            fast = cv_accuracy(small_dataset, mask,
                               CvProtocol(folds=4, repeats=2, base_seed=3))
            slow = cv_accuracy_bruteforce(small_dataset, mask, folds=4,
                                          repeats=2, base_seed=3)
            assert fast == slow

    def test_prediction_order_invariant_in_generic_position(self):
        # with all-distinct distances the argmin does not depend on
        # training-row order, so tie-breaking never kicks in
        rng = np.random.default_rng(21)
        train = rng.normal(size=(20, 5))
        labels = rng.integers(0, 3, size=20)
        mask = FeatureMask([1, 1, 1, 0, 1])
        for _ in range(20):
            query = rng.normal(size=5)
            base = predict_1nn(train, labels, query, mask)
            perm = rng.permutation(20)
            assert predict_1nn(train[perm], labels[perm], query, mask) == base

    def test_single_class_synthetic_scores_one(self):
        # class_count >= 2 is enforced at load; emulate the degenerate case
        # with two identical-label groups placed far apart
        d = Dataset.from_arrays("t", [[0.0], [0.01], [0.02], [5.0], [5.01], [5.02]],
                                [0, 0, 0, 1, 1, 1])
        proto = CvProtocol(folds=3, repeats=1, base_seed=0)
        assert cv_accuracy(d, FeatureMask([1]), proto) == 1.0

    def test_duplicated_selected_column_keeps_argmin(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(24, 4))
        X = np.hstack([X, X])  # every column duplicated once
        labels = rng.integers(0, 2, size=24)
        labels[:2] = [0, 1]
        d = Dataset.from_arrays("t", X, labels)
        proto = CvProtocol(folds=4, repeats=1, base_seed=1)
        single = cv_accuracy(d, FeatureMask([1, 1, 0, 1, 0, 0, 0, 0]), proto)
        doubled = cv_accuracy(d, FeatureMask([1, 1, 0, 1, 1, 1, 0, 1]), proto)
        assert single == doubled


class TestCvProtocol:
    def test_validation(self):
        with pytest.raises(ValueError):
            CvProtocol(folds=1)
        with pytest.raises(ValueError):
            CvProtocol(repeats=0)
        with pytest.raises(ValueError, match="^base_seed must be non-negative$"):
            CvProtocol(base_seed=-1)

    @pytest.mark.parametrize("field", ["folds", "repeats", "base_seed"])
    def test_counts_and_seed_must_be_integers(self, field):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            CvProtocol(**{field: 2.5})
        assert CvProtocol(**{field: np.int64(2)}) == CvProtocol(**{field: 2})

    @pytest.mark.parametrize("field", ["folds", "repeats", "base_seed"])
    def test_a_bool_is_no_count_or_seed(self, field):
        # operator.index(True) is 1: repeats=True would label itself "Truex10"
        with pytest.raises(TypeError, match="^a count or seed must be an int, not True$"):
            CvProtocol(**{field: True})

    def test_label(self):
        assert CvProtocol(folds=10, repeats=10).label() == "10x10"


class TestFitnessEvaluator:
    def test_memoization_skips_recomputation(self, small_dataset):
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=2))
        mask = FeatureMask([1, 0, 1, 0, 1, 0, 1, 0])
        first = ev.fitness(mask)
        assert (ev.computations, ev.hits) == (1, 0)
        second = ev.fitness(FeatureMask([1, 0, 1, 0, 1, 0, 1, 0]))
        assert second == first
        assert (ev.computations, ev.hits) == (1, 1)

    def test_distinct_masks_computed_independently(self, small_dataset):
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=2))
        ev.fitness(FeatureMask([1, 0, 1, 0, 1, 0, 1, 0]))
        ev.fitness(FeatureMask([1, 0, 1, 0, 1, 0, 1, 1]))
        assert ev.computations == 2

    def test_cache_transparency(self, small_dataset):
        rng = np.random.default_rng(3)
        masks = [random_mask(8, rng) for _ in range(10)] * 2
        proto = CvProtocol(folds=5, base_seed=4)
        cached = FitnessEvaluator(small_dataset, proto)
        assert ([cached.fitness(m) for m in masks]
                == [cv_accuracy(small_dataset, m, proto) for m in masks])
        distinct = len({m.key() for m in masks})
        assert cached.computations == distinct
        assert cached.hits == len(masks) - distinct


    def test_each_distinct_mask_computes_once_in_first_seen_order(self, small_dataset,
                                                                   monkeypatch):
        rng = np.random.default_rng(12)
        a, b, c = (random_mask(8, rng) for _ in range(3))
        assert len({a.key(), b.key(), c.key()}) == 3
        proto = CvProtocol(folds=5, base_seed=6)
        ev = FitnessEvaluator(small_dataset, proto)
        expected = [cv_accuracy(small_dataset, m, proto) for m in (a, b, a, c, b)]
        computed = []
        hits = FitnessEvaluator._hits

        def recording(self, bits, threads):
            computed.extend(np.flatnonzero(row).tolist() for row in bits)
            return hits(self, bits, threads)

        monkeypatch.setattr(FitnessEvaluator, "_hits", recording)
        first_seen = [m.selected_indices().tolist() for m in (a, b, c)]
        values = [ev.fitness(m) for m in (a, b, a, c, b)]
        assert values == expected
        assert (ev.computations, ev.hits) == (3, 2)
        assert computed == first_seen  # first-occurrence order, once each
        # memoized masks are hits and compute nothing
        assert [ev.fitness(c), ev.fitness(a)] == [values[3], values[0]]
        assert (ev.computations, ev.hits) == (3, 4)
        assert computed == first_seen

    def test_failing_fitness_call_leaves_counts_and_memo_unchanged(self, small_dataset):
        # both entry points: a one-row fitness and a wrong-width fitnesses
        # matrix; and fitnesses of what is not a 2-d bool matrix, among them
        # the memoized mask's bits as numbers, which must not be computed again
        good = FeatureMask([1, 0, 1, 0, 1, 0, 1, 0])
        narrow = np.array([[1, 0, 1], [0, 1, 1]], dtype=bool)
        width = "^mask over 3 features does not match dataset with 8$"
        kind = "^fitnesses needs a 2-d bool bits matrix, one mask per row$"
        for failing, message in [(lambda ev: ev.fitness(FeatureMask(narrow[0])), width),
                                 (lambda ev: ev.fitnesses(narrow), width),
                                 (lambda ev: ev.fitnesses(good.bits), kind),
                                 (lambda ev: ev.fitnesses(rows(good) * 1.0), kind),
                                 (lambda ev: ev.fitnesses(rows(good).astype(np.int64)), kind),
                                 (lambda ev: ev.fitnesses(rows(good) * np.uint8(2)), kind),
                                 (lambda ev: ev.fitnesses(rows(good).tolist()), kind)]:
            ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=6))
            ev.fitness(good)
            with pytest.raises(ValueError, match=message):
                failing(ev)
            assert (ev.computations, ev.hits) == (1, 0)
            assert list(ev._cache) == [good.key()]
            ev.fitness(good)
            assert (ev.computations, ev.hits) == (1, 1)


def rows(*masks: FeatureMask) -> np.ndarray:
    """The masks' bits as one bits matrix, a mask per row."""
    return np.array([m.bits for m in masks])


class TestFitnesses:
    """The batch path: a generation's bits matrix, its distinct new rows
    computed first, in one kernel call on ``helpers + 1`` threads, then
    stored in order as consecutive ``fitness`` calls would store them."""

    @pytest.mark.parametrize("helpers", [0, 1, 3])
    def test_repeats_are_hits_and_values_are_fresh_cv_accuracies(self, small_dataset,
                                                                   helpers):
        rng = np.random.default_rng(12)
        a, b, c = (random_mask(8, rng) for _ in range(3))
        assert len({a.key(), b.key(), c.key()}) == 3
        proto = CvProtocol(folds=5, base_seed=6)
        ev = FitnessEvaluator(small_dataset, proto)
        values = ev.fitnesses(rows(a, b, a, c, b), helpers + 1)
        fresh = [cv_accuracy(small_dataset, m, proto) for m in (a, b, a, c, b)]
        assert values.dtype == np.float64
        assert values.tobytes() == np.array(fresh).tobytes()
        assert (ev.computations, ev.hits) == (3, 2)
        assert list(ev._cache) == [a.key(), b.key(), c.key()]  # first-occurrence order

    def test_a_computation_raising_in_a_helper_leaves_memo_and_counters(self, small_dataset,
                                                                        monkeypatch):
        # the kernel computes on two threads and joins them, then the call raises
        rng = np.random.default_rng(5)
        masks = [random_mask(8, rng) for _ in range(6)]
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=6))
        ev.fitness(masks[0])
        hits = FitnessEvaluator._hits

        def failing_after_the_kernel(self, bits, threads):
            assert threads == 2
            hits(self, bits, threads)
            raise RuntimeError("a helper's computation failed")

        monkeypatch.setattr(FitnessEvaluator, "_hits", failing_after_the_kernel)
        threads = threading.enumerate()
        with pytest.raises(RuntimeError, match="^a helper's computation failed$"):
            ev.fitnesses(rows(*masks), 2)
        assert (ev.computations, ev.hits) == (1, 0)
        assert list(ev._cache) == [masks[0].key()]
        monkeypatch.setattr(FitnessEvaluator, "_hits", hits)
        assert (ev.fitnesses(rows(*masks), 2).tolist()
                == [ev.fitness(m) for m in masks])  # still usable
        assert threading.enumerate() == threads

    @pytest.mark.parametrize("helpers", [None, 0])
    def test_a_computation_raising_on_this_thread_leaves_memo_and_counters(
            self, small_dataset, monkeypatch, helpers):
        # three new rows, one kernel call computing them all and the call
        # then raising: the values, computed already, are not stored
        rng = np.random.default_rng(5)
        masks = [random_mask(8, rng) for _ in range(4)]
        assert len({m.key() for m in masks}) == 4
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=6))
        ev.fitness(masks[0])
        hits, calls = FitnessEvaluator._hits, []

        def failing(self, bits, threads):
            calls.append((bits.tolist(), threads))
            hits(self, bits, threads)
            raise RuntimeError("the second computation failed")

        monkeypatch.setattr(FitnessEvaluator, "_hits", failing)
        with pytest.raises(RuntimeError, match="^the second computation failed$"):
            ev.fitnesses(rows(*masks), *([] if helpers is None else [helpers + 1]))
        assert calls == [(rows(*masks[1:]).tolist(), 1)]
        assert (ev.computations, ev.hits) == (1, 0)
        assert list(ev._cache) == [masks[0].key()]

    def test_more_threads_than_cores_under_fast_switching(self):
        # every kernel thread computes into a work matrix of its own: a
        # shared one would mix two masks' distances and change some values
        d = synthetic_dataset(n_instances=200, n_features=30, n_informative=6, seed=9)
        rng = np.random.default_rng(21)
        masks = [random_mask(30, rng) for _ in range(40)] * 2
        proto = CvProtocol(folds=5, repeats=2, base_seed=3)
        alone = FitnessEvaluator(d, proto)
        expected = [alone.fitness(m) for m in masks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ev = FitnessEvaluator(d, proto)
                assert ev.fitnesses(rows(*masks), 6).tolist() == expected
                assert (ev.computations, ev.hits) == (alone.computations, alone.hits)
                assert ev._cache == alone._cache
        finally:
            sys.setswitchinterval(interval)


def test_accuracy_always_in_unit_interval(small_dataset):
    rng = np.random.default_rng(8)
    proto = CvProtocol(folds=6, repeats=1, base_seed=5)
    for _ in range(20):
        acc = cv_accuracy(small_dataset, random_mask(8, rng), proto)
        assert 0.0 <= acc <= 1.0


@st.composite
def tie_heavy_cases(draw):
    """Integer-level features with repeated rows, so many 1NN distances
    tie exactly; 2 or 6 classes; several masks over one protocol. Levels
    may be spaced by an inexact step on top of a large common offset,
    where a Gram product's cancellation is catastrophic, and a constant
    column may be present, so a mask can select nothing but constants."""
    class_count = draw(st.sampled_from([2, 6]))
    n_features = draw(st.integers(1, 5))
    levels = draw(st.integers(2, 4))
    row = st.lists(st.integers(0, levels - 1), min_size=n_features,
                   max_size=n_features)
    # one row beyond one per class, so no fold holds every row
    rows = draw(st.lists(row, min_size=class_count + 1, max_size=20))
    repeats_of = draw(st.lists(st.integers(0, len(rows) - 1), max_size=16))
    rows += [rows[i] for i in repeats_of]
    n = len(rows)
    labels = list(range(class_count)) + draw(st.lists(
        st.integers(0, class_count - 1), min_size=n - class_count,
        max_size=n - class_count))
    X = np.array(rows, dtype=np.float64)
    if draw(st.booleans()):
        X = np.hstack([X, np.full((n, 1), float(draw(st.integers(0, 3))))])
    X = draw(st.sampled_from([0.0, 1e6])) + X * draw(st.sampled_from([1.0, 0.1, 1e-3]))
    d = Dataset.from_arrays("ties", X, labels)
    proto = CvProtocol(folds=draw(st.integers(2, min(10, n))),
                       repeats=draw(st.sampled_from([1, 2, 3, 10])),
                       base_seed=draw(st.integers(0, 2**16)))
    bits = st.lists(st.integers(0, 1), min_size=d.n_features, max_size=d.n_features)
    masks = [FeatureMask(b) for b in draw(st.lists(bits, min_size=1, max_size=4))]
    return d, masks, proto


@settings(max_examples=200, deadline=None)
@given(tie_heavy_cases())
def test_fitness_equals_cdist_reference_exactly(case):
    d, masks, proto = case
    evaluator = FitnessEvaluator(d, proto)
    for mask in masks * 2:  # the second pass is served from the memo
        expected = cv_accuracy_cdist_reference(d, mask, proto)
        assert cv_accuracy(d, mask, proto) == expected
        assert evaluator.fitness(mask) == expected


def sqdist_data(kind: str, n: int, k: int, seed: int) -> np.ndarray:
    """An n x k matrix of one kind the exact distances must get right."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    if kind == "integer-levels":  # tie-heavy, as ordinal cells are
        X = rng.integers(0, 4, size=(n, k)).astype(float)
    elif kind == "duplicate-rows":
        X[n // 2:] = X[:n - n // 2]
    elif kind == "offset":  # steps of 0.01 around 1e6
        X = 1e6 + 0.01 * X
    elif kind == "scales":
        X *= 10.0 ** rng.uniform(-3, 3, size=k)
    return X


def sqdist(X: np.ndarray) -> np.ndarray:
    """The exact squared distances between the rows of X, as the kernel's
    ``nearest`` defines them: each column's terms rounded, then added in
    ascending column order (numpy fuses no multiply-add)."""
    out = np.zeros((len(X), len(X)))
    for column in X.T:
        t = column[:, None] - column
        out += t * t
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSqdist:
    """The exact distances ``nearest`` picks by (the ``sqdist`` oracle) are
    pdist's and cdist's "sqeuclidean", bit for bit; the kernel's neighbours
    are the oracle's argmins in the build the CPU runs and in the build
    without clones."""

    KINDS = ["random", "integer-levels", "duplicate-rows", "offset", "scales"]
    SHAPES = [(1, 1), (2, 1), (9, 1), (476, 1), (7, 3), (11, 4), (13, 5), (208, 60),
              (366, 34), (476, 166)]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_every_row_equals_pdist(self, kind, n, k):
        X = sqdist_data(kind, n, k, seed=n + k)
        assert same_bits(sqdist(X), squareform(pdist(X, "sqeuclidean")))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_any_rows_equal_cdist(self, kind, n, k):
        # the oracle over a subset of X's rows, or all of them in another
        # order or repeated, against cdist, which sums every entry
        X = sqdist_data(kind, n, k, seed=n * k)
        rng = np.random.default_rng(n)
        subsets = [[], [n - 1], np.sort(rng.choice(n, size=min(n, 20), replace=False)),
                   np.sort(rng.choice(n, size=(n + 1) // 2, replace=False)),
                   rng.permutation(n), [0] * n]
        for rows in subsets:
            Y = X[np.asarray(rows, dtype=np.int64)]
            assert same_bits(sqdist(Y), cdist(Y, Y, "sqeuclidean"))

    def test_no_columns_is_zero(self):
        assert same_bits(sqdist(np.empty((5, 0))), np.zeros((5, 5)))

    def test_build_without_clones_gives_the_same_bits(self, tmp_path, monkeypatch):
        """The kernel built from a copy of its source with the target_clones
        attribute removed, as a host without AVX-512 (or off x86-64 Linux
        with glibc) runs it, finds the oracle's neighbours, as the
        dispatched build does, so both builds a host can run are checked
        here. ``_load_climb`` builds the copy, with the package build's
        flags, into ``tmp_path``."""
        source = Path(correlation.__file__).with_name("_climb.c").read_text()
        stripped, count = re.subn(r"__attribute__\(\(target_clones\([^)]*\)\)\)", "", source)
        assert count == 1
        (tmp_path / "_climb.c").write_text(stripped)
        monkeypatch.setattr(correlation, "__file__", str(tmp_path / "correlation.py"))
        monkeypatch.setitem(sys.modules, "hhfs._climb", _climb)  # loading the copy replaces it
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        stale = tmp_path / "__pycache__" / f"_climb.0123456789abcdef{suffix}"
        stale.parent.mkdir()
        stale.write_bytes(b"")  # an older build, which the new one removes
        baseline = correlation._load_climb()
        assert Path(baseline.__file__).parent == tmp_path / "__pycache__"
        assert not stale.exists()
        symbols = subprocess.run(["nm", baseline.__file__], capture_output=True, text=True,
                                 check=True).stdout
        assert not re.search(r"\bnearest_rows\.", symbols)  # no clone, no resolver
        for span, offset in COPY_CASES:
            copy_pinned(baseline, copy_column(span, offset))
        edges = [(n, k) for n in TestFloat32Screen.EDGES for k in (1, 2, 17)]
        for n, k in [(476, 83), (208, 30), (366, 17), (7, 3), (13, 5), (211, 9), (474, 1),
                     *edges]:
            for kind in self.KINDS:
                d, proto = screen_case(sqdist_data(kind, n, k, seed=n + k))
                expected = reference_nearest(d, proto)
                assert np.array_equal(checked_nearest(baseline, FitnessEvaluator(d, proto)),
                                      expected)
                assert np.array_equal(mask_nearest(FitnessEvaluator(d, proto), np.arange(k),
                                                   baseline), expected)
                # and through the evaluator, whose module is the one patched in
                hits = np.count_nonzero(d.labels[expected] == d.labels, axis=1)[np.newaxis]
                everything = np.ones((1, k), dtype=bool)
                monkeypatch.setattr(evaluation, "_climb", baseline)
                assert np.array_equal(FitnessEvaluator(d, proto)._hits(everything, 2), hits)
                monkeypatch.setattr(evaluation, "_climb", _climb)
                assert np.array_equal(FitnessEvaluator(d, proto)._hits(everything, 2), hits)

    @pytest.mark.parametrize("case, message", [
        ("no-cc", "hhfs needs a C compiler: no `cc` on PATH to build {tmp}/_climb.c"),
        ("no-random-lib", "hhfs needs numpy's random C library: "
                          "no {tmp}/numpy/random/lib/libnpyrandom.a"),
        ("not-c", "hhfs: `cc` failed to build {tmp}/_climb.c: "),
        ("pycache-is-a-file", "hhfs: cannot build {tmp}/_climb.c into {tmp}/__pycache__: "
                              "[Errno 17] File exists: '{tmp}/__pycache__'"),
    ], ids=["no-cc", "no-random-lib", "not-c", "pycache-is-a-file"])
    def test_load_climb_refusals_are_one_import_error(self, tmp_path, monkeypatch, case,
                                                      message):
        """Each way the kernel cannot be built is one ImportError naming it, as
        README quotes them; the source is a copy in ``tmp_path``, as above."""
        source = Path(correlation.__file__).with_name("_climb.c").read_text()
        (tmp_path / "_climb.c").write_text("not C\n" if case == "not-c" else source)
        monkeypatch.setattr(correlation, "__file__", str(tmp_path / "correlation.py"))
        monkeypatch.setitem(sys.modules, "hhfs._climb", _climb)
        if case == "no-cc":
            monkeypatch.setattr(correlation.shutil, "which", lambda name: None)
        elif case == "no-random-lib":
            monkeypatch.setattr(np.random, "__file__",
                                str(tmp_path / "numpy" / "random" / "__init__.py"))
        elif case == "pycache-is-a-file":
            (tmp_path / "__pycache__").write_text("")
        with pytest.raises(ImportError) as info:
            correlation._load_climb()
        text, message = str(info.value), message.format(tmp=tmp_path)
        if case == "not-c":  # then the compiler's messages
            assert text.startswith(message) and "error" in text
        else:
            assert text == message


def offset_dataset(offset: float, seed: int = 4) -> Dataset:
    """120 rows over 6 features on 5 levels spaced 0.01 apart, plus a
    constant column: exact ties everywhere, and with a large offset the
    Gram entries cancel catastrophically."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(120, 6)) * 0.01
    X = np.hstack([X, np.full((120, 1), 0.5)]) + offset
    return Dataset.from_arrays("offset", X, rng.integers(0, 3, size=120))


class TestGramScreen:
    """Data that defeats a Gram-product screen of the distances
    (|x_i|^2 - 2 x_i.x_j + |x_j|^2): exact ties, near ties and cancellation
    under a large common offset, besides generic data. The exact distances
    must give the reference's neighbours on each."""

    def test_generic_data_is_exact(self, small_dataset):
        rng = np.random.default_rng(9)
        for proto in (CvProtocol(folds=10, repeats=1, base_seed=2),
                      CvProtocol(folds=10, repeats=10, base_seed=2)):
            ev = FitnessEvaluator(small_dataset, proto)
            for _ in range(10):
                mask = random_mask(8, rng)
                assert ev.fitness(mask) == cv_accuracy_cdist_reference(
                    small_dataset, mask, proto)
                assert cv_accuracy(small_dataset, mask, proto) == ev.fitness(mask)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_tie_heavy_data_is_exact(self, offset):
        d = offset_dataset(offset)
        proto = CvProtocol(folds=10, repeats=10, base_seed=3)
        ev = FitnessEvaluator(d, proto)
        rng = np.random.default_rng(1)
        for mask in [FeatureMask([1, 0, 0, 0, 0, 0, 0])] + [random_mask(7, rng) for _ in range(5)]:
            assert ev.fitness(mask) == cv_accuracy_cdist_reference(d, mask, proto)

    def test_every_row_ambiguous_with_only_constant_columns(self):
        d = offset_dataset(0.0)
        only_constant = FeatureMask([0, 0, 0, 0, 0, 0, 1])
        for repeats in (1, 10):
            proto = CvProtocol(folds=10, repeats=repeats, base_seed=5)
            ev = FitnessEvaluator(d, proto)
            expected = cv_accuracy_cdist_reference(d, only_constant, proto)
            assert ev.fitness(only_constant) == expected
            assert cv_accuracy(d, only_constant, proto) == expected

    def test_large_offset_full_mask_matches_reference(self):
        # every column selected: distances from 0.01 steps on top of 7e12
        d = offset_dataset(1e6, seed=8)
        for repeats in (1, 10):
            proto = CvProtocol(folds=10, repeats=repeats, base_seed=repeats)
            for mask in (FeatureMask.ones(7), FeatureMask([1, 1, 1, 1, 1, 1, 0])):
                assert cv_accuracy(d, mask, proto) == cv_accuracy_cdist_reference(
                    d, mask, proto)

    def test_near_ties_under_a_large_offset(self):
        # rows 0.1 apart around 1e6: a Gram product's rounding error is the
        # size of the gaps between a row's nearest neighbours
        mask = FeatureMask.ones(5)
        proto = CvProtocol(folds=10, repeats=1, base_seed=0)
        for seed in (2, 5, 6):
            rng = np.random.default_rng(seed)
            d = Dataset.from_arrays("near", 1e6 + 0.1 * rng.normal(size=(120, 5)),
                                    rng.integers(0, 3, size=120))
            assert cv_accuracy(d, mask, proto) == cv_accuracy_cdist_reference(
                d, mask, proto)

    def test_distances_that_overflow_refuse_the_dataset(self):
        # every off-diagonal distance would be inf, and each row's argmin
        # row 0, in the row's own fold or the row itself
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.permutation(40), rng.permutation(40)]) * 1e200
        d = Dataset.from_arrays("vast", X, np.arange(40) % 2)
        proto, mask = CvProtocol(folds=5), FeatureMask.ones(2)
        for score in (lambda: FitnessEvaluator(d, proto), lambda: cv_accuracy(d, mask, proto),
                      lambda: cv_accuracies(d, mask, {"1x5": proto})):
            with pytest.raises(DatasetError, match="^vast: the feature ranges are too wide"):
                score()
        normalized = min_max_normalize(d)
        assert cv_accuracy(normalized, mask, proto) == \
            cv_accuracy_cdist_reference(normalized, mask, proto)

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_is_named_not_blamed_on_the_ranges(self, cell):
        # Dataset itself checks nothing; from_arrays would refuse the cell
        X = np.random.default_rng(0).uniform(size=(20, 3))
        X[4, 1] = X[7, 2] = cell
        d = Dataset("t", X, np.arange(20) % 2)
        proto, mask = CvProtocol(folds=5), FeatureMask.ones(3)
        for score in (lambda: FitnessEvaluator(d, proto), lambda: cv_accuracy(d, mask, proto),
                      lambda: cv_accuracies(d, mask, {"1x5": proto})):
            with pytest.raises(DatasetError,
                               match="^t: feature column 1 holds a non-finite value$"):
                score()

    @staticmethod
    def edge_dataset(above: bool) -> Dataset:
        """40 rows over 2 columns, each spanning [0, reach]: the largest
        reach whose two squares sum to at most ``_DISTANCE_MAX``, or the
        next double ``above`` it."""
        reach = np.sqrt(evaluation._DISTANCE_MAX / 2)
        while 2 * reach ** 2 > evaluation._DISTANCE_MAX:
            reach = np.nextafter(reach, 0.0)
        while 2 * np.nextafter(reach, np.inf) ** 2 <= evaluation._DISTANCE_MAX:
            reach = np.nextafter(reach, np.inf)
        if above:
            reach = np.nextafter(reach, np.inf)
        X = np.random.default_rng(3).uniform(size=(40, 2))
        X[:2] = [[0.0, 1.0], [1.0, 0.0]]
        d = Dataset.from_arrays("edge", reach * X, np.arange(40) % 2)
        assert np.array_equal(np.ptp(d.features, axis=0), [reach, reach])
        return d

    def test_distances_just_below_the_overflow_edge_are_exact(self):
        d = self.edge_dataset(above=False)
        assert np.square(np.ptp(d.features, axis=0)).sum() <= evaluation._DISTANCE_MAX
        mask = FeatureMask.ones(2)
        for proto in (CvProtocol(folds=5), CvProtocol(folds=5, repeats=3, base_seed=1)):
            expected = cv_accuracy_cdist_reference(d, mask, proto)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert FitnessEvaluator(d, proto).fitness(mask) == expected
                assert cv_accuracy(d, mask, proto) == expected
                assert cv_accuracy(d, FeatureMask([1, 0]), proto) == \
                    cv_accuracy_cdist_reference(d, FeatureMask([1, 0]), proto)

    def test_distances_just_above_the_overflow_edge_refuse_the_dataset(self):
        d = self.edge_dataset(above=True)
        assert np.square(np.ptp(d.features, axis=0)).sum() > evaluation._DISTANCE_MAX
        proto, mask = CvProtocol(folds=5), FeatureMask.ones(2)
        for score in (lambda: FitnessEvaluator(d, proto), lambda: cv_accuracy(d, mask, proto),
                      lambda: cv_accuracies(d, mask, {"1x5": proto})):
            with pytest.raises(DatasetError, match="^edge: the feature ranges are too wide"):
                score()


def reference_nearest(d: Dataset, proto: CvProtocol, idx=None) -> np.ndarray:
    """Per repeat, the argmins of ``sqdist``'s matrix over the columns idx
    (all by default), each row's same-fold cells set to inf, from freshly
    built folds: the neighbours the float32 screen must find."""
    D = sqdist(d.features if idx is None else d.features[:, idx])
    folds = [stratified_folds(d, proto.folds, proto.base_seed + r) for r in range(proto.repeats)]
    return np.stack([np.where(f[:, None] == f, np.inf, D).argmin(axis=1) for f in folds])


def work_for(n: int, threads: int = 1, fill: float | None = None) -> np.ndarray:
    """A (threads, n, w) float32 work for the kernel, w being n rounded up
    to its lanes: uninitialized, or ``fill`` throughout."""
    shape = (threads, n, -(-n // _climb.SCREEN_LANES) * _climb.SCREEN_LANES)
    return np.empty(shape, np.float32) if fill is None else np.full(shape, fill, np.float32)


def mask_nearest(ev: FitnessEvaluator, idx, climb=_climb) -> np.ndarray:
    """The kernel's neighbours for ``ev``'s folds and the one mask selecting
    its columns ``idx``: a one-mask batch on one thread, (repeats, n)."""
    n = ev.dataset.n_instances
    bits = np.zeros((1, ev.dataset.n_features), dtype=bool)
    bits[0, idx] = True
    out = np.empty((1, len(ev._folds), n), np.int64)
    climb.nearest(ev._columns, ev._low, ev._span, ev._folds, bits, work_for(n), out)
    return out[0]


def nearest_in_folds(ev: FitnessEvaluator, folds, climb=_climb) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's neighbours over all of ``ev``'s columns for the given
    fold rows (one label per instance) in place of the protocol's, and its
    float32 screen distances (work, -1 wherever the kernel leaves it: no
    distance is negative, and -1 is not the NaN it must write), from a
    one-mask batch on one thread."""
    n = ev.dataset.n_instances
    work = work_for(n, fill=-1.0)
    out = np.empty((1, len(folds), n), np.int64)
    every = np.ones((1, ev.dataset.n_features), dtype=bool)
    climb.nearest(ev._columns, ev._low, ev._span, np.asarray(folds, dtype=np.int32), every,
                  work, out)
    return out[0], work[0]


def checked_nearest(climb, ev: FitnessEvaluator) -> np.ndarray:
    """``climb.nearest``'s neighbours over all of ``ev``'s columns and folds,
    once its work matrix is checked: each pair is summed once and stored
    both ways, so work[:n, :n] is finite, non-negative and symmetric bit for
    bit off the diagonal, and the diagonal and the padded columns n..w-1 are
    NaN."""
    n = ev.dataset.n_instances
    out, work = nearest_in_folds(ev, ev._folds, climb)
    square, off = work[:, :n], ~np.eye(n, dtype=bool)
    assert (np.isfinite(square[off]) & (square[off] >= 0)).all()
    assert np.array_equal(square.view(np.uint32)[off], square.T.view(np.uint32)[off])
    assert np.isnan(np.diag(square)).all() and np.isnan(work[:, n:]).all()
    return out


def copy_pinned(climb, x: np.ndarray) -> int:
    """Check ``climb.nearest``'s work for the one column ``x`` off the
    diagonal, bit for bit, against the float32 squares of numpy's copy y:
    x less its least value, times the 2^e that takes its range to at most
    1, rounded once to float32. One term per pair, so fused or not, the
    same bits. Returns e."""
    d, proto = screen_case(x[:, None])
    ev = FitnessEvaluator(d, proto)
    _, work = nearest_in_folds(ev, ev._folds, climb)
    e = -int(np.frexp(x.max() - x.min())[1])
    y = np.ldexp(x - x.min(), e).astype(np.float32)
    off = ~np.eye(len(x), dtype=bool)
    expected = np.square(y[:, None] - y)
    assert np.array_equal(work[:, :len(x)][off].view(np.uint32), expected[off].view(np.uint32))
    return e


COPY_CASES = [(span, offset) for span in (1e-310, 1e-160, 1.0, 1e150)
              for offset in (0.0, -7.0, 1e6)]


def copy_column(span: float, offset: float) -> np.ndarray:
    """37 rows, one column: offset plus span times uniform draws."""
    return offset + span * np.random.default_rng(5).uniform(size=37)


def screen_case(X: np.ndarray) -> tuple[Dataset, CvProtocol]:
    """X as a two-class dataset and a three-repeat protocol that leaves
    every row a training row in another fold."""
    n = len(X)
    d = Dataset.from_arrays("screen", X, (np.arange(n) // 2) % 2)
    return d, CvProtocol(folds=min(10, n - 1), repeats=3, base_seed=n)


@st.composite
def near_tie_cases(draw):
    """Rows with a second candidate within a few float32 ulps of a row's
    nearest, or exact ties on a coarse grid, at an offset and a scale that
    put the features outside [0, 1] or far from 0; several masks."""
    n = draw(st.integers(3, 70))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-1.0, 1.0, size=(n, k))
    if draw(st.booleans()):
        X = np.round(X * draw(st.sampled_from([1, 2, 4])))  # exact ties on a grid
    for _ in range(draw(st.integers(0, n))):
        q, a, b = rng.choice(n, size=3, replace=False)
        l = int(rng.integers(k))
        X[b] = X[a]
        X[b, l] = 2 * X[q, l] - X[a, l]  # as far from q as a is, in exact arithmetic
        ulps = draw(st.integers(-4, 4))  # then a few float32 ulps nearer or farther
        X[b, l] += ulps * np.spacing(np.float32(X[b, l] - X[q, l]))
    X = draw(st.sampled_from([0.0, -7.0, 1e6])) + X * draw(
        st.sampled_from([1.0, 1e-3, 1e3, 1e-160, 1e150]))
    d, proto = screen_case(X)
    bits = st.lists(st.integers(0, 1), min_size=k, max_size=k).filter(any)
    return d, proto, [np.flatnonzero(b) for b in draw(st.lists(bits, min_size=1, max_size=3))]


class TestFloat32Screen:
    """The float32 screen and its float64 refinement (``_climb.nearest``)
    find, per repeat, the argmins of ``sqdist``'s matrix with each row's
    same-fold cells set to inf. The n cover fewer rows than the screen's 16
    lanes and counts on both sides of a multiple of 16; TestSqdist's build
    without clones checks that build's neighbours too, and its work matrix
    at the EDGES."""

    SHAPES = [(3, 1), (5, 3), (15, 1), (16, 4), (17, 2), (31, 5), (33, 1), (47, 3),
              (208, 30), (366, 17), (476, 83)]
    # n on both sides of the screen's 4-row block and 16-column tile edges
    EDGES = [15, 16, 17, 19, 20, 31, 32, 33, 47, 49]

    @pytest.mark.parametrize("kind", TestSqdist.KINDS)
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_neighbours_are_the_masked_sqdist_argmins(self, kind, n, k):
        X = sqdist_data(kind, n, k, seed=n * k + 1)
        d, proto = screen_case(X)
        ev = FitnessEvaluator(d, proto)
        rng = np.random.default_rng(n)
        for idx in [np.arange(k), random_mask(k, rng).selected_indices(), [k - 1]]:
            idx = np.asarray(idx)
            assert np.array_equal(mask_nearest(ev, idx), reference_nearest(d, proto, idx))

    @pytest.mark.parametrize("k", [1, 2, 17])
    @pytest.mark.parametrize("n", EDGES)
    def test_work_holds_each_pair_both_ways_and_nan_elsewhere(self, n, k):
        # a transposed store at a wrong index fails here, even where it never
        # lands on a row's nearest column
        for kind in TestSqdist.KINDS:
            d, proto = screen_case(sqdist_data(kind, n, k, seed=n + k))
            assert np.array_equal(checked_nearest(_climb, FitnessEvaluator(d, proto)),
                                  reference_nearest(d, proto))

    @settings(max_examples=300, deadline=None)
    @given(near_tie_cases())
    def test_near_ties_and_exact_ties_keep_the_reference_neighbours(self, case):
        d, proto, masks = case
        ev = FitnessEvaluator(d, proto)
        for idx in masks:
            assert np.array_equal(mask_nearest(ev, idx), reference_nearest(d, proto, idx))

    def test_distances_that_underflow_in_float64_keep_the_reference_neighbours(self):
        # squared differences near 1e-320 are subnormal in float64, where the
        # sums' rounding is absolute, while the scaled float32 copy sees
        # them plainly: the bound must then leave every column in reach
        rng = np.random.default_rng(7)
        for scale in (1e-160, 1e-155, 1e-170, 1e-310):  # the last, subnormal features
            d, proto = screen_case(scale * rng.normal(size=(60, 4)))
            ev = FitnessEvaluator(d, proto)
            for idx in ([0, 1, 2, 3], [2]):
                assert np.array_equal(mask_nearest(ev, idx), reference_nearest(d, proto, idx))

    def test_terms_the_float32_sum_drops_keep_the_reference_neighbour(self):
        # row 2 is nearer row 0 than row 1 is only through 60 terms of row
        # 1's, each under half a float32 ulp of its first term, which the
        # float32 sum drops: the bound's float32 summation error must cover them
        delta = np.sqrt(0.9 * 2.0 ** -24)
        X = np.zeros((3, 61))
        X[1] = delta
        X[1, 0] = 1.0
        X[2, 0] = np.sqrt(1.0 + 30 * delta ** 2)
        ev = FitnessEvaluator(Dataset.from_arrays("dropped", X, [0, 1, 1]), CvProtocol(folds=2))
        out, screened = nearest_in_folds(ev, [[0, 1, 1]])  # row 0 against rows 1 and 2
        assert screened[0, 1] < screened[0, 2] and sqdist(X)[0, 2] < sqdist(X)[0, 1]
        assert out[0, 0] == 2

    def test_rows_whose_lanes_all_lead_to_their_own_fold_scan_every_column(self):
        # rows 0-15 and 32 (one fold) lie near 0, rows 16-31 (the other)
        # near 1: rows 0 and 32 find their own fold's row first in each of
        # the 16 lanes, so the least distance in another fold is not a lane's
        X = np.where((np.arange(33) < 16) | (np.arange(33) == 32), 0.0, 1.0)
        X = (X + 0.001 * np.arange(33) * (1 - 2 * X))[:, None]
        ev = FitnessEvaluator(Dataset.from_arrays("lanes", X, np.arange(33) % 2),
                              CvProtocol(folds=2))
        f = X[:, 0] > 0.5
        out, _ = nearest_in_folds(ev, [f])
        assert np.array_equal(out[0], np.where(f[:, None] == f, np.inf, sqdist(X)).argmin(axis=1))
        assert out[0, 0] == out[0, 32] == 31

    def test_helper_threads_find_what_one_thread_finds(self):
        # every thread count, more threads than masks too, under fast
        # switching: each mask taken off the cursor once, every row of out
        # written (it starts at -1), each mask's rows one thread's bits and
        # the reference's
        d = synthetic_dataset(n_instances=200, n_features=30, n_informative=6, seed=4)
        proto = CvProtocol(folds=10, repeats=2, base_seed=1)
        rng = np.random.default_rng(3)
        ev = FitnessEvaluator(d, proto)
        bits = np.array([random_mask(30, rng).bits for _ in range(24)])
        M, n = len(bits), d.n_instances
        found = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 3, M, M + 3):
                out = np.full((M, proto.repeats, n), -1, np.int64)
                _climb.nearest(ev._columns, ev._low, ev._span, ev._folds, bits,
                               work_for(n, threads), out)
                found[threads] = out
        finally:
            sys.setswitchinterval(interval)
        for threads, out in found.items():
            assert (out >= 0).all()
            assert out.tobytes() == found[1].tobytes(), threads
        for mask, out in zip(bits, found[1]):
            assert np.array_equal(out, reference_nearest(d, proto, np.flatnonzero(mask)))

    @pytest.mark.parametrize("span, offset", COPY_CASES)
    def test_the_copy_is_each_column_less_its_least_value_times_one_power_of_two(self, span,
                                                                                 offset):
        # 1e-310 at offset 0 takes 2^e past the largest double: two factors
        e = copy_pinned(_climb, copy_column(span, offset))
        assert (e > 1023) == (span == 1e-310 and offset == 0.0)

    def test_kernel_refuses_what_it_cannot_screen(self):
        d, proto = screen_case(sqdist_data("random", 20, 3, seed=1))
        ev = FitnessEvaluator(d, proto)
        columns, low, span = ev._columns, ev._low, ev._span
        masks = np.ones((1, 3), dtype=bool)
        work, out = work_for(20, threads=2), np.empty((1, 3, 20), np.int64)
        good = [columns, low, span, ev._folds, masks, work, out]
        assert _climb.nearest(*good) is None
        assert np.array_equal(out[0], reference_nearest(d, proto))

        def refused(position, value, error=ValueError, count=7):
            # the kernel refuses before it writes: work and out are as they were
            args = list(good)
            args[position] = value
            before = [args[5].tobytes(), args[6].tobytes()]
            with pytest.raises(error) as info:
                _climb.nearest(*args[:count])
            assert [args[5].tobytes(), args[6].tobytes()] == before
            return str(info.value)

        assert refused(0, columns, TypeError, count=6).endswith("takes 7 arguments, 6 given")
        assert "columns must hold float64" in refused(0, columns.astype(np.float32))
        assert "columns must be C-contiguous" in refused(0, np.asfortranarray(columns))
        assert "bytes-like object is required" in refused(0, columns.tolist(), TypeError)
        for position in (5, 6):
            read_only = good[position].copy()
            read_only.flags.writeable = False
            assert "read-only" in refused(position, read_only)
        assert "low must hold float64" in refused(1, low.astype(np.float32))
        assert "must hold int32" in refused(3, ev._folds.astype(np.int64))
        assert "masks must hold bools" in refused(4, masks.astype(np.uint8))
        assert refused(5, work[0]) == "work must have 3 dimension(s), not 2"
        assert refused(6, out[0]) == "out must have 3 dimension(s), not 2"
        assert refused(1, low[:2].copy()) == "low has length 2 along axis 0, expected 3"
        assert refused(2, np.ones(4)) == "span has length 4 along axis 0, expected 3"
        shapes = [(3, np.zeros((3, 32), np.int32)), (4, np.ones((1, 2), dtype=bool)),
                  (5, work_for(20)[:, :, :20].copy()), (5, work_for(20)[:0]),
                  (6, np.empty((1, 2, 20), np.int64)), (6, np.empty((2, 3, 20), np.int64))]
        for position, value in shapes:
            assert "needs (R, 20) folds, (M, 3) masks, a (T, 20, 32) work" in refused(position,
                                                                                     value)
        one_fold = ev._folds.copy()
        one_fold[1] = 4
        assert refused(3, one_fold) == "folds[1] puts every row in one fold"
        for position, value in [(1, np.where(low == low[0], np.nan, low)),
                                (1, np.where(low == low[0], -np.inf, low)),
                                (2, np.where(span == span[0], np.inf, span)),
                                (2, np.where(span == span[0], np.nan, span)),
                                (2, np.where(span == span[0], -span, span))]:
            assert refused(position, value) == \
                "low must be finite, and span finite and at least 0"
        in_work = work.view(np.int64).reshape(-1)[:60].reshape(1, 3, 20)
        in_out = out.view(np.bool_).reshape(-1)[:3].reshape(1, 3)
        in_work_masks = work.view(np.bool_).reshape(-1)[:3].reshape(1, 3)
        for position, value in [(6, in_work), (4, in_out), (4, in_work_masks)]:
            assert refused(position, value) == "work and out must overlap no other buffer"

    def test_low_and_span_other_than_the_columns_give_neighbours_in_range(self):
        # the kernel checks low and span in O(N), not against the columns:
        # any finite ones still give every row a column of another fold
        d, proto = screen_case(sqdist_data("scales", 40, 4, seed=2))
        ev = FitnessEvaluator(d, proto)
        everything = np.ones((1, 4), dtype=bool)
        folds = ev._folds
        for low, span in [(ev._low + 1e3, ev._span), (ev._low, np.zeros(4)),
                          (ev._low - 1e300, ev._span * 1e-300), (ev._low, ev._span + 1e300)]:
            out = np.full((1, len(folds), 40), -1, np.int64)
            _climb.nearest(ev._columns, low, span, folds, everything, work_for(40), out)
            assert ((out >= 0) & (out < 40)).all()
            assert (np.take_along_axis(folds, out[0], axis=1) != folds).all()


class TestDegenerateFolds:
    def test_classes_smaller_than_the_fold_count_leave_folds_empty(self):
        # classes of 3 and 4 over 6 folds: folds 4 and 5 stay empty
        d = Dataset.from_arrays("small", [[0.0], [0.2], [0.4], [1.0], [1.1],
                                          [1.3], [0.3]], [0, 0, 0, 1, 1, 1, 1])
        proto = CvProtocol(folds=6, repeats=3, base_seed=2)
        ev = FitnessEvaluator(d, proto)
        assert all(np.bincount(stratified_folds(d, 6, 2 + r), minlength=6)[4:].sum() == 0
                   for r in range(3))
        expected = cv_accuracy_cdist_reference(d, FeatureMask([1]), proto)
        assert ev.fitness(FeatureMask([1])) == expected
        assert expected == cv_accuracy_bruteforce(d, FeatureMask([1]), 6, 3, 2)

    def test_as_many_folds_as_instances(self):
        d = Dataset.from_arrays("six", [[0.0], [0.3], [0.1], [1.0], [0.9], [0.6]],
                                [0, 0, 0, 1, 1, 1])
        proto = CvProtocol(folds=6, repeats=2, base_seed=1)
        assert cv_accuracy(d, FeatureMask([1]), proto) == \
            cv_accuracy_bruteforce(d, FeatureMask([1]), 6, 2, 1)

    def test_a_fold_holding_every_instance_fails_early(self):
        # one member per class: stratified dealing puts all in fold 0
        d = Dataset.from_arrays("singletons", [[0.0], [1.0], [2.0]], [0, 1, 2])
        with pytest.raises(DatasetError, match=r"singletons: 1x3 CV puts all 3 "
                                               r"instances in one fold"):
            FitnessEvaluator(d, CvProtocol(folds=3))
        with pytest.raises(DatasetError, match="no training rows"):
            cv_accuracy(d, FeatureMask([1]), CvProtocol(folds=2))
