import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cv_accuracy_bruteforce, cv_accuracy_cdist_reference,
                      random_mask)
from hhfs.dataset import Dataset
from hhfs.evaluation import CvProtocol, FitnessEvaluator, cv_accuracy, predict_1nn
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
        assert cv_accuracy(small_dataset, FeatureMask.zeros(8), proto) == 0.0

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
        assert cv_accuracy(d, FeatureMask.zeros(1), proto) == 0.0
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

    def test_label(self):
        assert CvProtocol(folds=10, repeats=10).label() == "10x10"


class TestFitnessEvaluator:
    def test_memoization_skips_recomputation(self, small_dataset):
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=2))
        mask = FeatureMask([1, 0, 1, 0, 1, 0, 1, 0])
        first = ev(mask)
        assert (ev.computations, ev.hits) == (1, 0)
        second = ev(FeatureMask([1, 0, 1, 0, 1, 0, 1, 0]))
        assert second == first
        assert (ev.computations, ev.hits) == (1, 1)

    def test_distinct_masks_computed_independently(self, small_dataset):
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=2))
        ev(FeatureMask([1, 0, 1, 0, 1, 0, 1, 0]))
        ev(FeatureMask([1, 0, 1, 0, 1, 0, 1, 1]))
        assert ev.computations == 2

    def test_cache_transparency(self, small_dataset):
        rng = np.random.default_rng(3)
        masks = [random_mask(8, rng) for _ in range(10)] * 2
        proto = CvProtocol(folds=5, base_seed=4)
        cached = FitnessEvaluator(small_dataset, proto)
        assert ([cached(m) for m in masks]
                == [cv_accuracy(small_dataset, m, proto) for m in masks])
        distinct = len({m.key() for m in masks})
        assert cached.computations == distinct
        assert cached.hits == len(masks) - distinct


    def test_batch_memo_counts_as_sequential_calls(self, small_dataset):
        rng = np.random.default_rng(12)
        a, b, c = (random_mask(8, rng) for _ in range(3))
        assert len({a.key(), b.key(), c.key()}) == 3
        proto = CvProtocol(folds=5, base_seed=6)
        ev = FitnessEvaluator(small_dataset, proto)
        computed = []

        def recording_map(fn, masks):
            masks = list(masks)
            computed.extend(masks)
            return map(fn, masks)

        values = ev.fitnesses([a, b, a, c, b], recording_map)
        assert values == [cv_accuracy(small_dataset, m, proto) for m in (a, b, a, c, b)]
        assert (ev.computations, ev.hits) == (3, 2)
        assert computed == [a, b, c]  # first-occurrence order, once each
        # memoized masks are hits and reach no map
        assert ev.fitnesses([c, a], recording_map) == [values[3], values[0]]
        assert (ev.computations, ev.hits) == (3, 4)
        assert computed == [a, b, c]
        assert ev(b) == values[1] and (ev.computations, ev.hits) == (3, 5)

    def test_batch_failure_leaves_counts_and_memo_unchanged(self, small_dataset):
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=6))
        good = FeatureMask([1, 0, 1, 0, 1, 0, 1, 0])
        with pytest.raises(ValueError, match="does not match"):
            ev.fitnesses([good, FeatureMask([1, 0, 1])])
        assert (ev.computations, ev.hits) == (0, 0)
        ev(good)
        assert (ev.computations, ev.hits) == (1, 0)


def test_accuracy_always_in_unit_interval(small_dataset):
    rng = np.random.default_rng(8)
    proto = CvProtocol(folds=6, repeats=1, base_seed=5)
    for _ in range(20):
        acc = cv_accuracy(small_dataset, random_mask(8, rng), proto)
        assert 0.0 <= acc <= 1.0


@st.composite
def tie_heavy_cases(draw):
    """Integer-level features with repeated rows, so many 1NN distances
    tie exactly; 2 or 6 classes; several masks over one protocol."""
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
    d = Dataset.from_arrays("ties", rows, labels)
    proto = CvProtocol(folds=draw(st.integers(2, min(10, n))),
                       repeats=draw(st.integers(1, 3)),
                       base_seed=draw(st.integers(0, 2**16)))
    bits = st.lists(st.integers(0, 1), min_size=n_features, max_size=n_features)
    masks = [FeatureMask(b) for b in draw(st.lists(bits, min_size=1, max_size=4))]
    return d, masks, proto


@settings(max_examples=150, deadline=None)
@given(tie_heavy_cases())
def test_fitness_equals_cdist_reference_exactly(case):
    d, masks, proto = case
    evaluator = FitnessEvaluator(d, proto)
    for mask in masks * 2:  # the second pass is served from the memo
        expected = cv_accuracy_cdist_reference(d, mask, proto)
        assert cv_accuracy(d, mask, proto) == expected
        assert evaluator(mask) == expected
