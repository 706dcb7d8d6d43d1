import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from conftest import (cv_accuracy_bruteforce, cv_accuracy_cdist_reference,
                      predict_1nn, random_mask)
from hhfs import evaluation
from hhfs.correlation import _climb
from hhfs.dataset import Dataset, DatasetError, min_max_normalize
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


    def test_batch_memo_counts_as_sequential_calls(self, small_dataset, monkeypatch):
        rng = np.random.default_rng(12)
        a, b, c = (random_mask(8, rng) for _ in range(3))
        assert len({a.key(), b.key(), c.key()}) == 3
        proto = CvProtocol(folds=5, base_seed=6)
        ev = FitnessEvaluator(small_dataset, proto)
        computed = []
        compute = FitnessEvaluator.compute

        def recording(self, mask):
            computed.append(mask)
            return compute(self, mask)

        monkeypatch.setattr(FitnessEvaluator, "compute", recording)
        values = [ev.fitness(m) for m in (a, b, a, c, b)]
        assert values == [cv_accuracy(small_dataset, m, proto) for m in (a, b, a, c, b)]
        assert (ev.computations, ev.hits) == (3, 2)
        assert computed == [a, b, c]  # first-occurrence order, once each
        # memoized masks are hits and compute nothing
        assert [ev.fitness(c), ev.fitness(a)] == [values[3], values[0]]
        assert (ev.computations, ev.hits) == (3, 4)
        assert computed == [a, b, c]

    def test_failing_fitness_call_leaves_counts_and_memo_unchanged(self, small_dataset):
        ev = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=6))
        good = FeatureMask([1, 0, 1, 0, 1, 0, 1, 0])
        ev.fitness(good)
        with pytest.raises(ValueError, match="does not match"):
            ev.fitness(FeatureMask([1, 0, 1]))
        assert (ev.computations, ev.hits) == (1, 0)
        assert list(ev._cache) == [good.key()]
        ev.fitness(good)
        assert (ev.computations, ev.hits) == (1, 1)


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
    where the Gram screen's cancellation is catastrophic, and a constant
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
        assert evaluator.compute(mask) == expected


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


def sqdist(X: np.ndarray, rows) -> np.ndarray:
    """The kernel's squared distances from ``rows`` of X to every row."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.full((rows.size, len(X)), np.nan)
    assert _climb.sqdist(np.ascontiguousarray(X.T), rows, out) is None
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSqdist:
    """The kernel's exact distances are pdist's and cdist's "sqeuclidean",
    bit for bit, for every row and for any rows."""

    KINDS = ["random", "integer-levels", "duplicate-rows", "offset", "scales"]
    SHAPES = [(1, 1), (2, 1), (9, 1), (476, 1), (7, 3), (208, 60), (366, 34), (476, 166)]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_every_row_equals_pdist(self, kind, n, k):
        X = sqdist_data(kind, n, k, seed=n + k)
        assert same_bits(sqdist(X, range(n)), squareform(pdist(X, "sqeuclidean")))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_any_rows_equal_cdist(self, kind, n, k):
        X = sqdist_data(kind, n, k, seed=n * k)
        rng = np.random.default_rng(n)
        subsets = [[], [n - 1], np.sort(rng.choice(n, size=min(n, 20), replace=False)),
                   np.sort(rng.choice(n, size=(n + 1) // 2, replace=False)),
                   rng.permutation(n), [0] * n]  # n rows in another order, repeated
        for rows in subsets:
            rows = np.asarray(rows, dtype=np.int64)
            assert same_bits(sqdist(X, rows), cdist(X[rows], X, "sqeuclidean"))

    def test_no_columns_is_zero(self):
        assert same_bits(sqdist(np.empty((5, 0)), [0, 3]), np.zeros((2, 5)))


def offset_dataset(offset: float, seed: int = 4) -> Dataset:
    """120 rows over 6 features on 5 levels spaced 0.01 apart, plus a
    constant column: exact ties everywhere, and with a large offset the
    Gram entries cancel catastrophically."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(120, 6)) * 0.01
    X = np.hstack([X, np.full((120, 1), 0.5)]) + offset
    return Dataset.from_arrays("offset", X, rng.integers(0, 3, size=120))


class TestGramScreen:
    """The screen must give pdist's neighbours whatever the data; where it
    leaves too many rows undecided it stops screening."""

    def test_generic_data_is_screened_and_exact(self, small_dataset):
        rng = np.random.default_rng(9)
        for proto in (CvProtocol(folds=10, repeats=1, base_seed=2),
                      CvProtocol(folds=10, repeats=10, base_seed=2)):
            ev = FitnessEvaluator(small_dataset, proto)
            for _ in range(10):
                mask = random_mask(8, rng)
                assert ev.compute(mask) == cv_accuracy_cdist_reference(
                    small_dataset, mask, proto)
                assert cv_accuracy(small_dataset, mask, proto) == ev.compute(mask)
            assert ev._screening

    def test_few_ambiguous_rows_are_resolved_exactly(self, monkeypatch):
        # generic rows plus three copies under other labels: rows whose
        # nearest neighbour is a copied pair tie, and the rest do not
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 4))
        X[[40, 41, 42]] = X[[10, 20, 30]]
        labels = rng.integers(0, 2, size=80)
        labels[[40, 41, 42]] = 1 - labels[[10, 20, 30]]
        d = Dataset.from_arrays("copies", X, labels)
        resolved = []

        def counting_sqdist(columns, rows, out):
            resolved.append(len(rows))
            return _climb.sqdist(columns, rows, out)

        monkeypatch.setattr(evaluation, "_climb", SimpleNamespace(sqdist=counting_sqdist))
        for repeats in (1, 10):
            proto = CvProtocol(folds=10, repeats=repeats, base_seed=1)
            ev = FitnessEvaluator(d, proto)
            assert ev.compute(FeatureMask.ones(4)) == cv_accuracy_cdist_reference(
                d, FeatureMask.ones(4), proto)
            assert ev._screening
        assert resolved and all(0 < rows <= 20 for rows in resolved)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_tie_heavy_data_turns_the_screen_off(self, offset):
        d = offset_dataset(offset)
        proto = CvProtocol(folds=10, repeats=10, base_seed=3)
        ev = FitnessEvaluator(d, proto)
        assert ev.compute(FeatureMask([1, 0, 0, 0, 0, 0, 0])) == \
            cv_accuracy_cdist_reference(d, FeatureMask([1, 0, 0, 0, 0, 0, 0]), proto)
        assert not ev._screening
        rng = np.random.default_rng(1)
        for _ in range(5):  # the exact path from now on
            mask = random_mask(7, rng)
            assert ev.compute(mask) == cv_accuracy_cdist_reference(d, mask, proto)
        assert not ev._screening

    def test_every_row_ambiguous_with_only_constant_columns(self):
        d = offset_dataset(0.0)
        only_constant = FeatureMask([0, 0, 0, 0, 0, 0, 1])
        for repeats in (1, 10):
            proto = CvProtocol(folds=10, repeats=repeats, base_seed=5)
            ev = FitnessEvaluator(d, proto)
            expected = cv_accuracy_cdist_reference(d, only_constant, proto)
            assert ev.compute(only_constant) == expected
            assert cv_accuracy(d, only_constant, proto) == expected
            assert not ev._screening

    def test_large_offset_full_mask_matches_reference(self):
        # every column selected: distances from 0.01 steps on top of 7e12
        d = offset_dataset(1e6, seed=8)
        for repeats in (1, 10):
            proto = CvProtocol(folds=10, repeats=repeats, base_seed=repeats)
            for mask in (FeatureMask.ones(7), FeatureMask([1, 1, 1, 1, 1, 1, 0])):
                assert cv_accuracy(d, mask, proto) == cv_accuracy_cdist_reference(
                    d, mask, proto)

    def test_near_ties_under_a_large_offset(self):
        # rows 0.1 apart around 1e6: the screen's rounding error is the
        # size of the gaps between a row's nearest neighbours
        mask = FeatureMask.ones(5)
        proto = CvProtocol(folds=10, repeats=1, base_seed=0)
        for seed in (2, 5, 6):
            rng = np.random.default_rng(seed)
            d = Dataset.from_arrays("near", 1e6 + 0.1 * rng.normal(size=(120, 5)),
                                    rng.integers(0, 3, size=120))
            assert cv_accuracy(d, mask, proto) == cv_accuracy_cdist_reference(
                d, mask, proto)

    def test_huge_values_skip_the_screen(self):
        # 16 max |x|^2 overflows: no screen for this mask, and no warning
        X = np.array([[1e153, 0.0], [2e153, 1.0], [-1e153, 0.5], [3e153, 0.2]])
        d = Dataset.from_arrays("huge", X, [0, 1, 0, 1])
        proto = CvProtocol(folds=2, repeats=2, base_seed=0)
        ev = FitnessEvaluator(d, proto)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ev.compute(FeatureMask([1, 1])) == \
                cv_accuracy_cdist_reference(d, FeatureMask([1, 1]), proto)
        assert ev._screening

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


class TestDegenerateFolds:
    def test_classes_smaller_than_the_fold_count_leave_folds_empty(self):
        # classes of 3 and 4 over 6 folds: folds 4 and 5 stay empty
        d = Dataset.from_arrays("small", [[0.0], [0.2], [0.4], [1.0], [1.1],
                                          [1.3], [0.3]], [0, 0, 0, 1, 1, 1, 1])
        proto = CvProtocol(folds=6, repeats=3, base_seed=2)
        ev = FitnessEvaluator(d, proto)
        assert all(np.bincount(f, minlength=6)[4:].sum() == 0 for f in ev._folds)
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
