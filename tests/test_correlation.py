import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (MeritScan, cache_from_values, class_correlation_twopass,
                      merit_from_cache_direct, merit_from_data, pearson_twopass,
                      random_cache, random_mask, synthetic_dataset)
from hhfs.correlation import CorrelationCache, build_cache, cfs_merit
from hhfs.dataset import Dataset
from hhfs.mask import FeatureMask


def cache_of(columns, labels):
    """``build_cache`` of a dataset with exactly these feature columns."""
    X = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    return build_cache(Dataset.from_arrays("t", X, labels))


def assert_matches_oracle(cache, d):
    """Every cache entry equals the two-pass definition within 1e-12."""
    X = d.features
    for i in range(d.n_features):
        assert cache.feature_class[i] == pytest.approx(
            class_correlation_twopass(X[:, i], d.labels), abs=1e-12)
        for j in range(d.n_features):
            assert cache.feature_feature[i, j] == pytest.approx(
                abs(pearson_twopass(X[:, i], X[:, j])), abs=1e-12)


class TestPearson:
    """The feature-feature entries of ``build_cache``: |r| of two columns."""

    def test_exact_linear_relation(self):
        ff = cache_of([[1, 2, 3], [2, 4, 6], [6, 4, 2]], [0, 1, 0]).feature_feature
        assert ff[0, 1] == 1.0
        assert ff[0, 2] == 1.0

    def test_hand_value(self):
        # covariance 4 over sqrt(5*5)
        ff = cache_of([[1, 2, 3, 4], [1, 3, 2, 4]], [0, 1, 0, 1]).feature_feature
        assert ff[0, 1] == pytest.approx(0.8, abs=1e-15)

    def test_zero_variance_convention(self):
        ff = cache_of([[1, 2, 3], [5, 5, 5]], [0, 1, 0]).feature_feature
        assert ff[0, 1] == ff[1, 0] == 0.0
        assert cache_of([[7, 7], [1, 2]], [0, 1]).feature_feature[0, 1] == 0.0

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ff = cache_of(rng.normal(size=(4, 9)), [0, 1] * 4 + [0]).feature_feature
            assert np.array_equal(ff, ff.T)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=12),
           st.floats(-4, 4).filter(lambda a: abs(a) > 1e-3),
           st.floats(-10, 10))
    def test_affine_relation(self, x, a, b):
        x = np.asarray(x)
        # a tiny spread relative to magnitude makes the affine relation
        # numerically meaningless (cancellation / variance underflow)
        assume(np.ptp(x) > 1e-3)
        ff = cache_of([x, a * x + b], np.arange(x.size) % 2).feature_feature
        assert ff[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_matches_twopass_definition(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = Dataset.from_arrays("t", rng.normal(size=(15, 5)), np.arange(15) % 3)
            assert_matches_oracle(build_cache(d), d)


class TestClassCorrelation:
    """The feature-class entries of ``build_cache``: the prior-weighted
    |r| of a feature against the one-vs-rest class indicators."""

    def test_perfect_separator(self):
        assert cache_of([[0, 0, 1, 1]], [0, 0, 1, 1]).feature_class[0] == 1.0

    def test_uninformative_feature(self):
        assert cache_of([[1, 2, 1, 2]], [0, 1, 1, 0]).feature_class[0] == 0.0

    def test_constant_feature(self):
        assert cache_of([[3, 3, 3, 3]], [0, 1, 0, 1]).feature_class[0] == 0.0

    def test_two_classes_give_the_point_biserial(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            feature = rng.normal(size=11)
            labels = rng.permutation(np.arange(11) % 2)
            assert cache_of([feature], labels).feature_class[0] == pytest.approx(
                abs(pearson_twopass(feature, labels.astype(float))), abs=1e-12)

    def test_multiclass_prior_weighted_average(self):
        feature = [0.0, 0.1, 1.0, 1.1, 2.0, 2.1]
        labels = [0, 0, 1, 1, 2, 2]
        expected = sum(
            (np.sum(np.array(labels) == c) / 6)
            * abs(pearson_twopass(feature, (np.array(labels) == c).astype(float)))
            for c in range(3))
        assert cache_of([feature], labels).feature_class[0] == pytest.approx(
            expected, abs=1e-14)

    def test_class_with_one_member(self):
        rng = np.random.default_rng(3)
        d = Dataset.from_arrays("t", rng.normal(size=(13, 4)), [0, 1, 2] * 4 + [3])
        assert_matches_oracle(build_cache(d), d)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.normal(size=20)
            y = rng.integers(0, 4, size=20)
            v = cache_of([f], y).feature_class[0]
            assert 0.0 <= v <= 1.0


class TestBuildCache:
    def test_shapes(self):
        d = synthetic_dataset(n_instances=25, n_features=2, seed=0)
        cache = build_cache(d)
        assert cache.feature_feature.shape == (2, 2)
        assert cache.feature_class.shape == (2,)

    def test_duplicated_column_fully_correlated(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        X[:, 2] = X[:, 0]
        d = Dataset.from_arrays("t", X, [0, 1] * 15)
        cache = build_cache(d)
        assert cache.feature_feature[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_unit_diagonal_and_range(self):
        d = synthetic_dataset(n_instances=40, n_features=7, seed=2)
        cache = build_cache(d)
        ff = cache.feature_feature
        np.testing.assert_allclose(ff, ff.T, atol=0)
        assert np.all((ff >= 0) & (ff <= 1))
        assert np.all(np.diag(ff) == 1.0)
        assert np.all((cache.feature_class >= 0) & (cache.feature_class <= 1))

    def test_constant_column_zeroed(self):
        X = np.random.default_rng(3).normal(size=(20, 3))
        X[:, 1] = 4.2
        d = Dataset.from_arrays("t", X, [0, 1] * 10)
        cache = build_cache(d)
        assert np.all(cache.feature_feature[1, :] == 0.0)
        assert np.all(cache.feature_feature[:, 1] == 0.0)
        assert cache.feature_class[1] == 0.0

    def test_entries_match_direct_pearson(self):
        d = synthetic_dataset(n_instances=30, n_features=5, seed=7)
        assert_matches_oracle(build_cache(d), d)

    def test_cache_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CorrelationCache(feature_feature=np.eye(3),
                             feature_class=np.zeros(2))


class TestCacheOwnsItsArrays:
    """The cache stores C-contiguous float64 copies, leaves the caller's
    arrays alone, and rejects entries that are not finite and non-negative."""

    def test_integer_input_is_stored_as_float64_copies(self):
        ff, fc = np.eye(3, dtype=int), np.array([1, 0, 1])
        cache = CorrelationCache(ff, fc)
        for stored, given in ((cache.feature_feature, ff), (cache.feature_class, fc)):
            assert stored.dtype == np.float64 and stored.flags.c_contiguous
            assert np.array_equal(stored, given) and not np.shares_memory(stored, given)
            assert not stored.flags.writeable
        assert ff.flags.writeable and fc.flags.writeable
        ff[0, 0] = 5
        assert cache.feature_feature[0, 0] == 1.0

    def test_fortran_order_input_is_stored_c_contiguous(self):
        ff = np.asfortranarray(random_cache(5, seed=3).feature_feature)
        cache = CorrelationCache(ff, np.full(5, 0.5))
        assert cache.feature_feature.flags.c_contiguous
        assert np.array_equal(cache.feature_feature, ff)

    def test_build_cache_arrays_keep_their_bytes(self):
        d = synthetic_dataset(n_instances=30, n_features=6, seed=8)
        cache = build_cache(d)
        again = CorrelationCache(cache.feature_feature, cache.feature_class)
        assert again.feature_feature.tobytes() == cache.feature_feature.tobytes()
        assert again.feature_class.tobytes() == cache.feature_class.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25])
    def test_non_finite_or_negative_entries_rejected(self, bad):
        ff, fc = np.eye(3), np.full(3, 0.5)
        ff_bad, fc_bad = ff.copy(), fc.copy()
        ff_bad[0, 2] = bad
        fc_bad[1] = bad
        with pytest.raises(ValueError, match="feature_feature entries must be finite and non-negative"):
            CorrelationCache(ff_bad, fc)
        with pytest.raises(ValueError, match="feature_class entries must be finite and non-negative"):
            CorrelationCache(ff, fc_bad)

    def test_all_nan_matrix_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            CorrelationCache(np.full((3, 3), np.nan), np.full(3, 0.5))

    def test_class_vector_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="N x N"):
            CorrelationCache(np.eye(1), np.zeros((1, 1)))


class TestCfsMerit:
    def test_single_feature_is_its_class_correlation(self):
        cache = cache_from_values([0.8, 0.3], np.eye(2))
        assert cfs_merit(FeatureMask([1, 0]), cache) == pytest.approx(0.8)

    def test_two_features_fully_redundant(self):
        cache = cache_from_values([0.8, 0.8], [[1.0, 1.0], [1.0, 1.0]])
        # 1.6 / sqrt(2 + 2*1)
        assert cfs_merit(FeatureMask([1, 1]), cache) == pytest.approx(0.8)

    def test_two_features_independent(self):
        cache = cache_from_values([0.8, 0.8], [[1.0, 0.0], [0.0, 1.0]])
        assert cfs_merit(FeatureMask([1, 1]), cache) == pytest.approx(
            1.6 / math.sqrt(2), abs=1e-12)

    def test_empty_mask_scores_zero(self):
        cache = random_cache(4, seed=1)
        assert cfs_merit(FeatureMask([0] * 4), cache) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cfs_merit(FeatureMask([1, 0, 1]), random_cache(4))

    def test_matches_direct_formula_on_random_masks(self):
        cache = random_cache(12, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(100):
            mask = random_mask(12, rng)
            assert cfs_merit(mask, cache) == pytest.approx(
                merit_from_cache_direct(mask.bits, cache), abs=1e-12)

    @pytest.mark.parametrize("n", [166, 34])
    def test_equals_scan_merit_bitwise(self, n):
        # one merit implementation: the local searches and the statistics
        # must score a mask identically, not merely within rounding
        cache = random_cache(n)
        rng = np.random.default_rng(n)
        for _ in range(200):
            mask = random_mask(n, rng)
            assert cfs_merit(mask, cache) == MeritScan(cache, mask.bits).merit

    def test_matches_cache_free_recomputation(self):
        d = synthetic_dataset(n_instances=35, n_features=8, seed=9)
        cache = build_cache(d)
        rng = np.random.default_rng(10)
        for _ in range(100):
            mask = random_mask(8, rng)
            assert cfs_merit(mask, cache) == pytest.approx(
                merit_from_data(mask.bits, d), abs=1e-12)

    def test_permutation_invariance(self):
        cache = random_cache(9, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(30):
            mask = random_mask(9, rng)
            perm = rng.permutation(9)
            permuted_cache = CorrelationCache(
                feature_feature=cache.feature_feature[np.ix_(perm, perm)].copy(),
                feature_class=cache.feature_class[perm].copy())
            permuted_mask = FeatureMask(mask.bits[perm])
            assert cfs_merit(permuted_mask, permuted_cache) == pytest.approx(
                cfs_merit(mask, cache), abs=1e-12)

    def test_adding_uncorrelated_feature_never_helps(self):
        # new feature: zero class correlation, redundancy equal to the
        # current average, so the merit denominator grows and the
        # numerator does not
        base_ff = 0.4
        n = 5
        ff = np.full((n, n), base_ff)
        cache = cache_from_values([0.7, 0.6, 0.5, 0.4, 0.0], ff)
        with_out = cfs_merit(FeatureMask([1, 1, 1, 1, 0]), cache)
        with_in = cfs_merit(FeatureMask([1, 1, 1, 1, 1]), cache)
        assert with_in < with_out
