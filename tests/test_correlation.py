import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (cache_from_values, merit_from_cache_direct,
                      merit_from_data, pearson_twopass, random_cache,
                      random_mask, synthetic_dataset)
from hhfs.correlation import (CorrelationCache, _MeritScan, build_cache,
                              cfs_merit, class_correlation, pearson)
from hhfs.dataset import Dataset
from hhfs.mask import FeatureMask


class TestPearson:
    def test_exact_linear_relation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0
        assert pearson([1, 2, 3], [6, 4, 2]) == -1.0

    def test_hand_value(self):
        # covariance 4 over sqrt(5*5)
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_zero_variance_convention(self):
        assert pearson([1, 2, 3], [5, 5, 5]) == 0.0
        assert pearson([7, 7], [1, 2]) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1], [2])

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=9)
            y = rng.normal(size=9)
            assert pearson(x, y) == pearson(y, x)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=12),
           st.floats(-4, 4).filter(lambda a: abs(a) > 1e-3),
           st.floats(-10, 10))
    def test_affine_relation(self, x, a, b):
        x = np.asarray(x)
        # a tiny spread relative to magnitude makes the affine relation
        # numerically meaningless (cancellation / variance underflow)
        assume(np.ptp(x) > 1e-3)
        assert pearson(x, a * x + b) == pytest.approx(math.copysign(1.0, a),
                                                      abs=1e-9)

    def test_matches_twopass_definition(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.normal(size=15)
            y = rng.normal(size=15)
            assert pearson(x, y) == pytest.approx(pearson_twopass(x, y), abs=1e-12)


class TestClassCorrelation:
    def test_perfect_separator(self):
        assert class_correlation([0, 0, 1, 1], [0, 0, 1, 1], 2) == 1.0

    def test_uninformative_feature(self):
        assert class_correlation([1, 2, 1, 2], [0, 1, 1, 0], 2) == 0.0

    def test_constant_feature(self):
        assert class_correlation([3, 3, 3, 3], [0, 1, 0, 1], 2) == 0.0

    def test_multiclass_prior_weighted_average(self):
        feature = [0.0, 0.1, 1.0, 1.1, 2.0, 2.1]
        labels = [0, 0, 1, 1, 2, 2]
        expected = sum(
            (np.sum(np.array(labels) == c) / 6)
            * abs(pearson_twopass(feature, (np.array(labels) == c).astype(float)))
            for c in range(3))
        assert class_correlation(feature, labels, 3) == pytest.approx(expected,
                                                                      abs=1e-14)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.normal(size=20)
            y = rng.integers(0, 4, size=20)
            v = class_correlation(f, y, 4)
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
        cache = build_cache(d)
        X = d.features
        for i in range(5):
            assert cache.feature_class[i] == pytest.approx(
                class_correlation(X[:, i], d.labels, d.class_count), abs=1e-12)
            for j in range(5):
                assert cache.feature_feature[i, j] == pytest.approx(
                    abs(pearson(X[:, i], X[:, j])), abs=1e-12)

    def test_cache_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CorrelationCache(feature_feature=np.eye(3),
                             feature_class=np.zeros(2))


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
            assert cfs_merit(mask, cache) == _MeritScan(cache, mask.bits).merit

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
