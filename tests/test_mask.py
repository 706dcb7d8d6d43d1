import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import flip
from hhfs.mask import FeatureMask


def test_rejects_bad_bits():
    with pytest.raises(ValueError):
        FeatureMask([0, 2, 1])
    with pytest.raises(ValueError):
        FeatureMask([])
    with pytest.raises(ValueError):
        FeatureMask([[0, 1]])


@pytest.mark.parametrize("bits", [[0.5, 1], [1.7, 0], np.array([0.2, 1.0]),
                                  [-1, 0], [2.0, 1.0], [float("nan"), 1]])
def test_rejects_non_binary_values_before_casting(bits):
    # a bool cast first would have read 0.5, -1, 2.0 and nan as set bits
    with pytest.raises(ValueError, match="0 or 1"):
        FeatureMask(bits)


@pytest.mark.parametrize("bits", [[True, False, True], np.array([1, 0, 1]),
                                  [1.0, 0.0, 1.0], np.array([1, 0, 1], dtype=np.int8),
                                  np.array([True, False, True])])
def test_accepts_bools_and_zero_one_values(bits):
    mask = FeatureMask(bits)
    assert mask.to01() == "101" and mask.bits.dtype == np.bool_


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_key_is_one_byte_per_bit(bits):
    # the fitness memo is keyed by these bytes: 0 or 1 per bit, as a uint8
    # array of the bits gives them, whatever the stored item type
    mask = FeatureMask(bits)
    assert mask.key() == np.array(bits, dtype=np.uint8).tobytes()
    assert FeatureMask.from01(mask.to01()).key() == mask.key()


def test_does_not_share_or_freeze_the_callers_array():
    given = np.array([True, False, True])
    mask = FeatureMask(given)
    given[1] = True
    assert mask.to01() == "101" and given.flags.writeable


def test_random_single_feature_always_selected():
    # the all-zero repair forces [1] for N=1
    for seed in range(50):
        mask = FeatureMask.random(1, np.random.default_rng(seed))
        assert mask.bits.tolist() == [1]


def test_random_is_deterministic_for_fixed_seed():
    a = FeatureMask.random(34, np.random.default_rng(123))
    b = FeatureMask.random(34, np.random.default_rng(123))
    assert a == b


def test_random_mean_selected_count_is_binomial():
    rng = np.random.default_rng(0)
    counts = [FeatureMask.random(34, rng).selected_count() for _ in range(10000)]
    assert abs(np.mean(counts) - 17.0) < 1.0


def test_random_never_empty():
    rng = np.random.default_rng(9)
    for _ in range(200):
        assert FeatureMask.random(3, rng).selected_count() >= 1


def test_flip_examples():
    assert flip(FeatureMask([1, 0, 1]), 1) == FeatureMask([1, 1, 1])
    assert flip(FeatureMask([1, 0, 1]), 0) == FeatureMask([0, 0, 1])


def test_flip_does_not_touch_input():
    mask = FeatureMask([1, 0, 1])
    flip(mask, 2)
    assert mask.bits.tolist() == [1, 0, 1]


def test_flip_out_of_range():
    with pytest.raises(IndexError):
        flip(FeatureMask([1, 0]), 2)
    with pytest.raises(IndexError):
        flip(FeatureMask([1, 0]), -1)


@given(st.integers(1, 40), st.data())
def test_flip_involution_and_hamming(n, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    i = data.draw(st.integers(0, n - 1))
    mask = FeatureMask(bits)
    flipped = flip(mask, i)
    assert flip(flipped, i) == mask
    assert int(np.sum(mask.bits != flipped.bits)) == 1
    assert abs(flipped.selected_count() - mask.selected_count()) == 1


def test_selected_indices():
    assert FeatureMask([0, 1, 1, 0]).selected_indices().tolist() == [1, 2]
    assert FeatureMask([0, 0, 0]).selected_indices().tolist() == []
    assert FeatureMask([1, 1, 1, 1, 1]).selected_indices().tolist() == [0, 1, 2, 3, 4]


def test_string_round_trip():
    mask = FeatureMask([1, 0, 0, 1, 1])
    assert mask.to01() == "10011"
    assert FeatureMask.from01("10011") == mask


def test_bits_are_read_only():
    mask = FeatureMask([1, 0])
    with pytest.raises(ValueError):
        mask.bits[0] = 0
