import math
import operator
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from conftest import (HILL_CLIMBER_IDS, MUTATIONAL_IDS, ORACLE, MeritScan,
                      OracleContext, StubRng, best_flip_oracle,
                      cache_from_values, domain_of, exhaustive_best_mask, flip,
                      oracle_run_genes, python_sweep_climb, random_cache,
                      random_mask, sequential_scan, sweep_reference,
                      synthetic_dataset)
from hhfs import llh
from hhfs.correlation import build_cache, cfs_merit
from hhfs.llh import ALL, ONES, ZEROS, CATALOG, NUM_LLH, LlhContext, _climb
from hhfs.mask import FeatureMask
from hhfs.supervisor import LlhStats

ID_OF = {info.name: i for i, info in CATALOG.items()}


def make_ctx(cache, rng=None, mutn_rate=0.1):
    return LlhContext(cache=cache,
                      rng=rng if rng is not None else np.random.default_rng(0),
                      mutn_rate=mutn_rate)


def on_masks(name, oracle=False):
    """The catalog heuristic ``name`` as a function of masks, called
    through ``llh.apply``, or through its Python oracle, which also takes
    a scripted ``StubRng``; hill-climbers take a bit domain."""
    def call(mask, ctx, bit_domain=ALL):
        llh_id = ID_OF[name + ("" if bit_domain == ALL else f"-{bit_domain}")]
        if not oracle:
            return llh.apply(llh_id, mask, ctx)
        scan = MeritScan(ctx.cache, mask.bits)
        out = ORACLE[llh_id](scan, ctx)
        return mask if out is scan else out.mask()
    return call


def on_scans(llh_id):
    """The catalog heuristic ``llh_id`` as a function of oracle scans,
    called through ``llh.apply`` on the scan's mask: the input scan when
    the mask comes back, else a fresh scan of the output bits."""
    def call(scan, ctx):
        mask = scan.mask()
        out = llh.apply(llh_id, mask, ctx)
        return scan if out is mask else MeritScan(scan.cache, out.bits)
    return call


NAMES = ("SDHC", "NAHC", "DBHC", "RMHC", "SWPD", "DIMM", "HYPM", "MUTN")
sdhc, nahc, dbhc, rmhc, swpd, dimm, hypm, mutn = map(on_masks, NAMES)
oracle = dict(zip(NAMES, (on_masks(name, oracle=True) for name in NAMES)))


def stub_ctx(cache, stub, mutn_rate=0.1):
    """A context for the oracles, drawing from the scripted ``stub``."""
    return OracleContext(cache, stub, mutn_rate)


def scan_fields(scan):
    """A scan's state, as bytes where it is an array, for bitwise checks."""
    return (scan.bits.tobytes(), scan.k, scan.sum_cf, scan.sum_ff, scan.row.tobytes())


class TestCatalog:
    def test_sixteen_heuristics(self):
        assert sorted(CATALOG) == list(range(1, 17))
        assert len(HILL_CLIMBER_IDS) == 12
        assert len(MUTATIONAL_IDS) == 4
        assert [CATALOG[i].name for i in (13, 14, 15, 16)] == [
            "SWPD", "DIMM", "HYPM", "MUTN"]

    def test_unknown_id_rejected(self):
        ctx = make_ctx(random_cache(4))
        with pytest.raises(ValueError):
            llh.apply(0, FeatureMask([1, 0, 1, 0]), ctx)
        with pytest.raises(ValueError):
            llh.apply(17, FeatureMask([1, 0, 1, 0]), ctx)

    def test_non_integral_id_rejected_before_any_draw(self):
        # int(1.7) would run SDHC, and a bool is no heuristic id
        mask = FeatureMask([1, 0, 1, 0])
        for bad in (1.7, 1.0, True, np.True_, np.float64(3.0), "1", None):
            ctx = make_ctx(random_cache(4))
            state = ctx.rng.bit_generator.state
            with pytest.raises(ValueError, match=f"^unknown low-level heuristic id {bad}$"):
                llh.apply(bad, mask, ctx)
            assert ctx.rng.bit_generator.state == state
        for llh_id in (np.int64(15), np.uint8(15), 15):
            out = llh.apply(llh_id, mask, make_ctx(random_cache(4), np.random.default_rng(3)))
            assert out == llh.apply(15, mask, make_ctx(random_cache(4), np.random.default_rng(3)))

    def test_mask_of_another_size_rejected(self):
        # the message cfs_merit gives, not the kernel's buffer check
        for n in (3, 6):
            mask = FeatureMask([1, 0, 1, 0, 1, 1][:n])
            message = f"^mask over {n} features does not match cache of 5$"
            with pytest.raises(ValueError, match=message):
                cfs_merit(mask, random_cache(5))
            for llh_id in (1, 16):
                with pytest.raises(ValueError, match=message):
                    llh.apply(llh_id, mask, make_ctx(random_cache(5)))

    def test_inputs_never_mutated(self):
        cache = random_cache(10, seed=3)
        rng = np.random.default_rng(5)
        for llh_id in range(1, 17):
            mask = random_mask(10, rng)
            before = mask.bits.copy()
            llh.apply(llh_id, mask, make_ctx(cache, np.random.default_rng(7)))
            np.testing.assert_array_equal(mask.bits, before)

    def test_replay_is_bit_exact(self):
        cache = random_cache(10, seed=4)
        for llh_id in range(1, 17):
            mask = random_mask(10, np.random.default_rng(llh_id))
            out1 = llh.apply(llh_id, mask, make_ctx(cache, np.random.default_rng(99)))
            out2 = llh.apply(llh_id, mask, make_ctx(cache, np.random.default_rng(99)))
            assert out1 == out2

    def test_unmoved_output_is_input(self):
        # a heuristic that changes no bit returns its input object, so
        # callers can skip re-scoring it by identity
        rng = np.random.default_rng(21)
        unmoved = np.zeros(17, dtype=int)
        for n in (2, 3, 9, 34):
            cache = random_cache(n, seed=n)
            for trial in range(60):
                mask = random_mask(n, rng)
                for llh_id in range(1, 17):
                    ctx = make_ctx(cache, np.random.default_rng([n, trial, llh_id]))
                    out = llh.apply(llh_id, mask, ctx)
                    if np.array_equal(out.bits, mask.bits):
                        assert out is mask, CATALOG[llh_id].name
                        unmoved[llh_id] += 1
                    else:
                        assert out is not mask
        # every heuristic declined to move at least once (n = 2 and 3
        # give SWPD equal bits and HYPM/MUTN coinless draws)
        assert unmoved[1:].min() > 0, unmoved

    def test_gene_boundary_returns_input_or_fresh_scan(self):
        # a heuristic hands the next one either its input mask, untouched,
        # or a mask of its own: read-only bools the input does not share,
        # which the kernel scans afresh when the next gene starts
        rng = np.random.default_rng(22)
        moved = np.zeros(17, dtype=int)
        for n in (2, 3, 9, 34):
            cache = random_cache(n, seed=100 + n)
            for trial in range(40):
                mask = FeatureMask(rng.integers(0, 2, size=n))
                before = mask.key()
                with pytest.raises(ValueError):
                    mask.bits[0] = not mask.bits[0]
                for llh_id in range(1, 17):
                    ctx = make_ctx(cache, np.random.default_rng([n, trial, llh_id]))
                    out = llh.apply(llh_id, mask, ctx)
                    assert mask.key() == before, CATALOG[llh_id].name
                    if np.array_equal(out.bits, mask.bits):
                        assert out is mask, CATALOG[llh_id].name
                    else:
                        assert out.bits.dtype == np.bool_ and not out.bits.flags.writeable
                        assert not np.shares_memory(out.bits, mask.bits)
                        moved[llh_id] += 1
        assert moved[1:].min() > 0, moved

    def test_mutn_rate_validation(self):
        with pytest.raises(ValueError):
            make_ctx(random_cache(3), mutn_rate=0.0)
        with pytest.raises(ValueError):
            make_ctx(random_cache(3), mutn_rate=1.0)


class TestSdhc:
    def test_matches_exhaustive_neighborhood_argmax(self):
        cache = random_cache(9, seed=10)
        ctx = make_ctx(cache)
        rng = np.random.default_rng(11)
        for _ in range(200):
            mask = random_mask(9, rng)
            out = sdhc(mask, ctx)
            best_bit, best_merit = best_flip_oracle(mask, cache, range(9))
            if best_merit > cfs_merit(mask, cache):
                assert out == flip(mask, best_bit)
            else:
                assert out == mask

    @pytest.mark.parametrize("bit_domain", [ALL, ZEROS, ONES])
    def test_matches_oracle_on_tie_heavy_caches(self, bit_domain):
        # entries from {0, 1/4, 1/2}: every merit sum is exact, so equal
        # neighbors tie bitwise in the scan and in the oracle alike
        rng = np.random.default_rng(17)
        ties_taken = 0
        for _ in range(300):
            fc = rng.integers(0, 3, size=7) / 4.0
            upper = np.triu(rng.integers(0, 3, size=(7, 7)) / 4.0, 1)
            cache = cache_from_values(fc, upper + upper.T)
            mask = random_mask(7, rng)
            positions = {ALL: range(7), ZEROS: np.flatnonzero(mask.bits == 0),
                         ONES: np.flatnonzero(mask.bits)}[bit_domain]
            out = sdhc(mask, make_ctx(cache), bit_domain=bit_domain)
            best_bit, best_merit = best_flip_oracle(mask, cache, positions)
            if best_merit > cfs_merit(mask, cache):
                assert out == flip(mask, best_bit)
                ties_taken += sum(cfs_merit(flip(mask, int(b)), cache) == best_merit
                                  for b in positions) > 1
            else:
                assert out == mask
        assert ties_taken > 10

    def test_single_selected_bit_flip_scores_zero(self):
        # dropping the only selected feature leaves k == 0, merit 0.0,
        # which is never strictly better and never hides a better flip
        for fc0 in (0.0, 0.5):
            cache = cache_from_values([fc0, 0.3, 0.7], np.zeros((3, 3)))
            mask = FeatureMask([1, 0, 0])
            assert best_flip_oracle(mask, cache, [0]) == (0, 0.0)
            assert sdhc(mask, make_ctx(cache), bit_domain=ONES) == mask
            assert sdhc(mask, make_ctx(cache)) == FeatureMask([1, 0, 1])

    def test_vector_scan_equals_scalar_scan_bitwise(self):
        def scalar_flip_merit(scan, b):
            # the flip formula on one position: a 1-bit leaves k - 1
            # features and loses its class and cross sums, a 0-bit adds them
            if scan.bits[b]:
                k = scan.k - 1
                sum_cf = scan.sum_cf - scan.cache.feature_class[b]
                sum_ff = scan.sum_ff - 2.0 * (scan.row[b] - scan.cache.diagonal[b])
            else:
                k = scan.k + 1
                sum_cf = scan.sum_cf + scan.cache.feature_class[b]
                sum_ff = scan.sum_ff + 2.0 * scan.row[b]
            return 0.0 if k == 0 else sum_cf / math.sqrt(k + sum_ff)

        rng = np.random.default_rng(18)
        for n in (1, 2, 9, 40):
            cache = random_cache(n, seed=n)
            for _ in range(20):
                bits = rng.integers(0, 2, size=n)
                scan = MeritScan(cache, bits)
                vector = sign_form_flip_merits(scan, np.arange(n))
                assert vector.tolist() == [scalar_flip_merit(scan, b) for b in range(n)]

    def test_unique_improving_bit_is_taken(self):
        cache = cache_from_values([0.1, 0.1, 0.9], np.eye(3))
        ctx = make_ctx(cache)
        out = sdhc(FeatureMask([1, 1, 0]), ctx)
        assert out == FeatureMask([1, 1, 1])

    def test_zeros_variant_on_all_ones_is_identity(self):
        cache = random_cache(5, seed=12)
        out = sdhc(FeatureMask.ones(5), make_ctx(cache), bit_domain=ZEROS)
        assert out == FeatureMask.ones(5)

    def test_local_optimum_is_fixed_point(self):
        cache = random_cache(7, seed=13)
        ctx = make_ctx(cache)
        mask = random_mask(7, np.random.default_rng(14))
        # drive to a local optimum, then one more call must not move
        for _ in range(50):
            nxt = sdhc(mask, ctx)
            if nxt == mask:
                break
            mask = nxt
        assert sdhc(mask, ctx) == mask
        _, best_neighbor = best_flip_oracle(mask, cache, range(7))
        assert cfs_merit(mask, cache) >= best_neighbor

    def test_domain_variants_respect_domain(self):
        cache = random_cache(8, seed=15)
        ctx = make_ctx(cache)
        rng = np.random.default_rng(16)
        for _ in range(100):
            mask = random_mask(8, rng)
            grown = sdhc(mask, ctx, bit_domain=ZEROS)
            shrunk = sdhc(mask, ctx, bit_domain=ONES)
            assert grown.selected_count() >= mask.selected_count()
            assert shrunk.selected_count() <= mask.selected_count()

    def test_tie_breaks_to_lowest_flipped_index(self):
        # two identical candidate features: flipping either gives the same
        # merit, so the lower index must win
        fc = np.array([0.5, 0.5, 0.5])
        ff = np.zeros((3, 3))
        cache = cache_from_values(fc, ff)
        out = sdhc(FeatureMask([0, 0, 1]), make_ctx(cache))
        assert out == FeatureMask([1, 0, 1])


class TestNahc:
    def test_no_improving_flip_is_identity(self):
        cache = cache_from_values([0.9, 0.8], [[1.0, 0.0], [0.0, 1.0]])
        mask = FeatureMask([1, 1])
        assert nahc(mask, make_ctx(cache)) == mask

    def test_multiple_flips_in_one_call(self):
        # adding feature 0 improves (1.6/sqrt(2) > 0.7), dropping feature 1
        # does not (0.9 < 1.6/sqrt(2)), adding feature 2 improves further
        cache = cache_from_values([0.9, 0.7, 0.8], np.zeros((3, 3)))
        out = nahc(FeatureMask([0, 1, 0]), make_ctx(cache))
        assert out == FeatureMask([1, 1, 1])

    def test_scan_order_is_low_to_high(self):
        # bit 0 first: merit 0.6; then the fully redundant pair scores
        # (0.6+0.59)/2 = 0.595 < 0.6, so bit 1 is rejected
        cache = cache_from_values([0.6, 0.59], [[1.0, 1.0], [1.0, 1.0]])
        out = nahc(FeatureMask([0, 0]), make_ctx(cache))
        assert out == FeatureMask([1, 0])

    def test_merit_never_decreases(self):
        cache = random_cache(10, seed=20)
        ctx = make_ctx(cache)
        rng = np.random.default_rng(21)
        for _ in range(200):
            mask = random_mask(10, rng)
            for domain in (ALL, ZEROS, ONES):
                out = nahc(mask, ctx, bit_domain=domain)
                assert cfs_merit(out, cache) >= cfs_merit(mask, cache)

    def test_matches_independent_sweep_replay(self):
        cache = random_cache(8, seed=22)
        ctx = make_ctx(cache)
        rng = np.random.default_rng(23)
        for _ in range(100):
            mask = random_mask(8, rng)
            expected = mask
            for b in range(8):
                candidate = flip(expected, b)
                if cfs_merit(candidate, cache) > cfs_merit(expected, cache):
                    expected = candidate
            assert nahc(mask, ctx) == expected


class TestDbhc:
    def test_identity_permutation_equals_nahc(self):
        cache = random_cache(6, seed=30)
        rng = np.random.default_rng(31)
        for _ in range(50):
            mask = random_mask(6, rng)
            forced = StubRng(permutations=[np.arange(6)])
            out = oracle["DBHC"](mask, stub_ctx(cache, forced))
            assert out == nahc(mask, make_ctx(cache))

    def test_no_improving_flip_identity_for_any_permutation(self):
        cache = cache_from_values([0.9, 0.8], [[1.0, 0.0], [0.0, 1.0]])
        mask = FeatureMask([1, 1])
        for seed in range(30):
            out = dbhc(mask, make_ctx(cache, np.random.default_rng(seed)))
            assert out == mask

    def test_merit_never_decreases_over_permutations(self):
        cache = random_cache(8, seed=32)
        mask = random_mask(8, np.random.default_rng(33))
        base = cfs_merit(mask, cache)
        for seed in range(100):
            out = dbhc(mask, make_ctx(cache, np.random.default_rng(seed)))
            assert cfs_merit(out, cache) >= base

    def test_follows_given_permutation(self):
        # same cache as the NAHC order test; visiting bit 1 first gives
        # 0.59, after which adding bit 0 still improves (0.595 > 0.59),
        # so reversed order ends at [1, 1] where in-order ends at [1, 0]
        cache = cache_from_values([0.6, 0.59], [[1.0, 1.0], [1.0, 1.0]])
        forced = StubRng(permutations=[np.array([1, 0])])
        out = oracle["DBHC"](FeatureMask([0, 0]), stub_ctx(cache, forced))
        assert out == FeatureMask([1, 1])
        assert nahc(FeatureMask([0, 0]), make_ctx(cache)) == FeatureMask([1, 0])


class TestSweepReference:
    """NAHC and DBHC against ``sweep_reference``, the pass as it ran on a
    mutable scan: equal bits, an equal merit bit for bit, and the input
    object back when no flip was kept."""

    @staticmethod
    def caches():
        for n in (1, 2, 9, 40, 166):
            yield random_cache(n, seed=200 + n)
        # class entries from {1/4, 1/2}, pair entries from {0, 1/2, 1}:
        # exact sums and fully redundant pairs, so sweeps meet candidates
        # that tie the current merit bitwise, which must be rejected
        rng = np.random.default_rng(91)
        for _ in range(20):
            upper = np.triu(rng.integers(0, 3, size=(7, 7)) / 2.0, 1)
            yield cache_from_values(rng.integers(1, 3, size=7) / 4.0, upper + upper.T)

    @pytest.mark.parametrize("bit_domain", [ALL, ZEROS, ONES])
    @pytest.mark.parametrize("name", ["NAHC", "DBHC"])
    def test_equals_reference_bitwise(self, name, bit_domain):
        suffix = "" if bit_domain == ALL else f"-{bit_domain}"
        func = on_scans(ID_OF[name + suffix])
        rng = np.random.default_rng(92)
        moved = unmoved = 0
        for c, cache in enumerate(self.caches()):
            n = cache.n_features
            for trial in range(6):
                for bits in (rng.integers(0, 2, size=n), rng.random(n) < 0.1,
                             np.zeros(n, dtype=int), np.ones(n, dtype=int)):
                    seed = [c, trial, int(bits.sum())]
                    order = (np.arange(n) if name == "NAHC"
                             else np.random.default_rng(seed).permutation(n))
                    positions = [int(b) for b in order if bit_domain == ALL
                                 or bool(bits[b]) == (bit_domain == ONES)]
                    scan = MeritScan(cache, bits)
                    expected = sweep_reference(scan, cache, positions)
                    out = func(scan, make_ctx(cache, np.random.default_rng(seed)))
                    assert out.bits.tolist() == expected.bits.tolist()
                    assert out.merit == expected.merit
                    if expected is scan:
                        assert out is scan
                        unmoved += 1
                    else:
                        assert out is not scan
                        moved += 1
        assert moved > 0 and unmoved > 0

    @staticmethod
    def rmhc_reference(scan, cache, bit_domain, rng):
        """RMHC as it scored its bit through the vector flip merits:
        the same draw, acceptance iff the flip merit is at least the
        current one, a fresh scan of the flipped bits when it moves.
        Returns the result and whether it accepted a tie."""
        positions = np.flatnonzero(np.ones(scan.bits.size) if bit_domain == ALL
                                   else scan.bits == (bit_domain == ONES))
        if positions.size == 0:
            return scan, False
        b = int(positions[int(rng.integers(positions.size))])
        candidate = sign_form_flip_merits(scan, [b])[0]
        if candidate < scan.merit:
            return scan, False
        bits = scan.bits.copy()
        bits[b] ^= True
        return MeritScan(cache, bits), bool(candidate == scan.merit)

    def test_rmhc_equals_vector_reference_bitwise(self):
        rng = np.random.default_rng(93)
        ties = 0
        for bit_domain in (ALL, ZEROS, ONES):
            suffix = "" if bit_domain == ALL else f"-{bit_domain}"
            func = on_scans(ID_OF["RMHC" + suffix])
            moved = unmoved = 0
            for c, cache in enumerate(self.caches()):
                n = cache.n_features
                for trial in range(6):
                    for bits in (rng.integers(0, 2, size=n), rng.random(n) < 0.1,
                                 np.zeros(n, dtype=int), np.ones(n, dtype=int)):
                        seed = [c, trial, int(bits.sum())]
                        scan = MeritScan(cache, bits)
                        expected, tie = self.rmhc_reference(
                            scan, cache, bit_domain, np.random.default_rng(seed))
                        out = func(scan, make_ctx(cache, np.random.default_rng(seed)))
                        assert out.bits.tolist() == expected.bits.tolist()
                        assert out.merit == expected.merit
                        if expected is scan:
                            assert out is scan
                            unmoved += 1
                        else:
                            assert out is not scan
                            moved += 1
                        ties += tie
            assert moved > 0 and unmoved > 0
        assert ties > 0

    def test_tie_does_not_flip(self):
        # adding bit 1 gives (0.5 + 0.5) / sqrt(2 + 2) = 0.5, the current
        # merit exactly; a tie is not an improvement
        cache = cache_from_values([0.5, 0.5], [[1.0, 1.0], [1.0, 1.0]])
        scan = MeritScan(cache, [1, 0])
        assert sign_form_flip_merits(scan, [1])[0] == scan.merit == 0.5
        assert sweep_reference(scan, cache, [0, 1]) is scan
        assert on_scans(ID_OF["NAHC"])(scan, make_ctx(cache)) is scan
        for order in ([0, 1], [1, 0]):
            forced = StubRng(permutations=[np.array(order)])
            assert ORACLE[ID_OF["DBHC"]](scan, stub_ctx(cache, forced)) is scan


def where_chain_flip_merits(scan, positions):
    """``flip_merits`` as it was written before the sign form: one
    ``np.where`` per quantity, and the k == 0 guard on every call."""
    cache = scan.cache
    on = scan.bits[positions]
    fc = cache.feature_class[positions]
    row = scan.row[positions]
    k = np.where(on, scan.k - 1, scan.k + 1)
    sum_cf = np.where(on, scan.sum_cf - fc, scan.sum_cf + fc)
    sum_ff = np.where(on, scan.sum_ff - 2.0 * (row - cache.diagonal[positions]),
                      scan.sum_ff + 2.0 * row)
    empty = k == 0
    return np.where(empty, 0.0, sum_cf / np.sqrt(np.where(empty, 1.0, k + sum_ff)))


def called_merit_sweep(scan, cache, positions, accept):
    """``_sweep_climb`` as it was written before its merit was inlined: a
    merit call and an ``accept(candidate, current)`` call per position, and
    a list of bits flipped in place."""
    def merit(k, sum_cf, sum_ff):
        if k == 0:
            return 0.0
        return sum_cf / math.sqrt(k + sum_ff)

    ff = cache.feature_feature
    fc, diag = cache.feature_class.tolist(), cache.diagonal.tolist()
    bits, row_np, row = scan.bits.tolist(), scan.row, scan.row.tolist()
    k, sum_cf, sum_ff = scan.k, scan.sum_cf, scan.sum_ff
    current = merit(k, sum_cf, sum_ff)
    changed = False
    for b in positions:
        if bits[b]:
            flipped = k - 1, sum_cf - fc[b], sum_ff - 2.0 * (row[b] - diag[b])
        else:
            flipped = k + 1, sum_cf + fc[b], sum_ff + 2.0 * row[b]
        candidate = merit(*flipped)
        if accept(candidate, current):
            row_np = row_np - ff[:, b] if bits[b] else row_np + ff[:, b]
            bits[b] = not bits[b]
            row = row_np.tolist()
            (k, sum_cf, sum_ff), current = flipped, candidate
            changed = True
    return MeritScan(cache, bits) if changed else scan


def sign_form_flip_merits(scan, positions):
    """The scan's ``flip_merits`` as SDHC read it before the compiled
    kernel: the merits of all N flips in a sign form, with sign -1.0 on a
    1-bit and +1.0 on a 0-bit, so a flip leaves k + sign features,
    sum_cf + sign * fc and sum_ff + 2 sign * (row - bits * diag); the flip
    to k == 0 scores 0.0."""
    cache = scan.cache
    sign = np.where(scan.bits, -1.0, 1.0)
    k = scan.k + sign
    sum_cf = scan.sum_cf + sign * cache.feature_class
    denom = k + (scan.sum_ff + (2.0 * sign) * (scan.row - scan.bits * cache.diagonal))
    if scan.k != 1:
        return (sum_cf / np.sqrt(denom))[positions]
    empty = k == 0
    return np.where(empty, 0.0, sum_cf / np.sqrt(np.where(empty, 1.0, denom)))[positions]


KERNEL_GENE = {"sweep": ID_OF["NAHC"], "best": ID_OF["SDHC"]}  # the two climb loops


def call_kernel(name, scan, genes=None, **replace):
    """``_climb.apply`` of ``genes`` (by default the one gene that runs the
    climb loop ``name``: NAHC's sweep or SDHC's best move) on ``scan``'s
    bits, drawing from ``bit_generator``, with the named buffers
    replaced."""
    cache, n = scan.cache, scan.bits.size
    buffers = dict(genes=np.array([KERNEL_GENE[name]]) if genes is None else genes,
                   bit_generator=np.random.PCG64(0), bits=scan.bits,
                   feature_class=cache.feature_class, diagonal=cache.diagonal,
                   columns=cache.columns, invocations=np.zeros(NUM_LLH + 1, dtype=np.int64),
                   improvements=np.zeros(NUM_LLH + 1, dtype=np.int64),
                   bits_out=np.empty(n, dtype=bool))
    buffers.update(replace)
    b = buffers
    return _climb.apply(b["genes"], b["bit_generator"], b["bits"], b["feature_class"],
                        b["diagonal"], b["columns"], 0.1, b["invocations"], b["improvements"],
                        b["bits_out"])


class TestHotPathReference:
    """The compiled climb loops against reference copies of the code they
    replaced, bit for bit, over random and tie-heavy caches in every bit
    domain."""

    @staticmethod
    def caches():
        yield from TestSweepReference.caches()
        # not symmetric: a commit must add the column ff[:, b], not the row
        for n in (9, 40):
            yield cache_from_values(np.random.default_rng(n).random(n),
                                    np.random.default_rng(n + 1).random((n, n)))
        # decimal entries: merits that tie in exact arithmetic are decided
        # by rounding, so any change to the order of operations shows
        rng = np.random.default_rng(95)
        for _ in range(40):
            upper = np.triu(rng.integers(0, 4, size=(8, 8)) / 10.0, 1)
            yield cache_from_values(rng.integers(1, 4, size=8) / 10.0, upper + upper.T)

    @classmethod
    def inputs(cls):
        rng = np.random.default_rng(94)
        for c, cache in enumerate(cls.caches()):
            n = cache.n_features
            single = np.zeros(n, dtype=int)
            single[int(rng.integers(n))] = 1  # k == 1: one flip leaves k == 0
            for bits in (rng.integers(0, 2, size=n), rng.random(n) < 0.1,
                         np.zeros(n, dtype=int), np.ones(n, dtype=int), single):
                yield c, cache, MeritScan(cache, bits)

    @pytest.mark.parametrize("bit_domain", [ALL, ZEROS, ONES])
    def test_flip_merits_equal_where_chain(self, bit_domain):
        """The sign-form flip merits equal the where chain bit for bit, and
        SDHC's compiled move is their first argmax when it beats the merit."""
        func = on_scans(ID_OF["SDHC" + ("" if bit_domain == ALL else f"-{bit_domain}")])
        emptied = moved = 0
        for _, cache, scan in self.inputs():
            positions = domain_of(scan, bit_domain)
            merits = sign_form_flip_merits(scan, positions)
            assert merits.tobytes() == where_chain_flip_merits(scan, positions).tobytes()
            if scan.k == 1:
                assert sign_form_flip_merits(scan, domain_of(scan, ONES)).tolist() == [0.0]
                emptied += 1
            out = func(scan, make_ctx(cache))
            if positions.size and merits.max() > scan.merit:
                expected = scan.bits.copy()
                expected[positions[int(np.argmax(merits))]] ^= True
                assert out.bits.tolist() == expected.tolist()
                moved += 1
            else:
                assert out is scan
        assert emptied > 0 and moved > 0

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("bit_domain", [ALL, ZEROS, ONES])
    def test_kernel_sweep_equals_python_loop(self, bit_domain, ties):
        """The compiled sweep keeps exactly the positions the Python loop
        kept: NAHC's ascending and DBHC's random visiting orders, and
        RMHC's one drawn position with ties."""
        suffix = "" if bit_domain == ALL else f"-{bit_domain}"
        names = ["RMHC"] if ties else ["NAHC", "DBHC"]
        kept = 0
        for c, cache, scan in self.inputs():
            domain = domain_of(scan, bit_domain)
            for name in names:
                rng = np.random.default_rng([c, scan.k])
                if name == "NAHC":
                    positions = domain.tolist()
                elif name == "DBHC":
                    order = rng.permutation(scan.bits.size)
                    positions = [int(b) for b in order if b in domain]
                else:
                    positions = [int(domain[int(rng.integers(domain.size))])] if domain.size else []
                expected = python_sweep_climb(scan, positions, ties)
                out = on_scans(ID_OF[name + suffix])(
                    scan, make_ctx(cache, np.random.default_rng([c, scan.k])))
                assert np.flatnonzero(out.bits != scan.bits).tolist() == sorted(expected)
                assert (out is scan) == (not expected)
                kept += len(expected)
        assert kept > 0

    @pytest.mark.parametrize("bit_domain", [ALL, ZEROS, ONES])
    @pytest.mark.parametrize("name", ["NAHC", "DBHC", "RMHC"])
    def test_climb_loop_equals_called_merit_sweep(self, name, bit_domain):
        suffix = "" if bit_domain == ALL else f"-{bit_domain}"
        func = on_scans(ID_OF[name + suffix])
        moved = unmoved = 0
        for c, cache, scan in self.inputs():
            n = cache.n_features
            seed = [c, int(scan.bits.sum())]
            domain = domain_of(scan, bit_domain).tolist()
            rng = np.random.default_rng(seed)
            if name == "NAHC":
                positions, accept = domain, operator.gt
            elif name == "DBHC":
                order = rng.permutation(n).tolist()
                positions, accept = [b for b in order if b in domain], operator.gt
            else:
                positions = [domain[int(rng.integers(len(domain)))]] if domain else []
                accept = operator.ge
            expected = called_merit_sweep(scan, cache, positions, accept)
            out = func(scan, make_ctx(cache, np.random.default_rng(seed)))
            if expected is scan:
                assert out is scan
                unmoved += 1
            else:
                assert scan_fields(out) == scan_fields(expected)
                assert out.merit == expected.merit
                moved += 1
        assert moved > 0 and unmoved > 0

    def test_cached_arrays_are_read_only(self):
        cache = random_cache(9, seed=7)
        mask = FeatureMask([1, 0, 1, 1, 0, 0, 1, 0, 1])
        arrays = [cache.feature_feature, cache.feature_class, cache.diagonal,
                  cache.columns, mask.bits]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0
        # what the caches hold is what the arrays say
        assert np.array_equal(cache.columns, cache.feature_feature.T)
        assert np.array_equal(cache.diagonal, np.diagonal(cache.feature_feature))


def oracle_and_kernel(llh_id, scan, seed, mutn_rate=0.1, bit_generator=np.random.PCG64):
    """Heuristic ``llh_id`` on ``scan`` through its oracle and through the
    engine, each on a Generator over ``bit_generator(seed)``: both results
    and both generators' states afterwards."""
    rngs = (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))
    expected = ORACLE[llh_id](scan, OracleContext(scan.cache, rngs[0], mutn_rate))
    out = on_scans(llh_id)(scan, make_ctx(scan.cache, rngs[1], mutn_rate))
    return expected, out, rngs[0].bit_generator.state, rngs[1].bit_generator.state


class TestKernelEqualsOracle:
    """``_climb.apply`` against the Python rules in ``conftest``, draw for
    draw: equal bits, the input object back exactly when the oracle
    returns it, equal counters, and the bit generator left in the same
    state."""

    @staticmethod
    def scans(n, rng):
        cache = random_cache(n, seed=300 + n)
        for bits in (rng.integers(0, 2, size=n), rng.random(n) < 0.1,
                     np.zeros(n, dtype=int), np.ones(n, dtype=int)):  # k = 0 and k = n
            yield MeritScan(cache, bits)

    @pytest.mark.parametrize("n", [2, 3, 34, 60, 166])
    def test_every_gene_equals_oracle(self, n):
        rng = np.random.default_rng(n)
        moved = np.zeros(NUM_LLH + 1, dtype=int)
        for s, scan in enumerate(self.scans(n, rng)):
            # numpy's bit generators differ in how they make 32-bit draws
            for seed, bit_generator in enumerate((np.random.PCG64, np.random.MT19937,
                                                  np.random.Philox, np.random.SFC64)):
                for llh_id in range(1, NUM_LLH + 1):
                    expected, out, state, kernel_state = oracle_and_kernel(
                        llh_id, scan, [n, s, seed, llh_id], 0.05 + 0.1 * seed, bit_generator)
                    np.testing.assert_equal(kernel_state, state, CATALOG[llh_id].name)
                    assert (out is scan) == (expected is scan), CATALOG[llh_id].name
                    assert scan_fields(out) == scan_fields(expected), CATALOG[llh_id].name
                    assert out.merit == expected.merit
                    moved[llh_id] += out is not scan
        if n > 3:
            assert moved[1:].min() > 0, moved

    @pytest.mark.parametrize("n", [2, 3, 34, 60, 166])
    def test_chromosome_equals_oracle_chain(self, n):
        rng = np.random.default_rng(400 + n)
        for s, scan in enumerate(self.scans(n, rng)):
            for trial in range(3):
                genes = rng.integers(1, NUM_LLH + 1, size=16)
                stats, expected_stats = LlhStats(), LlhStats()
                bit_generator = np.random.PCG64([n, s, trial])
                oracle_rng = np.random.default_rng([n, s, trial])
                mask = scan.mask()
                out = llh.run_genes(genes, mask, scan.cache, bit_generator, 0.1,
                                    stats.invocations, stats.improvements)
                expected = oracle_run_genes(genes, scan, OracleContext(scan.cache, oracle_rng),
                                            expected_stats)
                assert bit_generator.state == oracle_rng.bit_generator.state
                assert (out is mask) == (expected is scan)
                assert out.bits.tolist() == expected.bits.tolist()
                assert stats.as_dict() == expected_stats.as_dict()

    @pytest.mark.parametrize("n", [2, 34, 60, 166])
    def test_kernel_from_bits_equals_oracle_chain(self, n):
        # the kernel scans the bits it is given itself; the chain starts
        # from a fresh oracle scan of the same bits
        rng = np.random.default_rng(450 + n)
        for s, scan in enumerate(self.scans(n, rng)):
            cache = scan.cache
            for trial in range(3):
                genes = rng.integers(1, NUM_LLH + 1, size=16)
                stats, expected_stats = LlhStats(), LlhStats()
                bit_generator = np.random.PCG64([n, s, trial])
                oracle_rng = np.random.default_rng([n, s, trial])
                bits_out = np.empty(n, dtype=bool)
                moved = _climb.apply(genes, bit_generator, scan.bits, cache.feature_class,
                                     cache.diagonal, cache.columns, 0.1,
                                     stats.invocations, stats.improvements, bits_out)
                expected = oracle_run_genes(genes, scan, OracleContext(cache, oracle_rng),
                                            expected_stats)
                assert bit_generator.state == oracle_rng.bit_generator.state
                assert moved is (expected is not scan)
                assert bits_out.tolist() == expected.bits.tolist()
                assert stats.as_dict() == expected_stats.as_dict()

    def test_run_genes_returns_input_when_no_gene_moves(self):
        # the zeros domains of a full mask and the ones domains of an empty
        # one are empty, and an empty chromosome runs nothing
        cache = random_cache(6, seed=9)
        for bits, domain in (([1] * 6, "zeros"), ([0] * 6, "ones")):
            mask = FeatureMask(bits)
            genes = np.array([ID_OF[f"{rule}-{domain}"]
                              for rule in ("SDHC", "NAHC", "DBHC", "RMHC")])
            for genes in (genes, genes[::-1].copy(), np.arange(0)):
                stats = LlhStats()
                out = llh.run_genes(genes, mask, cache, np.random.PCG64(1), 0.1,
                                    stats.invocations, stats.improvements)
                assert out is mask
                assert stats.invocations.sum() == genes.size
                assert not stats.improvements.any()

    @pytest.mark.parametrize("n", [1, 2, 9, 34, 166])
    def test_scan_equals_sequential_sum(self, n):
        rng = np.random.default_rng(500 + n)
        # not symmetric, so row[j] must sum ff[j, i] over the selected i
        caches = [random_cache(n, seed=n),
                  cache_from_values(rng.random(n), rng.random((n, n)))]
        for cache in caches:
            for bits in (rng.integers(0, 2, size=n), rng.random(n) < 0.1,
                         np.zeros(n, dtype=int), np.ones(n, dtype=int)):
                scan = MeritScan(cache, bits)
                row, *sums = sequential_scan(cache, bits.tolist())
                assert scan.row.tolist() == row
                assert [scan.k, scan.sum_cf, scan.sum_ff, scan.merit] == sums
                assert cfs_merit(FeatureMask(bits), cache) == sums[-1]

    def test_context_takes_only_a_generator(self):
        cache = random_cache(4)
        for rng in (StubRng(), np.random.PCG64(0), np.random.RandomState(0), None):
            with pytest.raises(TypeError, match=f"^LlhContext needs a numpy.random.Generator, "
                                                f"not {type(rng).__name__}$"):
                LlhContext(cache=cache, rng=rng)


class TestRmhc:
    def test_accepts_equal_merit_plateau(self):
        # flipping bit 1 onto the plateau: merit stays exactly 0.5
        cache = cache_from_values([0.5, 0.5], [[1.0, 1.0], [1.0, 1.0]])
        mask = FeatureMask([1, 0])
        assert cfs_merit(mask, cache) == cfs_merit(FeatureMask([1, 1]), cache) == 0.5
        forced = StubRng(integers=[1])
        assert oracle["RMHC"](mask, stub_ctx(cache, forced)) == FeatureMask([1, 1])

    def test_rejects_strictly_worse_flip(self):
        cache = cache_from_values([0.9, 0.0], [[1.0, 0.9], [0.9, 1.0]])
        mask = FeatureMask([1, 0])
        forced = StubRng(integers=[1])
        assert oracle["RMHC"](mask, stub_ctx(cache, forced)) == mask

    def test_ones_variant_clears_improving_bit(self):
        # dropping index 4 raises the merit (it is pure redundancy)
        fc = np.array([0.8, 0.8, 0.8, 0.8, 0.0])
        ff = np.zeros((5, 5))
        ff[4, :4] = ff[:4, 4] = 0.9
        cache = cache_from_values(fc, ff)
        mask = FeatureMask([1, 1, 1, 1, 1])
        forced = StubRng(integers=[4])  # position among the five 1-bits
        out = oracle["RMHC"](mask, stub_ctx(cache, forced), bit_domain=ONES)
        assert out == FeatureMask([1, 1, 1, 1, 0])

    def test_empty_domain_returns_input(self):
        # draws nothing: the oracle on a stub with no draws, and the
        # compiled heuristic leaves its generator's state as it was
        cache = random_cache(4, seed=40)
        for mask, domain in ((FeatureMask([0] * 4), ONES), (FeatureMask([1] * 4), ZEROS)):
            assert oracle["RMHC"](mask, stub_ctx(cache, StubRng()), bit_domain=domain) is mask
            rng = np.random.default_rng(40)
            state = rng.bit_generator.state
            assert rmhc(mask, make_ctx(cache, rng), bit_domain=domain) is mask
            assert rng.bit_generator.state == state

    def test_merit_never_decreases(self):
        cache = random_cache(9, seed=41)
        rng = np.random.default_rng(42)
        for _ in range(200):
            mask = random_mask(9, rng)
            out = rmhc(mask, make_ctx(cache, rng))
            assert cfs_merit(out, cache) >= cfs_merit(mask, cache)


class TestSwpd:
    def test_swap_two_bits(self):
        forced = StubRng(integers=[0, 0])  # i=0, j=0 -> adjusted to 1
        out = oracle["SWPD"](FeatureMask([1, 0]), stub_ctx(random_cache(2), forced))
        assert out == FeatureMask([0, 1])

    def test_equal_bits_leave_mask_unchanged(self):
        forced = StubRng(integers=[0, 1])  # dims 0 and 2, both 1
        mask = FeatureMask([1, 0, 1])
        out = oracle["SWPD"](mask, stub_ctx(random_cache(3), forced))
        assert out is mask

    def test_selected_count_preserved(self):
        rng = np.random.default_rng(50)
        cache = random_cache(12, seed=51)
        for _ in range(1000):
            mask = random_mask(12, rng)
            out = swpd(mask, make_ctx(cache, rng))
            assert out.selected_count() == mask.selected_count()

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            swpd(FeatureMask([1]), make_ctx(random_cache(1)))


class TestDimm:
    def test_forced_flip(self):
        forced = StubRng(integers=[1], randoms=[0.2])  # coin < 0.5 flips
        out = oracle["DIMM"](FeatureMask([0, 0, 0]), stub_ctx(random_cache(3), forced))
        assert out == FeatureMask([0, 1, 0])

    def test_forced_keep(self):
        forced = StubRng(integers=[1], randoms=[0.9])
        mask = FeatureMask([0, 0, 0])
        assert oracle["DIMM"](mask, stub_ctx(random_cache(3), forced)) is mask

    def test_mean_changed_bits(self):
        rng = np.random.default_rng(52)
        cache = random_cache(10, seed=53)
        mask = random_mask(10, rng)
        changed = sum(
            int(np.sum(dimm(mask, make_ctx(cache, rng)).bits != mask.bits))
            for _ in range(10000))
        # Bernoulli(0.5): mean 0.5, sigma of the mean 0.005
        assert abs(changed / 10000 - 0.5) < 3 * 0.005


class TestHypm:
    def test_all_flip_coins_complement(self):
        forced = StubRng(randoms=[[0.1, 0.2, 0.3, 0.0]])
        out = oracle["HYPM"](FeatureMask([1, 0, 1, 1]), stub_ctx(random_cache(4), forced))
        assert out == FeatureMask([0, 1, 0, 0])

    def test_all_keep_coins_identity(self):
        forced = StubRng(randoms=[[0.9, 0.8, 0.7, 0.6]])
        mask = FeatureMask([1, 0, 1, 1])
        assert oracle["HYPM"](mask, stub_ctx(random_cache(4), forced)) is mask

    def test_mean_hamming_distance(self):
        rng = np.random.default_rng(54)
        cache = random_cache(20, seed=55)
        mask = random_mask(20, rng)
        total = sum(
            int(np.sum(hypm(mask, make_ctx(cache, rng)).bits != mask.bits))
            for _ in range(10000))
        # Binomial(20, 0.5): mean 10, sigma of the mean sqrt(5)/100
        assert abs(total / 10000 - 10.0) < 3 * np.sqrt(20 * 0.25) / 100


class TestMutn:
    def test_rate_one_limit_is_complement(self):
        # rate -> 1 means every coin < rate: force it with a stub context
        class Ctx:
            cache = random_cache(3)
            rng = StubRng(randoms=[[0.99, 0.99, 0.99]])
            mutn_rate = 1.0
        out = oracle["MUTN"](FeatureMask([1, 0, 1]), Ctx())
        assert out == FeatureMask([0, 1, 0])

    def test_rate_zero_limit_is_identity(self):
        class Ctx:
            cache = random_cache(3)
            rng = StubRng(randoms=[[0.0001, 0.0001, 0.0001]])
            mutn_rate = 1e-9
        mask = FeatureMask([1, 0, 1])
        assert oracle["MUTN"](mask, Ctx()) is mask

    def test_mean_flip_count(self):
        rng = np.random.default_rng(56)
        cache = random_cache(34, seed=57)
        mask = random_mask(34, rng)
        total = sum(
            int(np.sum(mutn(mask, make_ctx(cache, rng, mutn_rate=0.1)).bits
                       != mask.bits))
            for _ in range(10000))
        # Binomial(34, 0.1): mean 3.4, sigma of the mean ~0.0175
        sigma_mean = np.sqrt(34 * 0.1 * 0.9) / 100
        assert abs(total / 10000 - 3.4) < 3 * sigma_mean


class TestCrossHeuristicProperties:
    def test_hill_climbers_never_decrease_merit_on_dataset_cache(self):
        d = synthetic_dataset(n_instances=50, n_features=12, seed=60)
        cache = build_cache(d)
        rng = np.random.default_rng(61)
        for _ in range(250):
            mask = random_mask(12, rng)
            for llh_id in HILL_CLIMBER_IDS:
                ctx = make_ctx(cache, rng)
                out = llh.apply(llh_id, mask, ctx)
                assert cfs_merit(out, cache) >= cfs_merit(mask, cache)

    def test_strict_variants_change_only_on_strict_improvement(self):
        d = synthetic_dataset(n_instances=50, n_features=10, seed=62)
        cache = build_cache(d)
        rng = np.random.default_rng(63)
        strict_ids = [i for i in HILL_CLIMBER_IDS
                      if CATALOG[i].name.split("-")[0] in ("SDHC", "NAHC", "DBHC")]
        assert len(strict_ids) == 9
        for _ in range(150):
            mask = random_mask(10, rng)
            for llh_id in strict_ids:
                out = llh.apply(llh_id, mask, make_ctx(cache, rng))
                if out != mask:
                    assert cfs_merit(out, cache) > cfs_merit(mask, cache)

    def test_zeros_and_ones_domains_are_monotone_in_count(self):
        cache = random_cache(10, seed=64)
        rng = np.random.default_rng(65)
        zeros_ids = [i for i in HILL_CLIMBER_IDS if CATALOG[i].name.endswith("zeros")]
        ones_ids = [i for i in HILL_CLIMBER_IDS if CATALOG[i].name.endswith("ones")]
        for _ in range(150):
            mask = random_mask(10, rng)
            for llh_id in zeros_ids:
                out = llh.apply(llh_id, mask, make_ctx(cache, rng))
                assert np.all(out.bits >= mask.bits)  # never clears a set bit
            for llh_id in ones_ids:
                out = llh.apply(llh_id, mask, make_ctx(cache, rng))
                assert np.all(out.bits <= mask.bits)  # never sets a cleared bit

    def test_mutational_outputs_ignore_the_cache(self):
        rng_seed = 77
        cache_a = random_cache(12, seed=1)
        cache_b = random_cache(12, seed=2)
        mask = random_mask(12, np.random.default_rng(78))
        for llh_id in MUTATIONAL_IDS:
            out_a = llh.apply(llh_id, mask,
                              make_ctx(cache_a, np.random.default_rng(rng_seed)))
            out_b = llh.apply(llh_id, mask,
                              make_ctx(cache_b, np.random.default_rng(rng_seed)))
            assert out_a == out_b

    def test_repeated_sdhc_reaches_merit_local_optimum(self):
        cache = random_cache(10, seed=80)
        rng = np.random.default_rng(81)
        ctx = make_ctx(cache)
        for _ in range(20):
            mask = random_mask(10, rng)
            for _ in range(60):
                mask = sdhc(mask, ctx)
            _, best_neighbor = best_flip_oracle(mask, cache, range(10))
            assert cfs_merit(mask, cache) >= best_neighbor

    def test_exhaustive_optimum_is_sdhc_fixed_point(self):
        # the global merit maximum has no improving neighbor by definition
        for seed in range(5):
            cache = random_cache(8, seed=seed)
            best_mask, _ = exhaustive_best_mask(cache)
            out = sdhc(best_mask, make_ctx(cache))
            assert out == best_mask


@pytest.mark.parametrize("name", ["sweep", "best"])
class TestClimbKernelArguments:
    """``_climb.apply`` running each climb loop from the bits: every buffer
    is checked against n = len(bits) and every gene id against 1..16
    before the kernel reads one or draws, so a bad argument is a ValueError
    or a TypeError that leaves the counters and the bit generator as they
    were."""

    N = 6

    @pytest.fixture
    def scan(self):
        return MeritScan(random_cache(self.N, seed=41), [1, 0, 1, 1, 0, 0])

    def test_valid_arguments_run(self, name, scan):
        llh_id = KERNEL_GENE[name]
        expected = ORACLE[llh_id](scan, OracleContext(scan.cache, np.random.default_rng(0)))
        bits_out = np.empty(self.N, dtype=bool)
        assert call_kernel(name, scan, bits_out=bits_out) is True
        assert expected is not scan
        assert bits_out.tolist() == expected.bits.tolist()
        assert call_kernel(name, scan, np.arange(0), bits_out=bits_out) is False
        assert bits_out.tolist() == scan.bits.tolist()

    @pytest.mark.parametrize("buffer", ["feature_class", "diagonal"])
    def test_wrong_length_vector(self, name, scan, buffer):
        for length in (self.N - 1, self.N + 1):
            with pytest.raises(ValueError, match=f"{buffer} has length {length}"):
                call_kernel(name, scan, **{buffer: np.zeros(length)})

    def test_wrong_item_types(self, name, scan):
        genes = np.array([KERNEL_GENE[name]])
        with pytest.raises(ValueError, match="genes must hold int64"):
            call_kernel(name, scan, genes.astype(np.int32))
        with pytest.raises(ValueError, match="genes must hold int64"):
            call_kernel(name, scan, genes.astype(np.float64))
        with pytest.raises(ValueError, match="bits must hold bools"):
            call_kernel(name, scan, bits=scan.bits.astype(np.uint8))
        with pytest.raises(ValueError, match="feature_class must hold float64"):
            call_kernel(name, scan, feature_class=scan.cache.feature_class.astype(np.float32))

    @pytest.mark.parametrize("bad", [-1, N, N + 100, -(2 ** 62)])
    def test_position_out_of_range(self, name, scan, bad):
        # the out-of-range positions of N features, carried past the 16 ids
        # at the same distances: N becomes 17, N + 100 becomes 117
        bad = bad if bad < 0 else bad - self.N + NUM_LLH + 1
        gene = KERNEL_GENE[name]
        for genes in ([bad], [gene, 1, bad], [bad, gene]):
            bit_generator = np.random.PCG64(0)
            state = bit_generator.state
            counts = np.zeros(NUM_LLH + 1, dtype=np.int64)
            with pytest.raises(ValueError, match=f"unknown low-level heuristic id {bad}$"):
                call_kernel(name, scan, np.array(genes, dtype=np.int64),
                            bit_generator=bit_generator, invocations=counts)
            assert bit_generator.state == state and not counts.any()

    def test_non_contiguous(self, name, scan):
        genes = np.array([KERNEL_GENE[name]] * 2)
        with pytest.raises(ValueError, match="bits must be C-contiguous"):
            call_kernel(name, scan, bits=np.repeat(scan.bits, 2)[::2])
        with pytest.raises(ValueError, match="genes must be C-contiguous"):
            call_kernel(name, scan, np.repeat(genes, 2)[::2])
        with pytest.raises(ValueError, match="columns must be C-contiguous"):
            call_kernel(name, scan, columns=scan.cache.columns.T)

    def test_argument_count_and_non_buffers(self, name, scan):
        with pytest.raises(TypeError, match="takes 10 arguments, 2 given"):
            _climb.apply(scan.bits, scan.cache.columns)
        with pytest.raises(TypeError):
            call_kernel(name, scan, [KERNEL_GENE[name]])
        with pytest.raises(TypeError, match="^bit_generator must be a numpy BitGenerator, "
                                            "not numpy.random._generator.Generator$"):
            call_kernel(name, scan, bit_generator=np.random.default_rng(0))


def test_sweep_rejects_wrong_shape_columns():
    scan = MeritScan(random_cache(6, seed=41), [1, 0, 1, 1, 0, 0])
    for shape in ((6, 7), (7, 6), (36,)):
        with pytest.raises(ValueError, match="columns"):
            call_kernel("sweep", scan, columns=np.zeros(shape))


class TestScanAndOutputArguments:
    """``_climb.scan`` and the buffers ``apply`` writes: checked before any
    is read or written."""

    def test_scan_checks_its_buffers(self):
        cache = random_cache(5, seed=3)
        bits, row = np.array([1, 0, 1, 1, 0], dtype=bool), np.empty(5)
        args = dict(bits=bits, columns=cache.columns, feature_class=cache.feature_class,
                    diagonal=cache.diagonal, row_out=row)

        def scan(**replace):
            a = {**args, **replace}
            return _climb.scan(a["bits"], a["feature_class"], a["diagonal"], a["columns"],
                               a["row_out"])

        expected_row, *expected_sums = sequential_scan(cache, bits.tolist())
        assert list(scan()) == expected_sums and row.tolist() == expected_row
        for name in ("feature_class", "diagonal", "row_out"):
            with pytest.raises(ValueError, match=f"{name} has length 4"):
                scan(**{name: np.zeros(4)})
        with pytest.raises(ValueError, match="columns has length 4"):
            scan(columns=np.zeros((4, 5)))
        with pytest.raises(ValueError, match="bits must hold bools"):
            scan(bits=bits.astype(np.int64))
        with pytest.raises(ValueError, match="row_out must be C-contiguous"):
            scan(row_out=np.zeros(10)[::2])
        with pytest.raises(ValueError, match="read-only"):
            scan(row_out=MeritScan(cache, bits).row)
        with pytest.raises(TypeError, match="takes 5 arguments, 2 given"):
            _climb.scan(bits, cache.feature_class)

    def test_apply_checks_what_it_writes(self):
        scan = MeritScan(random_cache(6, seed=41), [1, 0, 1, 1, 0, 0])
        for name, bad in (("invocations", np.zeros(NUM_LLH, dtype=np.int64)),
                          ("improvements", np.zeros(NUM_LLH + 2, dtype=np.int64)),
                          ("bits_out", np.empty(5, dtype=bool)),
                          ("bits_out", np.empty(7, dtype=bool))):
            with pytest.raises(ValueError, match=f"{name} has length"):
                call_kernel("sweep", scan, **{name: bad})
        with pytest.raises(ValueError, match="bits_out must hold bools"):
            call_kernel("sweep", scan, bits_out=np.empty(6, dtype=np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            call_kernel("sweep", scan, bits_out=scan.bits)

    def test_swap_needs_two_dimensions_before_any_draw(self):
        scan = MeritScan(random_cache(1), [1])
        bit_generator = np.random.PCG64(0)
        state = bit_generator.state
        with pytest.raises(ValueError, match="^swap needs at least 2 dimensions$"):
            call_kernel("sweep", scan, np.array([ID_OF["DIMM"], ID_OF["SWPD"]]),
                        bit_generator=bit_generator)
        assert bit_generator.state == state


def build_leftovers(package):
    """What ``_load_climb`` writes into the package's ``__pycache__``:
    builds and temporary directories, not other modules' bytecode."""
    return sorted(package.glob("__pycache__/_climb.*")) + sorted(package.glob("__pycache__/tmp*"))


def import_hhfs(tmp_path, path=None, before=""):
    """``import hhfs`` in a fresh interpreter from the copy under
    ``tmp_path``, with ``PATH`` set to ``path`` if given, after running the
    statements ``before``."""
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.run([sys.executable, "-c", f"{before}\nimport hhfs"], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)


def numpy_random_at(directory):
    """Statements that make ``numpy.random`` appear to live in ``directory``,
    so its random C library is looked for in ``directory/lib``."""
    return f"import numpy.random\nnumpy.random.__file__ = {str(directory / '__init__.py')!r}"


def assert_one_import_error(failed, start):
    """The import failed with exactly one error line, the last, an
    ``ImportError`` starting with ``start``."""
    assert failed.returncode == 1
    lines = failed.stderr.splitlines()
    assert [line for line in lines if not line.startswith(" ")][-1:] == lines[-1:]
    assert lines[-1].startswith(start), failed.stderr
    assert sum("Error" in line for line in lines if not line.startswith(" ")) == 1


class TestClimbBuild:
    @pytest.fixture
    def package(self, tmp_path):
        package = tmp_path / "hhfs"
        shutil.copytree(Path(llh.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return package

    def test_no_compiler_is_one_import_error_and_a_build_is_reused(self, tmp_path, package):
        """Without ``cc`` the import fails with one ImportError line; with
        it, the first import builds into ``__pycache__/``, removing older
        builds for this extension suffix, and the next reuses that build,
        so a ``cc`` that always fails is never run."""
        no_cc, failing_cc = tmp_path / "no_cc", tmp_path / "failing_cc"
        no_cc.mkdir()
        failing_cc.mkdir()
        (failing_cc / "cc").write_text("#!/bin/sh\necho rebuilt >&2\nexit 1\n")
        (failing_cc / "cc").chmod(0o755)

        failed = import_hhfs(tmp_path, no_cc)
        assert_one_import_error(failed, "ImportError: hhfs needs a C compiler: no `cc` on PATH")
        assert build_leftovers(package) == []  # no temporary file left

        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        stale = package / "__pycache__" / f"_climb.0000000000000000{suffix}"
        other_python = package / "__pycache__" / "_climb.0000000000000000.other-abi.so"
        stale.parent.mkdir(exist_ok=True)
        stale.write_bytes(b"")
        other_python.write_bytes(b"")
        built = import_hhfs(tmp_path)
        assert built.returncode == 0, built.stderr
        [module] = package.glob(f"__pycache__/_climb.*{suffix}")
        assert module != stale and other_python.exists()
        stat = module.stat()

        reused = import_hhfs(tmp_path, failing_cc)
        assert reused.returncode == 0, reused.stderr
        assert build_leftovers(package) == sorted([module, other_python])
        assert (module.stat().st_ino, module.stat().st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)

    def test_failed_build_names_cc_and_its_stderr(self, tmp_path, package):
        with open(package / "_climb.c", "a") as fh:
            fh.write("\n#error deliberately broken\n")
        failed = import_hhfs(tmp_path)
        assert failed.returncode == 1
        assert "ImportError: hhfs: `cc` failed to build" in failed.stderr
        assert "deliberately broken" in failed.stderr
        assert build_leftovers(package) == []

    def test_unwritable_build_directory_is_one_import_error(self, tmp_path, package):
        """A ``__pycache__`` the build cannot write into (here a plain file
        in its place, which blocks root as well as other users) fails the
        import with one ImportError naming the directory, not an OSError
        traceback."""
        (package / "__pycache__").write_text("")
        failed = import_hhfs(tmp_path)
        assert_one_import_error(failed, "ImportError: hhfs: cannot build ")
        assert str(package / "__pycache__") in failed.stderr.splitlines()[-1]

    def test_missing_numpy_random_library_is_one_import_error(self, tmp_path, package):
        failed = import_hhfs(tmp_path, before=numpy_random_at(tmp_path / "no_numpy"))
        assert_one_import_error(failed, "ImportError: hhfs needs numpy's random C library: no ")
        assert str(tmp_path / "no_numpy" / "lib" / "libnpyrandom.a") in failed.stderr
        assert build_leftovers(package) == []

    def test_another_numpy_is_a_rebuild(self, tmp_path, package):
        """A build is keyed by numpy's version and its random library's path
        too: either one changed, the import builds again (here with a
        ``cc`` that always fails, so the rebuild shows as its error)."""
        failing_cc = tmp_path / "failing_cc"
        failing_cc.mkdir()
        (failing_cc / "cc").write_text("#!/bin/sh\necho rebuilt >&2\nexit 1\n")
        (failing_cc / "cc").chmod(0o755)
        assert import_hhfs(tmp_path).returncode == 0
        assert import_hhfs(tmp_path, failing_cc).returncode == 0  # the build is reused
        moved = tmp_path / "moved_numpy_random"
        (moved / "lib").mkdir(parents=True)
        shutil.copy(Path(np.random.__file__).with_name("lib") / "libnpyrandom.a", moved / "lib")
        for before in ("import numpy\nnumpy.__version__ = '0.0.0'", numpy_random_at(moved)):
            failed = import_hhfs(tmp_path, failing_cc, before)
            assert_one_import_error(failed, "ImportError: hhfs: `cc` failed to build")
            assert "rebuilt" in failed.stderr
