import dataclasses
import hashlib
import json
import multiprocessing
import os
import threading
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (MeritScan, OracleContext, StubRng, best_flip_oracle,
                      cv_accuracy_cdist_reference, flip, on_cores,
                      oracle_next_generation, oracle_run_genes, record_call,
                      synthetic_dataset)
from hhfs import llh
from hhfs.correlation import build_cache, cfs_merit
from hhfs.dataset import Dataset, DatasetError, load_csv
from hhfs.evaluation import CvProtocol, FitnessEvaluator
from hhfs.experiment import _run_record
from hhfs.llh import LlhContext, apply
from hhfs.mask import FeatureMask
from hhfs.supervisor import (LlhStats, SupervisorConfig, SupervisorResult,
                             _next_generation, mutate_chromosome,
                             roulette_select, run_supervisor,
                             single_point_crossover)


class TestSupervisorConfig:
    def test_defaults_match_benchmark_setup(self):
        cfg = SupervisorConfig()
        assert cfg.generations == 200
        assert cfg.p_crossover == 0.7
        assert cfg.p_mutation == 0.1
        assert cfg.nllh == 16
        assert cfg.population_size == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(population_size=1)
        with pytest.raises(ValueError):
            SupervisorConfig(p_crossover=1.5)
        with pytest.raises(ValueError):
            SupervisorConfig(generations=0)
        with pytest.raises(ValueError):
            SupervisorConfig(elitism=30, population_size=30)
        with pytest.raises(ValueError, match="^chromosomes need at least one gene$"):
            SupervisorConfig(nllh=0)
        for rate in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match=r"mutn_rate must lie in \(0, 1\)"):
                SupervisorConfig(mutn_rate=rate)
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            SupervisorConfig(seed=-1)


def run_genes(cache, seed, genes, incumbent, gen=0, i=0, stats=None):
    """Chromosome i of generation ``gen`` in a run seeded ``seed``, from the
    incumbent, as ``run_supervisor`` runs it: the final mask (the incumbent
    object when no heuristic moved) and the LlhStats of its heuristics,
    counted into ``stats`` when given."""
    stats = LlhStats() if stats is None else stats
    mask = llh.run_genes(np.asarray(genes, dtype=np.int64), incumbent, cache,
                         np.random.PCG64([seed, 1, gen, i]), SupervisorConfig().mutn_rate,
                         stats.invocations, stats.improvements)
    return mask, stats


class TestEvaluateChromosome:
    """A chromosome's heuristics, as the supervisor applies them."""

    def test_all_dimm_with_keep_coins_is_identity(self, small_dataset):
        # 16 DIMM calls, each drawing a position then a keep coin, through
        # the oracles; the engine's chromosome equals that chain on a seed
        cache = build_cache(small_dataset)
        incumbent = FeatureMask([1, 0, 1, 0, 1, 0, 1, 0])
        base = MeritScan(cache, incumbent.bits)
        stub = StubRng(integers=[0] * 16, randoms=[0.9] * 16)
        stats = LlhStats()
        assert oracle_run_genes(np.full(16, 14), base, OracleContext(cache, stub), stats) is base
        assert stats.invocations[14] == 16 and sum(stats.improvements) == 0
        for seed in range(4):
            mask, stats = run_genes(cache, seed, np.full(16, 14), incumbent)
            expected_stats = LlhStats()
            rng = np.random.default_rng([seed, 1, 0, 0])
            expected = oracle_run_genes(np.full(16, 14), base, OracleContext(cache, rng),
                                        expected_stats)
            assert mask.bits.tolist() == expected.bits.tolist()
            assert (mask is incumbent) == (expected is base)
            assert stats.as_dict() == expected_stats.as_dict()

    def test_chromosome_stream_is_the_seeded_generator_s(self):
        # each chromosome draws from PCG64([seed, 1, gen, i]), the state
        # default_rng of that seed list starts from
        for key in ([0, 1, 0, 0], [7, 1, 5, 29], [2 ** 40, 1, 199, 3]):
            assert (np.random.PCG64(key).state
                    == np.random.default_rng(key).bit_generator.state)

    def test_incumbent_is_never_modified(self, small_dataset):
        incumbent = FeatureMask([1, 1, 0, 0, 1, 0, 0, 1])
        before = incumbent.bits.copy()
        mask, _ = run_genes(build_cache(small_dataset), 1, [15] * 16, incumbent)
        assert mask != incumbent
        np.testing.assert_array_equal(incumbent.bits, before)

    def test_all_sdhc_chromosome_matches_greedy_replay(self, small_dataset):
        cache = build_cache(small_dataset)
        incumbent = FeatureMask([0, 1, 0, 0, 1, 0, 1, 0])
        mask, _ = run_genes(cache, 2, np.ones(16, dtype=int), incumbent)

        expected = incumbent
        for _ in range(16):
            best_bit, best_merit = best_flip_oracle(expected, cache,
                                                    range(expected.n))
            if best_merit > cfs_merit(expected, cache):
                expected = flip(expected, best_bit)
        assert expected != incumbent
        assert mask == expected

    def test_hill_climber_chromosome_never_decreases_merit(self, small_dataset):
        cache = build_cache(small_dataset)
        rng = np.random.default_rng(3)
        for i in range(25):
            genes = rng.integers(1, 13, size=16)  # hill-climbers only
            incumbent = FeatureMask.random(8, rng)
            mask, _ = run_genes(cache, 3, genes, incumbent, i=i)
            assert cfs_merit(mask, cache) >= cfs_merit(incumbent, cache)

    def test_stats_equal_a_replay_that_recomputes_every_merit(self, small_dataset):
        # the statistics skip heuristics that return their input; the
        # counts must not notice
        cache = build_cache(small_dataset)
        incumbent = FeatureMask([1, 0, 1, 1, 0, 0, 1, 0])
        rng = np.random.default_rng(6)
        stats, expected = LlhStats(), LlhStats()
        for i in range(40):
            genes = rng.integers(1, 17, size=16)
            run_genes(cache, 8, genes, incumbent, gen=5, i=i, stats=stats)
            replay = LlhContext(cache=cache, rng=np.random.default_rng([8, 1, 5, i]))
            mask = incumbent
            for gene in genes:
                out = apply(int(gene), mask, replay)
                record_call(expected, int(gene), cfs_merit(mask, cache), cfs_merit(out, cache))
                mask = out
        assert sum(expected.improvements) > 0
        assert stats.as_dict() == expected.as_dict()

    def test_snapshot_evaluations_are_order_independent(self, small_dataset):
        cache = build_cache(small_dataset)
        evaluator = FitnessEvaluator(small_dataset, CvProtocol(folds=5, base_seed=0))
        incumbent = FeatureMask([1, 0, 1, 1, 0, 0, 1, 0])
        rng = np.random.default_rng(4)
        chroms = rng.integers(1, 17, size=(6, 16))

        def evaluate_in(order):
            outputs = {}
            for i in order:
                mask, stats = run_genes(cache, 7, chroms[i], incumbent, i=i)
                outputs[i] = mask, evaluator.fitness(mask), stats.as_dict()
            return outputs

        assert evaluate_in(range(6)) == evaluate_in(reversed(range(6)))


class TestRouletteSelect:
    def test_zero_fitness_never_chosen(self):
        rng = np.random.default_rng(0)
        assert roulette_select([1.0, 0.0], rng, 200).tolist() == [0] * 200

    def test_uniform_when_equal(self):
        rng = np.random.default_rng(1)
        draws = roulette_select([1, 1, 1, 1], rng, 10000)
        freqs = np.bincount(draws, minlength=4) / 10000
        # p = 0.25, sigma of a frequency ~ 0.00433
        assert np.all(np.abs(freqs - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 10000))

    def test_proportional_to_fitness(self):
        rng = np.random.default_rng(2)
        draws = roulette_select([3.0, 1.0], rng, 10000)
        freq0 = np.mean(draws == 0)
        assert abs(freq0 - 0.75) < 3 * np.sqrt(0.75 * 0.25 / 10000)

    def test_all_zero_falls_back_to_uniform(self):
        rng = np.random.default_rng(3)
        draws = roulette_select([0.0, 0.0, 0.0], rng, 3000)
        assert set(draws.tolist()) == {0, 1, 2}

    def test_errors(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            roulette_select([], rng, 1)
        with pytest.raises(ValueError):
            roulette_select([-1.0, 2.0], rng, 1)


class TestCrossover:
    def test_cut_point_exchange(self):
        pair = np.array([np.full(16, 1), np.full(16, 2)])
        # first draw 0.0 < p triggers crossover, second scripted cut = 8
        rng = StubRng(randoms=[0.0], integers=[8])
        single_point_crossover(pair, rng, p_crossover=0.7)
        assert pair[0].tolist() == [1] * 8 + [2] * 8
        assert pair[1].tolist() == [2] * 8 + [1] * 8

    def test_skipped_crossover_copies_parents(self):
        pair = np.array([np.arange(1, 17), np.arange(16, 0, -1)])
        before = pair.copy()
        rng = StubRng(randoms=[0.99])
        single_point_crossover(pair, rng, p_crossover=0.7)
        np.testing.assert_array_equal(pair, before)

    def test_one_gene_parents_draw_the_coin_and_pass_through(self):
        pair = np.array([[3], [7]])
        rng = StubRng(randoms=[0.0])  # the coin says cross; no cut is drawn
        single_point_crossover(pair, rng, p_crossover=0.7)
        assert pair.tolist() == [[3], [7]]
        assert rng._randoms == []

    def test_gene_multiset_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            pair = rng.integers(1, 17, size=(2, 16))
            original = np.sort(pair, axis=None)
            single_point_crossover(pair, rng, p_crossover=0.7)
            assert np.sort(pair, axis=None).tolist() == original.tolist()


class TestMutation:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(6)
        genes = rng.integers(1, 17, size=16)
        out = genes.copy()
        mutate_chromosome(out, 0.0, rng)
        assert out.tolist() == genes.tolist()

    def test_mutated_gene_never_keeps_its_value(self):
        rng = np.random.default_rng(7)
        for _ in range(625):  # 625 * 16 = 10000 gene trials
            genes = np.full(16, 9)
            mutate_chromosome(genes, 1.0, rng)
            assert np.all(genes != 9)
            assert np.all((genes >= 1) & (genes <= 16))

    def test_values_at_or_above_the_old_gene_shift_up(self):
        # coins for every gene first, then one id in 1..15 per hit
        genes = np.array([9, 4, 2, 16])
        rng = StubRng(randoms=[[0.0, 0.5, 0.05, 0.0]], integers=[[9, 3, 15]])
        mutate_chromosome(genes, 0.1, rng)
        assert genes.tolist() == [10, 4, 4, 15]

    def test_mean_changed_gene_count(self):
        rng = np.random.default_rng(8)
        genes = rng.integers(1, 17, size=16)
        changed = 0
        for _ in range(10000):
            out = genes.copy()
            mutate_chromosome(out, 0.1, rng)
            changed += int(np.sum(out != genes))
        # Binomial(16, 0.1): mean 1.6, sigma of the mean 0.012
        sigma_mean = np.sqrt(16 * 0.1 * 0.9) / 100
        assert abs(changed / 10000 - 1.6) < 3 * sigma_mean


@st.composite
def generations(draw):
    """A population, its fitnesses (tied, distinct or all zero), a
    configuration and a generator seed."""
    size = draw(st.integers(2, 12))
    length = draw(st.integers(1, 17))
    population = np.random.default_rng(draw(st.integers(0, 2 ** 32))).integers(
        1, 17, size=(size, length))
    fits = draw(st.one_of(
        st.just([0.0] * size),
        st.lists(st.sampled_from([0.0, 0.5, 0.7, 0.875, 1.0]), min_size=size, max_size=size),
        st.lists(st.floats(0, 1), min_size=size, max_size=size)))
    cfg = SupervisorConfig(population_size=size, nllh=length,
                           elitism=draw(st.integers(0, size - 1)),
                           p_crossover=draw(st.sampled_from([0.0, 0.3, 1.0])),
                           p_mutation=draw(st.sampled_from([0.0, 0.3, 1.0])))
    return population, np.array(fits), cfg, draw(st.integers(0, 2 ** 32))


@settings(max_examples=300, deadline=None)
@given(generations())
def test_next_generation_equals_the_per_chromosome_oracle(case):
    population, fits, cfg, seed = case
    before = population.copy()
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _next_generation(population, fits, cfg, rng)
    expected = oracle_next_generation(before, fits, cfg.elitism, cfg.p_crossover,
                                      cfg.p_mutation, oracle_rng)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert got.tolist() == expected
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    np.testing.assert_array_equal(population, before)


class TestRunSupervisor:
    def small_config(self, **kw):
        defaults = dict(population_size=6, generations=5, seed=11)
        defaults.update(kw)
        return SupervisorConfig(**defaults)

    def test_deterministic_replay(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=1, base_seed=11)
        report = {"1x5": CvProtocol(folds=5, repeats=1, base_seed=0)}
        a = run_supervisor(small_dataset, self.small_config(), proto, report)
        b = run_supervisor(small_dataset, self.small_config(), proto, report)
        assert a.mask == b.mask
        assert a.search_fitness == b.search_fitness
        assert a.reported == b.reported
        assert a.history == b.history
        assert a.llh_stats.as_dict() == b.llh_stats.as_dict()

    def test_one_gene_chromosomes_run_and_replay(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=1, base_seed=11)
        a, b = (run_supervisor(small_dataset, self.small_config(nllh=1), proto)
                for _ in range(2))
        assert outcome(a) == outcome(b)
        assert sum(a.llh_stats.invocations) == 6 * 5

    def test_incumbent_fitness_history_non_decreasing(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=1, base_seed=3)
        result = run_supervisor(small_dataset, self.small_config(generations=10),
                                proto)
        fits = [rec.incumbent_fitness for rec in result.history]
        assert all(b >= a for a, b in zip(fits, fits[1:]))
        assert result.search_fitness == fits[-1]

    def test_history_and_counters_shape(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=1, base_seed=3)
        cfg = self.small_config(generations=4)
        result = run_supervisor(small_dataset, cfg, proto)
        assert [rec.generation for rec in result.history] == [0, 1, 2, 3]
        # every generation applies nllh heuristics per chromosome
        total = sum(result.llh_stats.invocations)
        assert total == cfg.generations * cfg.population_size * cfg.nllh

    def test_best_chromosome_fitness_bounds_incumbent(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=1, base_seed=3)
        result = run_supervisor(small_dataset, self.small_config(), proto)
        for rec in result.history:
            assert rec.incumbent_fitness >= rec.best_chromosome_fitness or \
                rec.incumbent_fitness == pytest.approx(rec.best_chromosome_fitness)

    def test_strict_acceptance_keeps_first_incumbent_on_plateau(self):
        # all features are exact copies and the classes are far apart, so
        # every non-empty mask scores accuracy 1.0; the incumbent must
        # never be replaced (no strict improvement exists)
        rng = np.random.default_rng(9)
        base = np.concatenate([rng.normal(0, 0.05, 12), rng.normal(5, 0.05, 12)])
        X = np.tile(base[:, None], (1, 6))
        labels = [0] * 12 + [1] * 12
        d = Dataset.from_arrays("plateau", X, labels)
        cfg = self.small_config(generations=6, seed=21)
        proto = CvProtocol(folds=4, repeats=1, base_seed=21)
        result = run_supervisor(d, cfg, proto)
        initial = FeatureMask.random(d.n_features,
                                     np.random.default_rng([cfg.seed, 0]))
        assert result.mask == initial
        assert result.search_fitness == 1.0

    def test_reported_protocols_evaluated_on_final_mask(self, small_dataset):
        from hhfs.evaluation import cv_accuracy
        proto = CvProtocol(folds=5, repeats=1, base_seed=3)
        report = {
            "2x5": CvProtocol(folds=5, repeats=2, base_seed=100),
            "3x4": CvProtocol(folds=4, repeats=3, base_seed=100),
        }
        result = run_supervisor(small_dataset, self.small_config(), proto, report)
        for label, rp in report.items():
            assert result.reported[label] == cv_accuracy(small_dataset,
                                                         result.mask, rp)

    def test_zero_elitism_supported(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=1, base_seed=3)
        result = run_supervisor(small_dataset,
                                self.small_config(elitism=0, generations=3), proto)
        assert len(result.history) == 3

    # sha256 of the run record of each GA edge shape, fixed when the
    # population was still a list of objects; the golden spec runs only
    # the defaults
    @pytest.mark.parametrize("options, digest", [
        (dict(nllh=1), "e8668294e7ecae6e76f4a97c5de39665c29e1e63aad6d368986a2e119aee596c"),
        (dict(elitism=0), "4c02eeefb62b463eaadfc078fad6b390dcc9bf230755dae764b50e06653500dd"),
        # an odd pool: its last row is not crossed
        (dict(population_size=5, elitism=0),
         "d5e55c3a73750768868aee644e1640023d68f33789656379f968b11e00b5509a"),
        (dict(p_crossover=1.0, p_mutation=1.0),
         "ed1138a2a73e32b104883b98945f7c6dfe828606f86954c8dc3014522af61b87"),
    ], ids=["one-gene", "no-elite-even-pool", "no-elite-odd-pool", "always-cross-and-mutate"])
    def test_run_record_bytes_are_pinned(self, small_dataset, options, digest):
        cfg = self.small_config(**{"generations": 8, **options})
        result = run_supervisor(small_dataset, cfg, CvProtocol(folds=5, base_seed=11),
                                {"1x5": CvProtocol(folds=5, base_seed=0)})
        record = json.dumps(_run_record(0, result))
        assert hashlib.sha256(record.encode()).hexdigest() == digest

    def test_rejects_single_feature_dataset_up_front(self):
        d = Dataset.from_arrays("one", [[0.0], [0.1], [1.0], [0.9]], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="at least 2 features"):
            run_supervisor(d, self.small_config(), CvProtocol(folds=2))

    @pytest.mark.parametrize("cached", [4, 6])
    def test_rejects_cache_of_another_size_up_front(self, monkeypatch, cached):
        def never(*args):
            pytest.fail("the run got past its argument checks")

        monkeypatch.setattr(FitnessEvaluator, "fitness", never)
        d = synthetic_dataset(n_instances=30, n_features=5, seed=4)
        cache = build_cache(synthetic_dataset(n_instances=30, n_features=cached, seed=4))
        with pytest.raises(ValueError, match=f"^the correlation cache covers {cached} "
                                             "features, dataset 'synthetic' has 5$"):
            run_supervisor(d, self.small_config(), CvProtocol(folds=5), cache=cache)

    def test_rejects_report_protocol_of_too_many_folds_up_front(self, monkeypatch):
        def never(*args):
            pytest.fail("a generation ran")

        monkeypatch.setattr(llh, "run_generation", never)
        d = synthetic_dataset(n_instances=30, n_features=5, seed=4)
        with pytest.raises(DatasetError, match="^cannot split 30 instances into 40 folds$"):
            run_supervisor(d, self.small_config(), CvProtocol(folds=5),
                           {"1x5": CvProtocol(folds=5), "x": CvProtocol(folds=40)})

    def test_subset_size_bounded_by_feature_count(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=1, base_seed=7)
        result = run_supervisor(small_dataset, self.small_config(), proto)
        assert 0 < result.m <= small_dataset.n_features


WALL_CLOCK = {"wall_time", "phase_seconds"}


def outcome(result: SupervisorResult) -> dict:
    """Every SupervisorResult field but the wall-clock ones, in a form
    that compares with ==."""
    plain = {"mask": FeatureMask.to01, "llh_stats": LlhStats.as_dict}
    return {f.name: plain.get(f.name, lambda v: v)(getattr(result, f.name))
            for f in dataclasses.fields(result) if f.name not in WALL_CLOCK}


def _run_in_daemon(args):
    return outcome(run_supervisor(*args))


def _threads_started_by_run(args) -> list[str]:
    """The names of the threads a run started, in the process that runs it."""
    started, start = [], threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    threading.Thread.start = recording
    try:
        run_supervisor(*args)
    finally:
        threading.Thread.start = start
    return started


class TestPooledGeneration:
    """Whole generations in one process: the memo's counts, the phase
    timings, degenerate data, and a run inside a caller's own pool."""

    def test_repeated_uncached_mask_in_one_generation(self, monkeypatch):
        # three features leave 8 masks for 12 chromosomes, so a generation
        # produces the same not-yet-memoized mask more than once
        d = synthetic_dataset(n_instances=30, n_features=3, n_informative=2, seed=8)
        cfg = SupervisorConfig(population_size=12, generations=3, seed=4)
        proto = CvProtocol(folds=3, repeats=1, base_seed=4)
        keys = []
        memo = FitnessEvaluator.fitness

        def recording(ev, mask):
            keys.append((mask.key(), mask.key() in ev._cache))
            return memo(ev, mask)

        monkeypatch.setattr(FitnessEvaluator, "fitness", recording)
        result = run_supervisor(d, cfg, proto)
        repeats = 0
        for g in range(cfg.generations):
            calls = keys[1 + g * cfg.population_size:1 + (g + 1) * cfg.population_size]
            new = {k for k, seen in calls if not seen}  # not memoized as g began
            repeats += sum(k in new for k, _ in calls) - len(new)
        assert repeats > 0
        evaluations = 1 + cfg.generations * cfg.population_size
        assert len(keys) == evaluations
        assert result.fitness_computations == len({k for k, _ in keys})
        assert result.fitness_computations + result.fitness_cache_hits == evaluations
        assert result.fitness_computations <= 8

    def test_runs_in_process_inside_a_pool_worker(self, small_dataset):
        # a caller's daemonic pool worker may not fork; the run must not try
        cfg = SupervisorConfig(population_size=6, generations=3, seed=6)
        proto = CvProtocol(folds=5, base_seed=6)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply_async(
                _run_in_daemon, ((small_dataset, cfg, proto),)).get(timeout=60)
        assert inside == outcome(run_supervisor(small_dataset, cfg, proto))

    def test_phase_seconds(self, small_dataset):
        cfg = SupervisorConfig(population_size=6, generations=3, seed=6)
        result = run_supervisor(small_dataset, cfg, CvProtocol(folds=5, base_seed=6),
                                {"1x5": CvProtocol(folds=5, base_seed=0)})
        phases = result.phase_seconds
        assert list(phases) == ["heuristics", "fitness", "ga", "report"]
        assert all(t > 0 for t in phases.values())
        assert sum(phases.values()) <= result.wall_time

    def test_all_constant_columns(self):
        # every distance ties at 0, so each row's neighbour is the lowest
        # row outside its fold, and every merit is 0
        X = np.ones((30, 4)) * [1.0, 2.0, 3.0, 4.0]
        d = Dataset.from_arrays("constant", X, np.arange(30) % 2)
        cfg = SupervisorConfig(population_size=6, generations=3, seed=1)
        proto = CvProtocol(folds=5, base_seed=1)
        report = {"2x5": CvProtocol(folds=5, repeats=2, base_seed=0)}
        result = run_supervisor(d, cfg, proto, report)
        assert result.search_fitness == result.initial_fitness
        assert result.search_fitness == cv_accuracy_cdist_reference(d, result.mask, proto)
        assert result.reported["2x5"] == cv_accuracy_cdist_reference(
            d, result.mask, report["2x5"])
        assert not any(result.llh_stats.improvements)

    def test_numeric_and_string_labels_give_equal_runs(self, tmp_path):
        # labels are names, not numbers: g/b and the same rows relabelled
        # 1/0 in the same first-appearance order load alike (the first
        # row's "1" becomes class 0) and replay the same run
        d = synthetic_dataset(n_instances=30, n_features=5, seed=12)
        first = d.labels[0]
        runs = []
        for names in ({True: "g", False: "b"}, {True: "1", False: "0"}):
            path = tmp_path / names[True] / "data.csv"
            path.parent.mkdir()
            path.write_text("".join(
                ",".join(map(repr, row.tolist())) + f",{names[bool(label == first)]}\n"
                for row, label in zip(d.features, d.labels)))
            loaded = load_csv(path)
            assert loaded.features.tolist() == d.features.tolist()
            assert loaded.labels.tolist() == (d.labels != first).astype(int).tolist()
            cfg = SupervisorConfig(population_size=6, generations=3, seed=5)
            runs.append(outcome(run_supervisor(loaded, cfg, CvProtocol(folds=5, base_seed=5))))
        assert runs[0] == runs[1]


@pytest.fixture
def fitness_pids(monkeypatch, tmp_path):
    """Log the pid of every fitness computation (a call of
    ``FitnessEvaluator._accuracies``), in whichever process it runs;
    returns a reader of the logged pids."""
    log = tmp_path / "fitness_pids"
    log.touch()
    accuracies = FitnessEvaluator._accuracies

    def logged(ev, idx):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return accuracies(ev, idx)

    monkeypatch.setattr(FitnessEvaluator, "_accuracies", logged)
    return lambda: [int(pid) for pid in log.read_text().split()]


class TestFitnessWorker:
    """A lone run has no fitness worker (the class keeps the name from when
    it had one): on two usable cores it computes every mask in this
    process, starts no process and gives the result of a one-core run."""

    @pytest.mark.parametrize("class_count", [2, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_and_two_cores_give_equal_results(self, monkeypatch, fitness_pids,
                                                  class_count, seed):
        d = synthetic_dataset(n_instances=72, n_features=12, n_informative=5,
                              class_count=class_count, seed=30 + class_count)
        cfg = SupervisorConfig(population_size=10, generations=6, seed=seed)
        proto = CvProtocol(folds=5, base_seed=seed)
        report = {"2x5": CvProtocol(folds=5, repeats=2, base_seed=0)}
        outcomes = []
        for count in (1, 2):
            on_cores(monkeypatch, count)
            outcomes.append(outcome(run_supervisor(d, cfg, proto, report)))
            assert multiprocessing.active_children() == []
        assert outcomes[1] == outcomes[0]
        assert set(fitness_pids()) == {os.getpid()}

    def test_normal_run_leaves_no_process(self, monkeypatch, fitness_pids, small_dataset):
        on_cores(monkeypatch, 2)
        tracker = resource_tracker._resource_tracker._pid
        cfg = SupervisorConfig(population_size=6, generations=3, seed=6)
        run_supervisor(small_dataset, cfg, CvProtocol(folds=5, base_seed=6))
        assert set(fitness_pids()) == {os.getpid()}
        assert multiprocessing.active_children() == []
        assert resource_tracker._resource_tracker._pid == tracker  # none started

    def test_interrupt_mid_generation_leaves_no_process(self, monkeypatch, small_dataset):
        run, calls = llh.run_generation, []

        def interrupting(*args):
            calls.append(args)
            if len(calls) == 2:  # generation 1
                raise KeyboardInterrupt
            return run(*args)

        monkeypatch.setattr(llh, "run_generation", interrupting)
        on_cores(monkeypatch, 2)
        cfg = SupervisorConfig(population_size=8, generations=3, seed=6)
        with pytest.raises(KeyboardInterrupt):
            run_supervisor(small_dataset, cfg, CvProtocol(folds=5, base_seed=6))
        assert multiprocessing.active_children() == []


class TestHelperThreads:
    """A lone run computes each generation's fitness on this thread and one
    helper thread per further usable core: the results are a one-core
    run's, and no thread is left after a run, a failure or an interrupt."""

    def run_args(self, dataset):
        cfg = SupervisorConfig(population_size=8, generations=3, seed=6)
        return dataset, cfg, CvProtocol(folds=5, base_seed=6)

    def test_one_two_and_three_cores_give_equal_results(self, monkeypatch):
        d = synthetic_dataset(n_instances=72, n_features=12, n_informative=5,
                              class_count=3, seed=33)
        cfg = SupervisorConfig(population_size=10, generations=6, seed=2)
        proto = CvProtocol(folds=5, base_seed=2)
        report = {"2x5": CvProtocol(folds=5, repeats=2, base_seed=0)}
        outcomes = []
        for count in (1, 2, 3):
            on_cores(monkeypatch, count)
            outcomes.append(outcome(run_supervisor(d, cfg, proto, report)))
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    @pytest.mark.parametrize("count, helpers", [(1, 0), (2, 1), (3, 2), (40, 7)])
    def test_one_helper_per_further_core_and_fewer_than_the_population(
            self, monkeypatch, small_dataset, count, helpers):
        on_cores(monkeypatch, count)
        threads = threading.enumerate()
        started = _threads_started_by_run(self.run_args(small_dataset))
        assert started == ["hhfs-helper"] * helpers
        assert threading.enumerate() == threads

    def test_run_inside_a_pool_worker_starts_no_thread(self, monkeypatch, small_dataset):
        on_cores(monkeypatch, 2)  # the forked worker inherits it
        with multiprocessing.get_context("fork").Pool(1) as pool:
            started = pool.apply_async(
                _threads_started_by_run, (self.run_args(small_dataset),)).get(timeout=60)
        assert started == []

    def fail_in(self, monkeypatch, where: str, exc: BaseException) -> None:
        """Make a generation's fitness raise ``exc`` from a helper's
        computation or from this thread's, while the other thread computes."""
        accuracies, other_busy = FitnessEvaluator._accuracies, threading.Event()

        def failing(ev, idx):
            if not any(t.name == "hhfs-helper" for t in threading.enumerate()):
                return accuracies(ev, idx)  # the initial incumbent
            here = "caller" if threading.current_thread() is threading.main_thread() else "helper"
            if here != where:
                other_busy.set()
                time.sleep(0.05)  # still computing when the other thread raises
                return accuracies(ev, idx)
            assert other_busy.wait(timeout=30)
            raise exc

        monkeypatch.setattr(FitnessEvaluator, "_accuracies", failing)

    @pytest.mark.parametrize("where", ["helper", "caller"])
    @pytest.mark.parametrize("exc", [RuntimeError("a computation failed"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_failing_or_interrupted_fitness_leaves_no_thread(self, monkeypatch, small_dataset,
                                                             where, exc):
        on_cores(monkeypatch, 2)
        self.fail_in(monkeypatch, where, exc)
        threads = threading.enumerate()
        with pytest.raises(type(exc)):
            run_supervisor(*self.run_args(small_dataset))
        assert threading.enumerate() == threads
