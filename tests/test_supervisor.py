import dataclasses
import multiprocessing
import os
from multiprocessing import resource_tracker

import numpy as np
import pytest

from conftest import (MeritScan, OracleContext, StubRng, best_flip_oracle,
                      cv_accuracy_cdist_reference, flip, on_cores,
                      oracle_run_genes, record_call, synthetic_dataset)
from hhfs import llh
from hhfs.correlation import build_cache, cfs_merit
from hhfs.dataset import Dataset, load_csv
from hhfs.evaluation import CvProtocol, FitnessEvaluator
from hhfs.llh import LlhContext, apply
from hhfs.mask import FeatureMask
from hhfs.supervisor import (Chromosome, LlhStats, SupervisorConfig,
                             SupervisorResult, mutate_chromosome,
                             random_chromosome,
                             roulette_select, run_supervisor,
                             single_point_crossover)


class TestChromosome:
    def test_validation(self):
        with pytest.raises(ValueError):
            Chromosome(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            Chromosome(np.array([1, 17]))
        with pytest.raises(ValueError):
            Chromosome(np.array([], dtype=int))

    @pytest.mark.parametrize("genes", [[1.5, 2.9], [1.0, 2.0], [True, True],
                                       np.array([3, 4], dtype=np.float32), ["1", "2"]])
    def test_rejects_non_integer_genes_before_casting(self, genes):
        # an int64 cast first would have read these as [1, 2], [1, 1], ...
        with pytest.raises(ValueError, match="^genes must be integers, not "):
            Chromosome(genes)

    def test_accepts_any_integer_type_as_a_read_only_int64_copy(self):
        for genes in ([3, 16], np.array([3, 16], dtype=np.uint8), (np.int32(3), np.int64(16))):
            c = Chromosome(genes)
            assert c.genes.dtype == np.int64 and c.genes.tolist() == [3, 16]
            assert not c.genes.flags.writeable

    def test_random_chromosome_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = random_chromosome(16, rng)
            assert c.genes.size == 16
            assert c.genes.min() >= 1 and c.genes.max() <= 16


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
            chrom = random_chromosome(16, rng)
            run_genes(cache, 8, chrom.genes, incumbent, gen=5, i=i, stats=stats)
            replay = LlhContext(cache=cache, rng=np.random.default_rng([8, 1, 5, i]))
            mask = incumbent
            for gene in chrom.genes:
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
        chroms = [random_chromosome(16, rng) for _ in range(6)]

        def evaluate_in(order):
            outputs = {}
            for i in order:
                mask, stats = run_genes(cache, 7, chroms[i].genes, incumbent, i=i)
                outputs[i] = mask, evaluator.fitness(mask), stats.as_dict()
            return outputs

        assert evaluate_in(range(6)) == evaluate_in(reversed(range(6)))


class TestRouletteSelect:
    def test_zero_fitness_never_chosen(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert roulette_select([1.0, 0.0], rng) == 0

    def test_uniform_when_equal(self):
        rng = np.random.default_rng(1)
        draws = np.array([roulette_select([1, 1, 1, 1], rng) for _ in range(10000)])
        freqs = np.bincount(draws, minlength=4) / 10000
        # p = 0.25, sigma of a frequency ~ 0.00433
        assert np.all(np.abs(freqs - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 10000))

    def test_proportional_to_fitness(self):
        rng = np.random.default_rng(2)
        draws = np.array([roulette_select([3.0, 1.0], rng) for _ in range(10000)])
        freq0 = np.mean(draws == 0)
        assert abs(freq0 - 0.75) < 3 * np.sqrt(0.75 * 0.25 / 10000)

    def test_all_zero_falls_back_to_uniform(self):
        rng = np.random.default_rng(3)
        draws = [roulette_select([0.0, 0.0, 0.0], rng) for _ in range(3000)]
        assert set(draws) == {0, 1, 2}

    def test_errors(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            roulette_select([], rng)
        with pytest.raises(ValueError):
            roulette_select([-1.0, 2.0], rng)


class TestCrossover:
    def test_cut_point_exchange(self):
        a = Chromosome(np.full(16, 1))
        b = Chromosome(np.full(16, 2))
        # first draw 0.0 < p triggers crossover, second scripted cut = 8
        rng = StubRng(randoms=[0.0], integers=[8])
        c1, c2 = single_point_crossover(a, b, rng, p_crossover=0.7)
        assert c1.genes.tolist() == [1] * 8 + [2] * 8
        assert c2.genes.tolist() == [2] * 8 + [1] * 8

    def test_skipped_crossover_copies_parents(self):
        a = Chromosome(np.arange(1, 17))
        b = Chromosome(np.arange(16, 0, -1))
        rng = StubRng(randoms=[0.99])
        c1, c2 = single_point_crossover(a, b, rng, p_crossover=0.7)
        assert c1.genes.tolist() == a.genes.tolist()
        assert c2.genes.tolist() == b.genes.tolist()
        for c in (a, b, c1, c2):  # read-only genes: sharing a parent is safe
            with pytest.raises(ValueError):
                c.genes[0] = 5
        assert a.genes[0] == 1

    def test_one_gene_parents_draw_the_coin_and_pass_through(self):
        a, b = Chromosome(np.array([3])), Chromosome(np.array([7]))
        rng = StubRng(randoms=[0.0])  # the coin says cross; no cut is drawn
        c1, c2 = single_point_crossover(a, b, rng, p_crossover=0.7)
        assert c1 is a and c2 is b
        assert rng._randoms == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            single_point_crossover(Chromosome(np.array([1, 2])),
                                   Chromosome(np.array([1, 2, 3])),
                                   np.random.default_rng(0), 1.0)

    def test_gene_multiset_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a = random_chromosome(16, rng)
            b = random_chromosome(16, rng)
            c1, c2 = single_point_crossover(a, b, rng, p_crossover=0.7)
            combined = np.sort(np.concatenate([c1.genes, c2.genes]))
            original = np.sort(np.concatenate([a.genes, b.genes]))
            assert combined.tolist() == original.tolist()


class TestMutation:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(6)
        c = random_chromosome(16, rng)
        out = mutate_chromosome(c, 0.0, rng)
        assert out.genes.tolist() == c.genes.tolist()

    def test_mutated_gene_never_keeps_its_value(self):
        rng = np.random.default_rng(7)
        genes = np.full(16, 9)
        for _ in range(625):  # 625 * 16 = 10000 gene trials
            out = mutate_chromosome(Chromosome(genes), 1.0, rng)
            assert np.all(out.genes != 9)
            assert np.all((out.genes >= 1) & (out.genes <= 16))

    def test_mean_changed_gene_count(self):
        rng = np.random.default_rng(8)
        c = random_chromosome(16, rng)
        changed = sum(
            int(np.sum(mutate_chromosome(c, 0.1, rng).genes != c.genes))
            for _ in range(10000))
        # Binomial(16, 0.1): mean 1.6, sigma of the mean 0.012
        sigma_mean = np.sqrt(16 * 0.1 * 0.9) / 100
        assert abs(changed / 10000 - 1.6) < 3 * sigma_mean


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
        assert [r.__dict__ for r in a.history] == [r.__dict__ for r in b.history]
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

    def test_subset_size_bounded_by_feature_count(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=1, base_seed=7)
        result = run_supervisor(small_dataset, self.small_config(), proto)
        assert 0 < result.m <= small_dataset.n_features


WALL_CLOCK = {"wall_time", "phase_seconds"}


def outcome(result: SupervisorResult) -> dict:
    """Every SupervisorResult field but the wall-clock ones, in a form
    that compares with ==."""
    plain = {"mask": FeatureMask.to01, "llh_stats": LlhStats.as_dict,
             "history": lambda h: [dataclasses.astuple(r) for r in h]}
    return {f.name: plain.get(f.name, lambda v: v)(getattr(result, f.name))
            for f in dataclasses.fields(result) if f.name not in WALL_CLOCK}


def _run_in_daemon(args):
    return outcome(run_supervisor(*args))


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
def compute_pids(monkeypatch, tmp_path):
    """Log the pid of every ``FitnessEvaluator.compute`` call, in whichever
    process it runs; returns a reader of the logged pids."""
    log = tmp_path / "compute_pids"
    log.touch()
    compute = FitnessEvaluator.compute

    def logged(ev, mask):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return compute(ev, mask)

    monkeypatch.setattr(FitnessEvaluator, "compute", logged)
    return lambda: [int(pid) for pid in log.read_text().split()]


class TestFitnessWorker:
    """A lone run has no fitness worker (the class keeps the name from when
    it had one): on two usable cores it computes every mask in this
    process, starts no process and gives the result of a one-core run."""

    @pytest.mark.parametrize("class_count", [2, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_and_two_cores_give_equal_results(self, monkeypatch, compute_pids,
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
        assert set(compute_pids()) == {os.getpid()}

    def test_normal_run_leaves_no_process(self, monkeypatch, compute_pids, small_dataset):
        on_cores(monkeypatch, 2)
        tracker = resource_tracker._resource_tracker._pid
        cfg = SupervisorConfig(population_size=6, generations=3, seed=6)
        run_supervisor(small_dataset, cfg, CvProtocol(folds=5, base_seed=6))
        assert set(compute_pids()) == {os.getpid()}
        assert multiprocessing.active_children() == []
        assert resource_tracker._resource_tracker._pid == tracker  # none started

    def test_interrupt_mid_generation_leaves_no_process(self, monkeypatch, small_dataset):
        run, calls = llh.run_genes, []

        def interrupting(*args):
            calls.append(args)
            if len(calls) == 8 + 5:  # generation 1, chromosome 4
                raise KeyboardInterrupt
            return run(*args)

        monkeypatch.setattr(llh, "run_genes", interrupting)
        on_cores(monkeypatch, 2)
        cfg = SupervisorConfig(population_size=8, generations=3, seed=6)
        with pytest.raises(KeyboardInterrupt):
            run_supervisor(small_dataset, cfg, CvProtocol(folds=5, base_seed=6))
        assert multiprocessing.active_children() == []
