"""GA supervisor: evolves sequences of low-level heuristic ids.

The supervisor is problem-blind. Its chromosomes do not encode feature
masks; they encode which heuristics to call and in what order. Evaluating
a chromosome replays its heuristic sequence on a snapshot of the incumbent
mask S and scores the final mask with the 1NN wrapper fitness. The
incumbent advances only on strict fitness improvement, so its fitness
history is non-decreasing by construction.

Reproducibility contract: all randomness derives from the run seed. The
heuristic stream of chromosome i in generation g is seeded by
(seed, 1, g, i), so evaluations are order-independent within a generation
and the whole run is bit-exact replayable.

The population is one C-contiguous (population_size, nllh) int64 array,
a chromosome per row, and a generation's heuristics are one kernel call
over it (``llh.run_generation``). Indexing the elites and the
roulette-drawn mating pool out of it copies those rows, which the
kernel's crossover and mutation then edit in place, one call each. A
generation's GA draws, in order: the pool's roulette picks; per
consecutive pool pair, a crossover coin and, when it says cross, a cut;
per pool row, a coin per gene, then a new id per hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cores, llh
from .correlation import CorrelationCache, _climb, build_cache
from .dataset import Dataset, stratified_folds
from .evaluation import CvProtocol, FitnessEvaluator, cv_accuracies
from .llh import NUM_LLH
from .mask import FeatureMask


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervisor GA.

    Defaults follow the benchmark setup: 200 generations, crossover 0.7,
    mutation 0.1, chromosomes of length 16. Population size 30 and one
    elite are engine choices; set elitism=0 for a pure generational GA.
    """

    population_size: int = 30
    generations: int = 200
    p_crossover: float = 0.7
    p_mutation: float = 0.1
    nllh: int = NUM_LLH
    elitism: int = 1
    mutn_rate: float = llh.MUTN_RATE
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population size must be at least 2")
        if self.generations < 1:
            raise ValueError("need at least 1 generation")
        for p, what in [(self.p_crossover, "p_crossover"), (self.p_mutation, "p_mutation")]:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{what} must lie in [0, 1]")
        if self.nllh < 1:
            raise ValueError("chromosomes need at least one gene")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError("elitism must lie in 0..population_size-1")
        if not 0.0 < self.mutn_rate < 1.0:
            raise ValueError("mutn_rate must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class GenerationRecord(NamedTuple):
    """One history row: the generation index, the best chromosome fitness
    seen in it, and the incumbent's fitness and subset size after it."""

    generation: int
    best_chromosome_fitness: float
    incumbent_fitness: float
    incumbent_m: int


@dataclass
class LlhStats:
    """Per-heuristic invocation and strict-merit-improvement counters,
    indexed by heuristic id (index 0 is unused); int64 arrays, which the
    compiled heuristics count into."""

    invocations: np.ndarray = field(default_factory=lambda: np.zeros(NUM_LLH + 1, dtype=np.int64))
    improvements: np.ndarray = field(default_factory=lambda: np.zeros(NUM_LLH + 1, dtype=np.int64))

    def as_dict(self) -> dict[str, dict[str, int]]:
        return {
            llh.CATALOG[i].name: {
                "invocations": int(self.invocations[i]),
                "improvements": int(self.improvements[i]),
            }
            for i in sorted(llh.CATALOG)
        }


@dataclass
class SupervisorResult:
    """Outcome of one supervisor run."""

    mask: FeatureMask
    search_fitness: float
    reported: dict[str, float]
    history: list[GenerationRecord]
    llh_stats: LlhStats
    seed: int
    initial_fitness: float
    initial_m: int
    fitness_computations: int
    fitness_cache_hits: int
    wall_time: float
    # wall seconds spent in each phase of the run: heuristics, fitness (the
    # CV computations and memo lookups, in this process, on its helper
    # threads too where it has further cores), ga, report; the rest of
    # wall_time is set-up
    phase_seconds: dict[str, float]

    @property
    def m(self) -> int:
        return self.mask.selected_count()

    @property
    def improved(self) -> bool:
        """Whether the incumbent ever advanced past the initial solution."""
        return self.search_fitness > self.initial_fitness


def roulette_select(fitnesses, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` indices, each sampled with probability fitness_i /
    sum(fitness); uniform if every fitness is zero. Fitnesses must be
    non-negative."""
    fits = np.asarray(fitnesses, dtype=np.float64)
    if fits.size == 0:
        raise ValueError("cannot select from an empty population")
    if fits.min() < 0:
        raise ValueError("roulette selection needs non-negative fitnesses")
    total = float(fits.sum())
    if total == 0.0:
        return rng.integers(fits.size, size=size)
    idx = np.searchsorted(np.cumsum(fits), rng.random(size) * total, side="right")
    return np.minimum(idx, fits.size - 1)


def single_point_crossover(pair: np.ndarray, rng: np.random.Generator,
                           p_crossover: float) -> None:
    """With probability p_crossover, cut the two rows of ``pair``
    (C-contiguous int64) at a uniform point in 1..len-1 and exchange their
    tails in place; otherwise, and for 1-gene rows, which have no such
    point, leave them. The coin is drawn either way, as ``rng.random()``,
    and the cut as ``rng.integers(1, len)``."""
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        _climb.crossover(pair, bit_generator, p_crossover)


def mutate_chromosome(genes: np.ndarray, p_mutation: float,
                      rng: np.random.Generator) -> None:
    """Each gene of the row ``genes`` (C-contiguous int64) independently
    mutates in place with probability p_mutation to a uniform id in 1..16
    other than its current value, so mutated genes always change: the
    coins are ``rng.random(len)``, then the hits' ids
    ``rng.integers(1, 16, size=hits)``, each shifted up past the old id."""
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        _climb.mutate(genes[np.newaxis], bit_generator, p_mutation)


def _next_generation(population: np.ndarray, fits: np.ndarray,
                     cfg: SupervisorConfig, rng: np.random.Generator) -> np.ndarray:
    """Steps 6-8: elites pass through, roulette fills the mating pool,
    consecutive pairs cross over, everyone in the pool mutates. Indexing
    copies the rows, so the edits leave ``population`` as it was."""
    elites = population[np.argsort(-fits, kind="stable")[:cfg.elitism]]
    pool = population[roulette_select(fits, rng, cfg.population_size - cfg.elitism)]
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        _climb.crossover(pool, bit_generator, cfg.p_crossover)
        _climb.mutate(pool, bit_generator, cfg.p_mutation)
    return np.concatenate([elites, pool])


def run_supervisor(dataset: Dataset, cfg: SupervisorConfig,
                   search_protocol: CvProtocol,
                   report_protocols: dict[str, CvProtocol] | None = None,
                   cache: CorrelationCache | None = None) -> SupervisorResult:
    """Run the supervisor GA once and return the final incumbent.

    Per generation: every chromosome's genes run from the same incumbent
    mask, chromosome i of generation g on the stream seeded (seed, 1, g, i);
    the best resulting mask replaces the incumbent only if its fitness
    strictly improves; selection, crossover and mutation then produce the
    next population. After the last generation the incumbent
    is re-evaluated under each reporting protocol. Datasets with fewer
    than 2 features are rejected: SWPD needs two dimensions to swap. So is
    a ``cache`` built for another feature count, and a reporting protocol
    of more folds than instances, before any work starts.

    A run is one process: it starts no worker, whatever the cores. A
    generation's heuristics are one compiled call, and its fitness is
    computed after them, by this thread and, where ``cores.may_fork()``
    allows, a helper thread per further usable core (at most one fewer than
    the population). The helpers start once per run and are stopped and
    joined before it returns or raises; the results do not depend on them.
    """
    if dataset.n_features < 2:
        raise ValueError("the supervisor needs at least 2 features, "
                         f"dataset {dataset.name!r} has {dataset.n_features}")
    start = time.perf_counter()
    if cache is None:
        cache = build_cache(dataset)
    elif cache.n_features != dataset.n_features:
        raise ValueError(f"the correlation cache covers {cache.n_features} features, "
                         f"dataset {dataset.name!r} has {dataset.n_features}")
    evaluator = FitnessEvaluator(dataset, search_protocol)
    report_protocols = report_protocols or {}
    for p in report_protocols.values():  # the one refusal the search's folds do not make
        stratified_folds(dataset, p.folds, p.base_seed)
    init_rng = np.random.default_rng([cfg.seed, 0])
    ga_rng = np.random.default_rng([cfg.seed, 2])

    incumbent = FeatureMask.random(dataset.n_features, init_rng)
    population = init_rng.integers(1, NUM_LLH + 1, size=(cfg.population_size, cfg.nllh))
    incumbent_fitness = evaluator.fitness(incumbent)
    initial_fitness = incumbent_fitness
    initial_m = incumbent.selected_count()

    stats = LlhStats()
    history: list[GenerationRecord] = []
    phases = dict.fromkeys(("heuristics", "fitness", "ga", "report"), 0.0)
    spare = cores.usable_cores() - 1 if cores.may_fork() else 0
    with cores.Helpers(min(spare, cfg.population_size - 1)) as helpers:
        for gen in range(cfg.generations):
            t0 = time.perf_counter()
            masks = llh.run_generation(population, incumbent, cache, cfg.seed, gen,
                                       cfg.mutn_rate, stats.invocations, stats.improvements)
            t1 = time.perf_counter()
            fits = np.array(evaluator.fitnesses(masks, helpers), dtype=np.float64)
            t2 = time.perf_counter()
            best_i = int(np.argmax(fits))
            if fits[best_i] > incumbent_fitness:
                incumbent = masks[best_i]
                incumbent_fitness = float(fits[best_i])
            history.append(GenerationRecord(
                generation=gen,
                best_chromosome_fitness=float(fits[best_i]),
                incumbent_fitness=incumbent_fitness,
                incumbent_m=incumbent.selected_count(),
            ))
            population = _next_generation(population, fits, cfg, ga_rng)
            phases["heuristics"] += t1 - t0
            phases["fitness"] += t2 - t1
            phases["ga"] += time.perf_counter() - t2

    t0 = time.perf_counter()
    reported = cv_accuracies(dataset, incumbent, report_protocols)
    end = time.perf_counter()
    phases["report"] = end - t0
    return SupervisorResult(
        mask=incumbent,
        search_fitness=incumbent_fitness,
        reported=reported,
        history=history,
        llh_stats=stats,
        seed=cfg.seed,
        initial_fitness=initial_fitness,
        initial_m=initial_m,
        fitness_computations=evaluator.computations,
        fitness_cache_hits=evaluator.hits,
        wall_time=end - start,
        phase_seconds=phases,
    )
