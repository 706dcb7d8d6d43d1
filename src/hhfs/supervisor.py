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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import llh
from .correlation import CorrelationCache, build_cache
from .dataset import Dataset
from .evaluation import CvProtocol, FitnessEvaluator, cv_accuracies
from .llh import NUM_LLH
from .mask import FeatureMask


@dataclass
class Chromosome:
    """Fixed-length sequence of heuristic ids (values 1..16, repeats
    allowed). The genes are a read-only copy of the input, so the GA can
    pass one chromosome into several places without copying it."""

    genes: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.genes)
        if given.ndim != 1 or given.size == 0:
            raise ValueError("genes must be a non-empty 1-d sequence")
        # checked before the cast, which would truncate 1.5 to 1 and read True as 1
        if not np.issubdtype(given.dtype, np.integer):
            raise ValueError(f"genes must be integers, not {given.dtype}")
        genes = given.astype(np.int64)
        if genes.min() < 1 or genes.max() > NUM_LLH:
            raise ValueError(f"gene values must lie in 1..{NUM_LLH}")
        genes.setflags(write=False)
        self.genes = genes


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
    mutn_rate: float = 0.1
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


@dataclass
class GenerationRecord:
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
    # CV computations and memo lookups, all in this process), ga, report;
    # the rest of wall_time is set-up
    phase_seconds: dict[str, float]

    @property
    def m(self) -> int:
        return self.mask.selected_count()

    @property
    def improved(self) -> bool:
        """Whether the incumbent ever advanced past the initial solution."""
        return self.search_fitness > self.initial_fitness


def random_chromosome(nllh: int, rng: np.random.Generator) -> Chromosome:
    return Chromosome(rng.integers(1, NUM_LLH + 1, size=nllh))


def roulette_select(fitnesses, rng: np.random.Generator) -> int:
    """Index sampled with probability fitness_i / sum(fitness); uniform if
    every fitness is zero. Fitnesses must be non-negative."""
    fits = np.asarray(fitnesses, dtype=np.float64)
    if fits.size == 0:
        raise ValueError("cannot select from an empty population")
    if fits.min() < 0:
        raise ValueError("roulette selection needs non-negative fitnesses")
    total = float(fits.sum())
    if total == 0.0:
        return int(rng.integers(fits.size))
    r = rng.random() * total
    idx = int(np.searchsorted(np.cumsum(fits), r, side="right"))
    return min(idx, fits.size - 1)


def single_point_crossover(a: Chromosome, b: Chromosome, rng: np.random.Generator,
                           p_crossover: float) -> tuple[Chromosome, Chromosome]:
    """With probability p_crossover, cut both parents at a uniform point in
    1..len-1 and exchange tails; otherwise, and for 1-gene parents, which
    have no such point, return the parents. The coin is drawn either way."""
    if a.genes.size != b.genes.size:
        raise ValueError("parents must have equal length")
    if rng.random() >= p_crossover or a.genes.size < 2:
        return a, b
    cut = int(rng.integers(1, a.genes.size))
    child1 = np.concatenate([a.genes[:cut], b.genes[cut:]])
    child2 = np.concatenate([b.genes[:cut], a.genes[cut:]])
    return Chromosome(child1), Chromosome(child2)


def mutate_chromosome(c: Chromosome, p_mutation: float,
                      rng: np.random.Generator) -> Chromosome:
    """Each gene independently mutates with probability p_mutation to a
    uniform id in 1..16 other than its current value, so mutated genes
    always change."""
    genes = c.genes.copy()
    coins = rng.random(genes.size) < p_mutation
    for pos in np.flatnonzero(coins):
        draw = int(rng.integers(1, NUM_LLH))
        if draw >= genes[pos]:
            draw += 1
        genes[pos] = draw
    return Chromosome(genes)


def _next_generation(population: list[Chromosome], fits: np.ndarray,
                     cfg: SupervisorConfig, rng: np.random.Generator) -> list[Chromosome]:
    """Steps 6-8: elites pass through, roulette fills the mating pool,
    consecutive pairs cross over, everyone in the pool mutates."""
    elite_idx = np.argsort(-fits, kind="stable")[:cfg.elitism]
    elites = [population[int(i)] for i in elite_idx]
    pool = [population[roulette_select(fits, rng)]
            for _ in range(cfg.population_size - cfg.elitism)]
    crossed: list[Chromosome] = []
    for i in range(0, len(pool) - 1, 2):
        c1, c2 = single_point_crossover(pool[i], pool[i + 1], rng, cfg.p_crossover)
        crossed.extend([c1, c2])
    if len(pool) % 2:
        crossed.append(pool[-1])
    mutated = [mutate_chromosome(c, cfg.p_mutation, rng) for c in crossed]
    return elites + mutated


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
    a ``cache`` built for another feature count, before any work starts.

    A run is one process: it starts no worker, whatever the cores. Each
    chromosome's genes are one compiled call, and the run's fitness is
    computed here, after the generation's heuristics.
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
    init_rng = np.random.default_rng([cfg.seed, 0])
    ga_rng = np.random.default_rng([cfg.seed, 2])

    incumbent = FeatureMask.random(dataset.n_features, init_rng)
    population = [random_chromosome(cfg.nllh, init_rng)
                  for _ in range(cfg.population_size)]
    incumbent_fitness = evaluator.fitness(incumbent)
    initial_fitness = incumbent_fitness
    initial_m = incumbent.selected_count()

    stats = LlhStats()
    history: list[GenerationRecord] = []
    phases = dict.fromkeys(("heuristics", "fitness", "ga", "report"), 0.0)
    for gen in range(cfg.generations):
        t0 = time.perf_counter()
        masks = [llh.run_genes(chrom.genes, incumbent, cache,
                               np.random.PCG64([cfg.seed, 1, gen, i]), cfg.mutn_rate,
                               stats.invocations, stats.improvements)
                 for i, chrom in enumerate(population)]
        t1 = time.perf_counter()
        fits = np.array([evaluator.fitness(mask) for mask in masks], dtype=np.float64)
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
    reported = cv_accuracies(dataset, incumbent, report_protocols or {})
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
