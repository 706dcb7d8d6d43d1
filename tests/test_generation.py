"""The kernel's per-generation entry points: ``_climb.generation``, which
seeds row i's stream itself from row i of ``llh.stream_keys(seed, gen,
rows)``, as ``PCG64([seed, 1, gen, i])``, against the Python rules in
``conftest`` (``oracle_run_genes``) on numpy's own generator of that key,
and the refusals of ``generation`` and of the GA's ``breed``."""

import contextlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MeritScan, OracleContext, oracle_run_genes, random_cache
from hhfs import llh
from hhfs.llh import NUM_LLH, _climb
from hhfs.mask import FeatureMask
from hhfs.supervisor import LlhStats

# one, two, three and four entropy words
SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 123_456_789_012_345_678_901_234, 2 ** 100 + 1]
GENS = [0, 199, 2 ** 32 + 1]
# DBHC, RMHC, SWPD and DIMM draw 32-bit words, DIMM, HYPM and MUTN doubles:
# mixed, a double leaves next_uint32's buffered half-word for a later gene
DRAWING_GENES = [7, 8, 9, 10, 11, 12, 13, 14, 15, 16]


def generation(population, seed, gen, mask, cache, mutn_rate=0.1, threads=1, **replace):
    """``_climb.generation`` on ``llh.stream_keys(seed, gen, rows)`` and
    ``threads`` threads with fresh outputs and counters (any of them, or
    the keys, replaced by keyword): the rows and the LlhStats."""
    stats = LlhStats()
    a = dict(population=population, keys=llh.stream_keys(seed, gen, len(population)),
             bits=mask.bits,
             feature_class=cache.feature_class,
             feature_feature=cache.feature_feature, invocations=stats.invocations,
             improvements=stats.improvements,
             masks_out=np.empty((len(population), mask.n), dtype=bool))
    a.update(replace)
    _climb.generation(a["population"], a["keys"], a["bits"], a["feature_class"],
                      a["feature_feature"], mutn_rate, a["invocations"], a["improvements"],
                      a["masks_out"], threads)
    return a["masks_out"], stats


def oracle_rows(population, seed, gen, mask, cache, mutn_rate=0.1):
    """Each row through ``oracle_run_genes`` from ``mask``, row i on
    ``np.random.default_rng([seed, 1, gen, i])``: the final scans and the
    LlhStats."""
    stats, base = LlhStats(), MeritScan(cache, mask.bits)
    return [oracle_run_genes(genes, base, OracleContext(
                cache, np.random.default_rng([seed, 1, gen, i]), mutn_rate), stats)
            for i, genes in enumerate(population)], stats


@st.composite
def keys(draw):
    """A stream key, a population drawing both word sizes, an incumbent
    and its cache."""
    n = draw(st.integers(2, 20))
    rows, length = draw(st.integers(1, 8)), draw(st.integers(1, 20))
    genes = st.sampled_from(DRAWING_GENES) | st.integers(1, NUM_LLH)
    population = np.array(draw(st.lists(st.lists(genes, min_size=length, max_size=length),
                                        min_size=rows, max_size=rows)), dtype=np.int64)
    bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (draw(st.sampled_from(SEEDS) | st.integers(0, 2 ** 80)),
            draw(st.sampled_from(GENS) | st.integers(0, 2 ** 40)),
            population, FeatureMask(bits), random_cache(n, seed=draw(st.integers(0, 99))))


@given(st.integers(0, 2 ** 200), st.integers(0, 2 ** 200))
def test_entropy_words_are_seed_sequence_s(a, b):
    words = llh.entropy_words(a) + llh.entropy_words(b)
    assert (np.random.SeedSequence(words).generate_state(4).tolist()
            == np.random.SeedSequence([a, b]).generate_state(4).tolist())


@given(st.sampled_from(SEEDS) | st.integers(0, 2 ** 200),
       st.sampled_from(GENS) | st.integers(0, 2 ** 200), st.integers(0, 40))
def test_stream_key_rows_are_seed_sequence_s(seed, gen, rows):
    keys = llh.stream_keys(seed, gen, rows)
    assert keys.dtype == np.uint32 and keys.shape[0] == rows
    for i, key in enumerate(keys):
        assert (np.random.SeedSequence(key).generate_state(4).tolist()
                == np.random.SeedSequence([seed, 1, gen, i]).generate_state(4).tolist())


@settings(max_examples=150, deadline=None)
@given(keys(), st.sampled_from([0.1, 0.5]))
def test_generation_equals_the_oracle_on_numpy_s_streams(key, mutn_rate):
    seed, gen, population, mask, cache = key
    masks, stats = generation(population, seed, gen, mask, cache, mutn_rate)
    expected, expected_stats = oracle_rows(population, seed, gen, mask, cache, mutn_rate)
    assert masks.tolist() == [scan.bits.tolist() for scan in expected]
    assert stats.as_dict() == expected_stats.as_dict()


@pytest.mark.parametrize("gen", GENS)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_listed_key(seed, gen):
    # RMHC's one 32-bit word, then doubles, then words again: the buffered
    # half-word of the first RMHC's draw is the next word drawn
    population = np.array([[10, 15, 10, 16, 13, 14, 7],
                           [11, 16, 12, 14, 15, 8, 13],
                           [14, 14, 13, 10, 16, 9, 12]], dtype=np.int64)
    cache = random_cache(9, seed=seed % 97)
    mask = FeatureMask([1, 0, 0, 1, 1, 0, 1, 0, 1])
    masks, stats = generation(population, seed, gen, mask, cache)
    expected, expected_stats = oracle_rows(population, seed, gen, mask, cache)
    assert masks.tolist() == [scan.bits.tolist() for scan in expected]
    assert stats.as_dict() == expected_stats.as_dict()


@settings(max_examples=60, deadline=None)
@given(keys(), st.data())
def test_a_slice_of_rows_and_keys_gives_those_rows(key, data):
    seed, gen, population, mask, cache = key
    a = data.draw(st.integers(0, len(population)))
    b = data.draw(st.integers(a, len(population)))
    masks, stats = generation(population, seed, gen, mask, cache)
    keys = llh.stream_keys(seed, gen, len(population))
    head, head_stats = generation(population[:a], seed, gen, mask, cache, keys=keys[:a])
    part, part_stats = generation(population[a:b], seed, gen, mask, cache, keys=keys[a:b])
    tail, tail_stats = generation(population[b:], seed, gen, mask, cache, keys=keys[b:])
    assert part.tolist() == masks[a:b].tolist()
    assert np.concatenate([head, part, tail]).tolist() == masks.tolist()
    for counter in ("invocations", "improvements"):
        parts = [getattr(s, counter) for s in (head_stats, part_stats, tail_stats)]
        assert sum(parts).tolist() == getattr(stats, counter).tolist()


@contextlib.contextmanager
def switching_often():
    """The interpreter asks for a thread switch every microsecond, so a
    call that ran Python code on another thread while holding the GIL, or
    wrote an output unlocked, would show it."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=40, deadline=None)
@given(keys())
def test_any_thread_count_gives_one_thread_s_rows(key):
    seed, gen, population, mask, cache = key
    rows = len(population)
    start = np.arange(NUM_LLH + 1, dtype=np.int64)  # the counters are added to
    outcomes = []
    with switching_often():
        for threads in (1, 2, 3, rows, rows + 3):
            stats = LlhStats(start.copy(), start[::-1].copy())
            masks, _ = generation(  # every row pre-filled, then written
                population, seed, gen, mask, cache, threads=threads,
                masks_out=np.tile(~mask.bits, (rows, 1)),
                invocations=stats.invocations, improvements=stats.improvements)
            outcomes.append((masks.tolist(), stats.invocations.tolist(),
                             stats.improvements.tolist()))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    masks, stats = generation(population, seed, gen, mask, cache)
    assert outcomes[0] == (masks.tolist(), (stats.invocations + start).tolist(),
                           (stats.improvements + start[::-1]).tolist())


def test_run_generation_returns_the_incumbent_for_unmoved_rows():
    cache = random_cache(6, seed=5)
    mask = FeatureMask([1, 0, 1, 1, 0, 0])
    # SWPD rows: whether a swap moves depends on the stream
    population = np.full((12, 1), 13, dtype=np.int64)
    stats = LlhStats()
    out = llh.run_generation(population, mask, cache, 4, 2, 0.1, stats.invocations,
                             stats.improvements)
    expected, expected_stats = oracle_rows(population, 4, 2, mask, cache)
    moved = np.array([scan.bits.tolist() != mask.bits.tolist() for scan in expected])
    assert out.dtype == bool and out.shape == (12, 6)
    assert 0 < moved.sum() < 12
    assert out.tolist() == [scan.bits.tolist() for scan in expected]
    assert (out[~moved] == mask.bits).all()
    assert stats.as_dict() == expected_stats.as_dict()


class TestGenerationArguments:
    """Every buffer, gene id and key is checked before any row runs, so a
    refusal leaves the counters and outputs as they were."""

    N, ROWS = 6, 4

    @pytest.fixture
    def args(self):
        cache = random_cache(self.N, seed=41)
        population = np.tile(np.arange(1, NUM_LLH + 1, dtype=np.int64), (self.ROWS, 1))
        return population, FeatureMask([1, 0, 1, 1, 0, 0]), cache

    def test_valid_arguments_run(self, args):
        masks, stats = generation(*args[:1], 3, 0, *args[1:])
        assert stats.invocations[1:].tolist() == [self.ROWS] * NUM_LLH
        assert masks.shape == (self.ROWS, self.N)

    @pytest.mark.parametrize("bad", [0, 17, -(2 ** 62)])
    def test_unknown_gene_id(self, args, bad):
        population, mask, cache = args
        population[-1, -1] = bad
        stats = LlhStats()
        with pytest.raises(ValueError, match=f"^unknown low-level heuristic id {bad}$"):
            generation(population, 3, 0, mask, cache, invocations=stats.invocations)
        assert not stats.invocations.any()

    def test_swap_needs_two_dimensions(self):
        cache = random_cache(1, seed=2)
        with pytest.raises(ValueError, match="^swap needs at least 2 dimensions$"):
            generation(np.array([[1, 13]]), 0, 0, FeatureMask([1]), cache)

    @pytest.mark.parametrize("name, bad, message", [
        ("population", np.ones((ROWS, 16), dtype=np.int32),
         "population must hold int64, not format 'i' of 4 bytes"),
        ("population", np.ones(16, dtype=np.int64),
         "population must have 2 dimension(s), not 1"),
        ("population", np.ones((ROWS, 32), dtype=np.int64)[:, ::2],
         "population must be C-contiguous"),
        ("bits", np.ones(N, dtype=np.uint8), "bits must hold bools"),
        ("feature_class", np.zeros(N + 1), "feature_class has length 7 along axis 0"),
        ("invocations", np.zeros(NUM_LLH, dtype=np.int64),
         "invocations has length 16 along axis 0, expected 17"),
        ("masks_out", np.empty((ROWS, N + 1), dtype=bool),
         "masks_out has shape (4, 7), expected (4, 6)"),
        ("masks_out", np.empty((ROWS + 1, N), dtype=bool),
         "masks_out has shape (5, 6), expected (4, 6)"),
        ("masks_out", np.empty(N, dtype=bool), "masks_out must have 2 dimension(s), not 1"),
        ("masks_out", np.empty((ROWS, N), dtype=np.uint8), "masks_out must hold bools"),
        ("improvements", np.zeros(NUM_LLH, dtype=np.int64),
         "improvements has length 16 along axis 0, expected 17"),
        ("keys", np.ones((ROWS, 4), dtype=np.int64),
         "keys must hold uint32, not format 'l' of 8 bytes"),
        ("keys", np.array([3, 1, 0, 0], dtype=np.uint32), "keys must have 2 dimension(s), not 1"),
        ("keys", np.ones((ROWS + 1, 4), dtype=np.uint32), "keys has 5 rows, expected 4"),
        ("keys", np.ones((ROWS, 8), dtype=np.uint32)[:, ::2], "keys must be C-contiguous"),
    ])
    def test_buffers(self, args, name, bad, message):
        population, mask, cache = args
        counts = {"invocations": np.zeros(NUM_LLH + 1, dtype=np.int64), name: bad}
        if name == "population":
            population = counts.pop(name)
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            generation(population, 3, 0, mask, cache, **counts)
        assert not np.any(counts["invocations"])

    @pytest.mark.parametrize("threads", [0, -1, -(2 ** 62)])
    def test_thread_count_below_one(self, args, threads):
        counts = np.zeros(NUM_LLH + 1, dtype=np.int64)
        with pytest.raises(ValueError, match="^threads must be at least 1$"):
            generation(*args[:1], 3, 0, *args[1:], threads=threads, invocations=counts)
        assert not counts.any()
        with pytest.raises(TypeError, match="float"):
            generation(*args[:1], 3, 0, *args[1:], threads=2.0, invocations=counts)

    def test_masks_out_must_not_overlap_the_bits(self, args):
        population, mask, cache = args
        shared = np.zeros((self.ROWS, self.N), dtype=bool)
        with pytest.raises(ValueError, match="^masks_out must not overlap bits$"):
            generation(population, 3, 0, mask, cache, bits=shared[2], masks_out=shared)
        with pytest.raises(ValueError, match="read-only"):
            generation(population, 3, 0, mask, cache,
                       masks_out=np.broadcast_to(mask.bits, (self.ROWS, self.N)))

    @pytest.mark.parametrize("seed, gen, error, message", [
        (-1, 0, ValueError, "^seed must be non-negative$"),
        (0, -2 ** 70, ValueError, "^gen must be non-negative$"),
        (1.0, 0, TypeError, "float"),
        (0, "1", TypeError, "str"),
    ])
    def test_keys(self, args, seed, gen, error, message):
        population, mask, cache = args
        with pytest.raises(error, match=message):
            generation(population, seed, gen, mask, cache)

    def test_argument_count(self, args):
        with pytest.raises(TypeError, match=r"^generation\(population, keys, bits, .* takes 10 "
                                            "arguments, 2 given$"):
            _climb.generation(args[0], 0)

    @pytest.mark.parametrize("threads", [1, 2, 3, 40])
    def test_keys_must_be_a_buffer_on_any_thread_count(self, args, threads):
        # a uint32 key matrix is the only kind of draw: a bit generator is
        # refused like any other object without a buffer, on every thread
        # count, before a row writes its output or a counter
        population, mask, cache = args
        for draws, name in ((np.random.PCG64(0), "numpy.random._pcg64.PCG64"),
                            ([[3, 1, 0, 0]], "list")):
            stats = LlhStats()
            masks_out = np.tile(~mask.bits, (self.ROWS, 1))
            with pytest.raises(TypeError, match="^a bytes-like object is required, "
                                                f"not '{re.escape(name)}'$"):
                generation(population, 3, 0, mask, cache, threads=threads, keys=draws,
                           masks_out=masks_out, invocations=stats.invocations,
                           improvements=stats.improvements)
            assert (masks_out == ~mask.bits).all()
            assert not stats.invocations.any() and not stats.improvements.any()


# breed's two phases: crossover alone, and mutation alone
PHASES = pytest.mark.parametrize("p_crossover, p_mutation", [(1.0, 0.0), (0.0, 1.0)],
                                 ids=["crossover", "mutate"])


class TestGaKernelArguments:
    """``breed`` edits a writable C-contiguous int64 pool in place, and
    refuses anything else before it draws."""

    @PHASES
    @pytest.mark.parametrize("bad, error, message", [
        (np.ones((4, 8), dtype=np.int32), ValueError,
         "^chromosomes must hold int64, not format 'i' of 4 bytes$"),
        (np.ones((4, 8)), ValueError, "^chromosomes must hold int64, not format 'd' of 8 bytes$"),
        (np.ones(8, dtype=np.int64), ValueError, r"^chromosomes must have 2 dimension\(s\), not 1$"),
        (np.ones((4, 16), dtype=np.int64)[:, ::2], ValueError,
         "^chromosomes must be C-contiguous$"),
        (np.broadcast_to(np.ones(8, dtype=np.int64), (4, 8)), ValueError, "read-only"),
        ([[1, 2], [3, 4]], TypeError, "list"),
    ])
    def test_refusals_leave_the_generator_as_it_was(self, p_crossover, p_mutation, bad, error,
                                                    message):
        bit_generator = np.random.PCG64(5)
        state = bit_generator.state
        with pytest.raises(error, match=message):
            _climb.breed(bad, bit_generator, p_crossover, p_mutation)
        assert bit_generator.state == state

    @PHASES
    def test_generator_and_argument_count(self, p_crossover, p_mutation):
        pool = np.ones((2, 4), dtype=np.int64)
        with pytest.raises(TypeError, match="^bit_generator must be a numpy BitGenerator, "
                                            "not numpy.random._generator.Generator$"):
            _climb.breed(pool, np.random.default_rng(0), p_crossover, p_mutation)
        with pytest.raises(TypeError, match=r"^breed\(chromosomes, bit_generator, p_crossover, "
                                            r"p_mutation\) takes 4 arguments, 3 given$"):
            _climb.breed(pool, np.random.PCG64(0), p_crossover)
        for probabilities in (("0.5", p_mutation), (p_crossover, "0.5")):
            with pytest.raises(TypeError):
                _climb.breed(pool, np.random.PCG64(0), *probabilities)
        assert pool.tolist() == [[1] * 4] * 2
