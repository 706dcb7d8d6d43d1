"""The catalog of 16 low-level heuristics over feature masks.

Ids 1-12 are hill-climbers guided by the correlation merit: four search
rules (SDHC, NAHC, DBHC, RMHC), each in three bit-domain variants that
consider every bit, only the 0-bits (can only add features), or only the
1-bits (can only drop features). Ids 13-16 are merit-oblivious mutational
moves (SWPD, DIMM, HYPM, MUTN) that perturb the mask unconditionally.

The heuristics are compiled (``_climb.c``, built by
``correlation._load_climb``): ``_climb.generation`` runs a population of
chromosomes, each a list of gene ids, in one call, every row from the same
mask, row i drawing from its own stream key: numpy's entropy words, which
the kernel seeds a PCG64 from as numpy's ``SeedSequence`` does. In
``run_generation`` row i's stream is ``PCG64([seed, 1, gen, i])``, and
``stream_keys`` splits seed, gen and i into those words around the tag 1;
``apply`` runs its one gene as a one-row call on a key of its own. The
call runs its rows without the GIL on the threads it is asked for at most:
the caller and the kernel's helper threads, which live for the process,
each on a CPU of its own where it can. The rows and counts are the same on
any number of threads. The rules, in the kernel:

- SDHC moves to the first (lowest-index) in-domain flip of highest merit,
  if that merit is strictly above the current one;
- NAHC sweeps the in-domain positions in ascending order, DBHC in the
  order of a fresh ``permutation(n)`` filtered by the domain, each keeping
  a flip iff it raises the merit strictly, scored from running sums;
- RMHC draws ``integers(size)`` over its domain (nothing when the domain
  is empty) and keeps that one flip if the merit does not fall;
- SWPD draws ``i = integers(n)``, ``j = integers(n - 1)`` shifted up where
  ``j >= i``, and swaps the two bits; DIMM draws a position and flips it if
  ``random() < 0.5``; HYPM and MUTN flip every bit whose ``random(n)`` coin
  is below 0.5 or the MUTN rate.

Heuristics act on masks: genes go in with a mask and a final mask comes
out. Inside the call the kernel scans the input bits for the merit, and
scans a gene's output bits afresh whenever it moved, never carrying sums
from one gene to the next, so every merit depends on the bits alone. Masks are read-only,
so running genes is a pure function of (mask, stream key): it cannot
mutate its input, and replaying a seed replays the output bit-exactly.
``apply`` returns its input object when no bit changes, so callers can
tell "did not move" by identity; ``run_generation`` returns a
generation's final masks as one (rows, N) bool matrix, an unmoved row
holding the input's bits.
One gene does one bounded pass - SDHC scans one Hamming-1 neighborhood,
NAHC/DBHC sweep the positions once - so the cost of applying a whole
chromosome of heuristics stays predictable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationCache, _climb, check_fits
from .mask import FeatureMask

NUM_LLH = 16
MUTN_RATE = 0.1  # the default per-bit flip rate of MUTN

# bit domains that limit a hill-climber variant to the 0-bits or the 1-bits
ZEROS = "zeros"
ONES = "ones"


@dataclass
class LlhContext:
    """Shared state a heuristic may consult: the correlation cache behind
    the merit, its own RNG stream (a ``numpy.random.Generator``, which
    ``apply`` draws each call's seed from), and the MUTN per-bit flip
    rate."""

    cache: CorrelationCache
    rng: np.random.Generator
    mutn_rate: float = MUTN_RATE

    def __post_init__(self):
        if not isinstance(self.rng, np.random.Generator):
            raise TypeError("LlhContext needs a numpy.random.Generator, "
                            f"not {type(self.rng).__name__}")
        if not 0.0 < self.mutn_rate < 1.0:
            raise ValueError("mutn_rate must lie in (0, 1)")


def _run_rows(population, keys, mask: FeatureMask, cache: CorrelationCache,
              mutn_rate: float, invocations: np.ndarray, improvements: np.ndarray,
              threads: int) -> np.ndarray:
    """``_climb.generation`` of ``population`` from ``mask`` on the stream
    ``keys`` and ``threads`` threads: the (rows, N) bool final bits in row
    order, ``mask``'s bits in an unmoved row; ``mask`` must fit ``cache``."""
    bits = np.empty((len(population), mask.n), dtype=bool)
    _climb.generation(population, keys, mask.bits, cache.feature_class, cache.feature_feature,
                      mutn_rate, invocations, improvements, bits, threads)
    return bits


def entropy_words(value: int, name: str = "value") -> list[int]:
    """The entropy words numpy's ``SeedSequence`` reads from the int
    ``value``: its little-endian 32-bit words, ``[0]`` for 0. A negative
    value is refused, naming it ``name``."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def stream_keys(seed: int, gen: int, rows: int) -> np.ndarray:
    """The (rows, words) uint32 stream keys of generation ``gen``: row i
    holds the entropy words of ``[seed, 1, gen, i]``, so
    ``PCG64(SeedSequence(row))`` is chromosome i's stream."""
    prefix = entropy_words(seed, "seed") + [1] + entropy_words(gen, "gen")
    keys = np.empty((rows, len(prefix) + 1), dtype=np.uint32)
    keys[:, :-1] = prefix
    keys[:, -1] = np.arange(rows)
    return keys


def run_generation(population: np.ndarray, mask: FeatureMask, cache: CorrelationCache,
                   seed: int, gen: int, mutn_rate: float, invocations: np.ndarray,
                   improvements: np.ndarray, threads: int = 1) -> np.ndarray:
    """The heuristics of each row of ``population`` (C-contiguous int64, a
    chromosome of ids 1..16 per row) left to right from ``mask``, each on the
    previous one's output, row i drawing from ``PCG64([seed, 1, gen, i])``,
    all in one compiled call on ``threads`` threads (at most one per row).
    Counts every call in ``invocations`` and every strictly higher merit in
    ``improvements`` (int64, indexed by id). Returns the final masks' bits
    as one (rows, N) bool matrix in row order: ``mask``'s bits in a row
    where no heuristic moved; the bits and the counts do not depend on
    ``threads``."""
    check_fits(mask, cache)
    return _run_rows(population, stream_keys(seed, gen, len(population)), mask, cache,
                     mutn_rate, invocations, improvements, threads)


@dataclass(frozen=True)
class LlhInfo:
    """Catalog entry: numeric id, display name, kind and one-line
    description; ``llh.apply`` (``hhfs.apply_llh``) runs the move."""

    id: int
    name: str
    kind: str  # "hill-climber" or "mutational"
    description: str


def _make_catalog() -> dict[int, LlhInfo]:
    climbers = [
        ("SDHC", "best Hamming-1 neighbor, accepted if strictly better"),
        ("NAHC", "in-order bit sweep keeping strict improvements"),
        ("DBHC", "random-permutation bit sweep keeping strict improvements"),
        ("RMHC", "one random bit flip, accepted if not worse"),
    ]
    domains = [
        ("", "all bits"),
        ("-" + ZEROS, "0-bits only (adds features)"),
        ("-" + ONES, "1-bits only (drops features)"),
    ]
    entries = [(name + suffix, "hill-climber", f"{what}; domain: {domain_desc}")
               for name, what in climbers for suffix, domain_desc in domains]
    entries += [
        ("SWPD", "mutational", "swap the bits of two random dimensions"),
        ("DIMM", "mutational", "flip one random dimension's bit with probability 0.5"),
        ("HYPM", "mutational", "flip every bit with probability 0.5"),
        ("MUTN", "mutational", "flip every bit with the configured mutation rate"),
    ]
    return {i: LlhInfo(i, *entry) for i, entry in enumerate(entries, start=1)}


CATALOG: dict[int, LlhInfo] = _make_catalog()


def apply(llh_id: int, mask: FeatureMask, ctx: LlhContext) -> FeatureMask:
    """Apply the heuristic with the given id (an integer in 1..16) to the
    mask, uncounted; the input object when no bit changes.

    Each call draws one seed, ``seed = ctx.rng.bit_generator.random_raw()``,
    and the gene draws from ``numpy.random.default_rng(seed)``: the kernel
    row keyed by ``entropy_words(seed)``. So a chain of calls repeats a
    chromosome's moves but not its stream. An unknown id or a mask of
    another size is refused before the seed is drawn."""
    if (isinstance(llh_id, bool) or not isinstance(llh_id, (int, np.integer))
            or llh_id not in CATALOG):
        raise ValueError(f"unknown low-level heuristic id {llh_id}")
    check_fits(mask, ctx.cache)
    key = np.array([entropy_words(ctx.rng.bit_generator.random_raw())], dtype=np.uint32)
    counts = np.zeros(NUM_LLH + 1, dtype=np.int64)
    bits = _run_rows(np.array([[llh_id]], dtype=np.int64), key, mask, ctx.cache,
                     ctx.mutn_rate, counts, counts, 1)[0]
    return mask if bits.tobytes() == mask.bits.tobytes() else FeatureMask(bits)


def describe_catalog() -> str:
    """Human-readable listing of all 16 heuristics."""
    lines = ["id  name        kind          description",
             "--  ----------  ------------  -----------"]
    for i in sorted(CATALOG):
        info = CATALOG[i]
        lines.append(f"{i:<3} {info.name:<11} {info.kind:<13} {info.description}")
    return "\n".join(lines)
