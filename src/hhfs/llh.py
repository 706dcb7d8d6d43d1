"""The catalog of 16 low-level heuristics over feature masks.

Ids 1-12 are hill-climbers guided by the correlation merit: four search
rules (SDHC, NAHC, DBHC, RMHC), each in three bit-domain variants that
consider every bit, only the 0-bits (can only add features), or only the
1-bits (can only drop features). Ids 13-16 are merit-oblivious mutational
moves (SWPD, DIMM, HYPM, MUTN) that perturb the mask unconditionally.

The heuristics are compiled: ``_climb.apply`` (in ``_climb.c``, built by
``correlation._load_climb``) runs a whole list of them, a chromosome's
genes, in one call, and ``run_genes`` is its one caller; ``apply`` is a
one-gene ``run_genes``. The rules, in the kernel:

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
so running genes is a pure function of (mask, rng state): it cannot
mutate its input, and replaying a seed replays the output bit-exactly.
A call that leaves every bit unchanged returns its input object, so
callers can tell "did not move" by identity.
One gene does one bounded pass - SDHC scans one Hamming-1 neighborhood,
NAHC/DBHC sweep the positions once - so the cost of applying a whole
chromosome of heuristics stays predictable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationCache, _climb, check_fits
from .mask import FeatureMask

NUM_LLH = 16

# bit domains: the positions a hill-climber may flip
ALL = "all"
ZEROS = "zeros"
ONES = "ones"


@dataclass
class LlhContext:
    """Shared state a heuristic may consult: the correlation cache behind
    the merit, its own RNG stream (a ``numpy.random.Generator``, whose bit
    generator the compiled heuristics draw from), and the MUTN per-bit flip
    rate."""

    cache: CorrelationCache
    rng: np.random.Generator
    mutn_rate: float = 0.1

    def __post_init__(self):
        if not isinstance(self.rng, np.random.Generator):
            raise TypeError("LlhContext needs a numpy.random.Generator, "
                            f"not {type(self.rng).__name__}")
        if not 0.0 < self.mutn_rate < 1.0:
            raise ValueError("mutn_rate must lie in (0, 1)")


def run_genes(genes: np.ndarray, mask: FeatureMask, cache: CorrelationCache,
              bit_generator: np.random.BitGenerator, mutn_rate: float,
              invocations: np.ndarray, improvements: np.ndarray) -> FeatureMask:
    """Apply the heuristics ``genes`` (ids 1..16, int64) left to right, each
    to the previous one's output, starting from ``mask``, drawing from
    ``bit_generator`` (under its lock) as a Generator over it would. Counts
    every call in ``invocations`` and every strictly higher merit in
    ``improvements`` (int64, indexed by id). Returns the final mask:
    ``mask`` itself when no heuristic moved."""
    check_fits(mask, cache)
    bits = np.empty(mask.n, dtype=bool)
    with bit_generator.lock:
        moved = _climb.apply(genes, bit_generator, mask.bits, cache.feature_class,
                             cache.diagonal, cache.columns, mutn_rate, invocations,
                             improvements, bits)
    return FeatureMask(bits) if moved else mask


@dataclass(frozen=True)
class LlhInfo:
    """Catalog entry: numeric id, display name, kind and one-line
    description; ``apply`` runs the move."""

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
    mask, uncounted; the input object when no bit changes."""
    if (isinstance(llh_id, bool) or not isinstance(llh_id, (int, np.integer))
            or llh_id not in CATALOG):
        raise ValueError(f"unknown low-level heuristic id {llh_id}")
    counts = np.zeros(NUM_LLH + 1, dtype=np.int64)
    return run_genes(np.array([llh_id], dtype=np.int64), mask, ctx.cache,
                     ctx.rng.bit_generator, ctx.mutn_rate, counts, counts)


def describe_catalog() -> str:
    """Human-readable listing of all 16 heuristics."""
    lines = ["id  name        kind          description",
             "--  ----------  ------------  -----------"]
    for i in sorted(CATALOG):
        info = CATALOG[i]
        lines.append(f"{i:<3} {info.name:<11} {info.kind:<13} {info.description}")
    return "\n".join(lines)
