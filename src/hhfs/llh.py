"""The catalog of 16 low-level heuristics over feature masks.

Ids 1-12 are hill-climbers guided by the correlation merit: four search
rules (SDHC, NAHC, DBHC, RMHC), each in three bit-domain variants that
consider every bit, only the 0-bits (can only add features), or only the
1-bits (can only drop features). Ids 13-16 are merit-oblivious mutational
moves (SWPD, DIMM, HYPM, MUTN) that perturb the mask unconditionally.

Every heuristic is a pure function of (mask, rng state): it never mutates
its input and replaying a seed replays the output bit-exactly. One call
does one bounded pass - SDHC scans one Hamming-1 neighborhood, NAHC/DBHC
sweep the positions once - so the cost of applying a whole chromosome of
heuristics stays predictable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .correlation import CorrelationCache, cfs_merit
from .mask import FeatureMask

ALL = "all"
ZEROS = "zeros"
ONES = "ones"

NUM_LLH = 16


@dataclass
class LlhContext:
    """Shared state a heuristic may consult: the correlation cache behind
    the merit, its own RNG stream, and the MUTN per-bit flip rate."""

    cache: CorrelationCache
    rng: np.random.Generator
    mutn_rate: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.mutn_rate < 1.0:
            raise ValueError("mutn_rate must lie in (0, 1)")

    def merit(self, mask: FeatureMask) -> float:
        return cfs_merit(mask, self.cache)


class _MeritScan:
    """Incremental merit over single-bit flips of a working mask.

    Keeps the selected count k, the selected class-correlation sum, the
    selected off-diagonal feature-feature sum (ordered pairs), and the
    vector row[b] = sum_{i selected} ff[b, i]. A candidate flip is then
    scored in O(1) and committed in O(N).
    """

    def __init__(self, cache: CorrelationCache, bits: np.ndarray):
        self.ff = cache.feature_feature
        self.fc = cache.feature_class
        self.diag = np.diagonal(self.ff)
        self.bits = bits.astype(bool).copy()
        sel = np.flatnonzero(self.bits)
        self.k = sel.size
        self.sum_cf = float(self.fc[sel].sum())
        self.row = self.ff @ self.bits.astype(np.float64)
        self.sum_ff = float(self.bits @ self.row) - float(self.diag[sel].sum())

    @staticmethod
    def _merit(k: int, sum_cf: float, sum_ff: float) -> float:
        if k == 0:
            return 0.0
        return sum_cf / math.sqrt(k + sum_ff)

    def merit(self) -> float:
        return self._merit(self.k, self.sum_cf, self.sum_ff)

    def _flipped_sums(self, b: int) -> tuple[int, float, float]:
        if self.bits[b]:
            cross = self.row[b] - self.diag[b]
            return self.k - 1, self.sum_cf - self.fc[b], self.sum_ff - 2.0 * cross
        return self.k + 1, self.sum_cf + self.fc[b], self.sum_ff + 2.0 * self.row[b]

    def flip_merit(self, b: int) -> float:
        """Merit the mask would have if bit b were flipped."""
        return self._merit(*self._flipped_sums(b))

    def flip_merits(self, positions: np.ndarray) -> np.ndarray:
        """``flip_merit`` of every position at once, bit-identical: the
        same float64 operations elementwise, with k == 0 scoring 0.0."""
        on = self.bits[positions]
        fc = self.fc[positions]
        row = self.row[positions]
        k = np.where(on, self.k - 1, self.k + 1)
        sum_cf = np.where(on, self.sum_cf - fc, self.sum_cf + fc)
        sum_ff = np.where(on, self.sum_ff - 2.0 * (row - self.diag[positions]),
                          self.sum_ff + 2.0 * row)
        empty = k == 0
        return np.where(empty, 0.0,
                        sum_cf / np.sqrt(np.where(empty, 1.0, k + sum_ff)))

    def flip(self, b: int) -> None:
        """Commit the flip of bit b."""
        self.k, self.sum_cf, self.sum_ff = self._flipped_sums(b)
        if self.bits[b]:
            self.row -= self.ff[:, b]
            self.bits[b] = False
        else:
            self.row += self.ff[:, b]
            self.bits[b] = True

    def mask(self) -> FeatureMask:
        return FeatureMask(self.bits.astype(np.uint8))


def _domain_positions(bits: np.ndarray, bit_domain: str) -> np.ndarray:
    """Ascending indices of the bits the domain allows to flip."""
    if bit_domain == ALL:
        return np.arange(bits.size)
    if bit_domain == ZEROS:
        return np.flatnonzero(bits == 0)
    if bit_domain == ONES:
        return np.flatnonzero(bits != 0)
    raise ValueError(f"unknown bit domain {bit_domain!r}")


def _in_domain(bit: bool, bit_domain: str) -> bool:
    return (bit_domain == ALL
            or (bit_domain == ZEROS and not bit)
            or (bit_domain == ONES and bit))


def sdhc(mask: FeatureMask, ctx: LlhContext, bit_domain: str = ALL) -> FeatureMask:
    """Steepest-descent step: scan the full Hamming-1 neighborhood within
    the bit domain and move to the best neighbor, but only if it is
    strictly better than the input. Ties pick the lowest flipped index."""
    positions = _domain_positions(mask.bits, bit_domain)
    if positions.size == 0:
        return mask
    scan = _MeritScan(ctx.cache, mask.bits)
    merits = scan.flip_merits(positions)
    best = int(np.argmax(merits))  # first occurrence: lowest flipped index
    if merits[best] > scan.merit():
        return mask.flip(int(positions[best]))
    return mask


def _sweep_climb(mask: FeatureMask, ctx: LlhContext, bit_domain: str,
                 order: np.ndarray) -> FeatureMask:
    """One pass over ``order``: tentatively flip each in-domain bit and
    keep the flip iff it strictly improves the working mask's merit."""
    scan = _MeritScan(ctx.cache, mask.bits)
    current = scan.merit()
    changed = False
    for b in order:
        b = int(b)
        if not _in_domain(bool(scan.bits[b]), bit_domain):
            continue
        candidate = scan.flip_merit(b)
        if candidate > current:
            scan.flip(b)
            current = candidate
            changed = True
    return scan.mask() if changed else mask


def nahc(mask: FeatureMask, ctx: LlhContext, bit_domain: str = ALL) -> FeatureMask:
    """Next-ascent sweep in fixed order, index 0 (most significant, by
    convention) to N-1. Several bits may change in one call."""
    return _sweep_climb(mask, ctx, bit_domain, np.arange(mask.n))


def dbhc(mask: FeatureMask, ctx: LlhContext, bit_domain: str = ALL) -> FeatureMask:
    """Like nahc, but the positions are visited in a fresh uniformly
    random permutation drawn from the context RNG."""
    return _sweep_climb(mask, ctx, bit_domain, ctx.rng.permutation(mask.n))


def rmhc(mask: FeatureMask, ctx: LlhContext, bit_domain: str = ALL) -> FeatureMask:
    """Flip one uniformly random in-domain bit; accept if the merit is
    greater than or equal to the input's (non-strict, so plateaus can be
    walked). An empty domain returns the input untouched."""
    positions = _domain_positions(mask.bits, bit_domain)
    if positions.size == 0:
        return mask
    b = int(positions[int(ctx.rng.integers(positions.size))])
    scan = _MeritScan(ctx.cache, mask.bits)
    if scan.flip_merit(b) >= scan.merit():
        return mask.flip(b)
    return mask


def swpd(mask: FeatureMask, ctx: LlhContext) -> FeatureMask:
    """Swap the bit values at two distinct random dimensions. Preserves
    the selected count; accepted unconditionally."""
    n = mask.n
    if n < 2:
        raise ValueError("swap needs at least 2 dimensions")
    i = int(ctx.rng.integers(n))
    j = int(ctx.rng.integers(n - 1))
    if j >= i:
        j += 1
    bits = mask.bits.copy()
    bits[i], bits[j] = bits[j], bits[i]
    return FeatureMask(bits)


def dimm(mask: FeatureMask, ctx: LlhContext) -> FeatureMask:
    """Pick one random dimension and flip its bit with probability 0.5."""
    b = int(ctx.rng.integers(mask.n))
    if ctx.rng.random() < 0.5:
        return mask.flip(b)
    return mask


def hypm(mask: FeatureMask, ctx: LlhContext) -> FeatureMask:
    """Flip every bit independently with probability 0.5 - a large,
    restart-like jump."""
    coins = ctx.rng.random(mask.n) < 0.5
    return FeatureMask(np.where(coins, mask.bits ^ 1, mask.bits))


def mutn(mask: FeatureMask, ctx: LlhContext) -> FeatureMask:
    """Flip every bit independently with probability ctx.mutn_rate."""
    coins = ctx.rng.random(mask.n) < ctx.mutn_rate
    return FeatureMask(np.where(coins, mask.bits ^ 1, mask.bits))


@dataclass(frozen=True)
class LlhInfo:
    """Catalog entry: numeric id, display name, kind, one-line description,
    and the callable implementing the move."""

    id: int
    name: str
    kind: str  # "hill-climber" or "mutational"
    description: str
    func: Callable[[FeatureMask, LlhContext], FeatureMask]


def _make_catalog() -> dict[int, LlhInfo]:
    climbers = [
        ("SDHC", sdhc, "best Hamming-1 neighbor, accepted if strictly better"),
        ("NAHC", nahc, "in-order bit sweep keeping strict improvements"),
        ("DBHC", dbhc, "random-permutation bit sweep keeping strict improvements"),
        ("RMHC", rmhc, "one random bit flip, accepted if not worse"),
    ]
    domains = [
        (ALL, "all bits"),
        (ZEROS, "0-bits only (adds features)"),
        (ONES, "1-bits only (drops features)"),
    ]
    catalog: dict[int, LlhInfo] = {}
    next_id = 1
    for base_name, func, what in climbers:
        for domain, domain_desc in domains:
            suffix = "" if domain == ALL else f"-{domain}"

            def bound(mask, ctx, _func=func, _domain=domain):
                return _func(mask, ctx, bit_domain=_domain)

            catalog[next_id] = LlhInfo(
                id=next_id,
                name=f"{base_name}{suffix}",
                kind="hill-climber",
                description=f"{what}; domain: {domain_desc}",
                func=bound,
            )
            next_id += 1
    for name, func, desc in [
        ("SWPD", swpd, "swap the bits of two random dimensions"),
        ("DIMM", dimm, "flip one random dimension's bit with probability 0.5"),
        ("HYPM", hypm, "flip every bit with probability 0.5"),
        ("MUTN", mutn, "flip every bit with the configured mutation rate"),
    ]:
        catalog[next_id] = LlhInfo(
            id=next_id, name=name, kind="mutational", description=desc, func=func)
        next_id += 1
    return catalog


CATALOG: dict[int, LlhInfo] = _make_catalog()

HILL_CLIMBER_IDS = tuple(i for i, info in CATALOG.items() if info.kind == "hill-climber")
MUTATIONAL_IDS = tuple(i for i, info in CATALOG.items() if info.kind == "mutational")


def apply(llh_id: int, mask: FeatureMask, ctx: LlhContext) -> FeatureMask:
    """Apply the heuristic with the given id (1..16) to the mask."""
    info = CATALOG.get(int(llh_id))
    if info is None:
        raise ValueError(f"unknown low-level heuristic id {llh_id}")
    return info.func(mask, ctx)


def describe_catalog() -> str:
    """Human-readable listing of all 16 heuristics."""
    lines = ["id  name        kind          description",
             "--  ----------  ------------  -----------"]
    for i in sorted(CATALOG):
        info = CATALOG[i]
        lines.append(f"{i:<3} {info.name:<11} {info.kind:<13} {info.description}")
    return "\n".join(lines)
