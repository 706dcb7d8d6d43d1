"""The catalog of 16 low-level heuristics over feature masks.

Ids 1-12 are hill-climbers guided by the correlation merit: four search
rules (SDHC, NAHC, DBHC, RMHC), each in three bit-domain variants that
consider every bit, only the 0-bits (can only add features), or only the
1-bits (can only drop features). Ids 13-16 are merit-oblivious mutational
moves (SWPD, DIMM, HYPM, MUTN) that perturb the mask unconditionally.
Merits come from ``correlation._MeritScan``; this module holds the rules.

Heuristics act on merit scans: each takes a ``_MeritScan`` of the working
mask and returns one, so a chromosome's genes hand one scan from heuristic
to heuristic, and masks exist only at the chromosome's edge (``apply``
wraps a single call in them). Scans are read-only, so every heuristic is
a pure function of (scan, rng state): it cannot mutate its input, and
replaying a seed replays the output bit-exactly.

The hill-climbers' scoring loops are compiled: ``_climb.c`` beside this
module holds SDHC's move (``best``) and the climb loop NAHC, DBHC and RMHC
share (``sweep``), which visits the positions it is given one bit at a
time, keeps its own working sums and scores each visit inline;
``_load_climb`` builds it on first import. The positions, the RNG draws
and every scan stay in numpy.
A call that leaves every bit unchanged returns its input object, so
callers can tell "did not move" by identity; a call that moves returns a
fresh scan of its output bits, never one carried forward incrementally,
so every merit depends on the bits alone.
One call does one bounded pass - SDHC scans one Hamming-1 neighborhood,
NAHC/DBHC sweep the positions once - so the cost of applying a whole
chromosome of heuristics stays predictable.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .correlation import ALL, ONES, ZEROS, CorrelationCache, _MeritScan
from .mask import FeatureMask


def _load_climb():
    """The compiled ``_climb`` module, built from ``_climb.c`` into
    ``__pycache__/`` unless a build of this source, these flags and this
    extension suffix is there. A build goes to a temporary directory and is
    renamed into place, so concurrent first imports each see a whole
    module, then removes the older builds for this suffix. No ``cc``, a
    failing ``cc`` or an unwritable directory is one ``ImportError``."""
    source = Path(__file__).with_name("_climb.c")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    flags = ["-O2", "-ffp-contract=off", "-fPIC", "-shared",
             "-I" + sysconfig.get_paths()["include"]]
    if sys.platform == "darwin":  # Python's symbols resolve at load, as in sysconfig's LDSHARED
        flags += ["-undefined", "dynamic_lookup"]
    key = "\0".join([source.read_text(), *flags, suffix]).encode()
    built = source.parent / "__pycache__" / f"_climb.{hashlib.sha256(key).hexdigest()[:16]}{suffix}"
    if not built.exists():
        if shutil.which("cc") is None:
            raise ImportError(f"hhfs needs a C compiler: no `cc` on PATH to build {source}")
        try:
            built.parent.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=built.parent) as tmp:
                out = os.path.join(tmp, built.name)
                proc = subprocess.run(["cc", *flags, "-o", out, str(source)],
                                      capture_output=True, text=True)
                if proc.returncode:
                    raise ImportError(f"hhfs: `cc` failed to build {source}: {proc.stderr.strip()}")
                os.replace(out, built)
        except OSError as e:
            raise ImportError(f"hhfs: cannot build {source} into {built.parent}: {e}") from None
        for old in set(built.parent.glob(f"_climb.*{suffix}")) - {built}:
            with contextlib.suppress(OSError):  # another process may still load it
                old.unlink()
    spec = importlib.util.spec_from_file_location(f"{__package__}._climb", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_climb = _load_climb()

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


def _flipped(scan: _MeritScan, ctx: LlhContext, b) -> _MeritScan:
    """A fresh scan of the input's bits with bit(s) ``b`` inverted."""
    bits = scan.bits.copy()
    bits[b] ^= True
    return _MeritScan(ctx.cache, bits)


def sdhc(scan: _MeritScan, ctx: LlhContext, bit_domain: str = ALL) -> _MeritScan:
    """Steepest-descent step: scan the full Hamming-1 neighborhood within
    the bit domain and move to the best neighbor, but only if it is
    strictly better than the input. Ties pick the lowest flipped index."""
    cache = scan.cache
    b = _climb.best(scan.bits, scan.row, cache.feature_class, cache.diagonal,
                    scan.in_domain(bit_domain), scan.k, scan.sum_cf, scan.sum_ff,
                    scan.merit)
    return scan if b is None else _flipped(scan, ctx, b)


def _sweep_climb(scan: _MeritScan, ctx: LlhContext, positions: np.ndarray,
                 ties: bool = False) -> _MeritScan:
    """The climb loop of NAHC, DBHC and RMHC: visit exactly ``positions``
    (distinct, int64) in order, tentatively flip each and keep the flip iff
    its merit is greater than the current one, or equal to it with
    ``ties``. A bit changes only at its one visit, so every visit reads the
    input's bit and the input's domain holds throughout.

    The loop is ``_climb.sweep``: it keeps its own sums, seeded from the
    scan's, and scores each visit ``sum_cf / sqrt(k + sum_ff)`` (0.0 at
    k == 0) inline, the operations and order of the scan's own merit, so
    each comparison sees the bits a merit call per position would return.
    A commit adds or subtracts the cache's contiguous ``columns[b]``, which
    equals ``ff[:, b]``, from its copy of the row element by element. A
    moved result is scanned afresh, so its merit does not carry the loop's
    incremental rounding."""
    cache = scan.cache
    kept = _climb.sweep(scan.bits, scan.row, cache.feature_class, cache.diagonal,
                        cache.columns, positions, scan.k, scan.sum_cf, scan.sum_ff,
                        scan.merit, ties)
    return _flipped(scan, ctx, kept) if kept else scan


def nahc(scan: _MeritScan, ctx: LlhContext, bit_domain: str = ALL) -> _MeritScan:
    """Next-ascent sweep in fixed order, index 0 (most significant, by
    convention) to N-1, keeping strict improvements. Several bits may
    change in one call."""
    return _sweep_climb(scan, ctx, scan.in_domain(bit_domain))


def dbhc(scan: _MeritScan, ctx: LlhContext, bit_domain: str = ALL) -> _MeritScan:
    """Like nahc, but the positions are visited in a fresh uniformly
    random permutation drawn from the context RNG."""
    order = ctx.rng.permutation(scan.bits.size)
    if bit_domain != ALL:
        scan.in_domain(bit_domain)  # rejects an unknown domain
        order = order[scan.bits[order] == (bit_domain == ONES)]
    return _sweep_climb(scan, ctx, order)


def rmhc(scan: _MeritScan, ctx: LlhContext, bit_domain: str = ALL) -> _MeritScan:
    """Flip one uniformly random in-domain bit; accept if the merit is
    greater than or equal to the input's (non-strict, so plateaus can be
    walked). An empty domain returns the input untouched."""
    positions = scan.in_domain(bit_domain)
    if positions.size == 0:
        return scan
    j = int(ctx.rng.integers(positions.size))
    return _sweep_climb(scan, ctx, positions[j:j + 1], ties=True)


def swpd(scan: _MeritScan, ctx: LlhContext) -> _MeritScan:
    """Swap the bit values at two distinct random dimensions. Preserves
    the selected count; accepted unconditionally. Equal bits leave the
    mask as it is."""
    n = scan.bits.size
    if n < 2:
        raise ValueError("swap needs at least 2 dimensions")
    i = int(ctx.rng.integers(n))
    j = int(ctx.rng.integers(n - 1))
    if j >= i:
        j += 1
    if scan.bits[i] == scan.bits[j]:
        return scan
    return _flipped(scan, ctx, [i, j])  # unequal bits: the swap flips both


def dimm(scan: _MeritScan, ctx: LlhContext) -> _MeritScan:
    """Pick one random dimension and flip its bit with probability 0.5."""
    b = int(ctx.rng.integers(scan.bits.size))
    if ctx.rng.random() < 0.5:
        return _flipped(scan, ctx, b)
    return scan


def _flip_coins(scan: _MeritScan, ctx: LlhContext, rate: float) -> _MeritScan:
    """Flip each bit whose ``ctx.rng.random(n)`` coin is below rate, if any."""
    coins = ctx.rng.random(scan.bits.size) < rate
    if not coins.any():
        return scan
    return _flipped(scan, ctx, coins)


def hypm(scan: _MeritScan, ctx: LlhContext) -> _MeritScan:
    """Flip every bit independently with probability 0.5 - a large,
    restart-like jump."""
    return _flip_coins(scan, ctx, 0.5)


def mutn(scan: _MeritScan, ctx: LlhContext) -> _MeritScan:
    """Flip every bit independently with probability ctx.mutn_rate."""
    return _flip_coins(scan, ctx, ctx.mutn_rate)


@dataclass(frozen=True)
class LlhInfo:
    """Catalog entry: numeric id, display name, kind, one-line description,
    and the callable implementing the move."""

    id: int
    name: str
    kind: str  # "hill-climber" or "mutational"
    description: str
    func: Callable[[_MeritScan, LlhContext], _MeritScan]


def _make_catalog() -> dict[int, LlhInfo]:
    climbers = [
        ("SDHC", sdhc, "best Hamming-1 neighbor, accepted if strictly better"),
        ("NAHC", nahc, "in-order bit sweep keeping strict improvements"),
        ("DBHC", dbhc, "random-permutation bit sweep keeping strict improvements"),
        ("RMHC", rmhc, "one random bit flip, accepted if not worse"),
    ]
    domains = [
        (ALL, "", "all bits"),
        (ZEROS, "-zeros", "0-bits only (adds features)"),
        (ONES, "-ones", "1-bits only (drops features)"),
    ]
    entries = [(name + suffix, "hill-climber", f"{what}; domain: {domain_desc}",
                partial(func, bit_domain=domain))
               for name, func, what in climbers
               for domain, suffix, domain_desc in domains]
    entries += [
        ("SWPD", "mutational", "swap the bits of two random dimensions", swpd),
        ("DIMM", "mutational", "flip one random dimension's bit with probability 0.5", dimm),
        ("HYPM", "mutational", "flip every bit with probability 0.5", hypm),
        ("MUTN", "mutational", "flip every bit with the configured mutation rate", mutn),
    ]
    return {i: LlhInfo(i, *entry) for i, entry in enumerate(entries, start=1)}


CATALOG: dict[int, LlhInfo] = _make_catalog()


def apply(llh_id: int, mask: FeatureMask, ctx: LlhContext) -> FeatureMask:
    """Apply the heuristic with the given id (1..16) to the mask; the
    input object when no bit changes."""
    info = CATALOG.get(int(llh_id))
    if info is None:
        raise ValueError(f"unknown low-level heuristic id {llh_id}")
    scan = _MeritScan(ctx.cache, mask.bits)
    out = info.func(scan, ctx)
    return mask if out is scan else out.mask()


def describe_catalog() -> str:
    """Human-readable listing of all 16 heuristics."""
    lines = ["id  name        kind          description",
             "--  ----------  ------------  -----------"]
    for i in sorted(CATALOG):
        info = CATALOG[i]
        lines.append(f"{i:<3} {info.name:<11} {info.kind:<13} {info.description}")
    return "\n".join(lines)
