"""The 16 low-level heuristics: hill-climbers exploit, mutations explore.

Applies every heuristic to the same starting mask and reports how the
filter merit moves. Hill-climbers (ids 1-12) never lower it; the
mutational moves (13-16) change the mask unconditionally and are the
supervisor's way of escaping local optima.

Run from the repository root: python3 demos/03_local_searches.py
"""

import numpy as np

from hhfs.correlation import build_cache, cfs_merit
from hhfs.llh import CATALOG, LlhContext, apply
from hhfs.mask import FeatureMask


def make_dataset():
    rng = np.random.default_rng(11)
    n, N = 80, 10
    labels = rng.permutation(np.array([0, 1] * (n // 2)))
    X = rng.normal(size=(n, N))
    for j in range(4):
        X[:, j] += labels * (1.6 - 0.3 * j)
    from hhfs.dataset import Dataset, min_max_normalize
    return min_max_normalize(Dataset.from_arrays("demo", X, labels))


d = make_dataset()
cache = build_cache(d)
start = FeatureMask(np.array([0, 1, 0, 1, 1, 0, 1, 0, 1, 0], dtype=np.uint8))
base = cfs_merit(start, cache)
print(f"start mask {start.to01()}  merit {base:.4f}\n")
print(f"{'id':<3} {'name':<11} {'kind':<13} {'merit':>7}  {'result'}")

for llh_id in sorted(CATALOG):
    info = CATALOG[llh_id]
    ctx = LlhContext(cache=cache, rng=np.random.default_rng(llh_id))
    out = apply(llh_id, start, ctx)
    merit = cfs_merit(out, cache)
    moved = "moved" if out != start else "stayed"
    arrow = "+" if merit > base else ("=" if merit == base else "-")
    print(f"{llh_id:<3} {info.name:<11} {info.kind:<13} {merit:>7.4f} {arrow} "
          f"{moved}: {out.to01()}")

print("\nchaining heuristics, each consuming the previous output")
print("(a supervisor chromosome's moves; each call draws a fresh stream, where a")
print("chromosome draws its genes from one):")
chain = [1, 4, 13, 1, 7]  # SDHC, NAHC, SWPD, SDHC, DBHC
mask = start
ctx = LlhContext(cache=cache, rng=np.random.default_rng(99))
for llh_id in chain:
    mask = apply(llh_id, mask, ctx)
    print(f"  after {CATALOG[llh_id].name:<11} {mask.to01()} "
          f"merit {cfs_merit(mask, cache):.4f}")
