"""Per-layer numbers: the traced split of search time, and micro timings.

Layers are the modules of ``src/hhfs``. Within a supervisor run the search
time (the run minus its final reporting CV) is split into disjoint parts
by the outermost traced call on each path below ``run_supervisor``:

    llh          apply_llh
    stats_merit  cfs_merit called by evaluate_chromosome itself (only to
                 feed the per-heuristic statistics)
    fitness      FitnessEvaluator.fitness (memo lookups and the CV behind)
    ga           roulette_select, single_point_crossover, mutate_chromosome
    self         whatever run_supervisor and evaluate_chromosome do
                 outside those calls

so the five shares add up to 1. ``cv_accuracy`` called directly by
``run_supervisor`` is the final reporting and is kept out of search time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import hhfs
from tracing import MASKS, NAME, PARENT, duration, self_seconds

CATEGORY = {
    "apply_llh": "llh",
    "cfs_merit": "stats_merit",
    "FitnessEvaluator.fitness": "fitness",
    "cv_accuracy": "fitness",
    "roulette_select": "ga",
    "single_point_crossover": "ga",
    "mutate_chromosome": "ga",
}
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MICRO_MASKS = 8  # fixed seeded masks per micro timing
MICRO_REPS = 4  # heuristic calls per mask, each with its own rng


def tail(samples) -> tuple[float, float]:
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it,
    and the value there; (50, median) when there are too few samples."""
    for pct in TAIL_PERCENTILES:
        if len(samples) * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(samples, pct))
    return 50.0, float(np.median(samples)) if len(samples) else 0.0


def search_breakdown(spans) -> dict[str, float]:
    """Split the traced supervisor runs into the parts named above."""
    run_of = [-1] * len(spans)  # index of the enclosing run_supervisor span
    part: list[str | None] = [None] * len(spans)  # outermost category on the path
    totals: dict[str, float] = defaultdict(float)
    eval_ms: list[float] = []
    folds_s = masks = 0.0
    for i, s in enumerate(spans):  # a parent always precedes its children
        parent = s[PARENT]
        if s[NAME] == "run_supervisor":
            run_of[i] = i
            totals["run"] += duration(s)
        elif parent >= 0 and run_of[parent] >= 0:
            run_of[i] = run_of[parent]
            if part[parent] is not None:
                part[i] = part[parent]
            elif s[NAME] == "cv_accuracy" and parent == run_of[i]:
                part[i] = "report"
                totals["report"] += duration(s)
            elif s[NAME] in CATEGORY:
                part[i] = CATEGORY[s[NAME]]
                totals[part[i]] += duration(s)
        if run_of[i] < 0:
            continue
        masks += s[MASKS]
        if s[NAME] == "evaluate_chromosome":
            eval_ms.append(duration(s) * 1e3)
        elif s[NAME] == "stratified_folds" and part[i] == "fitness":
            folds_s += duration(s)

    # supervisor self time: spans in a run not inside any category
    self_s = sum(own for i, own in enumerate(self_seconds(spans))
                 if run_of[i] >= 0 and part[i] is None)

    search_s = totals["run"] - totals["report"]
    share = (lambda x: x / search_s) if search_s > 0 else (lambda x: 0.0)
    pct, tail_ms = tail(eval_ms)
    return {
        "search_s": search_s,
        "report_s": totals["report"],
        "llh_share": share(totals["llh"]),
        "stats_merit_share": share(totals["stats_merit"]),
        "fitness_share": share(totals["fitness"]),
        "ga_share": share(totals["ga"]),
        "self_share": share(self_s),
        "stratified_folds_share": share(folds_s),
        "evaluations": len(eval_ms),
        "evaluate_chromosome_ms": float(np.median(eval_ms)) if eval_ms else 0.0,
        "evaluate_chromosome_tail_pct": pct,
        "evaluate_chromosome_tail_ms": tail_ms,
        "masks_per_eval": masks / len(eval_ms) if eval_ms else 0.0,
    }


def per_call_seconds(spans, name: str, calls_per_sample: int = 1) -> float:
    """Median over samples of the summed duration of ``name`` spans, where
    consecutive groups of ``calls_per_sample`` calls form one sample."""
    ds = [duration(s) for s in spans if s[NAME] == name]
    if not ds:
        return 0.0
    groups = [sum(ds[i:i + calls_per_sample])
              for i in range(0, len(ds), calls_per_sample)]
    return float(np.median(groups))


def _p50(calls) -> float:
    """Median seconds of one call, each call timed on its own, after one
    untimed warm-up call."""
    calls[0]()
    times = []
    for call in calls:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def micro_timings(d, cache, seed: int) -> dict[str, float]:
    """p50 per call of every heuristic, the merit, the CV protocols and
    the fold split, on fixed seeded masks at the dataset's size."""
    rng = np.random.default_rng([seed, 99])
    fixed = [hhfs.FeatureMask.random(d.n_features, rng) for _ in range(MICRO_MASKS)]
    out = {}
    for llh_id, info in sorted(hhfs.CATALOG.items()):
        contexts = [(m, hhfs.LlhContext(cache=cache, mutn_rate=0.1,
                                        rng=np.random.default_rng([seed, llh_id, r, i])))
                    for r in range(MICRO_REPS) for i, m in enumerate(fixed)]
        out[f"llh.{info.name}.call_us"] = 1e6 * _p50(
            [lambda m=m, c=c, k=llh_id: hhfs.apply_llh(k, m, c) for m, c in contexts])
    out["correlation.cfs_merit_us"] = 1e6 * _p50(
        [lambda m=m: hhfs.cfs_merit(m, cache) for m in fixed] * MICRO_REPS * 4)
    cv1 = hhfs.CvProtocol(folds=10, repeats=1, base_seed=seed)
    cv10 = hhfs.CvProtocol(folds=10, repeats=10, base_seed=seed)
    out["evaluation.cv_1x10_ms"] = 1e3 * _p50(
        [lambda m=m: hhfs.cv_accuracy(d, m, cv1) for m in fixed] * 2)
    out["evaluation.cv_10x10_ms"] = 1e3 * _p50(
        [lambda m=m: hhfs.cv_accuracy(d, m, cv10) for m in fixed[:4]] * 2)
    # fold building may stop being public once folds are cached; then 0
    folds = getattr(hhfs, "stratified_folds", None)
    out["dataset.stratified_folds_us"] = 1e6 * _p50(
        [lambda s=s: folds(d, 10, s) for s in range(seed, seed + 40)]) if folds else 0.0
    return out
