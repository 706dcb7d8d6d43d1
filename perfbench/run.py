"""hhfs benchmark: whole supervisor runs on UCI-shaped stand-in datasets.

Usage, from the repository root:

    python3 perfbench/run.py --workload musk-search --seed 1 --seconds 20 --trace 0

Each workload writes a seeded stand-in CSV (see standins.py) and runs the
supervisor with the settings of configs/benchmark.ini, except for smaller
generation and run budgets. The workloads are closed loops: one caller
that waits for each run.

  musk-search             476x166, 2 classes, seeded run_supervisor runs.
                          The paper's most expensive set: 1NN fitness over
                          476 rows and the heuristics at N=166 both carry load.
  sonar-search            208x60, 2 classes, same engine call. Fitness is cheap;
                          heuristics plus merit statistics dominate, so a
                          faster fitness should barely show here.
  dermatology-experiment  366x34, 6 classes, one whole run_experiment per
                          pass: CSV loading with missing cells, the
                          multi-class cache, baselines, reporting CV and file
                          writes. N=34 keeps heuristic costs small.

``--seconds`` sizes the work, not a deadline: the number of runs is
seconds / (passes x nominal seconds per run), the nominal cost measured
when the benchmark was defined, so every version does identical work for
the same arguments and solution quality stays comparable.

With --trace 0 the runs are made in PASSES timed passes. Runs are seeded,
so every pass replays the same work bit for bit. A timed batch of set-ups
(CSV on disk to the first generation) is made before each engine call and
after the last, so set-up samples are spread over the whole measurement.
setup_s is the median over batches of the time per set-up, run_s the
median over runs of each run's mean over its replays, and wall_s the mean
time of a pass.

Every run is checked: it must not raise, the incumbent fitness in its
history must never decrease, its search fitness and 10x10 accuracy must
equal a fresh cv_accuracy of the returned mask, and each replay must match
the first pass exactly; the experiment's report must pass verify_report.
A sha256 of each run record (and of report.json) is printed so that
behaviour drift between versions is visible; it is not a gate.

With --trace 1 the last line holds the per-layer metrics instead: micro
timings at the workload's size, the set-up layers, and the split of
search time from a traced pass, made after an untraced pass of the same
runs (the wall-time difference is the tracing overhead). Per-run records,
the host and the spans are written to .perfbench_out/ in the repository
root.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    shape: str
    experiment: bool  # drive run_experiment instead of run_supervisor
    generations: int
    nominal_run_s: float  # per-run cost when the benchmark was defined
    setup_batch: int  # set-ups per timed batch, about 0.3 s when defined


WORKLOADS = {
    "musk-search": Workload("musk", False, generations=8, nominal_run_s=3.3,
                            setup_batch=2),
    "sonar-search": Workload("sonar", False, generations=20, nominal_run_s=1.7,
                             setup_batch=16),
    "dermatology-experiment": Workload("dermatology", True, generations=15,
                                       nominal_run_s=1.4, setup_batch=8),
}
MIN_RUNS = 3
PASSES = 2  # timed passes over the same seeded runs


def import_engine():
    """Import hhfs from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hhfs
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hhfs from {src}: {exc}")
    if not Path(hhfs.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: hhfs resolved to {hhfs.__file__}, not under {src}")
    return hhfs


def host_record(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = -1
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@dataclass
class Pass:
    """One pass over the workload's seeded runs. ``times`` is per run, None
    where the run raised; ``wall`` is the whole pass."""

    records: list
    times: list
    wall: float
    report_sha256: str = ""
    problems: list = field(default_factory=list)


class Bench:
    """One workload at one seed: its settings, set-up, run loops and checks."""

    def __init__(self, hhfs, workload: Workload, seed: int, seconds: int, out: Path):
        self.hhfs = hhfs
        self.w = workload
        self.seed = seed
        self.out = out
        self.runs = max(MIN_RUNS, round(seconds / (PASSES * workload.nominal_run_s)))
        self.cfg = hhfs.SupervisorConfig(
            population_size=30, generations=workload.generations, p_crossover=0.7,
            p_mutation=0.1, nllh=16, elitism=1, mutn_rate=0.1, seed=seed)
        self.report_protocols = {
            f"{r}x10": hhfs.CvProtocol(folds=10, repeats=r, base_seed=seed)
            for r in (10, 5)}
        self.csv_path = out / f"{workload.shape}.csv"

    def search_protocol(self, run_seed: int):
        return self.hhfs.CvProtocol(folds=10, repeats=1, base_seed=run_seed)

    # ------------------------------------------------------------ set-up
    def set_up(self):
        """CSV on disk to the point where the first generation can start."""
        h = self.hhfs
        d = h.min_max_normalize(h.load_csv(self.csv_path, label_column=-1))
        cache = h.build_cache(d)
        baseline = {label: h.full_feature_baseline(d, proto)
                    for label, proto in self.report_protocols.items()}
        return d, cache, baseline

    def set_up_batch(self) -> float:
        """Seconds per set-up over one batch of the workload's size."""
        t0 = time.perf_counter()
        for _ in range(self.w.setup_batch):
            self.set_up()
        return (time.perf_counter() - t0) / self.w.setup_batch

    # ----------------------------------------------------------- run loops
    def record(self, result) -> dict:
        """The fields of a report.json run record the checks need."""
        return {
            "seed": result.seed,
            "mask": result.mask.to01(),
            "m": result.m,
            "search_fitness": result.search_fitness,
            "accuracy": dict(result.reported),
            "fitness_computations": result.fitness_computations,
            "fitness_cache_hits": result.fitness_cache_hits,
            "llh": result.llh_stats.as_dict(),
            "history": [[g.generation, g.best_chromosome_fitness,
                         g.incumbent_fitness, g.incumbent_m] for g in result.history],
        }

    def search(self, d, cache, before) -> Pass:
        """The seeded run_supervisor runs, one after another."""
        records, times = [], []
        for r in range(self.runs):
            seed = self.seed + r
            before()
            t0 = time.perf_counter()
            try:
                result = self.hhfs.run_supervisor(
                    d, replace(self.cfg, seed=seed), self.search_protocol(seed),
                    self.report_protocols, cache=cache)
            except Exception:
                traceback.print_exc()
                records.append(None)
                times.append(None)
                continue
            times.append(time.perf_counter() - t0)
            records.append(self.record(result))
        return Pass(records, times, sum(t for t in times if t is not None))

    def experiment(self, tag: str) -> Pass:
        """One run_experiment call; per-run times come from its timings.csv."""
        h = self.hhfs
        out_dir = self.out / f"experiment-{tag}"
        shutil.rmtree(out_dir, ignore_errors=True)
        spec = h.ExperimentSpec(
            datasets=(h.DatasetConfig(name=self.w.shape, path=str(self.csv_path)),),
            runs=self.runs, supervisor=self.cfg, cv_folds=10, search_repeats=1,
            report_repeats=(10, 5), master_seed=self.seed, out_dir=str(out_dir))
        failed = Pass([None] * self.runs, [None] * self.runs, 0.0)
        t0 = time.perf_counter()
        try:
            h.run_experiment(spec)
        except Exception:
            traceback.print_exc()
            failed.problems.append("run_experiment raised")
            return failed
        failed.wall = wall = time.perf_counter() - t0
        try:
            raw = (out_dir / self.w.shape / "report.json").read_bytes()
            report = json.loads(raw)
            h.verify_report(report)
            with open(out_dir / self.w.shape / "timings.csv", newline="") as fh:
                times = [float(row["wall_time_seconds"]) for row in csv.DictReader(fh)]
        except (OSError, ValueError, KeyError) as exc:
            failed.problems.append(f"report unusable: {exc!r}")
            return failed
        if len(report["runs"]) != self.runs or len(times) != self.runs:
            failed.problems.append(f"report holds {len(report['runs'])} runs "
                                   f"and {len(times)} timings")
            return failed
        return Pass(report["runs"], times, wall, hashlib.sha256(raw).hexdigest())

    def drive(self, d, cache, tag: str, before=lambda: None) -> Pass:
        """One pass over the runs; ``before`` is called ahead of each
        engine call (each run_supervisor or the run_experiment)."""
        if self.w.experiment:
            before()
            return self.experiment(tag)
        return self.search(d, cache, before)

    # -------------------------------------------------------------- checks
    def check(self, d, record) -> list[str]:
        """Problems with one run record; an empty list means it passed."""
        h = self.hhfs
        problems = []
        incumbent = [row[2] for row in record["history"]]
        if any(b < a for a, b in zip(incumbent, incumbent[1:])):
            problems.append("incumbent fitness decreased")
        if incumbent and incumbent[-1] != record["search_fitness"]:
            problems.append("history ends off the returned fitness")
        mask = h.FeatureMask.from01(record["mask"])
        if h.cv_accuracy(d, mask, self.search_protocol(record["seed"])) != record["search_fitness"]:
            problems.append("search fitness differs from a fresh cv_accuracy")
        if h.cv_accuracy(d, mask, self.report_protocols["10x10"]) != record["accuracy"]["10x10"]:
            problems.append("10x10 accuracy differs from a fresh cv_accuracy")
        return problems

    def checked(self, d, passes: list[Pass]) -> int:
        """Check every run of the first pass, and that each later pass
        reproduced it bit for bit; print each run's outcome and digest and
        return the number of runs that failed."""
        first, replays = passes[0], passes[1:]
        if first.report_sha256:
            same = all(p.report_sha256 == first.report_sha256 for p in replays)
            print(f"report.json sha256 {first.report_sha256} "
                  f"({'every replay identical' if same else 'a replay differs'})")
        failed = 0
        for r, record in enumerate(first.records):
            problems = [msg for p in passes for msg in p.problems]
            again = [p.records[r] for p in replays]
            if record is None or None in again:
                problems.append("run raised")
            else:
                problems += self.check(d, record)
                if any(digest(a) != digest(record) for a in again):
                    problems.append("replay differs")
            failed += bool(problems)
            head = (f"seed={record['seed']} m={record['m']} acc10x10="
                    f"{record['accuracy']['10x10']:.4f} sha256={digest(record)[:16]} "
                    if record is not None else "")
            print(f"run {r}: {head}{'; '.join(problems) or 'ok'}")
        return failed


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def end_to_end(bench: Bench, d, cache):
    setup_times = []

    def set_up():
        setup_times.append(bench.set_up_batch())

    passes = [bench.drive(d, cache, f"pass{k}", set_up) for k in range(PASSES)]
    set_up()
    failed = bench.checked(d, passes)
    done = [r for r in passes[0].records if r is not None]
    # the host's speed swings between two levels in phases of seconds, so
    # means and medians over replays spread in time are steadier than minima
    run_times = [statistics.fmean(ts) for ts in zip(*(p.times for p in passes))
                 if None not in ts]
    wall = statistics.fmean(p.wall for p in passes)
    evals = bench.cfg.generations * bench.cfg.population_size * len(done)
    values = {
        "setup_s": median(setup_times),
        "run_s": median(run_times),
        "wall_s": wall,
        "evals_per_s": evals / wall if wall > 0 else 0.0,
        "acc_10x10": statistics.fmean(r["accuracy"]["10x10"] for r in done) if done else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"failed_frac": failed / bench.runs, "run_samples": len(run_times),
            "setup_samples": len(setup_times), "setup_times": setup_times,
            "final_m": [r["m"] for r in done], "pass_walls": [p.wall for p in passes],
            "run_times": [p.times for p in passes], "records": passes[0].records}
    return values, bench.runs, failed, info


def per_layer(bench: Bench, d, cache):
    from layers import micro_timings, per_call_seconds, search_breakdown
    from tracing import Tracer, self_times

    values = micro_timings(d, cache, bench.seed)
    with Tracer() as setup_trace:
        bench.set_up_batch()

    untraced = bench.drive(d, cache, "untraced")
    with Tracer() as tracer:
        traced = bench.drive(d, cache, "traced")
    failed = bench.checked(d, [untraced, traced])
    split = search_breakdown(tracer.spans)
    done = [r for r in traced.records if r is not None]
    hits = sum(r["fitness_cache_hits"] for r in done)
    computations = sum(r["fitness_computations"] for r in done)
    trace_self = self_times(tracer.spans)

    def setup_layer(name: str, calls: int = 1) -> float:
        return per_call_seconds(setup_trace.spans, name, calls)

    values.update({
        "llh.apply_share": split["llh_share"],
        "correlation.build_cache_s": setup_layer("build_cache"),
        "supervisor.stats_merit_share": split["stats_merit_share"],
        "evaluation.fitness_share": split["fitness_share"],
        "evaluation.memo_hit_rate": hits / (hits + computations) if computations else 0.0,
        "evaluation.memo_lookups": hits + computations,
        "evaluation.computations": computations,
        "dataset.load_csv_s": setup_layer("load_csv"),
        "dataset.stratified_folds_share": split["stratified_folds_share"],
        "supervisor.evaluate_chromosome_ms": split["evaluate_chromosome_ms"],
        "supervisor.evaluate_chromosome_tail_ms": split["evaluate_chromosome_tail_ms"],
        "supervisor.evaluate_chromosome_tail_pct": split["evaluate_chromosome_tail_pct"],
        "supervisor.evaluations": split["evaluations"],
        "supervisor.ga_share": split["ga_share"],
        "supervisor.report_s": split["report_s"] / len(done) if done else 0.0,
        "supervisor.self_share": split["self_share"],
        "experiment.baseline_s": setup_layer("full_feature_baseline",
                                             len(bench.report_protocols)),
        "experiment.write_s": trace_self.get("run_experiment", 0.0),
        "mask.constructed_per_eval": split["masks_per_eval"],
        "trace.untraced_wall_s": untraced.wall,
        "trace.overhead_s": traced.wall - untraced.wall,
    })
    parts = sum(split[k] for k in ("llh_share", "stats_merit_share", "fitness_share",
                                   "ga_share", "self_share"))
    print(f"traced search {split['search_s']:.3f}s over {bench.runs} runs; shares sum "
          f"to {parts:.6f}; tracing overhead {traced.wall - untraced.wall:+.3f}s "
          f"on {untraced.wall:.3f}s untraced")
    tracer.dump(bench.out / "spans.json")
    info = {"breakdown": split, "self_times": trace_self, "records": traced.records,
            "spans": len(tracer.spans)}
    return values, bench.runs, failed, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    hhfs = import_engine()
    import numpy as np
    import scipy

    from standins import SHAPES, write_csv

    workload = WORKLOADS[args.workload]
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = Bench(hhfs, workload, args.seed, args.seconds, out)
    host = host_record(np, scipy)
    print("host " + json.dumps(host, sort_keys=True))

    write_csv(SHAPES[workload.shape], args.seed, bench.csv_path)
    d, cache, baseline = bench.set_up()
    print(f"{args.workload}: {d.n_instances}x{d.n_features}, {d.class_count} classes, "
          f"{bench.runs} runs x {workload.generations} generations; full-feature "
          + " ".join(f"{k}={v:.4f}" for k, v in baseline.items()))

    if args.trace:
        values, attempted, failed, info = per_layer(bench, d, cache)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, info = end_to_end(bench, d, cache)
        wanted = spec["end_to_end"]
        print(f"failed_frac = {info['failed_frac']:.4f} fraction ({failed}/{attempted}); "
              f"run_s over {info['run_samples']} runs, setup_s over "
              f"{info['setup_samples']} batches of {workload.setup_batch} set-ups, "
              f"{PASSES} passes; "
              f"final m {info['final_m']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    with open(out / "result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "host": host,
                   "baseline": baseline,
                   "metrics": metrics, **info}, fh, indent=1)
    for tmp in out.glob("experiment-*"):
        shutil.rmtree(tmp)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
