"""Benchmark harness: multi-run experiments, aggregation, and reports.

An experiment runs the supervisor ``runs`` times per dataset with seeds
master_seed, master_seed+1, ... and aggregates best-of-runs and means,
then writes a JSON report and CSV history per dataset plus one summary
CSV. Search-time fitness uses its own (cheap) protocol reseeded per run;
the final mask of every run is re-scored under the fixed reporting
protocols so runs stay comparable.

All report fields are deterministic functions of the experiment spec;
wall-clock timings are kept out of report.json (they go to timings.csv
and the console) so identical specs produce byte-identical reports.
"""

from __future__ import annotations

import configparser
import csv
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .correlation import build_cache, dump_cache_csv
from .dataset import Dataset, load_csv, min_max_normalize
from .evaluation import CvProtocol, cv_accuracy
from .mask import FeatureMask
from .published import BASELINE_REFERENCE
from .supervisor import SupervisorConfig, SupervisorResult, run_supervisor


# the [supervisor] config keys and `hhfs run` flags, typed and defaulted by
# SupervisorConfig; each run's seed comes from master_seed instead
SUPERVISOR_KNOBS = tuple(f for f in fields(SupervisorConfig) if f.name != "seed")

_SECTION_KEYS = {
    "experiment": {"runs", "master_seed", "out_dir"},
    "supervisor": {f.name for f in SUPERVISOR_KNOBS},
    "cv": {"folds", "search_repeats", "report_repeats"},
}
_DATASET_KEYS = {"path", "label_column", "has_header", "missing_token"}


@dataclass(frozen=True)
class DatasetConfig:
    """Manifest entry locating one dataset CSV."""

    name: str
    path: str
    label_column: int | str = -1
    has_header: bool = False
    missing_token: str = "?"

    def load(self) -> Dataset:
        return load_csv(self.path, label_column=self.label_column,
                        has_header=self.has_header,
                        missing_token=self.missing_token, name=self.name)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce an experiment bit for bit."""

    datasets: tuple[DatasetConfig, ...]
    runs: int = 10
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    cv_folds: int = 10
    search_repeats: int = 1
    report_repeats: tuple[int, ...] = (10, 5)
    master_seed: int = 0
    out_dir: str = "results"

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("need at least 1 run")
        if not self.report_repeats:
            raise ValueError("need at least one reporting protocol")

    def run_seed(self, run_index: int) -> int:
        return self.master_seed + run_index

    def report_protocols(self) -> dict[str, CvProtocol]:
        # reporting folds are seeded by the master seed, fixed across runs
        return {
            f"{r}x{self.cv_folds}": CvProtocol(
                folds=self.cv_folds, repeats=r, base_seed=self.master_seed)
            for r in self.report_repeats
        }

    def primary_label(self) -> str:
        return f"{self.report_repeats[0]}x{self.cv_folds}"


def full_feature_baseline(d: Dataset, proto: CvProtocol) -> float:
    """CV accuracy of the all-ones mask: the J(N) reference an improving
    subset has to beat."""
    return cv_accuracy(d, FeatureMask.ones(d.n_features), proto)


def _run_record(run_index: int, result: SupervisorResult) -> dict:
    return {
        "run": run_index,
        "seed": result.seed,
        "mask": result.mask.to01(),
        "selected_indices": [int(i) for i in result.mask.selected_indices()],
        "m": result.m,
        "search_fitness": result.search_fitness,
        "initial_fitness": result.initial_fitness,
        "initial_m": result.initial_m,
        "improved": result.improved,
        "accuracy": dict(result.reported),
        "fitness_computations": result.fitness_computations,
        "fitness_cache_hits": result.fitness_cache_hits,
        "llh": result.llh_stats.as_dict(),
        "history": [
            [rec.generation, rec.best_chromosome_fitness,
             rec.incumbent_fitness, rec.incumbent_m]
            for rec in result.history
        ],
    }


def aggregate_runs(runs: list[dict], labels: list[str]) -> dict:
    """Best-of-runs (with its subset size) and arithmetic means, per
    reporting protocol. Ties on best go to the earliest run."""
    agg: dict = {}
    for label in labels:
        accs = [r["accuracy"][label] for r in runs]
        best_i = int(np.argmax(accs))
        best = accs[best_i]
        mean = sum(accs) / len(accs)
        agg[label] = {
            "best": best,
            "best_percent": best * 100.0,
            "best_run": runs[best_i]["run"],
            "best_m": runs[best_i]["m"],
            "mean": mean,
            "mean_percent": mean * 100.0,
            "mean_m": sum(r["m"] for r in runs) / len(runs),
        }
    return agg


def verify_report(report: dict) -> None:
    """Self-consistency check: recompute the aggregate from the per-run
    fields and require an exact match. Raises ValueError on drift."""
    labels = list(report["aggregate"].keys())
    recomputed = aggregate_runs(report["runs"], labels)
    if recomputed != report["aggregate"]:
        raise ValueError(f"report aggregate for {report['dataset']} is inconsistent "
                         "with its per-run records")


def run_dataset(dataset: Dataset, spec: ExperimentSpec,
                progress=None) -> tuple[dict, list[float]]:
    """All runs for one already-loaded dataset. Returns the report dict
    and the per-run wall times (kept out of the report)."""
    dataset = min_max_normalize(dataset)
    cache = build_cache(dataset)
    report_protocols = spec.report_protocols()
    baseline = {label: full_feature_baseline(dataset, proto)
                for label, proto in report_protocols.items()}
    runs: list[dict] = []
    timings: list[float] = []
    for r in range(spec.runs):
        seed = spec.run_seed(r)
        cfg = replace(spec.supervisor, seed=seed)
        search = CvProtocol(folds=spec.cv_folds, repeats=spec.search_repeats,
                            base_seed=seed)
        result = run_supervisor(dataset, cfg, search, report_protocols, cache=cache)
        runs.append(_run_record(r, result))
        timings.append(result.wall_time)
        if progress is not None:
            primary = result.reported[spec.primary_label()]
            progress(f"  run {r}: accuracy[{spec.primary_label()}]={primary:.4f} "
                     f"m={result.m} ({result.wall_time:.1f}s)")
    report = {
        "dataset": dataset.name,
        "n_instances": dataset.n_instances,
        "n_features": dataset.n_features,
        "class_count": dataset.class_count,
        "config": {
            "runs": spec.runs,
            "master_seed": spec.master_seed,
            "cv_folds": spec.cv_folds,
            "search_repeats": spec.search_repeats,
            "report_repeats": list(spec.report_repeats),
            "supervisor": asdict(replace(spec.supervisor, seed=spec.master_seed)),
        },
        "baseline": baseline,
        "runs": runs,
        "aggregate": aggregate_runs(runs, list(report_protocols.keys())),
    }
    return report, timings


def write_report_files(report: dict, timings: list[float], out_dir: Path) -> None:
    out = out_dir / report["dataset"]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    with open(out / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "generation", "incumbent_fitness",
                         "incumbent_m", "best_chromosome_fitness"])
        for run in report["runs"]:
            for gen, best_fit, inc_fit, inc_m in run["history"]:
                writer.writerow([run["run"], gen, repr(inc_fit), inc_m,
                                 repr(best_fit)])
    with open(out / "timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "wall_time_seconds"])
        for r, t in enumerate(timings):
            writer.writerow([r, f"{t:.3f}"])


def write_summary_csv(reports: list[dict], path: Path) -> None:
    """One row per dataset and protocol with best/mean accuracy and sizes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "protocol", "baseline_accuracy",
                         "best_accuracy", "best_m", "mean_accuracy", "mean_m"])
        for report in reports:
            if "error" in report:
                writer.writerow([report["dataset"], "", "", "", "", "", ""])
                continue
            for label, agg in report["aggregate"].items():
                writer.writerow([
                    report["dataset"], label, repr(report["baseline"][label]),
                    repr(agg["best"]), agg["best_m"],
                    repr(agg["mean"]), repr(agg["mean_m"]),
                ])


def summary_text(reports: list[dict], spec: ExperimentSpec) -> str:
    label = spec.primary_label()
    lines = [f"{'dataset':<14} {'N':>5} {'baseline':>9} {'best':>8} "
             f"{'best_m':>6} {'mean':>8} {'mean_m':>7}   ({label}-fold CV)"]
    for report in reports:
        if "error" in report:
            lines.append(f"{report['dataset']:<14} FAILED: {report['error']}")
            continue
        agg = report["aggregate"][label]
        lines.append(
            f"{report['dataset']:<14} {report['n_features']:>5} "
            f"{report['baseline'][label]:>9.4f} {agg['best']:>8.4f} "
            f"{agg['best_m']:>6} {agg['mean']:>8.4f} {agg['mean_m']:>7.1f}")
    return "\n".join(lines)


def run_experiment(spec: ExperimentSpec, progress=None) -> list[dict]:
    """Execute the experiment over every dataset in the manifest.

    A dataset that fails to load is reported with an ``error`` field and
    does not abort the others. Writes per-dataset report.json/history.csv
    and a combined summary.csv under spec.out_dir.
    """
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports: list[dict] = []
    for entry in spec.datasets:
        if progress is not None:
            progress(f"dataset {entry.name}:")
        try:
            dataset = entry.load()
            report, timings = run_dataset(dataset, spec, progress=progress)
        except (OSError, ValueError) as exc:
            reports.append({"dataset": entry.name, "error": str(exc)})
            if progress is not None:
                progress(f"  FAILED: {exc}")
            continue
        write_report_files(report, timings, out_dir)
        reports.append(report)
    write_summary_csv(reports, out_dir / "summary.csv")
    return reports


def render_comparison(report: dict, references=None) -> str:
    """Table of this engine's accuracy against published reference numbers
    (percent scale), with the row maximum marked by '*'."""
    if references is None:
        references = BASELINE_REFERENCE
    name = report["dataset"]
    lines = [f"{name}: accuracy vs published baselines (percent)"]
    refs = references.get(name, [])
    for label, agg in report["aggregate"].items():
        row: list[tuple[str, float]] = [(f"this engine ({label})", agg["best"] * 100.0)]
        row += [(f"{method} ({proto})", pct)
                for method, proto, pct in refs if proto == label]
        best = max(v for _, v in row)
        for method, value in row:
            marker = " *" if value == best else ""
            lines.append(f"  {method:<28} {value:>7.2f}{marker}")
    return "\n".join(lines)


def dump_correlation_caches(spec: ExperimentSpec) -> list[Path]:
    """Diagnostic: write each dataset's correlation cache as CSV."""
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for entry in spec.datasets:
        dataset = min_max_normalize(entry.load())
        cache = build_cache(dataset)
        path = out_dir / f"{entry.name}_correlation_cache.csv"
        dump_cache_csv(cache, path)
        written.append(path)
    return written


def load_config(path) -> ExperimentSpec:
    """Parse an INI experiment config.

    Sections: [experiment] (runs, master_seed, out_dir), [supervisor]
    (the SUPERVISOR_KNOBS, defaulting as in SupervisorConfig), [cv]
    (folds, search_repeats, report_repeats as a comma-separated list), and
    one [datasets.<name>] per dataset with path, label_column (index or
    name), has_header, missing_token. An unknown section or key raises
    ValueError.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    for section in parser.sections():
        known = (_DATASET_KEYS if section.startswith("datasets.")
                 else _SECTION_KEYS.get(section))
        if known is None:
            raise ValueError(f"{path}: unknown section [{section}]")
        unknown = sorted(set(parser.options(section)) - known)
        if unknown:
            raise ValueError(
                f"{path}: unknown key(s) in [{section}]: {', '.join(unknown)}")

    sup = parser["supervisor"] if parser.has_section("supervisor") else {}
    supervisor = SupervisorConfig(**{
        f.name: type(f.default)(sup[f.name]) for f in SUPERVISOR_KNOBS if f.name in sup})
    cv = parser["cv"] if parser.has_section("cv") else {}
    exp = parser["experiment"] if parser.has_section("experiment") else {}

    datasets = []
    for section in parser.sections():
        if not section.startswith("datasets."):
            continue
        entry = parser[section]
        if "path" not in entry:
            raise ValueError(f"[{section}] is missing the 'path' key")
        label_column: int | str = entry.get("label_column", "-1")
        try:
            label_column = int(label_column)
        except ValueError:
            pass  # column referenced by header name
        datasets.append(DatasetConfig(
            name=section.split(".", 1)[1],
            path=entry["path"],
            label_column=label_column,
            has_header=entry.getboolean("has_header", False),
            missing_token=entry.get("missing_token", "?"),
        ))
    if not datasets:
        raise ValueError(f"{path}: no [datasets.<name>] sections found")

    report_repeats = tuple(
        int(tok) for tok in str(cv.get("report_repeats", "10, 5")).split(",") if tok.strip())
    return ExperimentSpec(
        datasets=tuple(datasets),
        runs=int(exp.get("runs", 10)),
        supervisor=supervisor,
        cv_folds=int(cv.get("folds", 10)),
        search_repeats=int(cv.get("search_repeats", 1)),
        report_repeats=report_repeats,
        master_seed=int(exp.get("master_seed", 0)),
        out_dir=str(exp.get("out_dir", "results")),
    )
