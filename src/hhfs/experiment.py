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
from dataclasses import Field, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import cores
from .correlation import build_cache, dump_cache_csv
from .dataset import Dataset, load_csv, min_max_normalize
from .evaluation import CvProtocol, cv_accuracies, cv_accuracy, require_ints
from .mask import FeatureMask
from .published import BASELINE_REFERENCE, HHFS_REFERENCE
from .supervisor import SupervisorConfig, SupervisorResult, run_supervisor


@dataclass(frozen=True)
class DatasetConfig:
    """Manifest entry locating one dataset CSV. The name is the directory
    its reports go to under the output directory: one path component."""

    name: str
    path: str
    label_column: int | str = -1
    has_header: bool = False
    missing_token: str = "?"

    def __post_init__(self):
        if self.name in ("", "..") or Path(self.name).name != self.name:  # "." names ""
            raise ValueError(f"dataset name {self.name!r} is not one path component")

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
        require_ints(self.runs, self.master_seed, *self.report_repeats)  # the rest: CvProtocol
        if self.runs < 1:
            raise ValueError("need at least 1 run")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if not self.report_repeats:
            raise ValueError("need at least one reporting protocol")
        for i, r in enumerate(self.report_repeats):
            if r in self.report_repeats[:i]:  # both would report under one label
                raise ValueError(f"report_repeats lists {r} twice")
        # ``only`` picks datasets by name ignoring case, and so may a file
        # system the report directories
        seen: dict[str, str] = {}
        for d in self.datasets:
            if (key := d.name.lower()) in seen:
                raise ValueError(
                    f"dataset names {seen[key]!r} and {d.name!r} are equal ignoring case")
            seen[key] = d.name
        # building the protocols runs their fold and repeat checks
        self.search_protocol(self.master_seed)
        self.report_protocols()

    def only(self, names) -> ExperimentSpec:
        """This spec with just the named datasets, matched ignoring case and
        kept in config order. A name the config lacks raises ValueError."""
        keep = {name.lower() for name in names}
        chosen = tuple(d for d in self.datasets if d.name.lower() in keep)
        unknown = keep - {d.name.lower() for d in chosen}
        if unknown:
            raise ValueError(f"unknown dataset(s): {', '.join(sorted(unknown))}; "
                             f"the config defines: {', '.join(d.name for d in self.datasets)}")
        return replace(self, datasets=chosen)

    def run_seed(self, run_index: int) -> int:
        return self.master_seed + run_index

    def search_protocol(self, seed: int) -> CvProtocol:
        return CvProtocol(folds=self.cv_folds, repeats=self.search_repeats,
                          base_seed=seed)

    def report_protocols(self) -> dict[str, CvProtocol]:
        # reporting folds are seeded by the master seed, fixed across runs
        protocols = [CvProtocol(folds=self.cv_folds, repeats=r, base_seed=self.master_seed)
                     for r in self.report_repeats]
        return {proto.label(): proto for proto in protocols}

    def primary_label(self) -> str:
        return next(iter(self.report_protocols()))


class Knob(NamedTuple):
    """One config key: its [section] and key, the ExperimentSpec or
    SupervisorConfig field it sets (type and default) and its flag."""

    section: str
    key: str
    field: Field
    flag: str


def _knob(section: str, name: str, key: str = "", flag: str = "") -> Knob:
    owner = SupervisorConfig if section == "supervisor" else ExperimentSpec
    f = next(f for f in fields(owner) if f.name == name)
    return Knob(section, key or name, f, flag or "--" + name.replace("_", "-"))


# Every [experiment], [supervisor] and [cv] key. A run's supervisor seed
# comes from master_seed, so SupervisorConfig.seed is no key.
KNOBS = (
    _knob("experiment", "runs"),
    _knob("experiment", "master_seed", flag="--seed"),
    _knob("experiment", "out_dir", flag="--out"),
    *(_knob("supervisor", f.name) for f in fields(SupervisorConfig) if f.name != "seed"),
    _knob("cv", "cv_folds", key="folds"),
    _knob("cv", "search_repeats"),
    _knob("cv", "report_repeats"),
)


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# value parser per declared field type (annotations are strings here); a
# label column is an index or a header name
VALUE_PARSERS = {
    "int": int, "float": float, "str": str, "tuple[int, ...]": int_list,
    "bool": lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
    "int | str": lambda text: int(text) if text.lstrip("+-").isdecimal() else text,
}


def with_knobs(spec: ExperimentSpec, values: dict[str, object]) -> ExperimentSpec:
    """``spec`` with the knob fields named in ``values`` set to them."""
    sup = {k.field.name for k in KNOBS if k.section == "supervisor"}
    supervisor = replace(spec.supervisor, **{n: v for n, v in values.items() if n in sup})
    return replace(spec, supervisor=supervisor,
                   **{n: v for n, v in values.items() if n not in sup})


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
        "history": [list(rec) for rec in result.history],
    }


def aggregate_runs(runs: list[dict], labels: list[str]) -> dict:
    """Best-of-runs (with its subset size) and arithmetic means (added in
    order), per reporting protocol. Ties on best go to the earliest run."""
    agg: dict = {}
    for label in labels:
        accs = [r["accuracy"][label] for r in runs]
        best_i = int(np.argmax(accs))
        best = accs[best_i]
        mean = float(np.cumsum(accs)[-1] / len(accs))
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
    """Shape and self-consistency check: a report is an object naming its
    dataset by a string, with a non-empty list of run records and a
    non-empty aggregate object that recomputing from the runs matches
    exactly. Raises ValueError (``not a report: ...`` for a wrong shape)
    otherwise."""
    if not isinstance(report, dict):
        raise ValueError("not a report: expected a JSON object")
    missing = [key for key in ("dataset", "runs", "aggregate") if key not in report]
    if missing:
        raise ValueError(f"not a report: no {', '.join(missing)}")
    if not isinstance(report["dataset"], str):
        raise ValueError("not a report: dataset is not a string")
    if not (isinstance(report["runs"], list) and report["runs"]):
        raise ValueError("not a report: runs is not a non-empty list")
    if not isinstance(report["aggregate"], dict):
        raise ValueError("not a report: aggregate is not an object")
    if not report["aggregate"]:
        raise ValueError("not a report: aggregate is empty")
    try:
        recomputed = aggregate_runs(report["runs"], list(report["aggregate"]))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError("not a report: run records do not fit the aggregate "
                         f"({type(exc).__name__}: {exc})") from None
    if recomputed != report["aggregate"]:
        raise ValueError(f"report aggregate for {report['dataset']} is inconsistent "
                         "with its per-run records")


def run_dataset(dataset: Dataset, spec: ExperimentSpec, progress=None,
                cache_csv: Path | None = None) -> tuple[dict, list[dict[str, float]]]:
    """All runs for one already-loaded dataset, mapped by ``cores.fork_map``
    (forked workers where this process may fork, else this process), after
    writing its correlation cache to ``cache_csv`` when given. Returns the
    report dict and, per run, its wall seconds in total and per phase (kept
    out of the report), keyed by their timings.csv column names."""
    dataset = min_max_normalize(dataset)
    cache = build_cache(dataset)
    if cache_csv is not None:
        dump_cache_csv(cache, cache_csv)
        if progress is not None:
            progress(f"  wrote {cache_csv}")
    report_protocols = spec.report_protocols()
    baseline = cv_accuracies(dataset, FeatureMask.ones(dataset.n_features),
                             report_protocols)

    def run_one(r: int) -> tuple[dict, dict[str, float]]:
        """Run ``r``: its report record and timings.csv row."""
        seed = spec.run_seed(r)
        result = run_supervisor(dataset, replace(spec.supervisor, seed=seed),
                                spec.search_protocol(seed), report_protocols, cache=cache)
        times = {"wall_time": result.wall_time, **result.phase_seconds}
        return _run_record(r, result), {f"{k}_seconds": t for k, t in times.items()}

    results = cores.fork_map(run_one, range(spec.runs))
    runs: list[dict] = []
    timings: list[dict[str, float]] = []
    label = spec.primary_label()
    try:
        for record, row in results:
            runs.append(record)
            timings.append(row)
            if progress is not None:
                progress(f"  run {record['run']}: accuracy[{label}]="
                         f"{record['accuracy'][label]:.4f} m={record['m']} "
                         f"({row['wall_time_seconds']:.1f}s)")
    finally:
        results.close()  # stops and joins fork_map's workers
    report = {
        "dataset": dataset.name,
        "n_instances": dataset.n_instances,
        "n_features": dataset.n_features,
        "class_count": dataset.class_count,
        "config": {  # every knob but where the files go; tuples as JSON reads them
            **{k.field.name: list(v) if isinstance(v, tuple) else v
               for k in KNOBS if k.section != "supervisor" and k.field.name != "out_dir"
               for v in [getattr(spec, k.field.name)]},
            "supervisor": asdict(replace(spec.supervisor, seed=spec.master_seed)),
        },
        "baseline": baseline,
        "runs": runs,
        "aggregate": aggregate_runs(runs, list(report_protocols.keys())),
    }
    return report, timings


def write_report_files(report: dict, timings: list[dict[str, float]],
                       out_dir: Path) -> None:
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
        writer.writerow(["run", *timings[0]])
        for r, row in enumerate(timings):
            writer.writerow([r, *(f"{t:.3f}" for t in row.values())])


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


def run_experiment(spec: ExperimentSpec, progress=None, dump_cache: bool = False) -> list[dict]:
    """Execute the experiment over every dataset in the manifest.

    Writes per-dataset report.json, history.csv and timings.csv and a
    combined summary.csv under spec.out_dir; with ``dump_cache``, also each
    dataset's correlation cache as <name>_correlation_cache.csv (see
    ``dump_cache_csv``) before its runs. A dataset that fails to load, run
    or have its files written (an OSError or ValueError, or a MemoryError,
    as from an allocation too large for the process, in a run's worker
    too) is reported with an ``error`` field, gets a blank summary.csv row,
    loses the three files an earlier run left in its directory and does not
    abort the others; an error outside that, such as an unwritable
    summary.csv or a stale file that cannot be removed, propagates.
    """
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports: list[dict] = []
    for entry in spec.datasets:
        if progress is not None:
            progress(f"dataset {entry.name}:")
        try:
            cache_csv = out_dir / f"{entry.name}_correlation_cache.csv" if dump_cache else None
            report, timings = run_dataset(entry.load(), spec, progress, cache_csv)
            write_report_files(report, timings, out_dir)
        except (OSError, ValueError, MemoryError) as exc:
            report = {"dataset": entry.name, "error": str(exc)}
            for name in ("report.json", "history.csv", "timings.csv"):  # an earlier run's
                if (stale := out_dir / entry.name / name).is_file():
                    stale.unlink()
            if progress is not None:
                progress(f"  FAILED: {exc}")
        reports.append(report)
    write_summary_csv(reports, out_dir / "summary.csv")
    return reports


def render_comparison(report: dict) -> str:
    """Table of this engine's best accuracy against published reference
    numbers (percent scale), per protocol: the paper's own best where
    ``HHFS_REFERENCE`` has the dataset, then the baselines; the row
    maximum is marked by '*'. The dataset name is looked up ignoring case,
    as ``--dataset`` matches config names."""
    name = report["dataset"]
    lines = [f"{name}: accuracy vs published baselines (percent)"]
    refs = BASELINE_REFERENCE.get(name.lower(), [])
    published = HHFS_REFERENCE.get(name.lower(), {})
    for label, agg in report["aggregate"].items():
        row: list[tuple[str, float]] = [(f"this engine ({label})", agg["best"] * 100.0)]
        if label in published:
            row.append((f"HHFS, published ({label})", published[label]["best"] * 100.0))
        row += [(f"{method} ({proto})", pct)
                for method, proto, pct in refs if proto == label]
        best = max(v for _, v in row)
        for method, value in row:
            marker = " *" if value == best else ""
            lines.append(f"  {method:<28} {value:>7.2f}{marker}")
    return "\n".join(lines)


def load_config(path) -> ExperimentSpec:
    """Parse an INI experiment config: [experiment], [supervisor] and [cv]
    take the KNOBS keys, each [datasets.<name>] the DatasetConfig fields but
    ``name``. A missing key keeps its field's default; an unknown section
    (``[DEFAULT]`` too) or key, a value its field or the spec rejects, or
    an INI syntax error raises ValueError naming the file."""
    parser = configparser.ConfigParser(default_section="")  # no section is special

    def values(section: str, by_key: dict[str, Field]) -> dict[str, object]:
        unknown = sorted(sections[section].keys() - by_key.keys())
        if unknown:
            raise ValueError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")
        parsed = {}
        for key, text in sections[section].items():
            f = by_key[key]
            parse = VALUE_PARSERS[f.type]
            try:
                parsed[f.name] = parse(text)
            except (KeyError, ValueError):  # KeyError: not a boolean
                raise ValueError(f"[{section}] {key} = {text!r} "
                                 f"is not a valid {f.type}") from None
        return parsed

    dataset_fields = {f.name: f for f in fields(DatasetConfig) if f.name != "name"}
    knob_values: dict[str, object] = {}
    datasets = []
    try:
        if not parser.read(path):
            raise FileNotFoundError(f"config file not found: {path}")
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
        for section in sections:
            knobs = {k.key: k.field for k in KNOBS if k.section == section}
            if section.startswith("datasets."):
                entry = values(section, dataset_fields)
                if "path" not in entry:
                    raise ValueError(f"[{section}] is missing the 'path' key")
                datasets.append(DatasetConfig(name=section.split(".", 1)[1], **entry))
            elif knobs:
                knob_values |= values(section, knobs)
            else:
                raise ValueError(f"unknown section [{section}]")
        if not datasets:
            raise ValueError("no [datasets.<name>] sections found")
        return with_knobs(ExperimentSpec(datasets=tuple(datasets)), knob_values)
    except (configparser.Error, ValueError) as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None
