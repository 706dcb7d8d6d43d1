import csv
import ctypes
import dataclasses
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import needs_fork, on_cores, synthetic_dataset
from hhfs import cores, evaluation, experiment
from hhfs.dataset import Dataset
from hhfs.evaluation import CvProtocol, FitnessEvaluator
from hhfs.experiment import (DatasetConfig, ExperimentSpec,
                             full_feature_baseline, load_config,
                             render_comparison, run_experiment, summary_text,
                             verify_report)
from hhfs.mask import FeatureMask
from hhfs.supervisor import SupervisorConfig


def write_dataset_csv(path, n_instances=24, n_features=5, seed=0):
    d = synthetic_dataset(n_instances=n_instances, n_features=n_features,
                          n_informative=2, seed=seed)
    rows = []
    for x, y in zip(d.features, d.labels):
        rows.append(",".join(f"{v:.6f}" for v in x) + f",{'AB'[int(y)]}")
    path.write_text("\n".join(rows) + "\n")
    return path


def write_config(tmp_path, body):
    path = tmp_path / "experiment.ini"
    path.write_text(body)
    return path


@pytest.fixture
def tiny_spec(tmp_path):
    csv_a = write_dataset_csv(tmp_path / "alpha.csv", seed=1)
    csv_b = write_dataset_csv(tmp_path / "beta.csv", seed=2)
    return ExperimentSpec(
        datasets=(
            DatasetConfig(name="alpha", path=str(csv_a)),
            DatasetConfig(name="beta", path=str(csv_b)),
        ),
        runs=2,
        supervisor=SupervisorConfig(population_size=4, generations=2),
        cv_folds=3,
        search_repeats=1,
        report_repeats=(2, 1),
        master_seed=5,
        out_dir=str(tmp_path / "out"),
    )


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        csv_path = write_dataset_csv(tmp_path / "alpha.csv")
        cfg = write_config(tmp_path, f"""
[experiment]
runs = 3
master_seed = 9
out_dir = {tmp_path / 'results'}

[supervisor]
population_size = 8
generations = 4
p_crossover = 0.6
p_mutation = 0.2
elitism = 2
mutn_rate = 0.05

[cv]
folds = 4
search_repeats = 1
report_repeats = 2, 1

[datasets.alpha]
path = {csv_path}
label_column = -1
""")
        spec = load_config(cfg)
        assert spec.runs == 3
        assert spec.master_seed == 9
        assert spec.supervisor.population_size == 8
        assert spec.supervisor.generations == 4
        assert spec.supervisor.p_crossover == 0.6
        assert spec.supervisor.elitism == 2
        assert spec.cv_folds == 4
        assert spec.report_repeats == (2, 1)
        assert spec.datasets[0].name == "alpha"
        assert spec.primary_label() == "2x4"

    def test_defaults_follow_benchmark_parameters(self, tmp_path):
        csv_path = write_dataset_csv(tmp_path / "a.csv")
        cfg = write_config(tmp_path, f"[datasets.a]\npath = {csv_path}\n")
        spec = load_config(cfg)
        assert spec.runs == 10
        assert spec.supervisor.generations == 200
        assert spec.supervisor.p_crossover == 0.7
        assert spec.supervisor.p_mutation == 0.1
        assert spec.cv_folds == 10
        assert spec.report_repeats == (10, 5)

    def test_benchmark_config_loads_supervisor_defaults(self):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "benchmark.ini"
        spec = load_config(cfg)
        assert spec.supervisor == SupervisorConfig()
        assert [d.name for d in spec.datasets] == [
            "ionosphere", "sonar", "dermatology", "spectf", "musk"]
        assert dataclasses.replace(spec, datasets=()) == ExperimentSpec(datasets=())
        assert (spec.runs, spec.master_seed, spec.out_dir, spec.cv_folds,
                spec.search_repeats, spec.report_repeats) == (
                    10, 0, "results", 10, 1, (10, 5))

    @pytest.mark.parametrize("body, match", [
        ("[supervisor]\ngeneration = 5\n", r"\[supervisor\]: generation"),
        ("[supervisor]\nseed = 5\n", r"\[supervisor\]: seed"),
        ("[cv]\nfold = 5\n", r"\[cv\]: fold"),
        ("[experiment]\nrun = 5\n", r"\[experiment\]: run"),
        ("[datasets.a]\npath = a.csv\nlabel = 0\n", r"\[datasets.a\]: label"),
        ("[superviser]\ngenerations = 5\n", r"unknown section \[superviser\]"),
    ], ids=["supervisor", "supervisor-seed", "cv", "experiment", "dataset",
            "section"])
    def test_unknown_section_or_key_rejected(self, tmp_path, body, match):
        cfg = write_config(tmp_path, "[datasets.x]\npath = x.csv\n" + body)
        with pytest.raises(ValueError, match=match):
            load_config(cfg)

    @pytest.mark.parametrize("body, where", [
        ("[supervisor]\ngenerations = 7.5\n", "[supervisor] generations = '7.5'"),
        ("[experiment]\nruns = ten\n", "[experiment] runs = 'ten'"),
        ("[cv]\nreport_repeats = 10;5\n", "[cv] report_repeats = '10;5'"),
        ("has_header = maybe\n", "[datasets.x] has_header = 'maybe'"),
    ], ids=["supervisor", "experiment", "cv", "dataset"])
    def test_malformed_value_rejected_with_location(self, tmp_path, body, where):
        cfg = write_config(tmp_path, "[datasets.x]\npath = x.csv\n" + body)
        with pytest.raises(ValueError, match=re.escape(f"{cfg}: {where} is not a valid")):
            load_config(cfg)

    def test_unrunnable_cv_rejected_before_reading_csv(self, tmp_path):
        cfg = write_config(tmp_path, f"[datasets.x]\npath = {tmp_path / 'absent.csv'}\n"
                                     "[cv]\nfolds = 1\n")
        with pytest.raises(ValueError, match="need at least 2 folds"):
            load_config(cfg)

    def test_out_of_range_mutn_rate_rejected_before_reading_csv(self, tmp_path):
        cfg = write_config(tmp_path, f"[datasets.x]\npath = {tmp_path / 'absent.csv'}\n"
                                     "[supervisor]\nmutn_rate = 0\n")
        with pytest.raises(ValueError, match=re.escape("mutn_rate must lie in (0, 1)")):
            load_config(cfg)

    def test_supervisor_values_typed_by_field_default(self, tmp_path):
        cfg = write_config(tmp_path, "[datasets.x]\npath = x.csv\n[supervisor]\n"
                                     "generations = 7\np_crossover = 1\n")
        sup = load_config(cfg).supervisor
        assert sup.generations == 7 and type(sup.generations) is int
        assert sup.p_crossover == 1.0 and type(sup.p_crossover) is float
        cfg = write_config(tmp_path, "[datasets.x]\npath = x.csv\n"
                                     "[supervisor]\ngenerations = 7.5\n")
        with pytest.raises(ValueError):
            load_config(cfg)

    def test_label_column_by_name(self, tmp_path):
        cfg = write_config(tmp_path, "[datasets.x]\npath = x.csv\nlabel_column = klass\n")
        spec = load_config(cfg)
        assert spec.datasets[0].label_column == "klass"
        cfg = write_config(tmp_path, "[datasets.x]\npath = x.csv\nlabel_column = -2\n")
        assert load_config(cfg).datasets[0].label_column == -2

    def test_missing_file_and_missing_sections(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.ini")
        cfg = write_config(tmp_path, "[supervisor]\ngenerations = 5\n")
        with pytest.raises(ValueError, match="datasets"):
            load_config(cfg)
        cfg2 = write_config(tmp_path, "[datasets.x]\nlabel_column = 3\n")
        with pytest.raises(ValueError, match="path"):
            load_config(cfg2)


class TestDatasetName:
    """A dataset's name is the directory its reports go to under out_dir,
    so it must be one path component."""

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "/abs", "a/"])
    def test_name_that_is_not_one_component_rejected(self, name):
        with pytest.raises(ValueError, match=f"^dataset name {re.escape(repr(name))} "
                                             "is not one path component$"):
            DatasetConfig(name=name, path="x.csv")

    @pytest.mark.parametrize("name", ["alpha", "a.b", "...", ".hidden", "a b"])
    def test_plain_names_accepted(self, name):
        assert DatasetConfig(name=name, path="x.csv").name == name

    @pytest.mark.parametrize("second", ["Alpha", "ALPHA", "alpha"])
    def test_names_equal_ignoring_case_rejected(self, second):
        datasets = (DatasetConfig("alpha", "a.csv"), DatasetConfig("beta", "b.csv"),
                    DatasetConfig(second, "c.csv"))
        with pytest.raises(ValueError, match=f"^dataset names 'alpha' and '{second}' "
                                             "are equal ignoring case$"):
            ExperimentSpec(datasets=datasets)


class TestSpecValidation:
    @pytest.mark.parametrize("changes, match", [
        ({"runs": 0}, "at least 1 run"),
        ({"report_repeats": ()}, "reporting protocol"),
        ({"cv_folds": 1}, "at least 2 folds"),
        ({"search_repeats": 0}, "at least 1 repeat"),
        ({"report_repeats": (10, 0)}, "at least 1 repeat"),
        ({"master_seed": -1}, "non-negative"),
    ], ids=["runs", "no-report", "folds", "search-repeats", "report-repeat",
            "master-seed"])
    def test_unrunnable_spec_rejected_at_construction(self, changes, match):
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(datasets=(), **changes)


class TestRunSeeds:
    def test_per_run_seeds_are_master_plus_index(self, tiny_spec):
        assert [tiny_spec.run_seed(r) for r in range(3)] == [5, 6, 7]


class TestFullFeatureBaseline:
    def test_perfectly_separable_toy(self):
        d = Dataset.from_arrays("toy", [[0.0, 1.0], [0.1, 0.9], [1.0, 0.0],
                                        [0.9, 0.1]], [0, 0, 1, 1])
        assert full_feature_baseline(d, CvProtocol(folds=2, base_seed=0)) == 1.0

    def test_equals_fitness_of_all_ones_mask(self, small_dataset):
        proto = CvProtocol(folds=5, repeats=2, base_seed=3)
        ev = FitnessEvaluator(small_dataset, proto)
        assert full_feature_baseline(small_dataset, proto) == ev.fitness(
            FeatureMask.ones(small_dataset.n_features))


class TestRunExperiment:
    def test_reports_files_and_consistency(self, tiny_spec, tmp_path):
        reports = run_experiment(tiny_spec)
        assert len(reports) == 2
        out = tmp_path / "out"
        assert (out / "summary.csv").exists()
        for report in reports:
            name = report["dataset"]
            assert (out / name / "report.json").exists()
            assert (out / name / "history.csv").exists()
            with open(out / name / "timings.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["run", "wall_time_seconds", "heuristics_seconds",
                               "fitness_seconds", "ga_seconds", "report_seconds"]
            assert [row[0] for row in rows[1:]] == ["0", "1"]
            assert all(float(t) >= 0 for row in rows[1:] for t in row[1:])
            assert "seconds" not in (out / name / "report.json").read_text()
            verify_report(report)
            assert len(report["runs"]) == 2
            for label in ("2x3", "1x3"):
                agg = report["aggregate"][label]
                accs = [r["accuracy"][label] for r in report["runs"]]
                assert agg["best"] == max(accs)
                assert agg["mean"] == sum(accs) / len(accs)
            # round trip through the file
            loaded = json.loads((out / name / "report.json").read_text())
            assert loaded == report

    def test_single_run_best_equals_mean(self, tiny_spec):
        import dataclasses
        spec = dataclasses.replace(tiny_spec, runs=1,
                                   datasets=tiny_spec.datasets[:1])
        report = run_experiment(spec)[0]
        agg = report["aggregate"]["2x3"]
        assert agg["best"] == agg["mean"]
        assert agg["best_m"] == agg["mean_m"]

    def test_byte_identical_reports_for_identical_specs(self, tiny_spec, tmp_path):
        import dataclasses
        spec1 = dataclasses.replace(tiny_spec, out_dir=str(tmp_path / "o1"))
        spec2 = dataclasses.replace(tiny_spec, out_dir=str(tmp_path / "o2"))
        run_experiment(spec1)
        run_experiment(spec2)
        for name in ("alpha", "beta"):
            a = (tmp_path / "o1" / name / "report.json").read_bytes()
            b = (tmp_path / "o2" / name / "report.json").read_bytes()
            assert a == b

    def test_failed_dataset_does_not_abort_others(self, tiny_spec, tmp_path):
        import dataclasses
        spec = dataclasses.replace(
            tiny_spec,
            datasets=(DatasetConfig(name="ghost", path=str(tmp_path / "ghost.csv")),)
            + tiny_spec.datasets[1:])
        reports = run_experiment(spec)
        assert "error" in reports[0]
        assert "error" not in reports[1]
        assert "FAILED" in summary_text(reports, spec)

    def test_verify_report_catches_tampering(self, tiny_spec):
        report = run_experiment(tiny_spec)[0]
        verify_report(report)
        report["aggregate"]["2x3"]["best"] += 0.01
        with pytest.raises(ValueError, match="inconsistent"):
            verify_report(report)

    def test_incumbent_history_non_decreasing_in_reports(self, tiny_spec):
        for report in run_experiment(tiny_spec):
            for run in report["runs"]:
                fits = [row[2] for row in run["history"]]
                assert all(b >= a for a, b in zip(fits, fits[1:]))


def output_bytes(out: Path) -> dict[str, bytes]:
    """Every output file but timings.csv, by its path under ``out``."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.*"))
            if p.name != "timings.csv"}


class TestWithoutScipy:
    """scipy is needed only by the tests' oracles: hhfs neither imports it
    nor needs it to run an experiment."""

    @staticmethod
    def python(code: str) -> subprocess.CompletedProcess:
        src = Path(experiment.__file__).parents[1]
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)

    def test_importing_hhfs_loads_no_scipy_module(self):
        proc = self.python("import sys, hhfs\n"
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_experiment_runs_with_scipy_blocked(self, tiny_spec, tmp_path):
        # a tie-heavy dataset too, so the exact distances run for every row
        levels = tmp_path / "levels.csv"
        rows = np.random.default_rng(8).integers(0, 3, size=(30, 4))
        levels.write_text("".join(f"{a},{b},{c},{y}\n" for a, b, c, y in rows))
        spec = dataclasses.replace(
            tiny_spec, datasets=(*tiny_spec.datasets, DatasetConfig("levels", str(levels))))
        without, with_scipy = tmp_path / "without", tmp_path / "with"
        proc = self.python(f"""
import sys
sys.modules["scipy"] = None  # import scipy now raises ImportError
from hhfs.experiment import DatasetConfig, ExperimentSpec, run_experiment
from hhfs.supervisor import SupervisorConfig
run_experiment({dataclasses.replace(spec, out_dir=str(without))!r})
""")
        assert (proc.returncode, proc.stderr) == (0, "")
        run_experiment(dataclasses.replace(spec, out_dir=str(with_scipy)))
        assert len(output_bytes(without)) == 7  # three report.json and history.csv, a summary
        assert output_bytes(without) == output_bytes(with_scipy)


def threads_function(lib, verb: str):
    """The ``get`` or ``set`` thread-count function of an OpenBLAS."""
    return next(getattr(lib, name) for name in (
        f"scipy_openblas_{verb}_num_threads64_", f"scipy_openblas_{verb}_num_threads",
        f"openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads")
        if hasattr(lib, name))


def blas_threads() -> list[int]:
    """The thread count of every OpenBLAS this process has loaded."""
    counts = []
    for lib in cores.loaded_openblas():
        get = threads_function(lib, "get")
        get.argtypes, get.restype = [], ctypes.c_int
        counts.append(get())
    return counts


def set_blas_threads(counts: list[int]) -> None:
    for lib, count in zip(cores.loaded_openblas(), counts):
        put = threads_function(lib, "set")
        put.argtypes, put.restype = [ctypes.c_int], None
        put(count)


def _dataset_in_daemon(args):
    dataset, spec = args
    cores.usable_cores = lambda: 2
    return experiment.run_dataset(dataset, spec)[0]


class TestRunPool:
    """A dataset's runs mapped over forked workers give the bytes one
    process gives, and leave no process behind."""

    def test_one_and_two_workers_write_the_same_bytes(self, monkeypatch, tiny_spec,
                                                      tmp_path):
        outputs = []
        for count in (1, 2):
            on_cores(monkeypatch, count)
            out = tmp_path / f"cores{count}"
            run_experiment(dataclasses.replace(tiny_spec, runs=3, out_dir=str(out)))
            assert multiprocessing.active_children() == []
            outputs.append(output_bytes(out))
        assert len(outputs[0]) == 5  # two report.json, two history.csv, summary.csv
        assert outputs[1] == outputs[0]

    @needs_fork
    def test_golden_spec_at_two_workers(self, monkeypatch, tmp_path):
        from test_golden import GOLDEN, golden_bytes
        on_cores(monkeypatch, 2)
        assert golden_bytes(tmp_path) == GOLDEN.read_bytes()
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_worker_error_becomes_the_dataset_error(self, monkeypatch, tiny_spec):
        parent, supervise = os.getpid(), experiment.run_supervisor

        def failing(dataset, cfg, *args, **kwargs):
            if cfg.seed == tiny_spec.run_seed(1) and os.getpid() != parent:
                raise ValueError("run 1 failed in a worker")
            return supervise(dataset, cfg, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_supervisor", failing)
        on_cores(monkeypatch, 2)
        reports = run_experiment(dataclasses.replace(tiny_spec, runs=3))
        assert reports == [{"dataset": name, "error": "run 1 failed in a worker"}
                           for name in ("alpha", "beta")]
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_interrupt_mid_run_propagates_and_leaves_no_process(self, monkeypatch,
                                                                tiny_spec):
        parent, supervise = os.getpid(), experiment.run_supervisor

        def interrupting(dataset, cfg, *args, **kwargs):
            if cfg.seed == tiny_spec.run_seed(1) and os.getpid() != parent:
                os.kill(parent, signal.SIGINT)  # Ctrl-C reaching the parent
                time.sleep(60)  # until the parent terminates this worker
            return supervise(dataset, cfg, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_supervisor", interrupting)
        on_cores(monkeypatch, 2)
        # Python's own Ctrl-C handler, which a process started with SIGINT
        # ignored (a background job) does not get
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_experiment(dataclasses.replace(tiny_spec, runs=4))
        finally:
            signal.signal(signal.SIGINT, handler)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_pool_initializer_runs_blas_on_one_thread(self, monkeypatch):
        before = blas_threads()
        if not before:
            pytest.skip("no OpenBLAS loaded")
        set_blas_threads([2] * len(before))  # so that the workers' one differs
        on_cores(monkeypatch, 2)
        try:
            inside = list(cores.fork_map(lambda _: blas_threads(), [0, 1]))[0]
            with multiprocessing.get_context("fork").Pool(1) as pool:
                inherited = pool.apply_async(blas_threads).get(timeout=60)
        finally:
            set_blas_threads(before)
        assert inside == [1] * len(before)
        assert inherited == [2] * len(before)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_runs_in_process_inside_a_pool_worker(self, monkeypatch, tiny_spec):
        # a daemonic pool worker may not fork; run_dataset must not try
        dataset = tiny_spec.datasets[0].load()
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply_async(_dataset_in_daemon,
                                      ((dataset, tiny_spec),)).get(timeout=60)
        on_cores(monkeypatch, 1)
        assert inside == experiment.run_dataset(dataset, tiny_spec)[0]

    def test_reporting_cv_repeats_per_run_dataset(self, monkeypatch, tiny_spec):
        # 2x3 and 1x3 share folds: the baseline and each run's final mask
        # are scored at 2 repeats, not 2 + 1, besides each run's search
        calls = []
        folds = evaluation.stratified_folds

        def counting(*args):
            calls.append(args)
            return folds(*args)

        monkeypatch.setattr(evaluation, "stratified_folds", counting)
        on_cores(monkeypatch, 1)
        spec = dataclasses.replace(tiny_spec, runs=3)
        experiment.run_dataset(spec.datasets[0].load(), spec)
        assert spec.report_repeats == (2, 1)
        assert len(calls) == 2 * (1 + spec.runs) + spec.search_repeats * spec.runs


class TestRenderComparison:
    def make_report(self, best_10x10, best_5x10):
        return {
            "dataset": "ionosphere",
            "aggregate": {
                "10x10": {"best": best_10x10, "best_m": 12,
                          "mean": best_10x10 - 0.01, "mean_m": 14.5, "best_run": 0},
                "5x10": {"best": best_5x10, "best_m": 12,
                         "mean": best_5x10 - 0.01, "mean_m": 14.5, "best_run": 0},
            },
        }

    def test_engine_marked_when_row_max(self):
        text = render_comparison(self.make_report(0.9433, 0.9419))
        lines = text.splitlines()
        ten_fold = [ln for ln in lines if "this engine (10x10)" in ln][0]
        assert "94.33" in ten_fold and ten_fold.rstrip().endswith("*")

    def test_engine_not_marked_against_stronger_reference(self):
        text = render_comparison(self.make_report(0.9433, 0.9419))
        five_fold_engine = [ln for ln in text.splitlines()
                            if "this engine (5x10)" in ln][0]
        assert not five_fold_engine.rstrip().endswith("*")
        reference = [ln for ln in text.splitlines() if "DF-TS3-1NN" in ln][0]
        assert "95.01" in reference and reference.rstrip().endswith("*")

    def test_single_method_is_trivially_row_max(self):
        report = {"dataset": "nowhere",
                  "aggregate": {"10x10": {"best": 0.5, "best_m": 1,
                                          "mean": 0.5, "mean_m": 1, "best_run": 0}}}
        text = render_comparison(report)
        engine = [ln for ln in text.splitlines() if "this engine" in ln][0]
        assert engine.rstrip().endswith("*")

    def test_published_hhfs_row_per_protocol(self):
        report = self.make_report(0.9300, 0.9000)
        report["dataset"] = "sonar"
        lines = render_comparison(report).splitlines()
        published = [ln for ln in lines if "HHFS, published" in ln]
        assert [ln.split()[2] for ln in published] == ["(10x10)", "(5x10)"]
        assert "92.79" in published[0] and not published[0].endswith("*")
        engine = [ln for ln in lines if "this engine (10x10)" in ln][0]
        assert engine.endswith("*")  # 93.00 beats the paper's 92.79
        # 5x10: the paper's 92.12 beats the engine's 90.00 and DF-TS3's 90.63
        assert "92.12" in published[1] and published[1].endswith("*")
        assert sum(ln.endswith("*") for ln in lines) == 2

    def test_fraction_rendered_as_percent(self):
        text = render_comparison(self.make_report(0.9433, 0.9419))
        assert "94.33" in text
