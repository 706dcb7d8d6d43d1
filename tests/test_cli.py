import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hhfs import experiment
from hhfs.cli import _apply_overrides, build_parser, main
from hhfs.correlation import build_cache, dump_cache_csv
from hhfs.dataset import load_csv, min_max_normalize
from hhfs.evaluation import CvProtocol
from hhfs.experiment import full_feature_baseline, load_config
from hhfs.supervisor import SupervisorConfig
from test_experiment import write_dataset_csv


@pytest.fixture
def project(tmp_path):
    """Config file plus one small dataset CSV, ready for the CLI."""
    csv_path = write_dataset_csv(tmp_path / "alpha.csv", seed=4)
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(f"""
[experiment]
runs = 2
master_seed = 3
out_dir = {tmp_path / 'out'}

[supervisor]
population_size = 4
generations = 2

[cv]
folds = 3
search_repeats = 1
report_repeats = 2, 1

[datasets.alpha]
path = {csv_path}
""")
    return tmp_path, cfg


def test_explain_llh_lists_all_sixteen(capsys):
    assert main(["explain-llh"]) == 0
    out = capsys.readouterr().out
    for name in ("SDHC", "NAHC", "DBHC", "RMHC", "SWPD", "DIMM", "HYPM", "MUTN"):
        assert name in out
    assert len([ln for ln in out.splitlines() if ln and ln[0].isdigit()]) == 16


def test_run_writes_reports_and_summary(project, capsys):
    tmp_path, cfg = project
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out
    report_path = tmp_path / "out" / "alpha" / "report.json"
    assert report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["config"]["runs"] == 2
    assert (tmp_path / "out" / "summary.csv").exists()


def test_run_overrides_take_effect(project):
    tmp_path, cfg = project
    assert main(["run", "--config", str(cfg), "--runs", "1",
                 "--generations", "1", "--seed", "9",
                 "--out", str(tmp_path / "o2"),
                 "--report-repeats", "1"]) == 0
    report = json.loads((tmp_path / "o2" / "alpha" / "report.json").read_text())
    assert report["config"]["runs"] == 1
    assert report["config"]["master_seed"] == 9
    assert report["config"]["supervisor"]["generations"] == 1
    assert list(report["aggregate"].keys()) == ["1x3"]


def test_run_with_one_gene_chromosomes(project):
    tmp_path, cfg = project
    assert main(["run", "--config", str(cfg), "--nllh", "1"]) == 0
    report = json.loads((tmp_path / "out" / "alpha" / "report.json").read_text())
    assert report["config"]["supervisor"]["nllh"] == 1


def test_every_supervisor_flag_overrides(project):
    tmp_path, cfg = project
    args = build_parser().parse_args([
        "run", "--config", str(cfg), "--population-size", "5",
        "--generations", "3", "--p-crossover", "0.5", "--p-mutation", "0.2",
        "--nllh", "4", "--elitism", "2", "--mutn-rate", "0.3",
        "--runs", "4", "--seed", "8", "--out", str(tmp_path / "o3"),
        "--cv-folds", "4", "--search-repeats", "2", "--report-repeats", "3, 2"])
    spec = _apply_overrides(load_config(cfg), args)
    assert spec == dataclasses.replace(
        load_config(cfg), runs=4, master_seed=8, out_dir=str(tmp_path / "o3"),
        cv_folds=4, search_repeats=2, report_repeats=(3, 2),
        supervisor=SupervisorConfig(
            population_size=5, generations=3, p_crossover=0.5, p_mutation=0.2,
            nllh=4, elitism=2, mutn_rate=0.3))


def test_baseline_cv_folds_and_seed_take_effect(project, capsys):
    tmp_path, cfg = project
    assert main(["baseline", "--config", str(cfg), "--dataset", "alpha",
                 "--report-repeats", "2", "--cv-folds", "4", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    dataset = min_max_normalize(load_csv(tmp_path / "alpha.csv", name="alpha"))
    acc = full_feature_baseline(dataset, CvProtocol(folds=4, repeats=2, base_seed=7))
    assert f"(2x4-fold CV, seed 7): {acc:.4f}" in out


def test_readme_synopsis_lists_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis = {cmd.split()[0]: cmd for cmd in block.split("hhfs ") if cmd.strip()}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "baseline"):
        options = {s for a in subparsers.choices[command]._actions
                   for s in a.option_strings} - {"-h", "--help"}
        missing = {s for s in options  # whole option strings, not prefixes
                   if not re.search(re.escape(s) + r"(?![\w-])", synopsis[command])}
        assert not missing, f"README's `hhfs {command}` synopsis lacks {missing}"


def test_bad_config_value_is_one_line_and_status_2(project):
    tmp_path, cfg = project
    cfg.write_text(cfg.read_text().replace("generations = 2", "generations = 7.5"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "hhfs.cli", "run", "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (f"hhfs: error: {cfg}: [supervisor] generations = '7.5' "
                           "is not a valid int\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "{tmp}/absent.ini"], "config file not found: {tmp}/absent.ini"),
    (["run", "--config", "{cfg}", "--population-size", "1"],
     "population size must be at least 2"),
    (["baseline", "--config", "{cfg}", "--dataset", "alpha", "--report-repeats", "0"],
     "need at least 1 repeat"),
    (["baseline", "--config", "{tmp}/absent.ini", "--dataset", "alpha"],
     "config file not found: {tmp}/absent.ini"),
    (["baseline", "--config", "{cfg}", "--dataset", "ghost_file"], "ghost.csv"),
    (["baseline", "--config", "{cfg}", "--dataset", "one_class"],
     "{tmp}/one_class.csv: need at least 2 classes, found 1"),
    (["baseline", "--config", "{cfg}", "--dataset", "singletons", "--report-repeats", "10"],
     "singletons: 10x3 CV puts all 3 instances in one fold"),
    (["run", "--config", "{cfg}", "--mutn-rate", "0"], "mutn_rate must lie in (0, 1)"),
    (["run", "--config", "{cfg}", "--dataset", "ghost_file", "--dump-cache"], "ghost.csv"),
    (["run", "--config", "{tmp}/duplicate_key.ini"],
     "{tmp}/duplicate_key.ini: While reading from '{tmp}/duplicate_key.ini' [line 3]: "
     "option 'runs' in section 'experiment' already exists"),
    (["run", "--config", "{tmp}/duplicate_section.ini"],
     "section 'experiment' already exists"),
    (["run", "--config", "{tmp}/no_section.ini"],
     "{tmp}/no_section.ini: File contains no section headers."),
    (["run", "--config", "{tmp}/percent.ini"],
     "{tmp}/percent.ini: '%' must be followed by '%' or '(', found: '%ults"),
    (["baseline", "--config", "{tmp}/default.ini", "--dataset", "alpha"],
     "{tmp}/default.ini: unknown section [DEFAULT]"),
    (["run", "--config", "{cfg}", "--out", "{tmp}/one_class.csv"],
     "File exists: '{tmp}/one_class.csv'"),
])
def test_input_errors_exit_2_with_one_line(project, capsys, argv, message):
    tmp_path, cfg = project
    (tmp_path / "one_class.csv").write_text("1,2,A\n3,4,A\n")
    (tmp_path / "singletons.csv").write_text("1,2,A\n3,4,B\n5,6,C\n")
    good = cfg.read_text()
    for name, text in {"duplicate_key": "[experiment]\nruns = 2\nruns = 3\n",
                       "duplicate_section": "[experiment]\nruns = 2\n[experiment]\n",
                       "no_section": "runs = 2\n" + good,
                       "percent": good.replace("out_dir = ", "out_dir = res%ults"),
                       "default": "[DEFAULT]\ngenerations = 3\n" + good}.items():
        (tmp_path / f"{name}.ini").write_text(text)
    cfg.write_text(good
                   + f"\n[datasets.ghost_file]\npath = {tmp_path / 'ghost.csv'}\n"
                   + f"\n[datasets.one_class]\npath = {tmp_path / 'one_class.csv'}\n"
                   + f"\n[datasets.singletons]\npath = {tmp_path / 'singletons.csv'}\n")
    fill = dict(tmp=tmp_path, cfg=cfg)
    if "--dump-cache" in argv:  # the dump is inside the run: the dataset fails alone
        assert main([a.format(**fill) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("dataset ghost_file:\n  FAILED: ")
        assert message.format(**fill) in out.splitlines()[1]
        assert err == "\npartial results: ghost_file failed\n"
        return
    with pytest.raises(SystemExit) as exit_info:
        main([a.format(**fill) for a in argv])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # no dataset was loaded or run
    assert err.startswith("hhfs: error: ") and err.count("\n") == 1
    assert message.format(**fill) in err


@pytest.mark.parametrize("edit, flags, message", [
    (("runs = 2", "runs = 0"), [], "{cfg}: need at least 1 run"),
    (("population_size = 4", "population_size = 1"), [],
     "{cfg}: population size must be at least 2"),
    (("folds = 3", "folds = 1"), [], "{cfg}: need at least 2 folds"),
    (("report_repeats = 2, 1", "report_repeats = 2, 1, 2"), [],
     "{cfg}: report_repeats lists 2 twice"),
    (("[datasets.alpha]", "[datasets.a/b]"), [],
     "{cfg}: dataset name 'a/b' is not one path component"),
    (("", ""), ["--population-size", "1"], "population size must be at least 2"),
    (("", ""), ["--report-repeats", "1,1"], "report_repeats lists 1 twice"),
], ids=["runs", "population", "folds", "report-repeats", "name", "flag", "flag-repeats"])
def test_spec_errors_name_the_config_only_when_it_holds_the_value(project, capsys, edit,
                                                                 flags, message):
    _, cfg = project
    cfg.write_text(cfg.read_text().replace(*edit))
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(cfg), *flags])
    assert exit_info.value.code == 2
    assert capsys.readouterr() == ("", f"hhfs: error: {message.format(cfg=cfg)}\n")


def test_run_unknown_dataset_exits(project, capsys):
    _, cfg = project
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(cfg), "--dataset", "ghost", "--dataset", "alpha"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == ("hhfs: error: unknown dataset(s): ghost; "
                                       "the config defines: alpha\n")


@pytest.mark.parametrize("command, flags", [
    ("run", ["--runs", "1", "--generations", "1"]), ("baseline", [])])
def test_dataset_is_picked_ignoring_case(project, capsys, command, flags):
    tmp_path, cfg = project
    assert main([command, "--config", str(cfg), "--dataset", "ALPHA", *flags]) == 0
    out = capsys.readouterr().out
    if command == "run":  # reports go under the config's name
        assert out.startswith("dataset alpha:\n")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["alpha",
                                                                         "summary.csv"]
    else:
        assert out.startswith("alpha: 24 instances, 5 features, 2 classes\n")


def test_run_dump_cache(project):
    tmp_path, cfg = project
    assert main(["run", "--config", str(cfg), "--runs", "1",
                 "--generations", "1", "--dump-cache"]) == 0
    assert (tmp_path / "out" / "alpha_correlation_cache.csv").exists()


def test_dump_cache_loads_each_dataset_once_and_a_failing_one_alone_fails(project,
                                                                          monkeypatch):
    tmp_path, cfg = project
    beta = write_dataset_csv(tmp_path / "beta.csv", seed=5)
    cfg.write_text(cfg.read_text() + f"\n[datasets.ghost]\npath = {tmp_path / 'ghost.csv'}\n"
                   + f"\n[datasets.beta]\npath = {beta}\n")
    loads = []

    def counting(path, **kwargs):
        loads.append(Path(path).name)
        return load_csv(path, **kwargs)

    monkeypatch.setattr(experiment, "load_csv", counting)
    assert main(["run", "--config", str(cfg), "--runs", "1", "--generations", "1",
                 "--dump-cache"]) == 1
    assert loads == ["alpha.csv", "ghost.csv", "beta.csv"]
    out = tmp_path / "out"
    for name in ("alpha", "beta"):
        dataset = min_max_normalize(load_csv(tmp_path / f"{name}.csv", name=name))
        dump_cache_csv(build_cache(dataset), tmp_path / f"{name}.expected.csv")
        assert ((out / f"{name}_correlation_cache.csv").read_bytes()
                == (tmp_path / f"{name}.expected.csv").read_bytes())
        assert (out / name / "report.json").is_file()
    assert not (out / "ghost_correlation_cache.csv").exists()
    assert not (out / "ghost").exists()


def test_baseline_command(project, capsys):
    _, cfg = project
    assert main(["baseline", "--config", str(cfg), "--dataset", "alpha"]) == 0
    out = capsys.readouterr().out
    assert "full-feature 1NN accuracy" in out
    assert "alpha" in out


def test_baseline_prints_the_report_baseline(project, capsys):
    tmp_path, cfg = project
    assert main(["run", "--config", str(cfg), "--runs", "1", "--generations", "1"]) == 0
    report = json.loads((tmp_path / "out" / "alpha" / "report.json").read_text())
    capsys.readouterr()
    assert main(["baseline", "--config", str(cfg), "--dataset", "alpha"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines == [f"full-feature 1NN accuracy ({label}-fold CV, seed 3): {acc:.4f}"
                     for label, acc in report["baseline"].items()]


@pytest.mark.parametrize("name", ["..", "../escaped"])
@pytest.mark.parametrize("dump_cache", [False, True])
def test_dataset_name_cannot_escape_the_output_directory(project, capsys, name, dump_cache):
    tmp_path, cfg = project
    cfg.write_text(cfg.read_text().replace("[datasets.alpha]", f"[datasets.{name}]"))
    before = sorted(tmp_path.rglob("*"))
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "deep" / "out")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--dump-cache"] * dump_cache)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"hhfs: error: {cfg}: dataset name {name!r} is not one path component\n"
    assert sorted(tmp_path.rglob("*")) == before  # nothing written, in --out or out of it


@pytest.mark.parametrize("command", ["run", "baseline"])
def test_dataset_names_equal_ignoring_case_are_rejected(project, capsys, command):
    # the CLI picks datasets by name ignoring case: both would be "alpha"
    tmp_path, cfg = project
    beta = write_dataset_csv(tmp_path / "beta.csv", seed=5)
    cfg.write_text(cfg.read_text().replace("[datasets.alpha]", "[datasets.Alpha]")
                   + f"\n[datasets.alpha]\npath = {beta}\n")
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", str(cfg), "--dataset", "Alpha"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"hhfs: error: {cfg}: dataset names 'Alpha' and 'alpha' are equal "
                   "ignoring case\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_baseline_unknown_dataset(project, capsys):
    _, cfg = project
    with pytest.raises(SystemExit) as exit_info:
        main(["baseline", "--config", str(cfg), "--dataset", "ghost"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == ("hhfs: error: unknown dataset(s): ghost; "
                                       "the config defines: alpha\n")


def test_compare_command(project, capsys):
    tmp_path, cfg = project
    main(["run", "--config", str(cfg)])
    capsys.readouterr()
    report_path = tmp_path / "out" / "alpha" / "report.json"
    assert main(["compare", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "this engine" in out
    assert "*" in out


def _sonar_report(best: float) -> dict:
    runs = [{"run": 0, "m": 20, "accuracy": {"10x10": 0.9}}]
    return {"dataset": "sonar", "runs": runs,
            "aggregate": {"10x10": {"best": best, "best_percent": best * 100.0,
                                   "best_run": 0, "best_m": 20, "mean": 0.9,
                                   "mean_percent": 90.0, "mean_m": 20.0}}}


DIRECTORY = object()


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory: '{path}'"),
    (DIRECTORY, "Is a directory: '{path}'"),
    ('{"dataset": "sonar", "runs": [', "{path}: Expecting value: line 1 column 31"),
    (json.dumps(_sonar_report(0.95)),
     "{path}: report aggregate for sonar is inconsistent with its per-run records"),
    ("[]", "{path}: not a report: expected a JSON object"),
    ('{"dataset": "sonar"}', "{path}: not a report: no runs, aggregate"),
    (json.dumps({**_sonar_report(0.9), "runs": [{}]}),
     "{path}: not a report: run records do not fit the aggregate (KeyError: 'accuracy')"),
    (json.dumps({**_sonar_report(0.9), "aggregate": []}),
     "{path}: not a report: aggregate is not an object"),
    (json.dumps({**_sonar_report(0.9), "runs": 3}),
     "{path}: not a report: runs is not a non-empty list"),
    ('{"dataset": "sonar", "runs": [], "aggregate": {}}',
     "{path}: not a report: runs is not a non-empty list"),
    ('{"dataset": "sonar", "runs": [{"run": 0, "m": 3, "accuracy": {}}], "aggregate": {}}',
     "{path}: not a report: aggregate is empty"),
    (json.dumps({**_sonar_report(0.9), "dataset": 5}),
     "{path}: not a report: dataset is not a string"),
    # run gives a failed dataset a summary.csv row, never a report.json
    ('{"dataset": "x", "error": "y"}', "{path}: not a report: no runs, aggregate"),
], ids=["missing", "directory", "truncated", "inconsistent", "not-an-object", "no-aggregate",
        "run-shape", "aggregate-not-object", "runs-not-list", "no-runs",
        "empty-aggregate", "dataset-not-string", "failed-dataset-record"])
def test_compare_bad_report_exits_2_with_one_line(tmp_path, capsys, content, message):
    good, path = tmp_path / "good.json", tmp_path / "report.json"
    good.write_text(json.dumps(_sonar_report(0.9)))
    if content is DIRECTORY:
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exit_info:
        main(["compare", "--report", str(good), "--report", str(path)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # nothing is rendered before every report has loaded
    assert err.startswith("hhfs: error: ") and err.count("\n") == 1
    assert message.format(path=path) in err


def test_run_records_a_column_whose_range_overflows(project, capsys):
    # every cell is finite, but column 1's max - min is not (warnings are errors)
    tmp_path, cfg = project
    rows = [f"{i % 7}.5,{(-1e308, 1e308, 0.0)[i % 3]!r},{'ab'[i % 2]}" for i in range(40)]
    (tmp_path / "wide.csv").write_text("\n".join(rows) + "\n")
    cfg.write_text(cfg.read_text() + f"\n[datasets.wide]\npath = {tmp_path / 'wide.csv'}\n")
    assert main(["run", "--config", str(cfg), "--dataset", "wide"]) == 1
    out = capsys.readouterr().out
    assert ("\nwide           FAILED: wide: feature column 1 has a range too wide "
            "for float64 to hold\n") in out
    assert not (tmp_path / "out" / "wide").exists()


# the message numpy gives when huge's one-thread n x n work cannot be allocated
TOO_LARGE = ("Unable to allocate 13.4 GiB for an array with shape (1, 60000, 60000) "
             "and data type float32")


def main_with_huge_in_4_gib(project, args):
    """``main(args)`` in a child process limited to 4 GiB of address space
    (set in it, so on it alone), after adding the 60,000-row dataset huge
    before alpha to the project's config: the finished process. Huge's
    n x n work matrix (13.4 GiB) cannot be allocated there."""
    tmp_path, cfg = project
    rows = [f"{i % 7}.5,{i % 11}.25,{i % 2}" for i in range(60_000)]
    (tmp_path / "huge.csv").write_text("\n".join(rows) + "\n")
    cfg.write_text(cfg.read_text().replace(
        "[datasets.alpha]", f"[datasets.huge]\npath = {tmp_path / 'huge.csv'}\n\n[datasets.alpha]"))
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32)); "
            f"from hhfs.cli import main; sys.exit(main({[*args, '--config', str(cfg)]!r}))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.skipif(sys.platform != "linux", reason="needs an enforced RLIMIT_AS")
def test_run_records_a_dataset_too_large_for_memory(project):
    # huge is recorded as failed, and alpha still runs
    proc = main_with_huge_in_4_gib(project, ["run"])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"\nhuge           FAILED: {TOO_LARGE}\n" in proc.stdout
    out = project[0] / "out"
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1] == "huge,,,,,,"
    assert [row.split(",")[0] for row in summary[2:]] == ["alpha", "alpha"]
    assert (out / "alpha" / "report.json").is_file()


@pytest.mark.skipif(sys.platform != "linux", reason="needs an enforced RLIMIT_AS")
def test_baseline_reports_a_dataset_too_large_for_memory(project):
    # baseline has no run to record it in: one error line, status 2
    proc = main_with_huge_in_4_gib(project, ["baseline", "--dataset", "huge"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"hhfs: error: {TOO_LARGE}\n"


def test_run_records_a_header_narrower_than_its_rows(project, capsys):
    # read as it stood, the header would make the third feature the label
    tmp_path, cfg = project
    path = tmp_path / "narrow.csv"
    rows = [f"{i % 5}.5,{i % 3}.25,{i % 4},{i % 2}" for i in range(40)]
    path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
    cfg.write_text(cfg.read_text() + f"\n[datasets.narrow]\npath = {path}\n"
                   "has_header = true\nlabel_column = label\n")
    assert main(["run", "--config", str(cfg), "--dataset", "narrow"]) == 1
    error = f"{path}: row 0 has 4 columns, expected 3 as in the header"
    assert f"\n{'narrow':<14} FAILED: {error}\n" in capsys.readouterr().out
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[1:] == ["narrow,,,,,,"]


def test_run_partial_failure_returns_nonzero(project, tmp_path):
    _, cfg = project
    body = cfg.read_text() + f"\n[datasets.ghost]\npath = {tmp_path / 'ghost.csv'}\n"
    cfg.write_text(body)
    assert main(["run", "--config", str(cfg)]) == 1


def test_run_records_a_dataset_whose_files_cannot_be_written(project, capsys):
    # a plain file where the first dataset's report directory goes
    tmp_path, cfg = project
    beta = write_dataset_csv(tmp_path / "beta.csv", seed=5)
    cfg.write_text(cfg.read_text() + f"\n[datasets.beta]\npath = {beta}\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "alpha").write_text("")
    assert main(["run", "--config", str(cfg), "--runs", "1", "--generations", "1"]) == 1
    out, err = capsys.readouterr()
    assert f"\n{'alpha':<14} FAILED: " in out and "File exists" in out
    assert err == "\npartial results: alpha failed\n"
    assert (tmp_path / "out" / "beta" / "report.json").exists()
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[1] == "alpha,,,,,,"
    assert [row.split(",")[0] for row in summary[2:]] == ["beta", "beta"]


def test_run_error_after_the_runs_is_one_line(project, capsys):
    tmp_path, cfg = project
    (tmp_path / "out" / "summary.csv").mkdir(parents=True)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(cfg), "--runs", "1", "--generations", "1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("hhfs: error: ") and err.count("\n") == 1
    assert "summary.csv" in err
    assert (tmp_path / "out" / "alpha" / "report.json").exists()


def test_failed_rerun_leaves_no_stale_outputs(project, capsys):
    # the first run's files would otherwise pass for the second's
    tmp_path, cfg = project
    argv = ["run", "--config", str(cfg), "--runs", "1", "--generations", "1"]
    assert main(argv) == 0
    report = tmp_path / "out" / "alpha" / "report.json"
    assert report.exists()
    csv_path = tmp_path / "alpha.csv"
    csv_path.write_text(csv_path.read_text().replace(",B\n", ",A\n"))  # one class
    capsys.readouterr()
    assert main(argv) == 1
    assert "FAILED: " in capsys.readouterr().out
    assert list((tmp_path / "out" / "alpha").iterdir()) == []
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[1:] == ["alpha,,,,,,"]
    with pytest.raises(SystemExit) as exit_info:
        main(["compare", "--report", str(report)])
    assert exit_info.value.code == 2
