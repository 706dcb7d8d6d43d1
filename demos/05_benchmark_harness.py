"""The experiment harness end to end: multi-run benchmark, JSON report,
aggregation, and the comparison table against published baselines.

Uses the real UCI breast-cancer dataset bundled with scikit-learn when
available (falling back to synthetic data), with a reduced search budget
so the demo finishes in seconds. The full five-dataset reproduction runs
through the CLI instead:

    python3 scripts/fetch_uci.py          # needs network
    hhfs run --config configs/benchmark.ini

Run from the repository root: python3 demos/05_benchmark_harness.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from hhfs.experiment import (DatasetConfig, ExperimentSpec, render_comparison,
                             run_experiment, verify_report)
from hhfs.supervisor import SupervisorConfig

try:
    from sklearn.datasets import load_breast_cancer
    data = load_breast_cancer()
    X, labels = data.data, data.target
    source = "UCI breast-cancer (bundled with scikit-learn)"
except ImportError:
    rng = np.random.default_rng(0)
    labels = rng.permutation(np.array([0, 1] * 100))
    X = rng.normal(size=(200, 12))
    X[:, :4] += labels[:, None] * np.array([1.8, 1.5, 1.2, 0.9])
    source = "synthetic fallback"

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    csv_path = workdir / "wdbc.csv"
    with open(csv_path, "w") as fh:
        for x, y in zip(X, labels):
            fh.write(",".join(repr(float(v)) for v in x) + f",{int(y)}\n")
    print(f"dataset: {source} -> {csv_path}")

    spec = ExperimentSpec(
        datasets=(DatasetConfig(name="wdbc", path=str(csv_path)),),
        runs=3,
        supervisor=SupervisorConfig(population_size=10, generations=15),
        cv_folds=10,
        search_repeats=1,
        report_repeats=(10, 5),
        master_seed=1,
        out_dir=str(workdir / "results"),
    )

    reports = run_experiment(spec, progress=print)
    report = reports[0]
    verify_report(report)  # aggregates must be recomputable from the runs

    agg = report["aggregate"]["10x10"]
    print(f"\nbaseline (all {report['n_features']} features): "
          f"{report['baseline']['10x10']:.4f}")
    print(f"best of {spec.runs} runs: {agg['best']:.4f} with m={agg['best_m']}; "
          f"mean {agg['mean']:.4f}, mean m {agg['mean_m']:.1f}")

    out = Path(spec.out_dir) / "wdbc"
    print(f"\nfiles written: {sorted(p.name for p in out.iterdir())}")
    loaded = json.loads((out / "report.json").read_text())
    print("report round-trips through JSON:", loaded == report)

print("\ncomparison table (no published reference rows exist for this")
print("dataset, so the engine is trivially the row maximum):")
print(render_comparison(report))
