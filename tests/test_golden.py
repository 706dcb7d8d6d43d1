"""Cross-version lock: a pinned synthetic experiment must reproduce the
committed ``tests/golden/report.json`` byte for byte.

The experiment makes 3 seeded supervisor runs of 20 generations on a
2-class and on a 6-class synthetic dataset, each written to CSV and loaded
through ``run_experiment``. The golden file holds both per-dataset
reports, keyed by dataset name. Any change to search behaviour, fitness
values or report layout changes these bytes. Such a change must be
deliberate: regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and record the reason in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from conftest import synthetic_dataset
from hhfs import evaluation, experiment
from hhfs.experiment import DatasetConfig, ExperimentSpec, run_experiment
from hhfs.supervisor import SupervisorConfig

GOLDEN = Path(__file__).resolve().parent / "golden" / "report.json"

DATASETS = {
    "two_class": dict(n_instances=90, n_features=14, n_informative=5,
                      class_count=2, seed=41),
    "six_class": dict(n_instances=96, n_features=12, n_informative=6,
                      class_count=6, seed=42),
}


def golden_bytes(workdir: Path) -> bytes:
    """Run the pinned experiment under ``workdir`` and return the golden
    document: every dataset's report.json, keyed by name."""
    entries = []
    for name, params in DATASETS.items():
        d = synthetic_dataset(name=name, **params)
        path = workdir / f"{name}.csv"
        path.write_text("".join(
            ",".join(repr(float(v)) for v in row) + f",{int(label)}\n"
            for row, label in zip(d.features, d.labels)))
        entries.append(DatasetConfig(name=name, path=str(path)))
    out = workdir / "out"
    spec = ExperimentSpec(datasets=tuple(entries), runs=3,
                          supervisor=SupervisorConfig(generations=20),
                          master_seed=11, out_dir=str(out))
    run_experiment(spec)
    reports = {e.name: json.loads((out / e.name / "report.json").read_bytes())
               for e in entries}
    return (json.dumps(reports, indent=2) + "\n").encode()


def test_pinned_experiment_reproduces_golden_report(tmp_path):
    assert golden_bytes(tmp_path) == GOLDEN.read_bytes()


def test_golden_report_does_not_depend_on_how_sum_adds(tmp_path, monkeypatch):
    """From CPython 3.12 built-in ``sum()`` adds floats with compensation.
    Every accuracy and mean is added in order, so with ``math.fsum`` in
    place of ``sum`` the bytes hold (the forked run workers inherit it)."""
    for module in (evaluation, experiment):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    assert golden_bytes(tmp_path) == GOLDEN.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_bytes(golden_bytes(Path(tmp)))
    print(f"wrote {GOLDEN}", file=sys.stderr)
