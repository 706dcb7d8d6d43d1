"""Cross-version lock on the benchmark's stand-ins: short seeded runs on the
stand-in CSVs of ``perfbench/standins.py`` must reproduce pinned digests.

At seeds 1 and 2 each stand-in is written to CSV and set up as the
benchmark sets it up. Musk (3 generations) and sonar (5 generations) make
one ``run_supervisor`` run each with the benchmark's settings; the pin is
the sha256 of the run record, computed as ``perfbench/run.py`` computes
its record digests. Dermatology makes a 2-run ``run_experiment`` with the
benchmark's settings; the pin is the sha256 of its ``report.json``. So a
change that moves the benchmark's digests fails here, in tier 1.

Any change to search behaviour, fitness values or report layout changes
these digests. Such a change must be deliberate: print the new pins with

    PYTHONPATH=src python tests/test_standin_pins.py

paste them over ``PINS`` and record the reason in CHANGES.md.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

import hhfs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEARCH_GENERATIONS = {"musk-search": 3, "sonar-search": 5}
EXPERIMENT_RUNS = 2

PINS = {
    ("musk-search", 1):
        "f1e125a8af00572f7011bc733447410a921d4b8f09288aadbb735ad2ea6ade1e",
    ("musk-search", 2):
        "f557ba7eec29dc08ade3a3f6050be019aa1908f4d8213a9b3390c4e5e2526f52",
    ("sonar-search", 1):
        "f1ceed8f9b7ef43f1a0dad8049fde01c9a783ef9cbb732c758e14880a04b06fd",
    ("sonar-search", 2):
        "832e0e7de9cce818388c7e3a97472fc07af44e2787c17279b4874ddd8fea1eab",
    ("dermatology-experiment", 1):
        "5678e63ba8a0b6d632c3281a91b24763548bc71cba7b5cced0bd4d8bf451f33d",
    ("dermatology-experiment", 2):
        "b4e3517b25f90a548fac7325cbfbc89929022dc89cebd8f3dd408dfacebbbbd7",
}


def standin_digest(workload: str, seed: int, workdir: Path) -> str:
    """The pinned digest of one workload at one seed, made under ``workdir``."""
    import run
    from standins import SHAPES, write_csv

    bench = run.Bench(hhfs, run.WORKLOADS[workload], seed, seconds=0, out=workdir)
    write_csv(SHAPES[bench.w.shape], seed, bench.csv_path)
    if bench.w.experiment:
        bench.runs = EXPERIMENT_RUNS
        done = bench.experiment("pins")
        assert not done.problems, done.problems
        return done.report_sha256
    d, cache, _ = bench.set_up()
    cfg = replace(bench.cfg, generations=SEARCH_GENERATIONS[workload], seed=seed)
    result = hhfs.run_supervisor(d, cfg, bench.search_protocol(seed),
                                 bench.report_protocols, cache=cache)
    return run.digest(bench.record(result))


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


@pytest.mark.parametrize("workload, seed", sorted(PINS))
def test_standin_runs_reproduce_pinned_digests(perfbench, tmp_path, workload, seed):
    assert standin_digest(workload, seed, tmp_path) == PINS[workload, seed]


if __name__ == "__main__":
    sys.path.insert(0, str(PERFBENCH))
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in PINS:
            workdir = Path(tmp) / f"{workload}-{seed}"
            print(f'    ("{workload}", {seed}):\n'
                  f'        "{standin_digest(workload, seed, workdir)}",')
