"""The engine calls the benchmark under perfbench/ makes still work: its
per-heuristic micro timings and a traced supervisor run (``--trace 1``)."""

import multiprocessing
from pathlib import Path

import pytest

import hhfs
from conftest import synthetic_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    return layers, tracing


@pytest.fixture
def dataset():
    return synthetic_dataset(n_instances=60, n_features=10, seed=5)


def test_micro_timings_time_every_heuristic(perfbench, dataset):
    layers, _ = perfbench
    timings = layers.micro_timings(dataset, hhfs.build_cache(dataset), seed=3)
    calls = {k: v for k, v in timings.items() if k.startswith("llh.")}
    assert sorted(calls) == sorted(f"llh.{info.name}.call_us"
                                   for info in hhfs.CATALOG.values())
    assert min(calls.values()) > 0


def test_traced_supervisor_run_completes(perfbench, dataset):
    layers, tracing = perfbench
    cfg = hhfs.SupervisorConfig(population_size=4, generations=2, seed=1)
    with tracing.Tracer() as tracer:
        result = hhfs.run_supervisor(
            dataset, cfg, hhfs.CvProtocol(folds=5, base_seed=1),
            {"5x2": hhfs.CvProtocol(folds=5, repeats=2, base_seed=1)})
    assert len(result.history) == 2
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names.count("run_supervisor") == 1
    # a generation's bits matrix goes to the memo through fitnesses, so the
    # one traced fitness call is the initial incumbent's, in this process
    assert names.count("FitnessEvaluator.fitness") == 1
    breakdown = layers.search_breakdown(tracer.spans)
    assert breakdown["search_s"] > 0
    assert breakdown["fitness_share"] > 0
    assert multiprocessing.active_children() == []
