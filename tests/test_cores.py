"""Forked workers: ``fork_map`` keeps its items' order, raises a worker's
exception at its item's place, fails when a worker dies, maps in this
process where it may not fork or has one item, pins each worker to one
CPU and leaves no process behind. And the kernel's threads: each helper
thread a call starts runs on one CPU."""

import multiprocessing
import os
import re
import threading
import time

import numpy as np
import pytest

from conftest import needs_fork, on_cores, random_cache, synthetic_dataset
from hhfs import cores, llh
from hhfs.evaluation import CvProtocol, FitnessEvaluator
from hhfs.mask import FeatureMask


def slow_square(x: int) -> int:
    time.sleep(0.05 if x % 3 == 0 else 0.0)  # answers arrive out of order
    if x == 5:
        raise ValueError("item 5 failed")
    return x * x


@needs_fork
def test_fork_map_keeps_order_and_raises_in_place(monkeypatch):
    on_cores(monkeypatch, 3)
    got = []
    with pytest.raises(ValueError, match="^item 5 failed$"):
        for result in cores.fork_map(slow_square, list(range(8))):
            got.append(result)
    assert got == [0, 1, 4, 9, 16]
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_workers_memory_error_crosses_the_pipe(monkeypatch):
    # numpy's MemoryError subclass pickles, so it is raised here as the
    # worker raised it: run_experiment's boundary then records the dataset
    on_cores(monkeypatch, 2)
    with pytest.raises(MemoryError, match="^Unable to allocate 4.00 EiB "):
        list(cores.fork_map(lambda _: np.empty((2**29, 2**30)), [0, 1]))
    assert multiprocessing.active_children() == []


@needs_fork
def test_fork_map_runs_in_daemonic_workers_and_closes_when_abandoned(monkeypatch):
    on_cores(monkeypatch, 2)
    results = cores.fork_map(lambda _: (os.getpid(), cores.may_fork()), [0, 1, 2])
    pid, may_fork = next(results)
    assert pid != os.getpid() and not may_fork
    results.close()  # with answers still owed
    assert multiprocessing.active_children() == []


@needs_fork
def test_fork_map_raises_when_a_worker_dies(monkeypatch):
    on_cores(monkeypatch, 2)

    def dying(x: int) -> int:
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="^a worker process exited unexpectedly$"):
        list(cores.fork_map(dying, [0, 1, 2, 3]))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count, items", [(1, [0, 1, 2]), (2, [0])],
                         ids=["one-core", "one-item"])
def test_fork_map_maps_in_this_process(monkeypatch, count, items):
    on_cores(monkeypatch, count)
    assert list(cores.fork_map(lambda _: os.getpid(), items)) == [os.getpid()] * len(items)
    assert multiprocessing.active_children() == []


@needs_fork
def test_fork_map_maps_in_the_worker_inside_a_worker(monkeypatch):
    on_cores(monkeypatch, 2)
    nested = list(cores.fork_map(
        lambda _: (os.getpid(), list(cores.fork_map(lambda _: os.getpid(), [0, 1]))),
        [0, 1]))
    assert len({pid for pid, _ in nested} - {os.getpid()}) == 2
    for pid, inner in nested:
        assert inner == [pid, pid]
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
def test_fork_map_pins_each_worker_to_one_cpu(monkeypatch):
    on_cores(monkeypatch, 3)  # the CPUs wrap round where there are fewer
    allowed = sorted(os.sched_getaffinity(0))
    affinities = dict(cores.fork_map(lambda _: (os.getpid(), os.sched_getaffinity(0)),
                                     list(range(6))))
    assert len(affinities) == 3  # every worker answers the first index it is sent
    assert sorted(cpu for affinity in affinities.values() for cpu in affinity) == sorted(
        allowed[i % len(allowed)] for i in range(3))
    assert multiprocessing.active_children() == []


def helper_cpus_during(call) -> dict[str, str]:
    """Each thread that appears in this process while ``call()`` runs: the
    ``Cpus_allowed_list`` its ``/proc`` status read last, as the thread
    may be placed a moment after it appears."""
    seen, ready, done = {}, threading.Event(), threading.Event()

    def watch():
        before = set(os.listdir("/proc/self/task"))
        ready.set()
        while not done.is_set():
            for tid in set(os.listdir("/proc/self/task")) - before:
                try:
                    with open(f"/proc/self/task/{tid}/status") as status:
                        seen[tid] = re.search(r"^Cpus_allowed_list:\s*(\S+)$", status.read(),
                                              re.M).group(1)
                except OSError:  # the thread has just exited
                    pass

    watcher = threading.Thread(target=watch)
    watcher.start()
    ready.wait()
    try:
        call()
    finally:
        done.set()
        watcher.join()
    return seen


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or cores.usable_cores() < 2,
                    reason="needs Linux's /proc and two usable cores")
def test_each_helper_thread_runs_on_one_cpu():
    d = synthetic_dataset(n_instances=400, n_features=40, seed=8)
    evaluator = FitnessEvaluator(d, CvProtocol(folds=5))
    masks = np.random.default_rng(8).random((800, d.n_features)) < 0.5
    cache = random_cache(60, seed=8)
    population = np.random.default_rng(8).integers(1, llh.NUM_LLH + 1, size=(6000, 16))
    counts = np.zeros(llh.NUM_LLH + 1, dtype=np.int64)
    mask = FeatureMask(np.arange(60) % 3 == 0)
    allowed = {str(cpu) for cpu in os.sched_getaffinity(0)}
    for call in (lambda: evaluator.fitnesses(masks, 2),
                 lambda: llh.run_generation(population, mask, cache, 0, 0, 0.1, counts, counts,
                                            2)):
        helpers = helper_cpus_during(call)
        assert len(helpers) == 1  # the one helper of two threads
        assert set(helpers.values()) <= allowed  # a single CPU, as "3", not "0-3" or "0,2"
