"""Forked workers: ``fork_map`` keeps its items' order, raises a worker's
exception at its item's place, fails when a worker dies, maps in this
process where it may not fork or has one item, pins each worker to one
CPU and leaves no process behind. And the kernel's helper threads, one
team for the process: each helper runs on one CPU, later calls start no
thread, a forked child computes on a team of its own, and a call that finds
the team busy computes alone, with the same values."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import needs_fork, on_cores, synthetic_dataset
from hhfs import build_cache, cores, llh
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


# A fresh interpreter's kernel calls, named on its command line, each
# watched as it runs: for each thread that appeared meanwhile, its name and
# its Cpus_allowed_list, read last from /proc, and the CPU the caller ran
# on when the thread was first seen. The caller does not sleep inside a
# kernel call, so that is the CPU the call placed its helpers from; once
# back, the caller may sleep waiting for the GIL and wake on another CPU.
# Printed as JSON.
WATCHED_CALLS = r"""
import json, os, re, sys, threading
import numpy as np
from hhfs import Dataset, build_cache, llh, min_max_normalize
from hhfs.evaluation import CvProtocol, FitnessEvaluator
from hhfs.mask import FeatureMask

rng = np.random.default_rng(8)
d = min_max_normalize(Dataset.from_arrays("watched", rng.random((400, 40)), np.arange(400) % 2))
evaluator, cache = FitnessEvaluator(d, CvProtocol(folds=5)), build_cache(d)
masks = rng.random((len(sys.argv), 400, 40)) < 0.5  # new masks for every call
population = rng.integers(1, llh.NUM_LLH + 1, size=(6000, 16))
counts = np.zeros(llh.NUM_LLH + 1, dtype=np.int64)
mask = FeatureMask(np.arange(40) % 3 == 0)
calls = {"fitnesses": lambda i: evaluator.fitnesses(masks[i], 2),
         "run_generation": lambda i: llh.run_generation(population, mask, cache, 0, i, 0.1,
                                                        counts, counts, 2)}
caller = threading.get_native_id()


def started_during(call):
    seen, ready, done = {}, threading.Event(), threading.Event()

    def watch():
        before = set(os.listdir("/proc/self/task"))
        ready.set()
        while not done.is_set():
            for tid in set(os.listdir("/proc/self/task")) - before:
                try:
                    with open(f"/proc/self/task/{caller}/stat") as stat:
                        here = stat.read().rsplit(")", 1)[1].split()[36]  # field 39, processor
                    with open(f"/proc/self/task/{tid}/status") as status:
                        name, cpus = re.findall(r"^(?:Name|Cpus_allowed_list):\s*(.*)$",
                                                status.read(), re.M)
                except OSError:  # the thread has just exited
                    continue
                seen[tid] = [name, cpus, seen.get(tid, [None, None, here])[2]]

    watcher = threading.Thread(target=watch)
    watcher.start()
    ready.wait()
    try:
        call()
    finally:
        done.set()
        watcher.join()
    return seen


print(json.dumps([started_during(lambda: calls[name](i)) for i, name in enumerate(sys.argv[1:])]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or cores.usable_cores() < 2,
                    reason="needs Linux's /proc and two usable cores")
def test_each_helper_thread_runs_on_one_cpu():
    # in a fresh interpreter, whose first 2-thread call starts the team
    allowed = {str(cpu) for cpu in os.sched_getaffinity(0)}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cores.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
    for first, later in (("fitnesses", "run_generation"), ("run_generation", "fitnesses")):
        child = subprocess.run([sys.executable, "-c", WATCHED_CALLS, first, later, first],
                               env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        started, *rest = json.loads(child.stdout)
        assert len(started) == 1  # the one helper of two threads
        ((name, cpus, caller),) = started.values()
        assert name == "hhfs helper"
        assert cpus in allowed  # a single CPU, as "3", not "0-3" or "0,2"
        assert cpus != caller
        assert rest == [{}, {}]  # later calls start no thread


@needs_fork
def test_a_forked_child_computes_on_a_team_of_its_own():
    # the team's helpers are not forked: without the team emptied in the
    # child, its call would wait for a helper it does not have
    d = synthetic_dataset(n_instances=200, n_features=30, seed=9)
    masks = np.random.default_rng(9).random((2, 100, d.n_features)) < 0.5
    evaluator = FitnessEvaluator(d, CvProtocol(folds=5))
    evaluator.fitnesses(masks[0], 2)  # this process's team, where it has two cores
    expected = FitnessEvaluator(d, CvProtocol(folds=5)).fitnesses(masks[1], 1)
    receiver, sender = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(
        target=lambda: sender.send(evaluator.fitnesses(masks[1], 2)))  # not daemonic
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's 2-thread call did not return")
    assert child.exitcode == 0
    assert receiver.poll() and np.array_equal(receiver.recv(), expected)
    assert multiprocessing.active_children() == []


def test_concurrent_callers_get_one_thread_values():
    # one team for the process: a call that finds it busy computes alone;
    # each caller takes turns at both kernel entries, so a share run with
    # the other caller's job would show
    d = synthetic_dataset(n_instances=120, n_features=30, seed=10)
    cache = build_cache(d)
    rng = np.random.default_rng(10)
    masks = rng.random((2, 100, 6, d.n_features)) < 0.5
    population = rng.integers(1, llh.NUM_LLH + 1, size=(6, 8))
    start = FeatureMask(np.arange(d.n_features) % 3 == 0)

    def calls(i, threads):
        evaluator = FitnessEvaluator(d, CvProtocol(folds=5))
        counts = np.zeros(llh.NUM_LLH + 1, dtype=np.int64)
        for gen, batch in enumerate(masks[i]):
            yield evaluator.fitnesses(batch, threads)
            yield llh.run_generation(population, start, cache, i, gen, 0.1, counts, counts,
                                     threads)
        yield counts

    expected = [list(calls(i, 1)) for i in range(2)]
    got, barrier = [[], []], threading.Barrier(2)

    def call(i):
        barrier.wait()
        got[i].extend(calls(i, 2))

    callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join()
    for mine, theirs in zip(got, expected):
        assert len(mine) == len(theirs)
        assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
