"""Forked workers: ``fork_map`` keeps its items' order, raises a worker's
exception at its item's place, fails when a worker dies, maps in this
process where it may not fork or has one item, and leaves no process
behind."""

import multiprocessing
import os
import time

import pytest

from conftest import needs_fork, on_cores
from hhfs import cores


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
