"""The cores a process may use, and forked workers that share them.

Where ``may_fork`` allows, a dataset's runs go to one forked ``Worker``
per usable core (``fork_map``); each runs its BLAS on one thread, as the
processes already fill the cores. A lone supervisor run starts no worker.

Workers are forked, not spawned: a forked worker imports nothing and is
sent no dataset, and forking starts no ``resource_tracker`` process. Each
worker talks to its parent over a pipe of its own, so stopping one, even
mid-message, can block no other process (a ``multiprocessing.Pool``
shares a result queue lock among its workers, and terminating a worker
that holds it can hang ``Pool.terminate``).
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
from collections.abc import Sequence
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np


def usable_cores() -> int:
    """The cores this process's CPU affinity allows, so ``taskset -c 0``
    makes it one."""
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def may_fork() -> bool:
    """Whether this process may start workers: it has a second usable
    core, the fork start method exists and the process is not a worker
    itself (workers are daemonic, and a daemonic process may have no
    children)."""
    return (usable_cores() > 1 and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


def loaded_openblas():
    """Each OpenBLAS of numpy's wheel that this process has loaded (hhfs
    calls no other BLAS); opened with RTLD_NOLOAD, so none is loaded here."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            yield ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:  # shipped but not loaded
            pass


def one_blas_thread() -> None:
    """Run every loaded OpenBLAS on one thread."""
    for lib in loaded_openblas():
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if (setter := getattr(lib, name, None)) is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


class Worker:
    """A forked, daemonic process that answers one message at a time:
    ``serve`` runs there on it, and ``receive`` pairs it with what that
    returned or raised. ``close`` stops and joins the process, killing one
    that owes an answer. Ctrl-C is the parent's: the worker ignores it."""

    def __init__(self, serve):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.owed = None  # the message sent and not yet answered
        self._process = ctx.Process(target=_serve, daemon=True,
                                    args=(serve, child_end, self.conn))
        self._process.start()
        child_end.close()

    def fileno(self) -> int:
        """The pipe's descriptor, so ``connection.wait`` takes workers."""
        return self.conn.fileno()

    def send(self, message) -> None:
        """Hand ``message`` (anything but None) to ``serve``."""
        self.conn.send(message)
        self.owed = message

    def receive(self) -> tuple:
        """The message in flight, and its answer."""
        try:
            answer = self.conn.recv()
        except EOFError:
            raise RuntimeError("a worker process exited unexpectedly") from None
        message, self.owed = self.owed, None
        return message, answer

    def close(self) -> None:
        # a stop message, not just closing our end: a sibling worker forked
        # later holds a copy of it, so the worker would see no EOF
        try:
            if self.owed is not None:
                self._process.terminate()
            else:
                self.conn.send(None)
        except OSError:  # the worker is gone already
            pass
        self._process.join()
        self.conn.close()


def _serve(serve, conn, parent_end) -> None:
    """A worker's loop, until a None message or the parent's end closes."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    one_blas_thread()
    try:
        while (message := conn.recv()) is not None:
            try:
                answer = serve(message)
            except Exception as exc:
                answer = exc
            conn.send(answer)
    except EOFError:
        pass


def fork_map(func, items: Sequence):
    """``map(func, items)`` on one forked Worker per usable core, at most
    one per item; in this process where ``may_fork()`` is false or for
    fewer than two items. The workers inherit ``func`` and ``items`` at fork, and
    each is sent the next item's index whenever it answers. The results
    come in order, and an exception ``func`` raised is raised at its
    item's place. The workers are closed when the iteration ends, is
    abandoned or raises."""
    if len(items) < 2 or not may_fork():
        yield from map(func, items)
        return
    pool: list[Worker] = []
    answers: dict[int, object] = {}
    try:
        for i in range(min(usable_cores(), len(items))):
            pool.append(Worker(lambda j: func(items[j])))
            pool[-1].send(i)
        todo = iter(range(len(pool), len(items)))
        for i in range(len(items)):
            while i not in answers:
                for worker in wait([w for w in pool if w.owed is not None]):
                    j, answer = worker.receive()
                    answers[j] = answer
                    if (k := next(todo, None)) is not None:
                        worker.send(k)
            answer = answers.pop(i)
            if isinstance(answer, Exception):
                raise answer
            yield answer
    finally:
        for worker in pool:
            worker.close()
