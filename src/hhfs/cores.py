"""The cores a process may use, and the forked workers that share them.

Where ``may_fork`` allows, ``fork_map`` maps a dataset's runs over one
forked worker per usable core, worker i pinned to the i-th of them. A
lone supervisor run starts no process: its kernel calls run each
generation's heuristic rows (``_climb.generation``) and compute its new
masks (``_climb.nearest``) on a thread per usable core: the caller and
the kernel's helper threads, started on the first call that asks for them
and kept for the process, each on a CPU other than the caller's. Both pin,
as the host may not move a thread off the CPU it started on: where a
cpuset turns scheduler load balancing off, a new thread or process shares
its creator's CPU for as long as it runs.

The workers are forked, not spawned: a forked worker imports nothing and
is sent no dataset, and forking starts no ``resource_tracker`` process. Each
worker talks to its parent over a pipe of its own, so stopping one, even
mid-message, can block no other process (a ``multiprocessing.Pool``
shares a result queue lock among its workers, and terminating a worker
that holds it can hang ``Pool.terminate``). A worker stops once its last
answer is met with None; one that still owes an answer is terminated.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
from collections.abc import Sequence
from multiprocessing.connection import wait


def usable_cores() -> int:
    """The cores this process's CPU affinity allows, so ``taskset -c 0``
    makes it one."""
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def may_fork() -> bool:
    """Whether this process may start workers or fitness threads: it has a
    second usable core, the fork start method exists and the process is not
    a worker itself (workers are daemonic, a daemonic process may have no
    children, and its sibling workers already use the other cores)."""
    return (usable_cores() > 1 and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


def _serve(func, items: Sequence, conn, parent_end, cpu: int) -> None:
    """A worker's loop, on CPU ``cpu`` where the platform can pin: it
    answers each index ``i`` it is sent with ``func(items[i])`` or what
    that raised, and returns when sent None."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    if hasattr(os, "sched_setaffinity"):  # missing on some platforms
        with contextlib.suppress(OSError):  # a CPU taken away since: run unpinned
            os.sched_setaffinity(0, {cpu})
    while (i := conn.recv()) is not None:
        try:
            answer = func(items[i])
        except Exception as exc:
            answer = exc
        conn.send(answer)


def fork_map(func, items: Sequence):
    """``map(func, items)`` on one forked worker per usable core, at most
    one per item; in this process where ``may_fork()`` is false or for
    fewer than two items. Worker i runs on CPU ``cpus[i % len(cpus)]``,
    ``cpus`` being this process's allowed CPUs in ascending order. The
    workers inherit ``func`` and ``items`` at fork; each is sent the next
    item's index whenever it answers, or None once none is left. The
    results come in order, an exception ``func`` raised is raised at its
    item's place, and the workers still owing an answer when the iteration
    ends, is abandoned or raises are terminated."""
    if len(items) < 2 or not may_fork():
        yield from map(func, items)
        return
    ctx = multiprocessing.get_context("fork")
    pool = []  # each worker's process and the parent's end of its pipe
    owed = {}  # the parent's end -> the index sent and not yet answered
    answers: dict[int, object] = {}
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = sorted(affinity(0)) if affinity else [0]
    try:
        for i in range(min(usable_cores(), len(items))):
            conn, child_end = ctx.Pipe()
            process = ctx.Process(target=_serve, daemon=True,
                                  args=(func, items, child_end, conn, cpus[i % len(cpus)]))
            process.start()
            child_end.close()
            pool.append((process, conn))
            owed[conn] = i
            conn.send(i)
        todo = iter(range(len(pool), len(items)))
        for i in range(len(items)):
            while i not in answers:
                for conn in wait(list(owed)):
                    try:
                        answers[owed[conn]] = conn.recv()
                    except EOFError:
                        raise RuntimeError("a worker process exited unexpectedly") from None
                    owed[conn] = next(todo, None)  # kept until sent: joins wait on no idle worker
                    conn.send(owed[conn])
                    if owed[conn] is None:
                        del owed[conn]
            answer = answers.pop(i)
            if isinstance(answer, Exception):
                raise answer
            yield answer
    finally:
        for process, conn in pool:
            if conn in owed:
                process.terminate()
            process.join()
            conn.close()
