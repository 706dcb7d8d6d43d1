"""The cores a process may use, and the forked workers and helper threads
that share them.

Where ``may_fork`` allows, ``fork_map`` maps a dataset's runs over one
forked worker per usable core. A lone supervisor run starts no process: it
computes each generation's fitness on ``Helpers``, threads beside its own,
one per further usable core. They pay only because the fitness's distances
run without the GIL.

The workers are forked, not spawned: a forked worker imports nothing and
is sent no dataset, and forking starts no ``resource_tracker`` process. Each
worker talks to its parent over a pipe of its own, so stopping one, even
mid-message, can block no other process (a ``multiprocessing.Pool``
shares a result queue lock among its workers, and terminating a worker
that holds it can hang ``Pool.terminate``). A worker stops once its last
answer is met with None; one that still owes an answer is terminated.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
from collections.abc import Sequence
from multiprocessing.connection import wait


def usable_cores() -> int:
    """The cores this process's CPU affinity allows, so ``taskset -c 0``
    makes it one."""
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def may_fork() -> bool:
    """Whether this process may start workers or helper threads: it has a
    second usable core, the fork start method exists and the process is not
    a worker itself (workers are daemonic, a daemonic process may have no
    children, and its sibling workers already use the other cores)."""
    return (usable_cores() > 1 and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


def _serve(func, items: Sequence, conn, parent_end) -> None:
    """A worker's loop: it answers each index ``i`` it is sent with
    ``func(items[i])`` or what that raised, and returns when sent None."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    while (i := conn.recv()) is not None:
        try:
            answer = func(items[i])
        except Exception as exc:
            answer = exc
        conn.send(answer)


def fork_map(func, items: Sequence):
    """``map(func, items)`` on one forked worker per usable core, at most
    one per item; in this process where ``may_fork()`` is false or for
    fewer than two items. The workers inherit ``func`` and ``items`` at
    fork; each is sent the next item's index whenever it answers, or None
    once none is left. The results come in order, an exception ``func``
    raised is raised at its item's place, and the workers still owing an
    answer when the iteration ends, is abandoned or raises are terminated."""
    if len(items) < 2 or not may_fork():
        yield from map(func, items)
        return
    ctx = multiprocessing.get_context("fork")
    pool = []  # each worker's process and the parent's end of its pipe
    owed = {}  # the parent's end -> the index sent and not yet answered
    answers: dict[int, object] = {}
    try:
        for i in range(min(usable_cores(), len(items))):
            conn, child_end = ctx.Pipe()
            process = ctx.Process(target=_serve, daemon=True,
                                  args=(func, items, child_end, conn))
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


class Helpers:
    """``count`` threads that compute beside the calling thread: ``map``
    puts its items on a queue that they and the calling thread pull from.
    One thread calls ``map`` at a time. ``close``, or leaving a ``with``
    block, stops and joins them."""

    def __init__(self, count: int):
        self._queue: queue.SimpleQueue = queue.SimpleQueue()  # jobs, then a None per thread
        self._threads: list[threading.Thread] = []
        try:
            for _ in range(count):
                thread = threading.Thread(target=self._serve, name="hhfs-helper", daemon=True)
                thread.start()
                self._threads.append(thread)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Helpers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _serve(self) -> None:
        """A helper's loop: it answers each job ``(func, i, item, answers)``
        with ``(i, func(item), None)``, or ``(i, None, what it raised)``, on
        ``answers``, and returns when it gets None."""
        while (job := self._queue.get()) is not None:
            func, i, item, answers = job
            try:
                answers.put((i, func(item), None))
            except BaseException as exc:  # an interrupt too: map raises it in the caller
                answers.put((i, None, exc))

    def _unstarted(self):
        """The jobs still queued, each pulled off the queue as it is yielded."""
        while True:
            try:
                yield self._queue.get_nowait()
            except queue.Empty:
                return

    def map(self, func, items: Sequence) -> list:
        """``[func(x) for x in items]``, each item computed by whichever
        thread pulls it first, this one included. What a call raises is
        raised here: at once from this thread's call, and from a helper's
        once this thread has none left to pull. The items no thread has
        started are then dropped."""
        if not self._threads:
            return [func(x) for x in items]
        answers: queue.SimpleQueue = queue.SimpleQueue()
        results = [None] * len(items)
        left = len(items)
        try:
            for i, x in enumerate(items):
                self._queue.put((func, i, x, answers))
            for _, i, x, _ in self._unstarted():
                results[i] = func(x)
                left -= 1
            while left:
                i, result, exc = answers.get()
                if exc is not None:
                    raise exc
                results[i] = result
                left -= 1
        finally:  # none are left unless a call raised
            for _ in self._unstarted():
                pass
        return results

    def close(self) -> None:
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
        self._threads = []
