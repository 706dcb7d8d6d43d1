"""Spans around the engine's public calls, recorded from outside the engine.

The tracer replaces each traced public function (found by name in
``hhfs.__all__``) wherever an ``hhfs`` module holds a reference to it, so
calls the engine makes internally are seen too. Only identity is used to
find the references, never a private name, and everything is restored on
exit. A name a later version no longer exports is skipped: its spans then
simply count zero.

A span is ``[name, parent, start_ns, end_ns, masks]``: parent is the index
of the enclosing span (-1 at top level) and masks counts the
``FeatureMask`` constructions made while the span was the innermost one.
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import hhfs

# public functions whose calls become spans
TRACED_FUNCTIONS = (
    "load_csv", "build_cache", "stratified_folds",
    "cfs_merit", "cv_accuracy", "apply_llh", "evaluate_chromosome",
    "roulette_select", "single_point_crossover", "mutate_chromosome",
    "run_supervisor", "full_feature_baseline", "run_experiment",
)

NAME, PARENT, START, END, MASKS = range(5)


class Tracer:
    """Context manager: while active, traced calls append spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
        return traced

    def _count_masks(self, init):
        spans, stack = self.spans, self._stack

        @functools.wraps(init)
        def counted(*args, **kwargs):
            if stack:
                spans[stack[-1]][MASKS] += 1
            init(*args, **kwargs)
        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hhfs" or key.startswith("hhfs.")]
        for name in TRACED_FUNCTIONS:
            fn = getattr(hhfs, name, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        evaluator = getattr(hhfs, "FitnessEvaluator", None)
        if evaluator is not None and "fitness" in vars(evaluator):
            self._patch(evaluator, "fitness",
                        self._wrap("FitnessEvaluator.fitness", evaluator.fitness))
        mask_cls = getattr(hhfs, "FeatureMask", None)
        if mask_cls is not None:
            self._patch(mask_cls, "__init__", self._count_masks(mask_cls.__init__))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write the spans as a JSON list of [name, parent, start_ns, end_ns, masks]."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def duration(span) -> float:
    return (span[END] - span[START]) * 1e-9


def self_seconds(spans) -> list[float]:
    """Per span, its duration minus the part its children cover."""
    own = [duration(s) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= duration(s)
    return own


def self_times(spans) -> dict[str, float]:
    """Per span name, total self seconds."""
    totals: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_seconds(spans)):
        totals[s[NAME]] += own
    return dict(totals)
