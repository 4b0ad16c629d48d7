"""In-memory span tracer and the wrappers that attach it to tailext.

Wrappers replace public names at the site where the caller looks them up
(for example ``tailext.model.ns_ce_batch``, which ``train`` resolves through
its module globals), and class methods on the class itself, so every layer
is timed without editing the program. Spans are kept in memory and written
out once, when the traced run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


class Tracer:
    """Thread-safe span recorder: (id, name, start, end, parent, thread)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        with self._lock:
            sid = next(self._ids)
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool worker has no open span of its own; its work was
                # caused by whatever the main thread has open and waits on
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            with self._lock:
                stack.pop()
                self.spans.append((sid, name, start, end, parent, tid))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, calls and self seconds.

        Self time is the span's duration minus the part of it covered by
        its child spans; children on parallel threads may overlap, so the
        covered part is the union of their intervals.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "calls": 0, "self_s": 0.0}
        )
        for sid, name, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            entry = out[name]
            entry["s"] += end - start
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
        return dict(out)

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "fields": ["id", "name", "start", "end", "parent", "thread"],
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }


def _bound_arg(fn: Callable, name: str, args: tuple, kwargs: dict):
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    return bound.arguments.get(name)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _after_write(tracer: Tracer, fn, args, kwargs, result) -> None:
    tracer.count("core.write_dataset.bytes", _file_size(_bound_arg(fn, "path", args, kwargs)))


def _after_read(tracer: Tracer, fn, args, kwargs, result) -> None:
    tracer.count("core.read_dataset.bytes", _file_size(_bound_arg(fn, "path", args, kwargs)))


def _after_sample(tracer: Tracer, fn, args, kwargs, result) -> None:
    try:
        tracer.count("sampling.aux_samples_drawn", len(result[0]))
    except (TypeError, IndexError):
        tracer.count("sampling.aux_samples_drawn.unreadable", 1)


# (module, attribute, span name, hook run on the result). An attribute
# "Class.method" is patched on the class. Only public names are wrapped, so
# private helpers (the epoch view, the optimizer step) stay inside the self
# time of the span that calls them.
WRAP_SITES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("tailext.cli", "read_dataset", "core.read_dataset", _after_read),
    ("tailext.cli", "write_dataset", "core.write_dataset", _after_write),
    ("tailext.cli", "save_checkpoint", "model.save_checkpoint", None),
    ("tailext.cli", "load_checkpoint", "model.load_checkpoint", None),
    ("tailext.cli", "make_hierarchy", "synth.make_hierarchy", None),
    ("tailext.cli", "make_auxiliary", "synth.make_auxiliary", None),
    ("tailext.cli", "train", "model.train", None),
    ("tailext.cli", "evaluate", "metrics.evaluate", None),
    ("tailext.curation", "curate", "curation.curate", None),
    ("tailext.curation", "query_neighbors", "curation.query_neighbors", None),
    ("tailext.curation", "filter_candidates", "curation.filter_candidates", None),
    ("tailext.curation", "FixtureLLMClient.complete", "curation.llm", None),
    ("tailext.curation", "FixtureRetriever.__init__", "curation.retriever_load", None),
    ("tailext.curation", "FixtureRetriever.retrieve", "curation.retrieve", None),
    ("tailext.model", "sample_epoch", "sampling.sample_epoch", _after_sample),
    ("tailext.model", "ns_ce_batch", "losses.ns_ce_batch", None),
    ("tailext.model", "bal_ce_batch", "losses.bal_ce_batch", None),
    ("tailext.model", "ClassifierState.predict_batch", "model.predict_batch", None),
    ("tailext.experiments", "run_pilot_cell", "experiments.run_pilot_cell", None),
    ("tailext.experiments", "make_hierarchy", "synth.make_hierarchy", None),
    ("tailext.experiments", "make_auxiliary", "synth.make_auxiliary", None),
    ("tailext.experiments", "train", "model.train", None),
    ("tailext.experiments", "linear_probe_retrain", "model.linear_probe_retrain", None),
    ("tailext.experiments", "evaluate", "metrics.evaluate", None),
)


def _wrap(tracer: Tracer, fn: Callable, span_name: str, after: Callable | None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, fn, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Patch every wrap site; a site that no longer exists is recorded in
    ``tracer.missing`` instead of failing the run."""
    for module_name, attr, span_name, after in WRAP_SITES:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if not callable(fn):
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        setattr(owner, leaf, _wrap(tracer, fn, span_name, after))
