"""Span and counter recording around the public calls of each ifsdigits layer.

The benchmark's traced run installs these wrappers in a fresh process
before it runs one command; the package itself is not modified.  Spans are
kept in memory, per thread, and summarised when the command ends.

A function that other modules import by name (``from .weights import
tilted_tail_sum``) is replaced in every ``ifsdigits`` module that holds a
reference to it, while call-time lookups through the defining module
(``weights._invert_tail`` calling ``tilted_tail_sum``) see the module
attribute.  Methods are wrapped on their class.  A target that no longer
exists is listed under ``missing`` and its metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


class Recorder:
    """Thread-safe span and counter store.

    Each thread appends to its own lists, registered once under a lock, so
    a recorded call takes no lock.  A worker thread started through
    :meth:`adopt` attaches its spans to the span that submitted the work.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._threads = []  # one (spans, counts) pair per thread

    def _local(self):
        tls = self._tls
        if not hasattr(tls, "spans"):
            tls.spans = []
            tls.counts = defaultdict(int)
            tls.stack = []
            tls.serial = 0
            tls.inherited = None
            with self._lock:
                tls.index = len(self._threads)
                self._threads.append((tls.spans, tls.counts))
        return tls

    def current(self):
        """Id of the innermost open span on this thread, or its adopted parent."""
        tls = self._local()
        return tls.stack[-1] if tls.stack else tls.inherited

    def add(self, name: str, k: int = 1) -> None:
        self._local().counts[name] += k

    def call(self, name: str, fn, args, kwargs):
        tls = self._local()
        parent = tls.stack[-1] if tls.stack else tls.inherited
        tls.serial += 1
        sid = (tls.index, tls.serial)
        tls.stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            tls.stack.pop()
            tls.spans.append((sid, parent, name, start, end))
            tls.counts[name + ".calls"] += 1

    def adopt(self, parent, fn):
        """``fn`` wrapped to run, on any thread, as a child of span ``parent``."""

        def run(*args, **kwargs):
            tls = self._local()
            saved = tls.inherited
            tls.inherited = parent
            try:
                return fn(*args, **kwargs)
            finally:
                tls.inherited = saved

        return run

    def summary(self) -> dict:
        """Totals and self times per span name, plus merged counters.

        Self time is a span's duration minus the union of its children's
        intervals, so children running in parallel on worker threads are
        not subtracted twice.
        """
        with self._lock:
            threads = list(self._threads)
        spans = [s for spans, _ in threads for s in spans]
        counts: dict[str, int] = defaultdict(int)
        for _, c in threads:
            for key, value in c.items():
                counts[key] += value
        children = defaultdict(list)
        for _, parent, _, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in spans:
            total[name] += end - start
            self_time[name] += end - start - _covered(children.get(sid, ()), start, end)
        return {"total_s": dict(total), "self_s": dict(self_time), "counts": dict(counts)}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _wrap(rec: Recorder, name: str, fn, after=None, span: bool = True):
    if span:
        def wrapper(*args, **kwargs):
            result = rec.call(name, fn, args, kwargs)
            if after is not None:
                after(rec, args, result)
            return result
    else:
        def wrapper(*args, **kwargs):
            rec.add(name + ".calls")
            return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _after_sampler_init(rec, args, _result):
    table = getattr(args[0], "_cum", None)
    if table is not None:
        rec.add("weights.table_entries", len(table))


def _after_sample(rec, args, out):
    sampler = args[0]
    rec.add("weights.draws", int(out.size))
    # A fallback draw is a digit past the sampler's table; each is one
    # scalar tail inversion.
    table_size = getattr(sampler, "_table_size", None)
    if getattr(sampler, "_cum", None) is not None and table_size is not None:
        rec.add("weights.fallback_draws", int((out > table_size).sum()))


def _after_cylinder_sum_mc(rec, _args, record):
    rec.add("tilt.words", int(getattr(record, "trials", 0) or 0))


def _after_build_sublinear(rec, _args, sched):
    rec.add("sublinear.cumulative_tables", int(np.unique(sched.K).size))


# (span name, or None to count calls only; module; function; hook on the result)
_FUNCTIONS = [
    ("cli.main", "cli", "main", None),
    ("weights.potter_scan", "weights", "potter_scan", None),
    (None, "weights", "tilted_tail_sum", None),
    (None, "weights", "partial_sum_exponent", None),
    ("occupancy.monte_carlo_law", "occupancy", "monte_carlo_law", None),
    ("occupancy.expected_distinct", "occupancy", "expected_distinct", None),
    ("occupancy.distinct_counts", "occupancy", "distinct_counts", None),
    ("tilt.cylinder_sum_mc", "tilt", "cylinder_sum_mc", _after_cylinder_sum_mc),
    ("tilt.bound_chain", "tilt", "bound_chain", None),
    ("linear.build_block_schedule", "linear", "build_block_schedule", None),
    ("linear.point_trace", "linear", "point_trace", None),
    ("sublinear.profile", "sublinear", "profile_from_spec", None),
    ("sublinear.build_schedule", "sublinear", "build_sublinear_schedule", _after_build_sublinear),
    ("codec.word_to_line", "codec", "word_to_line", None),
    (None, "rng", "substream", None),
]

# (span name; module; class; method; hook on the result)
_METHODS = [
    ("weights.sampler_build", "weights", "DigitSampler", "__init__", _after_sampler_init),
    ("weights.sample", "weights", "DigitSampler", "sample", _after_sample),
    ("linear.sample_word", "linear", "BlockSchedule", "sample_word", None),
    ("sublinear.sample_word", "sublinear", "SublinearSchedule", "sample_word", None),
    ("sublinear.ratio_trace", "sublinear", "SublinearSchedule", "ratio_trace", None),
]


def install(rec: Recorder) -> list[str]:
    """Wrap the layer boundaries of the imported ``ifsdigits`` package.

    Returns the targets that could not be found.
    """
    package = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "ifsdigits" or key.startswith("ifsdigits."))]
    missing = []
    for span_name, module_name, attr, after in _FUNCTIONS:
        module = importlib.import_module(f"ifsdigits.{module_name}")
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(f"{module_name}.{attr}")
            continue
        name = span_name or f"{module_name}.{attr}"
        wrapper = _wrap(rec, name, fn, after, span=span_name is not None)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    for span_name, module_name, cls_name, attr, after in _METHODS:
        module = importlib.import_module(f"ifsdigits.{module_name}")
        cls = getattr(module, cls_name, None)
        fn = getattr(cls, attr, None) if cls is not None else None
        if not callable(fn):
            missing.append(f"{module_name}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, _wrap(rec, span_name, fn, after))
    occupancy = importlib.import_module("ifsdigits.occupancy")
    pool_cls = getattr(occupancy, "ThreadPoolExecutor", None)
    if pool_cls is not None:

        class AdoptingPool(pool_cls):
            """Thread pool whose tasks record spans under the submitting span."""

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(rec.adopt(rec.current(), fn), *args, **kwargs)

        occupancy.ThreadPoolExecutor = AdoptingPool
    return missing
