"""Spans around the calls between eigencut's layers, for the traced run only.

``traced(tracer)`` replaces, for the length of a ``with`` block, the public
names that each module imports from the layer below with wrappers that
record a span per call, and puts the original objects back when the block
ends, also when it raises.  A generator function is wrapped so that each
``next()`` is its own span, named after the order it was called for; time
the consumer spends between two ``next()`` calls is not charged to it.

Spans are kept in memory; ``summarize`` turns them into per-layer metrics.
A span's self time is its duration minus the durations of its direct
children, which never overlap because the program is single-threaded
(``THREADS`` unset).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, imported name, span name); the span name's first part is the layer
WRAPPED = (
    ("eigencut.verify", "enumerate_connected_regular", "enumeration.enumerate"),
    ("eigencut.verify", "random_connected_regular", "enumeration.sample"),
    ("eigencut.enumeration", "graph_from_edges", "graphs.graph_from_edges"),
    ("eigencut.enumeration", "is_connected", "graphs.is_connected"),
    ("eigencut.verify", "articulation_points", "graphs.articulation_points"),
    ("eigencut.verify", "to_graph6", "graphs.to_graph6"),
    ("eigencut.verify", "is_isomorphic", "graphs.is_isomorphic"),
    ("eigencut.verify", "spectrum", "spectra.spectrum"),
    ("eigencut.verify", "threshold", "extremal.threshold"),
    ("eigencut.verify", "verify_theorem", "verify.verify_theorem"),
    ("eigencut.verify", "records_to_csv", "verify.records_to_csv"),
)
ORDER_SPAN = "enumeration.enumerate.order_"


class Tracer:
    """In-memory spans: ``[name, start, end, parent index]``, plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)


def _wrap_function(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(n, *args, **kwargs):
        gen = fn(n, *args, **kwargs)
        span = f"{ORDER_SPAN}{n}"
        try:
            while True:
                idx = tracer.open(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counts[f"{span}.graphs"] += 1
                yield item
        finally:
            gen.close()

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the ``with`` block; always restore the originals."""
    saved = []
    try:
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            wrap = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap_function
            setattr(module, attr, wrap(tracer, span, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name."""
    durations = defaultdict(list)
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    for (name, start, end, _), inner in zip(tracer.spans, child_time):
        durations[name].append(end - start)
        self_time[name] += end - start - inner

    m: dict[str, float] = dict(tracer.counts)
    for _, _, span in WRAPPED:
        m[f"{span}.busy_s"] = sum(durations[span])
        m[f"{span}.calls"] = len(durations[span])
    orders = [name for name in durations if name.startswith(ORDER_SPAN)]
    for name in orders:
        m[f"{name}.busy_s"] = sum(durations[name])
    m["enumeration.enumerate.busy_s"] = sum(m[f"{name}.busy_s"] for name in orders)
    sample_ms = [t * 1e3 for t in durations["enumeration.sample"]]
    m["enumeration.sample.ms.p50"] = _percentile(sample_ms, 50)
    m["enumeration.sample.ms.p99"] = _percentile(sample_ms, 99)
    connected_calls = len(durations["graphs.is_connected"])
    m["enumeration.sample.connected_yield"] = len(sample_ms) / connected_calls if connected_calls else 0.0
    spectrum_us = [t * 1e6 for t in durations["spectra.spectrum"]]
    m["spectra.spectrum.us.p50"] = _percentile(spectrum_us, 50)
    m["spectra.spectrum.us.p99"] = _percentile(spectrum_us, 99)
    m["cli.main.busy_s"] = sum(durations["cli.main"])
    m["cli.self_s"] = self_time["cli.main"]
    m["verify.self_s"] = self_time["verify.verify_theorem"]
    return m
