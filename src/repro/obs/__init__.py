"""``repro.obs`` — span tracing, metrics, and profiling reports.

The instrumented hot paths (trainer, samplers, replay engine, suite
pool) call the module-level helpers below against one ambient tracer.
When no tracer is installed — the default — every helper is a constant-
time no-op that never reads a clock, so disabled-mode cost is
unmeasurable and goldens stay byte-identical.

Enable tracing for a region with::

    with obs.tracing(stream=path / "spans.jsonl") as tracer:
        trainer.train(...)

or through the public surfaces: ``Session.trace()``, ``run_problem(...,
trace=True)``, ``repro run --trace``.  See docs/observability.md.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from .metrics import MetricsRegistry
from .names import METRICS, metric_catalog, register_metric
from .profile import (aggregate_tree, chrome_trace, format_metrics_summary,
                      metrics_summary, phase_table, read_jsonl,
                      render_phase_table, render_tree, sampler_overhead)
from .tracer import NOOP_SPAN, Span, Tracer

__all__ = [
    "Tracer", "Span", "MetricsRegistry", "METRICS", "metric_catalog",
    "register_metric", "tracer", "enabled", "span", "current", "inc",
    "gauge", "snapshot_metrics", "tracing", "timed_span", "stopwatch",
    "read_jsonl", "aggregate_tree", "render_tree", "phase_table",
    "render_phase_table", "sampler_overhead", "chrome_trace",
    "metrics_summary", "format_metrics_summary", "NOOP_SPAN",
]

#: the ambient tracer; ``None`` means tracing is disabled
_ACTIVE = None


def tracer():
    """The installed :class:`Tracer`, or ``None`` when disabled."""
    return _ACTIVE


def enabled():
    return _ACTIVE is not None


def span(name, **attrs):
    """Open a span on the ambient tracer; shared no-op when disabled."""
    if _ACTIVE is None:
        return NOOP_SPAN
    return _ACTIVE.span(name, **attrs)


def current():
    """Current span id on this thread (pass as ``parent=`` across threads)."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.current_id()


def inc(name, amount=1):
    if _ACTIVE is not None:
        _ACTIVE.inc(name, amount)


def gauge(name, value):
    if _ACTIVE is not None:
        _ACTIVE.set_gauge(name, value)


def snapshot_metrics(step=None, wall_time=None):
    if _ACTIVE is not None:
        _ACTIVE.snapshot_metrics(step=step, wall_time=wall_time)


@contextmanager
def tracing(stream=None, metrics_stream=None, flush_every=64):
    """Install a fresh ambient :class:`Tracer` for the ``with`` body.

    Nests: the previous tracer (if any) is restored on exit, so a traced
    suite can call into a traced run without either clobbering the other.
    Buffered JSONL streams are flushed on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    installed = Tracer(stream=stream, metrics_stream=metrics_stream,
                       flush_every=flush_every)
    _ACTIVE = installed
    try:
        yield installed
    finally:
        _ACTIVE = previous
        installed.flush()


class timed_span:
    """Measure a region always; record a span for it only when tracing.

    The sanctioned replacement for raw ``perf_counter`` pairs in hot
    paths whose durations feed a counter (e.g. ``sampler.rebuild_seconds``)
    or a caller: ``.seconds`` is valid whether or not a tracer is
    installed.
    """

    __slots__ = ("_name", "_attrs", "_span_ctx", "_span", "_started",
                 "seconds")

    def __init__(self, name, **attrs):
        self._name = name
        self._attrs = attrs
        self._span_ctx = None
        self._span = None
        self._started = 0.0
        self.seconds = 0.0

    def __enter__(self):
        if _ACTIVE is not None:
            self._span_ctx = _ACTIVE.span(self._name, **self._attrs)
            self._span = self._span_ctx.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._started
        if self._span_ctx is not None:
            self._span_ctx.__exit__(*exc)
            self._span_ctx = None
            self._span = None
        return False

    def set(self, **attrs):
        if self._span is not None:
            self._span.set(**attrs)
        return self


class stopwatch:
    """Plain wall-clock timer (no span) for non-hot-path accounting."""

    __slots__ = ("_started", "seconds")

    def __init__(self):
        self._started = 0.0
        self.seconds = 0.0

    def __enter__(self):
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._started
        return False
