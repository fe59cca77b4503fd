"""Hierarchical span tracer with thread-aware nesting and JSONL streaming.

Design constraints (see docs/observability.md):

* **Near-zero disabled cost.**  The module-level ``repro.obs.span()``
  helper returns a shared no-op context manager when no tracer is
  installed — no allocation, no clock read, no lock.  Goldens must stay
  byte-identical either way, so spans never touch RNG or numerics.
* **Thread-aware nesting.**  Each thread keeps its own span stack in a
  ``threading.local``; a worker thread (e.g. a background graph rebuild)
  passes ``parent=obs.current()`` captured on the main thread so its
  spans nest under the step that triggered them instead of floating.
* **Cross-process adoption.**  Spans are timed on ``perf_counter``
  relative to the tracer's ``epoch``, with an ``epoch_unix``
  (``time.time``) anchor recorded once.  A process-pool worker ships its
  span dicts back with the result; the parent :meth:`Tracer.adopt`\\ s
  them — remapping ids, shifting times by the unix-epoch delta, and
  re-parenting under a synthetic ``suite.cell`` span — so one Chrome
  trace shows the whole matrix.
"""

from __future__ import annotations

import json
import threading
import time

from .metrics import MetricsRegistry

__all__ = ["Span", "Tracer", "NOOP_SPAN"]

#: the bytes of ``json.dumps(record, sort_keys=True)``, without building a
#: new encoder for every streamed record
_encode = json.JSONEncoder(sort_keys=True).encode


class Span:
    """One timed region; ``end`` is ``None`` while the region is open."""

    __slots__ = ("name", "span_id", "parent_id", "thread", "start", "end",
                 "attrs")

    def __init__(self, name, span_id, parent_id, thread, start, attrs=None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
        self.start = start
        self.end = None
        self.attrs = dict(attrs) if attrs else {}

    def seconds(self):
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs):
        """Attach attributes after entry (e.g. the step mode, once known)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self):
        record = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class _NoopSpan:
    """Shared do-nothing span; the disabled-mode fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self

    def seconds(self):
        return 0.0


NOOP_SPAN = _NoopSpan()

#: sentinel distinguishing "no parent given" from "explicitly a root span"
_UNSET = object()


class _SpanContext:
    """Context manager binding a live :class:`Span` to a tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span

    def __enter__(self):
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc):
        self._span.end = time.perf_counter() - self._tracer.epoch
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects spans and metrics for one run (or one suite/matrix).

    ``stream`` / ``metrics_stream`` are optional paths; when given, closed
    spans and metric snapshots are appended there as JSONL (the same
    torn-tail-tolerant format as ``history.jsonl``), buffered and flushed
    once ``flush_every`` records are buffered and at most one span is
    still open on the closing thread, and on :meth:`flush`.
    """

    def __init__(self, stream=None, metrics_stream=None, flush_every=64):
        self.epoch = time.perf_counter()
        self.epoch_unix = time.time()
        self.metrics = MetricsRegistry()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._spans = []
        self._snapshots = []
        self._stream = stream
        self._metrics_stream = metrics_stream
        self._flush_every = int(flush_every)
        self._span_buffer = []
        self._snapshot_buffer = []

    # -- span lifecycle -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_id(self):
        """Id of the innermost open span on *this* thread, or ``None``.

        Capture this on the main thread and pass it as ``parent=`` when
        spawning work on another thread so the child spans nest correctly.
        """
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def span(self, name, parent=_UNSET, **attrs):
        """Open a span; use as ``with tracer.span("train.step") as s:``.

        Without ``parent``, nests under the current span of the calling
        thread.  ``parent=None`` forces a root span; ``parent=<id>`` (an id
        from :meth:`current_id`, possibly captured on another thread)
        forces explicit nesting.
        """
        if parent is _UNSET:
            parent_id = self.current_id()
        else:
            parent_id = parent
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(name, span_id, parent_id,
                    threading.current_thread().name,
                    time.perf_counter() - self.epoch, attrs)
        return _SpanContext(self, span)

    def _push(self, span):
        self._stack().append(span)

    def _pop(self, span):
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: mis-nested exit
            stack.remove(span)
        with self._lock:
            self._spans.append(span)
            if self._stream is not None:
                self._span_buffer.append(span.to_dict())
                # write only between top-level regions (e.g. between
                # training steps), so the file I/O never lands inside a
                # span that is still being timed
                if (len(self._span_buffer) >= self._flush_every
                        and len(stack) <= 1):
                    self._flush_spans_locked()

    # -- metrics --------------------------------------------------------

    def inc(self, name, amount=1):
        self.metrics.inc(name, amount)

    def set_gauge(self, name, value):
        self.metrics.set_gauge(name, value)

    def snapshot_metrics(self, step=None, wall_time=None):
        """Record (and optionally stream) the current metric levels."""
        snapshot = self.metrics.snapshot()
        if step is not None:
            snapshot["step"] = step
        if wall_time is not None:
            snapshot["wall_time"] = wall_time
        with self._lock:
            self._snapshots.append(snapshot)
            if self._metrics_stream is not None:
                self._snapshot_buffer.append(snapshot)
                if len(self._snapshot_buffer) >= self._flush_every:
                    self._flush_snapshots_locked()
        return snapshot

    # -- persistence ----------------------------------------------------

    def _flush_spans_locked(self):
        if not self._span_buffer:
            return
        lines = "".join(_encode(record) + "\n"
                        for record in self._span_buffer)
        with open(self._stream, "a", encoding="utf-8") as handle:
            handle.write(lines)
        self._span_buffer.clear()

    def _flush_snapshots_locked(self):
        if not self._snapshot_buffer:
            return
        lines = "".join(_encode(record) + "\n"
                        for record in self._snapshot_buffer)
        with open(self._metrics_stream, "a", encoding="utf-8") as handle:
            handle.write(lines)
        self._snapshot_buffer.clear()

    def flush(self):
        """Write any buffered spans/snapshots to their JSONL streams."""
        with self._lock:
            if self._stream is not None:
                self._flush_spans_locked()
            if self._metrics_stream is not None:
                self._flush_snapshots_locked()

    # -- export ---------------------------------------------------------

    def spans(self):
        """Closed spans as dicts, in completion order."""
        with self._lock:
            return [span.to_dict() for span in self._spans]

    def snapshots(self):
        with self._lock:
            return list(self._snapshots)

    def export(self):
        """Picklable ``{spans, counters, epoch_unix}`` for pool round-trips."""
        snapshot = self.metrics.snapshot()
        return {
            "spans": self.spans(),
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "epoch_unix": self.epoch_unix,
        }

    def adopt(self, obs_data, name="suite.cell", label=None, parent=None):
        """Graft spans exported by another tracer under this one.

        ``obs_data`` is an :meth:`export` dict — possibly produced in a
        process-pool worker and pickled back with its result.  Span ids
        are remapped into this tracer's id space, times are shifted by the
        ``epoch_unix`` delta so both timelines share one clock, and former
        root spans are re-parented under a synthetic ``name`` span covering
        the adopted extent.  Worker counters fold into this tracer's
        metrics.  Returns the synthetic span's id (``None`` if there was
        nothing to adopt).
        """
        spans = obs_data.get("spans") or []
        counters = obs_data.get("counters") or {}
        if counters:
            self.metrics.merge_counters(counters)
        if not spans:
            return None
        shift = obs_data.get("epoch_unix", self.epoch_unix) - self.epoch_unix
        with self._lock:
            id_map = {}
            for record in spans:
                id_map[record["id"]] = self._next_id
                self._next_id += 1
            cell_id = self._next_id
            self._next_id += 1
        starts, ends = [], []
        adopted = []
        for record in spans:
            span = Span(record["name"], id_map[record["id"]], None,
                        record.get("thread", "adopted"),
                        record["start"] + shift, record.get("attrs"))
            old_parent = record.get("parent")
            span.parent_id = (id_map[old_parent]
                              if old_parent in id_map else cell_id)
            end = record.get("end")
            span.end = None if end is None else end + shift
            starts.append(span.start)
            if span.end is not None:
                ends.append(span.end)
            adopted.append(span)
        cell = Span(name, cell_id, parent, "adopted",
                    min(starts) if starts else 0.0,
                    {"label": label} if label else None)
        cell.end = max(ends) if ends else cell.start
        with self._lock:
            self._spans.append(cell)
            self._spans.extend(adopted)
            if self._stream is not None:
                self._span_buffer.append(cell.to_dict())
                self._span_buffer.extend(s.to_dict() for s in adopted)
                if len(self._span_buffer) >= self._flush_every:
                    self._flush_spans_locked()
        return cell_id
