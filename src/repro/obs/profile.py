"""Readers and reports over persisted ``spans.jsonl`` / ``metrics.jsonl``.

Everything here consumes the plain-dict span records written by
:class:`repro.obs.tracer.Tracer` (or returned by ``Tracer.spans()``) —
no live tracer required, so ``repro runs profile`` works on any stored
run, including ones produced on another machine.
"""

from __future__ import annotations

import json

__all__ = ["read_jsonl", "aggregate_tree", "render_tree", "phase_table",
           "render_phase_table", "sampler_overhead", "chrome_trace",
           "metrics_summary", "format_metrics_summary"]

#: trainer phases reported by the per-step breakdown, in display order
PHASES = ("train.sample", "train.forward", "train.backward",
          "train.optimizer", "train.replay", "replay.compile",
          "train.validate")


def read_jsonl(path):
    """Load a JSONL file, tolerating a torn final line (crash mid-write).

    Mirrors ``history_from_jsonl``: a line that fails to parse ends the
    stream instead of raising, so a run killed mid-flush still profiles.
    """
    records = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    break
    except FileNotFoundError:
        pass
    return records


def _closed(spans):
    return [s for s in spans if s.get("end") is not None]


def _name_paths(spans):
    """Map each span to its ancestry name path, e.g. ``train.run/train.step``.

    Spans whose parent is missing from the record set (torn tails, adopted
    fragments) root at their own name.
    """
    by_id = {s["id"]: s for s in spans}
    paths = {}

    def path_of(span):
        key = span["id"]
        if key in paths:
            return paths[key]
        parent = by_id.get(span.get("parent"))
        prefix = path_of(parent) + "/" if parent is not None else ""
        paths[key] = prefix + span["name"]
        return paths[key]

    for span in spans:
        path_of(span)
    return paths


def aggregate_tree(spans):
    """Aggregate closed spans by ancestry path.

    Returns ``[(path, count, total_seconds)]`` sorted so children follow
    their parents (depth-first by path), ready for :func:`render_tree`.
    """
    spans = _closed(spans)
    paths = _name_paths(spans)
    totals = {}
    for span in spans:
        path = paths[span["id"]]
        count, total = totals.get(path, (0, 0.0))
        totals[path] = (count + 1, total + (span["end"] - span["start"]))
    return [(path, count, total)
            for path, (count, total) in sorted(totals.items())]


def render_tree(spans):
    """ASCII tree of aggregated span timings."""
    rows = aggregate_tree(spans)
    if not rows:
        return "no spans recorded"
    lines = [f"{'span':<44} {'count':>7} {'total':>10} {'avg':>10}"]
    lines.append("-" * 74)
    for path, count, total in rows:
        depth = path.count("/")
        name = "  " * depth + path.rsplit("/", 1)[-1]
        avg = total / count if count else 0.0
        lines.append(f"{name:<44} {count:>7} {total:>9.3f}s "
                     f"{avg * 1e3:>8.2f}ms")
    return "\n".join(lines)


def phase_table(spans):
    """Per-step phase breakdown against ``train.step`` wall time.

    Returns a dict with ``steps`` (count of ``train.step`` spans),
    ``step_seconds`` (their summed wall time), ``phases`` mapping each
    entry of :data:`PHASES` to ``{count, seconds, per_step, share}``, and
    ``coverage`` — the fraction of step wall time the listed phases
    account for (the acceptance bar is >= 0.9 at smoke scale).
    """
    spans = _closed(spans)
    step_spans = [s for s in spans if s["name"] == "train.step"]
    step_seconds = sum(s["end"] - s["start"] for s in step_spans)
    steps = len(step_spans)
    phases = {}
    covered = 0.0
    for phase in PHASES:
        matching = [s for s in spans if s["name"] == phase]
        seconds = sum(s["end"] - s["start"] for s in matching)
        phases[phase] = {
            "count": len(matching),
            "seconds": seconds,
            "per_step": seconds / steps if steps else 0.0,
            "share": seconds / step_seconds if step_seconds else 0.0,
        }
        covered += seconds
    return {
        "steps": steps,
        "step_seconds": step_seconds,
        "phases": phases,
        "coverage": covered / step_seconds if step_seconds else 0.0,
    }


def render_phase_table(table):
    lines = [f"{'phase':<18} {'count':>7} {'total':>10} {'per-step':>10} "
             f"{'share':>7}"]
    lines.append("-" * 56)
    for phase in PHASES:
        row = table["phases"][phase]
        if not row["count"]:
            continue
        lines.append(f"{phase:<18} {row['count']:>7} {row['seconds']:>9.3f}s "
                     f"{row['per_step'] * 1e3:>8.2f}ms "
                     f"{row['share'] * 100:>6.1f}%")
    lines.append("-" * 56)
    lines.append(f"{'train.step':<18} {table['steps']:>7} "
                 f"{table['step_seconds']:>9.3f}s "
                 f"{'':>10} {table['coverage'] * 100:>6.1f}%")
    return "\n".join(lines)


def sampler_overhead(spans, snapshots=None):
    """Sampler-overhead-vs-training accounting (the paper's Table-1 ratio).

    ``overhead`` sums ``sampler.rebuild`` + ``sampler.refresh`` span time;
    ``ratio`` divides it by summed ``train.step`` time.  ``probe_points``
    comes from the final metrics snapshot when available.
    """
    spans = _closed(spans)
    rebuild = sum(s["end"] - s["start"] for s in spans
                  if s["name"] == "sampler.rebuild")
    refresh = sum(s["end"] - s["start"] for s in spans
                  if s["name"] == "sampler.refresh")
    training = sum(s["end"] - s["start"] for s in spans
                   if s["name"] == "train.step")
    probe_points = None
    if snapshots:
        probe_points = snapshots[-1].get("gauges", {}).get(
            "sampler.probe_points")
    overhead = rebuild + refresh
    return {
        "rebuild_seconds": rebuild,
        "refresh_seconds": refresh,
        "overhead_seconds": overhead,
        "train_seconds": training,
        "ratio": overhead / training if training else 0.0,
        "probe_points": probe_points,
    }


def chrome_trace(spans, epoch_unix=None):
    """Spans as a Chrome Trace Event JSON object (open in Perfetto).

    Complete ("X") events with microsecond timestamps; thread names map
    to small integer tids via ``thread_name`` metadata events.
    """
    spans = _closed(spans)
    tids = {}
    events = []
    for span in spans:
        thread = span.get("thread", "main")
        if thread not in tids:
            tids[thread] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1,
                "tid": tids[thread], "args": {"name": thread},
            })
        event = {
            "name": span["name"], "ph": "X", "pid": 1,
            "tid": tids[thread],
            "ts": span["start"] * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
        }
        if span.get("attrs"):
            event["args"] = span["attrs"]
        events.append(event)
    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    if epoch_unix is not None:
        trace["otherData"] = {"epoch_unix": epoch_unix}
    return trace


def metrics_summary(snapshots):
    """One-line-worthy numbers from the last metrics snapshot.

    Returns ``None`` when there are no snapshots; otherwise a dict with
    ``steps_per_second`` (train.steps / clock.train_seconds),
    ``sampler_overhead_fraction`` ((rebuild+refresh seconds) / train) and
    ``replay_fallbacks`` (refused + stale).
    """
    if not snapshots:
        return None
    last = snapshots[-1]
    counters = last.get("counters", {})
    gauges = last.get("gauges", {})
    seconds = gauges.get("clock.train_seconds") or 0.0
    steps = counters.get("train.steps", 0)
    overhead = (counters.get("sampler.rebuild_seconds", 0.0)
                + counters.get("sampler.refresh_seconds", 0.0))
    return {
        "steps": steps,
        "steps_per_second": steps / seconds if seconds else 0.0,
        "sampler_overhead_fraction": overhead / seconds if seconds else 0.0,
        "replay_fallbacks": (counters.get("replay.fallback_refused", 0)
                             + counters.get("replay.fallback_stale", 0)),
    }


def format_metrics_summary(summary):
    if summary is None:
        return None
    return (f"{summary['steps_per_second']:.1f} steps/s; "
            f"sampler overhead "
            f"{summary['sampler_overhead_fraction'] * 100:.1f}%; "
            f"replay fallbacks {summary['replay_fallbacks']}")
