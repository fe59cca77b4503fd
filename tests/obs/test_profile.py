"""Unit tests for the profile reports (pure functions over span dicts)."""

from repro.obs import (aggregate_tree, chrome_trace, format_metrics_summary,
                       metrics_summary, phase_table, render_phase_table,
                       render_tree, sampler_overhead)


def _span(name, sid, parent, start, end, thread="MainThread", attrs=None):
    record = {"name": name, "id": sid, "parent": parent, "thread": thread,
              "start": start, "end": end}
    if attrs:
        record["attrs"] = attrs
    return record


def _step_spans():
    """Two steps of a toy run: sample/forward/backward/optimizer inside."""
    spans = []
    sid = 1
    spans.append(_span("train.run", sid, None, 0.0, 2.0))
    for step, start in enumerate((0.0, 1.0)):
        step_id = sid + 1
        spans.append(_span("train.step", step_id, 1, start, start + 0.9))
        offsets = (("train.sample", 0.0, 0.2), ("train.forward", 0.2, 0.5),
                   ("train.backward", 0.5, 0.7), ("train.optimizer", 0.7, 0.85))
        for i, (name, lo, hi) in enumerate(offsets):
            spans.append(_span(name, step_id + 1 + i, step_id,
                               start + lo, start + hi))
        sid = step_id + len(offsets)
    return spans


class TestAggregateTree:
    def test_paths_counts_and_totals(self):
        rows = dict((path, (count, total)) for path, count, total
                    in aggregate_tree(_step_spans()))
        assert rows["train.run"] == (1, 2.0)
        count, total = rows["train.run/train.step"]
        assert count == 2 and abs(total - 1.8) < 1e-9
        count, total = rows["train.run/train.step/train.forward"]
        assert count == 2 and abs(total - 0.6) < 1e-9

    def test_orphan_parent_roots_at_own_name(self):
        rows = aggregate_tree([_span("lost", 5, 999, 0.0, 1.0)])
        assert rows == [("lost", 1, 1.0)]

    def test_open_spans_excluded(self):
        spans = [_span("open", 1, None, 0.0, None)]
        assert aggregate_tree(spans) == []

    def test_render_tree_indents_children(self):
        text = render_tree(_step_spans())
        assert "train.run" in text
        assert "  train.step" in text
        assert "    train.forward" in text
        assert render_tree([]) == "no spans recorded"


class TestPhaseTable:
    def test_coverage_and_shares(self):
        table = phase_table(_step_spans())
        assert table["steps"] == 2
        assert abs(table["step_seconds"] - 1.8) < 1e-9
        # 0.85s of phases per 0.9s step
        assert abs(table["coverage"] - 0.85 / 0.9) < 1e-9
        forward = table["phases"]["train.forward"]
        assert forward["count"] == 2
        assert abs(forward["per_step"] - 0.3) < 1e-9
        assert table["phases"]["train.validate"]["count"] == 0

    def test_no_steps_is_all_zero(self):
        table = phase_table([])
        assert table["steps"] == 0 and table["coverage"] == 0.0

    def test_render_skips_empty_phases(self):
        text = render_phase_table(phase_table(_step_spans()))
        assert "train.forward" in text
        assert "train.validate" not in text
        assert "train.step" in text


class TestSamplerOverhead:
    def test_ratio(self):
        spans = _step_spans() + [
            _span("sampler.rebuild", 50, None, 0.0, 0.3),
            _span("sampler.refresh", 51, None, 1.0, 1.15),
        ]
        snapshots = [{"gauges": {"sampler.probe_points": 640}}]
        stats = sampler_overhead(spans, snapshots)
        assert abs(stats["overhead_seconds"] - 0.45) < 1e-9
        assert abs(stats["ratio"] - 0.45 / 1.8) < 1e-9
        assert stats["probe_points"] == 640

    def test_no_training_time(self):
        stats = sampler_overhead([])
        assert stats["ratio"] == 0.0 and stats["probe_points"] is None


class TestChromeTrace:
    def test_events_and_thread_metadata(self):
        spans = [_span("train.step", 1, None, 0.5, 1.5),
                 _span("background", 2, 1, 0.6, 0.7, thread="worker-0",
                       attrs={"k": 1})]
        trace = chrome_trace(spans, epoch_unix=123.0)
        kinds = {e["ph"] for e in trace["traceEvents"]}
        assert kinds == {"X", "M"}
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["ts"] == 0.5e6
        assert complete[0]["dur"] == 1.0e6
        assert complete[1]["args"] == {"k": 1}
        metas = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"MainThread",
                                                      "worker-0"}
        # the two spans landed on distinct integer tids
        assert complete[0]["tid"] != complete[1]["tid"]
        assert trace["otherData"] == {"epoch_unix": 123.0}


class TestMetricsSummary:
    def test_summary_from_last_snapshot(self):
        snapshots = [
            {"counters": {"train.steps": 5}, "gauges": {}},
            {"counters": {"train.steps": 10, "sampler.rebuild_seconds": 0.5,
                          "sampler.refresh_seconds": 0.5,
                          "replay.fallback_stale": 1},
             "gauges": {"clock.train_seconds": 4.0}},
        ]
        summary = metrics_summary(snapshots)
        assert summary["steps"] == 10
        assert summary["steps_per_second"] == 2.5
        assert summary["sampler_overhead_fraction"] == 0.25
        assert summary["replay_fallbacks"] == 1
        line = format_metrics_summary(summary)
        assert line == "2.5 steps/s; sampler overhead 25.0%; replay fallbacks 1"

    def test_empty_is_none(self):
        assert metrics_summary([]) is None
        assert format_metrics_summary(None) is None
