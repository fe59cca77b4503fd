"""Unit tests for the span tracer, metrics registry, and JSONL readers."""

import json
import pickle
import threading

import pytest

from repro import obs
from repro.obs import METRICS, MetricsRegistry, Tracer, read_jsonl
from repro.obs.names import register_metric


class TestSpanNesting:
    def test_same_thread_nesting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert tracer.current_id() == outer.span_id
        assert tracer.current_id() is None
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert all(s["end"] is not None for s in spans)

    def test_explicit_root_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("floating", parent=None) as span:
                span.set(mode="replay")
        floating = [s for s in tracer.spans() if s["name"] == "floating"][0]
        assert floating["parent"] is None
        assert floating["attrs"] == {"mode": "replay"}

    def test_cross_thread_nesting_with_explicit_parent(self):
        """A worker thread parents its spans under the submitting span."""
        tracer = Tracer()
        recorded = {}

        def worker(parent_id):
            with tracer.span("background", parent=parent_id) as span:
                recorded["parent"] = span.parent_id
                # the worker's own stack nests normally below that
                with tracer.span("background.child") as child:
                    recorded["child_parent"] = child.parent_id

        with tracer.span("train.step") as step:
            thread = threading.Thread(target=worker,
                                      args=(tracer.current_id(),))
            thread.start()
            thread.join()
            # the worker's stack never leaked into this thread
            assert tracer.current_id() == step.span_id
        assert recorded["parent"] == step.span_id
        background = [s for s in tracer.spans()
                      if s["name"] == "background"][0]
        assert recorded["child_parent"] == background["id"]

    def test_concurrent_threads_keep_separate_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)
        parents = {}

        def worker(label):
            with tracer.span(f"root.{label}") as root:
                barrier.wait()
                with tracer.span(f"leaf.{label}") as leaf:
                    parents[label] = (leaf.parent_id, root.span_id)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for label in ("a", "b"):
            leaf_parent, root_id = parents[label]
            assert leaf_parent == root_id

    def test_thread_name_recorded(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        assert tracer.spans()[0]["thread"] == threading.current_thread().name


class TestDisabledMode:
    def test_module_helpers_are_noops(self):
        assert not obs.enabled()
        assert obs.tracer() is None
        assert obs.span("anything") is obs.NOOP_SPAN
        assert obs.current() is None
        obs.inc("train.steps")          # no registry -> silently dropped
        obs.gauge("train.loss", 1.0)
        obs.snapshot_metrics(step=0)
        with obs.span("nested") as span:
            assert span is obs.NOOP_SPAN
            span.set(ignored=True)
        assert span.seconds() == 0.0

    def test_timed_span_measures_without_tracer(self):
        with obs.timed_span("sampler.rebuild") as timer:
            total = sum(range(1000))
        assert total == 499500
        assert timer.seconds >= 0.0
        timer.set(ignored=True)  # no span -> no-op, no error

    def test_stopwatch_measures(self):
        with obs.stopwatch() as watch:
            pass
        assert watch.seconds >= 0.0

    def test_tracing_installs_and_restores(self):
        assert obs.tracer() is None
        with obs.tracing() as outer_tracer:
            assert obs.tracer() is outer_tracer
            with obs.tracing() as inner_tracer:
                assert obs.tracer() is inner_tracer
            assert obs.tracer() is outer_tracer
        assert obs.tracer() is None


class TestMetrics:
    def test_catalog_is_closed(self):
        registry = MetricsRegistry()
        registry.inc("train.steps")
        registry.set_gauge("train.loss", 0.5)
        with pytest.raises(KeyError):
            registry.inc("train.stpes")        # typo
        with pytest.raises(KeyError):
            registry.set_gauge("no.such.gauge", 1.0)
        # right name, wrong kind
        with pytest.raises(KeyError):
            registry.inc("train.loss")
        with pytest.raises(KeyError):
            registry.set_gauge("train.steps", 3)

    def test_catalog_entries_are_described(self):
        for name, (kind, description) in METRICS.items():
            assert kind in ("counter", "gauge"), name
            assert description, name

    def test_register_metric_rejects_kind_change(self):
        with pytest.raises(ValueError):
            register_metric("train.steps", "gauge", "conflicting kind")

    def test_snapshot_sorted_and_merge_counters(self):
        registry = MetricsRegistry()
        registry.inc("train.steps", 3)
        registry.inc("sampler.rebuild_count")
        registry.merge_counters({"train.steps": 2,
                                 "sampler.refresh_count": 1})
        snapshot = registry.snapshot()
        assert snapshot["counters"]["train.steps"] == 5
        assert snapshot["counters"]["sampler.refresh_count"] == 1
        assert list(snapshot["counters"]) == sorted(snapshot["counters"])


class TestAdoption:
    def _worker_export(self):
        worker = Tracer()
        with worker.span("train.run") as run:
            with worker.span("train.step"):
                pass
        worker.inc("train.steps")
        return worker.export(), run.span_id

    def test_adopt_reparents_and_remaps(self):
        export, _ = self._worker_export()
        # simulate the process-pool result round trip
        export = pickle.loads(pickle.dumps(export))
        parent = Tracer()
        with parent.span("suite.run") as root:
            cell_id = parent.adopt(export, name="suite.cell",
                                   label="burgers:smoke:SGM32",
                                   parent=root.span_id)
        spans = {s["name"]: s for s in parent.spans()}
        cell = spans["suite.cell"]
        assert cell["id"] == cell_id
        assert cell["parent"] == root.span_id
        assert cell["attrs"] == {"label": "burgers:smoke:SGM32"}
        # former worker root now hangs off the cell; child follows its parent
        assert spans["train.run"]["parent"] == cell_id
        assert spans["train.step"]["parent"] == spans["train.run"]["id"]
        # worker ids were remapped into the parent's id space (no collisions)
        ids = [s["id"] for s in parent.spans()]
        assert len(ids) == len(set(ids))
        # worker counters folded into the parent's registry
        assert parent.metrics.snapshot()["counters"]["train.steps"] == 1

    def test_adopt_empty_export_is_noop(self):
        parent = Tracer()
        assert parent.adopt({"spans": [], "counters": {}}) is None
        assert parent.spans() == []


class TestPersistence:
    def test_spans_stream_and_flush(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(stream=path, flush_every=2)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass                       # second close triggers the flush
        assert len(read_jsonl(path)) == 2
        with tracer.span("c"):
            pass
        tracer.flush()
        assert [r["name"] for r in read_jsonl(path)] == ["a", "b", "c"]

    def test_flush_waits_until_the_timed_region_closes(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(stream=path, flush_every=2)
        with tracer.span("run"):
            with tracer.span("step"):
                with tracer.span("a"):
                    pass
                with tracer.span("b"):
                    pass               # buffer full, but "step" is timed
                assert not path.exists()
            # closing the step leaves only "run" open: the write lands
            # between steps, outside every timed step
            assert [r["name"] for r in read_jsonl(path)] == ["a", "b",
                                                             "step"]

    def test_streamed_lines_are_sorted_key_json(self, tmp_path):
        spans, metrics = tmp_path / "spans.jsonl", tmp_path / "metrics.jsonl"
        tracer = Tracer(stream=spans, metrics_stream=metrics)
        with tracer.span("outer", zeta=1, alpha="a"):
            with tracer.span("inner"):
                pass
        tracer.inc("train.steps")
        tracer.snapshot_metrics(step=3, wall_time=0.25)
        tracer.flush()
        for path in (spans, metrics):
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines
            assert lines == [json.dumps(record, sort_keys=True)
                             for record in read_jsonl(path)]

    def test_metrics_stream(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        tracer = Tracer(metrics_stream=path)
        tracer.inc("train.steps")
        tracer.snapshot_metrics(step=0, wall_time=0.5)
        tracer.flush()
        records = read_jsonl(path)
        assert records[0]["counters"]["train.steps"] == 1
        assert records[0]["step"] == 0

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        line = json.dumps({"name": "train.step", "id": 1, "parent": None,
                           "thread": "main", "start": 0.0, "end": 0.1})
        path.write_text(line + "\n" + line[: len(line) // 2])
        records = read_jsonl(path)
        assert len(records) == 1
        assert records[0]["name"] == "train.step"

    def test_missing_file_gives_empty_list(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == []
