"""End-to-end tracing: trainer phases, replay counters, pools, and the CLI.

The three guarantees under test: tracing is observation-only (trajectories
byte-identical with it on), it costs at most 5% of a step, and the
recorded spans actually account for the step (phase coverage, sampler
overhead, pool round trips).
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

import repro
from repro import obs
from repro.api.session import _wire_training
from repro.cli import main
from repro.store import RunStore


def _session(sampler="sgm", **overrides):
    return (repro.problem("burgers", scale="smoke")
            .config(record_every=2, **overrides)
            .sampler(sampler)
            .n_interior(400)
            .validators([]))


@pytest.fixture(scope="module")
def traced_run():
    return _session().trace().train(steps=12)


class TestTracedTraining:
    def test_tracing_does_not_change_the_trajectory(self, traced_run):
        plain = _session().train(steps=12)
        np.testing.assert_array_equal(plain.history.losses,
                                      traced_run.history.losses)
        assert plain.obs is None

    def test_ambient_tracer_uninstalled_after_run(self, traced_run):
        assert obs.tracer() is None

    def test_phase_coverage(self, traced_run):
        spans = traced_run.obs["spans"]
        table = obs.phase_table(spans)
        assert table["steps"] == 12
        # the instrumented phases must account for >= 90% of step time
        assert table["coverage"] >= 0.9
        for phase in ("train.sample", "train.forward", "train.backward",
                      "train.optimizer"):
            assert table["phases"][phase]["count"] == 12

    def test_span_hierarchy(self, traced_run):
        spans = traced_run.obs["spans"]
        by_id = {s["id"]: s for s in spans}
        steps = [s for s in spans if s["name"] == "train.step"]
        runs = [s for s in spans if s["name"] == "train.run"]
        assert len(runs) == 1
        assert all(s["parent"] == runs[0]["id"] for s in steps)
        assert all(s["attrs"]["mode"] == "eager" for s in steps)
        forwards = [s for s in spans if s["name"] == "train.forward"]
        assert all(by_id[s["parent"]]["name"] == "train.step"
                   for s in forwards)
        rebuilds = [s for s in spans if s["name"] == "sampler.rebuild"]
        assert rebuilds, "SGM build_clusters must record a rebuild span"
        names = {s["name"] for s in spans}
        assert "sampler.knn_build" in names
        assert "sampler.cluster_update" in names

    def test_counters_and_snapshots(self, traced_run):
        counters = dict(traced_run.obs["counters"])
        assert counters["train.steps"] == 12
        assert counters["sampler.rebuild_count"] >= 1
        assert counters["sampler.rebuild_seconds"] > 0.0


class TestOverhead:
    STEPS = 150

    @staticmethod
    def _trainer():
        """A fresh burgers x sgm smoke trainer, wired as ``run_problem``
        wires it (so outside any tracer, like the sampler's first build)."""
        session = repro.problem("burgers", scale="smoke").sampler("sgm")
        config = session._config
        trainer, _ = _wire_training(session.build(), config, "sgm",
                                    config.batch_small, config.seed, [])
        return trainer, config

    def _train_seconds(self):
        trainer, config = self._trainer()
        started = time.perf_counter()
        trainer.train(self.STEPS, validate_every=config.validate_every,
                      record_every=config.record_every)
        return time.perf_counter() - started

    @staticmethod
    def _seconds_per_call(call, n=500, repeats=10):
        """Best-of-``repeats`` seconds per ``call(i)`` over ``n`` calls."""
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for i in range(n):
                call(i)
            best = min(best, (time.perf_counter() - started) / n)
        return best

    def test_tracing_costs_at_most_five_percent_of_a_step(self, tmp_path,
                                                          monkeypatch):
        """A wall-clock A/B of traced against untraced runs is noise-bound
        on a small shared host: single pairs of this run differ by tens of
        percent.  So the overhead is assembled from steady parts: the
        tracer calls one traced run makes (a deterministic count), times
        each call's cost on a real streaming tracer (best of tight loops),
        over the untraced run's time (best of 3)."""
        untraced = min(self._train_seconds() for _ in range(3))

        calls = Counter()

        class CountingTracer(obs.Tracer):
            def span(self, *args, **kwargs):
                calls["span"] += 1
                return super().span(*args, **kwargs)

            def inc(self, *args, **kwargs):
                calls["inc"] += 1
                return super().inc(*args, **kwargs)

            def set_gauge(self, *args, **kwargs):
                calls["set_gauge"] += 1
                return super().set_gauge(*args, **kwargs)

            def snapshot_metrics(self, *args, **kwargs):
                calls["snapshot_metrics"] += 1
                return super().snapshot_metrics(*args, **kwargs)

        trainer, config = self._trainer()
        with monkeypatch.context() as patch:
            patch.setattr(obs, "Tracer", CountingTracer)
            with obs.tracing():
                trainer.train(self.STEPS,
                              validate_every=config.validate_every,
                              record_every=config.record_every)
        assert calls["span"] >= self.STEPS   # one train.step span each

        def span(i):
            with obs.span("train.step", step=i):
                pass

        with obs.tracing(stream=tmp_path / "spans.jsonl",
                         metrics_stream=tmp_path / "metrics.jsonl"):
            with obs.span("train.run"):   # step spans flush under the run
                cost = {
                    "span": self._seconds_per_call(span),
                    "inc": self._seconds_per_call(
                        lambda i: obs.inc("train.steps")),
                    "set_gauge": self._seconds_per_call(
                        lambda i: obs.gauge("train.loss", 0.5)),
                    "snapshot_metrics": self._seconds_per_call(
                        lambda i: obs.snapshot_metrics(step=i,
                                                       wall_time=0.0)),
                }
        traced_extra = sum(calls[name] * cost[name] for name in cost)
        overhead = traced_extra / untraced
        assert overhead <= 0.05, (overhead, dict(calls), cost, untraced)


class TestReplayTracing:
    def test_replay_spans_and_compile_counters(self):
        result = _session().compile().trace().train(steps=12)
        eager = _session().compile().train(steps=12)
        np.testing.assert_array_equal(eager.history.losses,
                                      result.history.losses)
        counters = dict(result.obs["counters"])
        names = {s["name"] for s in result.obs["spans"]}
        assert "replay.compile" in names
        if counters.get("replay.compile_count"):
            assert "train.replay" in names
            assert counters["replay.compile_seconds"] > 0.0
            gauges = dict(result.obs["gauges"])
            assert gauges["replay.instructions"] > 0
        else:
            assert counters.get("replay.fallback_refused", 0) >= 1


class TestPoolRoundTrip:
    def test_process_suite_reparents_worker_spans(self):
        suite = _session().trace().suite(["uniform", "sgm"],
                                         backend="process", steps=6,
                                         max_workers=2)
        spans = suite.obs["spans"]
        by_id = {s["id"]: s for s in spans}
        root = [s for s in spans if s["name"] == "suite.run"]
        cells = [s for s in spans if s["name"] == "suite.cell"]
        assert len(root) == 1 and len(cells) == 2
        labels = {c["attrs"]["label"] for c in cells}
        assert labels == {"burgers:smoke:U32", "burgers:smoke:SGM32"}
        assert all(c["parent"] == root[0]["id"] for c in cells)
        # every adopted train.run hangs off a cell, and ids are unique
        train_runs = [s for s in spans if s["name"] == "train.run"]
        assert len(train_runs) == 2
        cell_ids = {c["id"] for c in cells}
        assert all(s["parent"] in cell_ids for s in train_runs)
        ids = [s["id"] for s in spans]
        assert len(ids) == len(set(ids))
        # worker counters merged across both cells
        assert dict(suite.obs["counters"])["train.steps"] == 12

    def test_serial_suite_matches_shape(self):
        suite = _session().trace().suite(["uniform", "sgm"],
                                         backend="serial", steps=6)
        cells = [s for s in suite.obs["spans"] if s["name"] == "suite.cell"]
        assert {c["attrs"]["label"] for c in cells} == {"burgers:smoke:U32",
                                                        "burgers:smoke:SGM32"}


class TestStoreAndCli:
    @pytest.fixture(scope="class")
    def store_root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("obs-store")
        result = _session().trace().train(steps=12, store=root,
                                          checkpoint_every=6)
        return root, result.run_id

    def test_record_persists_spans_and_metrics(self, store_root):
        root, run_id = store_root
        record = RunStore(root).open(run_id)
        spans = record.spans()
        assert spans and all("name" in s for s in spans)
        snapshots = record.metrics_snapshots()
        assert snapshots
        assert record.last_metrics()["counters"]["train.steps"] == 12

    def test_profile_text_report(self, store_root, capsys):
        root, run_id = store_root
        assert main(["runs", "--store", str(root), "profile", run_id]) == 0
        out = capsys.readouterr().out
        assert "train.step" in out
        assert "phase" in out
        assert "sampler overhead" in out

    def test_profile_accounts_for_step_time(self, store_root):
        """Acceptance: phase table sums within 10% of step wall time."""
        root, run_id = store_root
        record = RunStore(root).open(run_id)
        table = obs.phase_table(record.spans())
        assert table["steps"] == 12
        assert 0.9 <= table["coverage"] <= 1.1

    def test_profile_latest_resolves_newest(self, store_root, capsys):
        root, _ = store_root
        assert main(["runs", "--store", str(root), "profile", "latest"]) == 0

    def test_profile_chrome_export(self, store_root, tmp_path, capsys):
        root, run_id = store_root
        out_path = tmp_path / "trace.json"
        assert main(["runs", "--store", str(root), "profile", run_id,
                     "--format", "chrome", "--out", str(out_path)]) == 0
        trace = json.loads(out_path.read_text())
        assert {e["ph"] for e in trace["traceEvents"]} == {"X", "M"}

    def test_profile_untraced_run_errors_with_hint(self, tmp_path, capsys):
        _session().train(steps=4, store=tmp_path)
        record_id = RunStore(tmp_path).runs()[0].run_id
        assert main(["runs", "--store", str(tmp_path), "profile",
                     record_id]) == 2
        assert "--trace" in capsys.readouterr().out

    def test_runs_show_metrics_line(self, store_root, capsys):
        root, run_id = store_root
        assert main(["runs", "--store", str(root), "show", run_id]) == 0
        out = capsys.readouterr().out
        assert "steps/s" in out
        assert "sampler overhead" in out

    def test_resume_appends_to_the_same_streams(self, store_root):
        root, run_id = store_root
        before = len(RunStore(root).open(run_id).spans())
        assert main(["runs", "--store", str(root), "resume", run_id,
                     "--steps", "16", "--trace"]) == 0
        record = RunStore(root).open(run_id)
        assert len(record.spans()) > before
        # the resumed stretch ran steps 13..16 under a fresh tracer
        assert record.last_metrics()["counters"]["train.steps"] == 4


class TestCliTraceFlags:
    def test_run_trace_prints_profile_pointer(self, tmp_path, capsys):
        assert main(["run", "burgers", "--sampler", "sgm", "--steps", "6",
                     "--scale", "smoke", "--store", str(tmp_path),
                     "--trace"]) == 0
        assert "profile" in capsys.readouterr().out

    def test_suite_trace_prints_cell_utilization(self, capsys):
        assert main(["suite", "burgers", "--samplers", "uniform,sgm",
                     "--steps", "6", "--scale", "smoke", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "cell utilization" in out
        assert "SGM32" in out
