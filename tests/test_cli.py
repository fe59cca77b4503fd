"""CLI surface: parser wiring and the cheap commands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_info_runs(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro.sampling" in out
    assert "SGM" in out


def test_problems_lists_registries(capsys):
    assert main(["problems"]) == 0
    out = capsys.readouterr().out
    for name in ("ldc", "annular_ring", "burgers", "poisson3d",
                 "uniform", "mis", "sgm", "sgm_s"):
        assert name in out


def test_run_parser_accepts_problem_and_sampler():
    parser = build_parser()
    args = parser.parse_args(["run", "poisson3d", "--sampler", "sgm",
                              "--steps", "5"])
    assert args.problem == "poisson3d"
    assert args.sampler == "sgm" and args.steps == 5


def test_run_rejects_unknown_names_via_registry(capsys):
    assert main(["run", "not_a_problem"]) == 2
    out = capsys.readouterr().out
    assert "unknown problem" in out and "ldc" in out
    assert main(["run", "ldc", "--sampler", "not_a_sampler"]) == 2
    out = capsys.readouterr().out
    assert "unknown sampler" in out and "sgm" in out


def test_run_burgers_smoke(capsys):
    assert main(["run", "burgers", "--sampler", "sgm", "--steps", "6",
                 "--n-interior", "400"]) == 0
    out = capsys.readouterr().out
    assert "burgers:sgm" in out
    assert "min err(u)" in out


def test_suite_parser_accepts_samplers_and_parallel():
    parser = build_parser()
    args = parser.parse_args(["suite", "ldc", "--samplers", "uniform,sgm",
                              "--parallel", "--max-workers", "2"])
    assert args.problem == "ldc"
    assert args.samplers == "uniform,sgm"
    assert args.parallel and args.max_workers == 2
    args = parser.parse_args(["suite", "burgers"])
    assert args.samplers is None and not args.parallel


def test_suite_smoke_serial(capsys):
    assert main(["suite", "burgers", "--samplers", "uniform,sgm",
                 "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert "training U32" in out and "training SGM32" in out
    assert "Suite (burgers, backend=serial)" in out
    assert "sweep total" in out and "2 methods" in out


def test_suite_smoke_parallel(capsys):
    assert main(["suite", "burgers", "--samplers", "uniform,mis",
                 "--steps", "4", "--parallel"]) == 0
    out = capsys.readouterr().out
    assert "Suite (burgers, backend=process)" in out


def test_suite_parser_accepts_backend_flags():
    parser = build_parser()
    args = parser.parse_args(["suite", "burgers", "--backend", "queue",
                              "--store", "runs", "--workers-external"])
    assert args.backend == "queue" and args.workers_external
    args = parser.parse_args(["suite", "burgers"])
    assert args.backend is None and not args.workers_external


def test_suite_queue_backend_smoke(tmp_path, capsys):
    store = str(tmp_path / "qruns")
    assert main(["suite", "burgers", "--samplers", "uniform",
                 "--steps", "4", "--backend", "queue",
                 "--store", store]) == 0
    out = capsys.readouterr().out
    assert "Suite (burgers, backend=queue)" in out
    assert "queue backend" in out


def test_suite_queue_backend_requires_store(capsys):
    assert main(["suite", "burgers", "--samplers", "uniform",
                 "--steps", "1", "--backend", "queue"]) == 2
    assert "needs a run store" in capsys.readouterr().out


def test_worker_parser_defaults():
    parser = build_parser()
    args = parser.parse_args(["worker", "runs", "--exit-when-idle",
                              "--lease-seconds", "5", "--max-tasks", "3"])
    assert args.command == "worker" and args.store == "runs"
    assert args.exit_when_idle and args.lease_seconds == 5.0
    assert args.max_tasks == 3 and args.poll == 0.5


def _queue_probe_task(task):
    return task * 10


def test_worker_drains_an_existing_queue(tmp_path, capsys):
    from repro.exec import TaskQueue, function_ref
    store = tmp_path / "runs"
    queue = TaskQueue.for_store(store)
    job_ids = queue.enqueue(function_ref(_queue_probe_task), [1, 2],
                            ["a", "b"])
    assert main(["worker", str(store), "--exit-when-idle"]) == 0
    out = capsys.readouterr().out
    assert "executed 2 task(s)" in out
    assert [queue.load_result(job_id) for job_id in job_ids] == [10, 20]


def test_suite_rejects_unknown_names_via_registry(capsys):
    assert main(["suite", "not_a_problem"]) == 2
    out = capsys.readouterr().out
    assert "unknown problem" in out and "ldc" in out
    assert main(["suite", "burgers", "--samplers", "uniform,bogus"]) == 2
    out = capsys.readouterr().out
    assert "unknown sampler" in out and "sgm" in out


def test_suite_rejects_duplicate_and_empty_samplers(capsys):
    assert main(["suite", "burgers", "--samplers", "uniform,uniform"]) == 2
    out = capsys.readouterr().out
    assert "duplicate" in out
    assert main(["suite", "burgers", "--samplers", ","]) == 2
    out = capsys.readouterr().out
    assert "at least one" in out


def test_parser_commands():
    parser = build_parser()
    args = parser.parse_args(["table1", "--scale", "smoke"])
    assert args.command == "table1" and args.scale == "smoke"
    args = parser.parse_args(["solve-ar", "--radius", "0.8"])
    assert args.radius == 0.8


def test_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_rejects_unknown_scale():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table1", "--scale", "huge"])


EXPERIMENT_TOML = """
[run]
problem = "burgers"
sampler = "sgm"
scale = "smoke"
steps = 8
n_interior = 300

[config]
record_every = 2

[store]
checkpoint_every = 4
"""


class TestRunConfigAndStore:
    def _write_config(self, tmp_path, store_root):
        path = tmp_path / "exp.toml"
        path.write_text(EXPERIMENT_TOML +
                        f'root = "{store_root.as_posix()}"\n')
        return path

    def test_run_with_config_records_into_store(self, tmp_path, capsys):
        config = self._write_config(tmp_path, tmp_path / "runs")
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "burgers:sgm" in out and "recorded as" in out

    def test_run_rejects_problem_plus_config(self, tmp_path, capsys):
        config = self._write_config(tmp_path, tmp_path / "runs")
        assert main(["run", "ldc", "--config", str(config)]) == 2
        assert "not both" in capsys.readouterr().out

    def test_run_requires_problem_config_or_resume(self, capsys):
        assert main(["run"]) == 2
        assert "--config" in capsys.readouterr().out

    def test_run_reports_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[run]\nsampler = \"sgm\"\n")   # no problem key
        assert main(["run", "--config", str(bad)]) == 2
        assert "problem" in capsys.readouterr().out

    @pytest.mark.parametrize("field",
                             ["tau_e", "validate_every", "record_every"])
    def test_zero_cadence_is_a_config_error(self, tmp_path, capsys, field):
        config = tmp_path / "exp.toml"
        store_root = tmp_path / "runs"
        config.write_text('[run]\nproblem = "burgers"\nsampler = "sgm"\n'
                          'scale = "smoke"\nsteps = 5\nn_interior = 300\n'
                          f'\n[config]\n{field} = 0\n'
                          f'\n[store]\nroot = "{store_root.as_posix()}"\n')
        assert main(["run", "--config", str(config)]) == 2
        out = capsys.readouterr().out
        assert "error:" in out and f"{field} must be >= 1" in out
        # refused before any record opens: no failed run left behind
        assert not store_root.exists() or not any(
            path.is_dir() for path in store_root.iterdir())

    def test_compare_unknown_baseline_exits_2_with_the_labels(self, tmp_path,
                                                              capsys):
        import repro
        store = tmp_path / "runs"
        session = (repro.problem("burgers", scale="smoke")
                   .config(record_every=2).n_interior(300))
        for _ in range(2):
            session.sampler("uniform").train(steps=4, store=store,
                                             label="same")
        from repro.store import RunStore
        second = RunStore(store).runs()[0].run_id     # newest first
        capsys.readouterr()

        args = ["runs", "--store", str(store), "compare", "--problem",
                "burgers"]
        assert main([*args, "--baseline", "nope"]) == 2
        out = capsys.readouterr().out
        assert "error: baseline 'nope'" in out
        assert f"burgers: same, same#{second[-6:]}" in out
        assert "Stored runs" not in out

        # the disambiguated column label names the second run
        assert main([*args, "--baseline", f"same#{second[-6:]}"]) == 0
        assert f"speedup(u) vs same#{second[-6:]}" in capsys.readouterr().out

    def test_runs_list_show_compare_resume_gc(self, tmp_path, capsys):
        config = self._write_config(tmp_path, tmp_path / "runs")
        store = ["--store", str(tmp_path / "runs")]
        assert main(["run", "--config", str(config)]) == 0
        assert main(["run", "--config", str(config),
                     "--sampler", "uniform"]) == 0
        capsys.readouterr()

        assert main(["runs", *store, "list"]) == 0
        out = capsys.readouterr().out
        assert "burgers-sgm-" in out and "burgers-uniform-" in out
        assert "completed" in out

        from repro.store import RunStore
        run_id = RunStore(str(tmp_path / "runs")).runs()[0].run_id
        assert main(["runs", *store, "show", run_id]) == 0
        out = capsys.readouterr().out
        assert "checkpoints" in out and "min err(u)" in out

        assert main(["runs", *store, "compare", "--problem", "burgers"]) == 0
        out = capsys.readouterr().out
        assert "Min(u)" in out and "speedup(u)" in out

        assert main(["runs", *store, "gc"]) == 0     # nothing to remove
        assert "removed 0" in capsys.readouterr().out
        assert main(["runs", *store, "gc", "--all"]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_runs_resume_after_interrupt(self, tmp_path, capsys):
        import numpy as np
        import repro
        from repro.api.session import run_problem
        from repro.store import RunStore

        store_root = tmp_path / "runs"
        session = (repro.problem("burgers", scale="smoke")
                   .config(record_every=2).n_interior(300).validators([]))

        class Boom(Exception):
            pass

        def bomb(step, **_):
            if step == 5:
                raise Boom()

        with pytest.raises(Boom):
            run_problem(session.build(), session._config, sampler="uniform",
                        steps=10, validators=[], store=RunStore(store_root),
                        run_id="r1", checkpoint_every=3, step_hooks=[bomb])
        assert main(["runs", "--store", str(store_root),
                     "resume", "r1"]) == 0
        out = capsys.readouterr().out
        assert "resumed r1" in out
        baseline = session.train(steps=10)
        stored = RunStore(store_root).open("r1").history()
        assert np.array_equal(stored.losses, baseline.history.losses)

    def test_runs_unknown_id_is_an_error(self, tmp_path, capsys):
        assert main(["runs", "--store", str(tmp_path / "none"),
                     "show", "ghost"]) == 2
        assert "unknown run" in capsys.readouterr().out

    def test_world_size_refuses_checkpoint_every_flag(self, tmp_path,
                                                      capsys):
        assert main(["run", "burgers", "--world-size", "1",
                     "--checkpoint-every", "5", "--steps", "4",
                     "--n-interior", "300",
                     "--store", str(tmp_path / "runs")]) == 2
        out = capsys.readouterr().out
        assert "error:" in out and "checkpoint" in out

    def test_world_size_drops_config_checkpoint_every(self, tmp_path,
                                                      capsys):
        from repro.store import RunStore
        config = self._write_config(tmp_path, tmp_path / "runs")
        assert main(["run", "--config", str(config),
                     "--world-size", "1"]) == 0
        out = capsys.readouterr().out
        assert "note: ignoring [store] checkpoint_every = 4" in out
        assert "recorded as" in out
        (record,) = RunStore(str(tmp_path / "runs")).runs()
        assert record.status == "completed"

    def test_resume_rejects_wiring_flags(self, tmp_path, capsys):
        assert main(["run", "--resume", "r1",
                     "--store", str(tmp_path / "runs"),
                     "--sampler", "uniform"]) == 2
        out = capsys.readouterr().out
        assert "--sampler" in out and "cannot change" in out

    def test_gc_default_spares_running_and_checkpointed_runs(
            self, tmp_path, capsys):
        import numpy as np
        import repro
        from repro.api.session import run_problem
        from repro.store import RunStore

        store = RunStore(tmp_path / "runs")
        session = (repro.problem("burgers", scale="smoke")
                   .config(record_every=2).n_interior(300).validators([]))

        class Boom(Exception):
            pass

        def bomb_at(at):
            def bomb(step, **_):
                if step == at:
                    raise Boom()
            return bomb

        # failed before any checkpoint -> gc'd; failed after one -> kept
        for run_id, interrupt_at in (("no-ckpt", 2), ("has-ckpt", 7)):
            with pytest.raises(Boom):
                run_problem(session.build(), session._config,
                            sampler="uniform", steps=12, validators=[],
                            store=store, run_id=run_id, checkpoint_every=4,
                            step_hooks=[bomb_at(interrupt_at)])
        # a live-looking run: status running, no checkpoint yet
        store.begin_run(problem="burgers", config=session._config,
                        sampler="uniform", seed=0, steps=12, label="live",
                        n_interior=300, batch_size=32, run_id="live")

        assert main(["runs", "--store", str(store.root), "gc"]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert "no-ckpt" not in store and "has-ckpt" in store
        assert "live" in store

    def test_gc_keep_best_retains_the_best_run_per_cell(self, tmp_path,
                                                        capsys):
        import repro
        from repro.store import RunStore, run_score

        store = RunStore(tmp_path / "runs")
        for seed in (0, 1, 2):
            (repro.problem("burgers", scale="smoke")
             .n_interior(300).validators([]).sampler("uniform").seed(seed)
             .train(steps=6, store=store))
        records = store.runs(status="completed")
        assert len(records) == 3
        best = min(records, key=lambda r: (run_score(r), r.run_id)).run_id

        assert main(["runs", "--store", str(store.root), "gc",
                     "--keep-best", "1"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 run(s)" in out and "kept the 1 best" in out
        assert [r.run_id for r in store.runs()] == [best]

    def test_gc_keep_best_rejects_status_policies(self, tmp_path, capsys):
        assert main(["runs", "--store", str(tmp_path / "runs"), "gc",
                     "--keep-best", "1", "--all"]) == 2
        assert "drop --all" in capsys.readouterr().out

    def test_suite_config_uses_suite_table(self, tmp_path, capsys):
        config = tmp_path / "exp.toml"
        config.write_text("""
[run]
problem = "burgers"
scale = "smoke"
steps = 4
n_interior = 300

[suite]
samplers = ["uniform", "mis"]
""")
        assert main(["suite", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "training U32" in out and "training MIS32" in out
        assert main(["suite", "ldc", "--config", str(config)]) == 2
        assert "not both" in capsys.readouterr().out
        assert main(["suite"]) == 2
        assert "--config" in capsys.readouterr().out

    def test_suite_store_records_methods(self, tmp_path, capsys):
        store_root = tmp_path / "suite-runs"
        assert main(["suite", "burgers", "--samplers", "uniform,sgm",
                     "--steps", "4", "--store", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert "recorded 2 runs" in out
        from repro.store import RunStore
        assert len(RunStore(store_root).runs(problem="burgers")) == 2


class TestMatrixCommand:
    def test_matrix_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["matrix"])
        assert args.problems == "all" and args.samplers is None
        assert not args.parallel and args.store is None
        args = parser.parse_args(["matrix", "--problems", "burgers,ldc",
                                  "--samplers", "uniform,sgm", "--parallel",
                                  "--store", "runs"])
        assert args.problems == "burgers,ldc" and args.parallel

    def test_matrix_smoke_serial(self, capsys):
        assert main(["matrix", "--problems", "burgers,poisson3d",
                     "--samplers", "uniform,sgm", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "Benchmark matrix (2 problems" in out
        assert "[burgers]" in out and "[poisson3d]" in out
        assert "4 cells" in out

    def test_matrix_parallel_store_then_plot_and_compare(self, tmp_path,
                                                         capsys):
        store = str(tmp_path / "matrix-runs")
        assert main(["matrix", "--problems", "burgers,poisson3d",
                     "--samplers", "uniform,sgm", "--steps", "4",
                     "--parallel", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "recorded 4 runs" in out

        # the figure renders from the stored records alone
        csv_path = str(tmp_path / "fig.csv")
        assert main(["runs", "--store", store, "plot",
                     "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "Convergence vs wall time (burgers)" in out
        assert "Convergence vs wall time (poisson3d)" in out
        assert f"series written to {csv_path}" in out
        # matrix-store exports attribute every series to its workload
        import csv as csv_mod
        with open(csv_path, newline="") as handle:
            rows = list(csv_mod.reader(handle))
        assert rows[0] == ["problem", "label", "wall_time", "loss"]
        assert {r[0] for r in rows[1:]} == {"burgers", "poisson3d"}

        # cross-problem compare groups per problem (no mixed thresholds)
        assert main(["runs", "--store", store, "compare"]) == 0
        out = capsys.readouterr().out
        assert "Stored runs (burgers)" in out
        assert "Stored runs (poisson3d)" in out

    def test_matrix_rejects_unknown_names(self, capsys):
        assert main(["matrix", "--problems", "bogus"]) == 2
        assert "unknown problem" in capsys.readouterr().out
        assert main(["matrix", "--problems", "burgers",
                     "--samplers", "bogus"]) == 2
        assert "unknown sampler" in capsys.readouterr().out


class TestRunsPlot:
    def test_plot_requires_runs(self, tmp_path, capsys):
        assert main(["runs", "--store", str(tmp_path / "empty"),
                     "plot"]) == 2
        assert "no runs to plot" in capsys.readouterr().out

    def test_plot_specific_run_and_variable(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(["run", "burgers", "--sampler", "uniform", "--steps",
                     "6", "--n-interior", "300", "--store", store]) == 0
        capsys.readouterr()
        from repro.store import RunStore
        run_id = RunStore(store).runs()[0].run_id
        assert main(["runs", "--store", store, "plot", run_id,
                     "--var", "u"]) == 0
        out = capsys.readouterr().out
        assert "err(u)" in out


def test_train_smoke_ldc(capsys):
    assert main(["run", "ldc", "--sampler", "uniform", "--scale", "smoke",
                 "--steps", "8"]) == 0
    out = capsys.readouterr().out
    assert "min err(u)" in out


def test_solve_ldc_tiny(capsys):
    assert main(["solve-ldc", "--reynolds", "50", "--resolution", "17"]) == 0
    assert "residual" in capsys.readouterr().out


# ----------------------------------------------------------------------
# `repro lint` / `repro analyze`
# ----------------------------------------------------------------------
def test_lint_repo_is_clean(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_lint_json_on_violating_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\n"
                   "def f(xs=[]):\n"
                   "    return np.random.rand(3)\n")
    assert main(["lint", str(bad), "--format", "json"]) == 1
    import json
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert {v["rule"] for v in payload["violations"]} == {"RPR001", "RPR006"}
    assert payload["errors"] == 1 and payload["warnings"] == 1

    assert main(["lint", str(bad), "--select", "RPR001"]) == 1
    out = capsys.readouterr().out
    assert "RPR006" not in out and "RPR001" in out


def test_lint_rules_catalog(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                    "RPR006", "RPR007", "RPR008", "RPR009", "RPR010"):
        assert rule_id in out


@pytest.mark.parametrize("unbuffered", (False, True),
                         ids=("exit-flush", "mid-print"))
def test_closed_stdout_is_a_normal_end_of_output(unbuffered):
    """``repro ... | head``: a reader that stops early ends the output.

    The pipe's read end is closed before the CLI starts, so every write
    fails.  Buffered, the failure comes from the final flush (short
    outputs); unbuffered, from the first ``print`` inside the command (as
    a long output's does once the buffer fills).
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--rules"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""


def test_analyze_tape_burgers_json(capsys):
    assert main(["analyze", "tape", "--problem", "burgers",
                 "--format", "json"]) == 0
    import json
    payload = json.loads(capsys.readouterr().out)
    (report,) = payload["reports"]
    assert report["problem"] == "burgers"
    assert report["shape_consistent"] is True
    assert report["consistent"] is True
    assert report["op_counts"]["matmul"] == 12


def test_analyze_tape_fails_on_a_widened_loss(monkeypatch, capsys):
    import numpy as np

    from repro.training.trainer import Trainer

    draw = Trainer._step_batches

    def float64_weights(self, step, shard=0):
        batches, weights = draw(self, step, shard)
        return batches, {name: np.ones((len(batches[name]), 1))
                         for name in weights}

    monkeypatch.setattr(Trainer, "_step_batches", float64_weights)
    assert main(["analyze", "tape", "--problem", "burgers"]) == 1
    out = capsys.readouterr().out
    assert "dtype=float64" in out and "precision: FAILED" in out
    assert "0/1 problem(s) consistent" in out


def test_analyze_tape_unknown_problem(capsys):
    assert main(["analyze", "tape", "--problem", "nope"]) == 2
    assert "unknown problem" in capsys.readouterr().out
